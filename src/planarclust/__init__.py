"""Certified correlation clustering of planar weighted graphs.

Lower bounds come from a cutting-plane LP whose separation oracle is an
exact minimum-weight 2-colorable cut solved by perfect matching in the
dual; upper bounds come from recursive bipartitioning and dual-LP rounding
decoders.  Equality of the two, within tolerance, certifies global
optimality of the clustering.
"""

from .bound import (
    BoundResult,
    CutPool,
    lower_bound_value,
    omega_violation,
    optimize_lower_bound,
)
from .cut_oracle import min_cut_2color, min_cut_forced, split_into_basic_cuts
from .decode import (
    CERTIFICATE_TOL,
    DecodeResult,
    best_decode,
    decode_recursive,
    decode_rounding,
)
from .graph import (
    EulerViolation,
    MalformedInput,
    PlanarGraph,
    build_graph,
    canonical_labels,
    cut_energy,
    cut_from_partition,
    is_valid_multicut,
    partition_from_cut,
)
from .instances import (
    GpbLikeWeights,
    Instance,
    UniformWeights,
    gen_grid,
    gen_random_planar,
    gpb_to_theta,
    read_instance,
    round_theta,
    write_instance,
)
from .lp import LpProblem, LpSolution, solve_lp
from .matching import (
    Matching,
    MatchingProblem,
    NoPerfectMatching,
    OddVertexCount,
    min_weight_perfect_matching,
)
from .oracle import (
    ExpandedDual,
    TooLarge,
    brute_cc,
    brute_cc2,
    brute_cck,
    check_coloring_chain,
    exact_cc_value,
    expand_dual,
    full_lp_bound,
    min_cut_2color_via_gadget,
)

__all__ = [
    "BoundResult",
    "CutPool",
    "lower_bound_value",
    "omega_violation",
    "optimize_lower_bound",
    "ExpandedDual",
    "expand_dual",
    "min_cut_2color",
    "min_cut_2color_via_gadget",
    "min_cut_forced",
    "split_into_basic_cuts",
    "CERTIFICATE_TOL",
    "DecodeResult",
    "best_decode",
    "decode_recursive",
    "decode_rounding",
    "EulerViolation",
    "MalformedInput",
    "PlanarGraph",
    "build_graph",
    "canonical_labels",
    "cut_energy",
    "cut_from_partition",
    "is_valid_multicut",
    "partition_from_cut",
    "GpbLikeWeights",
    "Instance",
    "UniformWeights",
    "gen_grid",
    "gen_random_planar",
    "gpb_to_theta",
    "read_instance",
    "round_theta",
    "write_instance",
    "LpProblem",
    "LpSolution",
    "solve_lp",
    "Matching",
    "MatchingProblem",
    "NoPerfectMatching",
    "OddVertexCount",
    "min_weight_perfect_matching",
    "TooLarge",
    "brute_cc",
    "brute_cc2",
    "brute_cck",
    "check_coloring_chain",
    "exact_cc_value",
    "full_lp_bound",
]

__version__ = "0.1.0"
