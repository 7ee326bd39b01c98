"""Certified correlation clustering of planar weighted graphs.

Lower bounds come from a cutting-plane LP whose separation oracle is an
exact minimum-weight 2-colorable cut solved by perfect matching in the
dual; upper bounds come from dual-LP rounding and recursive bipartitioning,
polished by a local search.  Equality of the two, within tolerance,
certifies global optimality of the clustering.

The brute-force reference solvers live in `planarclust.oracle`, LP and
matching internals in `planarclust.lp` and `planarclust.matching`.
"""

from .bound import BoundResult, CutPool, lower_bound_value, optimize_lower_bound
from .cut_oracle import min_cut_2color, min_cut_forced
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
    cut_energy,
    cut_from_partition,
    partition_from_cut,
)
from .instances import (
    GpbLikeWeights,
    Instance,
    UniformWeights,
    gen_grid,
    gen_random_planar,
    read_instance,
    write_instance,
)

__all__ = [
    "BoundResult",
    "CutPool",
    "lower_bound_value",
    "optimize_lower_bound",
    "min_cut_2color",
    "min_cut_forced",
    "CERTIFICATE_TOL",
    "DecodeResult",
    "best_decode",
    "decode_recursive",
    "decode_rounding",
    "PlanarGraph",
    "build_graph",
    "MalformedInput",
    "EulerViolation",
    "cut_energy",
    "cut_from_partition",
    "partition_from_cut",
    "Instance",
    "GpbLikeWeights",
    "UniformWeights",
    "gen_grid",
    "gen_random_planar",
    "read_instance",
    "write_instance",
]

__version__ = "0.1.0"
