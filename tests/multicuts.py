"""Multicut checks that only the tests use."""

import numpy as np

from planarclust.graph import PlanarGraph, canonical_labels, cut_from_partition, partition_from_cut


def is_valid_multicut(graph: PlanarGraph, x: np.ndarray) -> bool:
    """True iff every cut edge joins two distinct uncut components."""
    x = np.asarray(x, dtype=bool)
    repaired = cut_from_partition(graph, partition_from_cut(graph, x))
    return bool(np.array_equal(x, repaired))


def repair_cut(graph: PlanarGraph, x: np.ndarray) -> np.ndarray:
    """Largest consistent cut below x: drop cut edges inside components."""
    return cut_from_partition(graph, partition_from_cut(graph, x))


def same_clustering(a: np.ndarray, b: np.ndarray) -> bool:
    """True iff two label vectors group vertices identically."""
    return bool(np.array_equal(canonical_labels(a), canonical_labels(b)))
