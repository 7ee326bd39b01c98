"""Independent check of a (bound, clustering) certificate.

Uses only public planarclust functions and one fresh oracle call, so a
change inside the solver cannot make its own output pass by construction.
"""

from __future__ import annotations

import numpy as np

from planarclust import cut_energy, cut_from_partition, min_cut_2color

BOX_TOL = 1e-9  # LP solver feasibility slack allowed on the lambda box
REL_TOL = 1e-9  # relative slack on recomputed sums


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def certificate_problems(graph, theta, lam, bound, labels, energy, tol: float) -> list[str]:
    """Every way the certificate fails; an empty list means it holds.

    Checks that lambda lies in the box theta <= lam <= max(0, theta), that
    a fresh minimum 2-colorable cut under lambda is >= -tol, that bound ==
    sum(min(theta - lam, 0)), that the energy recomputed from the labels
    equals the reported energy, and that energy >= bound - tol.
    """
    theta = np.asarray(theta, dtype=float)
    lam = np.asarray(lam, dtype=float)
    labels = np.asarray(labels)
    if lam.shape != theta.shape:
        return ["lambda has the wrong length"]
    if labels.shape != (graph.vertex_count,):
        return ["labels have the wrong length"]
    problems = []
    if np.any(lam < theta - BOX_TOL) or np.any(lam > np.maximum(theta, 0.0) + BOX_TOL):
        problems.append("lambda leaves the box theta <= lambda <= max(0, theta)")
    _, value = min_cut_2color(graph, lam)
    if value < -tol:
        problems.append(f"lambda is infeasible: a 2-colorable cut weighs {value:.6g}")
    implied = float(np.minimum(theta - lam, 0.0).sum())
    if not _close(bound, implied):
        problems.append(f"bound {bound!r} != sum(min(theta - lambda, 0)) = {implied!r}")
    recomputed = cut_energy(graph, theta, cut_from_partition(graph, labels))
    if not _close(energy, recomputed):
        problems.append(f"energy {energy!r} != {recomputed!r} recomputed from the labels")
    if energy < bound - tol:
        problems.append(f"energy {energy!r} lies below the bound {bound!r}")
    return problems
