"""Sharp-gradient region detection on 1D baseline solutions.

Finite-difference gradients are thresholded against their mean absolute
value, and the surviving locations are grouped by DBSCAN (Ester et al.,
KDD 1996).  Each resulting cluster spans one steep feature of the
solution; the cluster count tells the caller how many adaptive kernel
components to allocate and the intervals tell it where.

On a line, DBSCAN is one sorted scan.  Each point's neighbours form an
index window [left, right) of the sorted points, found by
``searchsorted`` at x - epsilon and x + epsilon, and a core point's window
holds at least min_pts points.  Both window edges grow with x, so a
cluster is a run of consecutive cores grown rightwards from its leftmost
core: the next core joins it when it lies in the previous core's window.
Only that forward test is made.  Rounding makes the windows asymmetric:
fl(0.7 + 0.2) < 0.9 while fl(0.9 - 0.2) <= 0.7, so cores at 0.7 and 0.9
with epsilon 0.2 form two clusters, as a breadth-first search from the
leftmost core also finds.  Every point then joins the cluster of the
leftmost core whose window holds it, or is noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# dbscan's epsilon and min_pts for the high-gradient locations
EPSILON = 0.05
MIN_PTS = 5
# the fewest points estimate_gradients takes: an inner point needs a neighbour on each side
MIN_GRADIENT_POINTS = 3


@dataclass(frozen=True)
class GradientClusterResult:
    intervals: tuple
    n_clusters: int


def estimate_gradients(xs, ys) -> np.ndarray:
    """Finite-difference slope estimates: central inside, one-sided at ends."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < MIN_GRADIENT_POINTS:
        raise ValueError(f"need matching 1D arrays of at least {MIN_GRADIENT_POINTS} points")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("xs must be strictly increasing")
    g = np.empty_like(ys)
    g[1:-1] = (ys[2:] - ys[:-2]) / (xs[2:] - xs[:-2])
    g[0] = (ys[1] - ys[0]) / (xs[1] - xs[0])
    g[-1] = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
    return g


def select_high_gradient(xs, gradients) -> np.ndarray:
    """Locations whose |gradient| strictly exceeds the mean |gradient|."""
    xs = np.asarray(xs, dtype=float)
    mags = np.abs(np.asarray(gradients, dtype=float))
    return xs[mags > mags.mean()]


def dbscan(points, epsilon: float, min_pts: int):
    """Density-based clustering of scalars; returns (clusters, noise).

    A core point has at least min_pts neighbors within epsilon, itself
    included; cores and the points they hold form clusters as the module
    docstring says, and everything else is noise.  Both outputs hold
    sorted indices into the input list, and the clusters are ordered by
    their minimum coordinate, so the partition does not depend on input
    order.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    points = np.asarray(points, dtype=float).ravel()
    order = np.argsort(points, kind="stable")
    sorted_pts = points[order]

    # neighbor index window per point on the sorted axis
    left = np.searchsorted(sorted_pts, sorted_pts - epsilon, side="left")
    right = np.searchsorted(sorted_pts, sorted_pts + epsilon, side="right")
    cores = np.flatnonzero(right - left >= min_pts)
    # a core opens a cluster unless it lies in the previous core's window
    opens = np.ones(cores.size, dtype=bool)
    opens[1:] = cores[1:] >= right[cores[:-1]]
    cluster_of_core = np.cumsum(opens) - 1

    # per point, the first core whose window reaches past it; both window
    # edges grow with the core, so if that one does not hold it, none does
    first = np.searchsorted(right[cores], np.arange(points.size), side="right")
    held = np.flatnonzero(first < cores.size)
    held = held[left[cores[first[held]]] <= held]
    labels = np.full(points.size, -1)
    labels[held] = cluster_of_core[first[held]]

    # in scan order, the clusters are already ordered by minimum coordinate
    clusters = [np.sort(order[labels == c]).tolist() for c in range(int(opens.sum()))]
    return clusters, np.sort(order[labels < 0]).tolist()


def detect_gradient_clusters(xs, ys) -> GradientClusterResult:
    """Full pipeline: gradients, threshold, cluster, report intervals."""
    g = estimate_gradients(xs, ys)
    high = select_high_gradient(xs, g)
    clusters, _ = dbscan(high, EPSILON, MIN_PTS)
    intervals = tuple(
        (float(high[idx].min()), float(high[idx].max())) for idx in clusters
    )
    return GradientClusterResult(intervals, len(intervals))
