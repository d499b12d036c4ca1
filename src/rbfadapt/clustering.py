"""Sharp-gradient region detection on 1D baseline solutions.

Finite-difference gradients are thresholded against their mean absolute
value, and the surviving locations are grouped with a density-based
clustering pass.  Each resulting cluster spans one steep feature of the
solution; the cluster count tells the caller how many adaptive kernel
components to allocate and the intervals tell it where.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# dbscan's epsilon and min_pts for the high-gradient locations
EPSILON = 0.05
MIN_PTS = 5


@dataclass(frozen=True)
class GradientClusterResult:
    intervals: tuple
    n_clusters: int


def estimate_gradients(xs, ys) -> np.ndarray:
    """Finite-difference slope estimates: central inside, one-sided at ends."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 3:
        raise ValueError("need matching 1D arrays of at least 3 points")
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
    included.  Clusters are connected components of core points together
    with the border points they reach; everything else is noise.  Both
    outputs hold indices into the input list.  Clusters are ordered by
    their minimum coordinate, and a border point reachable from several
    clusters joins the one whose leftmost core is smallest, so the
    partition does not depend on input order.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    points = np.asarray(points, dtype=float).ravel()
    n = points.size
    if n == 0:
        return [], []
    order = np.argsort(points, kind="stable")
    sorted_pts = points[order]

    # neighbor index window per point on the sorted axis
    left = np.searchsorted(sorted_pts, sorted_pts - epsilon, side="left")
    right = np.searchsorted(sorted_pts, sorted_pts + epsilon, side="right")
    counts = right - left
    is_core = counts >= min_pts

    labels = np.full(n, -1, dtype=int)
    cluster_id = 0
    for seed in range(n):
        if not is_core[seed] or labels[seed] != -1:
            continue
        queue = [seed]
        labels[seed] = cluster_id
        while queue:
            i = queue.pop()
            if not is_core[i]:
                continue
            for j in range(left[i], right[i]):
                if labels[j] == -1:
                    labels[j] = cluster_id
                    queue.append(j)
        cluster_id += 1

    clusters = []
    for cid in range(cluster_id):
        members = order[np.nonzero(labels == cid)[0]]
        clusters.append(sorted(int(i) for i in members))
    # seeds were visited in ascending coordinate, so cids are already
    # ordered by leftmost core; re-sort by min coordinate for safety
    clusters.sort(key=lambda idx: points[idx].min())
    noise = sorted(int(i) for i in order[np.nonzero(labels == -1)[0]])
    return clusters, noise


def detect_gradient_clusters(xs, ys) -> GradientClusterResult:
    """Full pipeline: gradients, threshold, cluster, report intervals."""
    g = estimate_gradients(xs, ys)
    high = select_high_gradient(xs, g)
    clusters, _ = dbscan(high, EPSILON, MIN_PTS)
    intervals = tuple(
        (float(high[idx].min()), float(high[idx].max())) for idx in clusters
    )
    return GradientClusterResult(intervals, len(intervals))
