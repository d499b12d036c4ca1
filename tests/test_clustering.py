"""Tests for gradient estimation and density clustering."""

import numpy as np
import pytest

from rbfadapt.clustering import (
    dbscan,
    detect_gradient_clusters,
    estimate_gradients,
    select_high_gradient,
)


def _brute_force_dbscan(points, epsilon, min_pts):
    """Declarative reference: union-find on cores, then attach borders.

    A border point reachable from several core components joins the one
    whose leftmost core is smallest, matching the library's stated rule.
    """
    pts = np.asarray(points, dtype=float).ravel()
    n = pts.size
    dist = np.abs(pts[:, None] - pts[None, :])
    neighbors = dist <= epsilon
    core = neighbors.sum(axis=1) >= min_pts

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        if not core[i]:
            continue
        for j in range(n):
            if core[j] and neighbors[i, j]:
                parent[find(i)] = find(j)

    comp_of = {}
    for i in range(n):
        if core[i]:
            comp_of.setdefault(find(i), []).append(i)
    components = list(comp_of.values())
    components.sort(key=lambda idx: pts[idx].min())

    assigned = {}
    for rank, comp in enumerate(components):
        for i in comp:
            assigned[i] = rank
    for i in range(n):
        if core[i] or i in assigned:
            continue
        reachable = sorted(
            {assigned[j] for j in range(n) if core[j] and neighbors[i, j]}
        )
        if reachable:
            assigned[i] = reachable[0]

    clusters = [[] for _ in components]
    noise = []
    for i in range(n):
        if i in assigned:
            clusters[assigned[i]].append(i)
        else:
            noise.append(i)
    return [sorted(c) for c in clusters], sorted(noise)


def _breadth_first_dbscan(points, epsilon, min_pts):
    """Reference with the library's own windows: a breadth-first search
    from each unlabeled core, in ascending coordinate, over the
    searchsorted neighbour windows.  Unlike the brute force above it keeps
    their rounding, so it agrees with the library on the asymmetric edges
    of gridded points."""
    points = np.asarray(points, dtype=float).ravel()
    n = points.size
    order = np.argsort(points, kind="stable")
    sorted_pts = points[order]
    left = np.searchsorted(sorted_pts, sorted_pts - epsilon, side="left")
    right = np.searchsorted(sorted_pts, sorted_pts + epsilon, side="right")
    is_core = right - left >= min_pts
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
    clusters = [sorted(int(i) for i in order[labels == cid]) for cid in range(cluster_id)]
    clusters.sort(key=lambda idx: points[idx].min())
    return clusters, sorted(int(i) for i in order[labels == -1])


class TestEstimateGradients:
    def test_constant(self):
        xs = np.linspace(0, 1, 10)
        np.testing.assert_array_equal(estimate_gradients(xs, np.ones(10)), 0.0)

    def test_linear_exact(self):
        xs = np.linspace(0, 1, 10)
        np.testing.assert_allclose(estimate_gradients(xs, 2 * xs), 2.0, rtol=1e-13)

    def test_quadratic_exact_interior(self):
        xs = np.linspace(0, 1, 21)
        g = estimate_gradients(xs, xs**2)
        np.testing.assert_allclose(g[1:-1], 2 * xs[1:-1], rtol=1e-12)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            estimate_gradients([0.0, 1.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            estimate_gradients([0.0, 1.0, 0.5], [0.0, 1.0, 2.0])


class TestSelectHighGradient:
    def test_all_equal_gives_empty(self):
        xs = np.linspace(0, 1, 10)
        assert select_high_gradient(xs, np.full(10, 3.0)).size == 0

    def test_single_spike(self):
        xs = np.linspace(0, 1, 11)
        g = np.zeros(11)
        g[4] = 5.0
        np.testing.assert_array_equal(select_high_gradient(xs, g), [xs[4]])

    def test_tanh_profile_concentrates(self):
        xs = np.linspace(0, 1, 1000)
        ys = np.tanh((xs - 0.5) / 0.01)
        high = select_high_gradient(xs, estimate_gradients(xs, ys))
        assert high.size > 0
        assert np.all(np.abs(high - 0.5) < 0.05)


class TestDbscan:
    def test_single_dense_run(self):
        pts = 0.01 * np.arange(10)
        clusters, noise = dbscan(pts, 0.05, 5)
        assert len(clusters) == 1
        assert clusters[0] == list(range(10))
        assert noise == []

    def test_two_separated_groups(self):
        pts = np.concatenate([0.01 * np.arange(10), 1.0 + 0.01 * np.arange(10)])
        clusters, noise = dbscan(pts, 0.05, 5)
        assert len(clusters) == 2
        assert noise == []

    def test_sparse_points_all_noise(self):
        clusters, noise = dbscan([0.0, 0.5, 1.0], 0.05, 5)
        assert clusters == []
        assert noise == [0, 1, 2]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(19)
        pts = np.concatenate(
            [rng.uniform(0, 0.1, 30), rng.uniform(0.6, 0.7, 30), [0.35, 0.4]]
        )
        perm = rng.permutation(pts.size)
        c1, n1 = dbscan(pts, 0.03, 4)
        c2, n2 = dbscan(pts[perm], 0.03, 4)
        as_values = lambda cl, p: sorted(tuple(sorted(p[c])) for c in cl)
        assert as_values(c1, pts) == as_values(c2, pts[perm])
        assert sorted(pts[n1]) == pytest.approx(sorted(pts[perm][n2]))

    def test_matches_brute_force_sweep(self):
        rng = np.random.default_rng(101)
        for case in range(100):
            n = int(rng.integers(5, 201))
            # mix of dense pockets and scattered background
            n_pockets = int(rng.integers(1, 4))
            parts = [rng.uniform(0, 1, n // 3)]
            for _ in range(n_pockets):
                c = rng.uniform(0, 1)
                parts.append(c + rng.uniform(-0.02, 0.02, (n - n // 3) // n_pockets))
            pts = np.concatenate(parts)[:n]
            eps = float(rng.uniform(0.005, 0.08))
            min_pts = int(rng.integers(2, 8))
            got_c, got_n = dbscan(pts, eps, min_pts)
            exp_c, exp_n = _brute_force_dbscan(pts, eps, min_pts)
            assert got_c == exp_c, f"clusters differ in case {case}"
            assert got_n == exp_n, f"noise differs in case {case}"

    def test_asymmetric_windows_keep_two_clusters(self):
        # fl(0.7 + 0.2) < 0.9 but fl(0.9 - 0.2) <= 0.7: only the 0.9s see
        # the 0.7s, and no core reaches the other group going right
        assert dbscan([0.7] * 3 + [0.9] * 3, 0.2, 3) == ([[0, 1, 2], [3, 4, 5]], [])

    def test_rounding_edge_splits_a_grid(self):
        pts = [0.9, 0.1, 0.3, 0.2, 0.4, 0.7, 0.9, 0.4, 0.6, 0.6, 0.1, 0.9, 0.7, 0.5, 0.2, 0.0, 1.0]
        clusters, noise = dbscan(pts, 0.2, 3)
        assert clusters == [[1, 2, 3, 4, 5, 7, 8, 9, 10, 12, 13, 14, 15], [0, 6, 11, 16]]
        assert noise == []

    def test_matches_breadth_first_search_on_grids(self):
        # grid points put ties and rounding edges at every epsilon tried
        rng = np.random.default_rng(7)
        for case in range(3000):
            step = (0.1, 0.01, 0.001)[case % 3]
            n = int(rng.integers(0, 80))
            pts = rng.integers(0, round(1 / step) + 1, n) * step
            eps = float(rng.choice([0.2, 0.05, 0.02, 0.1 * step])) if case % 2 else float(rng.uniform(0.001, 0.3))
            min_pts = int(rng.integers(1, 9))
            assert dbscan(pts, eps, min_pts) == _breadth_first_dbscan(pts, eps, min_pts), f"case {case}"

    def test_min_cluster_size(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            pts = rng.uniform(0, 1, int(rng.integers(10, 200)))
            min_pts = int(rng.integers(2, 6))
            clusters, _ = dbscan(pts, float(rng.uniform(0.01, 0.1)), min_pts)
            for c in clusters:
                assert len(c) >= min_pts

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            dbscan([0.0], -1.0, 5)
        with pytest.raises(ValueError):
            dbscan([0.0], 0.1, 0)


class TestDetectGradientClusters:
    def test_single_steep_front(self):
        xs = np.linspace(0, 1, 500)
        ys = np.tanh((xs - 0.5) / 0.01)
        intervals = detect_gradient_clusters(xs, ys)
        assert len(intervals) == 1
        lo, hi = intervals[0]
        assert 0.4 < lo < 0.5 < hi < 0.6

    def test_two_fronts_ordered(self):
        xs = np.linspace(0, 1, 800)
        ys = np.tanh((xs - 0.2) / 0.01) + np.tanh((xs - 0.8) / 0.01)
        intervals = detect_gradient_clusters(xs, ys)
        assert len(intervals) == 2
        assert intervals[0][1] < intervals[1][0]
        assert abs((intervals[0][0] + intervals[0][1]) / 2 - 0.2) < 0.05
        assert abs((intervals[1][0] + intervals[1][1]) / 2 - 0.8) < 0.05

    def test_constant_function(self):
        xs = np.linspace(0, 1, 100)
        intervals = detect_gradient_clusters(xs, np.full(100, 2.5))
        assert intervals == ()

    def test_scale_invariance(self):
        xs = np.linspace(0, 1, 600)
        ys = np.exp(-((xs - 0.7) ** 2) / 0.001)
        r1 = detect_gradient_clusters(xs, ys)
        r2 = detect_gradient_clusters(xs, 2.0 * ys)
        assert r1 == r2

    def test_intervals_disjoint_and_ordered(self):
        xs = np.linspace(0, 1, 700)
        ys = sum(
            np.tanh((xs - c) / 0.008) for c in (0.15, 0.5, 0.85)
        )
        intervals = detect_gradient_clusters(xs, ys)
        for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
            assert hi1 < lo2
            assert lo1 <= hi1 and lo2 <= hi2
