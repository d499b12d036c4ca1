"""Tests for mixture sampling of kernel centers, widths and collocation."""

from dataclasses import replace

import numpy as np
import pytest

from rbfadapt.assembly import build_system, dedup_rows, extend, fixed_block
from rbfadapt.drivers import baseline_basis
from rbfadapt.problems import Box, advection1d, convdiff_type1, poisson2d
from rbfadapt.rbf import RbfBasis
from rbfadapt.sampling import (
    BaselineConfig,
    component_counts,
    default_eta,
    draw_widths,
    initial_points,
    most_square_factors,
    sample_configuration,
    uniform_grid,
    width_scale_bound,
)

UNIT = Box((0.0,), (1.0,))
SQUARE = Box((0.0, 0.0), (1.0, 1.0))


def _sample_1d(baseline, seed, f=0.5, mu=0.5, tau=1.0, decay=0.5):
    """One 1D component's kernels on the unit interval at eta 0.1 and nu
    0.01, drawn from default_rng(seed) (a Generator is used as it is):
    (adaptive basis or None, component ids)."""
    rng = np.random.default_rng(seed)
    return sample_configuration([(f, np.array([mu]), tau, decay)], 0.1, "component", baseline, UNIT, 0.01, rng)


class TestMixtureWeights:
    """Component k's weight f_k / (1 + sum f), as component_counts realizes it."""

    def test_equal_split(self):
        assert component_counts(10, [1.0]) == [10]

    def test_half(self):
        counts = component_counts(12, [0.5])
        assert counts == [6]
        assert 12 / (12 + sum(counts)) == pytest.approx(2.0 / 3.0)

    def test_two_components(self):
        counts = [10] + component_counts(10, [0.3, 0.4])
        assert counts == [10, 3, 4]
        assert np.array(counts) / sum(counts) == pytest.approx([1.0 / 1.7, 0.3 / 1.7, 0.4 / 1.7])

    def test_normalization_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            f = rng.uniform(0.01, 3.0, rng.integers(1, 5))
            for n in (1, 7, 150, 750):
                counts = component_counts(n, f)
                assert len(counts) == len(f)
                assert all(abs(c - v * n) <= 0.5 for c, v in zip(counts, f))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            component_counts(0, [0.5])


class TestComponentCounts:
    def test_half_fraction(self):
        assert component_counts(250, [0.5]) == [125]

    def test_published_total(self):
        counts = component_counts(750, [0.7])
        assert counts == [525]
        assert 750 + sum(counts) == 1275

    def test_baseline_only(self):
        assert component_counts(100, []) == []

    def test_ties_round_up(self):
        # f * n lands exactly on j + 0.5
        for n in (2, 8, 64, 512):
            fractions = [(2 * j + 1) / (2 * n) for j in range(6)]
            assert component_counts(n, fractions) == [j + 1 for j in range(6)]


class TestGrids:
    def test_1d_equispaced(self):
        g = uniform_grid(UNIT, 5)
        np.testing.assert_allclose(g.ravel(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_most_square_factors(self):
        assert most_square_factors(1600) == (40, 40)
        assert most_square_factors(600) == (24, 25)
        assert most_square_factors(150) == (10, 15)
        assert most_square_factors(7) == (1, 7)

    def test_2d_grid_counts(self):
        g = uniform_grid(SQUARE, 600)
        assert g.shape == (600, 2)
        assert len(np.unique(g[:, 0])) in (24, 25)

    def test_2d_count_that_lays_out_as_one_row_rejected(self):
        # 1,601 is prime: its only layout, 1 x 1,601, puts every point on y = 0
        with pytest.raises(ValueError, match="1601 points lay out only as 1 x 1601"):
            uniform_grid(SQUARE, 1601)

    def test_2d_count_that_lays_out_as_two_rows_rejected(self):
        # 1,594 = 2 x 797: both rows would lie on the edges y = 0 and y = 1
        with pytest.raises(ValueError, match="1594 points lay out only as 2 x 797; a 2D grid needs three per side"):
            uniform_grid(SQUARE, 1594)

    def test_longer_side_gets_more_points(self):
        wide = Box((0.0, 0.0), (2.0, 1.0))
        g = uniform_grid(wide, 12)
        assert len(np.unique(g[:, 0])) == 4
        assert len(np.unique(g[:, 1])) == 3

    def test_boundary_1d(self):
        np.testing.assert_array_equal(convdiff_type1(0.1).boundary_points(2), [[0.0], [1.0]])

    def test_rect_perimeter(self):
        pts = poisson2d(0.05).boundary_points(400)
        assert pts.shape == (400, 2)
        on_edge = (
            (pts[:, 0] == 0) | (pts[:, 0] == 1) | (pts[:, 1] == 0) | (pts[:, 1] == 1)
        )
        assert np.all(on_edge)
        assert len({tuple(p) for p in pts}) == 400

    def test_xsides(self):
        pts = replace(advection1d(0.05, 0.5), domain=SQUARE).boundary_points(150)
        assert pts.shape == (150, 2)
        assert np.all((pts[:, 0] == 0) | (pts[:, 0] == 1))
        assert (pts[:, 0] == 0).sum() == 75

    def test_initial_edge(self):
        pts = initial_points(SQUARE, 450)
        assert pts.shape == (450, 2)
        assert np.all(pts[:, 1] == 0)


class TestSampleCenters:
    def test_baseline_grid_when_no_adaptive_draws(self):
        # the baseline grid is the run's fixed block: with no adaptive
        # draws nothing is added to it and the stream is left untouched
        rng = np.random.default_rng(0)
        adaptive, tags = _sample_1d(BaselineConfig(40, 20, 0.04), rng, f=0.01)
        assert adaptive is None and tags.size == 0
        assert rng.random() == np.random.default_rng(0).random()

    def test_adaptive_moments(self):
        adaptive, tags = _sample_1d(BaselineConfig(100000, 100000, 0.04), 42, f=1.0, mu=0.5, tau=1.0)
        draws = adaptive.centers[tags == 1].ravel()
        se_mean = 0.1 / np.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) < 3 * se_mean
        se_std = 0.1 / np.sqrt(2 * draws.size)
        assert abs(draws.std(ddof=1) - 0.1) < 3 * se_std

    def test_all_inside_domain(self):
        # component hugging the right edge forces redraws and clamps
        adaptive, _ = _sample_1d(BaselineConfig(5000, 5000, 0.04), 1, f=1.0, mu=0.999, tau=0.5)
        assert np.all((adaptive.centers >= 0.0) & (adaptive.centers <= 1.0))

    def test_default_eta(self):
        assert default_eta(UNIT) == pytest.approx(0.1)
        assert default_eta(Box((-1.0, 0.0), (1.0, 1.0))) == pytest.approx(0.2)


class TestSampleWidths:
    def test_scale_bound_spot_value(self):
        assert width_scale_bound(0.04, 0.01, 0.5) == pytest.approx(17677.67, abs=0.01)

    def test_scale_bound_monotone_in_stiffness(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            decay = rng.uniform(-0.9, 2.0)
            nu1, nu2 = sorted(rng.uniform(1e-4, 1.0, 2))
            if nu1 == nu2:
                continue
            assert width_scale_bound(0.04, nu1, decay) > width_scale_bound(
                0.04, nu2, decay
            )

    def test_zero_draw_clamps_to_base_width(self):
        class _ZeroRng:
            def uniform(self, lo, hi, size):
                return np.zeros(size)

        w = draw_widths(0.04, 0.01, 0.5, 1, _ZeroRng())
        np.testing.assert_array_equal(w, [0.04])

    def test_widths_bounded_sweep(self):
        draws = draw_widths(0.04, 0.01, 0.5, 100000, np.random.default_rng(9))
        assert np.all(draws > 0)
        assert np.all(draws <= 0.04)

    def test_isotropic_2d(self):
        # one width per kernel, the same on both axes, in either mode
        comps = [(0.5, np.array([0.5, 0.5]), 1.0, 0.5)]
        for sharing in ("component", "kernel"):
            adaptive, _ = sample_configuration(comps, 0.1, sharing, BaselineConfig(100, 40, 0.2), SQUARE, 0.05,
                                               np.random.default_rng(3))
            w = adaptive.widths
            assert w.shape == (20, 2)
            np.testing.assert_array_equal(w[:, 0], w[:, 1])
            assert (np.unique(w[:, 0]).size > 1) == (sharing == "kernel")


def _one_kernel_at_a_time(components, eta, sharing, baseline, domain, nu, rng):
    """The adaptive kernels drawn in the documented order: each nonempty
    component's centres as one normal block, then each component's widths
    with one width per draw_widths call, one call per component, or per
    kernel under width_sharing "kernel", each width copied to every axis.
    The centres must all land inside the domain, so no redraw happens."""
    counts = component_counts(baseline.n_rbf, [c[0] for c in components])
    centers, tags = [], []
    for k, ((_, mu, tau, _), n_k) in enumerate(zip(components, counts), start=1):
        if n_k:
            centers.append(mu + eta * tau * rng.standard_normal((n_k, domain.dim)))
            tags += [k] * n_k
    centers, tags = np.vstack(centers), np.array(tags)
    assert np.all(domain.contains(centers))
    widths = np.empty_like(centers)
    for k, (_, _, _, decay) in enumerate(components, start=1):
        rows = np.flatnonzero(tags == k)
        if sharing == "kernel":
            for i in rows:
                widths[i] = draw_widths(baseline.sigma_f, nu, decay, 1, rng)[0]
        elif rows.size:
            widths[rows] = draw_widths(baseline.sigma_f, nu, decay, 1, rng)[0]
    return centers, widths, tags


@pytest.mark.parametrize("sharing", ["component", "kernel"])
@pytest.mark.parametrize("domain", [UNIT, SQUARE], ids=["1d", "2d"])
def test_widths_match_one_kernel_at_a_time(domain, sharing):
    # three components, the middle one too small for any kernel: the
    # stream order across components and the state after the widths count
    mus = [[0.3, 0.7], [0.5, 0.5], [0.6, 0.4]]
    comps = [
        (f, np.array(mu[: domain.dim]), tau, decay)
        for f, mu, tau, decay in zip([0.5, 0.01, 0.3], mus, [0.8, 1.0, 0.4], [0.5, 0.2, -0.3])
    ]
    baseline = BaselineConfig(100, 40, 0.1)
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        adaptive, component_of = sample_configuration(comps, 0.1, sharing, baseline, domain, 0.01, rng)
        centers, widths, tags = _one_kernel_at_a_time(comps, 0.1, sharing, baseline, domain, 0.01, ref_rng)
        assert adaptive.centers.tobytes() == centers.tobytes()
        assert adaptive.widths.tobytes() == widths.tobytes()
        np.testing.assert_array_equal(component_of, tags)
        assert rng.random() == ref_rng.random()


def _extended(n_grid, adaptive):
    """extend on a convdiff1 block of 4 baseline kernels over an n_grid
    grid, and the plain build on the stacked basis; returns both."""
    problem = convdiff_type1(0.1)
    base = baseline_basis(UNIT, BaselineConfig(n_grid, 4, 0.1))
    grid, boundary = uniform_grid(UNIT, n_grid), problem.boundary_points(2)
    system, basis = extend(fixed_block(problem, base, grid, boundary), adaptive, [])
    return system, basis, problem, grid, boundary


class TestCollocation:
    """Collocation points of an extended system: the block's grid, then
    every adaptive center."""

    def test_no_adaptive_is_pure_grid(self):
        system, basis, problem, grid, boundary = _extended(20, None)
        full = build_system(problem, basis, grid, boundary)
        assert system.n_rows == 20 + 2 and basis.n_kernels == 4
        np.testing.assert_array_equal(system.matrix, full.matrix)

    def test_adaptive_centers_included_verbatim(self):
        adaptive, _ = _sample_1d(BaselineConfig(50, 20, 0.1), 4)
        system, basis, problem, grid, boundary = _extended(50, adaptive)
        assert system.n_rows == 50 + 10 + 2
        interior = np.vstack([grid, adaptive.centers])
        full = build_system(problem, basis, interior, boundary)
        np.testing.assert_array_equal(system.matrix, full.matrix)
        np.testing.assert_array_equal(system.targets, full.targets)

    def test_exact_duplicates_kept_once(self):
        # 0.33 twice, and 0.0 on the grid already
        adaptive = RbfBasis([[0.33], [0.33], [0.0]], [[0.01], [0.02], [0.03]])
        system, basis, problem, grid, boundary = _extended(5, adaptive)
        assert system.n_rows == 5 + 1 + 2  # 5 grid + 1 unique adaptive + 2 boundary
        full = build_system(problem, basis, np.vstack([grid, [[0.33]]]), boundary)
        np.testing.assert_array_equal(system.matrix, full.matrix)

    def test_dedup_keeps_first_occurrences_in_order(self):
        pts = np.array([[0.5, 1.0], [0.0, 0.0], [0.5, 1.0], [-0.0, 0.0], [0.0, 0.0]])
        out = dedup_rows(pts)
        # rows compare by their bytes, so -0.0 stays apart from 0.0
        assert [row.tobytes() for row in out] == [row.tobytes() for row in pts[[0, 1, 3]]]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dedup_matches_the_per_row_bytes_loop(self, dim):
        rng = np.random.default_rng(dim)
        values = np.array([0.0, -0.0, 0.5, -0.5, 1e-300, np.inf, np.nan])
        pts = values[rng.integers(0, values.size, (400, dim))]
        seen, keep = set(), []
        for i, row in enumerate(pts):
            if row.tobytes() not in seen:
                seen.add(row.tobytes())
                keep.append(i)
        out = dedup_rows(pts)
        assert out.tobytes() == pts[keep].tobytes() and out.shape == (len(keep), dim)


class TestSampleConfiguration:
    def test_baseline_widths_exact(self):
        base = BaselineConfig(40, 20, 0.04)
        assert np.all(baseline_basis(UNIT, base).widths == 0.04)
        adaptive, _ = _sample_1d(base, 5)
        assert np.all(adaptive.widths <= 0.04)

    def test_counts(self):
        base = BaselineConfig(40, 20, 0.04)
        adaptive, component_of = _sample_1d(base, 5, f=0.5)
        assert adaptive.n_kernels == 10
        assert np.all(component_of == 1) and component_of.size == 10
        assert _sample_1d(base, 5, f=0.01)[0] is None

    def test_determinism(self):
        base = BaselineConfig(40, 20, 0.04)
        (a, a_tags), (b, b_tags) = _sample_1d(base, 77), _sample_1d(base, 77)
        assert a.centers.tobytes() == b.centers.tobytes()
        assert a.widths.tobytes() == b.widths.tobytes()
        assert a_tags.tobytes() == b_tags.tobytes()

    def test_invalid_baseline(self):
        with pytest.raises(ValueError):
            BaselineConfig(10, 20, 0.1)
        with pytest.raises(ValueError):
            BaselineConfig(10, 5, -0.1)

    @pytest.mark.parametrize("n_initial", [0, -1])
    def test_initial_row_count_must_be_positive(self, n_initial):
        with pytest.raises(ValueError, match=f"^n_initial: must be positive, got {n_initial}$"):
            BaselineConfig(400, 400, 0.1, n_boundary=20, n_initial=n_initial)
