"""Tests for mixture sampling of kernel centers, widths and collocation."""

import numpy as np
import pytest

from rbfadapt.problems import Box
from rbfadapt.sampling import (
    BaselineConfig,
    MixtureComponent,
    MixtureHyperparams,
    boundary_points_1d,
    boundary_points_rect,
    boundary_points_xsides,
    component_counts,
    dedup_rows,
    default_eta,
    initial_points,
    most_square_factors,
    sample_centers,
    sample_collocation,
    sample_configuration,
    sample_nu,
    sample_widths,
    uniform_grid,
    width_scale_bound,
)

UNIT = Box((0.0,), (1.0,))
SQUARE = Box((0.0, 0.0), (1.0, 1.0))


def _hp_1d(f=0.5, mu=0.5, tau=1.0, decay=0.5, eta=0.1, **kw):
    comp = MixtureComponent(f, [mu], [tau], decay)
    return MixtureHyperparams((comp,), eta=eta, **kw)


class TestMixtureWeights:
    """Component k's weight f_k / (1 + sum f), as component_counts realizes it."""

    def test_equal_split(self):
        assert component_counts(10, [1.0]) == [10, 10]

    def test_half(self):
        counts = component_counts(12, [0.5])
        assert counts == [12, 6]
        assert counts[0] / sum(counts) == pytest.approx(2.0 / 3.0)

    def test_two_components(self):
        counts = component_counts(10, [0.3, 0.4])
        assert counts == [10, 3, 4]
        assert np.array(counts) / sum(counts) == pytest.approx([1.0 / 1.7, 0.3 / 1.7, 0.4 / 1.7])

    def test_normalization_sweep(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            f = rng.uniform(0.01, 3.0, rng.integers(1, 5))
            for n in (1, 7, 150, 750):
                counts = component_counts(n, f)
                assert counts[0] == n
                assert all(abs(c - v * n) <= 0.5 for c, v in zip(counts[1:], f))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            component_counts(0, [0.5])
        with pytest.raises(ValueError):
            MixtureComponent(0.0, [0.5], [1.0], 0.5)


class TestComponentCounts:
    def test_half_fraction(self):
        assert component_counts(250, [0.5]) == [250, 125]

    def test_published_total(self):
        counts = component_counts(750, [0.7])
        assert counts == [750, 525]
        assert sum(counts) == 1275

    def test_baseline_only(self):
        assert component_counts(100, []) == [100]

    def test_ties_round_up(self):
        # f * n lands exactly on j + 0.5
        for n in (2, 8, 64, 512):
            fractions = [(2 * j + 1) / (2 * n) for j in range(6)]
            assert component_counts(n, fractions) == [n] + [j + 1 for j in range(6)]


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

    def test_longer_side_gets_more_points(self):
        wide = Box((0.0, 0.0), (2.0, 1.0))
        g = uniform_grid(wide, 12)
        assert len(np.unique(g[:, 0])) == 4
        assert len(np.unique(g[:, 1])) == 3

    def test_boundary_1d(self):
        np.testing.assert_array_equal(boundary_points_1d(UNIT), [[0.0], [1.0]])

    def test_rect_perimeter(self):
        pts = boundary_points_rect(SQUARE, 400)
        assert pts.shape == (400, 2)
        on_edge = (
            (pts[:, 0] == 0) | (pts[:, 0] == 1) | (pts[:, 1] == 0) | (pts[:, 1] == 1)
        )
        assert np.all(on_edge)
        assert len({tuple(p) for p in pts}) == 400

    def test_xsides(self):
        pts = boundary_points_xsides(SQUARE, 150)
        assert pts.shape == (150, 2)
        assert np.all((pts[:, 0] == 0) | (pts[:, 0] == 1))
        assert (pts[:, 0] == 0).sum() == 75

    def test_initial_edge(self):
        pts = initial_points(SQUARE, 450)
        assert pts.shape == (450, 2)
        assert np.all(pts[:, 1] == 0)


class TestSampleCenters:
    def test_baseline_grid_when_no_adaptive_draws(self):
        hp = _hp_1d()
        centers, tags = sample_centers(hp, [10, 0], UNIT, np.random.default_rng(0))
        assert centers.shape == (10, 1)
        assert np.all(tags == 0)
        np.testing.assert_allclose(centers.ravel(), np.linspace(0, 1, 10))

    def test_adaptive_moments(self):
        hp = _hp_1d(mu=0.5, tau=1.0, eta=0.1)
        rng = np.random.default_rng(42)
        centers, tags = sample_centers(hp, [2, 100000], UNIT, rng)
        draws = centers[tags == 1].ravel()
        se_mean = 0.1 / np.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) < 3 * se_mean
        se_std = 0.1 / np.sqrt(2 * draws.size)
        assert abs(draws.std(ddof=1) - 0.1) < 3 * se_std

    def test_all_inside_domain(self):
        # component hugging the right edge forces redraws and clamps
        hp = _hp_1d(mu=0.999, tau=0.5)
        centers, _ = sample_centers(hp, [5, 5000], UNIT, np.random.default_rng(1))
        assert np.all((centers >= 0.0) & (centers <= 1.0))

    def test_eta_cap_enforced(self):
        hp = _hp_1d(eta=0.2)
        with pytest.raises(ValueError):
            sample_centers(hp, [5, 5], UNIT, np.random.default_rng(0))

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

        hp = _hp_1d()
        w = sample_widths(hp, 1, 0.01, 0.04, _ZeroRng())
        np.testing.assert_array_equal(w, [0.04])

    def test_widths_bounded_sweep(self):
        hp = _hp_1d(decay=0.5)
        rng = np.random.default_rng(9)
        draws = np.array(
            [sample_widths(hp, 1, 0.01, 0.04, rng)[0] for _ in range(100000)]
        )
        assert np.all(draws > 0)
        assert np.all(draws <= 0.04)

    def test_isotropic_2d(self):
        comp = MixtureComponent(0.5, [0.5, 0.5], [1.0, 1.0], 0.5)
        hp = MixtureHyperparams((comp,), eta=0.1)
        w = sample_widths(hp, 1, 0.05, 0.2, np.random.default_rng(3))
        assert w.shape == (2,)
        assert w[0] == w[1]

    def test_per_dimension_2d(self):
        comp = MixtureComponent(0.5, [0.5, 0.5], [1.0, 1.0], 0.5)
        hp = MixtureHyperparams((comp,), eta=0.1, isotropic_widths=False)
        w = sample_widths(hp, 1, 0.05, 0.2, np.random.default_rng(3))
        assert w[0] != w[1]

    def test_baseline_component_rejected(self):
        with pytest.raises(ValueError):
            sample_widths(_hp_1d(), 0, 0.01, 0.04, np.random.default_rng(0))


class TestCollocation:
    def test_no_adaptive_is_pure_grid(self):
        base = BaselineConfig(20, 10, 0.1)
        centers = uniform_grid(UNIT, 10)
        pts = sample_collocation(base, centers, np.zeros(10, dtype=int), UNIT)
        np.testing.assert_array_equal(pts, uniform_grid(UNIT, 20))

    def test_adaptive_centers_included_verbatim(self):
        base = BaselineConfig(50, 20, 0.1)
        hp = _hp_1d()
        centers, tags = sample_centers(hp, [20, 10], UNIT, np.random.default_rng(4))
        pts = sample_collocation(base, centers, tags, UNIT)
        assert pts.shape == (60, 1)
        grid_bytes = {row.tobytes() for row in pts}
        for row in centers[tags == 1]:
            assert row.tobytes() in grid_bytes

    def test_exact_duplicates_kept_once(self):
        base = BaselineConfig(5, 2, 0.1)
        centers = np.array([[0.0], [0.33], [0.33]])
        tags = np.array([0, 1, 1])
        pts = sample_collocation(base, centers, tags, UNIT)
        assert pts.shape == (6, 1)  # 5 grid + 1 unique adaptive

    def test_dedup_keeps_first_occurrences_in_order(self):
        pts = np.array([[0.5, 1.0], [0.0, 0.0], [0.5, 1.0], [-0.0, 0.0], [0.0, 0.0]])
        out = dedup_rows(pts)
        # rows compare by their bytes, so -0.0 stays apart from 0.0
        assert [row.tobytes() for row in out] == [row.tobytes() for row in pts[[0, 1, 3]]]


class TestSampleNu:
    def test_degenerate_sigma(self):
        hp = _hp_1d(inverse_params={"mu_nu": 0.01, "sigma_nu": 0.0})
        assert sample_nu(hp, np.random.default_rng(0)) == 0.01

    def test_mean_recovery(self):
        hp = _hp_1d(inverse_params={"mu_nu": 0.05, "sigma_nu": 0.001})
        rng = np.random.default_rng(12)
        draws = np.array([sample_nu(hp, rng) for _ in range(100000)])
        assert np.all(draws > 0)
        assert abs(draws.mean() - 0.05) < 3 * 0.001 / np.sqrt(draws.size)

    def test_requires_inverse_params(self):
        with pytest.raises(ValueError):
            sample_nu(_hp_1d(), np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_nu(
                _hp_1d(inverse_params={"a": 0.5}), np.random.default_rng(0)
            )


class TestSampleConfiguration:
    def test_baseline_widths_exact(self):
        hp = _hp_1d()
        base = BaselineConfig(40, 20, 0.04)
        cfg = sample_configuration(hp, base, UNIT, 0.01, np.random.default_rng(5))
        assert np.all(cfg.basis.widths[cfg.component_of == 0] == 0.04)
        assert np.all(cfg.basis.widths[cfg.component_of == 1] <= 0.04)

    def test_counts(self):
        hp = _hp_1d(f=0.5)
        base = BaselineConfig(40, 20, 0.04)
        cfg = sample_configuration(hp, base, UNIT, 0.01, np.random.default_rng(5))
        assert cfg.basis.n_kernels == 30
        assert (cfg.component_of == 1).sum() == 10
        assert cfg.interior_pts.shape[0] == 50

    def test_determinism(self):
        hp = _hp_1d()
        base = BaselineConfig(40, 20, 0.04)
        a = sample_configuration(hp, base, UNIT, 0.01, np.random.default_rng(77))
        b = sample_configuration(hp, base, UNIT, 0.01, np.random.default_rng(77))
        assert a.basis.centers.tobytes() == b.basis.centers.tobytes()
        assert a.basis.widths.tobytes() == b.basis.widths.tobytes()
        assert a.interior_pts.tobytes() == b.interior_pts.tobytes()

    def test_invalid_baseline(self):
        with pytest.raises(ValueError):
            BaselineConfig(10, 20, 0.1)
        with pytest.raises(ValueError):
            BaselineConfig(10, 5, -0.1)
