"""Tests for the GP surrogate, acquisition, and optimization loop."""

import numpy as np
import pytest
from scipy.linalg import cho_solve

from rbfadapt import bayesopt
from rbfadapt.bayesopt import (
    BoConfig,
    BoHistory,
    SearchBounds,
    _chol_with_jitter,
    _initial_design,
    _kernel_matrix,
    _negative_log_marginal,
    _pairwise_sqdists,
    bayes_step,
    expected_improvement,
    gp_fit,
    gp_predict,
    gp_predict_batch,
    gp_with_params,
    optimize,
)


class TestSearchBounds:
    def test_round_trip(self):
        b = SearchBounds([("mu", 0.9, 0.99), ("tau", 0.05, 0.5)])
        rng = np.random.default_rng(1)
        for _ in range(100):
            u = rng.uniform(size=2)
            np.testing.assert_allclose(b.to_unit(b.from_unit(u)), u, atol=1e-12)

    def test_log_scale_round_trip(self):
        b = SearchBounds([("nu", 1e-4, 1e-1)], log_scale={"nu": True})
        np.testing.assert_allclose(b.from_unit(np.array([0.0])), [1e-4], rtol=1e-12)
        np.testing.assert_allclose(b.from_unit(np.array([1.0])), [1e-1], rtol=1e-12)
        # halfway in unit space is the geometric mean of the bounds
        np.testing.assert_allclose(
            b.from_unit(np.array([0.5])), [np.sqrt(1e-4 * 1e-1)], rtol=1e-12
        )

    def test_from_unit_clips(self):
        b = SearchBounds([("x", 0.0, 1.0)])
        assert b.from_unit(np.array([1.7]))[0] == 1.0
        assert b.from_unit(np.array([-0.2]))[0] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBounds([("x", 1.0, 1.0)])
        with pytest.raises(ValueError):
            SearchBounds([("x", 0.0, 1.0), ("x", 0.0, 2.0)])
        with pytest.raises(ValueError):
            SearchBounds([("x", -1.0, 1.0)], log_scale={"x": True})


class TestHistory:
    def test_incumbent_tracking(self):
        h = BoHistory()
        h.append([0.1], 5.0)
        h.append([0.2], 1.0)
        h.append([0.3], 3.0)
        assert h.incumbent_index == 1
        assert h.best_loss == 1.0
        np.testing.assert_array_equal(h.best_w, [0.2])

    def test_empty_incumbent_errors(self):
        with pytest.raises(ValueError):
            BoHistory().incumbent_index


class TestGpFit:
    def test_interpolates_two_points(self):
        x = np.array([[0.2], [0.8]])
        y = np.array([1.0, -1.0])
        gp = gp_fit(x, y, noise_floor=1e-8)
        for xi, yi in zip(x, y):
            mean, _ = gp_predict(gp, xi)
            assert abs(mean - yi) < 1e-3

    def test_constant_targets(self):
        x = np.linspace(0, 1, 6).reshape(-1, 1)
        gp = gp_fit(x, np.full(6, 4.2))
        prior_var = gp.signal_var * gp.target_scale**2
        for xi in (0.05, 0.5, 0.95):
            mean, var = gp_predict(gp, [xi])
            assert mean == pytest.approx(4.2, abs=1e-6)
            assert var <= prior_var * (1 + 1e-9)

    def test_sine_regression(self):
        rng = np.random.default_rng(7)
        x_train = rng.uniform(0, 1, (20, 1))
        y_train = np.sin(10.0 * x_train.ravel())
        gp = gp_fit(x_train, y_train)
        x_test = np.linspace(0.02, 0.98, 100).reshape(-1, 1)
        mean, _ = gp_predict_batch(gp, x_test)
        rmse = np.sqrt(np.mean((mean - np.sin(10.0 * x_test.ravel())) ** 2))
        assert rmse < 0.1

    def test_fit_never_worse_than_first_start(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 1, (12, 2))
        y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2
        gp = gp_fit(x, y)
        y_std = (y - y.mean()) / y.std()
        sq = _pairwise_sqdists(x, x)
        start = np.concatenate([np.full(2, np.log(0.3)), [0.0, np.log(1e-6)]])
        fitted = np.concatenate(
            [np.log(gp.length_scales), [np.log(gp.signal_var), np.log(gp.noise_var)]]
        )
        nll_fit = _negative_log_marginal(fitted, sq, y_std, 12)
        nll_start = _negative_log_marginal(start, sq, y_std, 12)
        assert nll_fit <= nll_start + 1e-9

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            gp_fit(np.array([[0.5]]), np.array([1.0]))


def _cho_factor_likelihood(theta, sqdists, y, n):
    """The negative log marginal likelihood through cho_factor and cho_solve."""
    ell = np.exp(theta[:-2])
    sig = np.exp(theta[-2])
    noise = np.exp(theta[-1])
    k = _kernel_matrix(sqdists, ell, sig) + noise * np.eye(n)
    try:
        c = _chol_with_jitter(k)
    except ArithmeticError:
        return 1e10
    alpha = cho_solve(c, y)
    logdet = 2.0 * np.sum(np.log(np.diag(c[0])))
    return float(0.5 * y @ alpha + 0.5 * logdet + 0.5 * n * np.log(2 * np.pi))


def _history(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, d))
    x[n // 2:n // 2 + 3] = x[:3]  # repeated proposals, as a converging search makes
    y = np.log10(1e-3 + np.sum((x - 0.4) ** 2, axis=1)) + 0.05 * rng.standard_normal(n)
    return x, y


class TestLikelihoodBits:
    """The direct LAPACK likelihood equals the cho_factor formula bit for bit."""

    @pytest.mark.parametrize("log_noise", [np.log(1e-6), np.log(1e-12), np.log(1e-16)])
    def test_likelihood_at_fixed_hyperparameters(self, log_noise):
        # a noise of 1e-16 leaves the repeated rows singular: the jitter path
        x, y = _history(0, 40, 3)
        sq = _pairwise_sqdists(x, x)
        for log_ell in (np.log(0.08), 0.0, np.log(10.0)):
            theta = np.concatenate([np.full(3, log_ell), [0.3, log_noise]])
            assert _negative_log_marginal(theta, sq, y, 40) == _cho_factor_likelihood(theta, sq, y, 40)

    @pytest.mark.parametrize("seed,n,d", [(1, 6, 3), (2, 20, 2), (3, 50, 5), (4, 99, 3)])
    def test_fit(self, seed, n, d, monkeypatch):
        x, y = _history(seed, n, d)
        direct = gp_fit(x, y)
        monkeypatch.setattr(bayesopt, "_negative_log_marginal", _cho_factor_likelihood)
        reference = gp_fit(x, y)
        for name in ("length_scales", "signal_var", "noise_var", "alpha"):
            assert np.array_equal(getattr(direct, name), getattr(reference, name)), name


class TestGpPredict:
    def test_prior_reversion_far_away(self):
        gp = gp_with_params(
            np.array([[0.5]]) , np.array([3.0]),
            length_scales=np.array([0.05]), signal_var=1.0, noise_var=1e-8,
        )
        mean, var = gp_predict(gp, [0.5 + 20 * 0.05])
        assert mean == pytest.approx(gp.target_mean, abs=1e-6)
        assert var == pytest.approx(gp.signal_var * gp.target_scale**2, rel=1e-6)

    def test_variance_drops_with_duplicate_observation(self):
        x1 = np.array([[0.3], [0.7]])
        y1 = np.array([1.0, 2.0])
        params = dict(length_scales=np.array([0.2]), signal_var=1.0, noise_var=1e-4)
        gp1 = gp_with_params(x1, y1, **params)
        probe = [0.55]
        _, var1 = gp_predict(gp1, probe)
        x2 = np.vstack([x1, [probe]])
        y2 = np.append(y1, 1.5)
        gp2 = gp_with_params(x2, y2, **params)
        _, var2 = gp_predict(gp2, probe)
        assert var2 < var1

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, (30, 1))
        gp = gp_fit(x, np.cos(5 * x.ravel()))
        _, var = gp_predict_batch(gp, rng.uniform(0, 1, (200, 1)))
        assert np.all(var >= 0)


class TestExpectedImprovement:
    def test_zero_variance_no_improvement(self):
        assert expected_improvement(2.0, 0.0, 1.0) == 0.0
        assert expected_improvement(1.0, 0.0, 1.0) == 0.0

    def test_zero_variance_with_improvement(self):
        assert expected_improvement(0.5, 0.0, 1.0) == pytest.approx(0.5)

    def test_spot_value_unit_improvement(self):
        assert expected_improvement(0.0, 1.0, 1.0) == pytest.approx(1.08331, abs=1e-4)

    def test_spot_value_no_mean_gap(self):
        assert expected_improvement(0.0, 1.0, 0.0) == pytest.approx(0.39894, abs=1e-4)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            ei = expected_improvement(
                rng.normal(), rng.uniform(0, 4), rng.normal()
            )
            assert ei >= 0.0

    def test_monotone_in_variance(self):
        variances = np.linspace(0.0, 5.0, 60)
        for mean, best in [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5)]:
            values = [expected_improvement(mean, v, best) for v in variances]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


class TestBayesStep:
    def test_initial_design_phase(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(n_initial=5, seed=42)
        h = BoHistory()
        h.append([0.5], 1.0)
        got = bayes_step(h, bounds, config, np.random.default_rng(0))
        expected = bounds.from_unit(_initial_design(5, 1, 42)[1])
        np.testing.assert_allclose(got, expected)

    def test_initial_design_is_stratified(self):
        design = _initial_design(10, 2, 7)
        for d in range(2):
            strata = np.sort(np.floor(design[:, d] * 10).astype(int))
            np.testing.assert_array_equal(strata, np.arange(10))

    def test_tie_break_uses_lowest_mean(self, monkeypatch):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(n_initial=2, n_candidates=100, seed=0)
        h = BoHistory()
        for xi, li in [(0.1, 3.0), (0.5, 2.0), (0.9, 1.0)]:
            h.append([xi], li)

        def certain_predictions(surrogate, xs):
            xs = np.atleast_2d(xs)
            return 5.0 + xs[:, 0], np.zeros(xs.shape[0])  # no uncertainty anywhere

        monkeypatch.setattr(
            "rbfadapt.bayesopt.gp_predict_batch", certain_predictions
        )
        rng = np.random.default_rng(4)
        got = bayes_step(h, bounds, config, rng)
        # replay the same candidate stream to find the lowest-mean candidate
        rng2 = np.random.default_rng(4)
        cands = rng2.uniform(size=(100, 1))
        local = np.clip(
            bounds.to_unit(h.best_w) + 0.05 * rng2.standard_normal((50, 1)), 0, 1
        )
        all_c = np.vstack([cands, local])
        expected = bounds.from_unit(all_c[np.argmin(5.0 + all_c[:, 0])])
        np.testing.assert_allclose(got, expected)


class TestOptimize:
    def test_quadratic_recovery(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=30, seed=5)
        best_w, history = optimize(
            lambda w: (w[0] - 0.3) ** 2, bounds, config
        )
        assert abs(best_w[0] - 0.3) <= 0.05
        assert len(history) <= 30

    def test_early_exit_on_loss_tol(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=30, loss_tol=100.0, seed=1)
        _, history = optimize(lambda w: 1.0, bounds, config)
        assert len(history) == 1
        assert history.stop_reason == "loss_tol"

    def test_loss_equal_to_loss_tol_stops(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=30, loss_tol=1.0, seed=1)
        _, history = optimize(lambda w: 1.0, bounds, config)
        assert len(history) == 1
        assert history.stop_reason == "loss_tol"

    def test_zero_loss_without_loss_tol_runs_to_budget(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=8, loss_tol=None, step_tol=1e-300, seed=2)
        _, history = optimize(lambda w: 0.0, bounds, config)
        assert len(history) == 8
        assert history.stop_reason == "budget"

    def test_budget_is_total_evaluations(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=8, loss_tol=1e-300, step_tol=1e-300, seed=2)
        _, history = optimize(lambda w: 1.0 + w[0] ** 2, bounds, config)
        assert len(history) == 8
        assert history.stop_reason == "budget"

    def test_bowl_2d(self):
        bounds = SearchBounds([("x", 0.0, 1.0), ("y", 0.0, 1.0)])
        config = BoConfig(max_evals=50, seed=9)
        best_w, history = optimize(
            lambda w: (w[0] - 0.3) ** 2 + (w[1] - 0.7) ** 2, bounds, config
        )
        assert history.best_loss < 1e-2

    def test_deterministic(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=15, seed=33)
        obj = lambda w: np.sin(5 * w[0]) + w[0] ** 2
        _, h1 = optimize(obj, bounds, config)
        _, h2 = optimize(obj, bounds, config)
        assert len(h1) == len(h2)
        for (w1, l1), (w2, l2) in zip(h1.records, h2.records):
            assert w1.tobytes() == w2.tobytes()
            assert l1 == l2

    def test_incumbent_nonincreasing(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=20, seed=13)
        _, history = optimize(lambda w: (w[0] - 0.6) ** 2, bounds, config)
        running = np.minimum.accumulate([l for _, l in history.records])
        incumbents = [
            min(l for _, l in history.records[: i + 1])
            for i in range(len(history))
        ]
        np.testing.assert_array_equal(running, incumbents)

    def test_objective_failures_recorded_as_inf(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=12, seed=3)

        def flaky(w):
            if w[0] < 0.4:
                raise ArithmeticError("manufactured failure")
            return (w[0] - 0.6) ** 2

        best_w, history = optimize(flaky, bounds, config)
        losses = [l for _, l in history.records]
        assert any(np.isinf(l) for l in losses)
        assert np.isfinite(history.best_loss)
        assert best_w[0] >= 0.4
