"""Tests for the GP surrogate, acquisition, and optimization loop."""

import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import minimize
from scipy.optimize._numdiff import approx_derivative

from rbfadapt.bayesopt import (
    N_CANDIDATES,
    BoConfig,
    BoHistory,
    SearchBounds,
    _NegativeLogMarginal,
    _chol_with_jitter,
    _initial_design,
    _pairwise_sqdists,
    bayes_step,
    expected_improvement,
    gp_fit,
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

    @pytest.mark.parametrize("n", [1, 5, 17, 64, 100, 500])
    @pytest.mark.parametrize("params,log_scale", [
        ([("mu", 0.93, 0.99), ("tau", 0.15, 0.45), ("lam", -0.4, -0.15), ("mu_nu", 1e-4, 1e-1),
          ("sigma_nu", 1e-6, 1e-2)], {"mu_nu": True, "sigma_nu": True}),
        ([("a", 0.1, 1.0)], None),
        ([("f", 1.0, 1.5), ("lam", 1.0, 1.5), ("sigma_f", 2.5, 4.5)], None),
        ([("f", 0.5, 1.0), ("mu_x", 0.4, 0.6), ("mu_y", 0.4, 0.6), ("tau", 0.2, 1.0), ("lam", 0.5, 1.0)], None),
    ], ids=["inverse-diffusivity", "speed", "march", "poisson"])
    def test_stacked_rows_map_to_each_row_s_bytes(self, params, log_scale, n):
        # bayes_step maps its whole history in one call
        b = SearchBounds(params, log_scale=log_scale)
        rng = np.random.default_rng(n)
        rows = np.array([b.from_unit(u) for u in rng.uniform(size=(n, len(params)))])
        assert b.to_unit(rows).tobytes() == np.array([b.to_unit(w) for w in rows]).tobytes()

    def test_unknown_log_scale_name_refused(self):
        # a misspelt name once left its axis searched linearly
        with pytest.raises(ValueError, match="'nu' is not a searched parameter"):
            SearchBounds([("mu_nu", 1e-4, 1e-1)], log_scale={"nu": True})


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
        gp = gp_fit(x, y)
        mean, _ = gp_predict_batch(gp, x)
        assert np.all(np.abs(mean - y) < 1e-3)

    def test_constant_targets(self):
        x = np.linspace(0, 1, 6).reshape(-1, 1)
        gp = gp_fit(x, np.full(6, 4.2))
        prior_var = gp.signal_var * gp.target_scale**2
        mean, var = gp_predict_batch(gp, [[0.05], [0.5], [0.95]])
        assert mean == pytest.approx(np.full(3, 4.2), abs=1e-6)
        assert np.all(var <= prior_var * (1 + 1e-9))

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
        nll = _NegativeLogMarginal(_pairwise_sqdists(x, x), y_std, _upper(2))
        start = _starts(2)[0]
        fitted = np.concatenate(
            [np.log(gp.length_scales), [np.log(gp.signal_var), np.log(gp.noise_var)]]
        )
        assert nll.value(fitted) <= nll.value(start) + 1e-9

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            gp_fit(np.array([[0.5]]), np.array([1.0]))


def _tensordot_kernel(sqdists, length_scales, signal_var):
    """The covariance with np.tensordot over the (d, n, m) distance tensor."""
    return signal_var * np.exp(-0.5 * np.tensordot(1.0 / length_scales**2, sqdists, axes=1))


def _cho_factor_with_jitter(k):
    """cho_factor of k, else of k + jitter I for jitter from 1e-10 to 1e-3
    of the mean diagonal, x10 per step; None when all of them fail."""
    try:
        return cho_factor(k, lower=True)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-10 * float(np.mean(np.diag(k)))
    for _ in range(8):
        try:
            return cho_factor(k + jitter * np.eye(k.shape[0]), lower=True)
        except np.linalg.LinAlgError:
            jitter *= 10.0
    return None


def _cho_factor_likelihood(theta, sqdists, y, n):
    """The negative log marginal likelihood through cho_factor and cho_solve."""
    ell = np.exp(theta[:-2])
    sig = np.exp(theta[-2])
    noise = np.exp(theta[-1])
    k = _tensordot_kernel(sqdists, ell, sig) + noise * np.eye(n)
    c = _cho_factor_with_jitter(k)
    if c is None:
        return 1e10
    alpha = cho_solve(c, y)
    logdet = 2.0 * np.sum(np.log(np.diag(c[0])))
    return float(0.5 * y @ alpha + 0.5 * logdet + 0.5 * n * np.log(2 * np.pi))


def _theta_bounds(d):
    """gp_fit's box on (log ell, log signal variance, log noise variance)."""
    return (
        [(np.log(1e-2), np.log(10.0))] * d
        + [(np.log(1e-2), np.log(1e2))]
        + [(np.log(1e-8), np.log(1.0))]
    )


def _upper(d):
    return np.array([hi for _, hi in _theta_bounds(d)])


def _starts(d):
    return [
        np.concatenate([np.full(d, np.log(0.3)), [0.0, np.log(1e-6)]]),
        np.concatenate([np.full(d, np.log(1.0)), [0.0, np.log(1e-4)]]),
        np.concatenate([np.full(d, np.log(0.08)), [0.0, np.log(1e-8)]]),
    ]


def _reference_fit(x, y):
    """gp_fit as scipy's L-BFGS-B ran it with its own finite differences."""
    n, d = x.shape
    y_std = (y - y.mean()) / y.std()
    sq = _pairwise_sqdists(x, x)
    best_theta, best_nll = None, np.inf
    for start in _starts(d):
        for theta in (
            start,
            minimize(
                _cho_factor_likelihood, start, args=(sq, y_std, n),
                method="L-BFGS-B", bounds=_theta_bounds(d), options={"maxiter": 60},
            ).x,
        ):
            nll = _cho_factor_likelihood(theta, sq, y_std, n)
            if nll < best_nll:
                best_nll, best_theta = nll, theta
    noise = max(np.exp(best_theta[-1]), 1e-8)
    return gp_with_params(x, y, np.exp(best_theta[:-2]), np.exp(best_theta[-2]), noise)


def _assert_same_fit(direct, reference):
    for name in ("length_scales", "signal_var", "noise_var", "alpha"):
        assert np.array_equal(getattr(direct, name), getattr(reference, name)), name


def _history(seed, n, d):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0, 1, (n, d))
    x[n // 2:n // 2 + 3] = x[:3]  # repeated proposals, as a converging search makes
    y = np.log10(1e-3 + np.sum((x - 0.4) ** 2, axis=1)) + 0.05 * rng.standard_normal(n)
    return x, y


class TestLikelihoodBits:
    """The likelihood object gives the proposals of scipy's own differencing."""

    @pytest.mark.parametrize("log_noise", [np.log(1e-6), np.log(1e-12), np.log(1e-16)])
    def test_likelihood_at_fixed_hyperparameters(self, log_noise):
        # a noise of 1e-16 leaves the repeated rows singular: the jitter path
        x, y = _history(0, 40, 3)
        sq = _pairwise_sqdists(x, x)
        nll = _NegativeLogMarginal(sq, y, _upper(3))
        for log_ell in (np.log(0.08), 0.0, np.log(10.0)):
            theta = np.concatenate([np.full(3, log_ell), [0.3, log_noise]])
            assert nll.value(theta) == _cho_factor_likelihood(theta, sq, y, 40)
            assert nll(theta)[0] == nll.value(theta)

    @pytest.mark.parametrize("d", [1, 3, 5])
    def test_gradient_is_scipys_forward_difference(self, d):
        # scipy's two-point rule with L-BFGS-B's absolute step of 1e-8,
        # including the flipped steps at upper bounds
        x, y = _history(d, 30, d)
        sq = _pairwise_sqdists(x, x)
        nll = _NegativeLogMarginal(sq, y, _upper(d))
        lower = np.array([lo for lo, _ in _theta_bounds(d)])
        upper = _upper(d)
        for theta in (
            _starts(d)[0],
            _starts(d)[2],  # on the noise floor
            upper,
            lower,
            np.where(np.arange(d + 2) % 2 == 0, upper, 0.5 * (lower + upper)),
            upper - 0.5e-8,  # within one step of the bound
        ):
            f0, grad = nll(theta)
            expected = approx_derivative(
                _cho_factor_likelihood, theta, method="2-point", abs_step=1e-8,
                f0=f0, bounds=(lower, upper), args=(sq, y, 30),
            )
            assert f0 == _cho_factor_likelihood(theta, sq, y, 30)
            assert np.array_equal(grad, expected)

    @pytest.mark.parametrize(
        "seed,n,d",
        [(1, 6, 3), (2, 20, 2), (3, 50, 5), (4, 99, 3), (5, 12, 1), (6, 99, 1), (7, 40, 1), (8, 80, 5)],
    )
    def test_fit(self, seed, n, d):
        x, y = _history(seed, n, d)
        _assert_same_fit(gp_fit(x, y), _reference_fit(x, y))

    def test_fit_on_the_upper_length_scale_bound(self):
        # two of five inputs matter: the others end on ell = 10, where the
        # forward step would leave the box and is taken backwards
        rng = np.random.default_rng(0)
        x = rng.uniform(0, 1, (40, 5))
        y = np.log10(1e-3 + (x[:, 0] - 0.4) ** 2 + (x[:, 1] - 0.6) ** 2)
        direct = gp_fit(x, y)
        assert np.sum(direct.length_scales == np.exp(np.log(10.0))) >= 2
        _assert_same_fit(direct, _reference_fit(x, y))

    def test_fit_on_the_noise_floor(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0, 1, (15, 1))
        y = np.sin(4 * x[:, 0])
        direct = gp_fit(x, y)
        assert direct.noise_var == 1e-8
        _assert_same_fit(direct, _reference_fit(x, y))

    def test_fit_takes_no_differences_from_scipy(self, monkeypatch):
        x, y = _history(4, 99, 3)
        reference = _reference_fit(x, y)

        def refuse(*args, **kwargs):
            raise AssertionError("scipy's finite differences were called")

        # every scipy.optimize module that imported approx_derivative by name
        for name, module in list(sys.modules.items()):
            if name.startswith("scipy.optimize") and getattr(module, "approx_derivative", None) is approx_derivative:
                monkeypatch.setattr(module, "approx_derivative", refuse)
        _assert_same_fit(gp_fit(x, y), reference)


class TestFactorizationFailure:
    def test_unfactorable_matrix_raises_after_the_jitter_ladder(self):
        # the jitter scales with the mean diagonal, so it only deepens -I
        with pytest.raises(ArithmeticError):
            _chol_with_jitter(-np.eye(5))

    def test_likelihood_of_an_unfactorable_covariance_is_the_penalty(self):
        nll = _NegativeLogMarginal(np.zeros((1, 5, 5)), np.ones(5), _upper(1))
        # signal variance 1 on a negated Gaussian factor, noise 1e-8: k = (1e-8 - 1) I
        theta = np.array([0.0, 0.0, np.log(1e-8)])
        assert nll._value(theta, -np.eye(5)) == 1e10


class TestGpPredict:
    def test_prior_reversion_far_away(self):
        gp = gp_with_params(
            np.array([[0.5]]) , np.array([3.0]),
            length_scales=np.array([0.05]), signal_var=1.0, noise_var=1e-8,
        )
        (mean,), (var,) = gp_predict_batch(gp, [[0.5 + 20 * 0.05]])
        assert mean == pytest.approx(gp.target_mean, abs=1e-6)
        assert var == pytest.approx(gp.signal_var * gp.target_scale**2, rel=1e-6)

    def test_variance_drops_with_duplicate_observation(self):
        x1 = np.array([[0.3], [0.7]])
        y1 = np.array([1.0, 2.0])
        params = dict(length_scales=np.array([0.2]), signal_var=1.0, noise_var=1e-4)
        gp1 = gp_with_params(x1, y1, **params)
        probe = [[0.55]]
        _, var1 = gp_predict_batch(gp1, probe)
        x2 = np.vstack([x1, probe])
        y2 = np.append(y1, 1.5)
        gp2 = gp_with_params(x2, y2, **params)
        _, var2 = gp_predict_batch(gp2, probe)
        assert var2[0] < var1[0]

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_matches_the_tensordot_cho_solve_formula_bit_for_bit(self, d):
        x, y = _history(10 + d, 99, d)
        gp = gp_fit(x, y)
        # one chunk, a chunk edge on either side, and the search's count
        for m in (1, 255, 256, 257, 2050):
            xs = np.random.default_rng(d).uniform(0, 1, (m, d))
            mean, var = gp_predict_batch(gp, xs)
            kstar = _tensordot_kernel(_pairwise_sqdists(x, xs), gp.length_scales, gp.signal_var)
            v = cho_solve((gp.chol, True), kstar)
            var_std = np.maximum(gp.signal_var - np.sum(kstar * v, axis=0), 0.0)
            assert np.array_equal(mean, gp.target_mean + gp.target_scale * (kstar.T @ gp.alpha)), m
            assert np.array_equal(var, gp.target_scale**2 * var_std), m

    def test_peak_memory_is_near_the_covariance_it_keeps(self):
        # k* (n x candidates) plus chunk-sized temporaries measured 2.1x
        # k*; the whole (d x n x candidates) distance tensor reached 6.0x
        x, y = _history(13, 99, 3)
        gp = gp_fit(x, y)
        xs = np.random.default_rng(3).uniform(0, 1, (2050, 3))
        kstar_bytes = 99 * 2050 * 8
        tracemalloc.start()
        try:
            gp_predict_batch(gp, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * kstar_bytes, peak / kstar_bytes

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, (30, 1))
        gp = gp_fit(x, np.cos(5 * x.ravel()))
        _, var = gp_predict_batch(gp, rng.uniform(0, 1, (200, 1)))
        assert np.all(var >= 0)


def _ei(mean, variance, best):
    """expected_improvement at one point."""
    return float(expected_improvement(np.array([mean]), np.array([variance]), best)[0])


def _norm_ei(mean, variance, best):
    """The acquisition written with scipy.stats.norm."""
    from scipy.stats import norm

    s = np.sqrt(variance)
    improve = best - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(s > 0, improve / np.where(s > 0, s, 1.0), 0.0)
    return np.where(s > 0, improve * norm.cdf(z) + s * norm.pdf(z), np.maximum(improve, 0.0))


class TestExpectedImprovement:
    def test_zero_variance_no_improvement(self):
        assert _ei(2.0, 0.0, 1.0) == 0.0
        assert _ei(1.0, 0.0, 1.0) == 0.0

    def test_zero_variance_with_improvement(self):
        assert _ei(0.5, 0.0, 1.0) == pytest.approx(0.5)

    def test_spot_value_unit_improvement(self):
        assert _ei(0.0, 1.0, 1.0) == pytest.approx(1.08331, abs=1e-4)

    def test_spot_value_no_mean_gap(self):
        assert _ei(0.0, 1.0, 0.0) == pytest.approx(0.39894, abs=1e-4)

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            ei = _ei(rng.normal(), rng.uniform(0, 4), rng.normal())
            assert ei >= 0.0

    def test_monotone_in_variance(self):
        variances = np.linspace(0.0, 5.0, 60)
        for mean, best in [(0.0, 1.0), (1.0, 0.0), (0.5, 0.5)]:
            values = expected_improvement(np.full(60, mean), variances, best)
            assert np.all(np.diff(values) >= -1e-12)

    def test_matches_the_norm_formula_bit_for_bit(self):
        rng = np.random.default_rng(12)
        n = 20000
        mean = rng.normal(0.0, 3.0, n)
        variance = rng.uniform(0.0, 4.0, n) * 10.0 ** rng.integers(-300, 3, n)
        variance[::7] = 0.0
        variance[3::7] = -0.0
        for best in (-1.0, 0.0, 0.7, 40.0):
            got = expected_improvement(mean, variance, best)
            assert np.array_equal(got, _norm_ei(mean, variance, best))


class TestBayesStep:
    def test_initial_design_phase(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(seed=42)
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
        config = BoConfig(seed=0)
        h = BoHistory()
        # five records: past the initial design of a one-parameter search
        for xi, li in [(0.1, 3.0), (0.3, 2.5), (0.5, 2.0), (0.7, 1.5), (0.9, 1.0)]:
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
        cands = rng2.uniform(size=(N_CANDIDATES, 1))
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
        history, _ = optimize(
            lambda w, i: ((w[0] - 0.3) ** 2, None), bounds, config
        )
        assert abs(history.best_w[0] - 0.3) <= 0.05
        assert len(history) <= 30

    def test_early_exit_on_loss_tol(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=30, loss_tol=100.0, seed=1)
        history, _ = optimize(lambda w, i: (1.0, None), bounds, config)
        assert len(history) == 1
        assert history.stop_reason == "loss_tol"

    def test_loss_equal_to_loss_tol_stops(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=30, loss_tol=1.0, seed=1)
        history, _ = optimize(lambda w, i: (1.0, None), bounds, config)
        assert len(history) == 1
        assert history.stop_reason == "loss_tol"

    def test_zero_loss_without_loss_tol_runs_to_budget(self, monkeypatch):
        monkeypatch.setattr("rbfadapt.bayesopt.STEP_TOL", 1e-300)
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=8, loss_tol=None, seed=2)
        history, _ = optimize(lambda w, i: (0.0, None), bounds, config)
        assert len(history) == 8
        assert history.stop_reason == "budget"

    def test_budget_is_total_evaluations(self, monkeypatch):
        monkeypatch.setattr("rbfadapt.bayesopt.STEP_TOL", 1e-300)
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=8, loss_tol=1e-300, seed=2)
        history, _ = optimize(lambda w, i: (1.0 + w[0] ** 2, None), bounds, config)
        assert len(history) == 8
        assert history.stop_reason == "budget"

    def test_bowl_2d(self):
        bounds = SearchBounds([("x", 0.0, 1.0), ("y", 0.0, 1.0)])
        config = BoConfig(max_evals=50, seed=9)
        history, _ = optimize(
            lambda w, i: ((w[0] - 0.3) ** 2 + (w[1] - 0.7) ** 2, None), bounds, config
        )
        assert history.best_loss < 1e-2

    def test_deterministic(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=15, seed=33)
        obj = lambda w, i: (np.sin(5 * w[0]) + w[0] ** 2, None)
        h1, _ = optimize(obj, bounds, config)
        h2, _ = optimize(obj, bounds, config)
        assert len(h1) == len(h2)
        for (w1, l1), (w2, l2) in zip(h1.records, h2.records):
            assert w1.tobytes() == w2.tobytes()
            assert l1 == l2

    def test_incumbent_nonincreasing(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=20, seed=13)
        history, _ = optimize(lambda w, i: ((w[0] - 0.6) ** 2, None), bounds, config)
        running = np.minimum.accumulate([l for _, l in history.records])
        incumbents = [
            min(l for _, l in history.records[: i + 1])
            for i in range(len(history))
        ]
        np.testing.assert_array_equal(running, incumbents)

    def test_objective_failures_recorded_as_inf(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=12, seed=3)

        def flaky(w, i):
            if w[0] < 0.4:
                raise ArithmeticError("manufactured failure")
            return (w[0] - 0.6) ** 2, None

        history, _ = optimize(flaky, bounds, config)
        best_w = history.best_w
        losses = [l for _, l in history.records]
        assert any(np.isinf(l) for l in losses)
        assert np.isfinite(history.best_loss)
        assert best_w[0] >= 0.4

    def test_objective_gets_its_history_position(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        seen = []

        def objective(w, index):
            seen.append(index)
            return (w[0] - 0.6) ** 2, index

        history, result = optimize(objective, bounds, BoConfig(max_evals=9, seed=3))
        assert seen == list(range(len(history)))
        assert result == history.incumbent_index

    def test_equal_losses_keep_the_earlier_result(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])
        config = BoConfig(max_evals=4, loss_tol=None, seed=1)
        history, result = optimize(lambda w, i: (1.0, f"evaluation {i}"), bounds, config)
        assert len(history) == 4
        assert history.incumbent_index == 0
        assert result == "evaluation 0"

    def test_no_result_when_every_evaluation_fails(self):
        bounds = SearchBounds([("x", 0.0, 1.0)])

        def failing(w, i):
            if i % 2:
                raise ArithmeticError("manufactured failure")
            return np.nan, "a result with a non-finite loss"

        history, result = optimize(failing, bounds, BoConfig(max_evals=4, seed=1))
        assert len(history) == 4
        assert all(np.isinf(loss) for _, loss in history.records)
        assert result is None
