"""Bayesian optimization with a Gaussian-process surrogate.

The optimizer works on loss values spanning many orders of magnitude, so
the surrogate is trained on log10 of the loss with inputs min-max mapped
to the unit cube (log10-mapped first for parameters flagged log-scale).
Acquisition is expected improvement under the minimization convention,
maximized by candidate enumeration.  The loop stops when the proposal
step shrinks below a tolerance, the loss beats its tolerance, or the
evaluation budget runs out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import minimize
from scipy.stats import norm

from .blas import fixed_blas_threads

N_INCUMBENT_PERTURBATIONS = 50
_PERTURBATION_SCALE = 0.05
_LOSS_FLOOR = 1e-16
_FAILURE_PENALTY_MIN = 1e6


@dataclass(frozen=True)
class SearchBounds:
    """Named box bounds; log-scale parameters are normalized in log10."""

    names: tuple
    lowers: np.ndarray
    uppers: np.ndarray
    log_scale: tuple

    def __init__(self, params, log_scale=None):
        # params: iterable of (name, lower, upper)
        params = list(params)
        names = tuple(p[0] for p in params)
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        lowers = np.array([float(p[1]) for p in params])
        uppers = np.array([float(p[2]) for p in params])
        if np.any(lowers >= uppers):
            raise ValueError("each lower bound must be below its upper bound")
        if log_scale is None:
            flags = (False,) * len(params)
        else:
            flags = tuple(bool(log_scale.get(n, False)) for n in names) if isinstance(
                log_scale, dict
            ) else tuple(bool(v) for v in log_scale)
        if len(flags) != len(names):
            raise ValueError("log_scale length mismatch")
        for name, flag, lo in zip(names, flags, lowers):
            if flag and lo <= 0:
                raise ValueError(f"log-scale parameter {name} needs positive bounds")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "lowers", lowers)
        object.__setattr__(self, "uppers", uppers)
        object.__setattr__(self, "log_scale", flags)

    @property
    def n_params(self) -> int:
        return len(self.names)

    def _axes(self):
        lo = self.lowers.copy()
        hi = self.uppers.copy()
        for d, flag in enumerate(self.log_scale):
            if flag:
                lo[d] = np.log10(lo[d])
                hi[d] = np.log10(hi[d])
        return lo, hi

    def to_unit(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        lo, hi = self._axes()
        v = w.copy()
        for d, flag in enumerate(self.log_scale):
            if flag:
                v[..., d] = np.log10(v[..., d])
        return (v - lo) / (hi - lo)

    def from_unit(self, u) -> np.ndarray:
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        lo, hi = self._axes()
        v = lo + u * (hi - lo)
        for d, flag in enumerate(self.log_scale):
            if flag:
                v[..., d] = 10.0 ** v[..., d]
        return v

    def index_of(self, name: str) -> int:
        return self.names.index(name)


@dataclass
class BoHistory:
    records: list = field(default_factory=list)  # (w, loss) pairs
    stop_reason: Optional[str] = None

    def append(self, w, loss: float):
        self.records.append((np.array(w, dtype=float), float(loss)))

    def __len__(self) -> int:
        return len(self.records)

    @property
    def iteration(self) -> int:
        return len(self.records)

    @property
    def incumbent_index(self) -> int:
        if not self.records:
            raise ValueError("history is empty")
        losses = [loss for _, loss in self.records]
        return int(np.argmin(losses))

    @property
    def best_w(self) -> np.ndarray:
        return self.records[self.incumbent_index][0]

    @property
    def best_loss(self) -> float:
        return self.records[self.incumbent_index][1]


@dataclass(frozen=True)
class BoConfig:
    max_evals: int = 100
    # stop once a loss is at or below this; None runs to the budget
    loss_tol: Optional[float] = 1e-6
    step_tol: float = 1e-4
    n_initial: Optional[int] = None
    n_candidates: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")
        if (self.loss_tol is not None and self.loss_tol <= 0) or self.step_tol <= 0:
            raise ValueError("tolerances must be positive")

    def initial_count(self, n_params: int) -> int:
        if self.n_initial is not None:
            return self.n_initial
        return max(5, 2 * n_params)


@dataclass(frozen=True)
class GpSurrogate:
    inputs: np.ndarray
    targets_std: np.ndarray
    target_mean: float
    target_scale: float
    length_scales: np.ndarray
    signal_var: float
    noise_var: float
    chol: tuple
    alpha: np.ndarray


def _kernel_matrix(sqdists, length_scales, signal_var):
    # sqdists: (d, n, m) per-dimension squared distances
    scaled = np.tensordot(1.0 / length_scales**2, sqdists, axes=1)
    return signal_var * np.exp(-0.5 * scaled)


def _pairwise_sqdists(xa, xb):
    return (xa.T[:, :, None] - xb.T[:, None, :]) ** 2


def _chol_with_jitter(k):
    jitter = 0.0
    scale = float(np.mean(np.diag(k)))
    for _ in range(9):
        try:
            return cho_factor(k + jitter * np.eye(k.shape[0]), lower=True)
        except np.linalg.LinAlgError:
            jitter = 1e-10 * scale if jitter == 0.0 else jitter * 10.0
    raise ArithmeticError("covariance factorization failed even with jitter")


def _negative_log_marginal(theta, sqdists, y, n):
    # LAPACK directly, without cho_factor's and cho_solve's finiteness
    # checks: the same dpotrf and dpotrs calls, so the same bits
    ell = np.exp(theta[:-2])
    sig = np.exp(theta[-2])
    noise = np.exp(theta[-1])
    k = _kernel_matrix(sqdists, ell, sig)
    k.flat[:: n + 1] += noise
    c, info = dpotrf(k, lower=1, clean=0)
    if info != 0:
        try:
            c = _chol_with_jitter(k)[0]
        except ArithmeticError:
            return 1e10
    alpha, _ = dpotrs(c, y, lower=1)
    logdet = 2.0 * np.sum(np.log(np.diag(c)))
    return float(0.5 * y @ alpha + 0.5 * logdet + 0.5 * n * np.log(2 * np.pi))


@fixed_blas_threads()
def gp_with_params(
    inputs, targets, length_scales, signal_var, noise_var
) -> GpSurrogate:
    """Assemble a surrogate with given kernel hyperparameters (no fitting)."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float)
    mean = float(y.mean())
    scale = float(y.std())
    if scale == 0.0:
        scale = 1.0
    y_std = (y - mean) / scale
    sq = _pairwise_sqdists(x, x)
    k = _kernel_matrix(sq, np.asarray(length_scales, dtype=float), signal_var)
    c = _chol_with_jitter(k + noise_var * np.eye(x.shape[0]))
    alpha = cho_solve(c, y_std)
    return GpSurrogate(
        x, y_std, mean, scale,
        np.asarray(length_scales, dtype=float), float(signal_var), float(noise_var),
        c, alpha,
    )


@fixed_blas_threads()
def gp_fit(inputs, targets, noise_floor: float = 1e-8) -> GpSurrogate:
    """Maximum-marginal-likelihood fit of the anisotropic smooth kernel.

    Multi-start bounded quasi-Newton search over log hyperparameters;
    the best of all starts and all polished results wins, so the
    likelihood never ends below its value at the first start.
    """
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float)
    if x.shape[0] < 2:
        raise ValueError("gp_fit needs at least 2 observations")
    if x.shape[0] != y.shape[0]:
        raise ValueError("inputs/targets length mismatch")
    n, d = x.shape
    mean = float(y.mean())
    scale = float(y.std())
    if scale == 0.0:
        scale = 1.0
    y_std = (y - mean) / scale
    sq = _pairwise_sqdists(x, x)

    lo_noise = max(noise_floor, 1e-12)
    theta_bounds = (
        [(np.log(1e-2), np.log(10.0))] * d
        + [(np.log(1e-2), np.log(1e2))]
        + [(np.log(lo_noise), np.log(1.0))]
    )
    starts = [
        np.concatenate([np.full(d, np.log(0.3)), [0.0, np.log(max(lo_noise, 1e-6))]]),
        np.concatenate([np.full(d, np.log(1.0)), [0.0, np.log(max(lo_noise, 1e-4))]]),
        np.concatenate([np.full(d, np.log(0.08)), [0.0, np.log(lo_noise)]]),
    ]

    best_theta = None
    best_nll = np.inf
    for start in starts:
        for theta in (
            start,
            minimize(
                _negative_log_marginal,
                start,
                args=(sq, y_std, n),
                method="L-BFGS-B",
                bounds=theta_bounds,
                options={"maxiter": 60},
            ).x,
        ):
            nll = _negative_log_marginal(theta, sq, y_std, n)
            if nll < best_nll:
                best_nll = nll
                best_theta = theta

    ell = np.exp(best_theta[:-2])
    sig = float(np.exp(best_theta[-2]))
    noise = float(max(np.exp(best_theta[-1]), noise_floor))
    k = _kernel_matrix(sq, ell, sig) + noise * np.eye(n)
    c = _chol_with_jitter(k)
    alpha = cho_solve(c, y_std)
    return GpSurrogate(x, y_std, mean, scale, ell, sig, noise, c, alpha)


@fixed_blas_threads()
def gp_predict_batch(surrogate: GpSurrogate, xs) -> tuple:
    """Posterior mean and latent variance at many points; de-standardized."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    sq = _pairwise_sqdists(surrogate.inputs, xs)
    kstar = _kernel_matrix(sq, surrogate.length_scales, surrogate.signal_var)
    mean_std = kstar.T @ surrogate.alpha
    v = cho_solve(surrogate.chol, kstar)
    var_std = np.maximum(surrogate.signal_var - np.sum(kstar * v, axis=0), 0.0)
    mean = surrogate.target_mean + surrogate.target_scale * mean_std
    var = surrogate.target_scale**2 * var_std
    return mean, var


def gp_predict(surrogate: GpSurrogate, x) -> tuple:
    mean, var = gp_predict_batch(surrogate, np.atleast_2d(x))
    return float(mean[0]), float(var[0])


def expected_improvement(mean: float, variance: float, best: float) -> float:
    """Expected decrease below the incumbent for a Gaussian belief."""
    improve = best - mean
    s = np.sqrt(max(variance, 0.0))
    if s == 0.0:
        return float(max(improve, 0.0))
    z = improve / s
    return float(improve * norm.cdf(z) + s * norm.pdf(z))


def _initial_design(n: int, dim: int, seed) -> np.ndarray:
    """Stratified random (Latin hypercube) points in the unit cube."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    u = np.empty((n, dim))
    for d in range(dim):
        strata = rng.permutation(n)
        u[:, d] = (strata + rng.uniform(size=n)) / n
    return u


def _penalized_losses(losses) -> np.ndarray:
    """Replace failed (non-finite) evaluations by a large finite penalty."""
    losses = np.asarray(losses, dtype=float)
    finite = losses[np.isfinite(losses)]
    if finite.size == 0:
        return np.full_like(losses, _FAILURE_PENALTY_MIN)
    penalty = max(_FAILURE_PENALTY_MIN, 10.0 * float(finite.max()))
    out = losses.copy()
    out[~np.isfinite(losses)] = penalty
    return out


def bayes_step(
    history: BoHistory, bounds: SearchBounds, config: BoConfig, rng
) -> np.ndarray:
    """Propose the next parameter vector.

    During the initial design phase the next space-filling point is
    returned; afterwards the surrogate is refit to the whole history and
    the expected-improvement maximizer over a random candidate set (plus
    local perturbations of the incumbent) wins.  If every candidate has
    zero expected improvement the lowest predictive mean wins instead.
    """
    n_init = config.initial_count(bounds.n_params)
    if len(history) < n_init:
        design = _initial_design(n_init, bounds.n_params, config.seed)
        return bounds.from_unit(design[len(history)])

    inputs = np.array([bounds.to_unit(w) for w, _ in history.records])
    losses = _penalized_losses([loss for _, loss in history.records])
    targets = np.log10(np.maximum(losses, _LOSS_FLOOR))
    surrogate = gp_fit(inputs, targets)

    candidates = rng.uniform(size=(config.n_candidates, bounds.n_params))
    incumbent = inputs[int(np.argmin(targets))]
    local = incumbent + _PERTURBATION_SCALE * rng.standard_normal(
        (N_INCUMBENT_PERTURBATIONS, bounds.n_params)
    )
    candidates = np.vstack([candidates, np.clip(local, 0.0, 1.0)])

    mean, var = gp_predict_batch(surrogate, candidates)
    best = float(targets.min())
    s = np.sqrt(var)
    improve = best - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(s > 0, improve / np.where(s > 0, s, 1.0), 0.0)
    ei = np.where(
        s > 0,
        improve * norm.cdf(z) + s * norm.pdf(z),
        np.maximum(improve, 0.0),
    )
    if float(ei.max()) <= 0.0:
        pick = int(np.argmin(mean))
    else:
        pick = int(np.argmax(ei))
    return bounds.from_unit(candidates[pick])


def optimize(
    objective: Callable, bounds: SearchBounds, config: BoConfig, rng=None
) -> tuple:
    """Run the optimization loop; returns (best w, history).

    Failed objective evaluations are recorded as +inf and the loop
    continues; the surrogate sees them as a large finite penalty.
    """
    if rng is None:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed))
    history = BoHistory()
    n_init = config.initial_count(bounds.n_params)
    prev_unit = None
    while True:
        w = bayes_step(history, bounds, config, rng)
        try:
            loss = float(objective(w))
        except (ArithmeticError, np.linalg.LinAlgError):
            loss = np.inf
        if not np.isfinite(loss):
            loss = np.inf
        history.append(w, loss)

        if config.loss_tol is not None and loss <= config.loss_tol:
            history.stop_reason = "loss_tol"
            break
        unit = bounds.to_unit(w)
        if prev_unit is not None:
            if float(np.linalg.norm(unit - prev_unit)) < config.step_tol:
                history.stop_reason = "step_tol"
                break
        if len(history) >= config.max_evals:
            history.stop_reason = "budget"
            break
        if len(history) > n_init:
            prev_unit = unit
    return history.best_w, history
