"""Bayesian optimization with a Gaussian-process surrogate.

The optimizer works on loss values spanning many orders of magnitude, so
the surrogate is trained on log10 of the loss with inputs min-max mapped
to the unit cube (log10-mapped first for parameters flagged log-scale).
The first max(5, 2 d) proposals for d parameters are the rows of one
Latin hypercube, drawn once from the run's seed.  After that,
acquisition is expected improvement under the minimization convention,
maximized over N_CANDIDATES (2,000) uniform candidates plus
perturbations of the incumbent.  The loop stops when a surrogate
proposal moves less than STEP_TOL (1e-4) in the unit cube from the one
before it, when a loss reaches ``BoConfig.loss_tol``, or when the
evaluation budget runs out.  The design size, the candidate count and
the step tolerance are not options: no run varies them.

The surrogate's hyperparameters maximize the marginal likelihood by
L-BFGS-B over log length scales, log signal variance and log noise
variance.  ``_NegativeLogMarginal`` returns the negative log likelihood
together with the forward-difference gradient that scipy's L-BFGS-B
would take on its own: the step is h = 1e-8, negated where x + h would
pass the upper bound, and each partial is
(f(x + h e_i) - f(x)) / ((x_i + h_i) - x_i).  scipy's rule has two more
branches, for a step that fits on neither side of the box; they cannot
fire here, because every box is at least 6.9 wide in log space.  So the
fit depends on scipy only through L-BFGS-B itself, and it proposes what
the finite-difference version proposed, bit for bit.  scipy counted each
difference evaluation against ``maxfun`` (15,000).  That limit is never
reached: the largest of the 411 minimizations in the four benchmark
workloads used 736 by that count.  The fit still passes the same limit
in likelihood calls, 15,000 // (d + 3).

The posterior (Rasmussen & Williams, GPML, Algorithm 2.1) is scored in
column chunks of CHUNK_CANDIDATES candidates, so no (d x n x candidates)
distance tensor is built.  Each chunk's columns of k* come from their
own chunk-sized distances and Gaussian.  Its variance is signal_var
minus the column sums of v**2, with v = L^-1 k* from one triangular
solve (``dtrtrs``) on the stored lower factor L: the variance needs
only the norm of L^-1 k*, not K^-1 k*, which would take ``dpotrs``' two
solves.  All three work column by column, so the chunks keep the bits
of the whole formula.  Chunks of 64, 128, 256 and 512 matched it for d
in {1, 2, 3, 5} and n in {6, 17, 50, 99}, at candidate counts from 1 to
4,097 on both sides of the chunk edges (one and two BLAS threads).  Two
rules keep it so:

* the chunk edges are ``assembly.row_chunks``', so a last chunk of one
  column joins the chunk before it (its docstring says why);
* the mean is not taken per chunk, since a mat-vec over a contiguous
  slice of k* rounds another way than the whole product.  So k*
  (n x candidates, 1.6 MB at n = 99 and 2,050 candidates) is kept, and
  the mean is one ``kstar.T @ alpha`` after the loop.

So the chunk size is a module constant, not an option.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dtrtrs
from scipy.optimize import minimize
from scipy.special import ndtr

from .assembly import row_chunks
from .blas import fixed_blas_threads

N_INCUMBENT_PERTURBATIONS = 50
_PERTURBATION_SCALE = 0.05
_LOSS_FLOOR = 1e-16
_FAILURE_PENALTY_MIN = 1e6
# smallest noise variance a fitted surrogate keeps
_NOISE_FLOOR = 1e-8
# candidates per column chunk of gp_predict_batch (see the module docstring)
CHUNK_CANDIDATES = 256
# random candidates per acquisition, before the incumbent's perturbations
N_CANDIDATES = 2000
# the search stops when a proposal moves less than this in the unit cube
STEP_TOL = 1e-4


@dataclass(frozen=True)
class SearchBounds:
    """Named box bounds; log-scale parameters are normalized in log10."""

    names: tuple
    lowers: tuple
    uppers: tuple
    log_scale: tuple

    def __init__(self, params, log_scale=None):
        # params: iterable of (name, lower, upper); log_scale: {name: bool}
        params = list(params)
        names = tuple(p[0] for p in params)
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        lowers = tuple(float(p[1]) for p in params)
        uppers = tuple(float(p[2]) for p in params)
        for name, lo, hi in zip(names, lowers, uppers):
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise ValueError(f"{name}: bounds must be finite, got [{lo:g}, {hi:g}]")
        if any(lo >= hi for lo, hi in zip(lowers, uppers)):
            raise ValueError("each lower bound must be below its upper bound")
        log_scale = log_scale or {}
        for name, flag in log_scale.items():
            if name not in names:
                raise ValueError(f"{name!r} is not a searched parameter")
            if flag and lowers[names.index(name)] <= 0:
                raise ValueError(f"log-scale parameter {name!r} needs positive bounds")
        flags = tuple(bool(log_scale.get(n, False)) for n in names)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "lowers", lowers)
        object.__setattr__(self, "uppers", uppers)
        object.__setattr__(self, "log_scale", flags)

    @property
    def n_params(self) -> int:
        return len(self.names)

    def _axes(self) -> list:
        # log10 of a linear axis may be nan; np.where keeps that axis as is
        with np.errstate(divide="ignore", invalid="ignore"):
            return [np.where(self.log_scale, np.log10(corner), corner) for corner in (self.lowers, self.uppers)]

    def to_unit(self, w) -> np.ndarray:
        """w, one vector or vectors stacked as rows, in the unit cube."""
        w = np.asarray(w, dtype=float)
        lo, hi = self._axes()
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(self.log_scale, np.log10(w), w)
        return (v - lo) / (hi - lo)

    def from_unit(self, u) -> np.ndarray:
        """u, clipped to the unit cube, mapped into the box.  lo + u (hi - lo)
        can round one ulp past hi (at u = 1 on (0.3, 0.9)), and 10**v past
        either end of a log axis, so the result is clipped to the bounds."""
        u = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
        lo, hi = self._axes()
        v = lo + u * (hi - lo)
        with np.errstate(over="ignore"):
            w = np.where(self.log_scale, 10.0**v, v)
        return np.clip(w, self.lowers, self.uppers)

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

    def __post_init__(self):
        if self.max_evals < 1:
            raise ValueError("max_evals must be at least 1")
        if self.loss_tol is not None and self.loss_tol <= 0:
            raise ValueError("loss_tol must be positive")


@dataclass(frozen=True)
class GpSurrogate:
    inputs: np.ndarray
    target_mean: float
    target_scale: float
    length_scales: np.ndarray
    signal_var: float
    noise_var: float
    chol: np.ndarray  # lower Cholesky factor (upper triangle not cleared)
    alpha: np.ndarray


def _gaussian(sqdists, length_scales):
    # sqdists: (d, n, m) per-dimension squared distances; one np.dot over
    # the flattened tensor, the call np.tensordot makes, so the same bits
    d, n, m = sqdists.shape
    scaled = np.dot((1.0 / length_scales**2)[None, :], sqdists.reshape(d, n * m))
    return np.exp(-0.5 * scaled).reshape(n, m)


def _pairwise_sqdists(xa, xb):
    return (xa.T[:, :, None] - xb.T[:, None, :]) ** 2


def _chol_with_jitter(k):
    """dpotrf's lower factor of k; when k does not factor, of k + jitter I,
    the jitter from 1e-10 to 1e-3 of k's mean diagonal, x10 per step.

    No finiteness checks, and nothing is added to k before the first try:
    the likelihood factors thousands of times per fit.
    """
    c, info = dpotrf(k, lower=1, clean=0)
    if info == 0:
        return c
    jitter = 1e-10 * float(np.mean(np.diag(k)))
    for _ in range(8):
        c, info = dpotrf(k + jitter * np.eye(k.shape[0]), lower=1, clean=0)
        if info == 0:
            return c
        jitter *= 10.0
    raise ArithmeticError("covariance factorization failed even with jitter")


class _NegativeLogMarginal:
    """The negative log marginal likelihood of one standardized data set.

    Called with log hyperparameters theta = (log ell, log sigma_f^2,
    log noise), it returns the value and its forward-difference gradient
    (see the module docstring), for ``minimize(..., jac=True)``.  The
    Gaussian factor exp(-sum_k sqdists_k / (2 ell_k^2)) is cached for the
    last length scales, so the steps in the two variances reuse it.
    """

    STEP = 1e-8

    def __init__(self, sqdists, y, upper):
        self.sqdists = sqdists
        self.y = y
        self.n = y.shape[0]
        self.upper = upper
        self._key = None
        self._gauss = None

    def _cached_gaussian(self, ell):
        key = ell.tobytes()
        if key != self._key:
            self._key, self._gauss = key, _gaussian(self.sqdists, ell)
        return self._gauss

    def _value(self, theta, gauss):
        # one dpotrf (jittered only when it fails) and one dpotrs, called
        # directly, so no finiteness scans on the hot path
        n = self.n
        k = np.exp(theta[-2]) * gauss
        k.flat[:: n + 1] += np.exp(theta[-1])
        try:
            c = _chol_with_jitter(k)
        except ArithmeticError:
            return 1e10
        alpha, _ = dpotrs(c, self.y, lower=1)
        logdet = 2.0 * np.sum(np.log(np.diag(c)))
        return float(0.5 * self.y @ alpha + 0.5 * logdet + 0.5 * n * np.log(2 * np.pi))

    def value(self, theta):
        return self._value(theta, self._cached_gaussian(np.exp(theta[:-2])))

    def __call__(self, theta):
        d = theta.size - 2
        base = self._cached_gaussian(np.exp(theta[:d]))
        f0 = self._value(theta, base)
        h = np.where(theta + self.STEP > self.upper, -self.STEP, self.STEP)
        grad = np.empty(theta.size)
        for i in range(theta.size):
            step = theta.copy()
            step[i] = theta[i] + h[i]
            gauss = _gaussian(self.sqdists, np.exp(step[:d])) if i < d else base
            grad[i] = (self._value(step, gauss) - f0) / (step[i] - theta[i])
        return f0, grad


def _gp_data(inputs, targets) -> tuple:
    """(x, standardized targets, their mean and scale, x's per-dimension
    squared distances); constant targets keep scale 1."""
    x = np.atleast_2d(np.asarray(inputs, dtype=float))
    y = np.asarray(targets, dtype=float)
    mean = float(y.mean())
    scale = float(y.std())
    if scale == 0.0:
        scale = 1.0
    return x, (y - mean) / scale, mean, scale, _pairwise_sqdists(x, x)


@fixed_blas_threads()
def gp_with_params(inputs, targets, length_scales, signal_var, noise_var) -> GpSurrogate:
    """Assemble a surrogate with given kernel hyperparameters (no fitting)."""
    x, y_std, mean, scale, sq = _gp_data(inputs, targets)
    ell = np.asarray(length_scales, dtype=float)
    k = signal_var * _gaussian(sq, ell)
    c = _chol_with_jitter(k + noise_var * np.eye(x.shape[0]))
    alpha, _ = dpotrs(c, y_std, lower=1)
    return GpSurrogate(x, mean, scale, ell, float(signal_var), float(noise_var), c, alpha)


@fixed_blas_threads()
def gp_fit(inputs, targets) -> GpSurrogate:
    """Maximum-marginal-likelihood fit of the anisotropic smooth kernel.

    Multi-start bounded quasi-Newton search over log hyperparameters;
    the best of all starts and all polished results wins, so the
    likelihood never ends below its value at the first start; the
    surrogate is then assembled at the winner (gp_with_params).
    """
    x, y_std, _, _, sq = _gp_data(inputs, targets)
    if x.shape[0] < 2:
        raise ValueError("gp_fit needs at least 2 observations")
    if x.shape[0] != y_std.shape[0]:
        raise ValueError("inputs/targets length mismatch")
    d = x.shape[1]

    theta_bounds = (
        [(np.log(1e-2), np.log(10.0))] * d
        + [(np.log(1e-2), np.log(1e2))]
        + [(np.log(_NOISE_FLOOR), np.log(1.0))]
    )
    starts = [
        np.concatenate([np.full(d, np.log(0.3)), [0.0, np.log(1e-6)]]),
        np.concatenate([np.full(d, np.log(1.0)), [0.0, np.log(1e-4)]]),
        np.concatenate([np.full(d, np.log(0.08)), [0.0, np.log(_NOISE_FLOOR)]]),
    ]

    nll = _NegativeLogMarginal(sq, y_std, np.array([hi for _, hi in theta_bounds]))
    # scipy counted d + 3 likelihoods per point against its maxfun of 15,000
    options = {"maxiter": 60, "maxfun": 15000 // (d + 3)}
    best_theta = None
    best_nll = np.inf
    for start in starts:
        fitted = minimize(
            nll, start, jac=True, method="L-BFGS-B", bounds=theta_bounds, options=options
        ).x
        for theta in (start, fitted):
            value = nll.value(theta)
            if value < best_nll:
                best_nll = value
                best_theta = theta

    noise = float(max(np.exp(best_theta[-1]), _NOISE_FLOOR))
    return gp_with_params(inputs, targets, np.exp(best_theta[:-2]), float(np.exp(best_theta[-2])), noise)


@fixed_blas_threads()
def gp_predict_batch(surrogate: GpSurrogate, xs) -> tuple:
    """Posterior mean and latent variance at many points; de-standardized.

    k* and the variance are filled in chunks of CHUNK_CANDIDATES columns;
    the mean is one product over the whole k*, which keeps the bits of
    the unchunked formula (see the module docstring).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    m = xs.shape[0]
    kstar = np.empty((surrogate.inputs.shape[0], m))
    var_std = np.empty(m)
    for cols in row_chunks(m, CHUNK_CANDIDATES):
        sq = _pairwise_sqdists(surrogate.inputs, xs[cols])
        chunk = surrogate.signal_var * _gaussian(sq, surrogate.length_scales)
        kstar[:, cols] = chunk
        # L^-1 k* on the stored factor, without finiteness scans
        v, _ = dtrtrs(surrogate.chol, chunk, lower=1)
        var_std[cols] = surrogate.signal_var - np.sum(v * v, axis=0)
    mean_std = kstar.T @ surrogate.alpha
    mean = surrogate.target_mean + surrogate.target_scale * mean_std
    var = surrogate.target_scale**2 * np.maximum(var_std, 0.0)
    return mean, var


def expected_improvement(mean, variance, best: float) -> np.ndarray:
    """Expected decrease below the incumbent under Gaussian beliefs.

    mean and variance are arrays of posterior moments; where the variance
    is zero the improvement is certain and the value is max(best - mean, 0).
    """
    # ndtr and the density below give norm.cdf's and norm.pdf's bits
    # without importing scipy.stats, which costs about half a second
    s = np.sqrt(variance)
    improve = best - mean
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(s > 0, improve / np.where(s > 0, s, 1.0), 0.0)
    return np.where(
        s > 0,
        improve * ndtr(z) + s * (np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)),
        np.maximum(improve, 0.0),
    )


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


def bayes_step(history: BoHistory, bounds: SearchBounds, rng) -> np.ndarray:
    """Propose the next parameter vector from the surrogate.

    The surrogate is fit to the whole history, and the expected-improvement
    maximizer over a random candidate set (plus local perturbations of the
    incumbent) wins.  If every candidate has zero expected improvement the
    lowest predictive mean wins instead.
    """
    inputs = bounds.to_unit(np.array([w for w, _ in history.records]))
    losses = _penalized_losses([loss for _, loss in history.records])
    targets = np.log10(np.maximum(losses, _LOSS_FLOOR))
    surrogate = gp_fit(inputs, targets)

    candidates = rng.uniform(size=(N_CANDIDATES, bounds.n_params))
    incumbent = inputs[int(np.argmin(targets))]
    local = incumbent + _PERTURBATION_SCALE * rng.standard_normal(
        (N_INCUMBENT_PERTURBATIONS, bounds.n_params)
    )
    candidates = np.vstack([candidates, np.clip(local, 0.0, 1.0)])

    mean, var = gp_predict_batch(surrogate, candidates)
    ei = expected_improvement(mean, var, float(targets.min()))
    pick = int(np.argmin(mean)) if float(ei.max()) <= 0.0 else int(np.argmax(ei))
    return bounds.from_unit(candidates[pick])


def optimize(objective: Callable, bounds: SearchBounds, config: BoConfig, seed: int) -> tuple:
    """Run the optimization loop; returns (history, the incumbent's result).

    ``objective(w, index)`` returns (loss, result); index is w's position
    in the history, which is also its evaluation seed.  Only the result
    of ``history.incumbent_index``, the first minimum, is kept; it is None
    when no evaluation finished.  A failed evaluation (a raised
    ArithmeticError or a non-finite loss) is recorded as +inf with no
    result; the surrogate sees it as a large finite penalty.
    seed is the run's: it draws the design (_initial_design) and the candidates.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    history = BoHistory()
    incumbent_result = None
    n_init = max(5, 2 * bounds.n_params)
    design = _initial_design(n_init, bounds.n_params, seed)
    prev_unit = None
    while True:
        w = bounds.from_unit(design[len(history)]) if len(history) < n_init else bayes_step(history, bounds, rng)
        try:
            loss, result = objective(w, len(history))
        except ArithmeticError:
            loss, result = np.inf, None
        if not np.isfinite(loss):
            loss, result = np.inf, None
        history.append(w, loss)
        if history.incumbent_index == len(history) - 1:
            incumbent_result = result

        if config.loss_tol is not None and loss <= config.loss_tol:
            history.stop_reason = "loss_tol"
            break
        unit = bounds.to_unit(w)
        if prev_unit is not None and float(np.linalg.norm(unit - prev_unit)) < STEP_TOL:
            history.stop_reason = "step_tol"
            break
        if len(history) >= config.max_evals:
            history.stop_reason = "budget"
            break
        if len(history) > n_init:
            prev_unit = unit
    return history, incumbent_result
