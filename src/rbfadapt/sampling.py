"""Point grids and kernel-placement sampling.

The deterministic grids, uniform over a box and along an initial edge,
place the collocation points, the baseline kernels and the initial rows;
each problem lays out its own boundary points (problems.PdeProblem).  A
network's kernels are a uniform-grid baseline plus Gaussian adaptive
components steered by a handful of distributional hyperparameters; this
module draws the adaptive kernels only (the baseline is the run's fixed
block, see assembly).  A component is the
plain tuple (fraction, mu, tau, decay) read from one search vector,
whose box the run spec has already checked (drivers.ForwardRunSpec), so
the draws check nothing again.  Every adaptive kernel has one width,
the same on every axis, from an inverse-scale draw whose range grows as
the problem gets stiffer, so small diffusion admits sharp kernels.  By
default each adaptive component draws a single width its kernels share;
an optional per-kernel mode draws independently for every kernel,
producing a multi-scale width ladder for extremely stiff problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import Box
from .rbf import RbfBasis

_SQRT2 = np.sqrt(2.0)
# "component": one width draw shared by a component's kernels, the
# default regime; "kernel": every kernel draws its own width, giving
# the multi-scale ladder needed when the sharp feature is far below
# the collocation grid scale
WIDTH_SHARING = ("component", "kernel")


@dataclass(frozen=True)
class BaselineConfig:
    n_colloc: int
    n_rbf: int
    sigma_f: float
    n_boundary: int = 2
    n_initial: Optional[int] = None

    def __post_init__(self):
        # each message names the field at fault first: "field: reason"
        for name in ("n_colloc", "n_rbf", "n_boundary", "n_initial"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name}: must be positive, got {value}")
        if self.n_rbf > self.n_colloc:
            raise ValueError(f"n_rbf: must not exceed n_colloc ({self.n_colloc}), got {self.n_rbf}")
        if self.sigma_f <= 0:
            raise ValueError(f"sigma_f: must be positive, got {self.sigma_f:g}")


def default_eta(domain: Box) -> float:
    """Largest admissible fixed scale: one-tenth of the longest side."""
    return float(np.max(domain.side_lengths)) / 10.0


def eta_fits(domain: Box, eta: float) -> bool:
    """Whether eta is admissible: at most default_eta, up to rounding."""
    return eta <= default_eta(domain) * (1 + 1e-12)


def component_counts(n_rbf_base: int, f_values) -> list:
    """Each adaptive component's kernel count: f * n_rbf_base, rounded half up on every platform."""
    if n_rbf_base < 1:
        raise ValueError("baseline kernel count must be at least 1")
    return [int(np.floor(float(v) * n_rbf_base + 0.5)) for v in f_values]


def most_square_factors(n: int):
    """Factor n = a*b with a <= b and b - a minimal."""
    a = int(np.floor(np.sqrt(n)))
    while n % a:
        a -= 1
    return a, n // a


def check_grid_count(n: int, name: str = "grid size"):
    """Refuse a 2D point count n, named name in the message, that lays out
    with fewer than three points on a side: a prime n would put every point
    on one edge, and 2 x m points all lie on two opposite edges, so the
    grid would have no interior point."""
    small, large = most_square_factors(n)
    if small < 3:
        raise ValueError(f"{name}: {n} points lay out only as {small} x {large}; a 2D grid needs three per side")


def uniform_grid(domain: Box, n: int) -> np.ndarray:
    """Deterministic uniform coverage of the box with exactly n points.

    1D: n equispaced points including endpoints.  2D: the most nearly
    square factorization of n, the larger factor along the longer side,
    with at least three points per side (see check_grid_count).
    """
    if n < 1:
        raise ValueError("grid size must be positive")
    lo, hi = domain.lower, domain.upper
    if domain.dim == 1:
        return np.linspace(lo[0], hi[0], n).reshape(-1, 1)
    if domain.dim != 2:
        raise ValueError("uniform_grid supports 1D and 2D domains")
    check_grid_count(n)
    small, large = most_square_factors(n)
    sides = domain.side_lengths
    counts = (large, small) if sides[0] >= sides[1] else (small, large)
    xs = np.linspace(lo[0], hi[0], counts[0])
    ys = np.linspace(lo[1], hi[1], counts[1])
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def initial_points(domain: Box, n: int) -> np.ndarray:
    """n points along the t = t_min edge of an (x, t) slab."""
    (x0, t0), (x1, _) = domain.lower, domain.upper
    xs = np.linspace(x0, x1, n)
    return np.column_stack([xs, np.full_like(xs, t0)])


def width_scale_bound(sigma_f: float, nu: float, decay: float) -> float:
    """Half-range parameter for the inverse-scale draw; grows as nu shrinks."""
    if sigma_f <= 0 or nu <= 0:
        raise ValueError("sigma_f and nu must be positive")
    return (1.0 / (_SQRT2 * sigma_f)) * nu ** -(1.0 + decay)


def draw_widths(sigma_f: float, nu: float, decay: float, n: int, rng) -> np.ndarray:
    """n inverse-scale width draws, each capped at sigma_f.

    Each width is 1 / (sqrt(2) |xi|) with xi ~ U(-zeta/2, zeta/2) and zeta
    from width_scale_bound, so a stiffer problem admits sharper kernels.
    """
    zeta = width_scale_bound(sigma_f, nu, decay)
    xi = rng.uniform(-zeta / 2.0, zeta / 2.0, n)
    with np.errstate(divide="ignore"):
        return np.minimum(np.abs(1.0 / (_SQRT2 * xi)), sigma_f)


def sample_configuration(components, eta: float, width_sharing: str, baseline: BaselineConfig, domain: Box,
                         nu: float, rng) -> tuple:
    """Draw the adaptive kernels; returns (their RbfBasis, or None when
    none were drawn, and the component id 1, 2, ... of each kernel).

    components holds one (fraction, mu, tau, decay) per adaptive
    component, mu with one coordinate per axis of domain.  Component k
    gets component_counts' share of the baseline's kernels, centred i.i.d.
    normal with std eta * tau on every axis, redrawing out-of-domain
    points up to 100 times before clamping; a component with no kernels
    draws nothing.  Every component's centres are drawn first, then each
    component's widths (width_sharing: one draw per component or per
    kernel), capped at the baseline's sigma_f.
    """
    counts = component_counts(baseline.n_rbf, [fraction for fraction, _, _, _ in components])
    centers = [np.empty((0, domain.dim))]
    tags = [np.empty(0, dtype=int)]
    for k, ((_, mu, tau, _), n_k) in enumerate(zip(components, counts), start=1):
        if n_k == 0:
            continue
        std = eta * tau
        draws = mu + std * rng.standard_normal((n_k, domain.dim))
        outside = ~domain.contains(draws)
        for _ in range(100):
            if not np.any(outside):
                break
            draws[outside] = mu + std * rng.standard_normal((int(outside.sum()), domain.dim))
            outside = ~domain.contains(draws)
        centers.append(domain.clip(draws))
        tags.append(np.full(n_k, k, dtype=int))
    tags = np.concatenate(tags)
    if not tags.size:
        return None, tags
    centers = np.vstack(centers)
    widths = np.empty_like(centers)
    per_kernel = width_sharing == "kernel"
    for k, ((_, _, _, decay), n_k) in enumerate(zip(components, counts), start=1):
        if n_k:
            # one draw per kernel or per component, the same on every axis
            draws = draw_widths(baseline.sigma_f, nu, decay, n_k if per_kernel else 1, rng)
            widths[tags == k] = draws[:, None]
    return RbfBasis(centers, widths), tags
