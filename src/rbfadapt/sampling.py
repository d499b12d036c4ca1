"""Kernel-placement sampling.

A network's kernels are a deterministic uniform-grid baseline plus
Gaussian adaptive components steered by a handful of distributional
hyperparameters; this module draws the adaptive kernels only (the
baseline is the run's fixed block, see assembly).  Every adaptive kernel
has one width, the same on every axis, from an inverse-scale draw whose
range grows as the problem gets stiffer, so small diffusion admits sharp
kernels.  By default each adaptive component draws a single width its
kernels share; an optional per-kernel mode draws independently for every
kernel, producing a multi-scale width ladder for extremely stiff problems.
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
class MixtureComponent:
    """One adaptive component: fraction f_k, location mu, spread tau (the
    same on every axis), decay."""

    fraction: float
    mu: np.ndarray
    tau: float
    decay: float

    def __post_init__(self):
        if self.fraction <= 0:
            raise ValueError("component fraction must be positive")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        object.__setattr__(self, "mu", np.atleast_1d(np.asarray(self.mu, dtype=float)))
        object.__setattr__(self, "tau", float(self.tau))

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class MixtureHyperparams:
    components: tuple = ()
    eta: float = 0.1
    width_sharing: str = "component"  # one of WIDTH_SHARING

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.width_sharing not in WIDTH_SHARING:
            raise ValueError("width_sharing must be 'component' or 'kernel'")

    @property
    def n_adaptive(self) -> int:
        return len(self.components)

    @property
    def fractions(self) -> list:
        return [c.fraction for c in self.components]


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


@dataclass(frozen=True)
class SampledConfiguration:
    # the adaptive kernels, None when none were drawn
    adaptive: Optional[RbfBasis]
    # component id (1, 2, ...) of each adaptive kernel
    component_of: np.ndarray


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


def boundary_points_1d(domain: Box) -> np.ndarray:
    return np.array([[domain.lower[0]], [domain.upper[0]]])


def boundary_points_rect(domain: Box, n: int) -> np.ndarray:
    """n points around the rectangle perimeter, no duplicated corners."""
    if n < 4:
        raise ValueError("need at least 4 perimeter points")
    (x0, y0), (x1, y1) = domain.lower, domain.upper
    per_side = [n // 4 + (i < n % 4) for i in range(4)]
    # walk the perimeter, each side half-open so corners appear once
    bottom = np.linspace(x0, x1, per_side[0], endpoint=False)
    right = np.linspace(y0, y1, per_side[1], endpoint=False)
    top = np.linspace(x1, x0, per_side[2], endpoint=False)
    left = np.linspace(y1, y0, per_side[3], endpoint=False)
    return np.vstack(
        [
            np.column_stack([bottom, np.full_like(bottom, y0)]),
            np.column_stack([np.full_like(right, x1), right]),
            np.column_stack([top, np.full_like(top, y1)]),
            np.column_stack([np.full_like(left, x0), left]),
        ]
    )


def boundary_points_xsides(domain: Box, n: int) -> np.ndarray:
    """n points split over the two x-extreme edges of an (x, t) slab."""
    if n < 2:
        raise ValueError("need at least one point per side")
    (x0, t0), (x1, t1) = domain.lower, domain.upper
    n_low = n // 2
    ts_low = np.linspace(t0, t1, n_low)
    ts_high = np.linspace(t0, t1, n - n_low)
    return np.vstack(
        [
            np.column_stack([np.full_like(ts_low, x0), ts_low]),
            np.column_stack([np.full_like(ts_high, x1), ts_high]),
        ]
    )


def initial_points(domain: Box, n: int) -> np.ndarray:
    """n points along the t = t_min edge of an (x, t) slab."""
    (x0, t0), (x1, _) = domain.lower, domain.upper
    xs = np.linspace(x0, x1, n)
    return np.column_stack([xs, np.full_like(xs, t0)])


def sample_centers(hp: MixtureHyperparams, counts, domain: Box, rng):
    """Draw the adaptive kernel centers; returns (centers, component_of).

    counts holds one kernel count per adaptive component.  Each component
    draws i.i.d. normal with std eta * tau on every axis, redrawing
    out-of-domain points up to 100 times before clamping.
    """
    if len(counts) != hp.n_adaptive:
        raise ValueError("counts do not match the number of components")
    if not eta_fits(domain, hp.eta):
        raise ValueError("eta exceeds one-tenth of the domain extent")
    centers = [np.empty((0, domain.dim))]
    tags = [np.empty(0, dtype=int)]
    for k, (comp, n_k) in enumerate(zip(hp.components, counts), start=1):
        if n_k == 0:
            continue
        if comp.dim != domain.dim:
            raise ValueError("component dimension does not match domain")
        std = hp.eta * comp.tau
        draws = comp.mu + std * rng.standard_normal((n_k, domain.dim))
        outside = ~domain.contains(draws)
        for _ in range(100):
            if not np.any(outside):
                break
            draws[outside] = comp.mu + std * rng.standard_normal((int(outside.sum()), domain.dim))
            outside = ~domain.contains(draws)
        draws = domain.clip(draws)
        centers.append(draws)
        tags.append(np.full(n_k, k, dtype=int))
    return np.vstack(centers), np.concatenate(tags)


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


def sample_configuration(
    hp: MixtureHyperparams,
    baseline: BaselineConfig,
    domain: Box,
    nu: float,
    rng,
) -> SampledConfiguration:
    """Draw the adaptive kernels: centers, then widths capped at sigma_f."""
    counts = component_counts(baseline.n_rbf, hp.fractions)
    centers, tags = sample_centers(hp, counts, domain, rng)
    if not tags.size:
        return SampledConfiguration(None, tags)
    widths = np.empty_like(centers)
    per_kernel = hp.width_sharing == "kernel"
    for k, (comp, n_k) in enumerate(zip(hp.components, counts), start=1):
        if n_k:
            # one draw per kernel or per component, the same on every axis
            draws = draw_widths(baseline.sigma_f, nu, comp.decay, n_k if per_kernel else 1, rng)
            widths[tags == k] = draws[:, None]
    return SampledConfiguration(RbfBasis(centers, widths), tags)
