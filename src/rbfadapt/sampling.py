"""Kernel-placement sampling.

Centers come from a mixture of a deterministic uniform-grid baseline
component and Gaussian adaptive components steered by a handful of
distributional hyperparameters.  Adaptive widths come from an
inverse-scale draw whose range grows as the problem gets stiffer, so
small diffusion admits sharp kernels.  By default each adaptive
component draws a single width its kernels share; an optional
per-kernel mode draws independently for every kernel, producing a
multi-scale width ladder for extremely stiff problems.  Collocation
points reuse the baseline grid plus every adaptive center verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problems import Box
from .rbf import RbfBasis

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class MixtureComponent:
    """One adaptive component: fraction f_k, location mu, spread tau, decay."""

    fraction: float
    mu: np.ndarray
    tau: np.ndarray
    decay: float

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        tau = np.atleast_1d(np.asarray(self.tau, dtype=float))
        if self.fraction <= 0:
            raise ValueError("component fraction must be positive")
        if mu.shape != tau.shape:
            raise ValueError("mu and tau must have matching dimension")
        if np.any(tau <= 0):
            raise ValueError("tau entries must be positive")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "tau", tau)

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class MixtureHyperparams:
    components: tuple = ()
    eta: float = 0.1
    inverse_params: Optional[dict] = None
    isotropic_widths: bool = True
    # "component": one width draw shared by a component's kernels, the
    # default regime; "kernel": every kernel draws its own width, giving
    # the multi-scale ladder needed when the sharp feature is far below
    # the collocation grid scale
    width_sharing: str = "component"

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.width_sharing not in ("component", "kernel"):
            raise ValueError("width_sharing must be 'component' or 'kernel'")
        if self.inverse_params is not None:
            keys = set(self.inverse_params)
            if keys != {"mu_nu", "sigma_nu"} and keys != {"a"}:
                raise ValueError(
                    "inverse_params must be {mu_nu, sigma_nu} or {a}"
                )
            if "mu_nu" in keys:
                if self.inverse_params["mu_nu"] <= 0:
                    raise ValueError("mu_nu must be positive")
                if self.inverse_params["sigma_nu"] < 0:
                    raise ValueError("sigma_nu must be nonnegative")

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
        if self.n_rbf < 1 or self.n_colloc < 1 or self.n_boundary < 1:
            raise ValueError("point counts must be positive")
        if self.n_rbf > self.n_colloc:
            raise ValueError("n_rbf must not exceed n_colloc")
        if self.sigma_f <= 0:
            raise ValueError("sigma_f must be positive")


@dataclass(frozen=True)
class SampledConfiguration:
    basis: RbfBasis
    interior_pts: np.ndarray
    component_of: np.ndarray


def default_eta(domain: Box) -> float:
    """Largest admissible fixed scale: one-tenth of the longest side."""
    return float(np.max(domain.side_lengths)) / 10.0


def eta_fits(domain: Box, eta: float) -> bool:
    """Whether eta is admissible: at most default_eta, up to rounding."""
    return eta <= default_eta(domain) * (1 + 1e-12)


def component_counts(n_rbf_base: int, f_values) -> list:
    if n_rbf_base < 1:
        raise ValueError("baseline kernel count must be at least 1")
    # half-up rounding, deterministic across platforms
    return [int(n_rbf_base)] + [
        int(np.floor(float(v) * n_rbf_base + 0.5)) for v in f_values
    ]


def most_square_factors(n: int):
    """Factor n = a*b with a <= b and b - a minimal."""
    a = int(np.floor(np.sqrt(n)))
    while n % a:
        a -= 1
    return a, n // a


def uniform_grid(domain: Box, n: int) -> np.ndarray:
    """Deterministic uniform coverage of the box with exactly n points.

    1D: n equispaced points including endpoints.  2D: the most nearly
    square factorization of n, the larger factor along the longer side.
    """
    if n < 1:
        raise ValueError("grid size must be positive")
    lo, hi = domain.lower, domain.upper
    if domain.dim == 1:
        return np.linspace(lo[0], hi[0], n).reshape(-1, 1)
    if domain.dim != 2:
        raise ValueError("uniform_grid supports 1D and 2D domains")
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
    per_side = [n // 4] * 4
    for i in range(n % 4):
        per_side[i] += 1
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
    """Draw kernel centers; returns (centers, component_of).

    The baseline component is the deterministic uniform grid; adaptive
    components draw i.i.d. normal with per-dimension std eta * tau,
    redrawing out-of-domain points up to 100 times before clamping.
    """
    if len(counts) != 1 + hp.n_adaptive:
        raise ValueError("counts do not match the number of components")
    if not eta_fits(domain, hp.eta):
        raise ValueError("eta exceeds one-tenth of the domain extent")
    centers = [uniform_grid(domain, counts[0])]
    tags = [np.zeros(counts[0], dtype=int)]
    for k, comp in enumerate(hp.components, start=1):
        n_k = counts[k]
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
            draws[outside] = comp.mu + std * rng.standard_normal(
                (int(outside.sum()), domain.dim)
            )
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


def sample_widths(
    hp: MixtureHyperparams, component: int, nu: float, sigma_f: float, rng
) -> np.ndarray:
    """Draw one width vector for an adaptive component, capped at sigma_f.

    One inverse-scale draw per dimension.  Under ``width_sharing ==
    "component"`` the vector is shared by every kernel of the component;
    under ``"kernel"`` the caller invokes this once per kernel instead.
    """
    if component < 1:
        raise ValueError("baseline widths are fixed; component must be >= 1")
    comp = hp.components[component - 1]
    dim = comp.dim
    n_draws = 1 if (hp.isotropic_widths or dim == 1) else dim
    widths = draw_widths(sigma_f, nu, comp.decay, n_draws, rng)
    if n_draws == 1:
        widths = np.full(dim, widths[0])
    return widths


def sample_collocation(
    baseline: BaselineConfig, centers: np.ndarray, component_of: np.ndarray, domain: Box
) -> np.ndarray:
    """Interior points: the n_colloc uniform grid plus adaptive centers.

    Exact duplicates are kept once, first occurrence order preserved.
    """
    grid = uniform_grid(domain, baseline.n_colloc)
    adaptive = centers[component_of > 0]
    combined = np.vstack([grid, adaptive]) if adaptive.size else grid
    return dedup_rows(combined)


def dedup_rows(pts: np.ndarray) -> np.ndarray:
    """The rows of pts with exact duplicates dropped, first occurrences kept
    in order.  Rows are compared by their bytes, so -0.0 and 0.0 differ."""
    seen = set()
    keep = []
    for i, row in enumerate(pts):
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return pts[keep]


def sample_nu(hp: MixtureHyperparams, rng) -> float:
    """One positive draw of the diffusion parameter for inverse runs."""
    if hp.inverse_params is None or "mu_nu" not in hp.inverse_params:
        raise ValueError("inverse_params with mu_nu/sigma_nu required")
    mu = float(hp.inverse_params["mu_nu"])
    sigma = float(hp.inverse_params["sigma_nu"])
    if sigma == 0.0:
        return mu
    for _ in range(100):
        draw = mu + sigma * rng.standard_normal()
        if draw > 0:
            return float(draw)
    return mu


def sample_configuration(
    hp: MixtureHyperparams,
    baseline: BaselineConfig,
    domain: Box,
    nu: float,
    rng,
) -> SampledConfiguration:
    """Draw a full kernel configuration and its collocation points."""
    counts = component_counts(baseline.n_rbf, hp.fractions)
    centers, tags = sample_centers(hp, counts, domain, rng)
    widths = np.empty_like(centers)
    widths[tags == 0] = baseline.sigma_f
    per_kernel = hp.width_sharing == "kernel"
    for k in range(1, hp.n_adaptive + 1):
        mask = tags == k
        if not np.any(mask):
            continue
        if per_kernel:
            rows = np.flatnonzero(mask)
            for i in rows:
                widths[i] = sample_widths(hp, k, nu, baseline.sigma_f, rng)
        else:
            widths[mask] = sample_widths(hp, k, nu, baseline.sigma_f, rng)
    interior = sample_collocation(baseline, centers, tags, domain)
    return SampledConfiguration(RbfBasis(centers, widths), interior, tags)
