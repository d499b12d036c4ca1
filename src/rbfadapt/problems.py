"""Benchmark PDE problems: operators, boundary data, exact solutions.

Four linear problems are supported, all with Dirichlet data.  Each has
one name, its ``ProblemKind`` value and its key in ``PROBLEMS``, the
table of constructors a configuration's ``problem.type`` picks from:

* ``convdiff1``: u_x - nu*u_xx = 0 on [0,1], u(0)=0, u(1)=1. A single
  internal layer of width ~nu hugs x=1.
* ``convdiff2``: 2(2x-1)u_x - nu*u_xx + 4u = 0 on [0,1], u(0)=u(1)=1.
  Twin layers at both ends.
* ``poisson``: u_xx + u_yy = S(x,y) on the unit square, u=0 on the
  boundary, with a narrow Gaussian source at the center.
* ``advection``: u_t + a*u_x = 0 on [-1,1] x [0,1], u(+-1,t)=0, with a
  Gaussian initial pulse centered at x=-0.3.

A problem owns its boundary: it lays out its Dirichlet points, refuses a
count they cannot take, and gives the values prescribed there.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.fft


# x interval of the advection problem, which the time-block march covers too
ADVECTION_X = (-1.0, 1.0)


class ProblemKind(Enum):
    CONVDIFF1 = "convdiff1"
    CONVDIFF2 = "convdiff2"
    POISSON2D = "poisson"
    ADVECTION1D = "advection"


@dataclass(frozen=True)
class Box:
    """Axis-aligned domain box."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("lower and upper must have the same dimension")
        for lo, hi in zip(self.lower, self.upper):
            if not lo < hi:
                raise ValueError(f"degenerate domain: lower {lo} >= upper {hi}")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def side_lengths(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in zip(self.lower, self.upper))

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask of points (n, dim) inside the closed box."""
        pts = np.atleast_2d(pts)
        lo = np.asarray(self.lower)
        hi = np.asarray(self.upper)
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def clip(self, pts: np.ndarray) -> np.ndarray:
        return np.clip(pts, np.asarray(self.lower), np.asarray(self.upper))


@dataclass(frozen=True)
class PdeProblem:
    """A benchmark problem instance.  Its Dirichlet rows sit at
    boundary_points and take boundary_values there; only the advection
    problem has initial-condition rows.
    """

    kind: ProblemKind
    domain: Box
    nu: float
    advection_speed: float | None = None

    def __post_init__(self):
        if not self.nu > 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.kind is ProblemKind.ADVECTION1D and self.advection_speed is None:
            raise ValueError("advection problem requires advection_speed")

    @property
    def dim(self) -> int:
        return self.domain.dim

    def exact(self, pts: np.ndarray) -> np.ndarray | None:
        """Exact solution at points (n, dim), or None if unavailable.

        The 2D Poisson case has no closed form; use poisson_fdm_oracle.
        """
        pts = np.atleast_2d(pts)
        if self.kind is ProblemKind.CONVDIFF1:
            return exact_type1(pts[:, 0], self.nu)
        if self.kind is ProblemKind.CONVDIFF2:
            return exact_type2(pts[:, 0], self.nu)
        if self.kind is ProblemKind.ADVECTION1D:
            return advection_exact(pts[:, 0], pts[:, 1], self.advection_speed, self.nu)
        return None

    def source(self, pts: np.ndarray) -> np.ndarray:
        """Right-hand side of the operator at interior points."""
        pts = np.atleast_2d(pts)
        if self.kind is ProblemKind.POISSON2D:
            return poisson_source(pts[:, 0], pts[:, 1], self.nu)
        return np.zeros(pts.shape[0])

    def boundary_points(self, n: int) -> np.ndarray:
        """The problem's n Dirichlet points: both ends in 1D, around the
        square, or split over the slab's two x edges.  A count the boundary
        cannot take is refused, naming baseline.n_boundary first: a 1D
        problem has exactly its two ends, the square needs one point a side
        and the slab one per x edge."""
        kind = self.kind.value
        if self.dim == 1:
            if n != 2:
                raise ValueError(f"baseline.n_boundary: the {kind} problem has exactly 2 boundary points, got {n}")
            return np.array([[self.domain.lower[0]], [self.domain.upper[0]]])
        least = 4 if self.kind is ProblemKind.POISSON2D else 2
        if n < least:
            raise ValueError(f"baseline.n_boundary: must be at least {least} for the {kind} problem, got {n}")
        if self.kind is ProblemKind.POISSON2D:
            return _perimeter(self.domain, n)
        return _x_edges(self.domain, n)

    def boundary_values(self, points: np.ndarray) -> np.ndarray:
        """Dirichlet values at boundary points (n, dim): on convdiff1 0 at
        the left end and 1 at the right, by the nearer end (a point midway
        takes the left); one constant on every other problem's boundary."""
        points = np.atleast_2d(points)
        if self.kind is ProblemKind.CONVDIFF1:
            x, lo, hi = points[:, 0], self.domain.lower[0], self.domain.upper[0]
            return np.where(np.abs(x - lo) <= np.abs(x - hi), 0.0, 1.0)
        return np.full(points.shape[0], 1.0 if self.kind is ProblemKind.CONVDIFF2 else 0.0)


def _perimeter(domain: Box, n: int) -> np.ndarray:
    """n points around the rectangle perimeter, no duplicated corners."""
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


def _x_edges(domain: Box, n: int) -> np.ndarray:
    """n points split over the two x-extreme edges of an (x, t) slab."""
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


def convdiff_type1(nu: float) -> PdeProblem:
    return PdeProblem(
        kind=ProblemKind.CONVDIFF1,
        domain=Box((0.0,), (1.0,)),
        nu=nu,
    )


def convdiff_type2(nu: float) -> PdeProblem:
    return PdeProblem(
        kind=ProblemKind.CONVDIFF2,
        domain=Box((0.0,), (1.0,)),
        nu=nu,
    )


def poisson2d(nu: float) -> PdeProblem:
    return PdeProblem(
        kind=ProblemKind.POISSON2D,
        domain=Box((0.0, 0.0), (1.0, 1.0)),
        nu=nu,
    )


def advection1d(nu: float, speed: float) -> PdeProblem:
    return PdeProblem(
        kind=ProblemKind.ADVECTION1D,
        domain=Box((ADVECTION_X[0], 0.0), (ADVECTION_X[1], 1.0)),
        nu=nu,
        advection_speed=speed,
    )


# each problem's constructor by its name; the keyword arguments are the
# configuration's other problem keys
PROBLEMS = {"convdiff1": convdiff_type1, "convdiff2": convdiff_type2, "poisson": poisson2d, "advection": advection1d}


def exact_type1(x, nu: float):
    """Exact single-layer solution (e^{x/nu}-1)/(e^{1/nu}-1).

    Evaluated as (e^{(x-1)/nu} - e^{-1/nu}) / (1 - e^{-1/nu}) so that no
    intermediate overflows for small nu.
    """
    x = np.asarray(x, dtype=float)
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("x must lie in [0, 1]")
    em = np.exp(-1.0 / nu)
    return (np.exp((x - 1.0) / nu) - em) / (1.0 - em)


def exact_type2(x, nu: float):
    """Exact twin-layer solution e^{-2x(1-x)/nu}."""
    x = np.asarray(x, dtype=float)
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    if np.any(x < 0) or np.any(x > 1):
        raise ValueError("x must lie in [0, 1]")
    return np.exp(-2.0 * x * (1.0 - x) / nu)


def poisson_source(x, y, nu: float):
    """Central Gaussian source, amplitude 1/(2 pi nu^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    amp = 1.0 / (2.0 * np.pi * nu * nu)
    return amp * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / (2.0 * nu * nu))


def advection_initial(x, nu: float):
    """Gaussian start profile exp(-(x+0.3)^2 / (4 nu^2))."""
    x = np.asarray(x, dtype=float)
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    return np.exp(-((x + 0.3) ** 2) / (4.0 * nu * nu))


def advection_exact(x, t, speed: float, nu: float):
    """Initial profile transported along characteristics: u0(x - a t)."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    return advection_initial(x - speed * t, nu)


def poisson_fdm_oracle(nu: float, n_grid: int) -> np.ndarray:
    """Finite-difference reference solution of the 2D Poisson benchmark.

    Solves the 5-point discrete Laplacian on an n_grid x n_grid uniform
    grid over the unit square with zero Dirichlet boundary.  That
    Laplacian is diagonal in the type-I sine basis (Hockney, J. ACM 12,
    1965): with m interior points per axis, sine mode k of one axis has
    eigenvalue -4 sin^2(pi k / (2(m+1))), and a 2D mode the sum of its
    two axes' eigenvalues.  So one orthonormal DST-I of the right-hand
    side, a division by those sums and the inverse DST-I solve the
    system exactly, in O(m^2 log m) time and a few m x m arrays.
    Returns the full (n_grid, n_grid) array of values indexed [ix, iy],
    boundary included.
    """
    if n_grid < 3:
        raise ValueError("n_grid must be at least 3")
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    n = n_grid
    h = 1.0 / (n - 1)
    m = n - 2  # interior points per axis
    xs = np.linspace(0.0, 1.0, n)
    xi, yi = np.meshgrid(xs[1:-1], xs[1:-1], indexing="ij")
    rhs = poisson_source(xi, yi, nu) * h * h

    lam = -4.0 * np.sin(np.pi * np.arange(1, m + 1) / (2 * (m + 1))) ** 2
    modes = scipy.fft.dstn(rhs, type=1, norm="ortho")
    modes /= lam[:, None] + lam[None, :]
    interior = scipy.fft.idstn(modes, type=1, norm="ortho")
    if not np.all(np.isfinite(interior)):
        raise ArithmeticError("sine-transform solve produced non-finite values")

    full = np.zeros((n, n))
    full[1:-1, 1:-1] = interior
    return full
