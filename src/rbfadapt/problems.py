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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    """A benchmark problem instance.

    ``boundary_spec`` maps a location label to its Dirichlet value:
    "left"/"right" for the low and high x edge (the 1D problems and the
    advection slab), "all" for the 2D square.  Only the advection problem
    has initial-condition rows.
    """

    kind: ProblemKind
    domain: Box
    nu: float
    advection_speed: float | None = None
    boundary_spec: dict[str, float] = field(default_factory=dict)

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


def convdiff_type1(nu: float) -> PdeProblem:
    return PdeProblem(
        kind=ProblemKind.CONVDIFF1,
        domain=Box((0.0,), (1.0,)),
        nu=nu,
        boundary_spec={"left": 0.0, "right": 1.0},
    )


def convdiff_type2(nu: float) -> PdeProblem:
    return PdeProblem(
        kind=ProblemKind.CONVDIFF2,
        domain=Box((0.0,), (1.0,)),
        nu=nu,
        boundary_spec={"left": 1.0, "right": 1.0},
    )


def poisson2d(nu: float) -> PdeProblem:
    return PdeProblem(
        kind=ProblemKind.POISSON2D,
        domain=Box((0.0, 0.0), (1.0, 1.0)),
        nu=nu,
        boundary_spec={"all": 0.0},
    )


def advection1d(nu: float, speed: float) -> PdeProblem:
    return PdeProblem(
        kind=ProblemKind.ADVECTION1D,
        domain=Box((ADVECTION_X[0], 0.0), (ADVECTION_X[1], 1.0)),
        nu=nu,
        advection_speed=speed,
        boundary_spec={"left": 0.0, "right": 0.0},
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
