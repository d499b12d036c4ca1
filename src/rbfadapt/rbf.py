"""Gaussian radial basis functions in slope-offset form.

Each kernel is a product of 1D Gaussians.  Internally the bump with
center c_d and width sigma_d is stored through the equivalent slope and
offset

    m_d = 1 / (sqrt(2) sigma_d),    b_d = -c_d / (sqrt(2) sigma_d)

so that

    G(x) = exp(-sum_d (m_d x_d + b_d)^2)
         = exp(-sum_d (x_d - c_d)^2 / (2 sigma_d^2)).

Derivatives along a single axis follow from the chain rule with
s = m x + b:

    dG/dx   = -2 m s G
    d2G/dx2 = (4 m^2 s^2 - 2 m^2) G

eval_matrix builds each entry axis by axis in one (points x kernels)
array, without a (points x kernels x dim) tensor.  Per entry the float
operations and their order are

    s_d = x_d * m_d;  s_d = s_d + b_d;  s_d = s_d * s_d
    q = ((s_0 + s_1) + s_2) + ...;  G = exp(-q)

which is exactly what np.exp(-np.sum((x * m + b)**2, axis=-1)) computes
over fewer than 8 axes, where numpy sums a short contiguous axis left to
right.  Every matrix, solve and result file rests on that bit-identity:
reassociating the sum, or forming G as a product of per-axis exponentials,
changes the last bits and with them the search paths.

deriv_matrix builds G once for all its (axis, order) terms and refills
s = x m + b once per derivative axis.  With m and b broadcast per kernel,
each entry of a term is

    order 1:  ((-2 m) s) g
    order 2:  ((((4 m) m) s) s - (2 m) m) g

and assembly.operator_matrix combines the terms of each operator entry
by entry as D1 - nu D2, (v D1 - nu D2) + 4 G, Dxx + Dyy and Dt + a Dx
(products before the sums, the sums left to right).  These are the
orders of the plain expressions -2*m*s*g, (4*m*m*s*s - 2*m*m)*g and
v*D1 - nu*D2 + 4*G, and changing any of them changes the last bits too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class RbfKernel:
    """One Gaussian kernel: center and per-dimension width, both length D."""

    center: np.ndarray
    width: np.ndarray

    def __post_init__(self):
        center = np.atleast_1d(np.asarray(self.center, dtype=float))
        width = np.atleast_1d(np.asarray(self.width, dtype=float))
        if center.ndim != 1 or center.shape != width.shape:
            raise ValueError("center and width must be vectors of equal length")
        if not np.all(np.isfinite(width)) or np.any(width <= 0):
            raise ValueError("kernel widths must be positive and finite")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "width", width)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def slope(self) -> np.ndarray:
        return 1.0 / (_SQRT2 * self.width)

    @property
    def offset(self) -> np.ndarray:
        return -self.center / (_SQRT2 * self.width)


@dataclass(frozen=True)
class RbfBasis:
    """A set of Gaussian kernels stored as arrays for vectorized evaluation.

    centers: (n_kernels, dim)
    widths:  (n_kernels, dim), all entries > 0
    """

    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        widths = np.atleast_2d(np.asarray(self.widths, dtype=float))
        if centers.shape != widths.shape:
            raise ValueError(
                f"centers shape {centers.shape} != widths shape {widths.shape}"
            )
        if centers.shape[0] == 0:
            raise ValueError("basis needs at least one kernel")
        if np.any(widths <= 0) or not np.all(np.isfinite(widths)):
            raise ValueError("kernel widths must be positive and finite")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)

    @classmethod
    def from_kernels(cls, kernels) -> "RbfBasis":
        kernels = list(kernels)
        dims = {k.dim for k in kernels}
        if len(dims) != 1:
            raise ValueError("all kernels in a basis must share one dimension")
        return cls(
            np.stack([k.center for k in kernels]),
            np.stack([k.width for k in kernels]),
        )

    @property
    def n_kernels(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    @property
    def slopes(self) -> np.ndarray:
        return 1.0 / (_SQRT2 * self.widths)

    @property
    def offsets(self) -> np.ndarray:
        return -self.centers / (_SQRT2 * self.widths)

    def kernel(self, i: int) -> RbfKernel:
        return RbfKernel(self.centers[i], self.widths[i])

    def subset(self, idx) -> "RbfBasis":
        return RbfBasis(self.centers[idx], self.widths[idx])


def concat_bases(first: RbfBasis, second: RbfBasis) -> RbfBasis:
    if first.dim != second.dim:
        raise ValueError("cannot concatenate bases of different dimension")
    return RbfBasis(
        np.vstack([first.centers, second.centers]),
        np.vstack([first.widths, second.widths]),
    )


def eval_matrix(basis: RbfBasis, points: np.ndarray) -> np.ndarray:
    """Evaluate all kernels at all points; returns (n_points, n_kernels)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != basis.dim:
        raise ValueError(
            f"points have dim {points.shape[1]}, basis has dim {basis.dim}"
        )
    slopes, offsets = basis.slopes, basis.offsets
    q = np.empty((points.shape[0], basis.n_kernels))
    s = np.empty_like(q) if basis.dim > 1 else q
    for d in range(basis.dim):
        # s[p, k] = (x[p, d] * m[k, d] + b[k, d])^2, summed over d into q
        t = q if d == 0 else s
        np.multiply(points[:, d, None], slopes[:, d], out=t)
        t += offsets[:, d]
        t *= t
        if d > 0:
            q += s
    np.negative(q, out=q)
    return np.exp(q, out=q)


def deriv_matrix(basis: RbfBasis, points: np.ndarray, terms) -> list:
    """Partial derivatives of every kernel at all points, one per term.

    terms: sequence of (axis, order) pairs, order 0, 1 or 2.  The Gaussian
    matrix is built once and shared; order-0 terms return that very array.
    Returns a list of (n_points, n_kernels) arrays in the order of terms.
    """
    terms = list(terms)
    for axis, order in terms:
        if not 0 <= axis < basis.dim:
            raise ValueError(f"axis {axis} out of range for basis of dim {basis.dim}")
        if order not in (0, 1, 2):
            raise ValueError(f"derivative order must be 0, 1 or 2, got {order}")
    g = eval_matrix(basis, points)
    out = [g if order == 0 else None for _, order in terms]
    points = np.atleast_2d(np.asarray(points, dtype=float))
    slopes, offsets = basis.slopes, basis.offsets
    s = None
    # one s = x m + b buffer, refilled for each derivative axis in turn
    for axis in dict.fromkeys(axis for axis, order in terms if order):
        m = slopes[:, axis]
        s = np.multiply(points[:, axis, None], m, out=s)
        s += offsets[:, axis]
        for i, (ax, order) in enumerate(terms):
            if ax != axis or order == 0:
                continue
            if order == 1:
                d = np.multiply(-2.0 * m, s)
            else:
                d = np.multiply(4.0 * m * m, s)
                d *= s
                d -= 2.0 * m * m
            d *= g
            out[i] = d
    return out


def rbf_eval(kernel: RbfKernel, point) -> float:
    point = np.atleast_1d(np.asarray(point, dtype=float))
    if point.shape != kernel.center.shape:
        raise ValueError("point dimension does not match kernel dimension")
    s = kernel.slope * point + kernel.offset
    return float(np.exp(-np.sum(s * s)))


def rbf_deriv(kernel: RbfKernel, point, axis: int, order: int) -> float:
    if not 0 <= axis < kernel.dim:
        raise ValueError(f"axis {axis} out of range for kernel of dim {kernel.dim}")
    if order not in (1, 2):
        raise ValueError(f"derivative order must be 1 or 2, got {order}")
    g = rbf_eval(kernel, point)
    m = kernel.slope[axis]
    s = m * float(np.atleast_1d(point)[axis]) + kernel.offset[axis]
    if order == 1:
        return -2.0 * m * s * g
    return (4.0 * m * m * s * s - 2.0 * m * m) * g
