"""Design-matrix assembly and least-squares solution.

Collocation rows apply the problem's differential operator to every
kernel; boundary, initial and sensor rows are plain kernel evaluations
with prescribed targets.  Coefficients come from the Moore-Penrose
pseudoinverse and the fit quality is the max-norm residual over all
rows.

Every searched system is a run's fixed baseline block [B] extended by
adaptive kernels to [B | A]: fixed_block builds the baseline kernels'
rows at the uniform collocation grid, boundary and extra points once,
and extend appends the adaptive columns.  Collocation points reuse the
baseline grid plus every adaptive center verbatim, so extend also adds
the baseline columns' rows at the new centers.  kept_columns picks a
matrix's numerically independent columns by pivoted QR, so that a run
whose systems share their columns can solve on those alone.

Every points x kernels product is filled in row chunks of CHUNK_ROWS, so
no whole (points x kernels) matrix is built besides the system itself;
grading a model on a fine mesh needs only chunk-sized temporaries.
CHUNK_ROWS is 64, the smallest multiple of 64, which evaluate_model's
bits need (below).  Each chunk's Gaussian factors and derivative terms
are a few temporaries of 64 x kernels doubles, 0.8 MB at 1,600 kernels,
so a build or a grading pass adds only a small, fixed amount to the
memory of the array it fills.  At 256 rows they took 12.7 MB in all and
set the peak of a transport-speed search while its 3,561 x 1,600
column-choice stack (drivers._kept_baseline) was filled.  In
interleaved timings on a shared 2-core machine, 64 rows against 256
built a 1,961 x 1,124 transport-speed block and graded on a 201 x 201
Poisson mesh 3 to 15% faster, and a narrow 627 x 375 extend up to 0.7
ms slower, 0.07 s in a 100-evaluation search.  The chunks keep every
result bit for bit:

* entry-wise builds (eval_matrix, deriv_matrix, operator_matrix) compute
  each entry from its own row alone, so any chunk size gives the same
  bits;
* the mat-vec in evaluate_model keeps its bits for some chunk sizes
  only: BLAS dgemv kernels handle rows in groups, and a chunk edge that
  cuts a group rounds the rows around it another way.  Under OpenBLAS
  on one thread, chunks of a multiple of 64 rows matched the whole
  product at every shape tried (10,201 x 1,600, 40,401 x 769 and
  2,001 x 337), while chunks of 1, 4, 8, 16, 100 or 333 rows differed
  on at least one of them, so CHUNK_ROWS must stay a multiple of 64.
  A one-row chunk rounds another way too (see row_chunks).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .blas import fixed_blas_threads
from .problems import PdeProblem, ProblemKind
from .rbf import RbfBasis, deriv_matrix, eval_matrix

# rows per chunk of a points x kernels product; a multiple of 64 (see above)
CHUNK_ROWS = 64
# relative cutoff of the singular values kept by the least-squares solve,
# and of the pivoted-QR diagonal kept by kept_columns
RCOND = 1e-12


@dataclass(frozen=True)
class LinearSystem:
    matrix: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        if self.matrix.shape[0] != self.targets.shape[0]:
            raise ValueError("row count of matrix and targets disagree")

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_coeffs(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class SolvedModel:
    basis: RbfBasis
    coefficients: np.ndarray
    loss: float
    # adaptive-component id per kernel (0 = fixed baseline grid), attached
    # by callers that know the basis provenance; None when untracked
    tags: np.ndarray | None = None


def operator_matrix(problem: PdeProblem, basis: RbfBasis, points: np.ndarray) -> np.ndarray:
    """Apply the problem's differential operator to every kernel at the points.

    All terms come from one deriv_matrix call and are combined in place,
    entry by entry in the order stated in rbf's module docstring.
    """
    kind = problem.kind
    if kind is ProblemKind.CONVDIFF1:
        d1, d2 = deriv_matrix(basis, points, [(0, 1), (0, 2)])
        d2 *= problem.nu
        d1 -= d2
        return d1
    if kind is ProblemKind.CONVDIFF2:
        pts = np.atleast_2d(points)
        vel = 2.0 * (2.0 * pts[:, 0] - 1.0)
        d1, d2, g = deriv_matrix(basis, pts, [(0, 1), (0, 2), (0, 0)])
        d1 *= vel[:, None]
        d2 *= problem.nu
        d1 -= d2
        g *= 4.0
        d1 += g
        return d1
    if kind is ProblemKind.POISSON2D:
        dxx, dyy = deriv_matrix(basis, points, [(0, 2), (1, 2)])
        dxx += dyy
        return dxx
    if kind is ProblemKind.ADVECTION1D:
        # axes are (x, t); transport term along axis 0, time along axis 1
        dt, dx = deriv_matrix(basis, points, [(1, 1), (0, 1)])
        dx *= problem.advection_speed
        dt += dx
        return dt
    raise ValueError(f"no operator for problem kind {kind}")


@dataclass(frozen=True)
class FixedBlock:
    """Rows of a run's baseline kernels that every system of the run shares.

    matrix is build_system's matrix for basis at interior, boundary and
    extra_points, in that row order.  extend adds adaptive kernels to it;
    only the points of the extra rows are kept, so their values may
    change from one system to the next.
    """

    problem: PdeProblem
    basis: RbfBasis
    interior: np.ndarray
    boundary: np.ndarray
    extra_points: tuple
    matrix: np.ndarray


def _as_points(pts) -> np.ndarray:
    return np.atleast_2d(np.asarray(pts, dtype=float))


def row_chunks(n: int, size: int):
    """Slices of size rows (or columns) that cover range(n) in order.

    The last slice holds the rest; a rest of one joins the slice before
    it, because a lone row or column rounds another way: numpy takes a
    one-row product by a dot product instead of dgemv, and sums down a
    lone column pairwise but down a wider array's columns one row after
    another.
    """
    starts = list(range(0, n, size))
    if n > 1 and n % size == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def fill_rows(out: np.ndarray, rows_at, points: np.ndarray) -> None:
    """out[i] = rows_at(points)[i] for every row, one chunk at a time."""
    for rows in row_chunks(points.shape[0], CHUNK_ROWS):
        out[rows] = rows_at(points[rows])


def dedup_rows(pts: np.ndarray) -> np.ndarray:
    """The rows of pts with exact duplicates dropped, first occurrences kept
    in order.  Rows are compared by their bytes, so -0.0 and 0.0 differ."""
    rows = np.ascontiguousarray(pts)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel().tolist()
    # a dict keeps the last index given for a key: fed backwards, the first
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    return pts[sorted(first.values())]


def build_system(
    problem: PdeProblem,
    basis: RbfBasis,
    interior_pts: np.ndarray,
    boundary_pts: np.ndarray,
    extra_rows=None,
) -> LinearSystem:
    """Stack operator rows, boundary rows and any extra evaluation rows.

    extra_rows: iterable of (points, values) pairs, used for
    initial-condition rows and sensor-data rows; they stack after the
    boundary rows in the order given, so the last pair's rows are the
    system's last rows.
    """
    if basis.n_kernels < 1:
        raise ValueError("basis must contain at least one kernel")
    interior_pts = _as_points(interior_pts)
    boundary_pts = _as_points(boundary_pts)
    if interior_pts.shape[0] == 0:
        raise ValueError("interior points required")
    if boundary_pts.shape[0] == 0:
        raise ValueError("boundary points required")
    extra_rows = [(_as_points(pts), np.asarray(vals, dtype=float)) for pts, vals in extra_rows or ()]
    if any(pts.shape[0] != vals.shape[0] for pts, vals in extra_rows):
        raise ValueError("extra row points/values length mismatch")

    # rows: interior (operator), then boundary and extra (plain evaluation)
    evaluated = np.vstack([boundary_pts, *(pts for pts, _ in extra_rows)])
    n_int = interior_pts.shape[0]
    matrix = np.empty((n_int + evaluated.shape[0], basis.n_kernels))
    fill_rows(matrix[:n_int], lambda pts: operator_matrix(problem, basis, pts), interior_pts)
    fill_rows(matrix[n_int:], lambda pts: eval_matrix(basis, pts), evaluated)
    return LinearSystem(matrix, _targets(problem, interior_pts, boundary_pts, [v for _, v in extra_rows]))


def _targets(problem: PdeProblem, interior: np.ndarray, boundary: np.ndarray, extra_values) -> np.ndarray:
    return np.concatenate([problem.source(interior), problem.boundary_values(boundary), *extra_values])


def fixed_block(
    problem: PdeProblem,
    basis: RbfBasis,
    interior_pts: np.ndarray,
    boundary_pts: np.ndarray,
    extra_rows=None,
) -> FixedBlock:
    """Build the baseline rows once; extra_rows are (points, values) pairs."""
    extra_rows = list(extra_rows or ())
    system = build_system(problem, basis, interior_pts, boundary_pts, extra_rows)
    return FixedBlock(
        problem,
        basis,
        _as_points(interior_pts),
        _as_points(boundary_pts),
        tuple(_as_points(pts) for pts, _ in extra_rows),
        system.matrix,
    )


def extend(block: FixedBlock, adaptive: RbfBasis | None, extra_values) -> tuple:
    """The system of the block's kernels plus the adaptive ones (None when
    none were drawn); returns (LinearSystem, RbfBasis).

    The interior is the block's followed by the adaptive centers, exact
    duplicates kept once (first occurrence first).  The result equals
    build_system on the stacked basis and points bit for bit; without
    adaptive kernels it shares the block's matrix.  extra_values holds
    one value array per extra point set of the block.
    """
    extra_values = [np.asarray(vals, dtype=float) for vals in extra_values]
    if [v.shape[0] for v in extra_values] != [pts.shape[0] for pts in block.extra_points]:
        raise ValueError("extra values do not match the block's extra points")
    problem, base = block.problem, block.basis
    if adaptive is None:
        return LinearSystem(block.matrix, _targets(problem, block.interior, block.boundary, extra_values)), base

    interior = dedup_rows(np.vstack([block.interior, adaptive.centers]))
    evaluated = np.vstack([block.boundary, *block.extra_points])
    n_base, n_grid, n_int = base.n_kernels, block.interior.shape[0], interior.shape[0]
    matrix = np.empty((n_int + evaluated.shape[0], n_base + adaptive.n_kernels))
    matrix[:n_grid, :n_base] = block.matrix[:n_grid]
    matrix[n_int:, :n_base] = block.matrix[n_grid:]
    fill_rows(matrix[n_grid:n_int, :n_base], lambda pts: operator_matrix(problem, base, pts), interior[n_grid:])
    fill_rows(matrix[:n_int, n_base:], lambda pts: operator_matrix(problem, adaptive, pts), interior)
    fill_rows(matrix[n_int:, n_base:], lambda pts: eval_matrix(adaptive, pts), evaluated)
    basis = RbfBasis(np.vstack([base.centers, adaptive.centers]), np.vstack([base.widths, adaptive.widths]))
    return LinearSystem(matrix, _targets(problem, interior, block.boundary, extra_values)), basis


def kept_columns(matrix: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the columns a pivoted QR (LAPACK dgeqp3,
    under fixed_blas_threads) finds numerically independent: those whose
    |R_ii| exceeds RCOND * |R_00|.  A Fortran-ordered float64 matrix is
    factored in place, so it is overwritten; any other is copied first.
    """
    a = np.asfortranarray(matrix, dtype=float)
    with fixed_blas_threads():
        # dgeqp3's optimal workspace: with scipy's default minimum it runs
        # unblocked, 2.9 s against 1.5 s at 3,561 x 1,600 on one thread
        lwork = int(lapack.dgeqp3(a, lwork=-1, overwrite_a=1)[3][0])
        r, jpvt, _, _, info = lapack.dgeqp3(a, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise ArithmeticError(f"pivoted QR failed (info={info})")
    diag = np.abs(np.diag(r))
    return np.sort(jpvt[diag > RCOND * diag[0]] - 1)


@fixed_blas_threads()
def solve_least_squares(system: LinearSystem) -> np.ndarray:
    """Minimum-norm least-squares coefficients via SVD pseudoinverse."""
    if system.n_rows == 0 or system.n_coeffs == 0:
        raise ValueError("cannot solve an empty system")
    if not (np.all(np.isfinite(system.matrix)) and np.all(np.isfinite(system.targets))):
        raise ArithmeticError("non-finite entries in linear system")
    try:
        coeffs, _, _, _ = np.linalg.lstsq(system.matrix, system.targets, rcond=RCOND)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"least-squares solve failed: {exc}") from exc
    if not np.all(np.isfinite(coeffs)):
        raise ArithmeticError("least-squares solve produced non-finite coefficients")
    return coeffs


@fixed_blas_threads()
def residual_loss(system: LinearSystem, coeffs: np.ndarray) -> float:
    return float(np.max(np.abs(system.matrix @ coeffs - system.targets)))


def solve_system(system: LinearSystem, basis: RbfBasis) -> SolvedModel:
    coeffs = solve_least_squares(system)
    return SolvedModel(basis, coeffs, residual_loss(system, coeffs))


@fixed_blas_threads()
def evaluate_model(model: SolvedModel, points: np.ndarray) -> np.ndarray:
    """The model's values at the points, one CHUNK_ROWS block of the
    points x kernels matrix at a time."""
    points = _as_points(points)
    out = np.empty(points.shape[0])
    for rows in row_chunks(points.shape[0], CHUNK_ROWS):
        np.matmul(eval_matrix(model.basis, points[rows]), model.coefficients, out=out[rows])
    return out
