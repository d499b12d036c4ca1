"""Tests for system assembly and the least-squares solve."""

import tracemalloc

import numpy as np
import pytest

from rbfadapt import rbf
from rbfadapt.assembly import (
    CHUNK_ROWS,
    LinearSystem,
    SolvedModel,
    boundary_targets,
    build_system,
    dedup_rows,
    evaluate_model,
    extend,
    fixed_block,
    kept_columns,
    operator_matrix,
    residual_loss,
    solve_least_squares,
    solve_system,
)
from rbfadapt.blas import fixed_blas_threads
from rbfadapt.problems import (
    ProblemKind,
    advection1d,
    convdiff_type1,
    convdiff_type2,
    poisson2d,
)
from rbfadapt.rbf import RbfBasis, eval_matrix
from rbfadapt.sampling import (
    boundary_points_rect,
    boundary_points_xsides,
    initial_points,
    uniform_grid,
)

from test_rbf import _center_width_deriv as _cw


def _system(h, r):
    return LinearSystem(np.asarray(h, dtype=float), np.asarray(r, dtype=float))


class TestOperatorRows:
    def test_poisson_row_is_sum_of_second_derivs(self):
        basis = RbfBasis([[0.4, 0.6]], [[0.2, 0.3]])
        prob = poisson2d(0.05)
        pt = np.array([[0.5, 0.5]])
        row = operator_matrix(prob, basis, pt)
        c, w = [0.4, 0.6], [0.2, 0.3]
        expected = _cw(c, w, [0.5, 0.5], 0, 2) + _cw(c, w, [0.5, 0.5], 1, 2)
        assert row[0, 0] == pytest.approx(expected, rel=1e-13)

    def test_convdiff1_at_kernel_center(self):
        # first derivative vanishes, second is -1/sigma^2
        sigma = 0.1
        nu = 0.05
        basis = RbfBasis([[0.5]], [[sigma]])
        row = operator_matrix(convdiff_type1(nu), basis, np.array([[0.5]]))
        assert row[0, 0] == pytest.approx(nu / sigma**2, rel=1e-13)

    def test_convdiff2_manual(self):
        sigma, nu, x = 0.2, 0.05, 0.7
        basis = RbfBasis([[0.4]], [[sigma]])
        row = operator_matrix(convdiff_type2(nu), basis, np.array([[x]]))
        expected = (
            2.0 * (2.0 * x - 1.0) * _cw([0.4], [sigma], [x], 0, 1)
            - nu * _cw([0.4], [sigma], [x], 0, 2)
            + 4.0 * _cw([0.4], [sigma], [x], 0, 0)
        )
        assert row[0, 0] == pytest.approx(expected, rel=1e-13)

    def test_advection_combines_time_and_space(self):
        a = 0.5
        basis = RbfBasis([[0.1, 0.3]], [[0.2, 0.2]])
        c, w, pt = [0.1, 0.3], [0.2, 0.2], [0.0, 0.5]
        row = operator_matrix(advection1d(0.05, a), basis, np.array([pt]))
        expected = _cw(c, w, pt, 1, 1) + a * _cw(c, w, pt, 0, 1)
        assert row[0, 0] == pytest.approx(expected, rel=1e-13)

    def test_operator_linearity_over_kernels(self):
        rng = np.random.default_rng(31)
        centers = rng.uniform(0, 1, (4, 1))
        widths = rng.uniform(0.05, 0.3, (4, 1))
        basis = RbfBasis(centers, widths)
        prob = convdiff_type1(0.02)
        pts = rng.uniform(0, 1, (10, 1))
        full = operator_matrix(prob, basis, pts)
        for k in range(4):
            single = operator_matrix(prob, RbfBasis(centers[[k]], widths[[k]]), pts)
            np.testing.assert_allclose(full[:, k], single[:, 0], rtol=1e-13)


def _per_term_deriv(basis, x, axis, order):
    """One derivative term with its own Gaussian build, as plain expressions."""
    g = eval_matrix(basis, x)
    if order == 0:
        return g
    m = basis.slopes[None, :, axis]
    s = x[:, None, axis] * m + basis.offsets[None, :, axis]
    if order == 1:
        return -2.0 * m * s * g
    return (4.0 * m * m * s * s - 2.0 * m * m) * g


def _per_term_operator(problem, basis, x):
    """Each operator composed from separately built terms, the reference
    that operator_matrix must match bit for bit."""
    def d(axis, order):
        return _per_term_deriv(basis, x, axis, order)

    if problem.kind is ProblemKind.CONVDIFF1:
        return d(0, 1) - problem.nu * d(0, 2)
    if problem.kind is ProblemKind.CONVDIFF2:
        vel = 2.0 * (2.0 * x[:, 0] - 1.0)
        return vel[:, None] * d(0, 1) - problem.nu * d(0, 2) + 4.0 * d(0, 0)
    if problem.kind is ProblemKind.POISSON2D:
        return d(0, 2) + d(1, 2)
    return d(1, 1) + problem.advection_speed * d(0, 1)


_OPERATOR_CASES = [
    (convdiff_type1(0.013), 1),
    (convdiff_type1(0.013), 2),
    (convdiff_type2(0.021), 1),
    (convdiff_type2(0.021), 2),
    (poisson2d(0.05), 2),
    (advection1d(0.05, 0.37), 2),
]


class TestOperatorBitIdentity:
    """One Gaussian build per operator, combined in place, changes no bit."""

    @pytest.mark.parametrize("problem,dim", _OPERATOR_CASES)
    def test_matches_per_term_composition(self, problem, dim):
        rng = np.random.default_rng(40 + dim)
        basis = RbfBasis(rng.uniform(-0.2, 1.2, (173, dim)), rng.uniform(0.01, 0.6, (173, dim)))
        x = rng.uniform(0.0, 1.0, (613, dim))
        assert np.array_equal(
            operator_matrix(problem, basis, x), _per_term_operator(problem, basis, x)
        )

    @pytest.mark.parametrize("problem,dim", _OPERATOR_CASES)
    def test_one_gaussian_build_per_operator(self, problem, dim, monkeypatch):
        calls = []
        real = rbf.eval_matrix

        def counting(basis, points):
            calls.append(1)
            return real(basis, points)

        monkeypatch.setattr(rbf, "eval_matrix", counting)
        basis = RbfBasis(np.full((3, dim), 0.5), np.full((3, dim), 0.2))
        operator_matrix(problem, basis, np.full((5, dim), 0.4))
        assert len(calls) == 1

    @pytest.mark.parametrize("problem,dim", _OPERATOR_CASES)
    def test_peak_memory_is_bounded_by_its_output(self, problem, dim):
        # the Gaussian, one s buffer and two term arrays make 4x; building
        # the Gaussian once per term reached 5x
        rng = np.random.default_rng(9)
        basis = RbfBasis(rng.uniform(0, 1, (500, dim)), rng.uniform(0.05, 0.5, (500, dim)))
        x = rng.uniform(0, 1, (2000, dim))
        tracemalloc.start()
        try:
            out = operator_matrix(problem, basis, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * out.nbytes, peak / out.nbytes


def _forward_case(problem, n_grid, boundary, extra, seed, n_adapt=29):
    """A baseline block plus adaptive kernels the way a run draws them,
    with one centre clipped onto a grid point (dedup drops it).  Returns
    the block, the adaptive kernels, and the stacked basis and interior
    (grid then adaptive centres) that the plain build takes."""
    rng = np.random.default_rng(seed)
    dom = problem.domain
    base = RbfBasis(uniform_grid(dom, 36), np.full((36, dom.dim), 0.17))
    grid = uniform_grid(dom, n_grid)
    centres = rng.uniform(dom.lower, dom.upper, (n_adapt, dom.dim))
    centres[3] = grid[5]
    adaptive = RbfBasis(centres, rng.uniform(0.005, 0.1, (n_adapt, dom.dim)))
    basis = RbfBasis(
        np.vstack([base.centers, adaptive.centers]),
        np.vstack([base.widths, adaptive.widths]),
    )
    interior = dedup_rows(np.vstack([grid, centres]))
    assert interior.shape[0] == n_grid + n_adapt - 1
    block = fixed_block(problem, base, grid, boundary, extra)
    return block, adaptive, basis, interior


def _initial_rows(problem, n, shift=0.0):
    pts = initial_points(problem.domain, n)
    return [(pts, np.sin(3.0 * pts[:, 0]) + shift)]


def _values(extra):
    return [vals for _, vals in extra or ()]


def _systems_equal(a, b):
    return np.array_equal(a.matrix, b.matrix) and np.array_equal(a.targets, b.targets)


def _bases_equal(a, b):
    return np.array_equal(a.centers, b.centers) and np.array_equal(a.widths, b.widths)


class TestFixedBlock:
    """extend equals build_system on the stacked basis and points bit for bit."""

    def test_poisson_with_clipped_adaptive_centre(self):
        prob = poisson2d(0.05)
        boundary = boundary_points_rect(prob.domain, 40)
        block, adaptive, basis, interior = _forward_case(prob, 63, boundary, None, 1)
        system, extended = extend(block, adaptive, [])
        assert _systems_equal(system, build_system(prob, basis, interior, boundary))
        assert _bases_equal(extended, basis)

    def test_no_adaptive_kernels(self):
        prob = poisson2d(0.05)
        boundary = boundary_points_rect(prob.domain, 40)
        block, _, _, _ = _forward_case(prob, 63, boundary, None, 2)
        system, basis = extend(block, None, [])
        assert _systems_equal(system, build_system(prob, block.basis, block.interior, boundary))
        # the block's matrix is shared, not copied
        assert system.matrix is block.matrix and basis is block.basis

    def test_initial_rows_take_this_call_values(self):
        prob = advection1d(0.05, 0.5)
        boundary = boundary_points_xsides(prob.domain, 30)
        block, adaptive, basis, interior = _forward_case(prob, 77, boundary, _initial_rows(prob, 41), 3)
        # the march hands new initial values to every block
        extra = _initial_rows(prob, 41, shift=0.25)
        for kernels in (adaptive, None):
            system, extended = extend(block, kernels, _values(extra))
            points = interior if kernels is not None else block.interior
            assert _systems_equal(system, build_system(prob, extended, points, boundary, extra))
            assert np.array_equal(system.targets[-41:], extra[0][1])

    @pytest.mark.parametrize("problem", [convdiff_type1(0.01), convdiff_type2(0.02)])
    def test_sensor_rows(self, problem):
        rng = np.random.default_rng(4)
        boundary = np.array([[0.0], [1.0]])
        sensors = [(rng.uniform(0, 1, (23, 1)), rng.normal(size=23))]
        block, adaptive, basis, interior = _forward_case(problem, 97, boundary, sensors, 5)
        system, _ = extend(block, adaptive, _values(sensors))
        assert _systems_equal(system, build_system(problem, basis, interior, boundary, sensors))
        assert np.array_equal(system.targets[-23:], sensors[0][1])


class TestStaleFixedBlock:
    """A block stays valid for every system of a run: extend takes the
    problem, the leading kernels, the grid, the boundary and the extra
    points from the block, and never writes into it."""

    def _case(self, problem=None):
        prob = problem or advection1d(0.05, 0.5)
        boundary = boundary_points_xsides(prob.domain, 30)
        block, adaptive, basis, interior = _forward_case(prob, 77, boundary, _initial_rows(prob, 41), 6)
        return block, adaptive, basis, interior

    def test_accepts_its_own_inputs(self):
        # the march extends one block a hundred times and solves each system
        block, adaptive, _, _ = self._case()
        before = block.matrix.copy()
        values = _values(_initial_rows(block.problem, 41))
        first = extend(block, adaptive, values)[0]
        for kernels in (adaptive, None):
            system, basis = extend(block, kernels, values)
            solve_system(system, basis)
        assert np.array_equal(block.matrix, before)
        assert _systems_equal(extend(block, adaptive, values)[0], first)

    def test_leading_centre_differs(self):
        # a centre one rounding step off a grid point is a row of its own
        block, adaptive, _, _ = self._case()
        values = _values(_initial_rows(block.problem, 41))
        centres = adaptive.centers.copy()
        centres[3, 0] = np.nextafter(centres[3, 0], 2.0)
        moved = extend(block, RbfBasis(centres, adaptive.widths), values)[0]
        assert moved.n_rows == extend(block, adaptive, values)[0].n_rows + 1

    def test_leading_width_differs(self):
        # a baseline kernel's centre with another width is a column of its own
        block, _, _, _ = self._case()
        extra = _initial_rows(block.problem, 41)
        twin = RbfBasis(block.basis.centers[:1], 1.5 * block.basis.widths[:1])
        system, basis = extend(block, twin, _values(extra))
        assert basis.n_kernels == block.basis.n_kernels + 1
        interior = dedup_rows(np.vstack([block.interior, twin.centers]))
        assert _systems_equal(system, build_system(block.problem, basis, interior, block.boundary, extra))

    def test_basis_shorter_than_block(self):
        # fewer adaptive kernels than baseline ones, down to a single one
        block, adaptive, _, _ = self._case()
        extra = _initial_rows(block.problem, 41)
        one = RbfBasis(adaptive.centers[:1], adaptive.widths[:1])
        system, basis = extend(block, one, _values(extra))
        interior = np.vstack([block.interior, one.centers])
        assert _systems_equal(system, build_system(block.problem, basis, interior, block.boundary, extra))

    def test_leading_interior_row_differs(self):
        # adaptive centres that all sit on the grid add columns but no rows
        block, _, _, _ = self._case()
        extra = _initial_rows(block.problem, 41)
        on_grid = RbfBasis(block.interior[[2, 40, 2]], np.full((3, 2), 0.05))
        system, basis = extend(block, on_grid, _values(extra))
        assert system.n_rows == block.matrix.shape[0]
        assert _systems_equal(system, build_system(block.problem, basis, block.interior, block.boundary, extra))

    def test_boundary_differs(self):
        # new extra values change only the targets of the extra rows
        block, adaptive, _, _ = self._case()
        (_, vals), = _initial_rows(block.problem, 41)
        a = extend(block, adaptive, [vals])[0]
        b = extend(block, adaptive, [vals + 1.0])[0]
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.targets[:-41], b.targets[:-41])
        assert np.array_equal(b.targets[-41:], vals + 1.0)

    def test_extra_points_differ(self):
        block, adaptive, _, _ = self._case()
        (_, vals), = _initial_rows(block.problem, 41)
        for values in ([vals[1:]], [], [vals, vals]):
            for kernels in (adaptive, None):
                with pytest.raises(ValueError, match="extra values"):
                    extend(block, kernels, values)

    def test_problem_differs(self):
        # the operator rows are those of the block's problem
        at_slower = self._case(advection1d(0.05, 0.5))
        at_faster = self._case(advection1d(0.05, 0.6))
        values = _values(_initial_rows(at_slower[0].problem, 41))
        slower = extend(at_slower[0], at_slower[1], values)[0]
        faster = extend(at_faster[0], at_faster[1], values)[0]
        assert slower.matrix.shape == faster.matrix.shape
        assert not np.array_equal(slower.matrix, faster.matrix)


class TestBuildSystem:
    def test_row_layout_and_targets(self):
        prob = convdiff_type1(0.05)
        basis = RbfBasis([[0.3], [0.7]], [[0.2], [0.2]])
        interior = np.array([[0.25], [0.5], [0.75]])
        boundary = np.array([[0.0], [1.0]])
        sys = build_system(prob, basis, interior, boundary)
        assert sys.matrix.shape == (5, 2)
        np.testing.assert_array_equal(sys.targets[:3], 0.0)   # homogeneous PDE
        assert sys.targets[3] == 0.0 and sys.targets[4] == 1.0

    def test_boundary_row_is_plain_evaluation(self):
        prob = convdiff_type1(0.05)
        basis = RbfBasis([[1.0]], [[0.3]])
        sys = build_system(prob, basis, np.array([[0.5]]), np.array([[1.0]]))
        assert sys.matrix[1, 0] == pytest.approx(1.0)  # kernel centered on the boundary

    def test_poisson_interior_targets_are_source(self):
        prob = poisson2d(0.05)
        basis = RbfBasis([[0.5, 0.5]], [[0.2, 0.2]])
        interior = np.array([[0.5, 0.5], [0.25, 0.25]])
        boundary = np.array([[0.0, 0.5]])
        sys = build_system(prob, basis, interior, boundary)
        np.testing.assert_allclose(sys.targets[:2], prob.source(interior), rtol=1e-14)
        assert sys.targets[2] == 0.0

    def test_extra_rows_are_evaluation_rows(self):
        prob = convdiff_type1(0.05)
        basis = RbfBasis([[0.4]], [[0.3]])
        sensors = np.array([[0.4], [0.9]])
        vals = np.array([2.0, 3.0])
        sys = build_system(
            prob, basis, np.array([[0.5]]), np.array([[0.0], [1.0]]),
            extra_rows=[(sensors, vals)],
        )
        assert sys.n_rows == 5
        assert sys.matrix[3, 0] == pytest.approx(1.0)
        np.testing.assert_array_equal(sys.targets[3:], vals)

    def test_advection_boundary_classification(self):
        prob = advection1d(0.05, 0.5)
        basis = RbfBasis([[0.0, 0.5]], [[0.3, 0.3]])
        sys = build_system(
            prob, basis, np.array([[0.0, 0.5]]),
            np.array([[-1.0, 0.2], [1.0, 0.8]]),
        )
        np.testing.assert_array_equal(sys.targets[1:], [0.0, 0.0])

    def test_boundary_targets_match_the_per_point_rule(self):
        # the nearer edge's value; a point midway between them takes the left
        prob = convdiff_type1(0.05)
        x = np.array([0.0, 0.5, np.nextafter(0.5, 1.0), np.nextafter(0.5, 0.0), 1.0, -0.25, 1.25])
        lo, hi = prob.domain.lower[0], prob.domain.upper[0]
        left, right = prob.boundary_spec["left"], prob.boundary_spec["right"]
        loop = [left if abs(v - lo) <= abs(v - hi) else right for v in x]
        targets = boundary_targets(prob, x[:, None])
        assert targets.dtype == np.float64
        np.testing.assert_array_equal(targets, loop)
        assert targets[1] == left

    def test_empty_points_rejected(self):
        prob = convdiff_type1(0.05)
        basis = RbfBasis([[0.5]], [[0.2]])
        with pytest.raises(ValueError):
            build_system(prob, basis, np.empty((0, 1)), np.array([[0.0]]))
        with pytest.raises(ValueError):
            build_system(prob, basis, np.array([[0.5]]), np.empty((0, 1)))


class TestSolve:
    def test_identity(self):
        sys = _system(np.eye(3), [1.0, -2.0, 0.5])
        np.testing.assert_allclose(solve_least_squares(sys), [1.0, -2.0, 0.5])

    def test_overdetermined_mean(self):
        sys = _system([[1.0], [1.0]], [0.0, 2.0])
        np.testing.assert_allclose(solve_least_squares(sys), [1.0])

    def test_underdetermined_min_norm(self):
        sys = _system([[1.0, 1.0]], [2.0])
        np.testing.assert_allclose(solve_least_squares(sys), [1.0, 1.0])

    def test_normal_equation_residual(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            rows = int(rng.integers(20, 201))
            cols = int(rng.integers(5, min(rows, 100) + 1))
            h = rng.standard_normal((rows, cols))
            r = rng.standard_normal(rows)
            c = solve_least_squares(_system(h, r))
            lhs = np.max(np.abs(h.T @ (h @ c - r)))
            assert lhs <= 1e-8 * np.max(np.abs(h.T @ r))

    def test_minimum_norm_among_minimizers(self):
        rng = np.random.default_rng(23)
        # rank-deficient by construction: duplicate columns
        base = rng.standard_normal((30, 4))
        h = np.hstack([base, base[:, :2]])
        r = rng.standard_normal(30)
        c = solve_least_squares(_system(h, r))
        # null-space vectors leave the residual unchanged but grow the norm
        _, s, vt = np.linalg.svd(h)
        null = vt[(s < 1e-10 * s[0]).nonzero()[0][0]:]
        assert null.shape[0] >= 1
        for _ in range(100):
            alt = c + null.T @ rng.standard_normal(null.shape[0])
            res_c = np.linalg.norm(h @ c - r)
            res_alt = np.linalg.norm(h @ alt - r)
            assert res_alt == pytest.approx(res_c, rel=1e-9, abs=1e-12)
            assert np.linalg.norm(c) <= np.linalg.norm(alt) + 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ArithmeticError):
            solve_least_squares(_system([[np.nan]], [1.0]))

    def test_a_failed_lstsq_becomes_an_arithmetic_error(self, monkeypatch):
        # the one place a LinAlgError is caught: every caller handles
        # ArithmeticError alone
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "lstsq", fail)
        with pytest.raises(ArithmeticError) as err:
            solve_least_squares(_system(np.eye(2), [1.0, 2.0]))
        assert str(err.value) == "least-squares solve failed: SVD did not converge"
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)

    def test_solve_system_records_loss(self):
        sys = _system([[1.0], [1.0]], [0.0, 2.0])
        basis = RbfBasis([[0.5]], [[0.2]])
        model = solve_system(sys, basis)
        assert model.loss == pytest.approx(1.0)


class TestResidualLoss:
    def test_exact_solve_is_zero(self):
        rng = np.random.default_rng(3)
        h = rng.standard_normal((5, 5)) + 5 * np.eye(5)
        c = rng.standard_normal(5)
        sys = _system(h, h @ c)
        assert residual_loss(sys, solve_least_squares(sys)) <= 1e-12

    def test_known_residual(self):
        sys = _system([[1.0], [1.0]], [0.0, 2.0])
        assert residual_loss(sys, np.array([1.0])) == pytest.approx(1.0)

    def test_homogeneity(self):
        sys1 = _system([[1.0], [1.0]], [0.5, -1.5])
        sys2 = _system([[1.0], [1.0]], [1.0, -3.0])
        zero = np.zeros(1)
        assert residual_loss(sys2, zero) == pytest.approx(2 * residual_loss(sys1, zero))


class TestEvaluateModel:
    def test_zero_coefficients(self):
        basis = RbfBasis([[0.5]], [[0.2]])
        from rbfadapt.assembly import SolvedModel

        model = SolvedModel(basis, np.zeros(1), 0.0)
        np.testing.assert_array_equal(
            evaluate_model(model, np.array([[0.1], [0.9]])), [0.0, 0.0]
        )

    def test_single_kernel_at_center(self):
        from rbfadapt.assembly import SolvedModel

        basis = RbfBasis([[0.5]], [[0.2]])
        model = SolvedModel(basis, np.array([2.0]), 0.0)
        assert evaluate_model(model, np.array([[0.5]]))[0] == pytest.approx(2.0)

    def test_linearity_with_duplicate_kernels(self):
        from rbfadapt.assembly import SolvedModel

        rng = np.random.default_rng(8)
        double = RbfBasis([[0.3], [0.3]], [[0.15], [0.15]])
        single = RbfBasis([[0.3]], [[0.15]])
        m2 = SolvedModel(double, np.array([1.0, 1.0]), 0.0)
        m1 = SolvedModel(single, np.array([2.0]), 0.0)
        pts = rng.uniform(0, 1, (100, 1))
        np.testing.assert_allclose(
            evaluate_model(m2, pts), evaluate_model(m1, pts), rtol=1e-14
        )


class TestChunkedRows:
    """Products filled in CHUNK_ROWS row chunks equal the whole-matrix ones."""

    def test_chunk_is_a_multiple_of_64_rows(self):
        assert CHUNK_ROWS == 64 and CHUNK_ROWS % 64 == 0

    # one chunk's edge, multiples of it (256, 1,024) and the grading meshes
    @pytest.mark.parametrize(
        "n_points",
        [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 255, 256, 257, 1023, 1024, 1025, 2049, 40401],
    )
    @pytest.mark.parametrize("dim,n_kernels", [(1, 375), (2, 769)])
    def test_evaluate_model_matches_the_whole_product(self, n_points, dim, n_kernels):
        rng = np.random.default_rng(n_points + dim)
        basis = RbfBasis(rng.uniform(0, 1, (n_kernels, dim)), rng.uniform(0.005, 0.3, (n_kernels, dim)))
        model = SolvedModel(basis, 1e3 * rng.standard_normal(n_kernels), 0.0)
        points = rng.uniform(0, 1, (n_points, dim))
        with fixed_blas_threads():
            whole = eval_matrix(basis, points) @ model.coefficients
        assert np.array_equal(evaluate_model(model, points), whole)

    @pytest.mark.parametrize("problem", [poisson2d(0.05), advection1d(0.05, 0.5)])
    def test_build_system_over_several_chunks(self, problem):
        # 1,369 + 29 - 1 interior rows: several chunks in the operator
        # rows, the fixed block's own rows and the adaptive columns alike
        extra = _initial_rows(problem, 41) if problem.kind is ProblemKind.ADVECTION1D else None
        boundary = boundary_points_rect(problem.domain, 80)
        block, adaptive, basis, interior = _forward_case(problem, 37 * 37, boundary, extra, 11)
        assert interior.shape[0] > CHUNK_ROWS
        full = build_system(problem, basis, interior, boundary, extra)
        assert _systems_equal(extend(block, adaptive, _values(extra))[0], full)
        evaluated = np.vstack([boundary, *(pts for pts, _ in extra or ())])
        whole = np.vstack([operator_matrix(problem, basis, interior), eval_matrix(basis, evaluated)])
        assert np.array_equal(full.matrix, whole)

    def test_grading_memory_stays_chunk_sized(self):
        # poisson-2d's grading: 769 kernels on the 201 x 201 mesh, whose
        # whole matrix alone takes 249 MB
        rng = np.random.default_rng(12)
        basis = RbfBasis(rng.uniform(0, 1, (769, 2)), rng.uniform(0.01, 0.2, (769, 2)))
        model = SolvedModel(basis, rng.standard_normal(769), 0.0)
        mesh = uniform_grid(poisson2d(0.05).domain, 201 * 201)
        tracemalloc.start()
        try:
            evaluate_model(model, mesh)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20, peak / 2**20

    def test_build_memory_stays_chunk_sized(self):
        # a 2,160 x 1,600 advection system; beyond the system itself only
        # temporaries of one 64-row chunk may be held, which measured 3.3 MB
        problem = advection1d(0.05, 0.5)
        rng = np.random.default_rng(13)
        basis = RbfBasis(
            rng.uniform(problem.domain.lower, problem.domain.upper, (1600, 2)),
            rng.uniform(0.01, 0.2, (1600, 2)),
        )
        interior = uniform_grid(problem.domain, 1600)
        boundary = boundary_points_xsides(problem.domain, 160)
        extra = _initial_rows(problem, 400)
        tracemalloc.start()
        try:
            system = build_system(problem, basis, interior, boundary, extra)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert system.matrix.shape == (2160, 1600)
        assert peak <= system.matrix.nbytes + 4 * 2**20, peak / 2**20


class TestKeptColumns:
    @staticmethod
    def _dependent():
        # columns 0, 1 and 3 are independent; 2 repeats 0 and 4 is 1 + 3
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40, 3))
        return np.column_stack([a[:, 0], a[:, 1], a[:, 0], a[:, 2], a[:, 1] + a[:, 2]])

    def test_keeps_exactly_an_independent_set_in_ascending_order(self):
        # which of 0 and 2, or of 1, 3 and 4, goes is a tie that rounding
        # settles; the kept set must be independent and as large as the rank
        m = self._dependent()
        keep = kept_columns(m.copy()).tolist()
        assert keep == sorted(keep) and len(keep) == 3
        assert not {0, 2} <= set(keep) and not {1, 3, 4} <= set(keep)
        assert np.linalg.matrix_rank(m[:, keep]) == 3

    def test_full_rank_keeps_every_column(self):
        m = np.random.default_rng(0).standard_normal((30, 7))
        assert kept_columns(m).tolist() == list(range(7))

    def test_a_fortran_matrix_is_factored_in_place(self):
        m = self._dependent()
        fortran = np.asfortranarray(m)
        c_order = np.ascontiguousarray(m)
        assert np.array_equal(kept_columns(fortran), kept_columns(c_order))
        assert not np.array_equal(fortran, m)  # overwritten by the factor
        assert np.array_equal(c_order, m)  # copied first
