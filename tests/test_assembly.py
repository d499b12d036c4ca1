"""Tests for system assembly and the least-squares solve."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rbfadapt import rbf
from rbfadapt.assembly import (
    CHUNK_ROWS,
    LinearSystem,
    RowKind,
    SolvedModel,
    build_system,
    evaluate_model,
    fixed_block,
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
    dedup_rows,
    initial_points,
    uniform_grid,
)

from test_rbf import _center_width_deriv as _cw


def _system(h, r, kinds=None):
    h = np.asarray(h, dtype=float)
    r = np.asarray(r, dtype=float)
    if kinds is None:
        kinds = np.zeros(h.shape[0], dtype=int)
    return LinearSystem(h, r, kinds)


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
    """A baseline block plus adaptive kernels the way a run draws them:
    baseline kernels first, interior = grid then adaptive centres, with
    one centre clipped onto a grid point (dedup drops it)."""
    rng = np.random.default_rng(seed)
    dom = problem.domain
    base = RbfBasis(uniform_grid(dom, 36), np.full((36, dom.dim), 0.17))
    grid = uniform_grid(dom, n_grid)
    centres = rng.uniform(dom.lower, dom.upper, (n_adapt, dom.dim))
    centres[3] = grid[5]
    basis = RbfBasis(
        np.vstack([base.centers, centres]),
        np.vstack([base.widths, rng.uniform(0.005, 0.1, (n_adapt, dom.dim))]),
    )
    interior = dedup_rows(np.vstack([grid, centres]))
    assert interior.shape[0] == n_grid + n_adapt - 1
    block = fixed_block(problem, base, grid, boundary, extra)
    return base, grid, basis, interior, block


def _initial_rows(problem, n, shift=0.0):
    pts = initial_points(problem.domain, n)
    return [(pts, np.sin(3.0 * pts[:, 0]) + shift, RowKind.INITIAL)]


def _systems_equal(a, b):
    return (
        np.array_equal(a.matrix, b.matrix)
        and np.array_equal(a.targets, b.targets)
        and np.array_equal(a.row_kinds, b.row_kinds)
    )


class TestFixedBlock:
    """build_system with a fixed block equals the full build bit for bit."""

    def test_poisson_with_clipped_adaptive_centre(self):
        prob = poisson2d(0.05)
        boundary = boundary_points_rect(prob.domain, 40)
        base, grid, basis, interior, block = _forward_case(prob, 63, boundary, None, 1)
        full = build_system(prob, basis, interior, boundary)
        reused = build_system(prob, basis, interior, boundary, fixed=block)
        assert _systems_equal(reused, full)

    def test_no_adaptive_kernels(self):
        prob = poisson2d(0.05)
        boundary = boundary_points_rect(prob.domain, 40)
        base, grid, _, _, block = _forward_case(prob, 63, boundary, None, 2)
        full = build_system(prob, base, grid, boundary)
        reused = build_system(prob, base, grid, boundary, fixed=block)
        assert _systems_equal(reused, full)
        assert reused.matrix is not block.matrix

    def test_initial_rows_take_this_call_values(self):
        prob = advection1d(0.05, 0.5)
        boundary = boundary_points_xsides(prob.domain, 30)
        base, grid, basis, interior, block = _forward_case(
            prob, 77, boundary, _initial_rows(prob, 41), 3
        )
        # the march hands new initial values to every block
        extra = _initial_rows(prob, 41, shift=0.25)
        full = build_system(prob, basis, interior, boundary, extra)
        reused = build_system(prob, basis, interior, boundary, extra, fixed=block)
        assert _systems_equal(reused, full)
        assert np.array_equal(reused.targets[-41:], extra[0][1])

    @pytest.mark.parametrize("problem", [convdiff_type1(0.01), convdiff_type2(0.02)])
    def test_sensor_rows(self, problem):
        rng = np.random.default_rng(4)
        boundary = np.array([[0.0], [1.0]])
        sensors = [(rng.uniform(0, 1, (23, 1)), rng.normal(size=23), RowKind.SENSOR)]
        base, grid, basis, interior, block = _forward_case(problem, 97, boundary, sensors, 5)
        full = build_system(problem, basis, interior, boundary, sensors)
        reused = build_system(problem, basis, interior, boundary, sensors, fixed=block)
        assert _systems_equal(reused, full)
        assert list(reused.row_kinds[-23:]) == [RowKind.SENSOR] * 23


class TestStaleFixedBlock:
    """A block built from other kernels, rows or problem is refused."""

    def _case(self):
        prob = advection1d(0.05, 0.5)
        boundary = boundary_points_xsides(prob.domain, 30)
        extra = _initial_rows(prob, 41)
        base, grid, basis, interior, block = _forward_case(prob, 77, boundary, extra, 6)
        return prob, basis, interior, boundary, extra, block

    def _refused(self, prob, basis, interior, boundary, extra, block, match):
        with pytest.raises(ValueError, match=match):
            build_system(prob, basis, interior, boundary, extra, fixed=block)

    def test_accepts_its_own_inputs(self):
        prob, basis, interior, boundary, extra, block = self._case()
        build_system(prob, basis, interior, boundary, extra, fixed=block)

    def test_leading_centre_differs(self):
        prob, basis, interior, boundary, extra, block = self._case()
        centers = basis.centers.copy()
        centers[7, 0] += 1e-12
        moved = RbfBasis(centers, basis.widths)
        self._refused(prob, moved, interior, boundary, extra, block, "kernels")

    def test_leading_width_differs(self):
        prob, basis, interior, boundary, extra, block = self._case()
        widths = basis.widths.copy()
        widths[0, 1] *= 1.5
        self._refused(
            prob, RbfBasis(basis.centers, widths), interior, boundary, extra, block, "kernels"
        )

    def test_basis_shorter_than_block(self):
        prob, basis, interior, boundary, extra, block = self._case()
        short = RbfBasis(basis.centers[:10], basis.widths[:10])
        self._refused(prob, short, interior, boundary, extra, block, "kernels")

    def test_leading_interior_row_differs(self):
        prob, basis, interior, boundary, extra, block = self._case()
        moved = interior.copy()
        moved[12, 1] = 0.5
        self._refused(prob, basis, moved, boundary, extra, block, "interior")
        self._refused(prob, basis, interior[:50], boundary, extra, block, "interior")

    def test_boundary_differs(self):
        prob, basis, interior, boundary, extra, block = self._case()
        self._refused(prob, basis, interior, boundary[::-1], extra, block, "boundary")
        self._refused(prob, basis, interior, boundary[1:], extra, block, "boundary")

    def test_extra_points_differ(self):
        prob, basis, interior, boundary, extra, block = self._case()
        (pts, vals, kind), = extra
        self._refused(
            prob, basis, interior, boundary, [(pts + 1e-9, vals, kind)], block, "extra"
        )
        self._refused(prob, basis, interior, boundary, [], block, "extra")
        self._refused(prob, basis, interior, boundary, extra * 2, block, "extra")

    def test_problem_differs(self):
        prob, basis, interior, boundary, extra, block = self._case()
        faster = replace(prob, advection_speed=0.6)
        self._refused(faster, basis, interior, boundary, extra, block, "problem")


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
        assert list(sys.row_kinds) == [0, 0, 0, 1, 1]

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
            extra_rows=[(sensors, vals, RowKind.SENSOR)],
        )
        assert sys.n_rows == 5
        assert sys.matrix[3, 0] == pytest.approx(1.0)
        np.testing.assert_array_equal(sys.targets[3:], vals)
        assert list(sys.row_kinds[3:]) == [RowKind.SENSOR, RowKind.SENSOR]

    def test_advection_boundary_classification(self):
        prob = advection1d(0.05, 0.5)
        basis = RbfBasis([[0.0, 0.5]], [[0.3, 0.3]])
        sys = build_system(
            prob, basis, np.array([[0.0, 0.5]]),
            np.array([[-1.0, 0.2], [1.0, 0.8]]),
        )
        np.testing.assert_array_equal(sys.targets[1:], [0.0, 0.0])

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
        assert CHUNK_ROWS == 1024 and CHUNK_ROWS % 64 == 0

    @pytest.mark.parametrize("n_points", [1, 1023, 1024, 1025, 2049, 40401])
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
        # 1,369 + 29 - 1 interior rows: two chunks in the operator rows,
        # the fixed block's own rows and the adaptive columns alike
        extra = _initial_rows(problem, 41) if problem.has_initial_condition else None
        boundary = boundary_points_rect(problem.domain, 80)
        base, grid, basis, interior, block = _forward_case(problem, 37 * 37, boundary, extra, 11)
        assert interior.shape[0] > CHUNK_ROWS
        full = build_system(problem, basis, interior, boundary, extra)
        assert _systems_equal(build_system(problem, basis, interior, boundary, extra, fixed=block), full)
        evaluated = np.vstack([boundary, *(pts for pts, _, _ in extra or ())])
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
