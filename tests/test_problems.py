"""Tests for the benchmark problem definitions."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from rbfadapt import cli_io
from rbfadapt.problems import (
    PROBLEMS,
    Box,
    ProblemKind,
    advection1d,
    advection_exact,
    advection_initial,
    convdiff_type1,
    convdiff_type2,
    exact_type1,
    exact_type2,
    poisson2d,
    poisson_fdm_oracle,
    poisson_source,
)


class TestExactType1:
    def test_boundary_values(self):
        assert exact_type1(0.0, 0.1) == pytest.approx(0.0, abs=1e-15)
        assert exact_type1(1.0, 0.1) == pytest.approx(1.0, abs=1e-15)

    def test_midpoint_direct_evaluation(self):
        # oracle: naive form (e^{x/nu}-1)/(e^{1/nu}-1), safe at nu=0.1
        expected = (np.exp(0.5 / 0.1) - 1.0) / (np.exp(1.0 / 0.1) - 1.0)
        assert exact_type1(0.5, 0.1) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.0066929, abs=1e-7)

    def test_no_overflow_for_tiny_nu(self):
        # naive form overflows here; the stable form must not
        vals = exact_type1(np.linspace(0.0, 1.0, 11), 1e-4)
        assert np.all(np.isfinite(vals))
        assert vals[-1] == pytest.approx(1.0)
        assert np.all(vals[:-1] < 1e-10)

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            exact_type1(-0.1, 0.1)
        with pytest.raises(ValueError):
            exact_type1(0.5, -1.0)

    def test_satisfies_pde(self):
        # residual of u_x - nu u_xx with analytic derivatives of the exact form
        rng = np.random.default_rng(7)
        for nu in (0.01, 0.05, 0.5):
            x = rng.uniform(0.0, 1.0, 100)
            em = np.exp(-1.0 / nu)
            # u = (e^{(x-1)/nu} - em) / (1 - em); u_x = e^{(x-1)/nu}/(nu (1-em))
            u_x = np.exp((x - 1.0) / nu) / (nu * (1.0 - em))
            u_xx = u_x / nu
            residual = u_x - nu * u_xx
            assert np.max(np.abs(residual)) < 1e-8


class TestExactType2:
    def test_boundary_values(self):
        assert exact_type2(0.0, 0.01) == pytest.approx(1.0)
        assert exact_type2(1.0, 0.01) == pytest.approx(1.0)

    def test_midpoint(self):
        assert exact_type2(0.5, 0.1) == pytest.approx(np.exp(-5.0), rel=1e-14)
        assert np.exp(-5.0) == pytest.approx(0.0067379, abs=1e-7)

    def test_satisfies_pde(self):
        rng = np.random.default_rng(11)
        for nu in (0.01, 0.1, 1.0):
            x = rng.uniform(0.0, 1.0, 100)
            u = np.exp(-2.0 * x * (1.0 - x) / nu)
            g1 = (4.0 * x - 2.0) / nu          # d/dx of the exponent
            u_x = g1 * u
            u_xx = (4.0 / nu + g1 * g1) * u
            residual = 2.0 * (2.0 * x - 1.0) * u_x - nu * u_xx + 4.0 * u
            assert np.max(np.abs(residual)) < 1e-8

    def test_domain_violation(self):
        with pytest.raises(ValueError):
            exact_type2(1.5, 0.1)


class TestPoissonSource:
    def test_center_peak(self):
        nu = 0.05
        assert poisson_source(0.5, 0.5, nu) == pytest.approx(
            1.0 / (2.0 * np.pi * nu**2), rel=1e-14
        )
        assert poisson_source(0.5, 0.5, 0.05) == pytest.approx(63.6619, abs=1e-4)

    def test_corner_negligible(self):
        val = poisson_source(0.0, 0.0, 0.05)
        expected = 63.66197723675813 * np.exp(-0.5 / (2 * 0.05**2))
        assert val == pytest.approx(expected, rel=1e-12)
        assert val < 1e-40


class TestAdvection:
    def test_initial_peak(self):
        assert advection_initial(-0.3, 0.05) == pytest.approx(1.0)

    def test_initial_one_sigma_equivalent(self):
        # (0.1)^2 / (4 * 0.0025) = 1
        assert advection_initial(-0.2, 0.05) == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_initial_far_tail(self):
        assert advection_initial(1.0, 0.05) == pytest.approx(np.exp(-169.0))

    def test_exact_reduces_to_initial(self):
        assert advection_exact(-0.3, 0.0, 0.5, 0.05) == pytest.approx(1.0)

    def test_exact_transports_peak(self):
        assert advection_exact(0.2, 1.0, 0.5, 0.05) == pytest.approx(1.0)

    def test_exact_value_at_origin_location(self):
        # x - a t = -0.8, exponent (0.5)^2/(4*0.0025) = 25
        assert advection_exact(-0.3, 1.0, 0.5, 0.05) == pytest.approx(np.exp(-25.0))

    def test_constant_along_characteristics(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 0.5, 50)
        t = rng.uniform(0.0, 0.5, 50)
        delta = rng.uniform(0.0, 0.5, 50)
        a = 0.5
        u0 = advection_exact(x, t, a, 0.05)
        u1 = advection_exact(x + a * delta, t + delta, a, 0.05)
        np.testing.assert_allclose(u0, u1, rtol=1e-13)


class TestFdmOracle:
    def test_zero_source_limit(self):
        # with a huge nu the source is essentially flat and tiny near machine scale
        # compared to the sharp case; instead check the homogeneous operator
        # directly: a zero right-hand side gives the zero grid. Emulate by
        # solving and verifying the discrete residual reproduces the source.
        nu = 0.05
        n = 41
        u = poisson_fdm_oracle(nu, n)
        h = 1.0 / (n - 1)
        xs = np.linspace(0.0, 1.0, n)
        xi, yi = np.meshgrid(xs[1:-1], xs[1:-1], indexing="ij")
        src = poisson_source(xi, yi, nu)
        lap = (
            u[2:, 1:-1] + u[:-2, 1:-1] + u[1:-1, 2:] + u[1:-1, :-2]
            - 4.0 * u[1:-1, 1:-1]
        ) / h**2
        np.testing.assert_allclose(lap, src, rtol=1e-9, atol=1e-9 * np.max(np.abs(src)))

    def test_boundary_zero(self):
        u = poisson_fdm_oracle(0.05, 31)
        assert np.all(u[0, :] == 0) and np.all(u[-1, :] == 0)
        assert np.all(u[:, 0] == 0) and np.all(u[:, -1] == 0)

    def test_symmetry(self):
        u = poisson_fdm_oracle(0.05, 41)
        np.testing.assert_allclose(u, u.T, atol=1e-12)          # u(x,y) = u(y,x)
        np.testing.assert_allclose(u, u[::-1, :], atol=1e-12)   # u(1-x,y) = u(x,y)

    def test_grid_convergence_second_order(self):
        # two resolutions agree to O(h^2) at shared points
        nu = 0.1
        coarse = poisson_fdm_oracle(nu, 51)
        fine = poisson_fdm_oracle(nu, 101)
        diff = np.max(np.abs(fine[::2, ::2] - coarse))
        scale = np.max(np.abs(fine))
        assert diff < 0.02 * scale

    def test_minimum_at_center(self):
        u = poisson_fdm_oracle(0.05, 81)
        # positive source and zero boundary make the solution dip at the center
        assert u[40, 40] == np.min(u)
        assert u[40, 40] < 0

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            poisson_fdm_oracle(0.05, 2)

    @pytest.mark.parametrize("n", [31, 64, 201])
    def test_matches_a_sparse_direct_solve(self, n):
        # the same 5-point system, assembled and solved by sparse LU
        nu = 0.05
        h = 1.0 / (n - 1)
        m = n - 2
        xs = np.linspace(0.0, 1.0, n)
        xi, yi = np.meshgrid(xs[1:-1], xs[1:-1], indexing="ij")
        t = scipy.sparse.diags([np.ones(m - 1), -2.0 * np.ones(m), np.ones(m - 1)], [-1, 0, 1])
        eye = scipy.sparse.identity(m)
        lap = (scipy.sparse.kron(t, eye) + scipy.sparse.kron(eye, t)).tocsc()
        interior = scipy.sparse.linalg.spsolve(lap, poisson_source(xi, yi, nu).ravel() * h * h)
        u = poisson_fdm_oracle(nu, n)
        assert u.shape == (n, n)
        scale = np.max(np.abs(u))
        assert np.max(np.abs(u[1:-1, 1:-1] - interior.reshape(m, m))) <= 1e-12 * scale

    def test_memory_stays_a_few_grids(self):
        # the 201 x 201 oracle of poisson-2d's grading needs a few
        # 199 x 199 arrays; the sparse LU solve it replaced traced 8 MB
        tracemalloc.start()
        try:
            poisson_fdm_oracle(0.05, 201)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak / 2**20


class TestProblemTypes:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_each_type_name_builds_its_kind(self, name):
        problem = PROBLEMS[name](nu=0.05, **({"speed": 0.5} if name == "advection" else {}))
        assert problem.kind.value == name

    def test_the_cli_accepts_exactly_the_table(self):
        assert cli_io.PROBLEM_TYPES == tuple(PROBLEMS)

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box((0.0,), (0.0,))
        with pytest.raises(ValueError):
            Box((0.0, 0.0), (1.0,))

    def test_box_contains(self):
        box = Box((0.0, 0.0), (1.0, 2.0))
        mask = box.contains(np.array([[0.5, 1.0], [1.5, 1.0], [1.0, 2.0]]))
        assert mask.tolist() == [True, False, True]

    def test_problem_invariants(self):
        with pytest.raises(ValueError):
            convdiff_type1(-0.1)
        p = convdiff_type1(0.05)
        assert p.kind is ProblemKind.CONVDIFF1
        assert p.boundary_spec == {"left": 0.0, "right": 1.0}
        p2 = convdiff_type2(0.05)
        assert p2.boundary_spec == {"left": 1.0, "right": 1.0}

    def test_advection_needs_speed(self):
        adv = advection1d(0.05, 0.5)
        assert adv.boundary_spec == {"left": 0.0, "right": 0.0}
        assert adv.dim == 2

    def test_exact_dispatch(self):
        p = convdiff_type1(0.1)
        pts = np.array([[0.5]])
        assert p.exact(pts)[0] == pytest.approx(exact_type1(0.5, 0.1))
        assert poisson2d(0.05).exact(np.array([[0.5, 0.5]])) is None

    def test_source_dispatch(self):
        p = poisson2d(0.05)
        val = p.source(np.array([[0.5, 0.5]]))[0]
        assert val == pytest.approx(1.0 / (2 * np.pi * 0.0025))
        assert convdiff_type1(0.1).source(np.array([[0.5]]))[0] == 0.0
