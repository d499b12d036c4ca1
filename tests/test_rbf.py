"""Tests for Gaussian kernel evaluation and analytic derivatives."""

import tracemalloc

import numpy as np
import pytest

from rbfadapt.rbf import RbfBasis, deriv_matrix, eval_matrix


def _value(center, width, point):
    """One kernel's value at one point, through eval_matrix."""
    return eval_matrix(RbfBasis([center], [width]), np.array([point], dtype=float))[0, 0]


def _deriv(center, width, point, axis, order):
    """One kernel's partial derivative at one point, through deriv_matrix."""
    pts = np.array([point], dtype=float)
    return deriv_matrix(RbfBasis([center], [width]), pts, [(axis, order)])[0][0, 0]


def _gauss_highprec(center, width, point):
    """Reference evaluation in extended precision for finite differencing."""
    c = np.asarray(center, dtype=np.longdouble)
    w = np.asarray(width, dtype=np.longdouble)
    x = np.asarray(point, dtype=np.longdouble)
    s = (x - c) / (np.longdouble(np.sqrt(2)) * w)
    return np.exp(-np.sum(s * s))


def _random_cases(rng, count):
    for _ in range(count):
        dim = int(rng.integers(1, 3))
        width = rng.uniform(0.05, 2.0, dim)
        center = rng.uniform(-1.0, 1.0, dim)
        point = center + rng.uniform(-3.0, 3.0, dim) * width
        yield center, width, point, dim


class TestScalarEval:
    """Single-kernel properties of eval_matrix on a one-kernel basis."""

    def test_value_at_center_is_one(self):
        assert _value([0.3, -0.7], [0.2, 0.5], [0.3, -0.7]) == 1.0

    def test_unit_slope_1d(self):
        # sigma = 1/sqrt(2) gives slope 1, offset 0
        assert _value([0.0], [1.0 / np.sqrt(2.0)], [1.0]) == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_unit_slope_2d(self):
        s = 1.0 / np.sqrt(2.0)
        assert _value([0.0, 0.0], [s, s], [1.0, 1.0]) == pytest.approx(np.exp(-2.0), rel=1e-14)

    def test_parameterization_equivalence(self):
        # slope-offset evaluation matches the direct center-width form
        rng = np.random.default_rng(21)
        for center, width, point, _ in _random_cases(rng, 1000):
            direct = np.exp(-np.sum((point - center) ** 2 / (2.0 * width**2)))
            assert _value(center, width, point) == pytest.approx(direct, abs=1e-14)

    def test_range_and_uniqueness_of_peak(self):
        rng = np.random.default_rng(5)
        for center, width, point, _ in _random_cases(rng, 200):
            val = _value(center, width, point)
            assert 0.0 < val <= 1.0
            if not np.allclose(point, center):
                assert val < 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_matrix(RbfBasis([[0.0, 0.0]], [[1.0, 1.0]]), np.array([[0.0]]))

    def test_bad_width(self):
        with pytest.raises(ValueError):
            RbfBasis([[0.0]], [[0.0]])
        with pytest.raises(ValueError):
            RbfBasis([[0.0]], [[np.inf]])

    def test_slope_offset_cancel_at_center(self):
        basis = RbfBasis([[0.4, -1.2]], [[0.3, 0.8]])
        np.testing.assert_allclose(
            basis.slopes * basis.centers + basis.offsets, 0.0, atol=1e-15
        )


class TestScalarDeriv:
    """Single-kernel properties of deriv_matrix on a one-kernel basis."""

    def test_first_deriv_zero_at_center(self):
        assert _deriv([0.2], [0.1], [0.2], 0, 1) == 0.0

    def test_second_deriv_at_center(self):
        sigma = 0.25
        assert _deriv([0.2], [sigma], [0.2], 0, 2) == pytest.approx(
            -1.0 / sigma**2, rel=1e-13
        )

    def test_matches_finite_difference(self):
        rng = np.random.default_rng(99)
        h = np.longdouble(1e-5)
        checked = 0
        for center, width, point, dim in _random_cases(rng, 1000):
            axis = int(rng.integers(0, dim))
            order = int(rng.integers(1, 3))
            step = np.zeros(dim, dtype=np.longdouble)
            step[axis] = h
            fp = _gauss_highprec(center, width, point + step)
            fm = _gauss_highprec(center, width, point - step)
            if order == 1:
                fd = float((fp - fm) / (2.0 * h))
            else:
                f0 = _gauss_highprec(center, width, point)
                fd = float((fp - 2.0 * f0 + fm) / (h * h))
            analytic = _deriv(center, width, point, axis, order)
            assert abs(analytic - fd) / max(1.0, abs(fd)) < 1e-6
            checked += 1
        assert checked == 1000

    def test_invalid_axis_and_order(self):
        with pytest.raises(ValueError):
            _deriv([0.0], [1.0], [0.0], 1, 1)
        with pytest.raises(ValueError):
            _deriv([0.0], [1.0], [0.0], 0, 3)


def _center_width_deriv(center, width, point, axis, order):
    """Closed-form partial derivative in center-width form."""
    point, center, width = (np.asarray(v, dtype=float) for v in (point, center, width))
    g = np.exp(-np.sum((point - center) ** 2 / (2.0 * width**2)))
    u = (point[axis] - center[axis]) / width[axis] ** 2
    if order == 0:
        return g
    if order == 1:
        return -u * g
    return (u * u - 1.0 / width[axis] ** 2) * g


class TestBasisMatrices:
    def test_matches_scalar_eval(self):
        # every entry equals the single-kernel center-width formula
        rng = np.random.default_rng(13)
        centers = rng.uniform(-1, 1, (6, 2))
        widths = rng.uniform(0.1, 1.0, (6, 2))
        basis = RbfBasis(centers, widths)
        points = rng.uniform(-1, 1, (9, 2))
        g = eval_matrix(basis, points)
        assert g.shape == (9, 6)
        for p in range(9):
            for k in range(6):
                direct = np.exp(-np.sum((points[p] - centers[k]) ** 2 / (2.0 * widths[k] ** 2)))
                assert g[p, k] == pytest.approx(direct, rel=1e-14)

    def test_matches_scalar_deriv(self):
        rng = np.random.default_rng(14)
        centers = rng.uniform(-1, 1, (5, 2))
        widths = rng.uniform(0.1, 1.0, (5, 2))
        basis = RbfBasis(centers, widths)
        points = rng.uniform(-1, 1, (7, 2))
        for axis in (0, 1):
            for order in (1, 2):
                (d,) = deriv_matrix(basis, points, [(axis, order)])
                for p in range(7):
                    for k in range(5):
                        assert d[p, k] == pytest.approx(
                            _center_width_deriv(centers[k], widths[k], points[p], axis, order),
                            rel=1e-13,
                            abs=1e-15,
                        )

    def test_order_zero_is_eval(self):
        basis = RbfBasis([[0.0]], [[0.5]])
        pts = np.array([[0.3], [0.9]])
        np.testing.assert_array_equal(
            deriv_matrix(basis, pts, [(0, 0)])[0], eval_matrix(basis, pts)
        )

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            RbfBasis(np.zeros((2, 1)), np.ones((3, 1)))
        with pytest.raises(ValueError):
            eval_matrix(RbfBasis([[0.0]], [[1.0]]), np.zeros((4, 2)))
        with pytest.raises(ValueError):
            deriv_matrix(RbfBasis([[0.0]], [[1.0]]), np.zeros((4, 1)), [(0, 1), (0, 3)])
        with pytest.raises(ValueError):
            deriv_matrix(RbfBasis([[0.0]], [[1.0]]), np.zeros((4, 1)), [(1, 1)])


def _tensor_eval(basis, x):
    """The (points x kernels x dim) formula that eval_matrix must match bit for bit."""
    m, b = basis.slopes, basis.offsets
    return np.exp(-np.sum((x[:, None, :] * m + b) ** 2, axis=2))


def _tensor_deriv(basis, x, axis, order):
    g = _tensor_eval(basis, x)
    if order == 0:
        return g
    m = basis.slopes[None, :, axis]
    s = x[:, None, axis] * m + basis.offsets[None, :, axis]
    if order == 1:
        return -2.0 * m * s * g
    return (4.0 * m * m * s * s - 2.0 * m * m) * g


class TestBitIdentity:
    """eval_matrix and deriv_matrix reproduce the tensor formula exactly.

    Solves on these matrices are rank-deficient, so a last-bit change in
    one entry moves the Bayesian search and every result file after it.
    """

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n_points", [1, 997])
    def test_matches_tensor_formula(self, dim, n_points):
        rng = np.random.default_rng(100 * dim + n_points)
        basis = RbfBasis(rng.uniform(-1, 1, (301, dim)), rng.uniform(0.02, 1.0, (301, dim)))
        x = rng.uniform(-1.2, 1.2, (n_points, dim))
        assert np.array_equal(eval_matrix(basis, x), _tensor_eval(basis, x))
        terms = [(axis, order) for axis in range(dim) for order in (0, 1, 2)]
        # one call for every term, and one call per term, both exact
        for (axis, order), d in zip(terms, deriv_matrix(basis, x, terms)):
            expected = _tensor_deriv(basis, x, axis, order)
            assert np.array_equal(d, expected), (axis, order)
            assert np.array_equal(deriv_matrix(basis, x, [(axis, order)])[0], expected)


def test_eval_matrix_peak_memory_is_near_its_output():
    # the output plus one (points x kernels) scratch array is 2x; the tensor
    # formula's (points x kernels x dim) temporaries reach 5x
    rng = np.random.default_rng(8)
    basis = RbfBasis(rng.uniform(-1, 1, (500, 2)), rng.uniform(0.05, 0.5, (500, 2)))
    points = rng.uniform(-1, 1, (2000, 2))
    tracemalloc.start()
    try:
        g = eval_matrix(basis, points)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * g.nbytes, peak / g.nbytes
