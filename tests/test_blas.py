"""Tests for the BLAS thread pin and its use at the solver's call sites."""

import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS copy into the process)

from rbfadapt import assembly, bayesopt, blas
from rbfadapt.assembly import LinearSystem, evaluate_model, residual_loss, solve_system
from rbfadapt.bayesopt import gp_fit, gp_predict_batch
from rbfadapt.blas import BLAS_THREADS, blas_thread_counts, fixed_blas_threads
from rbfadapt.rbf import RbfBasis

needs_openblas = pytest.mark.skipif(
    not blas_thread_counts(), reason="no OpenBLAS thread control loaded"
)


@pytest.fixture
def two_threads():
    """Set every OpenBLAS copy to 2 threads, so that a pin to 1 shows."""
    original = blas_thread_counts()
    for setter, _ in blas._controls().values():
        setter(2)
    yield blas_thread_counts()
    for path, count in original.items():
        blas._controls()[path][0](count)


def _all_pinned() -> bool:
    counts = blas_thread_counts()
    return bool(counts) and all(c == BLAS_THREADS for c in counts.values())


@needs_openblas
class TestPin:
    def test_every_mapped_openblas_is_controlled(self):
        assert set(blas_thread_counts()) == set(blas._openblas_paths())

    def test_restores_on_normal_exit(self, two_threads):
        with fixed_blas_threads():
            assert _all_pinned()
        assert blas_thread_counts() == two_threads

    def test_restores_when_body_raises(self, two_threads):
        with pytest.raises(ValueError):
            with fixed_blas_threads():
                assert _all_pinned()
                raise ValueError("boom")
        assert blas_thread_counts() == two_threads

    def test_decorated_function_restores_when_it_raises(self, two_threads):
        @fixed_blas_threads()
        def fail():
            assert _all_pinned()
            raise ArithmeticError("solve failed")

        with pytest.raises(ArithmeticError):
            fail()
        assert blas_thread_counts() == two_threads

    def test_nested_use(self, two_threads):
        with fixed_blas_threads():
            with fixed_blas_threads():
                assert _all_pinned()
            # the inner exit must not release the outer block
            assert _all_pinned()
        assert blas_thread_counts() == two_threads

    def test_interleaved_blocks(self, two_threads):
        # blocks opened from two Python threads need not close in LIFO order
        first, second = fixed_blas_threads(), fixed_blas_threads()
        first.__enter__()
        second.__enter__()
        first.__exit__(None, None, None)
        assert _all_pinned()
        second.__exit__(None, None, None)
        assert blas_thread_counts() == two_threads

    def test_concurrent_blocks(self, two_threads):
        failures = []

        def worker():
            for _ in range(200):
                with fixed_blas_threads():
                    if not _all_pinned():
                        failures.append("unpinned inside a block")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert not failures
        assert blas_thread_counts() == two_threads


def test_without_thread_control_runs_unpinned_and_warns_once(monkeypatch):
    monkeypatch.setattr(blas, "_controls", lambda: {})
    ran = False
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with fixed_blas_threads():
            with fixed_blas_threads():
                ran = True
    assert ran
    messages = [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(messages) == 1
    assert "BLAS thread count" in messages[0]


# ---------------------------------------------------------------------------
# the solver's BLAS call sites run pinned and give the caller its counts back


def _spy(monkeypatch, owner, name, seen):
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(_all_pinned())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


@needs_openblas
def test_least_squares_solve_runs_pinned(monkeypatch, two_threads):
    seen = []
    _spy(monkeypatch, assembly.np.linalg, "lstsq", seen)
    rng = np.random.default_rng(3)
    basis = RbfBasis(rng.uniform(size=(12, 1)), np.full((12, 1), 0.2))
    system = LinearSystem(rng.standard_normal((30, 12)), rng.standard_normal(30))
    model = solve_system(system, basis)
    assert seen == [True]
    assert blas_thread_counts() == two_threads
    residual_loss(system, model.coefficients)
    evaluate_model(model, np.linspace(0.0, 1.0, 7)[:, None])
    assert blas_thread_counts() == two_threads


@needs_openblas
def test_surrogate_runs_pinned(monkeypatch, two_threads):
    seen = []
    _spy(monkeypatch, bayesopt, "dpotrf", seen)
    _spy(monkeypatch, bayesopt, "dpotrs", seen)
    rng = np.random.default_rng(4)
    x = rng.uniform(size=(15, 2))
    surrogate = gp_fit(x, np.sin(3.0 * x[:, 0]) + x[:, 1])
    assert blas_thread_counts() == two_threads
    gp_predict_batch(surrogate, rng.uniform(size=(40, 2)))
    assert seen and all(seen)
    assert blas_thread_counts() == two_threads
