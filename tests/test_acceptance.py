"""Benchmark acceptance runs for the adaptive RBF solver.

Each test exercises one end-to-end capability at its published tolerance
and prints a single ``criterion N: PASS/FAIL`` line (visible under
``pytest -s`` and in captured output).  The configurations and pinned
seeds were calibrated offline; every numeric threshold here has been
observed to hold with margin before being encoded.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from rbfadapt.assembly import LinearSystem, solve_least_squares
from rbfadapt.bayesopt import BoConfig, SearchBounds, expected_improvement, optimize
from rbfadapt.clustering import dbscan
from rbfadapt.drivers import (
    ForwardRunSpec,
    SensorPlacement,
    TimeBlockSpec,
    generate_sensor_data,
    run_advection_forward,
    run_baseline_curriculum,
    run_inverse,
    run_kapi_forward,
    solve_baseline,
)
from rbfadapt.problems import advection1d, convdiff_type1, convdiff_type2, poisson2d
from rbfadapt.rbf import RbfBasis, deriv_matrix
from rbfadapt.sampling import BaselineConfig, component_counts

from test_clustering import _brute_force_dbscan

pytestmark = pytest.mark.acceptance


def _report(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} — {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_sharp_layer_forward_accuracy():
    """Tuned one-component solve of the steep-layer problem at nu=0.01."""
    t0 = time.perf_counter()
    spec = ForwardRunSpec(
        problem=convdiff_type1(0.01),
        baseline=BaselineConfig(500, 250, 0.04),
        n_adap=1,
        bounds=SearchBounds([("mu", 0.9, 0.99), ("tau", 0.05, 0.5), ("lam", 0.5, 0.9)]),
        bo=BoConfig(max_evals=100, seed=0),
        seed=0,
        fixed={"f": 0.5},
    )
    result = run_kapi_forward(spec)
    elapsed = time.perf_counter() - t0
    linf = result.metrics["linf"]
    n_evals = len(result.history)
    ok = linf <= 1e-3 and result.mesh.shape[0] == 5000 and n_evals <= 100 and elapsed <= 300
    _report(1, ok, f"Linf={linf:.3e} (<=1e-3) evals={n_evals} t={elapsed:.1f}s")


def test_criterion_2_extreme_layer_residual_and_count():
    """Per-kernel width ladder resolves nu=1e-4 with exactly 1275 kernels."""
    t0 = time.perf_counter()
    spec = ForwardRunSpec(
        problem=convdiff_type1(1e-4),
        baseline=BaselineConfig(n_colloc=1500, n_rbf=750, sigma_f=0.013),
        n_adap=1,
        bounds=SearchBounds([("mu", 0.99, 0.9999), ("tau", 0.05, 0.5), ("lam", -0.5, -0.2)]),
        bo=BoConfig(max_evals=100, seed=0),
        seed=0,
        fixed={"f": 0.7},
        eta=0.01,
        width_sharing="kernel",
    )
    result = run_kapi_forward(spec)
    elapsed = time.perf_counter() - t0
    loss = result.history.best_loss
    n_star = result.model.basis.n_kernels
    ok = loss <= 1e-4 and n_star == 1275
    stretch = " (stretch 1e-6 met)" if loss <= 1e-6 else ""
    _report(2, ok, f"residual={loss:.3e} (<=1e-4){stretch} N*={n_star} (=1275) t={elapsed:.1f}s")


def test_criterion_3_uniform_baseline_cannot_resolve():
    """Fixed uniform bases keep a large residual at nu=1e-3 at any size."""
    residuals = {}
    for n_rbf in (250, 500, 1000):
        model, _ = solve_baseline(
            convdiff_type1(1e-3), BaselineConfig(2 * n_rbf, n_rbf, 10.0 / n_rbf)
        )
        residuals[n_rbf] = model.loss
    ok = all(v >= 1e-1 for v in residuals.values())
    detail = " ".join(f"N_r={k}:{v:.3e}" for k, v in residuals.items())
    _report(3, ok, f"{detail} (all >=1e-1)")


def test_criterion_4_curriculum_locates_sharp_regions():
    """Baseline sweeps find one right-edge cluster, then two edge clusters."""
    base = BaselineConfig(500, 500, 0.1)
    r1 = run_baseline_curriculum(convdiff_type1(0.1), base, [0.1, 0.05, 0.01])
    m1 = {nu: measure for nu, _, measure in r1.measures}
    ok1 = (
        r1.nu_solved == 0.05
        and m1[0.1] < 1e-3
        and m1[0.05] < 1e-3
        and m1[0.01] >= 1e-3
        and r1.clusters.n_clusters == 1
    )
    (lo, hi), = r1.clusters.intervals
    ok1 = ok1 and 0.85 <= lo < hi <= 1.0

    r2 = run_baseline_curriculum(convdiff_type2(0.3), base, [0.3, 0.2, 0.15, 0.1])
    ok2 = r2.clusters.n_clusters == 2
    if ok2:
        (a_lo, a_hi), (b_lo, b_hi) = sorted(r2.clusters.intervals)
        ok2 = a_lo <= 0.05 and a_hi <= 0.2 and b_lo >= 0.8 and b_hi >= 0.95
    ok = ok1 and ok2
    _report(
        4,
        ok,
        f"type1 cluster=({lo:.3f},{hi:.3f}) in (0.85,1.0); "
        f"type2 clusters={[(round(a, 3), round(b, 3)) for a, b in sorted(r2.clusters.intervals)]}",
    )


def test_criterion_5_poisson_2d_accuracy_and_budget():
    """Tuned 2D solve matches the finite-difference oracle with ~700 kernels."""
    t0 = time.perf_counter()
    spec = ForwardRunSpec(
        problem=poisson2d(0.05),
        baseline=BaselineConfig(1600, 400, 0.2, n_boundary=400),
        n_adap=1,
        bounds=SearchBounds(
            [
                ("f", 0.5, 1.0),
                ("mu_x", 0.4, 0.6),
                ("mu_y", 0.4, 0.6),
                ("tau", 0.2, 1.0),
                ("lam", 0.5, 1.0),
            ]
        ),
        bo=BoConfig(max_evals=100, seed=1),
        seed=1,
    )
    result = run_kapi_forward(spec)
    elapsed = time.perf_counter() - t0
    rel_l2 = result.metrics["rel_l2"]
    n_star = result.model.basis.n_kernels
    n_evals = len(result.history)
    ok = rel_l2 <= 1e-2 and 600 <= n_star <= 800 and n_evals <= 100 and elapsed <= 600
    _report(
        5,
        ok,
        f"relL2={rel_l2:.3e} (<=1e-2) N*={n_star} (in [600,800]) evals={n_evals} t={elapsed:.1f}s",
    )


def test_criterion_6_transport_march_to_final_time():
    """Hundred-block transport march stays accurate at t=1; short version is CI-fast."""
    t0 = time.perf_counter()
    spec = TimeBlockSpec(seed=1)
    result, _ = run_advection_forward(spec)
    _, predicted, exact = result.graded_final_profile()  # 2,001 x in [-1, 1] at t = 1
    linf = float(np.max(np.abs(predicted - exact)))
    full_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    smoke_spec = TimeBlockSpec(seed=0, n_blocks=10, t_final=0.1)
    smoke, _ = run_advection_forward(smoke_spec)
    smoke_time = time.perf_counter() - t1
    ok = linf <= 5e-2 and smoke_time <= 180 and np.all(np.isfinite(smoke.block_losses))
    _report(
        6,
        ok,
        f"Linf(t=1)={linf:.3e} (<=5e-2) t={full_time:.1f}s; 10-block smoke t={smoke_time:.1f}s (<=180s)",
    )


def test_criterion_7_transport_speed_estimation():
    """Speed recovered to 0.01 from 200 noisy sensors in 20 evaluations."""
    t0 = time.perf_counter()
    seed = 1
    problem = advection1d(0.1, 0.5)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(9,)))
    sensors = generate_sensor_data(
        problem, {"a": 0.5}, 200, 0.05, SensorPlacement.UNIFORM_RANDOM, rng
    )
    forward = ForwardRunSpec(
        problem=problem,
        baseline=BaselineConfig(n_colloc=1600, n_rbf=1600, sigma_f=0.1, n_boundary=80, n_initial=81),
        n_adap=0,
        bounds=SearchBounds([("a", 0.1, 1.0)]),
        bo=BoConfig(max_evals=20, seed=seed),
        seed=seed,
        pde_params=("a",),
        sensors=sensors,
    )
    result = run_inverse(forward)
    elapsed = time.perf_counter() - t0
    a_est = result.estimates["a"]
    err = abs(a_est - 0.5)
    n_evals = result.metrics["n_evals"]
    ok = err <= 0.01 and n_evals <= 20 and elapsed <= 120
    _report(7, ok, f"a_est={a_est:.5f} |err|={err:.4f} (<=0.01) evals={n_evals} t={elapsed:.1f}s")


def _estimate_diffusivity(nu_true: float, mixture_bounds) -> tuple:
    seed = 0
    problem = convdiff_type1(nu_true)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(9,)))
    sensors = generate_sensor_data(
        problem, {"nu": nu_true}, 51, 0.05, SensorPlacement.BOUNDARY_LAYER_BIASED, rng
    )
    forward = ForwardRunSpec(
        problem=problem,
        baseline=BaselineConfig(500, 250, 0.04),
        n_adap=1,
        bounds=SearchBounds(
            mixture_bounds + [("mu_nu", 1e-4, 1e-1), ("sigma_nu", 1e-6, 1e-2)],
            log_scale={"mu_nu": True, "sigma_nu": True},
        ),
        bo=BoConfig(max_evals=100, seed=seed),
        seed=seed,
        fixed={"f": 0.5},
        pde_params=("mu_nu", "sigma_nu"),
        width_sharing="component",
        sensors=sensors,
    )
    result = run_inverse(forward)
    return result.estimates["nu"], result.metrics["nu_rel_error"], result.metrics["n_evals"]


def test_criterion_8_diffusivity_estimation_two_regimes():
    """Diffusivity recovered within 10% at nu=0.01 and nu=0.001."""
    t0 = time.perf_counter()
    est_a, rel_a, evals_a = _estimate_diffusivity(
        0.01, [("mu", 0.93, 0.99), ("tau", 0.15, 0.45), ("lam", -0.4, -0.15)]
    )
    est_b, rel_b, evals_b = _estimate_diffusivity(
        0.001, [("mu", 0.99, 0.999), ("tau", 0.05, 0.2), ("lam", -0.4, -0.15)]
    )
    elapsed = time.perf_counter() - t0
    ok = rel_a <= 0.10 and rel_b <= 0.10 and evals_a <= 100 and evals_b <= 100
    _report(
        8,
        ok,
        f"nu=0.01: est={est_a:.4g} rel={rel_a:.3f}; nu=0.001: est={est_b:.4g} rel={rel_b:.3f} "
        f"(both <=0.10) t={elapsed:.1f}s",
    )


def test_criterion_9_property_suite():
    """Cross-cutting analytic, algebraic, and determinism properties."""
    failures = []

    # analytic derivatives vs high-precision central differences
    rng = np.random.default_rng(99)
    h = np.longdouble(1e-5)
    for _ in range(1000):
        dim = int(rng.integers(1, 3))
        width = rng.uniform(0.05, 2.0, dim)
        center = rng.uniform(-1.0, 1.0, dim)
        point = center + rng.uniform(-3.0, 3.0, dim) * width
        axis = int(rng.integers(0, dim))
        order = int(rng.integers(1, 3))

        def f(p):
            c = center.astype(np.longdouble)
            w = width.astype(np.longdouble)
            s = (np.asarray(p, dtype=np.longdouble) - c) / (np.longdouble(np.sqrt(2)) * w)
            return np.exp(-np.sum(s * s))

        step = np.zeros(dim, dtype=np.longdouble)
        step[axis] = h
        if order == 1:
            fd = float((f(point + step) - f(point - step)) / (2.0 * h))
        else:
            fd = float((f(point + step) - 2.0 * f(point) + f(point - step)) / (h * h))
        (d,) = deriv_matrix(RbfBasis([center], [width]), np.array([point]), [(axis, order)])
        if abs(d[0, 0] - fd) / max(1.0, abs(fd)) >= 1e-6:
            failures.append("derivatives")
            break

    # least-squares solve satisfies the normal equations
    rng = np.random.default_rng(17)
    for _ in range(20):
        rows, cols = int(rng.integers(20, 201)), int(rng.integers(5, 100))
        mat = rng.standard_normal((rows, cols))
        rhs = rng.standard_normal(rows)
        coef = solve_least_squares(LinearSystem(mat, rhs))
        if np.max(np.abs(mat.T @ (mat @ coef - rhs))) > 1e-8 * np.max(np.abs(mat.T @ rhs)):
            failures.append("pseudoinverse")
            break

    # mixture fractions become kernel counts by exact half-up rounding
    rng = np.random.default_rng(2)
    vectors = [rng.uniform(0.01, 3.0, int(rng.integers(1, 5))) for _ in range(200)]
    cases = [(n, fracs) for fracs in vectors for n in (1, 7, 150, 750)]
    # ties: f * n lands exactly on j + 0.5
    cases += [(n, [(2 * j + 1) / (2 * n) for j in range(6)]) for n in (2, 8, 64, 512)]
    for n, fracs in cases:
        expected = [n] + [math.floor(Fraction(f) * n + Fraction(1, 2)) for f in fracs]
        if component_counts(n, fracs) != expected:
            failures.append("mixture-counts")
            break

    # density clustering agrees with an exhaustive reference
    rng = np.random.default_rng(101)
    for case in range(100):
        n = int(rng.integers(5, 201))
        n_pockets = int(rng.integers(1, 4))
        parts = [rng.uniform(0, 1, n // 3)]
        for _ in range(n_pockets):
            c = rng.uniform(0, 1)
            parts.append(c + rng.uniform(-0.02, 0.02, (n - n // 3) // n_pockets))
        pts = np.concatenate(parts)[:n]
        eps = float(rng.uniform(0.005, 0.08))
        min_pts = int(rng.integers(2, 8))
        if dbscan(pts, eps, min_pts) != _brute_force_dbscan(pts, eps, min_pts):
            failures.append("clustering")
            break

    # closed-form acquisition spot values
    ei = [expected_improvement(np.zeros(1), np.ones(1), best)[0] for best in (1.0, 0.0)]
    if not (ei[0] == pytest.approx(1.08331, abs=1e-4) and ei[1] == pytest.approx(0.39894, abs=1e-4)):
        failures.append("acquisition")

    # the optimizer finds a 1D quadratic minimum
    history, _ = optimize(
        lambda w, i: ((w[0] - 0.3) ** 2, None), SearchBounds([("x", 0.0, 1.0)]), BoConfig(max_evals=30, seed=5)
    )
    if not (abs(history.best_w[0] - 0.3) <= 0.05 and len(history) <= 30):
        failures.append("optimizer")

    # byte-identical loss history under a fixed seed
    def _small_run():
        spec = ForwardRunSpec(
            problem=convdiff_type1(0.05),
            baseline=BaselineConfig(300, 150, 0.067),
            n_adap=1,
            bounds=SearchBounds([("mu", 0.85, 0.99), ("tau", 0.05, 0.5), ("lam", 0.5, 0.9)]),
            bo=BoConfig(max_evals=5, seed=0),
            seed=0,
            fixed={"f": 0.5},
        )
        result = run_kapi_forward(spec)
        return b"".join(
            np.asarray(w, dtype=float).tobytes() + np.float64(loss).tobytes()
            for w, loss in result.history.records
        )

    if _small_run() != _small_run():
        failures.append("determinism")

    ok = not failures
    detail = "derivatives, pseudoinverse, mixture-counts, clustering, acquisition, optimizer, determinism all hold" if ok else f"failed: {failures}"
    _report(9, ok, detail)
