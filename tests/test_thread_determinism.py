"""Results must not depend on the BLAS thread count.

One objective evaluation (the convdiff1 ``nu=0.01`` system, whose matrix
has a condition number near 1e18), one surrogate fit, one chunked 2D
grading (769 kernels on the 201 x 201 mesh, 40 row chunks) and the
baseline kernels a small transport-speed search keeps (a pivoted QR of
its stacked rows) run in fresh
interpreters started with ``OPENBLAS_NUM_THREADS=1`` and ``=2``; their
outputs must be bit-equal.  OpenBLAS reads the variable when it loads,
so each thread count needs its own process.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

_SRC = Path(__file__).resolve().parents[1] / "src"

_SCRIPT = """
import sys

import numpy as np

from rbfadapt.assembly import SolvedModel, evaluate_model
from rbfadapt.bayesopt import BoConfig, SearchBounds, gp_fit, gp_predict_batch
from rbfadapt.drivers import (
    ForwardRunSpec,
    SensorPlacement,
    forward_objective,
    generate_sensor_data,
    shared_baseline,
)
from rbfadapt.problems import advection1d, convdiff_type1, poisson2d
from rbfadapt.rbf import RbfBasis
from rbfadapt.sampling import BaselineConfig, uniform_grid

spec = ForwardRunSpec(
    problem=convdiff_type1(0.01),
    baseline=BaselineConfig(500, 250, 0.04),
    n_adap=1,
    bounds=SearchBounds([("mu", 0.9, 0.99), ("tau", 0.05, 0.5), ("lam", 0.5, 0.9)]),
    bo=BoConfig(max_evals=100),
    seed=0,
    fixed={"f": 0.5},
)
loss, model = forward_objective(spec, {"mu": 0.95, "tau": 0.2, "lam": 0.7, "f": 0.5}, 0, shared_baseline(spec))

# a surrogate as large as a 100-evaluation search ever fits
rng = np.random.default_rng(0)
x = rng.uniform(size=(99, 5))
y = np.log10(1e-3 + np.sum((x - 0.4) ** 2, axis=1)) + 0.05 * rng.standard_normal(99)
surrogate = gp_fit(x, y)
mean, var = gp_predict_batch(surrogate, rng.uniform(size=(2050, 5)))

basis = RbfBasis(rng.uniform(size=(769, 2)), rng.uniform(0.01, 0.2, size=(769, 2)))
graded = SolvedModel(basis, 1e3 * rng.standard_normal(769), 0.0)
predicted = evaluate_model(graded, uniform_grid(poisson2d(0.05).domain, 201 * 201))

transport = advection1d(0.1, 0.5)
speed_spec = ForwardRunSpec(
    problem=transport,
    baseline=BaselineConfig(400, 400, 0.2, n_boundary=20, n_initial=21),
    n_adap=0,
    bounds=SearchBounds([("a", 0.1, 1.0)]),
    bo=BoConfig(max_evals=1),
    estimate="a",
    sensors=generate_sensor_data(transport, {"a": 0.5}, 30, 0.05, SensorPlacement.UNIFORM_RANDOM, rng),
)
kept = shared_baseline(speed_spec)

np.savez(
    sys.argv[1],
    loss=loss,
    coefficients=model.coefficients,
    alpha=surrogate.alpha,
    mean=mean,
    var=var,
    predicted=predicted,
    kept_centers=kept.centers,
)
"""


def _run(tmp_path, threads: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")]))
    out = tmp_path / f"threads_{threads}.npz"
    subprocess.run([sys.executable, "-c", _SCRIPT, str(out)], env=env, check=True, timeout=300)
    with np.load(out) as data:
        return {key: data[key] for key in data.files}


def test_objective_and_surrogate_bit_equal_across_thread_counts(tmp_path):
    one = _run(tmp_path, 1)
    two = _run(tmp_path, 2)
    for key in ("loss", "coefficients", "alpha", "mean", "var", "predicted", "kept_centers"):
        diff = float(np.max(np.abs(one[key] - two[key])))
        assert one[key].tobytes() == two[key].tobytes(), f"{key} differs by up to {diff:.3e}"
