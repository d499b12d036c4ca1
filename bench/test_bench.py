"""Tests of the benchmark's own code: spans, wrappers, checks and configs.

    python3 -m pytest bench/test_bench.py -q
"""

import json
import sys
from dataclasses import replace
from itertools import count
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import rbfadapt  # noqa: E402
from rbfadapt import assembly, cli_io, drivers, rbf  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Outputs, config_text, convdiff1_exact, poisson_fd  # noqa: E402


def _modules():
    return [m for name, m in sys.modules.items() if name.startswith("rbfadapt.")]


def _namespaces():
    """Every function, class and module a rbfadapt module refers to, by name."""
    return {(m.__name__, k): v for m in _modules() for k, v in vars(m).items() if callable(v)}


# ---------------------------------------------------------------------------
# spans


def test_self_time_of_a_toy_nested_call():
    tick = count()
    tracer = spans.Tracer(clock=lambda: float(next(tick)))
    inner = tracer.span("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.span("outer", body)
    outer()
    # outer: 0..5, inner: 1..2 and 3..4
    assert [(s.name, s.start, s.end, s.parent) for s in tracer.spans] == [
        ("outer", 0.0, 5.0, -1),
        ("inner", 1.0, 2.0, 0),
        ("inner", 3.0, 4.0, 0),
    ]
    assert tracer.self_times() == {"outer": 3.0, "inner": 2.0}
    assert tracer.calls == {"outer": 1, "inner": 2}
    assert tracer.covered(0.5, 6.0) == 4.5


def test_span_closes_when_the_call_raises():
    tick = count()
    tracer = spans.Tracer(clock=lambda: float(next(tick)))

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.span("fail", fail)()
    assert tracer.spans[0].end == 1.0 and not tracer._open


def _tiny_system():
    problem = rbfadapt.problems.convdiff_type1(0.1)
    basis = rbf.RbfBasis(np.linspace(0, 1, 8)[:, None], np.full((8, 1), 0.2))
    pts = np.linspace(0, 1, 12)[:, None]
    return problem, basis, pts


def test_wrappers_are_installed_by_every_name_and_restored():
    before = _namespaces()
    tracer = spans.Tracer()
    with spans.installed(tracer, rbfadapt, _modules()):
        assert drivers.build_system is assembly.build_system is not before[("rbfadapt.assembly", "build_system")]
        assert assembly.eval_matrix is rbf.eval_matrix
        problem, basis, pts = _tiny_system()
        system = drivers.build_system(problem, basis, pts, np.array([[0.0], [1.0]]))
        model = assembly.solve_system(system, basis)
        assembly.evaluate_model(model, pts)
    assert _namespaces() == before
    names = [s.name for s in tracer.spans]
    assert names[0] == "assembly.build_system"
    assert "rbf.deriv_matrix" in names and "assembly.operator_matrix" in names
    # deriv_matrix reaches eval_matrix through the rbf module's globals
    child_of = {i: s.parent for i, s in enumerate(tracer.spans)}
    assert any(
        s.name == "rbf.eval_matrix" and tracer.spans[child_of[i]].name == "rbf.deriv_matrix"
        for i, s in enumerate(tracer.spans)
    )
    metrics = spans.layer_metrics(tracer)
    assert metrics["assembly.solve_least_squares.mn2"][0] == system.n_rows * 8 * 8
    assert metrics["assembly.evaluate_model.points"][0] == 12
    # solve_least_squares, residual_loss and evaluate_model each pin once
    assert metrics["blas.pinned_calls"][0] == 3


def test_wrappers_are_restored_when_the_run_raises():
    before = _namespaces()
    with pytest.raises(ValueError):
        with spans.installed(spans.Tracer(), rbfadapt, _modules()):
            drivers.build_system(*_tiny_system()[:2], np.empty((0, 1)), np.array([[0.0]]))
    assert _namespaces() == before


def test_pinned_lists_every_function_that_pins_blas():
    decorated = {
        f"{m.__name__.split('.')[-1]}.{k}"
        for m in _modules()
        for k, v in vars(m).items()
        if callable(v) and hasattr(v, "__wrapped__") and getattr(v, "__module__", None) == m.__name__
    }
    assert decorated and decorated <= set(spans.PINNED)


def test_every_traced_name_exists():
    for qualname in list(spans.SPANS) + list(spans.PINNED):
        module, attr = qualname.split(".")
        assert callable(getattr(getattr(rbfadapt, module), attr)), qualname


# ---------------------------------------------------------------------------
# configs


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_seed_parses_to_the_same_run(tmp_path, name):
    workload = WORKLOADS[name]
    texts, configs = set(), []
    for seed in range(6):
        path = tmp_path / f"{seed}.yaml"
        texts.add(config_text(workload, seed))
        path.write_text(config_text(workload, seed))
        configs.append(cli_io.parse_config(path))
    assert len(texts) > 1
    assert all(c == configs[0] for c in configs)
    section = configs[0].search or configs[0].advection
    assert list(section["bounds"]) == list((workload.config.get("search") or workload.config["advection"])["bounds"])


def _csvs(out, kernels="a,b\n1,2\n"):
    out.mkdir(exist_ok=True)
    for name in run.CSVS:
        (out / name).write_text("a,b\n1,2\n")
    (out / "kernels.csv").write_text(kernels)
    return out


def test_same_bytes_records_then_compares(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    out = _csvs(tmp_path / "run")
    assert run.same_bytes("w", out, "a" * 64) == []
    assert run.same_bytes("w", out, "a" * 64) == []
    _csvs(out, kernels="a,b\n1,3\n")
    assert run.same_bytes("w", out, "a" * 64)


def test_a_changed_source_starts_a_new_record(tmp_path, monkeypatch):
    src = tmp_path / "rbfadapt"
    src.mkdir()
    (src / "rbf.py").write_text("x = 1\n")
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SRC", src)
    parent = run.source_hash()
    out = _csvs(tmp_path / "run")
    assert run.same_bytes("w", out, parent) == []
    (src / "rbf.py").write_text("x = 2\n")
    child = run.source_hash()
    assert child != parent
    # other bytes from other code are no failure, and become the new record
    _csvs(out, kernels="a,b\n1,3\n")
    assert run.same_bytes("w", out, child) == []
    assert run.same_bytes("w", out, child) == []
    assert run.same_bytes("w", out, parent)


# ---------------------------------------------------------------------------
# output checks: each accepts correct outputs and rejects perturbed ones


def _outputs(losses, summary, config=None, kernels=None, solution=None):
    summary = {"exit_code": 0, **summary}
    return Outputs(summary, config or {}, np.asarray(losses, dtype=float), kernels or {}, solution or {})


def _sharp_layer_outputs():
    w = WORKLOADS["sharp-layer"]
    x = np.linspace(0.0, 1.0, 5000)
    losses = [3e-3, 1e-4] + [2e-4] * 98
    return w, _outputs(
        losses,
        {"metrics": {"residual_loss": 1e-4}, "exit_code": 4},
        kernels={"coefficient": np.ones(375)},
        solution={"x": x, "predicted": convdiff1_exact(x, 0.01)},
    )


def test_sharp_layer_check():
    w, out = _sharp_layer_outputs()
    assert w.check(out) == []
    perturbed = dict(out.solution, predicted=1.1 * out.solution["predicted"])
    assert w.check(replace(out, solution=perturbed))
    assert w.check(replace(out, kernels={"coefficient": np.ones(374)}))


def test_shared_checks_reject_a_wrong_history():
    w, out = _sharp_layer_outputs()
    assert w.check(replace(out, losses=out.losses[:-1]))
    assert w.check(replace(out, summary=dict(out.summary, metrics={"residual_loss": 2e-4})))
    assert w.check(replace(out, summary=dict(out.summary, exit_code=3)))
    assert WORKLOADS["poisson-2d"].exit_codes == (0,)


def test_failed_solves_are_counted():
    w, out = _sharp_layer_outputs()
    out = replace(out, losses=np.array([np.inf, 1e-4, 2e-4]))
    assert (w.solves(out), w.failed(out)) == (3, 1)


@pytest.fixture(scope="module")
def poisson_fit():
    """Gaussians on a 26 x 26 grid least-squares fitted to the 5-point solve."""
    reference = poisson_fd(0.05, 201)
    axis = np.linspace(0.0, 1.0, 26)
    cx, cy = (a.ravel() for a in np.meshgrid(axis, axis, indexing="ij"))
    width = 1.0 / 25
    sample = np.linspace(0.0, 1.0, 101)
    px, py = (a.ravel() for a in np.meshgrid(sample, sample, indexing="ij"))
    design = np.exp(-((px[:, None] - cx) ** 2 + (py[:, None] - cy) ** 2) / (2 * width**2))
    coeffs = np.linalg.lstsq(design, reference[::2, ::2].ravel(), rcond=None)[0]
    kernels = {
        "center_x": cx, "center_y": cy,
        "width_x": np.full(cx.size, width), "width_y": np.full(cx.size, width),
        "coefficient": coeffs,
    }
    return reference, kernels


def test_poisson_check(poisson_fit):
    reference, kernels = poisson_fit
    w = WORKLOADS["poisson-2d"]
    out = _outputs([1e-2, 1e-4] + [1e-3] * 18, {"metrics": {"residual_loss": 1e-4}}, kernels=kernels)
    assert w.check(out, reference) == []
    scaled = dict(kernels, coefficient=1.1 * kernels["coefficient"])
    assert w.check(replace(out, kernels=scaled), reference)
    fewer = {k: v[:500] for k, v in kernels.items()}
    assert any("kernels" in p for p in w.check(replace(out, kernels=fewer), reference))


def _transport_outputs():
    w = WORKLOADS["transport-march"]
    x = np.linspace(-1.0, 1.0, 2001)
    exact = np.exp(-((x - 0.5 + 0.3) ** 2) / (4 * 0.05**2))
    validation = [1e-4] * 9 + [2e-4] + [3e-4] * 90
    return w, _outputs(
        [5e-4, 2e-4, 7e-4] + [9e-4] * 27,
        {"metrics": {"residual_loss": 1e-5}, "block_losses": [1e-5] * 100, "validation_losses": validation},
        config={"advection": {"tuning_blocks": 10}},
        solution={"x": x, "t": np.ones_like(x), "predicted": exact + 1e-4},
    )


def test_transport_check():
    w, out = _transport_outputs()
    assert w.check(out) == []
    assert (w.solves(out), w.failed(out)) == (30 * 10 + 100, 0)
    perturbed = dict(out.solution, predicted=1.1 * out.solution["predicted"])
    assert w.check(replace(out, solution=perturbed))
    blocks = [1e-5] * 99 + [float("inf")]
    bad = replace(out, summary=dict(out.summary, block_losses=blocks))
    assert w.check(bad) and w.failed(bad) == 1
    assert w.check(replace(out, losses=np.where(out.losses == 5e-4, 1e-4, out.losses)))


def test_speed_inverse_check():
    w = WORKLOADS["speed-inverse"]
    out = _outputs([0.2, 0.1] + [0.3] * 12, {"metrics": {"residual_loss": 0.1}, "a_est": 0.5061})
    assert w.check(out) == []
    assert w.check(replace(out, summary=dict(out.summary, a_est=1.1 * 0.5061)))


def test_benchmark_json_names_every_workload_and_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    layers = spans.layer_metrics(spans.Tracer())
    traced = {name: unit for name, (_, unit) in layers.items()}
    traced.update({"cli_io.bytes_written": "bytes", "trace.uncovered_s": "s", "trace.overhead_s": "s"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == traced
