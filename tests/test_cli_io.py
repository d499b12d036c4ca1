"""Configuration parsing, result grading, file output, and the command line."""

import csv
import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from rbfadapt import cli_io
from rbfadapt.cli_io import (
    EXIT_BUDGET,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    KINDS,
    OUT_ENV_VAR,
    ConfigError,
    ConfigFileMissingError,
    ConfigSyntaxError,
    ConfigValueError,
    RunConfig,
    _forward_spec,
    _march_spec,
    _write_csv,
    compare_to_exact,
    default_config,
    main,
    parse_config,
    run_command,
    write_config,
)
from rbfadapt.assembly import solve_system
from rbfadapt.bayesopt import BoHistory, SearchBounds
from rbfadapt.drivers import TimeBlockSpec, error_metrics, forward_objective, shared_baseline
from rbfadapt.problems import advection_exact, exact_type1


def _dump(tmp_path, mapping, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping, sort_keys=False))
    return path


TINY_FORWARD = {
    "kind": "forward",
    "problem": {"type": "convdiff1", "nu": 0.05},
    "baseline": {"n_colloc": 300, "n_rbf": 150, "sigma_f": 0.067},
    "search": {
        "n_adaptive": 1,
        "max_evals": 3,
        "loss_tol": None,
        "bounds": {"mu": [0.85, 0.99], "tau": [0.05, 0.5], "lam": [0.5, 0.9]},
        "fixed": {"f": 0.5},
    },
}

TINY_INVERSE = {
    "kind": "inverse",
    "problem": {"type": "advection", "nu": 0.1},
    "baseline": {"n_colloc": 400, "n_rbf": 400, "sigma_f": 0.1, "n_boundary": 20, "n_initial": 21},
    "search": {"n_adaptive": 0, "max_evals": 3, "bounds": {"a": [0.1, 1.0]}},
    "sensors": {"count": 30, "noise": 0.05, "placement": "uniform_random", "truth": {"a": 0.5}},
}

TINY_ADVECTION = {
    "kind": "advection",
    "problem": {"type": "advection", "nu": 0.05, "speed": 0.5},
    "advection": {
        "n_blocks": 2,
        "t_final": 0.02,
        "n_colloc": 300,
        "n_boundary": 60,
        "n_initial": 150,
        "n_rbf": 100,
        "tunables": [1.25, 1.0, 3.5],
    },
}

TINY_DIFFUSIVITY = {
    "kind": "inverse",
    "problem": {"type": "convdiff1", "nu": 0.01},
    "baseline": {"n_colloc": 200, "n_rbf": 100, "sigma_f": 0.05},
    "search": {"max_evals": 3},
    "sensors": {"count": 20, "truth": {"nu": 0.01}},
}

TINY_STUDY = {
    "kind": "baseline-study",
    "problem": {"type": "convdiff1"},
    "curriculum": {"schedule": [0.1, 0.05]},
}


# ---------------------------------------------------------------------------
# parsing and defaults


class TestParseConfig:
    def test_minimal_forward_fills_documented_defaults(self, tmp_path):
        path = _dump(tmp_path, {"kind": "forward", "problem": {"type": "convdiff1", "nu": 0.01}})
        config = parse_config(path)
        assert config.kind == "forward"
        assert config.baseline["n_colloc"] == 500
        assert config.baseline["n_rbf"] == 250
        assert config.baseline["sigma_f"] == 0.04
        assert config.search["n_adaptive"] == 1
        assert config.search["max_evals"] == 100
        assert set(config.search["bounds"]) == {"mu", "tau", "lam"}
        assert config.search["fixed"] == {"f": 0.5}
        # the retired isotropic_widths key: true, from older files, changes nothing
        retired = {"kind": "forward", "problem": {"type": "convdiff1", "nu": 0.01},
                   "search": {"isotropic_widths": True}}
        assert parse_config(_dump(tmp_path, retired, "retired.yaml")) == config

    def test_empty_file_defaults_whole_run(self, tmp_path):
        path = _dump(tmp_path, {})
        config = parse_config(path, kind="forward")
        assert config == default_config("forward", out=config.out)

    def test_subcommand_supplies_kind_when_file_omits_it(self, tmp_path):
        path = _dump(tmp_path, {"problem": {"type": "convdiff1"}})
        assert parse_config(path, kind="forward").kind == "forward"
        with pytest.raises(ConfigValueError, match="kind"):
            parse_config(path)

    def test_kind_disagreement_is_an_error(self, tmp_path):
        path = _dump(tmp_path, {"kind": "forward"})
        with pytest.raises(ConfigValueError, match="forward"):
            parse_config(path, kind="inverse")

    def test_missing_file_and_bad_syntax_have_distinct_errors(self, tmp_path):
        with pytest.raises(ConfigFileMissingError):
            parse_config(tmp_path / "nope.yaml")
        bad = tmp_path / "bad.yaml"
        bad.write_text("kind: [unclosed\n")
        with pytest.raises(ConfigSyntaxError):
            parse_config(bad)
        scalar = tmp_path / "scalar.yaml"
        scalar.write_text("just a string\n")
        with pytest.raises(ConfigSyntaxError):
            parse_config(scalar)

    def test_unknown_key_is_named(self, tmp_path):
        path = _dump(tmp_path, {"kind": "forward", "baseline": {"n_coloc": 100}})
        with pytest.raises(ConfigValueError, match="n_coloc"):
            parse_config(path)

    def test_negative_nu_is_named(self, tmp_path):
        path = _dump(tmp_path, {"kind": "forward", "problem": {"type": "convdiff1", "nu": -0.1}})
        with pytest.raises(ConfigValueError, match="nu"):
            parse_config(path)

    def test_quoted_scientific_notation_accepted(self, tmp_path):
        path = _dump(
            tmp_path,
            {"kind": "inverse", "problem": {"type": "convdiff1", "nu": "1e-2"}},
        )
        assert parse_config(path).problem["nu"] == 0.01

    def test_boolean_rejected_where_number_expected(self, tmp_path):
        path = _dump(tmp_path, {"kind": "forward", "problem": {"type": "convdiff1", "nu": True}})
        with pytest.raises(ConfigValueError, match="nu"):
            parse_config(path)

    def test_inverse_poisson_rejected(self, tmp_path):
        path = _dump(tmp_path, {"kind": "inverse", "problem": {"type": "poisson"}})
        with pytest.raises(ConfigValueError, match="problem.type"):
            parse_config(path)

    def test_forward_advection_redirected(self, tmp_path):
        path = _dump(tmp_path, {"kind": "forward", "problem": {"type": "advection"}})
        with pytest.raises(ConfigValueError, match="advection command"):
            parse_config(path)

    def test_sections_foreign_to_the_kind_rejected(self, tmp_path):
        path = _dump(tmp_path, {"kind": "forward", "curriculum": {"schedule": [0.1]}})
        with pytest.raises(ConfigValueError, match="curriculum"):
            parse_config(path)

    def test_custom_bounds_must_cover_the_search_vector(self, tmp_path):
        path = _dump(
            tmp_path,
            {
                "kind": "forward",
                "problem": {"type": "convdiff1"},
                "search": {"bounds": {"mu": [0.9, 0.99]}},
            },
        )
        with pytest.raises(ConfigValueError, match="missing"):
            parse_config(path)

    def test_log_axis_must_name_a_searched_positive_parameter(self, tmp_path):
        base = {
            "kind": "forward",
            "problem": {"type": "convdiff1"},
            "search": {
                "bounds": {"mu": [0.9, 0.99], "tau": [0.05, 0.5], "lam": [0.5, 0.9]},
                "fixed": {"f": 0.5},
                "log10": ["nope"],
            },
        }
        with pytest.raises(ConfigValueError, match="nope"):
            parse_config(_dump(tmp_path, base))
        base["search"]["log10"] = ["lam"]
        base["search"]["bounds"]["lam"] = [-0.4, -0.15]
        with pytest.raises(ConfigValueError, match="positive"):
            parse_config(_dump(tmp_path, base, name="log.yaml"))

    def test_error_classes_share_a_base(self):
        for cls in (ConfigFileMissingError, ConfigSyntaxError, ConfigValueError):
            assert issubclass(cls, ConfigError)

    def test_inverse_defaults_search_the_diffusivity_distribution(self, tmp_path):
        path = _dump(tmp_path, {"kind": "inverse", "problem": {"type": "convdiff1"}})
        config = parse_config(path)
        assert set(config.search["bounds"]) == {"mu", "tau", "lam", "mu_nu", "sigma_nu"}
        assert sorted(config.search["log10"]) == ["mu_nu", "sigma_nu"]
        assert config.sensors["truth"] == {"nu": 0.01}
        assert config.sensors["placement"] == "boundary_layer_biased"


class TestDocumentedExamples:
    ROOT = Path(__file__).parent.parent
    EXAMPLES = sorted((ROOT / "docs" / "examples").glob("*.yaml"))

    def test_one_example_exists_per_kind(self):
        kinds = {parse_config(p).kind for p in self.EXAMPLES}
        assert kinds == set(KINDS)

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_example_parses_and_round_trips(self, path, tmp_path):
        config = parse_config(path)
        again = write_config(config, tmp_path / path.name)
        assert parse_config(again) == config

    def test_readme_commands_name_configs_of_their_kind(self):
        # every `rbfadapt <kind> --config <path>` line of the quick start
        commands = re.findall(r"^rbfadapt (\S+) --config (\S+)", (self.ROOT / "README.md").read_text(), re.M)
        assert commands
        for kind, path in commands:
            assert parse_config(self.ROOT / path).kind == kind, path


class TestRoundTrip:
    @pytest.mark.parametrize("kind", KINDS)
    def test_default_config_survives_write_and_reparse(self, kind, tmp_path):
        config = default_config(kind)
        path = write_config(config, tmp_path / f"{kind}.yaml")
        assert parse_config(path) == config

    def test_customized_config_survives_write_and_reparse(self, tmp_path):
        first = parse_config(_dump(tmp_path, TINY_INVERSE))
        path = write_config(first, tmp_path / "again.yaml")
        assert parse_config(path) == first


# ---------------------------------------------------------------------------
# grading against the exact solution


class TestCompareToExact:
    def test_is_the_drivers_grading_function(self):
        assert compare_to_exact is error_metrics

    def test_identical_fields_grade_zero(self):
        values = np.linspace(0.0, 1.0, 11)
        assert compare_to_exact(values, values.copy()) == {"linf": 0.0, "rel_l2": 0.0}

    def test_constant_offset_has_known_norms(self):
        exact = np.linspace(1.0, 2.0, 50)
        metrics = compare_to_exact(exact + 0.1, exact)
        assert metrics["linf"] == pytest.approx(0.1)
        expected = 0.1 * np.sqrt(50) / np.linalg.norm(exact)
        assert metrics["rel_l2"] == pytest.approx(expected)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="mesh mismatch"):
            compare_to_exact(np.zeros(5), np.zeros(6))

    def test_error_vector_matches_direct_computation(self):
        rng = np.random.default_rng(0)
        predicted = rng.normal(size=30)
        exact = rng.normal(size=30)
        errors = predicted - exact
        metrics = compare_to_exact(predicted, exact)
        assert metrics["linf"] == np.max(np.abs(errors))
        assert metrics["rel_l2"] == np.linalg.norm(errors) / np.linalg.norm(exact)


# ---------------------------------------------------------------------------
# running and persistence


EXPECTED_FILES = ("config.yaml", "summary.json", "loss_history.csv", "kernels.csv", "solution.csv")


def _run_tiny(tmp_path, mapping, subdir="out", **kwargs):
    config = parse_config(_dump(tmp_path, mapping, name=f"{subdir}.yaml"))
    return run_command(config, quiet=True, out_override=str(tmp_path / subdir), **kwargs)


class TestRunCommand:
    def test_forward_run_writes_the_full_file_set(self, tmp_path):
        bundle = _run_tiny(tmp_path, TINY_FORWARD)
        assert bundle.exit_code == EXIT_OK
        out = Path(bundle.out_dir)
        for name in EXPECTED_FILES:
            assert (out / name).is_file(), name

        summary = json.loads((out / "summary.json").read_text())
        assert summary["kind"] == "forward"
        assert summary["n_evaluations"] == len(bundle.history) <= 3
        assert summary["stop_reason"] in ("loss_tol", "step_tol", "budget")
        assert summary["exit_code"] == bundle.exit_code
        assert set(summary["w_opt"]) == {"f", "mu", "tau", "lam"}
        assert summary["metrics"]["linf"] == bundle.metrics["linf"]
        assert summary["timings"]["total_seconds"] > 0
        provenance = summary["provenance"]
        assert provenance["numpy"] == np.__version__
        assert provenance["blas_thread_control"] == bool(provenance["blas_thread_counts"])
        assert {"rbfadapt", "scipy", "blas"} <= set(provenance)

        with (out / "loss_history.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "mu", "tau", "lam", "loss"]
        assert len(rows) - 1 == summary["n_evaluations"]
        losses = [float(r[-1]) for r in rows[1:]]
        assert min(losses) == bundle.metrics["residual_loss"]

        with (out / "kernels.csv").open() as fh:
            krows = list(csv.reader(fh))
        assert krows[0] == ["center_x", "width_x", "coefficient", "component"]
        assert len(krows) - 1 == bundle.metrics["n_kernels"]

        with (out / "solution.csv").open() as fh:
            srows = list(csv.reader(fh))
        assert srows[0] == ["x", "predicted", "exact", "abs_error"]
        assert len(srows) - 1 == 3000

    def test_csv_floats_round_trip_at_full_precision(self, tmp_path):
        bundle = _run_tiny(tmp_path, TINY_FORWARD, subdir="prec")
        with (Path(bundle.out_dir) / "loss_history.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == len(bundle.history)
        for k, (text_row, (w, loss)) in enumerate(zip(rows[1:], bundle.history.records)):
            assert [float(text) for text in text_row] == [k, *w, loss]

    def test_identical_runs_are_byte_identical(self, tmp_path):
        a = _run_tiny(tmp_path, TINY_FORWARD, subdir="a")
        b = _run_tiny(tmp_path, TINY_FORWARD, subdir="b")
        for name in ("loss_history.csv", "kernels.csv", "solution.csv"):
            assert (Path(a.out_dir) / name).read_bytes() == (Path(b.out_dir) / name).read_bytes()

    def test_written_config_reproduces_the_run(self, tmp_path):
        bundle = _run_tiny(tmp_path, TINY_FORWARD, subdir="orig")
        config = parse_config(Path(bundle.out_dir) / "config.yaml")
        again = run_command(config, quiet=True, out_override=str(tmp_path / "again"))
        assert len(again.history) == len(bundle.history)
        for (w_again, loss_again), (w, loss) in zip(again.history.records, bundle.history.records):
            assert np.array_equal(w_again, w) and loss_again == loss

    def test_inverse_run_reports_the_speed_estimate(self, tmp_path):
        bundle = _run_tiny(tmp_path, TINY_INVERSE, subdir="inv")
        assert bundle.exit_code == EXIT_OK
        summary = json.loads((Path(bundle.out_dir) / "summary.json").read_text())
        assert "a_est" in summary
        assert 0.1 <= summary["a_est"] <= 1.0
        assert summary["metrics"]["a_rel_error"] >= 0
        with (Path(bundle.out_dir) / "loss_history.csv").open() as fh:
            header = fh.readline().strip().split(",")
        assert header == ["k", "a", "loss"]

    def test_an_inverse_summary_reports_the_largest_solution_error(self, tmp_path):
        out = Path(_run_tiny(tmp_path, TINY_INVERSE, subdir="inv").out_dir)
        metrics = json.loads((out / "summary.json").read_text())["metrics"]
        with (out / "solution.csv").open() as fh:
            errors = [float(row["abs_error"]) for row in csv.DictReader(fh)]
        assert metrics["linf"] == max(errors)
        assert metrics["rel_l2"] > 0

    def test_advection_run_with_fixed_tunables_skips_tuning(self, tmp_path):
        bundle = _run_tiny(tmp_path, TINY_ADVECTION, subdir="adv")
        assert bundle.exit_code == EXIT_OK
        summary = json.loads((Path(bundle.out_dir) / "summary.json").read_text())
        assert summary["n_evaluations"] == 0
        assert summary["stop_reason"] is None
        assert summary["tunables"] == {"f": 1.25, "lam": 1.0, "sigma_f": 3.5}
        assert len(summary["block_losses"]) == 2
        with (Path(bundle.out_dir) / "kernels.csv").open() as fh:
            header = fh.readline().strip().split(",")
        assert header == [
            "block", "center_x", "center_t", "width_x", "width_t", "coefficient", "component",
        ]
        with (Path(bundle.out_dir) / "solution.csv").open() as fh:
            header = fh.readline().strip().split(",")
        assert header == ["x", "t", "predicted", "exact", "abs_error"]
        assert (Path(bundle.out_dir) / "loss_history.csv").read_text() == "k,f,lam,sigma_f,loss\n"

    @pytest.mark.parametrize("order", [("sigma_f", "lam", "f"), ("lam", "f", "sigma_f")])
    def test_advection_tuning_reads_bounds_in_any_order(self, order, tmp_path):
        # each tunable gets its own range, so reading the search vector by
        # position lands out of bounds or swaps f and lam
        bounds = {"f": [1.0, 1.25], "lam": [1.25, 1.5], "sigma_f": [2.5, 4.5]}
        advection = dict(TINY_ADVECTION["advection"], tunables=None, tuning_blocks=1, max_evals=2,
                         bounds={name: bounds[name] for name in order})
        out = tmp_path / "tuned"
        path = _dump(tmp_path, dict(TINY_ADVECTION, advection=advection), name="tuned.yaml")
        assert main(["advection", "--config", str(path), "--out", str(out), "--quiet"]) == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        for name, value in summary["tunables"].items():
            assert bounds[name][0] <= value <= bounds[name][1], name
        with (out / "loss_history.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", *order, "loss"]
        best = min(rows[1:], key=lambda row: float(row[-1]))
        assert summary["tunables"] == {name: float(v) for name, v in zip(order, best[1:-1])}

    def test_baseline_study_reports_schedule_walk(self, tmp_path):
        bundle = _run_tiny(tmp_path, TINY_STUDY, subdir="study")
        assert bundle.exit_code == EXIT_OK
        summary = json.loads((Path(bundle.out_dir) / "summary.json").read_text())
        assert summary["metrics"]["nu_solved"] == 0.05
        assert summary["metrics"]["n_clusters"] == 1
        assert [entry["nu"] for entry in summary["schedule"]] == [0.1, 0.05]
        assert summary["cluster_intervals"]
        assert (Path(bundle.out_dir) / "loss_history.csv").read_text() == "k,loss\n"

    @pytest.mark.parametrize("mapping", [TINY_ADVECTION, TINY_STUDY], ids=["fixed-tunables", "baseline-study"])
    def test_a_run_that_searched_nothing_returns_an_empty_history(self, mapping, tmp_path):
        bundle = _run_tiny(tmp_path, mapping, subdir="unsearched")
        assert isinstance(bundle.history, BoHistory)
        assert len(bundle.history) == 0 and bundle.history.stop_reason is None
        summary = json.loads((Path(bundle.out_dir) / "summary.json").read_text())
        assert summary["n_evaluations"] == 0 and summary["stop_reason"] is None
        with (Path(bundle.out_dir) / "loss_history.csv").open() as fh:
            assert len(fh.readlines()) == 1

    @pytest.mark.parametrize("mapping", [TINY_INVERSE, TINY_DIFFUSIVITY], ids=["speed", "diffusivity"])
    def test_an_inverse_run_rescores_from_its_own_config(self, mapping, tmp_path):
        # the spec built from the written config carries the run's sensors:
        # its incumbent, re-evaluated at its own index, gives the best loss
        bundle = _run_tiny(tmp_path, mapping, subdir="inv")
        out = Path(bundle.out_dir)
        spec = _forward_spec(parse_config(out / "config.yaml"))
        assert spec.sensors is not None and spec.sensors.truth == mapping["sensors"]["truth"]
        summary = json.loads((out / "summary.json").read_text())
        with (out / "loss_history.csv").open() as fh:
            losses = [float(row[-1]) for row in list(csv.reader(fh))[1:]]
        loss, _ = forward_objective(spec, summary["w_opt"], int(np.argmin(losses)), shared_baseline(spec))
        assert np.float64(loss).tobytes() == np.float64(summary["metrics"]["residual_loss"]).tobytes()

    def test_a_speed_run_lists_the_kernels_it_kept(self, tmp_path):
        # no adaptive kernels: the run solves on the baseline kernels it
        # kept, and kernels.csv lists those alone
        mapping = dict(TINY_INVERSE, baseline=dict(TINY_INVERSE["baseline"], sigma_f=0.2))
        out = Path(_run_tiny(tmp_path, mapping, subdir="kept").out_dir)
        n_kernels = json.loads((out / "summary.json").read_text())["metrics"]["n_kernels"]
        with (out / "kernels.csv").open() as fh:
            assert len(fh.readlines()) - 1 == n_kernels
        assert 0 < n_kernels < mapping["baseline"]["n_rbf"]

    def test_a_failed_evaluation_is_recorded_and_the_search_goes_on(self, tmp_path, monkeypatch):
        # evaluation 1's solve fails: the search records it as inf, runs
        # out its budget and grades a finite incumbent
        solves = []

        def second_solve_fails(system, basis):
            solves.append(system)
            if len(solves) == 2:
                raise ArithmeticError("manufactured failure")
            return solve_system(system, basis)

        monkeypatch.setattr("rbfadapt.drivers.solve_system", second_solve_fails)
        bundle = _run_tiny(tmp_path, TINY_FORWARD)
        assert bundle.exit_code == EXIT_OK
        with (Path(bundle.out_dir) / "loss_history.csv").open() as fh:
            losses = [row["loss"] for row in csv.DictReader(fh)]
        assert len(losses) == TINY_FORWARD["search"]["max_evals"]
        assert losses[1] == "inf"
        assert all(np.isfinite(float(loss)) for k, loss in enumerate(losses) if k != 1)
        assert all(np.isfinite(value) for value in bundle.metrics.values())

    def test_budget_exhaustion_with_unmet_target_exits_four(self, tmp_path):
        mapping = dict(TINY_FORWARD)
        mapping["search"] = dict(TINY_FORWARD["search"], max_evals=2, loss_tol=1e-12)
        bundle = _run_tiny(tmp_path, mapping, subdir="budget")
        assert bundle.exit_code == EXIT_BUDGET
        out = Path(bundle.out_dir)
        for name in EXPECTED_FILES:
            assert (out / name).is_file(), name
        summary = json.loads((out / "summary.json").read_text())
        assert summary["stop_reason"] == "budget"
        assert summary["exit_code"] == EXIT_BUDGET

    def test_environment_variable_redirects_output(self, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv(OUT_ENV_VAR, str(env_dir))
        config = parse_config(_dump(tmp_path, TINY_FORWARD, name="env.yaml"))
        bundle = run_command(config, quiet=True)
        assert Path(bundle.out_dir) == env_dir
        assert (env_dir / "summary.json").is_file()

    def test_explicit_override_beats_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_ENV_VAR, str(tmp_path / "ignored"))
        bundle = _run_tiny(tmp_path, TINY_FORWARD, subdir="explicit")
        assert Path(bundle.out_dir) == tmp_path / "explicit"
        assert not (tmp_path / "ignored").exists()


# Each kind's solution.csv: its mesh, and the closed form at the true
# parameter (the sensors' truth, the study's solved nu), not the one the
# search reports.
@pytest.mark.parametrize(
    "mapping, axes, n_rows, exact",
    [
        (TINY_FORWARD, ["x"], 10 * 300, lambda pts, summary: exact_type1(pts[:, 0], 0.05)),
        (TINY_INVERSE, ["x", "t"], 101 * 101, lambda pts, summary: advection_exact(pts[:, 0], pts[:, 1], 0.5, 0.1)),
        (TINY_ADVECTION, ["x", "t"], 2001, lambda pts, summary: advection_exact(pts[:, 0], 0.02, 0.5, 0.05)),
        (
            TINY_STUDY,
            ["x"],
            10 * 500,
            lambda pts, summary: exact_type1(pts[:, 0], summary["metrics"]["nu_solved"]),
        ),
    ],
    ids=["forward", "inverse", "advection", "baseline-study"],
)
def test_solution_table_grades_against_the_true_closed_form(mapping, axes, n_rows, exact, tmp_path):
    bundle = _run_tiny(tmp_path, mapping)
    summary = json.loads((Path(bundle.out_dir) / "summary.json").read_text())
    with (Path(bundle.out_dir) / "solution.csv").open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == axes + ["predicted", "exact", "abs_error"]
    table = np.array(rows[1:], dtype=float)
    assert table.shape == (n_rows, len(axes) + 3)
    pts, predicted, reference, error = table[:, : len(axes)], table[:, -3], table[:, -2], table[:, -1]
    np.testing.assert_allclose(reference, exact(pts, summary), rtol=1e-13, atol=0)
    np.testing.assert_array_equal(error, np.abs(predicted - reference))


TINY_TUNED_MARCH = dict(
    TINY_ADVECTION, advection=dict(TINY_ADVECTION["advection"], tunables=None, tuning_blocks=1, max_evals=2)
)
SUMMARY_KEYS = {"kind", "problem", "seed", "metrics", "timings", "n_evaluations", "stop_reason", "exit_code",
                "provenance"}
SEARCHED_METRICS = {"residual_loss", "n_kernels", "n_evals", "linf", "rel_l2"}
MARCH_METRICS = {"residual_loss", "validation_loss", "linf", "rel_l2", "n_evals"}
MARCH_REPORT = {"tunables", "block_losses", "validation_losses"}


# Each kind's summary.json: its top-level keys (the common ones plus the
# driver's report) and its metric names, which are the driver's own.
@pytest.mark.parametrize(
    "mapping, report, metrics",
    [
        (TINY_FORWARD, {"w_opt"}, SEARCHED_METRICS),
        (TINY_DIFFUSIVITY, {"w_opt", "nu_est"}, SEARCHED_METRICS | {"nu_rel_error"}),
        (TINY_INVERSE, {"w_opt", "a_est"}, SEARCHED_METRICS | {"a_rel_error"}),
        (TINY_TUNED_MARCH, MARCH_REPORT, MARCH_METRICS),
        (TINY_ADVECTION, MARCH_REPORT, MARCH_METRICS),
        (TINY_STUDY, {"schedule", "cluster_intervals"}, {"nu_solved", "n_clusters", "residual_loss", "n_evals"}),
    ],
    ids=["forward", "inverse-nu", "inverse-a", "tuned-march", "fixed-march", "baseline-study"],
)
def test_summary_layout_is_the_driver_result(mapping, report, metrics, tmp_path, monkeypatch):
    results = []
    builder = cli_io._BUILDERS[mapping["kind"]]

    def recorded(config):
        run = builder(config)
        return lambda: results.append(run()) or results[-1]

    monkeypatch.setitem(cli_io._BUILDERS, mapping["kind"], recorded)
    bundle = _run_tiny(tmp_path, mapping)
    summary = json.loads((Path(bundle.out_dir) / "summary.json").read_text())
    (result,) = results
    assert set(summary) == SUMMARY_KEYS | report
    assert set(result.report) == report
    assert set(summary["metrics"]) == metrics
    assert summary["metrics"] == result.metrics
    assert {key: summary[key] for key in report} == json.loads(json.dumps(result.report))
    assert summary["n_evaluations"] == len(result.history) == result.metrics["n_evals"]


def test_csv_rows_format_as_the_per_value_join(tmp_path):
    # the writer's one-template rows against the per-value join:
    # str(int) for integer columns, format(float, ".17g") for the rest
    floats = [np.inf, -np.inf, np.nan, -0.0, 0.0, 5e-324, 1e308, -1e-308, 0.1, 1 / 3, 2.0**53 + 1]
    rows = [
        (k, np.int64(-k), v, np.float64(-v), int(2**62) + k)
        for k, v in enumerate(floats)
    ]
    columns = [
        np.arange(len(floats)),
        -np.arange(len(floats)),
        np.array(floats),
        -np.array(floats),
        np.arange(len(floats)) + 2**62,
    ]
    path = tmp_path / "table.csv"
    _write_csv(path, ["k", "n", "a", "b", "big"], columns)
    old = ["k,n,a,b,big"] + [
        ",".join(str(int(v)) if isinstance(v, (int, np.integer)) else format(float(v), ".17g") for v in row)
        for row in rows
    ]
    assert path.read_text() == "\n".join(old) + "\n"
    _write_csv(path, ["k", "loss"], [np.arange(0), np.array([])])
    assert path.read_text() == "k,loss\n"


# ---------------------------------------------------------------------------
# command line entry point


class TestMain:
    def test_forward_subcommand_runs_a_config(self, tmp_path, capsys):
        path = _dump(tmp_path, TINY_FORWARD)
        rc = main(["forward", "--config", str(path), "--out", str(tmp_path / "cli")])
        assert rc == EXIT_OK
        captured = capsys.readouterr()
        assert "results written to" in captured.out
        assert (tmp_path / "cli" / "summary.json").is_file()

    def test_quiet_suppresses_the_report(self, tmp_path, capsys):
        path = _dump(tmp_path, TINY_FORWARD)
        rc = main(["forward", "--config", str(path), "--out", str(tmp_path / "q"), "--quiet"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_seed_flag_changes_the_run(self, tmp_path):
        path = _dump(tmp_path, TINY_FORWARD)
        main(["forward", "--config", str(path), "--out", str(tmp_path / "s0"), "--quiet"])
        main(["forward", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "s1"), "--quiet"])
        s0 = json.loads((tmp_path / "s0" / "summary.json").read_text())
        s1 = json.loads((tmp_path / "s1" / "summary.json").read_text())
        assert s0["seed"] == 0 and s1["seed"] == 1
        assert s0["w_opt"] != s1["w_opt"]

    def test_missing_config_exits_two(self, tmp_path, capsys):
        rc = main(["forward", "--config", str(tmp_path / "absent.yaml"), "--quiet"])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_kind_mismatch_exits_two(self, tmp_path, capsys):
        path = _dump(tmp_path, {"kind": "forward"})
        rc = main(["inverse", "--config", str(path), "--quiet"])
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_a_non_finite_metric_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("rbfadapt.drivers.error_metrics", lambda predicted, reference: {"linf": np.nan, "rel_l2": 0.0})
        path = _dump(tmp_path, TINY_FORWARD)
        rc = main(["forward", "--config", str(path), "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == EXIT_NUMERICAL
        assert capsys.readouterr().err == "numerical failure: metric linf is not finite\n"

    def test_unsolvable_study_exits_three(self, tmp_path, capsys):
        mapping = {
            "kind": "baseline-study",
            "problem": {"type": "convdiff1"},
            "curriculum": {"schedule": [0.001]},
        }
        path = _dump(tmp_path, mapping)
        rc = main(["baseline-study", "--config", str(path), "--out", str(tmp_path / "x"), "--quiet"])
        assert rc == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [4, 5])
    def test_upper_edge_proposal_runs_the_march(self, seed, tmp_path):
        # these searches propose u = 1 for f, which once mapped one ulp
        # above 0.9, and the march refused it with an uncaught ValueError
        path = _dump(tmp_path, _march(n_blocks=3, tuning_blocks=1, max_evals=25, n_colloc=100, n_rbf=36,
                                      n_boundary=20, n_initial=50,
                                      bounds={"f": [0.3, 0.9], "lam": [1.0, 1.5], "sigma_f": [2.5, 4.5]}))
        out = tmp_path / "out"
        assert main(["advection", "--config", str(path), "--seed", str(seed), "--out", str(out), "--quiet"]) == EXIT_OK
        with (out / "loss_history.csv").open() as fh:
            assert 0.9 in [float(row["f"]) for row in csv.DictReader(fh)]

    def test_an_empty_out_flag_is_refused(self, tmp_path, capsys, monkeypatch):
        # an empty --out once fell through to the config's out
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(cli_io.OUT_ENV_VAR, raising=False)
        rc = main(["baseline-study", "--out", "", "--quiet"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: out: expected a non-empty path string\n"
        assert list(tmp_path.iterdir()) == []

    def test_an_unusable_output_directory_is_refused_before_the_run(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli_io, "run_kapi", lambda spec: calls.append(spec))
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        path = _dump(tmp_path, TINY_FORWARD)
        rc = main(["forward", "--config", str(path), "--out", str(taken), "--quiet"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: out: ")
        assert calls == []

    def test_unknown_subcommand_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_run_config_is_immutable(self):
        config = default_config("forward")
        with pytest.raises(Exception):
            config.kind = "inverse"
        assert isinstance(config, RunConfig)


# ---------------------------------------------------------------------------
# pinned echo text and error messages

ECHO_DIR = Path(__file__).parent / "config_echo"

# every (kind, problem type) pair a run accepts
PROFILES = (
    ("forward", "convdiff1"),
    ("forward", "convdiff2"),
    ("forward", "poisson"),
    ("inverse", "convdiff1"),
    ("inverse", "convdiff2"),
    ("inverse", "advection"),
    ("advection", "advection"),
    ("baseline-study", "convdiff1"),
    ("baseline-study", "convdiff2"),
)


def _echo(config, tmp_path):
    return write_config(config, tmp_path / "config.yaml").read_text()


class TestEchoText:
    """``config.yaml`` text, byte for byte: every default and the key order."""

    @pytest.mark.parametrize("kind,ptype", PROFILES, ids=lambda v: v)
    def test_default_profile(self, kind, ptype, tmp_path):
        config = parse_config(_dump(tmp_path, {"kind": kind, "problem": {"type": ptype}}))
        assert _echo(config, tmp_path) == (ECHO_DIR / f"{kind}-{ptype}.yaml").read_text()

    @pytest.mark.parametrize("kind", KINDS)
    def test_default_config(self, kind, tmp_path):
        config = default_config(kind)
        expected = ECHO_DIR / f"{kind}-{config.problem['type']}.yaml"
        assert _echo(config, tmp_path) == expected.read_text()

    @pytest.mark.parametrize("path", TestDocumentedExamples.EXAMPLES, ids=lambda p: p.stem)
    def test_documented_example(self, path, tmp_path):
        expected = ECHO_DIR / f"example-{path.stem}.yaml"
        assert _echo(parse_config(path), tmp_path) == expected.read_text()


FORWARD_BOUNDS = {"mu": [0.9, 0.99], "tau": [0.05, 0.5], "lam": [0.5, 0.9]}
INVERSE_BOUNDS = {**FORWARD_BOUNDS, "mu_nu": [1e-4, 1e-1], "sigma_nu": [1e-6, 1e-2]}
POISSON_BOUNDS = {"f": [0.5, 1.0], "mu_x": [0.4, 0.6], "mu_y": [0.4, 0.6], "tau": [0.2, 1.0], "lam": [0.5, 1.0]}
MARCH_BOUNDS = {"f": [1.0, 1.5], "lam": [1.0, 1.5], "sigma_f": [2.5, 4.5]}


def _march_box(name, box) -> dict:
    """The march's default bounds with name's box replaced, as a file's
    bounds mapping."""
    return {**MARCH_BOUNDS, name: box}


def _search_bounds(mapping) -> SearchBounds:
    """A file's bounds mapping as the library's SearchBounds."""
    return SearchBounds([(name, lo, hi) for name, (lo, hi) in mapping.items()])


def _forward(**sections):
    return {"kind": "forward", "problem": {"type": "convdiff1"}, **sections}


def _inverse(ptype="convdiff1", **sections):
    return {"kind": "inverse", "problem": {"type": ptype}, **sections}


def _march(**advection):
    return {"kind": "advection", "advection": advection}


def _study(**curriculum):
    return {"kind": "baseline-study", "curriculum": curriculum}


# (file contents, subcommand, full message): one case per distinct message
BAD_INPUTS = [
    pytest.param(_forward(problem=[1, 2]), None,
                 "problem: expected a mapping of keys to values", id="not-a-mapping"),
    pytest.param(_forward(colour=1), None, "colour: unknown key", id="unknown-top-level-key"),
    pytest.param(_forward(search={"n_adaptives": 2}), None,
                 "search.n_adaptives: unknown key", id="unknown-section-key"),
    pytest.param(_forward(seed=1.5), None, "seed: expected an integer, got 1.5", id="integer"),
    pytest.param(_forward(seed=-1), None, "seed: must be >= 0, got -1", id="integer-minimum"),
    pytest.param(_forward(problem={"nu": True}), None,
                 "problem.nu: expected a number, got True", id="number-not-bool"),
    pytest.param(_forward(problem={"nu": "small"}), None,
                 "problem.nu: expected a number, got 'small'", id="number-from-text"),
    pytest.param(_forward(problem={"nu": [0.1]}), None,
                 "problem.nu: expected a number, got [0.1]", id="number-type"),
    pytest.param(_forward(problem={"nu": float("inf")}), None,
                 "problem.nu: must be finite", id="number-finite"),
    pytest.param(_forward(baseline={"sigma_f": 0}), None,
                 "baseline.sigma_f: must be positive, got 0", id="positive"),
    pytest.param(_forward(search={"isotropic_widths": False}), None,
                 "search.isotropic_widths: per-axis widths were removed: every adaptive kernel has one width",
                 id="bool"),
    pytest.param(_forward(search={"width_sharing": "axis"}), None,
                 "search.width_sharing: expected one of ['component', 'kernel'], got 'axis'",
                 id="choice"),
    pytest.param({"kind": "forward"}, "inverse",
                 "kind: config says 'forward' but the 'inverse' command was invoked",
                 id="kind-disagrees"),
    pytest.param({}, None, "kind: missing (set it in the file or pick a subcommand)",
                 id="kind-missing"),
    pytest.param(_forward(out=""), None, "out: expected a non-empty path string", id="out"),
    pytest.param({"kind": "advection", "baseline": {"n_rbf": 10}}, None,
                 "baseline: not used by advection runs", id="section-foreign-to-advection"),
    pytest.param(_forward(advection={"n_blocks": 2}), None,
                 "advection: not used by forward runs", id="advection-section-foreign"),
    pytest.param({"kind": "baseline-study", "search": {"max_evals": 2}}, None,
                 "search: not used by baseline-study runs", id="section-foreign-to-study"),
    pytest.param(_inverse(curriculum={"threshold": 0.1}), None,
                 "curriculum: not used by inverse runs", id="curriculum-section-foreign"),
    pytest.param(_forward(sensors={"count": 5}), None,
                 "sensors: not used by forward runs", id="sensors-section-foreign"),
    pytest.param({"kind": "advection", "problem": {"type": "convdiff1"}}, None,
                 "problem.type: the advection command runs the transport problem only",
                 id="type-for-advection"),
    pytest.param({"kind": "forward", "problem": {"type": "advection"}}, None,
                 "problem.type: use the advection command for the transport problem",
                 id="type-for-forward"),
    pytest.param({"kind": "baseline-study", "problem": {"type": "poisson"}}, None,
                 "problem.type: the baseline study sweeps the 1D convection-diffusion problems",
                 id="type-for-study"),
    pytest.param(_inverse("poisson"), None,
                 "problem.type: inverse runs need a closed-form solution "
                 "(convdiff1, convdiff2, advection)", id="type-for-inverse"),
    pytest.param(_forward(problem={"nu": -0.1}), None,
                 "problem.nu: nu must be positive, got -0.1", id="nu-positive"),
    pytest.param(_forward(problem={"speed": 0.5}), None,
                 "problem.speed: only the transport problem has an advection speed",
                 id="speed-without-transport"),
    pytest.param(_forward(search={"bounds": {"mu": [0.9]}}), None,
                 "search.bounds.mu: expected [lower, upper], got [0.9]", id="bounds-pair"),
    pytest.param(_forward(search={"bounds": {"mu": [0.99, 0.9]}}), None,
                 "search.bounds.mu: lower bound must be below upper, got [0.99, 0.9]",
                 id="bounds-order"),
    pytest.param(_forward(search={"n_adaptive": 0}), None,
                 "search.n_adaptive: forward tuning needs at least one adaptive component",
                 id="forward-adapts"),
    pytest.param(_forward(search={"bounds": {}}), None,
                 "search.bounds: at least one parameter must be searched", id="bounds-empty"),
    pytest.param(_forward(search={"log10": "mu"}), None,
                 "search.log10: expected a list of parameter names, got 'mu'", id="log10-list"),
    pytest.param(_forward(search={"log10": ["f"]}), None,
                 "search.log10: 'f' is not a searched parameter", id="log10-searched"),
    pytest.param(_forward(search={"bounds": {**FORWARD_BOUNDS, "lam": [-0.4, -0.15]},
                                  "fixed": {"f": 0.5}, "log10": ["lam"]}), None,
                 "search.log10: log-scale parameter 'lam' needs positive bounds",
                 id="log10-positive"),
    pytest.param(_forward(search={"fixed": {"f": 0.5, "mu": 0.95}}), None,
                 "search.fixed: parameters both searched and fixed: ['mu']", id="fixed-overlap"),
    pytest.param(_forward(search={"bounds": {"mu": [0.9, 0.99], "nu": [0.1, 0.2]}}), None,
                 "search.bounds: missing ['f', 'lam', 'tau']; unexpected ['nu'] "
                 "(need exactly ['f', 'lam', 'mu', 'tau'])", id="search-vector"),
    pytest.param(_forward(search={"fixed": {"f": 0.5, "zz": 1}}), None,
                 "search.fixed: unexpected ['zz'] (need exactly ['f', 'lam', 'mu', 'tau'])",
                 id="stray-fixed-name"),
    pytest.param(_forward(search={"eta": 0.5}), None,
                 "search.eta: must not exceed a tenth of the domain's longest side (0.1), got 0.5",
                 id="eta-above-a-tenth"),
    pytest.param(_forward(search={"bounds": {**FORWARD_BOUNDS, "tau": [-0.5, -0.1]},
                                  "fixed": {"f": 0.5}}), None,
                 "search.bounds.tau: tau must stay positive, but reaches -0.5", id="tau-positive"),
    pytest.param(_inverse(search={"bounds": {**INVERSE_BOUNDS, "sigma_nu": [-0.01, 0.01]},
                                  "fixed": {"f": 0.5}}), None,
                 "search.bounds.sigma_nu: sigma_nu must stay nonnegative, but reaches -0.01",
                 id="sigma-nu-nonnegative"),
    pytest.param(_inverse(sensors={"truth": {"nu": 0.01, "a": 0.5}}), None,
                 "sensors.truth: give exactly one true parameter: nu or a", id="truth-one"),
    pytest.param(_inverse(sensors={"truth": {"a": 0.5}}), None,
                 "sensors.truth: the speed 'a' belongs to the transport problem", id="truth-a"),
    pytest.param(_inverse(sensors={"noise": -0.1}), None,
                 "sensors.noise: must be nonnegative, got -0.1", id="noise"),
    pytest.param(_march(bounds={"f": [1.0, 1.5]}), None,
                 "advection.bounds: tunables are exactly f, lam, sigma_f; got ['f']",
                 id="advection-bounds"),
    pytest.param(_march(tunables=[1.0, 2.0]), None,
                 "advection.tunables: expected [f, lam, sigma_f], got [1.0, 2.0]",
                 id="tunables-length"),
    pytest.param({"kind": "forward", "problem": {"type": "poisson"}, "baseline": {"n_colloc": 1601, "n_rbf": 401}},
                 None, "baseline.n_colloc: 1601 points lay out only as 1 x 1601; a 2D grid needs three per side",
                 id="colloc-grid-one-row"),
    pytest.param({"kind": "forward", "problem": {"type": "poisson"}, "baseline": {"n_rbf": 401}}, None,
                 "baseline.n_rbf: 401 points lay out only as 1 x 401; a 2D grid needs three per side",
                 id="kernel-grid-one-row"),
    pytest.param({"kind": "forward", "problem": {"type": "poisson"}, "baseline": {"n_colloc": 1594}}, None,
                 "baseline.n_colloc: 1594 points lay out only as 2 x 797; a 2D grid needs three per side",
                 id="colloc-grid-two-rows"),
    pytest.param(_march(n_colloc=601), None,
                 "advection.n_colloc: 601 points lay out only as 1 x 601; a 2D grid needs three per side",
                 id="march-colloc-grid-one-row"),
    pytest.param(_march(n_rbf=151), None,
                 "advection.n_rbf: 151 points lay out only as 1 x 151; a 2D grid needs three per side",
                 id="march-kernel-grid-one-row"),
    pytest.param(_inverse("advection", baseline={"n_initial": None}), None,
                 "baseline.n_initial: the transport problem needs a count of initial rows",
                 id="transport-without-initial-rows"),
    pytest.param({"kind": "baseline-study", "problem": {"type": "convdiff2"}, "baseline": {"n_boundary": 50}}, None,
                 "baseline.n_boundary: the convdiff2 problem has exactly 2 boundary points, got 50",
                 id="study-boundary-count"),
    pytest.param(_study(schedule=[]), None,
                 "curriculum.schedule: expected a non-empty list, got []", id="schedule-list"),
    pytest.param(_study(schedule=[0.1, 0.1]), None,
                 "curriculum.schedule: values must be strictly decreasing",
                 id="schedule-decreasing"),
]


class TestErrorMessages:
    @pytest.mark.parametrize("mapping,subcommand,message", BAD_INPUTS)
    def test_full_message(self, mapping, subcommand, message, tmp_path):
        with pytest.raises(ConfigValueError) as err:
            parse_config(_dump(tmp_path, mapping), kind=subcommand)
        assert str(err.value) == message


# inputs a driver would reject mid-run; parsing must catch them first
LATE_MISTAKES = [
    pytest.param(_forward(baseline={"n_colloc": 100, "n_rbf": 200}), "forward",
                 "baseline.n_rbf", id="more-kernels-than-points"),
    pytest.param(_march(n_colloc=100, n_rbf=150), "advection",
                 "advection.n_rbf", id="more-march-kernels-than-points"),
    pytest.param(_march(n_rbf=1), "advection", "advection.n_rbf", id="one-march-kernel"),
    pytest.param({"kind": "forward", "problem": {"type": "poisson"}, "baseline": {"n_boundary": 3}},
                 "forward", "baseline.n_boundary", id="three-points-round-the-square"),
    pytest.param(_march(n_boundary=1), "advection", "advection.n_boundary", id="one-march-edge-point"),
    pytest.param(_inverse("advection", baseline={"n_boundary": 1}), "inverse",
                 "baseline.n_boundary", id="one-slab-edge-point"),
    pytest.param(_forward(baseline={"n_boundary": 50}), "forward",
                 "baseline.n_boundary", id="fifty-end-points"),
    pytest.param(_inverse(baseline={"n_boundary": 1}), "inverse", "baseline.n_boundary", id="one-end-point"),
    pytest.param({"kind": "baseline-study", "baseline": {"n_boundary": 3}}, "baseline-study",
                 "baseline.n_boundary", id="three-study-end-points"),
    pytest.param(_inverse("advection", sensors={"placement": "boundary_layer_biased"}), "inverse",
                 "sensors.placement", id="biased-sensors-in-space-time"),
    pytest.param(_forward(baseline={"n_initial": 40}), "forward",
                 "baseline.n_initial", id="initial-rows-without-a-time-axis"),
    pytest.param(_march(tunables=[9, 1, 3]), "advection",
                 "advection.tunables", id="tunables-outside-bounds"),
    pytest.param(_march(n_blocks=2), "advection",
                 "advection.tuning_blocks", id="more-tuning-blocks-than-blocks"),
    pytest.param(_march(n_blocks=2, n_colloc=100, n_rbf=36, bounds=_march_box("sigma_f", [-4.5, -1.0])),
                 "advection", "advection.bounds.sigma_f", id="sigma-f-box-negative"),
    pytest.param(_march(n_blocks=2, n_colloc=100, n_rbf=36, bounds=_march_box("f", [-1.5, -1.0])),
                 "advection", "advection.bounds.f", id="f-box-negative"),
    # the march's gradient clusters need three initial points; two once crashed in the first block
    pytest.param(_march(n_blocks=2, n_colloc=100, n_boundary=20, n_rbf=36, n_initial=2, tunables=[1.2, 1.2, 3.0]),
                 "advection", "advection.n_initial", id="two-initial-points"),
    # so do the study's, once found after the whole schedule was solved
    pytest.param({"kind": "baseline-study", "baseline": {"n_colloc": 2, "n_rbf": 2}}, "baseline-study",
                 "baseline.n_colloc", id="two-study-points"),
    pytest.param(_forward(search={"eta": 0.5}), "forward", "search.eta", id="eta-above-a-tenth"),
    pytest.param(_inverse("advection", search={"eta": 0.25}), "inverse",
                 "search.eta", id="eta-above-a-tenth-of-space-time"),
    pytest.param(_forward(search={"bounds": {**FORWARD_BOUNDS, "tau": [-0.5, -0.1]},
                                  "fixed": {"f": 0.5}}), "forward",
                 "search.bounds.tau", id="tau-reaches-zero"),
    pytest.param({"kind": "forward", "problem": {"type": "poisson"},
                  "search": {"bounds": {**POISSON_BOUNDS, "f": [0.0, 1.0]}}}, "forward",
                 "search.bounds.f", id="fraction-reaches-zero"),
    pytest.param(_forward(search={"fixed": {"f": -0.5}}), "forward",
                 "search.fixed.f", id="fixed-fraction-negative"),
    pytest.param(_inverse(search={"bounds": {**INVERSE_BOUNDS, "mu_nu": [-0.1, 0.1]},
                                  "fixed": {"f": 0.5}}), "inverse",
                 "search.bounds.mu_nu", id="mu-nu-reaches-zero"),
    pytest.param(_inverse(search={"bounds": {**INVERSE_BOUNDS, "sigma_nu": [-0.01, 0.01]},
                                  "fixed": {"f": 0.5}}), "inverse",
                 "search.bounds.sigma_nu", id="negative-sigma-nu"),
    # the sensors measure at the truth, the run reports the problem's value
    pytest.param(_inverse(problem={"nu": 0.05}), "inverse", "sensors.truth", id="truth-nu-differs"),
    pytest.param(_inverse("advection", problem={"type": "advection", "speed": 0.9}), "inverse",
                 "sensors.truth", id="truth-speed-differs"),
    # a fixed estimate entry once reported a perfect estimate the run never made
    pytest.param(_inverse(search={"bounds": {**FORWARD_BOUNDS, "sigma_nu": [1e-6, 1e-2]},
                                  "fixed": {"f": 0.5, "mu_nu": 0.01}}), "inverse",
                 "search.fixed.mu_nu", id="fixed-diffusivity-estimate"),
    pytest.param(_inverse("advection", search={"n_adaptive": 1, "fixed": {"a": 0.5, "f": 0.5},
                                               "bounds": {"mu_x": [-0.5, 0.5], "mu_y": [0.2, 0.8],
                                                          "tau": [0.2, 1.0], "lam": [0.5, 1.0]}}), "inverse",
                 "search.fixed.a", id="fixed-speed-estimate"),
]


# (search section of a file, the same change to the library spec, message):
# the run spec refuses what parsing refuses, in the same words
SPEC_REFUSALS = [
    pytest.param(_forward(search={"bounds": {**FORWARD_BOUNDS, "tau": [-0.05, 0.5]}, "fixed": {"f": 0.5}}),
                 {"bounds": SearchBounds([("mu", 0.9, 0.99), ("tau", -0.05, 0.5), ("lam", 0.5, 0.9)])},
                 "search.bounds.tau: tau must stay positive, but reaches -0.05", id="tau-box-reaches-zero"),
    pytest.param(_forward(search={"fixed": {"f": -0.5}}), {"fixed": {"f": -0.5}},
                 "search.fixed.f: f must stay positive, but reaches -0.5", id="fixed-fraction-negative"),
    pytest.param(_forward(search={"eta": -0.1}), {"eta": -0.1},
                 "search.eta: must be positive, got -0.1", id="eta-positive"),
    pytest.param(_forward(search={"eta": 0.5}), {"eta": 0.5},
                 "search.eta: must not exceed a tenth of the domain's longest side (0.1), got 0.5",
                 id="eta-above-a-tenth"),
    pytest.param(_forward(search={"width_sharing": "axis"}), {"width_sharing": "axis"},
                 "search.width_sharing: expected one of ['component', 'kernel'], got 'axis'", id="width-sharing"),
    pytest.param(_inverse(search={"bounds": {**INVERSE_BOUNDS, "sigma_nu": [-0.01, 0.01]}, "fixed": {"f": 0.5}}),
                 {"bounds": _search_bounds({**INVERSE_BOUNDS, "sigma_nu": [-0.01, 0.01]})},
                 "search.bounds.sigma_nu: sigma_nu must stay nonnegative, but reaches -0.01",
                 id="sigma-nu-nonnegative"),
    pytest.param(_inverse(search={"bounds": {**INVERSE_BOUNDS, "mu_nu": [-0.1, 0.1]}, "fixed": {"f": 0.5}}),
                 {"bounds": _search_bounds({**INVERSE_BOUNDS, "mu_nu": [-0.1, 0.1]})},
                 "search.bounds.mu_nu: mu_nu must stay positive, but reaches -0.1", id="mu-nu-positive"),
]


@pytest.mark.parametrize("mapping,change,message", SPEC_REFUSALS)
def test_the_spec_refuses_what_parsing_refuses(mapping, change, message, tmp_path):
    with pytest.raises(ConfigValueError) as parsed:
        parse_config(_dump(tmp_path, mapping))
    assert str(parsed.value) == message
    spec = _forward_spec(default_config(mapping["kind"]))
    with pytest.raises(ValueError) as built:
        replace(spec, **change)
    assert "search." + str(built.value) == message


# (advection section of a file, the same change to the library spec, message)
MARCH_REFUSALS = [
    pytest.param(_march(tunables=[9, 1, 3]), {"tunables": (9, 1, 3)},
                 "advection.tunables: f = 9 lies outside its bounds [1, 1.5]", id="tunables-outside-bounds"),
    pytest.param(_march(n_blocks=2), {"n_blocks": 2},
                 "advection.tuning_blocks: must lie in [1, 2], got 10", id="more-tuning-blocks-than-blocks"),
    # a nonpositive sigma_f or f once crashed the march mid-run
    pytest.param(_march(bounds=_march_box("sigma_f", [-4.5, -1.0])),
                 {"bounds": _search_bounds(_march_box("sigma_f", [-4.5, -1.0]))},
                 "advection.bounds.sigma_f: sigma_f must stay positive, but reaches -4.5", id="sigma-f-box-negative"),
    pytest.param(_march(bounds=_march_box("f", [-1.5, -1.0])),
                 {"bounds": _search_bounds(_march_box("f", [-1.5, -1.0]))},
                 "advection.bounds.f: f must stay positive, but reaches -1.5", id="f-box-negative"),
    pytest.param(_march(bounds=_march_box("sigma_f", [-1.0, 4.5]), tunables=[1.2, 1.2, -0.5]),
                 {"bounds": _search_bounds(_march_box("sigma_f", [-1.0, 4.5])),
                  "tunables": (1.2, 1.2, -0.5)},
                 "advection.bounds.sigma_f: sigma_f must stay positive, but reaches -1", id="negative-tunable-inside-its-box"),
]


@pytest.mark.parametrize("mapping,change,message", MARCH_REFUSALS)
def test_the_march_spec_refuses_what_parsing_refuses(mapping, change, message, tmp_path):
    with pytest.raises(ConfigValueError) as parsed:
        parse_config(_dump(tmp_path, mapping))
    assert str(parsed.value) == message
    with pytest.raises(ValueError) as built:
        replace(TimeBlockSpec(), **change)
    assert "advection." + str(built.value) == message


def test_the_march_defaults_are_the_library_defaults():
    assert _march_spec(default_config("advection")) == TimeBlockSpec()


def test_the_march_at_a_seed_is_the_library_spec_at_that_seed():
    # the seed drives the search too: criterion 6's TimeBlockSpec(seed=1) is
    # docs/examples/advection.yaml's run, not a search at another seed
    assert _march_spec(replace(default_config("advection"), seed=1)) == TimeBlockSpec(seed=1)


class TestMistakesCaughtAtParse:
    @pytest.mark.parametrize("mapping,subcommand,key", LATE_MISTAKES)
    def test_exits_two_naming_the_key(self, mapping, subcommand, key, tmp_path, capsys):
        path = _dump(tmp_path, mapping)
        rc = main([subcommand, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert not (tmp_path / "out").exists()

    def test_negative_speed_is_named(self, tmp_path):
        path = _dump(tmp_path, {"kind": "advection", "problem": {"speed": -0.5}})
        with pytest.raises(ConfigValueError) as err:
            parse_config(path)
        assert str(err.value) == "problem.speed: must be positive, got -0.5"


def _first_table_keys(text, heading):
    """Backticked names in the first column of the first table under a heading."""
    lines = text.split(f"\n## {heading}", 1)[1].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start + 2:])
    return {name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])}


def test_every_table_key_is_documented():
    # each key table lists exactly the keys that parse; search's second
    # table lists defaults, so only the first table of a section counts
    from rbfadapt.cli_io import SCHEMA

    text = (Path(__file__).parent.parent / "docs" / "configuration.md").read_text()
    assert _first_table_keys(text, "Top-level keys") == {"kind", "seed", "out", *SCHEMA}
    for section, spec in SCHEMA.items():
        assert _first_table_keys(text, f"`{section}`") == set(spec.keys), section


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # scipy.stats takes about half a second to import, and nothing needs it
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    script = "import sys, rbfadapt.cli_io; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
