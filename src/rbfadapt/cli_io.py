"""Configuration files, run commands, and result persistence.

A run is described by a YAML file with nested sections.  Every section
key has a documented default (see ``default_config``), unknown keys are
rejected by name, and the parsed configuration echoes back to disk so a
run directory always carries the exact inputs that produced it.

Persisted outputs per run:

* ``config.yaml``   — the fully resolved configuration (provenance echo)
* ``summary.json``  — scalar results: metrics, tuned parameters, timings
* ``loss_history.csv`` — one row per objective evaluation ``(k, w..., loss)``
* ``kernels.csv``   — final model kernels: centers, widths, coefficient,
  adaptive-component tag (0 marks the fixed baseline grid)
* ``solution.csv``  — solution samples on the test mesh, with the
  reference values and pointwise errors when a reference exists

Numeric CSV fields carry 17 significant digits, enough to reconstruct
the exact double-precision values.  Exit codes: 0 success, 2
configuration error, 3 numerical failure, 4 evaluation budget exhausted
before reaching the configured loss target (results are still written).
The output directory may be overridden with the ``RBFADAPT_OUT``
environment variable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from .bayesopt import BoConfig, BoHistory, SearchBounds
from .blas import fixed_blas_threads
from .drivers import (
    ForwardRunSpec,
    InverseRunSpec,
    SensorPlacement,
    TimeBlockSpec,
    error_metrics,
    generate_sensor_data,
    hyperparam_names,
    run_advection_forward,
    run_baseline_curriculum,
    run_inverse,
    run_kapi_forward,
)
from .problems import (
    advection1d,
    advection_exact,
    convdiff_type1,
    convdiff_type2,
    poisson2d,
)
from .sampling import BaselineConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BUDGET = 4

KINDS = ("forward", "inverse", "advection", "baseline-study")
PROBLEM_TYPES = ("convdiff1", "convdiff2", "poisson", "advection")

OUT_ENV_VAR = "RBFADAPT_OUT"


class ConfigError(Exception):
    """Base class for configuration problems (exit code 2)."""


class ConfigFileMissingError(ConfigError):
    """The configuration file does not exist."""


class ConfigSyntaxError(ConfigError):
    """The configuration file is not well-formed YAML."""


class ConfigValueError(ConfigError):
    """A configuration field has an invalid or unknown value."""


class NumericalFailureError(Exception):
    """A solve or search failed numerically (exit code 3)."""


# ---------------------------------------------------------------------------
# configuration model


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description; every default already applied."""

    kind: str
    problem: dict
    seed: int
    out: str
    baseline: Optional[dict] = None
    search: Optional[dict] = None
    sensors: Optional[dict] = None
    advection: Optional[dict] = None
    curriculum: Optional[dict] = None


@dataclass(frozen=True)
class MetricsRecord:
    """Pointwise comparison of a solution sample against a reference."""

    linf: float
    rel_l2: float
    errors: np.ndarray


@dataclass(frozen=True)
class ResultBundle:
    """Everything a run persists, returned for programmatic use."""

    config: RunConfig
    history_rows: tuple  # ((k, w..., loss), ...), one row per evaluation
    kernel_rows: tuple
    solution_rows: tuple
    metrics: dict
    extras: dict
    timings: dict
    exit_code: int
    out_dir: str
    files: tuple


# ---------------------------------------------------------------------------
# value coercion helpers (each failure names the offending key)


def _fail(key: str, message: str):
    raise ConfigValueError(f"{key}: {message}")


def _as_mapping(value, key: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        _fail(key, "expected a mapping of keys to values")
    return value


def _check_keys(mapping: dict, allowed, where: str):
    for k in mapping:
        if k not in allowed:
            _fail(f"{where}.{k}" if where else str(k), "unknown key")


def _as_int(value, key: str, minimum: Optional[int] = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(key, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(key, f"must be >= {minimum}, got {value}")
    return int(value)


def _as_float(value, key: str) -> float:
    if isinstance(value, bool):
        _fail(key, f"expected a number, got {value!r}")
    if isinstance(value, str):
        # YAML 1.1 reads exponent forms without a decimal point ("1e-4")
        # as strings; accept them rather than surprise the author
        try:
            value = float(value)
        except ValueError:
            _fail(key, f"expected a number, got {value!r}")
    if not isinstance(value, (int, float)):
        _fail(key, f"expected a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        _fail(key, "must be finite")
    return out


def _as_positive_float(value, key: str) -> float:
    out = _as_float(value, key)
    if out <= 0:
        _fail(key, f"must be positive, got {out:g}")
    return out


def _as_bool(value, key: str) -> bool:
    if not isinstance(value, bool):
        _fail(key, f"expected true/false, got {value!r}")
    return value


def _as_choice(value, key: str, choices) -> str:
    if value not in choices:
        _fail(key, f"expected one of {sorted(choices)}, got {value!r}")
    return value


def _as_optional(value, key: str, convert):
    return None if value is None else convert(value, key)


# ---------------------------------------------------------------------------
# defaults


def _search_defaults(kind: str, ptype: str) -> dict:
    """Documented search-section defaults per run kind and problem type."""
    if kind == "forward":
        if ptype == "poisson":
            return {
                "n_adaptive": 1,
                "max_evals": 100,
                "loss_tol": None,
                "bounds": {
                    "f": [0.5, 1.0],
                    "mu_x": [0.4, 0.6],
                    "mu_y": [0.4, 0.6],
                    "tau": [0.2, 1.0],
                    "lam": [0.5, 1.0],
                },
                "log10": [],
                "fixed": {},
                "eta": None,
                "isotropic_widths": True,
                "width_sharing": "component",
            }
        return {
            "n_adaptive": 1,
            "max_evals": 100,
            "loss_tol": 1e-6,
            "bounds": {"mu": [0.9, 0.99], "tau": [0.05, 0.5], "lam": [0.5, 0.9]},
            "log10": [],
            "fixed": {"f": 0.5},
            "eta": None,
            "isotropic_widths": True,
            "width_sharing": "component",
        }
    # inverse
    if ptype == "advection":
        return {
            "n_adaptive": 0,
            "max_evals": 20,
            "loss_tol": None,
            "bounds": {"a": [0.1, 1.0]},
            "log10": [],
            "fixed": {},
            "eta": None,
            "isotropic_widths": True,
            "width_sharing": "component",
        }
    return {
        "n_adaptive": 1,
        "max_evals": 100,
        "loss_tol": None,
        "bounds": {
            "mu": [0.93, 0.99],
            "tau": [0.15, 0.45],
            "lam": [-0.4, -0.15],
            "mu_nu": [1e-4, 1e-1],
            "sigma_nu": [1e-6, 1e-2],
        },
        "log10": ["mu_nu", "sigma_nu"],
        "fixed": {"f": 0.5},
        "eta": None,
        "isotropic_widths": True,
        "width_sharing": "component",
    }


def _baseline_defaults(kind: str, ptype: str) -> dict:
    if kind == "baseline-study":
        return {"n_colloc": 500, "n_rbf": 500, "sigma_f": 0.1, "n_boundary": 2, "n_initial": None}
    if ptype == "poisson":
        return {"n_colloc": 1600, "n_rbf": 400, "sigma_f": 0.2, "n_boundary": 400, "n_initial": None}
    if kind == "inverse" and ptype == "advection":
        return {"n_colloc": 1600, "n_rbf": 1600, "sigma_f": 0.1, "n_boundary": 80, "n_initial": 81}
    return {"n_colloc": 500, "n_rbf": 250, "sigma_f": 0.04, "n_boundary": 2, "n_initial": None}


def _sensor_defaults(ptype: str) -> dict:
    if ptype == "advection":
        return {"count": 200, "noise": 0.05, "placement": "uniform_random", "truth": {"a": 0.5}}
    return {"count": 51, "noise": 0.05, "placement": "boundary_layer_biased", "truth": {"nu": 0.01}}


def _advection_defaults() -> dict:
    return {
        "n_blocks": 100,
        "n_colloc": 600,
        "n_boundary": 150,
        "n_initial": 450,
        "n_rbf": 150,
        "t_final": 1.0,
        "tuning_blocks": 10,
        "max_evals": 40,
        "loss_tol": None,
        "bounds": {"f": [1.0, 1.5], "lam": [1.0, 1.5], "sigma_f": [2.5, 4.5]},
        "tunables": None,
        "adaptive_widths": "space",
    }


def _curriculum_defaults(ptype: str) -> dict:
    if ptype == "convdiff2":
        return {"schedule": [0.3, 0.2, 0.15, 0.1], "threshold": 1e-3}
    return {"schedule": [0.1, 0.05], "threshold": 1e-3}


def _problem_defaults(kind: str) -> dict:
    if kind == "advection":
        return {"type": "advection", "nu": 0.05, "speed": 0.5}
    if kind == "inverse":
        return {"type": "convdiff1", "nu": 0.01}
    return {"type": "convdiff1", "nu": 0.01}


def default_config(kind: str, out: str = "runs/latest") -> RunConfig:
    """The fully resolved default configuration for a run kind."""
    _as_choice(kind, "kind", KINDS)
    return _normalize({"kind": kind, "out": out}, kind=None)


# ---------------------------------------------------------------------------
# parsing and validation


def parse_config(path, kind: Optional[str] = None) -> RunConfig:
    """Read, validate, and resolve a YAML run configuration.

    ``kind`` supplies the run kind when the file omits it (the CLI passes
    the subcommand); a kind present in both places must agree.  Errors
    are raised as :class:`ConfigFileMissingError` (no such file),
    :class:`ConfigSyntaxError` (not valid YAML), or
    :class:`ConfigValueError` (bad or unknown field, named in the
    message).
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigFileMissingError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as err:
        raise ConfigSyntaxError(f"malformed config {path}: {err}") from err
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigSyntaxError(f"config {path} must be a mapping at top level")
    return _normalize(raw, kind)


def _normalize(raw: dict, kind: Optional[str]) -> RunConfig:
    _check_keys(
        raw,
        {"kind", "problem", "seed", "out", "baseline", "search", "sensors", "advection", "curriculum"},
        "",
    )
    file_kind = raw.get("kind")
    if file_kind is not None:
        _as_choice(file_kind, "kind", KINDS)
        if kind is not None and file_kind != kind:
            _fail("kind", f"config says {file_kind!r} but the {kind!r} command was invoked")
        kind = file_kind
    if kind is None:
        _fail("kind", "missing (set it in the file or pick a subcommand)")

    seed = _as_int(raw.get("seed", 0), "seed", minimum=0)
    out = raw.get("out", "runs/latest")
    if not isinstance(out, str) or not out:
        _fail("out", "expected a non-empty path string")

    problem = _normalize_problem(raw.get("problem"), kind)
    ptype = problem["type"]

    baseline = None
    search = None
    sensors = None
    advect = None
    curriculum = None
    if kind in ("forward", "inverse", "baseline-study"):
        baseline = _normalize_baseline(raw.get("baseline"), kind, ptype)
    if kind in ("forward", "inverse"):
        # the transport problem lives in 2D space-time, so any adaptive
        # components searched on top of it carry per-axis center names
        dim = 2 if ptype in ("poisson", "advection") else 1
        pde_params = ()
        if kind == "inverse":
            sensors = _normalize_sensors(raw.get("sensors"), ptype)
            pde_params = ("a",) if "a" in sensors["truth"] else ("mu_nu", "sigma_nu")
        search = _normalize_search(raw.get("search"), kind, ptype, dim, pde_params)
    if kind == "advection":
        for section in ("baseline", "search", "sensors", "curriculum"):
            if raw.get(section) is not None:
                _fail(section, "not used by advection runs")
        advect = _normalize_advection(raw.get("advection"))
    else:
        if raw.get("advection") is not None:
            _fail("advection", f"not used by {kind} runs")
    if kind == "baseline-study":
        for section in ("search", "sensors"):
            if raw.get(section) is not None:
                _fail(section, f"not used by {kind} runs")
        curriculum = _normalize_curriculum(raw.get("curriculum"), ptype)
    else:
        if raw.get("curriculum") is not None:
            _fail("curriculum", f"not used by {kind} runs")
    if kind == "forward" and raw.get("sensors") is not None:
        _fail("sensors", "not used by forward runs")

    return RunConfig(
        kind=kind,
        problem=problem,
        seed=seed,
        out=out,
        baseline=baseline,
        search=search,
        sensors=sensors,
        advection=advect,
        curriculum=curriculum,
    )


def _normalize_problem(section, kind: str) -> dict:
    section = _as_mapping(section, "problem")
    _check_keys(section, {"type", "nu", "speed"}, "problem")
    defaults = _problem_defaults(kind)
    ptype = _as_choice(section.get("type", defaults["type"]), "problem.type", PROBLEM_TYPES)
    if kind == "advection" and ptype != "advection":
        _fail("problem.type", "the advection command runs the transport problem only")
    if kind == "forward" and ptype == "advection":
        _fail("problem.type", "use the advection command for the transport problem")
    if kind == "baseline-study" and ptype not in ("convdiff1", "convdiff2"):
        _fail("problem.type", "the baseline study sweeps the 1D convection-diffusion problems")
    if kind == "inverse" and ptype == "poisson":
        _fail("problem.type", "inverse runs need a closed-form solution (convdiff1, convdiff2, advection)")
    nu_default = 0.1 if (kind == "inverse" and ptype == "advection") else defaults["nu"]
    nu = _as_float(section.get("nu", nu_default), "problem.nu")
    if nu <= 0:
        _fail("problem.nu", f"nu must be positive, got {nu:g}")
    problem = {"type": ptype, "nu": nu}
    if ptype == "advection":
        problem["speed"] = _as_float(section.get("speed", defaults.get("speed", 0.5)), "problem.speed")
    elif section.get("speed") is not None:
        _fail("problem.speed", "only the transport problem has an advection speed")
    return problem


def _normalize_baseline(section, kind: str, ptype: str) -> dict:
    section = _as_mapping(section, "baseline")
    allowed = {"n_colloc", "n_rbf", "sigma_f", "n_boundary", "n_initial"}
    _check_keys(section, allowed, "baseline")
    d = _baseline_defaults(kind, ptype)
    return {
        "n_colloc": _as_int(section.get("n_colloc", d["n_colloc"]), "baseline.n_colloc", 1),
        "n_rbf": _as_int(section.get("n_rbf", d["n_rbf"]), "baseline.n_rbf", 1),
        "sigma_f": _as_positive_float(section.get("sigma_f", d["sigma_f"]), "baseline.sigma_f"),
        "n_boundary": _as_int(section.get("n_boundary", d["n_boundary"]), "baseline.n_boundary", 1),
        "n_initial": _as_optional(
            section.get("n_initial", d["n_initial"]),
            "baseline.n_initial",
            lambda v, k: _as_int(v, k, 1),
        ),
    }


def _normalize_bounds(section, key: str) -> dict:
    section = _as_mapping(section, key)
    bounds = {}
    for name, pair in section.items():
        where = f"{key}.{name}"
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            _fail(where, f"expected [lower, upper], got {pair!r}")
        lo = _as_float(pair[0], where)
        hi = _as_float(pair[1], where)
        if lo >= hi:
            _fail(where, f"lower bound must be below upper, got [{lo:g}, {hi:g}]")
        bounds[name] = [lo, hi]
    return bounds


def _normalize_search(section, kind: str, ptype: str, dim: int, pde_params: tuple) -> dict:
    section = _as_mapping(section, "search")
    allowed = {
        "n_adaptive",
        "max_evals",
        "loss_tol",
        "bounds",
        "log10",
        "fixed",
        "eta",
        "isotropic_widths",
        "width_sharing",
    }
    _check_keys(section, allowed, "search")
    d = _search_defaults(kind, ptype)
    n_adaptive = _as_int(section.get("n_adaptive", d["n_adaptive"]), "search.n_adaptive", 0)
    if kind == "forward" and n_adaptive < 1:
        _fail("search.n_adaptive", "forward tuning needs at least one adaptive component")
    bounds = _normalize_bounds(section.get("bounds", d["bounds"]), "search.bounds")
    if not bounds:
        _fail("search.bounds", "at least one parameter must be searched")

    log10 = section.get("log10", d["log10"] if "bounds" not in section else [])
    if not isinstance(log10, (list, tuple)):
        _fail("search.log10", f"expected a list of parameter names, got {log10!r}")
    log10 = [str(n) for n in log10]
    for name in log10:
        if name not in bounds:
            _fail("search.log10", f"{name!r} is not a searched parameter")
        if bounds[name][0] <= 0:
            _fail("search.log10", f"log-scale parameter {name!r} needs positive bounds")

    fixed_raw = _as_mapping(section.get("fixed", d["fixed"] if "bounds" not in section else {}), "search.fixed")
    fixed = {str(k): _as_float(v, f"search.fixed.{k}") for k, v in fixed_raw.items()}

    expected = set(hyperparam_names(n_adaptive, dim, pde_params))
    got = set(bounds) | set(fixed)
    overlap = set(bounds) & set(fixed)
    if overlap:
        _fail("search.fixed", f"parameters both searched and fixed: {sorted(overlap)}")
    if got != expected:
        missing = sorted(expected - got)
        extra = sorted(got - expected)
        parts = []
        if missing:
            parts.append(f"missing {missing}")
        if extra:
            parts.append(f"unexpected {extra}")
        _fail("search.bounds", "; ".join(parts) + f" (need exactly {sorted(expected)})")

    return {
        "n_adaptive": n_adaptive,
        "max_evals": _as_int(section.get("max_evals", d["max_evals"]), "search.max_evals", 1),
        "loss_tol": _as_optional(section.get("loss_tol", d["loss_tol"]), "search.loss_tol", _as_positive_float),
        "bounds": bounds,
        "log10": log10,
        "fixed": fixed,
        "eta": _as_optional(section.get("eta", d["eta"]), "search.eta", _as_positive_float),
        "isotropic_widths": _as_bool(
            section.get("isotropic_widths", d["isotropic_widths"]), "search.isotropic_widths"
        ),
        "width_sharing": _as_choice(
            section.get("width_sharing", d["width_sharing"]),
            "search.width_sharing",
            ("component", "kernel"),
        ),
    }


def _normalize_sensors(section, ptype: str) -> dict:
    section = _as_mapping(section, "sensors")
    _check_keys(section, {"count", "noise", "placement", "truth"}, "sensors")
    d = _sensor_defaults(ptype)
    placement = _as_choice(
        section.get("placement", d["placement"]),
        "sensors.placement",
        tuple(p.value for p in SensorPlacement),
    )
    truth_raw = _as_mapping(section.get("truth", d["truth"]), "sensors.truth")
    _check_keys(truth_raw, {"nu", "a"}, "sensors.truth")
    if len(truth_raw) != 1:
        _fail("sensors.truth", "give exactly one true parameter: nu or a")
    if "a" in truth_raw and ptype != "advection":
        _fail("sensors.truth", "the speed 'a' belongs to the transport problem")
    truth = {k: _as_positive_float(v, f"sensors.truth.{k}") for k, v in truth_raw.items()}
    noise = _as_float(section.get("noise", d["noise"]), "sensors.noise")
    if noise < 0:
        _fail("sensors.noise", f"must be nonnegative, got {noise:g}")
    return {
        "count": _as_int(section.get("count", d["count"]), "sensors.count", 1),
        "noise": noise,
        "placement": placement,
        "truth": truth,
    }


def _normalize_advection(section) -> dict:
    section = _as_mapping(section, "advection")
    d = _advection_defaults()
    _check_keys(section, set(d), "advection")
    bounds = _normalize_bounds(section.get("bounds", d["bounds"]), "advection.bounds")
    if set(bounds) != {"f", "lam", "sigma_f"}:
        _fail("advection.bounds", f"tunables are exactly f, lam, sigma_f; got {sorted(bounds)}")
    tunables = section.get("tunables", d["tunables"])
    if tunables is not None:
        if not isinstance(tunables, (list, tuple)) or len(tunables) != 3:
            _fail("advection.tunables", f"expected [f, lam, sigma_f], got {tunables!r}")
        tunables = [_as_float(v, "advection.tunables") for v in tunables]
    return {
        "n_blocks": _as_int(section.get("n_blocks", d["n_blocks"]), "advection.n_blocks", 1),
        "n_colloc": _as_int(section.get("n_colloc", d["n_colloc"]), "advection.n_colloc", 1),
        "n_boundary": _as_int(section.get("n_boundary", d["n_boundary"]), "advection.n_boundary", 1),
        "n_initial": _as_int(section.get("n_initial", d["n_initial"]), "advection.n_initial", 1),
        "n_rbf": _as_int(section.get("n_rbf", d["n_rbf"]), "advection.n_rbf", 1),
        "t_final": _as_positive_float(section.get("t_final", d["t_final"]), "advection.t_final"),
        "tuning_blocks": _as_int(section.get("tuning_blocks", d["tuning_blocks"]), "advection.tuning_blocks", 1),
        "max_evals": _as_int(section.get("max_evals", d["max_evals"]), "advection.max_evals", 1),
        "loss_tol": _as_optional(section.get("loss_tol", d["loss_tol"]), "advection.loss_tol", _as_positive_float),
        "bounds": bounds,
        "tunables": tunables,
        "adaptive_widths": _as_choice(
            section.get("adaptive_widths", d["adaptive_widths"]),
            "advection.adaptive_widths",
            ("space", "isotropic"),
        ),
    }


def _normalize_curriculum(section, ptype: str) -> dict:
    section = _as_mapping(section, "curriculum")
    _check_keys(section, {"schedule", "threshold"}, "curriculum")
    d = _curriculum_defaults(ptype)
    schedule_raw = section.get("schedule", d["schedule"])
    if not isinstance(schedule_raw, (list, tuple)) or not schedule_raw:
        _fail("curriculum.schedule", f"expected a non-empty list, got {schedule_raw!r}")
    schedule = [_as_positive_float(v, "curriculum.schedule") for v in schedule_raw]
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        _fail("curriculum.schedule", "values must be strictly decreasing")
    return {
        "schedule": schedule,
        "threshold": _as_positive_float(section.get("threshold", d["threshold"]), "curriculum.threshold"),
    }


# ---------------------------------------------------------------------------
# writing configurations back out


def _config_mapping(config: RunConfig) -> dict:
    out = {"kind": config.kind, "problem": config.problem, "seed": config.seed, "out": config.out}
    for name in ("baseline", "search", "sensors", "advection", "curriculum"):
        section = getattr(config, name)
        if section is not None:
            out[name] = section
    return out


def write_config(config: RunConfig, path) -> Path:
    """Serialize a configuration so that parsing it back is the identity."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(_config_mapping(config), sort_keys=False))
    return path


# ---------------------------------------------------------------------------
# metrics


def compare_to_exact(predicted, exact, mesh=None) -> MetricsRecord:
    """Grade solution samples against a reference.

    ``exact`` is either an array of reference values on the same mesh or
    a callable evaluated at ``mesh``.  Mismatched sample counts raise
    ``ValueError``.  The norms are ``drivers.error_metrics``: the relative
    L2 error of a perfect match is 0 even when the reference is
    identically zero.
    """
    predicted = np.asarray(predicted, dtype=float).ravel()
    if callable(exact):
        if mesh is None:
            raise ValueError("a callable reference needs the mesh it should be evaluated on")
        exact = exact(np.asarray(mesh))
    reference = np.asarray(exact, dtype=float).ravel()
    if predicted.shape != reference.shape:
        raise ValueError(
            f"mesh mismatch: {predicted.shape[0]} samples vs {reference.shape[0]} reference values"
        )
    metrics = error_metrics(predicted, reference)
    return MetricsRecord(metrics["linf"], metrics["rel_l2"], np.abs(predicted - reference))


# ---------------------------------------------------------------------------
# dispatch to the drivers


def _build_problem(problem: dict):
    ptype = problem["type"]
    if ptype == "convdiff1":
        return convdiff_type1(problem["nu"])
    if ptype == "convdiff2":
        return convdiff_type2(problem["nu"])
    if ptype == "poisson":
        return poisson2d(problem["nu"])
    return advection1d(problem["nu"], problem["speed"])


def _build_baseline(baseline: dict) -> BaselineConfig:
    return BaselineConfig(
        n_colloc=baseline["n_colloc"],
        n_rbf=baseline["n_rbf"],
        sigma_f=baseline["sigma_f"],
        n_boundary=baseline["n_boundary"],
        n_initial=baseline["n_initial"],
    )


def _build_search_bounds(search: dict) -> SearchBounds:
    params = [(name, lo, hi) for name, (lo, hi) in search["bounds"].items()]
    log_scale = {name: True for name in search["log10"]}
    return SearchBounds(params, log_scale=log_scale or None)


def _build_bo(search: dict, seed: int) -> BoConfig:
    return BoConfig(max_evals=search["max_evals"], loss_tol=search["loss_tol"], seed=seed)


def _forward_spec(config: RunConfig, pde_params: tuple = ()) -> ForwardRunSpec:
    search = config.search
    return ForwardRunSpec(
        problem=_build_problem(config.problem),
        baseline=_build_baseline(config.baseline),
        n_adap=search["n_adaptive"],
        bounds=_build_search_bounds(search),
        bo=_build_bo(search, config.seed),
        seed=config.seed,
        fixed=search["fixed"],
        eta=search["eta"],
        isotropic_widths=search["isotropic_widths"],
        width_sharing=search["width_sharing"],
        pde_params=pde_params,
    )


def _history_rows(history: Optional[BoHistory]) -> tuple:
    if history is None:
        return ()
    rows = []
    for k, (w, loss) in enumerate(history.records):
        rows.append((k, *[float(v) for v in w], float(loss)))
    return tuple(rows)


def _kernel_rows(model, prefix=()) -> list:
    centers = model.basis.centers
    widths = model.basis.widths
    coeffs = model.coefficients
    tags = model.tags if model.tags is not None else np.zeros(centers.shape[0], dtype=int)
    rows = []
    for i in range(centers.shape[0]):
        rows.append(
            (
                *prefix,
                *[float(c) for c in centers[i]],
                *[float(w) for w in widths[i]],
                float(coeffs[i]),
                int(tags[i]),
            )
        )
    return rows


def _solution_rows(mesh, predicted, reference) -> tuple:
    rows = []
    has_ref = reference is not None
    for i in range(mesh.shape[0]):
        row = [float(c) for c in mesh[i]] + [float(predicted[i])]
        if has_ref:
            row += [float(reference[i]), float(abs(predicted[i] - reference[i]))]
        rows.append(tuple(row))
    return tuple(rows)


def _axis_names(dim: int, time_axis: bool = False) -> list:
    if dim == 1:
        return ["x"]
    return ["x", "t"] if time_axis else ["x", "y"]


def _run_forward(config: RunConfig) -> dict:
    result = run_kapi_forward(_forward_spec(config))
    names = list(config.search["bounds"])
    axes = _axis_names(result.model.basis.centers.shape[1])
    return {
        "history": result.history,
        "w_names": names,
        "metrics": dict(result.metrics),
        "extras": {"w_opt": {k: float(v) for k, v in result.w_named.items()}},
        "kernel_header": axes_header(axes),
        "kernel_rows": tuple(_kernel_rows(result.model)),
        "solution_header": solution_header(axes, result.reference is not None),
        "solution_rows": _solution_rows(result.mesh, result.predicted, result.reference),
    }


def _run_inverse(config: RunConfig) -> dict:
    from .assembly import evaluate_model
    from .sampling import uniform_grid

    sensors_cfg = config.sensors
    pde_params = ("a",) if "a" in sensors_cfg["truth"] else ("mu_nu", "sigma_nu")
    spec = _forward_spec(config, pde_params)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(9,)))
    sensors = generate_sensor_data(
        spec.problem,
        sensors_cfg["truth"],
        sensors_cfg["count"],
        sensors_cfg["noise"],
        SensorPlacement(sensors_cfg["placement"]),
        rng,
    )
    result = run_inverse(InverseRunSpec(spec, sensors, true_params=sensors_cfg["truth"]))
    domain = spec.problem.domain
    if spec.problem.dim == 1:
        mesh = np.linspace(domain.lower[0], domain.upper[0], spec.test_mesh_size)[:, None]
    else:
        mesh = uniform_grid(domain, 101 * 101)
    if "nu" in sensors_cfg["truth"]:
        truth_problem = replace(spec.problem, nu=float(sensors_cfg["truth"]["nu"]))
    else:
        truth_problem = replace(spec.problem, advection_speed=float(sensors_cfg["truth"]["a"]))
    predicted = evaluate_model(result.model, mesh)
    reference = truth_problem.exact(mesh)
    axes = _axis_names(spec.problem.dim, time_axis=config.problem["type"] == "advection")
    return {
        "history": result.history,
        "w_names": list(config.search["bounds"]),
        "metrics": dict(result.metrics),
        "extras": {
            "w_opt": {k: float(v) for k, v in result.w_named.items()},
            **{f"{k}_est": float(v) for k, v in result.estimates.items()},
        },
        "kernel_header": axes_header(axes),
        "kernel_rows": tuple(_kernel_rows(result.model)),
        "solution_header": solution_header(axes, reference is not None),
        "solution_rows": _solution_rows(mesh, predicted, reference),
    }


def _run_advection(config: RunConfig) -> dict:
    a = config.advection
    spec = TimeBlockSpec(
        speed=config.problem["speed"],
        nu=config.problem["nu"],
        n_blocks=a["n_blocks"],
        n_colloc=a["n_colloc"],
        n_boundary=a["n_boundary"],
        n_initial=a["n_initial"],
        n_rbf=a["n_rbf"],
        t_final=a["t_final"],
        bounds=SearchBounds([(n, lo, hi) for n, (lo, hi) in a["bounds"].items()]),
        bo=BoConfig(
            max_evals=a["max_evals"],
            loss_tol=a["loss_tol"],
            seed=config.seed,
        ),
        seed=config.seed,
        adaptive_widths=a["adaptive_widths"],
    )
    tunables = None if a["tunables"] is None else tuple(a["tunables"])
    result, history = run_advection_forward(spec, tunables, tuning_blocks=a["tuning_blocks"])
    xs = np.linspace(spec.x_range[0], spec.x_range[1], 2001)
    predicted = result.final_profile(xs)
    reference = advection_exact(xs, spec.t_final, spec.speed, spec.nu)
    grade = compare_to_exact(predicted, reference)
    metrics = {
        "residual_loss": result.aggregate_loss,
        "validation_loss": result.aggregate_validation,
        "linf": grade.linf,
        "rel_l2": grade.rel_l2,
        "n_evals": 0 if history is None else len(history),
    }
    kernel_rows = []
    for k, model in enumerate(result.models):
        kernel_rows.extend(_kernel_rows(model, prefix=(k,)))
    mesh = np.column_stack([xs, np.full_like(xs, spec.t_final)])
    return {
        "history": history,
        "w_names": list(a["bounds"]),
        "metrics": metrics,
        "extras": {
            "tunables": {"f": result.tunables[0], "lam": result.tunables[1], "sigma_f": result.tunables[2]},
            "block_losses": [float(v) for v in result.block_losses],
            "validation_losses": [float(v) for v in result.validation_losses],
        },
        "kernel_header": ["block"] + axes_header(["x", "t"]),
        "kernel_rows": tuple(kernel_rows),
        "solution_header": solution_header(["x", "t"], True),
        "solution_rows": _solution_rows(mesh, predicted, reference),
    }


def _run_curriculum(config: RunConfig) -> dict:
    from .assembly import evaluate_model

    problem = _build_problem(config.problem)
    result = run_baseline_curriculum(
        problem,
        _build_baseline(config.baseline),
        config.curriculum["schedule"],
        threshold=config.curriculum["threshold"],
    )
    mesh = np.linspace(
        problem.domain.lower[0], problem.domain.upper[0], 10 * config.baseline["n_colloc"]
    )[:, None]
    solved = replace(problem, nu=result.nu_solved)
    predicted = evaluate_model(result.model, mesh)
    reference = solved.exact(mesh)
    metrics = {
        "nu_solved": result.nu_solved,
        "n_clusters": result.clusters.n_clusters,
        "residual_loss": result.model.loss,
        "n_evals": 0,
    }
    return {
        "history": None,
        "w_names": [],
        "metrics": metrics,
        "extras": {
            "schedule": [
                {"nu": nu, "residual_loss": loss, "solvability": measure}
                for nu, loss, measure in result.measures
            ],
            "cluster_intervals": [[float(a), float(b)] for a, b in result.clusters.intervals],
        },
        "kernel_header": axes_header(["x"]),
        "kernel_rows": tuple(_kernel_rows(result.model)),
        "solution_header": solution_header(["x"], reference is not None),
        "solution_rows": _solution_rows(mesh, predicted, reference),
    }


def axes_header(axes) -> list:
    return [f"center_{a}" for a in axes] + [f"width_{a}" for a in axes] + ["coefficient", "component"]


def solution_header(axes, has_reference: bool) -> list:
    cols = list(axes) + ["predicted"]
    if has_reference:
        cols += ["exact", "abs_error"]
    return cols


# ---------------------------------------------------------------------------
# persistence


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    return value


_RUNNERS = {
    "forward": _run_forward,
    "inverse": _run_inverse,
    "advection": _run_advection,
    "baseline-study": _run_curriculum,
}


def run_command(config: RunConfig, quiet: bool = False, out_override: Optional[str] = None) -> ResultBundle:
    """Execute a run and persist its results.

    Output directory precedence: explicit ``out_override`` (the CLI's
    ``--out``), then the ``RBFADAPT_OUT`` environment variable, then the
    configuration's ``out`` field.  Numerical failures raise
    :class:`NumericalFailureError`; an exhausted evaluation budget that
    never reached ``loss_tol`` is reported through ``exit_code`` 4 with
    all results written.
    """
    out_dir = Path(out_override or os.environ.get(OUT_ENV_VAR) or config.out)
    t0 = time.perf_counter()
    try:
        payload = _RUNNERS[config.kind](config)
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        raise NumericalFailureError(str(err)) from err
    elapsed = time.perf_counter() - t0

    metrics = payload["metrics"]
    for name, value in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise NumericalFailureError(f"metric {name} is not finite")

    history = payload["history"]
    history_rows = _history_rows(history)
    if history is not None and len(history_rows) != len(history):
        raise NumericalFailureError("loss table length disagrees with evaluation count")

    exit_code = EXIT_OK
    loss_tol = None
    if config.search is not None:
        loss_tol = config.search["loss_tol"]
    elif config.advection is not None:
        loss_tol = config.advection["loss_tol"]
    if (
        history is not None
        and loss_tol is not None
        and history.stop_reason == "budget"
        and history.best_loss > loss_tol
    ):
        exit_code = EXIT_BUDGET

    timings = {"total_seconds": elapsed}
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []

    config_path = out_dir / "config.yaml"
    write_config(config, config_path)
    files.append(config_path)

    summary = {
        "kind": config.kind,
        "problem": config.problem,
        "seed": config.seed,
        "metrics": metrics,
        "timings": timings,
        "n_evaluations": len(history_rows),
        "stop_reason": None if history is None else history.stop_reason,
        "exit_code": exit_code,
        **payload["extras"],
    }
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(_jsonable(summary), indent=2, sort_keys=True) + "\n")
    files.append(summary_path)

    loss_path = out_dir / "loss_history.csv"
    _write_csv(loss_path, ["k", *payload["w_names"], "loss"], history_rows)
    files.append(loss_path)

    kernels_path = out_dir / "kernels.csv"
    _write_csv(kernels_path, payload["kernel_header"], payload["kernel_rows"])
    files.append(kernels_path)

    solution_path = out_dir / "solution.csv"
    _write_csv(solution_path, payload["solution_header"], payload["solution_rows"])
    files.append(solution_path)

    if not quiet:
        for name in sorted(metrics):
            print(f"{name}: {metrics[name]:.6g}" if isinstance(metrics[name], float) else f"{name}: {metrics[name]}")
        print(f"results written to {out_dir}")

    return ResultBundle(
        config=config,
        history_rows=history_rows,
        kernel_rows=payload["kernel_rows"],
        solution_rows=payload["solution_rows"],
        metrics=metrics,
        extras=payload["extras"],
        timings=timings,
        exit_code=exit_code,
        out_dir=str(out_dir),
        files=tuple(str(p) for p in files),
    )


# ---------------------------------------------------------------------------
# command line


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbfadapt",
        description="Adaptive Gaussian RBF collocation solver for stiff linear PDEs.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    descriptions = {
        "forward": "solve a stationary problem with tuned adaptive kernels",
        "inverse": "estimate a PDE parameter from noisy sensor data",
        "advection": "march the transport problem through sequential time blocks",
        "baseline-study": "sweep the fixed baseline down a stiffness schedule",
    }
    for kind in KINDS:
        p = sub.add_parser(kind, help=descriptions[kind])
        p.add_argument("--config", help="YAML run configuration (defaults apply when omitted)")
        p.add_argument("--seed", type=int, help="override the configured random seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--quiet", action="store_true", help="suppress the result summary")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.config is not None:
            config = parse_config(args.config, kind=args.kind)
        else:
            config = default_config(args.kind)
        if args.seed is not None:
            config = replace(config, seed=_as_int(args.seed, "seed", minimum=0))
        bundle = run_command(config, quiet=args.quiet, out_override=args.out)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalFailureError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    return bundle.exit_code


if __name__ == "__main__":
    sys.exit(main())
