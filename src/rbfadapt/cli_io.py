"""Configuration files, run commands, and result persistence.

A run is described by a YAML file with nested sections.  One key table,
``SCHEMA``, gives every section key its converter and its default for
each (kind, problem type) profile; it drives parsing, ``default_config``
and the echo.  Unknown keys are rejected by name, and the parsed
configuration echoes back to disk so a run directory always carries the
exact inputs that produced it.

Each run kind has one builder (``_BUILDERS``): the kind's driver bound to
the library's specs, a refusal naming its section first.  Parsing builds
the run to check the file, running builds it the same way, so both refuse
the same files.  The searched runs' few rules of the file's own, which no
spec knows, run in their builder before it builds anything
(``_forward_spec``).

Every run kind's driver grades and reports its own run and returns one
``drivers.RunResult``; this module only writes it out.  Persisted
outputs per run:

* ``config.yaml``   — the fully resolved configuration (provenance echo)
* ``summary.json``  — scalar results: the run's metrics and report (tuned
  parameters, estimates, per-block losses or the schedule walk), timings,
  and the package, numpy, scipy and BLAS versions with the BLAS thread counts
* ``loss_history.csv`` — one row per objective evaluation ``(k, w..., loss)``;
  a header alone when the run searched nothing
* ``kernels.csv``   — final model kernels: centers, widths, coefficient,
  adaptive-component tag (0 marks the fixed baseline grid)
* ``solution.csv``  — solution samples on the test mesh, with the
  reference values and pointwise errors when a reference exists

Numeric CSV fields carry 17 significant digits, enough to reconstruct
the exact double-precision values.  Exit codes: 0 success, 2
configuration error (an unusable output directory too, found before the
run), 3 numerical failure (an ``ArithmeticError``: a failed solve, a
search none of whose evaluations finished, or a non-finite metric), 4
evaluation budget exhausted before reaching the configured loss target
(results are still written).
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
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import yaml

from . import __version__
from .bayesopt import BoConfig, BoHistory, SearchBounds
from .blas import blas_thread_counts
from .clustering import MIN_GRADIENT_POINTS
from .drivers import (
    ForwardRunSpec,
    RunResult,
    SensorPlacement,
    TimeBlockSpec,
    check_curriculum,
    error_metrics,
    generate_sensor_data,
    run_advection_forward,
    run_baseline_curriculum,
    run_kapi,
)
from .problems import PROBLEMS
from .sampling import WIDTH_SHARING, BaselineConfig

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_BUDGET = 4

KINDS = ("forward", "inverse", "advection", "baseline-study")
PROBLEM_TYPES = tuple(PROBLEMS)

OUT_ENV_VAR = "RBFADAPT_OUT"

# rows converted to Python numbers at a time when a table is written
_CSV_CHUNK_ROWS = 1024


class ConfigError(Exception):
    """Base class for configuration problems (exit code 2)."""


class ConfigFileMissingError(ConfigError):
    """The configuration file does not exist."""


class ConfigSyntaxError(ConfigError):
    """The configuration file is not well-formed YAML."""


class ConfigValueError(ConfigError):
    """A configuration field has an invalid or unknown value."""


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
class ResultBundle:
    """What a run returns for programmatic use; summary.json holds the rest."""

    history: BoHistory  # empty when the run searched nothing
    metrics: dict
    exit_code: int
    out_dir: str
    files: tuple


# ---------------------------------------------------------------------------
# value converters: each takes (value, key) and names the key on failure


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


def _as_choice(value, key: str, choices) -> str:
    if value not in choices:
        _fail(key, f"expected one of {sorted(choices)}, got {value!r}")
    return value


def _as_interval(pair, key: str) -> list:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        _fail(key, f"expected [lower, upper], got {pair!r}")
    lo = _as_float(pair[0], key)
    hi = _as_float(pair[1], key)
    if lo >= hi:
        _fail(key, f"lower bound must be below upper, got [{lo:g}, {hi:g}]")
    return [lo, hi]


def _int(minimum: int):
    return lambda value, key: _as_int(value, key, minimum)


def _float_where(holds, message: str):
    """A number that must also satisfy ``holds``; ``message`` formats it."""

    def convert(value, key):
        out = _as_float(value, key)
        if not holds(out):
            _fail(key, message.format(out))
        return out

    return convert


_positive = _float_where(lambda v: v > 0, "must be positive, got {:g}")
_nonnegative = _float_where(lambda v: v >= 0, "must be nonnegative, got {:g}")


def _choice(*choices):
    return lambda value, key: _as_choice(value, key, choices)


def _optional(convert):
    return lambda value, key: None if value is None else convert(value, key)


def _list_of(convert, expected: str, size_ok=lambda n: True):
    def parse(value, key):
        if not isinstance(value, (list, tuple)) or not size_ok(len(value)):
            _fail(key, f"expected {expected}, got {value!r}")
        return [convert(v, key) for v in value]

    return parse


def _mapping_of(convert, allowed=None):
    def parse(value, key):
        mapping = _as_mapping(value, key)
        if allowed is not None:
            _check_keys(mapping, allowed, key)
        return {str(name): convert(v, f"{key}.{name}") for name, v in mapping.items()}

    return parse


# ---------------------------------------------------------------------------
# the key table: converter and per-profile default of every section key


_ANY = "*"


@dataclass(frozen=True)
class _Key:
    """One section key: its converter and its default for each run profile.

    A profile is a ``(kind, problem type)`` pair.  ``by_profile`` maps
    profile patterns, in which ``_ANY`` matches everything, to defaults
    that replace ``default``; an exact profile beats ``(kind, _ANY)``,
    which beats ``(_ANY, type)``.
    """

    convert: Callable
    default: object
    by_profile: dict = field(default_factory=dict)

    def default_for(self, kind: str, ptype: Optional[str]):
        for pattern in ((kind, ptype), (kind, _ANY), (_ANY, ptype)):
            if pattern in self.by_profile:
                return self.by_profile[pattern]
        return self.default


@dataclass(frozen=True)
class _Unused:
    """Default of a key its profile has no use for; giving it fails with
    ``reason``, unless the value given is ``accepted`` (a retired key's one
    meaning, which older files still carry)."""

    reason: str
    accepted: object = None


@dataclass(frozen=True)
class _Section:
    """A configuration section: the run kinds that read it and its keys, in echo order."""

    kinds: tuple
    keys: dict


_FORWARD = ("forward", _ANY)
_FORWARD_POISSON = ("forward", "poisson")
_INVERSE = ("inverse", _ANY)
_INVERSE_TRANSPORT = ("inverse", "advection")
_MARCH = ("advection", _ANY)
_STUDY = ("baseline-study", _ANY)
_POISSON = (_ANY, "poisson")
_TRANSPORT = (_ANY, "advection")
_CONVDIFF2 = (_ANY, "convdiff2")

# Every section and its keys.  config.yaml writes kind, problem, seed and
# out, then the other sections in this order; within a section, keys in
# table order.
SCHEMA = {
    "problem": _Section(KINDS, {
        "type": _Key(_choice(*PROBLEM_TYPES), "convdiff1", {_MARCH: "advection"}),
        "nu": _Key(
            _float_where(lambda v: v > 0, "nu must be positive, got {:g}"),
            0.01,
            {_MARCH: 0.05, _INVERSE_TRANSPORT: 0.1},
        ),
        "speed": _Key(
            _positive,
            _Unused("only the transport problem has an advection speed"),
            {_TRANSPORT: 0.5},
        ),
    }),
    "baseline": _Section(("forward", "inverse", "baseline-study"), {
        "n_colloc": _Key(_int(1), 500, {_POISSON: 1600, _INVERSE_TRANSPORT: 1600}),
        "n_rbf": _Key(_int(1), 250, {_STUDY: 500, _POISSON: 400, _INVERSE_TRANSPORT: 1600}),
        "sigma_f": _Key(_positive, 0.04, {_STUDY: 0.1, _POISSON: 0.2, _INVERSE_TRANSPORT: 0.1}),
        "n_boundary": _Key(_int(1), 2, {_POISSON: 400, _INVERSE_TRANSPORT: 80}),
        "n_initial": _Key(_optional(_int(1)), None, {_INVERSE_TRANSPORT: 81}),
    }),
    "search": _Section(("forward", "inverse"), {
        "n_adaptive": _Key(_int(0), 1, {_INVERSE_TRANSPORT: 0}),
        "max_evals": _Key(_int(1), 100, {_INVERSE_TRANSPORT: 20}),
        "loss_tol": _Key(_optional(_positive), None, {_FORWARD: 1e-6, _FORWARD_POISSON: None}),
        "bounds": _Key(
            _mapping_of(_as_interval),
            {"mu": [0.9, 0.99], "tau": [0.05, 0.5], "lam": [0.5, 0.9]},
            {
                _FORWARD_POISSON: {
                    "f": [0.5, 1.0],
                    "mu_x": [0.4, 0.6],
                    "mu_y": [0.4, 0.6],
                    "tau": [0.2, 1.0],
                    "lam": [0.5, 1.0],
                },
                _INVERSE: {
                    "mu": [0.93, 0.99],
                    "tau": [0.15, 0.45],
                    "lam": [-0.4, -0.15],
                    "mu_nu": [1e-4, 1e-1],
                    "sigma_nu": [1e-6, 1e-2],
                },
                _INVERSE_TRANSPORT: {"a": [0.1, 1.0]},
            },
        ),
        "log10": _Key(
            _list_of(lambda v, k: str(v), "a list of parameter names"),
            [],
            {_INVERSE: ["mu_nu", "sigma_nu"], _INVERSE_TRANSPORT: []},
        ),
        "fixed": _Key(_mapping_of(_as_float), {"f": 0.5}, {_FORWARD_POISSON: {}, _INVERSE_TRANSPORT: {}}),
        "eta": _Key(_optional(_positive), None),
        "isotropic_widths": _Key(
            None, _Unused("per-axis widths were removed: every adaptive kernel has one width", accepted=True)
        ),
        "width_sharing": _Key(_choice(*WIDTH_SHARING), "component"),
    }),
    "sensors": _Section(("inverse",), {
        "count": _Key(_int(1), 51, {_TRANSPORT: 200}),
        "noise": _Key(_nonnegative, 0.05),
        "placement": _Key(
            _choice(*(p.value for p in SensorPlacement)),
            "boundary_layer_biased",
            {_TRANSPORT: "uniform_random"},
        ),
        "truth": _Key(_mapping_of(_positive, allowed=("nu", "a")), {"nu": 0.01}, {_TRANSPORT: {"a": 0.5}}),
    }),
    "advection": _Section(("advection",), {
        "n_blocks": _Key(_int(1), 100),
        "n_colloc": _Key(_int(1), 600),
        "n_boundary": _Key(_int(2), 150),
        "n_initial": _Key(_int(MIN_GRADIENT_POINTS), 450),
        "n_rbf": _Key(_int(2), 150),
        "t_final": _Key(_positive, 1.0),
        "tuning_blocks": _Key(_int(1), 10),
        "max_evals": _Key(_int(1), 40),
        "loss_tol": _Key(_optional(_positive), None),
        "bounds": _Key(_mapping_of(_as_interval), {"f": [1.0, 1.5], "lam": [1.0, 1.5], "sigma_f": [2.5, 4.5]}),
        "tunables": _Key(_optional(_list_of(_as_float, "[f, lam, sigma_f]", lambda n: n == 3)), None),
    }),
    "curriculum": _Section(("baseline-study",), {
        "schedule": _Key(
            _list_of(_positive, "a non-empty list", lambda n: n > 0),
            [0.1, 0.05],
            {_CONVDIFF2: [0.3, 0.2, 0.15, 0.1]},
        ),
        "threshold": _Key(_positive, 1e-3),
    }),
}

# the problem types each kind accepts, and why it refuses the others
_PROBLEMS_BY_KIND = {
    "forward": (("convdiff1", "convdiff2", "poisson"), "use the advection command for the transport problem"),
    "inverse": (
        ("convdiff1", "convdiff2", "advection"),
        "inverse runs need a closed-form solution (convdiff1, convdiff2, advection)",
    ),
    "advection": (("advection",), "the advection command runs the transport problem only"),
    "baseline-study": (
        ("convdiff1", "convdiff2"),
        "the baseline study sweeps the 1D convection-diffusion problems",
    ),
}


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
    _check_keys(raw, {"kind", "seed", "out", *SCHEMA}, "")
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
    type_key = SCHEMA["problem"].keys["type"]
    ptype = type_key.convert(
        _as_mapping(raw.get("problem"), "problem").get("type", type_key.default_for(kind, None)),
        "problem.type",
    )
    _problem_type_fits_the_kind(kind, ptype)
    _sections_fit_the_kind(raw, kind)
    raw = _given_bounds_replace_the_search_space(raw)
    sections = {
        name: _parse_section(name, raw.get(name), kind, ptype)
        for name, section in SCHEMA.items()
        if kind in section.kinds
    }
    config = RunConfig(kind=kind, seed=seed, out=out, **sections)
    _BUILDERS[kind](config)
    return config


def _parse_section(name: str, given, kind: str, ptype: str) -> dict:
    given = _as_mapping(given, name)
    keys = SCHEMA[name].keys
    _check_keys(given, keys, name)
    parsed = {}
    for key, spec in keys.items():
        default = spec.default_for(kind, ptype)
        if not isinstance(default, _Unused):
            parsed[key] = spec.convert(given.get(key, default), f"{name}.{key}")
        elif given.get(key) is not None and given[key] is not default.accepted:
            _fail(f"{name}.{key}", default.reason)
    return parsed


# rules that span keys; each failure names the key to change


def _problem_type_fits_the_kind(kind: str, ptype: str):
    accepted, reason = _PROBLEMS_BY_KIND[kind]
    if ptype not in accepted:
        _fail("problem.type", reason)


def _sections_fit_the_kind(raw: dict, kind: str):
    for name, section in SCHEMA.items():
        if kind not in section.kinds and raw.get(name) is not None:
            _fail(name, f"not used by {kind} runs")


def _given_bounds_replace_the_search_space(raw: dict) -> dict:
    """Giving ``search.bounds`` drops the default ``fixed`` and ``log10``."""
    search = raw.get("search")
    if isinstance(search, dict) and "bounds" in search:
        return {**raw, "search": {"log10": [], "fixed": {}, **search}}
    return raw


def _truth_gives_one_parameter(config: RunConfig):
    truth = config.sensors["truth"]
    if len(truth) != 1:
        _fail("sensors.truth", "give exactly one true parameter: nu or a")
    if "a" in truth and config.problem["type"] != "advection":
        _fail("sensors.truth", "the speed 'a' belongs to the transport problem")
    # the run reports and grades at the problem's value, the sensors
    # measure at the truth: the two must be one value
    name, value = next(iter(truth.items()))
    key = "nu" if name == "nu" else "speed"
    if value != config.problem[key]:
        _fail("sensors.truth", f"{name} = {value:g} differs from problem.{key} ({config.problem[key]:g})")


def _built(prefix: str, build, *args, **kwargs):
    """build(*args, **kwargs), its ValueError a ConfigValueError that puts
    prefix before the message: "search." before a spec's "bounds.tau: ...",
    but not before a field that is a section, as in "baseline.n_colloc: ..."."""
    try:
        return build(*args, **kwargs)
    except ValueError as err:
        named = str(err).split(":", 1)[0].split(".", 1)[0] in SCHEMA
        raise ConfigValueError(f"{'' if named else prefix}{err}") from err


# ---------------------------------------------------------------------------
# writing configurations back out


def _config_mapping(config: RunConfig) -> dict:
    out = {"kind": config.kind, "problem": config.problem, "seed": config.seed, "out": config.out}
    for name in SCHEMA:
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

# drivers.error_metrics under its old name, which only bench/spans.py PINNED resolves
compare_to_exact = error_metrics


# ---------------------------------------------------------------------------
# dispatch to the drivers


def _build_problem(problem: dict):
    """The problem its section's type names, built from the other keys."""
    return PROBLEMS[problem["type"]](**{key: value for key, value in problem.items() if key != "type"})


def _build_search_bounds(section: dict) -> SearchBounds:
    """The bounds of a search or advection section (the latter has no log10)."""
    params = [(name, lo, hi) for name, (lo, hi) in section["bounds"].items()]
    return SearchBounds(params, log_scale={name: True for name in section.get("log10", ())})


def _build_bo(section: dict) -> BoConfig:
    return BoConfig(max_evals=section["max_evals"], loss_tol=section["loss_tol"])


def _forward_spec(config: RunConfig) -> ForwardRunSpec:
    """A forward or inverse run's whole spec.  An inverse run's sensors are
    drawn from the seed's stream 9, and its search estimates the PDE
    parameter their truth names.  The file's own rules come first: one
    truth that matches the problem, an adaptive component in a forward
    run and at least one searched parameter."""
    search = config.search
    if config.sensors is not None:
        _truth_gives_one_parameter(config)
    if config.kind == "forward" and search["n_adaptive"] < 1:
        _fail("search.n_adaptive", "forward tuning needs at least one adaptive component")
    if not search["bounds"]:
        _fail("search.bounds", "at least one parameter must be searched")
    problem = _build_problem(config.problem)
    sensors, estimate = None, None
    if config.sensors is not None:
        s = config.sensors
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(9,)))
        placement = SensorPlacement(s["placement"])
        sensors = _built("sensors.", generate_sensor_data, problem, s["truth"], s["count"], s["noise"], placement, rng)
        (estimate,) = s["truth"]
    return _built(
        "search.",
        ForwardRunSpec,
        problem=problem,
        baseline=_built("baseline.", BaselineConfig, **config.baseline),
        n_adap=search["n_adaptive"],
        bounds=_built("search.log10: ", _build_search_bounds, search),
        bo=_build_bo(search),
        seed=config.seed,
        fixed=search["fixed"],
        eta=search["eta"],
        width_sharing=search["width_sharing"],
        estimate=estimate,
        sensors=sensors,
    )


def _searched(config: RunConfig) -> Optional[dict]:
    """The section whose bounds the run searches (or would search), if any."""
    return config.search if config.search is not None else config.advection


def _march_spec(config: RunConfig) -> TimeBlockSpec:
    a = config.advection
    return _built(
        "advection.",
        TimeBlockSpec,
        speed=config.problem["speed"],
        nu=config.problem["nu"],
        n_blocks=a["n_blocks"],
        n_colloc=a["n_colloc"],
        n_boundary=a["n_boundary"],
        n_initial=a["n_initial"],
        n_rbf=a["n_rbf"],
        t_final=a["t_final"],
        bounds=_build_search_bounds(a),
        bo=_build_bo(a),
        seed=config.seed,
        tunables=a["tunables"],
        tuning_blocks=a["tuning_blocks"],
    )


def _searched_run(config: RunConfig):
    return partial(run_kapi, _forward_spec(config))


def _curriculum_run(config: RunConfig):
    problem = _build_problem(config.problem)
    baseline = _built("baseline.", BaselineConfig, **config.baseline)
    _built("curriculum.", check_curriculum, problem, baseline, **config.curriculum)
    return partial(run_baseline_curriculum, problem, baseline, **config.curriculum)


# each kind's builder: its driver, bound to the specs the config builds
_BUILDERS = {
    "forward": _searched_run,
    "inverse": _searched_run,
    "advection": lambda config: partial(run_advection_forward, _march_spec(config)),
    "baseline-study": _curriculum_run,
}


# ---------------------------------------------------------------------------
# persistence


def _kernel_columns(models, numbered: bool) -> list:
    """kernels.csv as columns: the block number when numbered, then centers,
    widths, coefficient and component tag, every model's kernels in turn."""
    centers = np.concatenate([m.basis.centers for m in models])
    widths = np.concatenate([m.basis.widths for m in models])
    coeffs = np.concatenate([m.coefficients for m in models])
    counts = [m.coefficients.shape[0] for m in models]
    tags = np.concatenate(
        [np.zeros(n, dtype=int) if m.tags is None else m.tags for m, n in zip(models, counts)]
    )
    blocks = [np.repeat(np.arange(len(models)), counts)] if numbered else []
    return [*blocks, *centers.T, *widths.T, coeffs, tags]


def _tables(config: RunConfig, result: RunResult) -> dict:
    """The three CSVs of a run, each a (header, columns) pair of 1-D arrays.

    The driver graded the run: its mesh, predicted and reference (None
    when the run has none) fill solution.csv.  The march numbers its
    kernels by block.
    """
    searched = _searched(config)
    names = [] if searched is None else list(searched["bounds"])
    records = result.history.records
    ws = np.array([w for w, _ in records], dtype=float).reshape(len(records), len(names))
    losses = np.array([loss for _, loss in records], dtype=float)
    mesh, predicted, reference = result.mesh, result.predicted, result.reference
    axes = ["x", "t"] if config.problem["type"] == "advection" else ["x", "y"][: mesh.shape[1]]
    block = ["block"] if config.kind == "advection" else []
    kernel_header = block + [f"center_{a}" for a in axes] + [f"width_{a}" for a in axes]
    solution = [*mesh.T, predicted]
    if reference is not None:
        solution += [reference, np.abs(predicted - reference)]
    return {
        "loss_history.csv": (["k", *names, "loss"], [np.arange(len(records)), *ws.T, losses]),
        "kernels.csv": (
            kernel_header + ["coefficient", "component"],
            _kernel_columns(result.models, numbered=bool(block)),
        ),
        "solution.csv": (
            axes + ["predicted"] + ([] if reference is None else ["exact", "abs_error"]),
            solution,
        ),
    }


def _write_csv(path: Path, header, columns):
    """Write equal-length 1-D arrays as the columns of a table: %d for
    integer dtypes, %.17g (round-trip precision) for the rest.

    The rows are converted to Python numbers and written _CSV_CHUNK_ROWS
    at a time, so no whole table of Python objects or text is held."""
    template = ",".join("%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns) + "\n"
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for lo in range(0, columns[0].shape[0], _CSV_CHUNK_ROWS):
            chunk = zip(*(c[lo : lo + _CSV_CHUNK_ROWS].tolist() for c in columns))
            f.writelines(template % row for row in chunk)


def _provenance() -> dict:
    """Versions, numpy's BLAS and the loaded OpenBLAS thread counts.

    An empty ``blas_thread_counts`` means no thread control was found: the
    solves ran unpinned, so their bits may depend on the thread count.
    """
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas_name = "unknown"
    counts = blas_thread_counts()
    return {
        "rbfadapt": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_thread_counts": counts,
        "blas_thread_control": bool(counts),
    }


def run_command(config: RunConfig, quiet: bool = False, out_override: Optional[str] = None) -> ResultBundle:
    """Execute a run and persist its results.

    Output directory precedence: explicit ``out_override`` (the CLI's
    ``--out``), then the ``RBFADAPT_OUT`` environment variable, then the
    configuration's ``out`` field; an empty ``out_override`` is refused, an
    empty ``RBFADAPT_OUT`` counts as unset.  The directory is made before
    the run; one that cannot be made raises :class:`ConfigValueError`
    naming ``out``.  A numerical failure of the run, or a non-finite metric,
    raises ``ArithmeticError`` (exit code 3 from ``main``); an exhausted
    evaluation budget that never reached ``loss_tol`` is reported through
    ``exit_code`` 4 with all results written.
    """
    if out_override == "":
        _fail("out", "expected a non-empty path string")
    out_dir = Path(out_override or os.environ.get(OUT_ENV_VAR) or config.out)
    t0 = time.perf_counter()
    run = _BUILDERS[config.kind](config)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigValueError(f"out: cannot make the output directory {out_dir}: {err}") from err
    result = run()
    elapsed = time.perf_counter() - t0

    metrics, history = result.metrics, result.history
    for name, value in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ArithmeticError(f"metric {name} is not finite")

    exit_code = EXIT_OK
    searched = _searched(config)
    loss_tol = None if searched is None else searched["loss_tol"]
    if loss_tol is not None and history.stop_reason == "budget" and history.best_loss > loss_tol:
        exit_code = EXIT_BUDGET

    timings = {"total_seconds": elapsed}
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
        "n_evaluations": len(history),
        "stop_reason": history.stop_reason,
        "exit_code": exit_code,
        "provenance": _provenance(),
        **result.report,
    }
    summary_path = out_dir / "summary.json"
    summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    files.append(summary_path)

    for name, (header, columns) in _tables(config, result).items():
        path = out_dir / name
        _write_csv(path, header, columns)
        files.append(path)

    if not quiet:
        for name in sorted(metrics):
            print(f"{name}: {metrics[name]:.6g}" if isinstance(metrics[name], float) else f"{name}: {metrics[name]}")
        print(f"results written to {out_dir}")

    return ResultBundle(
        history=history,
        metrics=metrics,
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
    except ArithmeticError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    return bundle.exit_code


if __name__ == "__main__":
    sys.exit(main())
