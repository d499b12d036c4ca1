"""End-to-end workflows built on the sampling, assembly and search modules.

Three entry points, each taking its whole run from one spec:
run_baseline_curriculum stiffens a plain collocation solve until it
breaks and reports where the sharp features sit; run_kapi tunes the
kernel mixture for one problem by Bayesian search, and an inverse run
searches a PDE parameter with it, from the noisy sensors its
ForwardRunSpec carries, which also record the truth they measured;
run_advection_forward marches a transport problem through sequential
space-time slabs, at the tunables its TimeBlockSpec carries or tuned on
the spec's leading stretch of blocks.

What each cannot run is refused up front, naming the field first: by
the specs and by check_curriculum.  Each returns one RunResult, and each
grades and reports its own run: the search history (empty when it
searched nothing), the models, the metrics, the other summary entries,
and the test mesh with the model's values there and the reference, by
one rule (_graded) but for the march's t_final profile.

A run has one seed, its spec's, and every random draw of the run comes
from it: numpy's SeedSequence(entropy=seed, spawn_key=key), each leading
key used by one function alone (tests/test_source.py checks it):

    key         function                     draws
    none        bayesopt.optimize            the search's candidates
    (1,)        bayesopt._initial_design     the search's Latin hypercube
    (2, i)      forward_objective            evaluation i's diffusivity and kernels
    (3, i, j)   solve_advection_timeblocks   evaluation i's placements (j = 0, a child per block), width (j = 1)
    (9,)        cli_io._forward_spec         an inverse run's sensors
"""

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

import numpy as np

from .assembly import (
    FixedBlock,
    build_system,
    evaluate_model,
    extend,
    fill_rows,
    fixed_block,
    kept_columns,
    operator_matrix,
    solve_system,
)
from .bayesopt import BoConfig, BoHistory, SearchBounds, optimize
from .blas import fixed_blas_threads
from .clustering import MIN_GRADIENT_POINTS, detect_gradient_clusters
from .problems import (ADVECTION_X, Box, PdeProblem, ProblemKind, advection1d, advection_exact, advection_initial,
                       poisson_fdm_oracle)
from .rbf import RbfBasis, eval_matrix
from .sampling import (
    BaselineConfig,
    WIDTH_SHARING,
    boundary_points_1d,
    boundary_points_rect,
    boundary_points_xsides,
    check_grid_count,
    component_counts,
    default_eta,
    draw_widths,
    eta_fits,
    initial_points,
    most_square_factors,
    sample_configuration,
    uniform_grid,
)

# the transport march's tunables, in the order a tunables tuple lists them
TUNABLE_NAMES = ("f", "lam", "sigma_f")
# x samples of the t_final profile a transport march is graded on
FINAL_PROFILE_POINTS = 2001
# each PDE parameter a run can estimate, with the search-vector entry that estimates it
_ESTIMATED = {"nu": "mu_nu", "a": "a"}


# ---------------------------------------------------------------------------
# hyperparameter vector layout


def _component_names(n_adap: int, dim: int) -> list:
    """(f, center names, tau, lam) of each adaptive component."""
    axes = ["mu"] if dim == 1 else ["mu_x", "mu_y"]
    tags = [""] if n_adap == 1 else [f"_{k}" for k in range(1, n_adap + 1)]
    return [("f" + t, [a + t for a in axes], "tau" + t, "lam" + t) for t in tags]


def hyperparam_names(n_adap: int, dim: int, pde_params=()) -> list:
    """Canonical parameter order for a flat search vector.

    Per adaptive component: fraction f, center coordinates (mu in 1D,
    mu_x/mu_y in 2D), spread tau, width decay lam; suffixed _k when there
    is more than one component. PDE parameter names are appended last.
    """
    if n_adap < 0:
        raise ValueError("n_adap must be nonnegative")
    if dim not in (1, 2):
        raise ValueError("only 1D and 2D layouts exist")
    names = [name for f, mu, tau, lam in _component_names(n_adap, dim) for name in (f, *mu, tau, lam)]
    return names + list(pde_params)


# ---------------------------------------------------------------------------
# run specifications


# what the sampler requires of a search-vector entry or a march tunable,
# by its name without a component's _k suffix
_POSITIVE = (lambda v: v > 0, "positive")
_SIGN_RULES = {"f": _POSITIVE, "tau": _POSITIVE, "mu_nu": _POSITIVE, "sigma_nu": (lambda v: v >= 0, "nonnegative"),
               "sigma_f": _POSITIVE}


def _check_signs(entries):
    """Refuse the first (key, name, lowest value) entry whose name's sign
    rule (_SIGN_RULES) the value breaks, naming the key first."""
    for key, name, value in entries:
        rule = _SIGN_RULES.get(re.sub(r"_\d+$", "", name))
        if rule is not None and not rule[0](value):
            raise ValueError(f"{key}: {name} must stay {rule[1]}, but reaches {value:g}")


def _check_inside(key: str, bounds: SearchBounds, entries):
    """Refuse the first (name, value) entry that lies outside name's box in
    bounds, naming key first."""
    for name, value in entries:
        i = bounds.index_of(name)
        lo, hi = bounds.lowers[i], bounds.uppers[i]
        if not lo <= value <= hi:
            raise ValueError(f"{key}: {name} = {value:g} lies outside its bounds [{lo:g}, {hi:g}]")


def _check_stretch(key: str, n: int, n_blocks: int):
    """Refuse a count of leading time blocks outside [1, n_blocks], naming key first."""
    if not 1 <= n <= n_blocks:
        raise ValueError(f"{key}: must lie in [1, {n_blocks}], got {n}")


def check_baseline(problem: PdeProblem, baseline: BaselineConfig):
    """Refuse a baseline that problem's grids cannot take, naming the
    field first: a 2D grid count that lays out as no grid, a boundary count the
    perimeter cannot take (a 1D problem has exactly its two end points,
    the square at least one point a side and the space-time slab at least
    one per x edge), and initial rows on any problem but the transport
    one, which needs them."""
    kind, n_boundary = problem.kind.value, baseline.n_boundary
    if problem.dim == 2:
        for name in ("n_colloc", "n_rbf"):
            check_grid_count(getattr(baseline, name), f"baseline.{name}")
    if problem.dim == 1 and n_boundary != 2:
        raise ValueError(f"baseline.n_boundary: the {kind} problem has exactly 2 boundary points, got {n_boundary}")
    least = 4 if problem.kind is ProblemKind.POISSON2D else 2
    if n_boundary < least:
        raise ValueError(f"baseline.n_boundary: must be at least {least} for the {kind} problem, got {n_boundary}")
    transport = problem.kind is ProblemKind.ADVECTION1D
    if transport and baseline.n_initial is None:
        raise ValueError("baseline.n_initial: the transport problem needs a count of initial rows")
    if not transport and baseline.n_initial is not None:
        raise ValueError("baseline.n_initial: only the transport problem has initial rows; leave it null")


@dataclass(frozen=True)
class SensorData:
    points: np.ndarray
    values: np.ndarray
    # the parameters the sensors measured at, by name; empty when unknown
    truth: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.points.shape[0] != self.values.shape[0]:
            raise ValueError("points/values length mismatch")


@dataclass(frozen=True)
class ForwardRunSpec:
    """A searched forward or inverse run.

    An inverse run carries sensors, the last len(sensors) rows of every
    system it solves.  Construction refuses the settings the sampler or
    the grids would reject mid-run.  Each message names the field at fault
    first, "field: reason" (for example "bounds.tau: tau must stay
    positive, but reaches -0.5"), so a caller can put its section in front.
    """

    problem: PdeProblem
    baseline: BaselineConfig
    n_adap: int
    bounds: SearchBounds
    bo: BoConfig
    seed: int = 0
    fixed: dict = field(default_factory=dict)
    eta: Optional[float] = None
    width_sharing: str = "component"  # one of sampling.WIDTH_SHARING
    pde_params: tuple = ()
    sensors: Optional[SensorData] = None

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed: must be nonnegative, got {self.seed}")
        searched, fixed = set(self.bounds.names), set(self.fixed)
        overlap = searched & fixed
        if overlap:
            raise ValueError(f"fixed: parameters both searched and fixed: {sorted(overlap)}")
        expected = set(hyperparam_names(self.n_adap, self.problem.dim, self.pde_params))
        got = searched | fixed
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            parts = [f"{label} {names}" for label, names in (("missing", missing), ("unexpected", extra)) if names]
            raise ValueError("bounds: " + "; ".join(parts) + f" (need exactly {sorted(expected)})")
        domain = self.problem.domain
        if self.eta is not None and self.eta <= 0:
            raise ValueError(f"eta: must be positive, got {self.eta:g}")
        if self.eta is not None and not eta_fits(domain, self.eta):
            limit = default_eta(domain)
            raise ValueError(f"eta: must not exceed a tenth of the domain's longest side ({limit:g}), got {self.eta:g}")
        _check_signs([(f"bounds.{name}", name, lo) for name, lo in zip(self.bounds.names, self.bounds.lowers)]
                     + [(f"fixed.{name}", name, value) for name, value in self.fixed.items()])
        if self.width_sharing not in WIDTH_SHARING:
            raise ValueError(f"width_sharing: expected one of {list(WIDTH_SHARING)}, got {self.width_sharing!r}")
        check_baseline(self.problem, self.baseline)
        if "a" in self.pde_params and self.problem.advection_speed is None:
            raise ValueError(f"pde_params: the {self.problem.kind.value} problem has no advection speed to search")
        if self.sensors is not None:
            if not self.pde_params:
                raise ValueError("sensors: an inverse run needs PDE parameters in the search vector")
            if not bool(np.all(domain.contains(self.sensors.points))):
                raise ValueError("sensors: points must lie inside the problem domain")
            # the run grades and reports at the truth, so it must estimate every parameter named there
            unsearched = sorted(name for name in self.sensors.truth if _ESTIMATED.get(name) not in self.pde_params)
            if unsearched:
                raise ValueError(f"sensors: the truth names {unsearched}, which the run does not search")

    def named(self, w) -> dict:
        """The search vector by name: w, in the order of the bounds, then
        the fixed entries."""
        return {**dict(zip(self.bounds.names, w)), **self.fixed}

    @property
    def eta_value(self) -> float:
        return self.eta if self.eta is not None else default_eta(self.problem.domain)


@dataclass(frozen=True)
class RunResult:
    """What every run returns.  history is empty when the run searched
    nothing, and the march has one model per time block.  report holds the
    summary entries other than metrics.  reference is None when the run
    has none."""

    history: BoHistory
    models: tuple
    metrics: dict
    report: dict
    mesh: np.ndarray
    predicted: np.ndarray
    reference: Optional[np.ndarray]


# ---------------------------------------------------------------------------
# baseline solves and the curriculum study


def baseline_basis(domain: Box, baseline: BaselineConfig) -> RbfBasis:
    centers = uniform_grid(domain, baseline.n_rbf)
    widths = np.full_like(centers, baseline.sigma_f)
    return RbfBasis(centers, widths)


def _boundary_points(problem: PdeProblem, baseline: BaselineConfig) -> np.ndarray:
    if problem.kind in (ProblemKind.CONVDIFF1, ProblemKind.CONVDIFF2):
        return boundary_points_1d(problem.domain)
    if problem.kind is ProblemKind.POISSON2D:
        return boundary_points_rect(problem.domain, baseline.n_boundary)
    return boundary_points_xsides(problem.domain, baseline.n_boundary)


def _initial_rows(problem: PdeProblem, baseline: BaselineConfig):
    """The transport problem's initial (points, values) rows, which a
    checked baseline counts (check_baseline); none elsewhere."""
    if problem.kind is not ProblemKind.ADVECTION1D:
        return []
    pts = initial_points(problem.domain, baseline.n_initial)
    vals = advection_initial(pts[:, 0], problem.nu)
    return [(pts, vals)]


def baseline_block(problem: PdeProblem, baseline: BaselineConfig, extra_rows=(), basis=None):
    """The baseline kernels' rows at problem's collocation grid, boundary
    points and extra (points, values) rows, shared by every evaluation of
    a searched run whose operator stays fixed.  basis defaults to the
    whole baseline (baseline_basis)."""
    return fixed_block(
        problem,
        basis if basis is not None else baseline_basis(problem.domain, baseline),
        uniform_grid(problem.domain, baseline.n_colloc),
        _boundary_points(problem, baseline),
        extra_rows,
    )


def solve_baseline(problem: PdeProblem, baseline: BaselineConfig) -> tuple:
    """Uniform-grid fixed-width solve; returns (model, interior points)."""
    check_baseline(problem, baseline)
    basis = baseline_basis(problem.domain, baseline)
    interior = uniform_grid(problem.domain, baseline.n_colloc)
    system = build_system(
        problem,
        basis,
        interior,
        _boundary_points(problem, baseline),
        extra_rows=_initial_rows(problem, baseline),
    )
    return solve_system(system, basis), interior


def check_curriculum(problem: PdeProblem, baseline: BaselineConfig, schedule, threshold: float):
    """Refuse what run_baseline_curriculum cannot walk, naming the field
    first: an empty, nonpositive or not strictly decreasing schedule, a
    nonpositive threshold, a problem that is not 1D, fewer collocation
    points than the gradients take, and a baseline check_baseline refuses."""
    if len(schedule) == 0:
        raise ValueError("schedule: must not be empty")
    for name, value in [("schedule", v) for v in schedule] + [("threshold", threshold)]:
        if value <= 0:
            raise ValueError(f"{name}: must be positive, got {value:g}")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule: values must be strictly decreasing")
    if problem.dim != 1:
        raise ValueError("problem: curriculum cluster detection is one-dimensional")
    if baseline.n_colloc < MIN_GRADIENT_POINTS:
        raise ValueError(f"baseline.n_colloc: the gradients need {MIN_GRADIENT_POINTS} points, got {baseline.n_colloc}")
    check_baseline(problem, baseline)


def run_baseline_curriculum(
    problem: PdeProblem,
    baseline: BaselineConfig,
    schedule,
    threshold: float = 1e-3,
) -> RunResult:
    """Solve with the plain baseline at decreasing nu until it breaks.

    Walks the schedule from the largest nu down, stopping at the first
    value whose solvability measure, the max solution error on the test
    mesh (_graded), reaches the threshold; the sharp-gradient clusters of
    the last still-solvable solution tell the caller how many adaptive
    components the problem wants and where.  The solved entry's nu is
    reported as nu_solved, and its grading is the run's.
    """
    schedule = [float(v) for v in schedule]
    check_curriculum(problem, baseline, schedule, threshold)

    measures = []
    solved = None
    for nu in schedule:
        at_nu = replace(problem, nu=nu)
        model, interior = solve_baseline(at_nu, baseline)
        mesh, predicted, exact = _graded(at_nu, baseline.n_colloc, model)
        # the max solution error: the residual's sup norm sits orders of
        # magnitude above it for marginally resolved layers
        measure = error_metrics(predicted, exact)["linf"]
        measures.append({"nu": nu, "residual_loss": model.loss, "solvability": measure})
        if measure < threshold:
            solved = (nu, model, interior, mesh, predicted, exact)
        elif solved is not None:
            break
    if solved is None:
        detail = ", ".join(f"nu={m['nu']:g}: measure={m['solvability']:.3e}" for m in measures)
        raise ArithmeticError(f"baseline solved no schedule entry ({detail})")

    nu_solved, model, interior, mesh, predicted, exact = solved
    intervals = detect_gradient_clusters(interior[:, 0], evaluate_model(model, interior))
    metrics = {"nu_solved": nu_solved, "n_clusters": len(intervals), "residual_loss": model.loss, "n_evals": 0}
    report = {"schedule": measures, "cluster_intervals": [[float(a), float(b)] for a, b in intervals]}
    return RunResult(BoHistory(), (model,), metrics, report, mesh, predicted, exact)


# ---------------------------------------------------------------------------
# forward objective and the searched run


def _at_params(problem: PdeProblem, params: dict) -> PdeProblem:
    """The problem at the diffusivity (key nu) and advection speed (key a)
    of params; any other key, or a speed for a problem without one, is
    refused."""
    unknown = sorted(set(params) - set(_ESTIMATED))
    if unknown:
        raise ValueError(f"{unknown[0]}: not a PDE parameter; expected nu or a")
    if "a" in params and problem.advection_speed is None:
        raise ValueError(f"a: the {problem.kind.value} problem has no advection speed")
    overrides = {}
    if "nu" in params:
        overrides["nu"] = float(params["nu"])
    if "a" in params:
        overrides["advection_speed"] = float(params["a"])
    return replace(problem, **overrides)


def _effective_problem(problem: PdeProblem, values: dict, rng) -> PdeProblem:
    """The problem one evaluation solves: at the searched speed a, or at a
    diffusivity drawn from N(mu_nu, sigma_nu^2)."""
    if "a" in values:
        return _at_params(problem, {"a": values["a"]})
    if "mu_nu" not in values:
        return problem
    mu_nu = float(values["mu_nu"])
    # cap the spread at a tenth of the mean: the drawn candidate must
    # stay representative of the reported parameter, otherwise the
    # search can score one diffusivity while reporting another.  The
    # spec keeps mu_nu positive, so a draw at or below zero lies at least
    # ten spreads below the mean (probability below 1e-23); a zero spread
    # draws nothing
    sigma_nu = min(float(values["sigma_nu"]), 0.1 * mu_nu)
    nu = mu_nu if sigma_nu == 0 else mu_nu + sigma_nu * rng.standard_normal()
    return _at_params(problem, {"nu": nu})


def _extra_rows(spec: ForwardRunSpec, problem: PdeProblem) -> list:
    """problem's initial rows, then the spec's sensor rows, last."""
    extra = _initial_rows(problem, spec.baseline)
    if spec.sensors is not None:
        extra = extra + [(spec.sensors.points, spec.sensors.values)]
    return extra


def _operator_ends(spec: ForwardRunSpec) -> tuple:
    """spec's problem at two values of the PDE parameter its operator moves
    with: the speed a, or the diffusivity that mu_nu centres.  The operator
    is affine in either, so its rows at two distinct values span its rows
    at every value an evaluation can reach.  A searched parameter takes
    the ends of its box, a fixed value v takes v and 2v."""
    name = "a" if "a" in spec.pde_params else "mu_nu"
    if name in spec.bounds.names:
        i = spec.bounds.index_of(name)
        values = (spec.bounds.lowers[i], spec.bounds.uppers[i])
    else:
        values = (spec.fixed[name], 2.0 * spec.fixed[name])
    key = "a" if name == "a" else "nu"
    return tuple(_at_params(spec.problem, {key: v}) for v in values)


def _kept_baseline(spec: ForwardRunSpec) -> RbfBasis:
    """The baseline kernels that stay numerically independent in every
    system of a search over a PDE parameter without adaptive kernels.

    The operator rows at both ends of the parameter (_operator_ends) are
    stacked with the boundary, initial and sensor rows in one
    Fortran-ordered array, which kept_columns factors in place.
    Choosing the columns once per run extends the paper: the run then
    solves on these kernels only, not for gelsd's minimum-norm
    coefficients over the whole baseline.
    """
    problem, baseline = spec.problem, spec.baseline
    basis = baseline_basis(problem.domain, baseline)
    interior = uniform_grid(problem.domain, baseline.n_colloc)
    evaluated = np.vstack([_boundary_points(problem, baseline), *(pts for pts, _ in _extra_rows(spec, problem))])
    n = interior.shape[0]
    stack = np.empty((2 * n + evaluated.shape[0], basis.n_kernels), order="F")
    for k, end in enumerate(_operator_ends(spec)):
        fill_rows(stack[k * n:(k + 1) * n], lambda pts: operator_matrix(end, basis, pts), interior)
    fill_rows(stack[2 * n:], lambda pts: eval_matrix(basis, pts), evaluated)
    keep = kept_columns(stack)
    return RbfBasis(basis.centers[keep], basis.widths[keep])


def shared_baseline(spec: ForwardRunSpec):
    """What every evaluation of spec's run shares, from the spec alone.

    Without a searched PDE parameter the operator stays fixed, and this is
    the run's FixedBlock (baseline_block).  Otherwise each evaluation
    builds its own block at its own parameter, and this is the RbfBasis it
    builds on: the whole baseline, or, when the run draws no adaptive
    kernels, only the kernels _kept_baseline keeps.
    """
    problem, baseline = spec.problem, spec.baseline
    if not spec.pde_params:
        return baseline_block(problem, baseline, _extra_rows(spec, problem))
    if spec.n_adap == 0:
        return _kept_baseline(spec)
    return baseline_basis(problem.domain, baseline)


def forward_objective(spec: ForwardRunSpec, values: dict, eval_seed: int, shared) -> tuple:
    """One deterministic objective evaluation: sample, assemble, solve.

    values maps exactly the names of the spec's search vector (its bounds
    and fixed entries, see hyperparam_names) to numbers: each searched
    entry inside its bounds, each fixed one at its fixed value.  Other
    values are refused with a ValueError naming values first.  Returns
    (max-absolute-residual loss, solved model); a failed solve raises its
    ArithmeticError, which optimize records as a failed evaluation.  A
    searched speed, or a diffusivity drawn before the kernels, feeds both
    the operator and the width sampler.  shared is what the run's
    evaluations share (shared_baseline): a FixedBlock the evaluation
    extends, or the baseline kernels it builds its own problem's block on.
    """
    if set(values) != set(hyperparam_names(spec.n_adap, spec.problem.dim, spec.pde_params)):
        raise ValueError(f"values must name exactly the spec's search vector, got {sorted(values)}")
    _check_inside("values", spec.bounds, ((name, values[name]) for name in spec.bounds.names))
    for name, value in spec.fixed.items():
        if values[name] != value:
            raise ValueError(f"values: {name} is fixed at {value:g}, got {values[name]:g}")
    components = [
        (float(values[f]), np.array([values[m] for m in mu]), float(values[tau]), float(values[lam]))
        for f, mu, tau, lam in _component_names(spec.n_adap, spec.problem.dim)
    ]
    ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(2, int(eval_seed)))
    rng = np.random.default_rng(ss)
    problem = _effective_problem(spec.problem, values, rng)
    extra = _extra_rows(spec, problem)
    block = shared if isinstance(shared, FixedBlock) else baseline_block(problem, spec.baseline, extra, shared)
    adaptive, component_of = sample_configuration(
        components, spec.eta_value, spec.width_sharing, spec.baseline, problem.domain, problem.nu, rng
    )
    system, basis = extend(block, adaptive, [vals for _, vals in extra])
    model = solve_system(system, basis)
    tags = np.concatenate([np.zeros(block.basis.n_kernels, dtype=int), component_of])
    model = replace(model, tags=tags)
    return model.loss, model


def _graded(problem: PdeProblem, n_colloc: int, model) -> tuple:
    """(mesh, predicted, reference) of model on problem's test mesh: in 1D
    10 * n_colloc points against the closed form, on the Poisson square
    the oracle's 201 x 201 grid, on the transport slab 101 x 101 points
    against the closed form."""
    if problem.dim == 1:
        lo, hi = problem.domain.lower[0], problem.domain.upper[0]
        mesh = np.linspace(lo, hi, 10 * n_colloc)[:, None]
    else:
        n = 201 if problem.kind is ProblemKind.POISSON2D else 101
        mesh = uniform_grid(problem.domain, n * n)
    predicted = evaluate_model(model, mesh)
    if problem.kind is ProblemKind.POISSON2D:
        return mesh, predicted, poisson_fdm_oracle(problem.nu, 201).ravel()
    return mesh, predicted, problem.exact(mesh)


@fixed_blas_threads()
def error_metrics(predicted: np.ndarray, reference: np.ndarray) -> dict:
    """Max-norm and relative L2 error of predicted against reference.

    Mismatched shapes raise ValueError.  Against an identically zero
    reference the relative L2 error is 0 for a perfect match and inf
    otherwise.
    """
    if predicted.shape != reference.shape:
        raise ValueError(f"mesh mismatch: {predicted.shape} predicted vs {reference.shape} reference values")
    diff = predicted - reference
    denom = float(np.linalg.norm(reference))
    num = float(np.linalg.norm(diff))
    if denom > 0:
        rel = num / denom
    else:
        rel = 0.0 if num == 0.0 else float("inf")
    return {"linf": float(np.max(np.abs(diff))) if diff.size else 0.0, "rel_l2": rel}


def run_kapi(spec: ForwardRunSpec) -> RunResult:
    """Tune the kernel mixture, and the PDE parameters an inverse run
    estimates, by Bayesian search, and grade the winner.

    The best model (by residual loss) is graded on the test mesh
    (_graded) against the problem at the sensors' truth, which only
    reporting and grading see.  An inverse run whose sensors record no
    truth has no reference.  The report holds the incumbent's search vector by name
    (w_opt) and an estimate <name>_est of each PDE parameter searched; the
    estimate of a diffusivity is the incumbent's distribution mean mu_nu,
    not any single draw.
    """
    shared = shared_baseline(spec)
    history, model = optimize(
        lambda w, index: forward_objective(spec, spec.named(w), index, shared), spec.bounds, spec.bo, spec.seed
    )
    if model is None:
        raise ArithmeticError("every objective evaluation failed")
    w_opt = {name: float(v) for name, v in spec.named(history.best_w).items()}
    truth = spec.sensors.truth if spec.sensors is not None else {}
    mesh, predicted, reference = _graded(_at_params(spec.problem, truth), spec.baseline.n_colloc, model)
    if spec.sensors is not None and not truth:
        reference = None
    metrics = {"residual_loss": history.best_loss, "n_kernels": model.basis.n_kernels, "n_evals": len(history)}
    if reference is not None:
        metrics.update(error_metrics(predicted, reference))
    report = {"w_opt": w_opt}
    for name, key in _ESTIMATED.items():
        if key in spec.pde_params:
            report[f"{name}_est"] = est = w_opt[key]
            if name in truth:
                true = float(truth[name])
                metrics[f"{name}_rel_error"] = abs(est - true) / abs(true)
    return RunResult(history, (model,), metrics, report, mesh, predicted, reference)


# ---------------------------------------------------------------------------
# sequential time-block transport solve


def characteristic_mask(xs, ys) -> tuple:
    """The sharp-feature intervals of a start-of-block profile: its
    gradient clusters (clustering.detect_gradient_clusters).  A flat
    profile (or one whose gradients never clear the threshold) has none,
    and its block runs baseline-only.  A function of its own, not an
    alias of detect_gradient_clusters: the benchmark's tracer
    (bench/spans.py) traces both by name and keys its wrappers by
    function, so an alias would lose one of the two spans.
    """
    return detect_gradient_clusters(xs, ys)


@dataclass(frozen=True)
class TimeBlockSpec:
    """A transport march through sequential space-time slabs.

    Counts are per block. Tunables (f, lam, sigma_f) live in block
    coordinates: each slab of ADVECTION_X x [t_k, t_k + block_dt] is
    affinely mapped to the unit square and sigma_f is divided by
    sqrt(n_rbf) there, the 2D analog of the inverse-count width heuristic
    used for the 1D baselines.  Fixed tunables must lie inside bounds,
    whose f and sigma_f stay positive;
    without them the march is tuned on its first tuning_blocks blocks,
    a stretch in [1, n_blocks].  As in ForwardRunSpec, construction
    refuses what the march would reject, each message naming its field
    first.
    """

    speed: float = 0.5
    nu: float = 0.05
    n_blocks: int = 100
    n_colloc: int = 600
    n_boundary: int = 150
    n_initial: int = 450
    n_rbf: int = 150
    t_final: float = 1.0
    bounds: SearchBounds = field(
        default_factory=lambda: SearchBounds(
            [("f", 1.0, 1.5), ("lam", 1.0, 1.5), ("sigma_f", 2.5, 4.5)]
        )
    )
    bo: BoConfig = field(default_factory=lambda: BoConfig(max_evals=40, loss_tol=None))
    seed: int = 0
    # fixed (f, lam, sigma_f), or None to tune them
    tunables: Optional[tuple] = None
    tuning_blocks: int = 10

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed: must be nonnegative, got {self.seed}")
        counts = (("n_blocks", 1), ("n_colloc", 1), ("n_initial", MIN_GRADIENT_POINTS), ("n_rbf", 2), ("n_boundary", 2))
        for name, least in counts:
            if getattr(self, name) < least:
                raise ValueError(f"{name}: must be at least {least}, got {getattr(self, name)}")
        if self.n_rbf > self.n_colloc:
            raise ValueError(f"n_rbf: must not exceed n_colloc ({self.n_colloc}), got {self.n_rbf}")
        for name in ("n_colloc", "n_rbf"):
            check_grid_count(getattr(self, name), name)
        for name in ("t_final", "nu"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name}: must be positive, got {getattr(self, name):g}")
        if set(self.bounds.names) != set(TUNABLE_NAMES):
            raise ValueError(f"bounds: tunables are exactly f, lam, sigma_f; got {sorted(self.bounds.names)}")
        # fixed tunables lie inside the bounds, so the lower ends cover them
        _check_signs((f"bounds.{name}", name, lo) for name, lo in zip(self.bounds.names, self.bounds.lowers))
        if self.tunables is not None:
            # stored as floats in the order of TUNABLE_NAMES
            values = tuple(float(v) for v in self.tunables)
            if len(values) != len(TUNABLE_NAMES):
                raise ValueError(f"tunables: expected (f, lam, sigma_f), got {tuple(self.tunables)}")
            _check_inside("tunables", self.bounds, zip(TUNABLE_NAMES, values))
            object.__setattr__(self, "tunables", values)
        else:
            _check_stretch("tuning_blocks", self.tuning_blocks, self.n_blocks)

    @property
    def block_dt(self) -> float:
        return self.t_final / self.n_blocks

    def at(self, w) -> "TimeBlockSpec":
        """The spec at the search vector w, read in the order of the bounds
        as its tunables (f, lam, sigma_f)."""
        named = dict(zip(self.bounds.names, w))
        return replace(self, tunables=tuple(named[name] for name in TUNABLE_NAMES))


@dataclass(frozen=True)
class AdvectionResult:
    spec: TimeBlockSpec  # the march's spec, tunables included
    models: tuple
    block_losses: np.ndarray
    # operator residual on a staggered off-grid set; catches solutions
    # that alias between collocation points and look spuriously good
    validation_losses: np.ndarray

    @property
    def aggregate_loss(self) -> float:
        return float(np.max(self.block_losses))

    @property
    def aggregate_validation(self) -> float:
        return float(np.max(self.validation_losses))

    def graded_final_profile(self) -> tuple:
        """(mesh, predicted, reference) at t_final: FINAL_PROFILE_POINTS
        evenly spaced x across the domain, against the transported start
        profile.  t_final lies in the last block, whose model is evaluated
        in that block's unit coordinates."""
        spec = self.spec
        x0, x1 = ADVECTION_X
        k = spec.n_blocks - 1
        xs = np.linspace(x0, x1, FINAL_PROFILE_POINTS)
        ts = np.full_like(xs, spec.t_final)
        local = np.column_stack([(xs - x0) / (x1 - x0), (ts - k * spec.block_dt) / spec.block_dt])
        predicted = evaluate_model(self.models[k], local)
        return np.column_stack([xs, ts]), predicted, advection_exact(xs, spec.t_final, spec.speed, spec.nu)


def _sample_mask_points(intervals, speed: float, pad: float, n: int, rng) -> np.ndarray:
    """Uniform draws over the mask: intervals recorded at the start of a
    unit block, t = 0, each extended by pad on both ends and, at time t,
    shifted by speed * t along the characteristics."""
    lens = np.array([hi - lo + 2 * pad for lo, hi in intervals])
    ts = rng.uniform(0.0, 1.0, n)
    pick = rng.choice(len(lens), size=n, p=lens / lens.sum()) if len(lens) > 1 else np.zeros(n, dtype=int)
    frac = rng.uniform(0.0, 1.0, n)
    lows = np.array([lo for lo, _ in intervals])[pick] - pad
    shift = speed * ts
    xs = np.clip(lows + shift + frac * lens[pick], 0.0, 1.0)
    return np.column_stack([xs, ts])


def _solve_block(fixed: FixedBlock, adapt, ic_vals: np.ndarray, k: int):
    """Block k's model: the fixed baseline rows extended by the block's
    adaptive kernels (None when it has none), solved at its initial
    values.  The block's LinearSystem ends with this call, so the next
    block's is never built beside it."""
    system, basis = extend(fixed, adapt, [ic_vals])
    try:
        model = solve_system(system, basis)
    except ArithmeticError as err:
        raise ArithmeticError(f"time block {k} solve failed: {err}") from err
    return replace(model, tags=(np.arange(basis.n_kernels) >= fixed.basis.n_kernels).astype(int))


def solve_advection_timeblocks(spec: TimeBlockSpec, eval_seed: int = 0, n_blocks: Optional[int] = None
                               ) -> AdvectionResult:
    """March the transport solve through sequential unit-square slabs at
    the spec's tunables, which it must carry (run_advection_forward tunes
    a spec without them).

    Each block solves u_t + a_hat u_x = 0 in normalized coordinates with
    Dirichlet zeros on the x edges and initial rows handed off from the
    previous block's solution. Adaptive kernels and their collocation
    points are confined to the characteristic mask around the block's
    sharp initial features; a block with no sharp features runs with the
    baseline grid alone.  eval_seed picks the evaluation's draws.
    n_blocks marches only the spec's first n_blocks blocks (all of them
    when None; any other count outside [1, spec.n_blocks] is refused), at
    the spec's own block length, so they match the whole march's first
    blocks bit for bit; graded_final_profile needs the whole march.
    """
    if spec.tunables is None:
        raise ValueError("tunables: the march needs fixed (f, lam, sigma_f); run_advection_forward tunes them")
    n_blocks = spec.n_blocks if n_blocks is None else n_blocks
    _check_stretch("n_blocks", n_blocks, spec.n_blocks)
    f_ratio, lam, sigma_tun = spec.tunables
    x0, x1 = ADVECTION_X
    length_x = x1 - x0
    a_hat = spec.speed * spec.block_dt / length_x
    sigma_hat = sigma_tun / np.sqrt(spec.n_rbf)
    unit = Box((0.0, 0.0), (1.0, 1.0))
    block_problem = replace(advection1d(spec.nu, a_hat), domain=unit)
    ic_pts = initial_points(unit, spec.n_initial)
    ic_xhat = ic_pts[:, 0]
    nx = max(most_square_factors(spec.n_rbf))
    pad = 1.0 / (nx - 1)
    (n_adapt,) = component_counts(spec.n_rbf, [f_ratio])

    ic_vals = advection_initial(x0 + ic_xhat * length_x, spec.nu)

    # per-block placement streams and the width stream are seeded so a
    # prefix run (fewer blocks, same eval_seed) reproduces the same draws
    root = np.random.SeedSequence(entropy=spec.seed, spawn_key=(3, int(eval_seed), 0))
    block_seeds = root.spawn(n_blocks)
    width_seed = np.random.SeedSequence(entropy=spec.seed, spawn_key=(3, int(eval_seed), 1))
    # one shared width draw per evaluation; every block reuses it
    wx = draw_widths(sigma_hat, spec.nu, lam, 1, np.random.default_rng(width_seed))[0]
    # staggered points that avoid the collocation grid
    vx = (np.arange(25) + 0.5) / 25.0
    val_pts = np.column_stack([np.repeat(vx, 25), np.tile(vx, 25)])
    top_pts = np.column_stack([ic_xhat, np.ones_like(ic_xhat)])
    # the baseline kernels' entries are the same in every block: build them
    # once, and per block only the adaptive kernels' columns and rows
    baseline = BaselineConfig(spec.n_colloc, spec.n_rbf, sigma_hat, spec.n_boundary, spec.n_initial)
    fixed = baseline_block(block_problem, baseline, [(ic_pts, ic_vals)])
    base = fixed.basis
    # the validation and top-edge rows, [base | adaptive], filled a chunk of
    # rows at a time: the only copy of their base columns, written once.
    # n_adapt is fixed for the march, so a block with adaptive kernels
    # refills the adaptive columns in place, and a block without reads the
    # base columns alone
    val_rows_all = np.empty((val_pts.shape[0], spec.n_rbf + n_adapt))
    top_rows_all = np.empty((top_pts.shape[0], spec.n_rbf + n_adapt))
    fill_rows(val_rows_all[:, :spec.n_rbf], lambda pts: operator_matrix(block_problem, base, pts), val_pts)
    fill_rows(top_rows_all[:, :spec.n_rbf], lambda pts: eval_matrix(base, pts), top_pts)
    models, losses, val_losses = [], [], []
    for k in range(n_blocks):
        rng = np.random.default_rng(block_seeds[k])
        intervals = characteristic_mask(ic_xhat, ic_vals)
        if not intervals or n_adapt == 0:
            adapt = None
            val_rows, top_rows = val_rows_all[:, :spec.n_rbf], top_rows_all[:, :spec.n_rbf]
        else:
            adapt_pts = _sample_mask_points(intervals, a_hat, pad, n_adapt, rng)
            # sharp structure lives along x; time-direction kernels span the block
            widths = np.column_stack([np.full(n_adapt, wx), np.ones(n_adapt)])
            adapt = RbfBasis(adapt_pts, widths)
            val_rows, top_rows = val_rows_all, top_rows_all
            fill_rows(val_rows[:, spec.n_rbf:], lambda pts: operator_matrix(block_problem, adapt, pts), val_pts)
            fill_rows(top_rows[:, spec.n_rbf:], lambda pts: eval_matrix(adapt, pts), top_pts)
        model = _solve_block(fixed, adapt, ic_vals, k)
        models.append(model)
        losses.append(model.loss)
        with fixed_blas_threads():
            val_losses.append(float(np.max(np.abs(val_rows @ model.coefficients))))
            # next block's initial rows: this block's top edge, taken verbatim
            ic_vals = top_rows @ model.coefficients

    return AdvectionResult(spec, tuple(models), np.array(losses), np.array(val_losses))


def run_advection_forward(spec: TimeBlockSpec) -> RunResult:
    """Solve the transport problem at the spec's tunables, or tune them,
    and grade the march's t_final profile (graded_final_profile).

    Tuning marches the spec's first tuning_blocks blocks, at the spec's
    own block length, and scores each candidate by its off-grid
    validation residual, which penalizes kernels sharp enough to alias
    between collocation points.  The tuned blocks are the full march's
    own first blocks, bit for bit: the sampling streams only depend on
    (seed, eval index, block index), so the winning evaluation's draws
    carry over verbatim and the march reproduces its tuned loss.  The
    history is empty when the spec's tunables were fixed; the report
    holds the tunables and the per-block losses.
    """
    history, eval_seed = BoHistory(), 0
    if spec.tunables is None:
        def tuning_loss(w, index):
            # the full march replays the incumbent's draws, so no prefix march is kept
            return solve_advection_timeblocks(spec.at(w), index, spec.tuning_blocks).aggregate_validation, None

        history, _ = optimize(tuning_loss, spec.bounds, spec.bo, spec.seed)
        spec, eval_seed = spec.at(history.best_w), history.incumbent_index
    march = solve_advection_timeblocks(spec, eval_seed)
    mesh, predicted, reference = march.graded_final_profile()
    metrics = {"residual_loss": march.aggregate_loss, "validation_loss": march.aggregate_validation,
               **error_metrics(predicted, reference), "n_evals": len(history)}
    report = {"tunables": dict(zip(TUNABLE_NAMES, spec.tunables)), "block_losses": march.block_losses.tolist(),
              "validation_losses": march.validation_losses.tolist()}
    return RunResult(history, march.models, metrics, report, mesh, predicted, reference)


# ---------------------------------------------------------------------------
# sensor data


class SensorPlacement(Enum):
    UNIFORM_RANDOM = "uniform_random"
    BOUNDARY_LAYER_BIASED = "boundary_layer_biased"


def generate_sensor_data(
    problem: PdeProblem,
    true_params: dict,
    n_points: int,
    noise_fraction: float,
    placement: SensorPlacement,
    rng,
) -> SensorData:
    """Noisy point observations of the exact solution at the true
    parameters, which the data records as its truth.

    Multiplicative noise: value = exact * (1 + noise_fraction * N(0,1)).
    The biased placement puts ceil(2n/3) points in (0.9, 1) where the
    sharp layer lives and spreads the rest uniformly over (0, 0.9).
    """
    if n_points < 1:
        raise ValueError("need at least one sensor point")
    if noise_fraction < 0:
        raise ValueError("noise_fraction must be nonnegative")
    truth = _at_params(problem, true_params)
    dom = truth.domain
    if placement is SensorPlacement.UNIFORM_RANDOM:
        pts = rng.uniform(dom.lower, dom.upper, size=(n_points, dom.dim))
    else:
        if dom.dim != 1:
            raise ValueError("placement: boundary_layer_biased is defined for 1D problems; use uniform_random")
        n_layer = int(np.ceil(2 * n_points / 3))
        layer = rng.uniform(0.9, 1.0, n_layer)
        rest = rng.uniform(0.0, 0.9, n_points - n_layer)
        pts = np.concatenate([layer, rest])[:, None]
    values = truth.exact(pts)
    if values is None:
        raise ValueError("sensor generation needs an exact solution")
    values = values * (1.0 + noise_fraction * rng.standard_normal(n_points))
    return SensorData(pts, values, dict(true_params))
