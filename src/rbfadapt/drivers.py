"""End-to-end workflows built on the sampling, assembly and search modules.

Four entry points, each taking its whole run from one spec:
run_baseline_curriculum stiffens a plain collocation solve until it
breaks and reports where the sharp features sit; run_kapi_forward tunes
the kernel mixture for one forward problem; run_advection_forward
marches a transport problem through sequential space-time slabs, at the
tunables its TimeBlockSpec carries or tuned on the spec's leading stretch
of blocks; run_inverse estimates PDE parameters from the noisy sensors
its ForwardRunSpec carries, which also record the truth they measured.
A searched run returns its BoHistory, empty when it searched nothing.

The drivers also grade every run: the forward, inverse and curriculum
results carry the test mesh, the model's values there and the reference
(a closed form at the true parameters, or the finite-difference solve
for 2D Poisson), and a march's result grades its t_final profile.
"""

import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional

import numpy as np

from .assembly import (
    SolvedModel,
    build_system,
    evaluate_model,
    extend,
    fixed_block,
    operator_matrix,
    solve_system,
)
from .bayesopt import BoConfig, BoHistory, SearchBounds, optimize
from .blas import fixed_blas_threads
from .clustering import GradientClusterResult, detect_gradient_clusters
from .problems import ADVECTION_X, Box, PdeProblem, ProblemKind, advection1d, advection_exact, advection_initial
from .rbf import RbfBasis, eval_matrix
from .sampling import (
    BaselineConfig,
    MixtureComponent,
    MixtureHyperparams,
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
# per-axis count of the test mesh a 2D inverse run is graded on
INVERSE_MESH_2D = 101


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


# what the sampler requires of a search-vector entry, by its name without
# a component's _k suffix
_POSITIVE = (lambda v: v > 0, "positive")
_SIGN_RULES = {"f": _POSITIVE, "tau": _POSITIVE, "mu_nu": _POSITIVE, "sigma_nu": (lambda v: v >= 0, "nonnegative")}


def check_boundary_count(problem: PdeProblem, n_boundary: int):
    """Refuse a boundary count problem's perimeter cannot take: a 1D
    problem has exactly its two end points, the square at least one
    point a side and the space-time slab at least one per x edge."""
    kind = problem.kind.value
    if problem.dim == 1 and n_boundary != 2:
        raise ValueError(f"baseline.n_boundary: the {kind} problem has exactly 2 boundary points, got {n_boundary}")
    least = 4 if problem.kind is ProblemKind.POISSON2D else 2
    if n_boundary < least:
        raise ValueError(f"baseline.n_boundary: must be at least {least} for the {kind} problem, got {n_boundary}")


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
        searched, fixed = set(self.bounds.names), set(self.fixed)
        overlap = searched & fixed
        if overlap:
            raise ValueError(f"fixed: parameters both searched and fixed: {sorted(overlap)}")
        expected = set(hyperparam_names(self.n_adap, self.problem.dim, self.pde_params))
        got = searched | fixed
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            parts = []
            if missing:
                parts.append(f"missing {missing}")
            if extra:
                parts.append(f"unexpected {extra}")
            raise ValueError("bounds: " + "; ".join(parts) + f" (need exactly {sorted(expected)})")
        domain = self.problem.domain
        if self.eta is not None and self.eta <= 0:
            raise ValueError(f"eta: must be positive, got {self.eta:g}")
        if self.eta is not None and not eta_fits(domain, self.eta):
            limit = default_eta(domain)
            raise ValueError(f"eta: must not exceed a tenth of the domain's longest side ({limit:g}), got {self.eta:g}")
        lowest = [(f"bounds.{name}", name, lo) for name, lo in zip(self.bounds.names, self.bounds.lowers)]
        lowest += [(f"fixed.{name}", name, value) for name, value in self.fixed.items()]
        for key, name, value in lowest:
            rule = _SIGN_RULES.get(re.sub(r"_\d+$", "", name))
            if rule is not None and not rule[0](value):
                raise ValueError(f"{key}: {name} must stay {rule[1]}, but reaches {value:g}")
        if self.width_sharing not in WIDTH_SHARING:
            raise ValueError(f"width_sharing: expected one of {list(WIDTH_SHARING)}, got {self.width_sharing!r}")
        if self.problem.dim == 2:
            for name in ("n_colloc", "n_rbf"):
                check_grid_count(getattr(self.baseline, name), f"baseline.{name}")
        check_boundary_count(self.problem, self.baseline.n_boundary)
        _initial_rows(self.problem, self.baseline)  # refuses a transport problem without n_initial
        if self.sensors is not None:
            if not self.pde_params:
                raise ValueError("sensors: an inverse run needs PDE parameters in the search vector")
            if not bool(np.all(domain.contains(self.sensors.points))):
                raise ValueError("sensors: points must lie inside the problem domain")

    def named(self, w) -> dict:
        """The search vector by name: w, in the order of the bounds, then
        the fixed entries."""
        return {**dict(zip(self.bounds.names, w)), **self.fixed}

    @property
    def eta_value(self) -> float:
        return self.eta if self.eta is not None else default_eta(self.problem.domain)

    @property
    def test_mesh_size(self) -> int:
        # per-axis count in 2D, total count in 1D
        return 10 * self.baseline.n_colloc if self.problem.dim == 1 else 201


@dataclass(frozen=True)
class SearchResult:
    """A searched run, forward or inverse: the incumbent's search vector by
    name, its model graded on the test mesh (reference None when an
    inverse run has no true parameters), and the PDE parameters an
    inverse run estimates (empty for a forward run)."""

    w_named: dict
    model: SolvedModel
    history: BoHistory
    metrics: dict
    mesh: np.ndarray
    predicted: np.ndarray
    reference: Optional[np.ndarray]
    estimates: dict = field(default_factory=dict)


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
    if problem.kind is not ProblemKind.ADVECTION1D:
        return []
    if baseline.n_initial is None:
        raise ValueError("baseline.n_initial: the transport problem needs a count of initial rows")
    pts = initial_points(problem.domain, baseline.n_initial)
    vals = advection_initial(pts[:, 0], problem.nu)
    return [(pts, vals)]


def baseline_block(problem: PdeProblem, baseline: BaselineConfig, extra_rows=()):
    """The baseline kernels' rows at problem's collocation grid, boundary
    points and extra (points, values) rows, shared by every evaluation of
    a searched run whose operator stays fixed."""
    return fixed_block(
        problem,
        baseline_basis(problem.domain, baseline),
        uniform_grid(problem.domain, baseline.n_colloc),
        _boundary_points(problem, baseline),
        extra_rows,
    )


def solve_baseline(problem: PdeProblem, baseline: BaselineConfig) -> tuple:
    """Uniform-grid fixed-width solve; returns (model, interior points)."""
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


@dataclass(frozen=True)
class CurriculumResult:
    """The solved schedule entry, graded on a 10x-finer mesh against the
    closed form at nu_solved."""

    nu_solved: float
    clusters: GradientClusterResult
    measures: tuple  # ((nu, residual loss, solvability measure), ...) in order
    model: SolvedModel
    mesh: np.ndarray
    predicted: np.ndarray
    reference: np.ndarray


def run_baseline_curriculum(
    problem: PdeProblem,
    baseline: BaselineConfig,
    nu_schedule,
    threshold: float = 1e-3,
) -> CurriculumResult:
    """Solve with the plain baseline at decreasing nu until it breaks.

    Walks the schedule from the largest nu down, stopping at the first
    value whose solvability measure reaches the threshold; the
    sharp-gradient clusters of the last still-solvable solution tell the
    caller how many adaptive components the problem wants and where.
    """
    schedule = [float(v) for v in nu_schedule]
    if not schedule:
        raise ValueError("nu schedule is empty")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("nu schedule must be strictly decreasing")
    if problem.dim != 1:
        raise ValueError("curriculum cluster detection is one-dimensional")
    check_boundary_count(problem, baseline.n_boundary)

    measures = []
    solved = None
    mesh = _test_mesh(problem, 10 * baseline.n_colloc)
    for nu in schedule:
        at_nu = replace(problem, nu=nu)
        model, interior = solve_baseline(at_nu, baseline)
        predicted, exact = evaluate_model(model, mesh), at_nu.exact(mesh)
        # the max solution error: the residual's sup norm sits orders of
        # magnitude above it for marginally resolved layers
        measure = float(np.max(np.abs(predicted - exact)))
        measures.append((nu, model.loss, measure))
        if measure < threshold:
            solved = (nu, model, interior, predicted, exact)
        else:
            if solved is not None:
                break
    if solved is None:
        detail = ", ".join(f"nu={nu:g}: measure={ms:.3e}" for nu, _, ms in measures)
        raise ArithmeticError(f"baseline solved no schedule entry ({detail})")

    nu_solved, model, interior, predicted, exact = solved
    xs = interior[:, 0]
    ys = evaluate_model(model, interior)
    clusters = detect_gradient_clusters(xs, ys)
    return CurriculumResult(nu_solved, clusters, tuple(measures), model, mesh, predicted, exact)


# ---------------------------------------------------------------------------
# forward objective and the tuned forward run


def _at_params(problem: PdeProblem, params: dict) -> PdeProblem:
    """The problem at the diffusivity (key nu) and advection speed (key a) of params."""
    overrides = {}
    if "nu" in params:
        overrides["nu"] = float(params["nu"])
    if "a" in params:
        overrides["advection_speed"] = float(params["a"])
    return replace(problem, **overrides)


def _build_mixture(spec: ForwardRunSpec, values: dict) -> MixtureHyperparams:
    """The kernel mixture of a search vector, read by name."""
    comps = [
        MixtureComponent(float(values[f]), np.array([values[m] for m in mu]), float(values[tau]), float(values[lam]))
        for f, mu, tau, lam in _component_names(spec.n_adap, spec.problem.dim)
    ]
    return MixtureHyperparams(components=tuple(comps), eta=spec.eta_value, width_sharing=spec.width_sharing)


def _draw_nu(mu_nu: float, sigma_nu: float, rng) -> float:
    """One positive diffusivity draw from N(mu_nu, sigma_nu^2); after 100
    nonpositive draws, mu_nu."""
    if mu_nu <= 0:
        raise ValueError("mu_nu must be positive")
    if sigma_nu < 0:
        raise ValueError("sigma_nu must be nonnegative")
    if sigma_nu == 0.0:
        return mu_nu
    for _ in range(100):
        draw = mu_nu + sigma_nu * rng.standard_normal()
        if draw > 0:
            return float(draw)
    return mu_nu


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
    # search can score one diffusivity while reporting another
    sigma_nu = min(float(values["sigma_nu"]), 0.1 * mu_nu)
    return _at_params(problem, {"nu": _draw_nu(mu_nu, sigma_nu, rng)})


def _extra_rows(spec: ForwardRunSpec, problem: PdeProblem) -> list:
    """problem's initial rows, then the spec's sensor rows, last."""
    extra = _initial_rows(problem, spec.baseline)
    if spec.sensors is not None:
        extra = extra + [(spec.sensors.points, spec.sensors.values)]
    return extra


def forward_objective(spec: ForwardRunSpec, values: dict, eval_seed: int, fixed=None) -> tuple:
    """One deterministic objective evaluation: sample, assemble, solve.

    values maps exactly the names of the spec's search vector (its bounds
    and fixed entries, see hyperparam_names) to numbers.  Returns
    (max-absolute-residual loss, solved model). Solver failure yields
    (+inf, None). A searched speed, or a diffusivity drawn before the
    kernels, feeds both the operator and the width sampler.  fixed is
    the run's baseline block (see baseline_block) for a search without
    PDE parameters; when it is None the evaluation builds the block for
    its own problem.
    """
    if set(values) != set(hyperparam_names(spec.n_adap, spec.problem.dim, spec.pde_params)):
        raise ValueError(f"values must name exactly the spec's search vector, got {sorted(values)}")
    hp = _build_mixture(spec, values)
    ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(2, int(eval_seed)))
    rng = np.random.default_rng(ss)
    problem = _effective_problem(spec.problem, values, rng)
    try:
        block = fixed if fixed is not None else baseline_block(problem, spec.baseline, _extra_rows(spec, problem))
        cfg = sample_configuration(hp, spec.baseline, problem.domain, problem.nu, rng)
        extra_values = [vals for _, vals in _extra_rows(spec, problem)]
        system, basis = extend(block, cfg.adaptive, extra_values)
        model = solve_system(system, basis)
    except (ArithmeticError, np.linalg.LinAlgError):
        return np.inf, None
    tags = np.concatenate([np.zeros(block.basis.n_kernels, dtype=int), cfg.component_of])
    model = replace(model, tags=tags)
    return model.loss, model


def _optimize_forward(spec: ForwardRunSpec) -> tuple:
    """Shared BO loop; returns (history, the incumbent's model, its w_named)."""
    # a searched PDE parameter changes the operator per evaluation, so
    # each evaluation then builds its own block
    fixed = None if spec.pde_params else baseline_block(spec.problem, spec.baseline, _extra_rows(spec, spec.problem))
    history, model = optimize(
        lambda w, index: forward_objective(spec, spec.named(w), index, fixed), spec.bounds, spec.bo
    )
    if model is None:
        raise ArithmeticError("every objective evaluation failed")
    return history, model, spec.named(history.best_w)


def _test_mesh(problem: PdeProblem, n: int) -> np.ndarray:
    if problem.dim == 1:
        lo, hi = problem.domain.lower[0], problem.domain.upper[0]
        return np.linspace(lo, hi, n)[:, None]
    return uniform_grid(problem.domain, n * n)


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


def run_kapi_forward(spec: ForwardRunSpec) -> SearchResult:
    """Tune the kernel mixture by Bayesian search and grade the winner.

    The best model (by residual loss) is evaluated on a test mesh much
    finer than the collocation grid; for the 2D Poisson problem the
    reference is the finite-difference oracle, elsewhere the closed form.
    """
    history, model, w_named = _optimize_forward(spec)
    mesh = _test_mesh(spec.problem, spec.test_mesh_size)
    predicted = evaluate_model(model, mesh)
    if spec.problem.kind is ProblemKind.POISSON2D:
        from .problems import poisson_fdm_oracle

        reference = poisson_fdm_oracle(spec.problem.nu, spec.test_mesh_size).ravel()
    else:
        reference = spec.problem.exact(mesh)
    metrics = {
        "residual_loss": history.best_loss,
        "n_kernels": model.basis.n_kernels,
        "n_evals": len(history),
        **error_metrics(predicted, reference),
    }
    return SearchResult(w_named, model, history, metrics, mesh, predicted, reference)


# ---------------------------------------------------------------------------
# sequential time-block transport solve


def characteristic_mask(xs, ys) -> tuple:
    """The sharp-feature intervals of a start-of-block profile: its
    gradient clusters (clustering.detect_gradient_clusters).  A flat
    profile (or one whose gradients never clear the threshold) has none,
    and its block runs baseline-only.
    """
    return detect_gradient_clusters(xs, ys).intervals


@dataclass(frozen=True)
class TimeBlockSpec:
    """A transport march through sequential space-time slabs.

    Counts are per block. Tunables (f, lam, sigma_f) live in block
    coordinates: each slab of ADVECTION_X x [t_k, t_k + block_dt] is
    affinely mapped to the unit square and sigma_f is divided by
    sqrt(n_rbf) there, the 2D analog of the inverse-count width heuristic
    used for the 1D baselines.  Fixed tunables must lie inside bounds;
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
        for name, least in (("n_blocks", 1), ("n_colloc", 1), ("n_initial", 1), ("n_rbf", 2), ("n_boundary", 2)):
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
        if self.tunables is not None:
            # stored as floats in the order of TUNABLE_NAMES
            values = tuple(float(v) for v in self.tunables)
            if len(values) != len(TUNABLE_NAMES):
                raise ValueError(f"tunables: expected (f, lam, sigma_f), got {tuple(self.tunables)}")
            for name, value in zip(TUNABLE_NAMES, values):
                i = self.bounds.index_of(name)
                lo, hi = self.bounds.lowers[i], self.bounds.uppers[i]
                if not lo <= value <= hi:
                    raise ValueError(f"tunables: {name} = {value:g} lies outside its bounds [{lo:g}, {hi:g}]")
            object.__setattr__(self, "tunables", values)
        elif not 1 <= self.tuning_blocks <= self.n_blocks:
            raise ValueError(f"tuning_blocks: must lie in [1, {self.n_blocks}], got {self.tuning_blocks}")

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


def solve_advection_timeblocks(spec: TimeBlockSpec, eval_seed: int = 0) -> AdvectionResult:
    """March the transport solve through sequential unit-square slabs at
    the spec's tunables, which it must carry (run_advection_forward tunes
    a spec without them).

    Each block solves u_t + a_hat u_x = 0 in normalized coordinates with
    Dirichlet zeros on the x edges and initial rows handed off from the
    previous block's solution. Adaptive kernels and their collocation
    points are confined to the characteristic mask around the block's
    sharp initial features; a block with no sharp features runs with the
    baseline grid alone.  eval_seed picks the evaluation's draws.
    """
    if spec.tunables is None:
        raise ValueError("tunables: the march needs fixed (f, lam, sigma_f); run_advection_forward tunes them")
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
    _, n_adapt = component_counts(spec.n_rbf, [f_ratio])

    ic_vals = advection_initial(x0 + ic_xhat * length_x, spec.nu)

    # per-block placement streams and the width stream are seeded so a
    # prefix run (fewer blocks, same eval_seed) reproduces the same draws
    root = np.random.SeedSequence(entropy=spec.seed, spawn_key=(3, int(eval_seed), 0))
    block_seeds = root.spawn(spec.n_blocks)
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
    val_base = operator_matrix(block_problem, base, val_pts)
    top_base = eval_matrix(base, top_pts)
    # [base | adaptive] rows of the blocks with adaptive kernels: n_adapt is
    # fixed for the march, so the base columns are written once and each
    # block refills the adaptive ones in place
    val_rows_adapt = np.empty((val_pts.shape[0], spec.n_rbf + n_adapt))
    top_rows_adapt = np.empty((top_pts.shape[0], spec.n_rbf + n_adapt))
    val_rows_adapt[:, :spec.n_rbf] = val_base
    top_rows_adapt[:, :spec.n_rbf] = top_base
    models, losses, val_losses = [], [], []
    for k in range(spec.n_blocks):
        rng = np.random.default_rng(block_seeds[k])
        intervals = characteristic_mask(ic_xhat, ic_vals)
        if not intervals or n_adapt == 0:
            adapt = None
            val_rows, top_rows = val_base, top_base
        else:
            adapt_pts = _sample_mask_points(intervals, a_hat, pad, n_adapt, rng)
            # sharp structure lives along x; time-direction kernels span the block
            widths = np.column_stack([np.full(n_adapt, wx), np.ones(n_adapt)])
            adapt = RbfBasis(adapt_pts, widths)
            val_rows, top_rows = val_rows_adapt, top_rows_adapt
            val_rows[:, spec.n_rbf:] = operator_matrix(block_problem, adapt, val_pts)
            top_rows[:, spec.n_rbf:] = eval_matrix(adapt, top_pts)
        system, basis = extend(fixed, adapt, [ic_vals])
        try:
            model = solve_system(system, basis)
        except (ArithmeticError, np.linalg.LinAlgError) as err:
            raise ArithmeticError(f"time block {k} solve failed: {err}") from err
        model = replace(model, tags=(np.arange(basis.n_kernels) >= spec.n_rbf).astype(int))
        models.append(model)
        losses.append(model.loss)
        with fixed_blas_threads():
            val_losses.append(float(np.max(np.abs(val_rows @ model.coefficients))))
            # next block's initial rows: this block's top edge, taken verbatim
            ic_vals = top_rows @ model.coefficients

    return AdvectionResult(spec, tuple(models), np.array(losses), np.array(val_losses))


def run_advection_forward(spec: TimeBlockSpec) -> tuple:
    """Solve the transport problem at the spec's tunables, or tune them.

    Tuning evaluates the spec's first tuning_blocks blocks and scores each
    candidate by its off-grid validation residual, which penalizes
    kernels sharp enough to alias between collocation points; the draws
    of the winning evaluation carry over verbatim to the full sweep
    because the sampling streams only depend on (seed, eval index,
    block index).  Returns (AdvectionResult, BoHistory); the history is
    empty when the spec's tunables were fixed.
    """
    if spec.tunables is not None:
        return solve_advection_timeblocks(spec), BoHistory()
    prefix = replace(spec, n_blocks=spec.tuning_blocks, t_final=spec.block_dt * spec.tuning_blocks)

    # the full march replays the incumbent's draws, so no prefix march is kept
    history, _ = optimize(
        lambda w, index: (solve_advection_timeblocks(prefix.at(w), index).aggregate_validation, None),
        spec.bounds,
        spec.bo,
    )
    return solve_advection_timeblocks(spec.at(history.best_w), history.incumbent_index), history


# ---------------------------------------------------------------------------
# sensor data and inverse estimation


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
            raise ValueError("biased placement is defined for 1D problems")
        n_layer = int(np.ceil(2 * n_points / 3))
        layer = rng.uniform(0.9, 1.0, n_layer)
        rest = rng.uniform(0.0, 0.9, n_points - n_layer)
        pts = np.concatenate([layer, rest])[:, None]
    values = truth.exact(pts)
    if values is None:
        raise ValueError("sensor generation needs an exact solution")
    values = values * (1.0 + noise_fraction * rng.standard_normal(n_points))
    return SensorData(pts, values, dict(true_params))


def run_inverse(spec: ForwardRunSpec) -> SearchResult:
    """Estimate PDE parameters by minimizing the full-system residual.

    The spec's sensor rows join the collocation system on every
    evaluation; the reported estimate is the incumbent's distribution
    mean (mu_nu) or speed (a), not any single draw.  The best model is
    graded on the forward test mesh in 1D and an INVERSE_MESH_2D-per-axis
    mesh in 2D, against the closed form at the sensors' truth, which only
    reporting and grading see; when the truth is empty the reference is
    None.
    """
    if spec.sensors is None:
        raise ValueError("sensors: an inverse run needs sensor data")
    true_params = spec.sensors.truth
    problem = spec.problem
    history, model, w_named = _optimize_forward(spec)
    mesh = _test_mesh(problem, spec.test_mesh_size if problem.dim == 1 else INVERSE_MESH_2D)
    predicted = evaluate_model(model, mesh)
    reference = _at_params(problem, true_params).exact(mesh) if true_params else None
    if "mu_nu" in spec.pde_params:
        estimates = {"nu": float(w_named["mu_nu"])}
    else:
        estimates = {"a": float(w_named["a"])}
    metrics = {"residual_loss": history.best_loss, "n_evals": len(history)}
    for name, est in estimates.items():
        if name in true_params:
            truth = float(true_params[name])
            metrics[f"{name}_rel_error"] = abs(est - truth) / abs(truth)
    return SearchResult(w_named, model, history, metrics, mesh, predicted, reference, estimates)
