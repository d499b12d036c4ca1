"""End-to-end workflows built on the sampling, assembly and search modules.

Four entry points: run_baseline_curriculum stiffens a plain collocation
solve until it breaks and reports where the sharp features sit;
run_kapi_forward tunes the kernel mixture for one forward problem;
solve_advection_timeblocks marches a transport problem through sequential
space-time slabs; run_inverse estimates PDE parameters from noisy sensors.
"""

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .assembly import (
    RowKind,
    SolvedModel,
    build_system,
    evaluate_model,
    fixed_block,
    operator_matrix,
    solve_system,
)
from .bayesopt import BoConfig, BoHistory, SearchBounds, optimize
from .blas import fixed_blas_threads
from .clustering import (
    GradientClusterResult,
    dbscan,
    detect_gradient_clusters,
    estimate_gradients,
)
from .problems import Box, PdeProblem, ProblemKind, advection_initial
from .rbf import RbfBasis, eval_matrix
from .sampling import (
    BaselineConfig,
    MixtureComponent,
    MixtureHyperparams,
    boundary_points_1d,
    boundary_points_rect,
    boundary_points_xsides,
    component_counts,
    dedup_rows,
    default_eta,
    draw_widths,
    initial_points,
    most_square_factors,
    sample_configuration,
    sample_nu,
    uniform_grid,
)

# tunable defaults for the 100-block transport run, fixed by calibration
DEFAULT_ADVECTION_TUNABLES = (1.25, 1.0, 3.5)


# ---------------------------------------------------------------------------
# hyperparameter vector layout


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
    names = []
    for k in range(1, n_adap + 1):
        tag = "" if n_adap == 1 else f"_{k}"
        names.append("f" + tag)
        if dim == 1:
            names.append("mu" + tag)
        else:
            names.append("mu_x" + tag)
            names.append("mu_y" + tag)
        names.append("tau" + tag)
        names.append("lam" + tag)
    names.extend(pde_params)
    return names


def build_mixture(
    values: dict,
    n_adap: int,
    dim: int,
    eta: float,
    isotropic: bool = True,
    pde_params=(),
    width_sharing: str = "component",
) -> MixtureHyperparams:
    """Assemble mixture hyperparameters from a name -> value mapping."""
    comps = []
    for k in range(1, n_adap + 1):
        tag = "" if n_adap == 1 else f"_{k}"
        if dim == 1:
            mu = np.array([values["mu" + tag]])
        else:
            mu = np.array([values["mu_x" + tag], values["mu_y" + tag]])
        tau = np.full(dim, float(values["tau" + tag]))
        comps.append(
            MixtureComponent(float(values["f" + tag]), mu, tau, float(values["lam" + tag]))
        )
    inverse = None
    if "mu_nu" in pde_params:
        mu_nu = float(values["mu_nu"])
        # cap the spread at a tenth of the mean: the drawn candidate must
        # stay representative of the reported parameter, otherwise the
        # search can score one diffusivity while reporting another
        inverse = {"mu_nu": mu_nu, "sigma_nu": min(float(values["sigma_nu"]), 0.1 * mu_nu)}
    elif "a" in pde_params:
        inverse = {"a": float(values["a"])}
    return MixtureHyperparams(
        components=tuple(comps),
        eta=eta,
        inverse_params=inverse,
        isotropic_widths=isotropic,
        width_sharing=width_sharing,
    )


# ---------------------------------------------------------------------------
# run specifications


@dataclass(frozen=True)
class ForwardRunSpec:
    problem: PdeProblem
    baseline: BaselineConfig
    n_adap: int
    bounds: SearchBounds
    bo: BoConfig
    seed: int = 0
    fixed: dict = field(default_factory=dict)
    test_mesh: Optional[int] = None
    eta: Optional[float] = None
    isotropic_widths: bool = True
    # "component" shares one width draw across a component's kernels;
    # "kernel" draws per kernel, building a multi-scale width ladder for
    # features far below the collocation grid scale
    width_sharing: str = "component"
    pde_params: tuple = ()

    def __post_init__(self):
        expected = set(hyperparam_names(self.n_adap, self.problem.dim, self.pde_params))
        searched = set(self.bounds.names)
        fixed = set(self.fixed)
        if searched & fixed:
            raise ValueError(f"parameters both searched and fixed: {searched & fixed}")
        if searched | fixed != expected:
            raise ValueError(
                f"bounds+fixed must cover exactly {sorted(expected)}, "
                f"got {sorted(searched | fixed)}"
            )

    @property
    def eta_value(self) -> float:
        return self.eta if self.eta is not None else default_eta(self.problem.domain)

    @property
    def test_mesh_size(self) -> int:
        # per-axis count in 2D, total count in 1D
        if self.test_mesh is not None:
            return self.test_mesh
        return 10 * self.baseline.n_colloc if self.problem.dim == 1 else 201


@dataclass(frozen=True)
class ForwardResult:
    w_opt: np.ndarray
    w_named: dict
    model: SolvedModel
    history: BoHistory
    metrics: dict
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
    if not problem.has_initial_condition:
        return []
    n = baseline.n_initial if baseline.n_initial is not None else 2 * baseline.n_boundary
    pts = initial_points(problem.domain, n)
    vals = advection_initial(pts[:, 0], problem.nu)
    return [(pts, vals, RowKind.INITIAL)]


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
    nu_solved: float
    clusters: GradientClusterResult
    measures: tuple  # ((nu, residual loss, solvability measure), ...) in order
    model: SolvedModel


def _solvability_measure(problem: PdeProblem, model: SolvedModel, n_colloc: int) -> float:
    """Max solution error on a 10x-finer mesh; residual loss as fallback.

    The residual's sup norm sits orders of magnitude above the actual
    solution error for marginally resolved layers, so "accurate" is
    judged against the exact solution whenever one exists.
    """
    mesh = np.linspace(
        problem.domain.lower[0], problem.domain.upper[0], 10 * n_colloc
    )[:, None]
    exact = problem.exact(mesh)
    if exact is None:
        return model.loss
    return float(np.max(np.abs(evaluate_model(model, mesh) - exact)))


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

    measures = []
    solved = None
    for nu in schedule:
        model, interior = solve_baseline(replace(problem, nu=nu), baseline)
        measure = _solvability_measure(replace(problem, nu=nu), model, baseline.n_colloc)
        measures.append((nu, model.loss, measure))
        if measure < threshold:
            solved = (nu, model, interior)
        else:
            if solved is not None:
                break
    if solved is None:
        detail = ", ".join(f"nu={nu:g}: measure={ms:.3e}" for nu, _, ms in measures)
        raise ArithmeticError(f"baseline solved no schedule entry ({detail})")

    nu_solved, model, interior = solved
    xs = interior[:, 0]
    ys = evaluate_model(model, interior)
    clusters = detect_gradient_clusters(xs, ys)
    return CurriculumResult(nu_solved, clusters, tuple(measures), model)


# ---------------------------------------------------------------------------
# forward objective and the tuned forward run


def _effective_problem(problem: PdeProblem, hp: MixtureHyperparams, rng) -> PdeProblem:
    if hp.inverse_params is None:
        return problem
    if "a" in hp.inverse_params:
        return replace(problem, advection_speed=float(hp.inverse_params["a"]))
    return replace(problem, nu=sample_nu(hp, rng))


def _extra_rows(problem: PdeProblem, baseline: BaselineConfig, sensors=None) -> list:
    extra = _initial_rows(problem, baseline)
    if sensors is not None:
        extra = extra + [(sensors.points, sensors.values, RowKind.SENSOR)]
    return extra


def forward_objective(
    spec: ForwardRunSpec, hp: MixtureHyperparams, eval_seed: int, sensors=None, fixed=None
) -> tuple:
    """One deterministic objective evaluation: sample, assemble, solve.

    Returns (max-absolute-residual loss, solved model). Solver failure
    yields (+inf, None). When the hyperparameters carry PDE-parameter
    entries the drawn/assigned value feeds both the operator and the
    width sampler.  fixed is the run's baseline block (see
    _forward_fixed_block), reused by the assembly.
    """
    ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(2, int(eval_seed)))
    rng = np.random.default_rng(ss)
    problem = _effective_problem(spec.problem, hp, rng)
    try:
        cfg = sample_configuration(hp, spec.baseline, problem.domain, problem.nu, rng)
        system = build_system(
            problem,
            cfg.basis,
            cfg.interior_pts,
            _boundary_points(problem, spec.baseline),
            extra_rows=_extra_rows(problem, spec.baseline, sensors),
            fixed=fixed,
        )
        model = solve_system(system, cfg.basis)
    except (ArithmeticError, np.linalg.LinAlgError):
        return np.inf, None
    model = replace(model, tags=cfg.component_of)
    return model.loss, model


def _forward_fixed_block(spec: ForwardRunSpec, sensors=None):
    """The baseline kernels' rows at the collocation grid, boundary and
    extra points, shared by every evaluation of a run.  None when the run
    searches a PDE parameter: the operator then changes per evaluation."""
    if spec.pde_params:
        return None
    problem, baseline = spec.problem, spec.baseline
    return fixed_block(
        problem,
        baseline_basis(problem.domain, baseline),
        uniform_grid(problem.domain, baseline.n_colloc),
        _boundary_points(problem, baseline),
        _extra_rows(problem, baseline, sensors),
    )


def _optimize_forward(spec: ForwardRunSpec, sensors=None) -> tuple:
    """Shared BO loop; returns (history, best model, w_named, w_opt)."""
    state = {"i": 0, "best_loss": np.inf, "best_model": None}
    fixed = _forward_fixed_block(spec, sensors)

    def objective(w):
        values = dict(zip(spec.bounds.names, w))
        values.update(spec.fixed)
        hp = build_mixture(
            values,
            spec.n_adap,
            spec.problem.dim,
            spec.eta_value,
            spec.isotropic_widths,
            spec.pde_params,
            spec.width_sharing,
        )
        loss, model = forward_objective(spec, hp, state["i"], sensors, fixed)
        if loss < state["best_loss"]:
            state["best_loss"] = loss
            state["best_model"] = model
        state["i"] += 1
        return loss

    w_opt, history = optimize(objective, spec.bounds, spec.bo)
    if state["best_model"] is None:
        raise ArithmeticError("every objective evaluation failed")
    w_named = dict(zip(spec.bounds.names, w_opt))
    w_named.update(spec.fixed)
    return history, state["best_model"], w_named, np.asarray(w_opt)


def _test_mesh(problem: PdeProblem, n: int) -> np.ndarray:
    if problem.dim == 1:
        lo, hi = problem.domain.lower[0], problem.domain.upper[0]
        return np.linspace(lo, hi, n)[:, None]
    return uniform_grid(problem.domain, n * n)


@fixed_blas_threads()
def error_metrics(predicted: np.ndarray, reference: np.ndarray) -> dict:
    """Max-norm and relative L2 error of predicted against reference.

    Against an identically zero reference the relative L2 error is 0 for
    a perfect match and inf otherwise.
    """
    diff = predicted - reference
    denom = float(np.linalg.norm(reference))
    num = float(np.linalg.norm(diff))
    if denom > 0:
        rel = num / denom
    else:
        rel = 0.0 if num == 0.0 else float("inf")
    return {"linf": float(np.max(np.abs(diff))) if diff.size else 0.0, "rel_l2": rel}


def run_kapi_forward(spec: ForwardRunSpec, sensors=None) -> ForwardResult:
    """Tune the kernel mixture by Bayesian search and grade the winner.

    The best model (by residual loss) is evaluated on a test mesh much
    finer than the collocation grid; for the 2D Poisson problem the
    reference is the finite-difference oracle, elsewhere the closed form.
    """
    history, model, w_named, w_opt = _optimize_forward(spec, sensors)
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
    }
    if reference is not None:
        metrics.update(error_metrics(predicted, reference))
    return ForwardResult(w_opt, w_named, model, history, metrics, mesh, predicted, reference)


# ---------------------------------------------------------------------------
# sequential time-block transport solve


@dataclass(frozen=True)
class CharacteristicMask:
    """Sharp-feature region tracked along straight characteristics.

    Intervals are recorded at t_start; at time t each interval shifts by
    speed * (t - t_start) and extends by pad on both ends.
    """

    intervals: tuple
    speed: float
    t_start: float
    t_end: float
    pad: float

    @property
    def empty(self) -> bool:
        return len(self.intervals) == 0


def characteristic_mask(
    xs,
    ys,
    speed: float,
    block,
    pad: float,
    threshold_fraction: float = 1.0,
    epsilon: float = 0.05,
    min_pts: int = 5,
) -> CharacteristicMask:
    """Locate sharp gradients in a start-of-block profile and track them.

    A flat profile (or one whose gradients never clear the threshold)
    produces an empty mask, meaning the block runs baseline-only.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    t_start, t_end = float(block[0]), float(block[1])
    if t_end <= t_start:
        raise ValueError("block interval must have positive length")
    if threshold_fraction <= 0:
        raise ValueError("threshold_fraction must be positive")
    grads = estimate_gradients(xs, ys)
    magnitude = np.abs(grads)
    cutoff = threshold_fraction * float(np.mean(magnitude))
    selected = xs[magnitude > cutoff]
    intervals = []
    if selected.size:
        clusters, _ = dbscan(selected, epsilon, min_pts)
        for members in clusters:
            vals = selected[members]
            intervals.append((float(np.min(vals)), float(np.max(vals))))
    return CharacteristicMask(tuple(intervals), speed, t_start, t_end, pad)


@dataclass(frozen=True)
class TimeBlockSpec:
    """Sequential space-time slab configuration for the transport problem.

    Counts are per block. Tunables (f, lam, sigma_f) live in block
    coordinates: each slab is affinely mapped to the unit square and
    sigma_f is divided by sqrt(n_rbf) there, the 2D analog of the
    inverse-count width heuristic used for the 1D baselines.
    """

    speed: float = 0.5
    nu: float = 0.05
    n_blocks: int = 100
    n_colloc: int = 600
    n_boundary: int = 150
    n_initial: int = 450
    n_rbf: int = 150
    x_range: tuple = (-1.0, 1.0)
    t_final: float = 1.0
    bounds: SearchBounds = field(
        default_factory=lambda: SearchBounds(
            [("f", 1.0, 1.5), ("lam", 1.0, 1.5), ("sigma_f", 2.5, 4.5)]
        )
    )
    bo: BoConfig = field(default_factory=lambda: BoConfig(max_evals=40))
    seed: int = 0
    # "space": the scale draw narrows kernels along x only and the time
    # axis spans the whole block; "isotropic": one draw for both axes
    adaptive_widths: str = "space"

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError("need at least one block")
        if min(self.n_colloc, self.n_boundary, self.n_initial, self.n_rbf) < 1:
            raise ValueError("per-block counts must be positive")
        if self.t_final <= 0 or self.nu <= 0:
            raise ValueError("t_final and nu must be positive")
        if self.x_range[1] <= self.x_range[0]:
            raise ValueError("x_range must be increasing")
        if self.adaptive_widths not in ("space", "isotropic"):
            raise ValueError("adaptive_widths must be 'space' or 'isotropic'")
        if set(self.bounds.names) != {"f", "lam", "sigma_f"}:
            raise ValueError("tunable bounds must name f, lam, sigma_f")

    @property
    def block_dt(self) -> float:
        return self.t_final / self.n_blocks


@dataclass(frozen=True)
class AdvectionResult:
    spec: TimeBlockSpec
    tunables: tuple
    models: tuple
    masks: tuple
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

    def _to_block_coords(self, x, t, k):
        x0, x1 = self.spec.x_range
        xh = (np.asarray(x, dtype=float) - x0) / (x1 - x0)
        th = (np.asarray(t, dtype=float) - k * self.spec.block_dt) / self.spec.block_dt
        return np.column_stack([xh, th])

    def evaluate(self, pts: np.ndarray) -> np.ndarray:
        """Stitched solution at raw (x, t) points, shape (n, 2)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        ks = np.floor(pts[:, 1] / self.spec.block_dt).astype(int)
        ks = np.clip(ks, 0, self.spec.n_blocks - 1)
        out = np.empty(pts.shape[0])
        for k in np.unique(ks):
            sel = ks == k
            local = self._to_block_coords(pts[sel, 0], pts[sel, 1], int(k))
            out[sel] = evaluate_model(self.models[k], local)
        return out

    def final_profile(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        return self.evaluate(np.column_stack([xs, np.full_like(xs, self.spec.t_final)]))


def _sample_mask_points(mask: CharacteristicMask, n: int, rng) -> np.ndarray:
    """Uniform draws over the padded, characteristic-shifted mask region."""
    lens = np.array([hi - lo + 2 * mask.pad for lo, hi in mask.intervals])
    ts = rng.uniform(mask.t_start, mask.t_end, n)
    pick = rng.choice(len(lens), size=n, p=lens / lens.sum()) if len(lens) > 1 else np.zeros(n, dtype=int)
    frac = rng.uniform(0.0, 1.0, n)
    lows = np.array([lo for lo, _ in mask.intervals])[pick] - mask.pad
    shift = mask.speed * (ts - mask.t_start)
    xs = np.clip(lows + shift + frac * lens[pick], 0.0, 1.0)
    return np.column_stack([xs, ts])


def solve_advection_timeblocks(
    spec: TimeBlockSpec,
    tunables=DEFAULT_ADVECTION_TUNABLES,
    eval_seed: int = 0,
    initial_profile: Optional[Callable] = None,
) -> AdvectionResult:
    """March the transport solve through sequential unit-square slabs.

    Each block solves u_t + a_hat u_x = 0 in normalized coordinates with
    Dirichlet zeros on the x edges and initial rows handed off from the
    previous block's solution. Adaptive kernels and their collocation
    points are confined to the characteristic mask around the block's
    sharp initial features; a block with no sharp features runs with the
    baseline grid alone.
    """
    f_ratio, lam, sigma_tun = (float(v) for v in tunables)
    for name, value in (("f", f_ratio), ("lam", lam), ("sigma_f", sigma_tun)):
        i = spec.bounds.index_of(name)
        if not (spec.bounds.lowers[i] <= value <= spec.bounds.uppers[i]):
            raise ValueError(f"tunable {name}={value:g} outside bounds")

    x0, x1 = spec.x_range
    length_x = x1 - x0
    a_hat = spec.speed * spec.block_dt / length_x
    sigma_hat = sigma_tun / np.sqrt(spec.n_rbf)
    unit = Box((0.0, 0.0), (1.0, 1.0))
    block_problem = PdeProblem(
        kind=ProblemKind.ADVECTION1D,
        domain=unit,
        nu=spec.nu,
        advection_speed=a_hat,
        boundary_spec={"x_low": 0.0, "x_high": 0.0},
        has_initial_condition=True,
    )
    base = baseline_basis(unit, BaselineConfig(spec.n_colloc, spec.n_rbf, sigma_hat))
    grid = uniform_grid(unit, spec.n_colloc)
    bc_pts = boundary_points_xsides(unit, spec.n_boundary)
    ic_pts = initial_points(unit, spec.n_initial)
    ic_xhat = ic_pts[:, 0]
    nx = max(most_square_factors(spec.n_rbf))
    pad = 1.0 / (nx - 1)
    _, n_adapt = component_counts(spec.n_rbf, [f_ratio])

    if initial_profile is None:
        ic_vals = advection_initial(x0 + ic_xhat * length_x, spec.nu)
    else:
        ic_vals = np.asarray(initial_profile(x0 + ic_xhat * length_x), dtype=float)

    # per-block placement streams and the width stream are seeded so a
    # prefix run (fewer blocks, same eval_seed) reproduces the same draws
    root = np.random.SeedSequence(entropy=spec.seed, spawn_key=(3, int(eval_seed), 0))
    block_seeds = root.spawn(spec.n_blocks)
    width_seed = np.random.SeedSequence(entropy=spec.seed, spawn_key=(3, int(eval_seed), 1))
    # one shared width draw per evaluation; every block reuses it
    wx = draw_widths(sigma_hat, spec.nu, lam, 1, np.random.default_rng(width_seed))[0]
    # sharp structure lives along x; time-direction kernels span the block
    wt = 1.0 if spec.adaptive_widths == "space" else wx
    # staggered points that avoid the collocation grid
    vx = (np.arange(25) + 0.5) / 25.0
    val_pts = np.column_stack([np.repeat(vx, 25), np.tile(vx, 25)])
    top_pts = np.column_stack([ic_xhat, np.ones_like(ic_xhat)])
    # the baseline kernels' entries are the same in every block: build them
    # once, and per block only the adaptive kernels' columns and rows
    fixed = fixed_block(
        block_problem, base, grid, bc_pts, [(ic_pts, ic_vals, RowKind.INITIAL)]
    )
    val_base = operator_matrix(block_problem, base, val_pts)
    top_base = eval_matrix(base, top_pts)
    # [base | adaptive] rows of the blocks with adaptive kernels: n_adapt is
    # fixed for the march, so the base columns are written once and each
    # block refills the adaptive ones in place
    val_rows_adapt = np.empty((val_pts.shape[0], spec.n_rbf + n_adapt))
    top_rows_adapt = np.empty((top_pts.shape[0], spec.n_rbf + n_adapt))
    val_rows_adapt[:, :spec.n_rbf] = val_base
    top_rows_adapt[:, :spec.n_rbf] = top_base
    models, masks, losses, val_losses = [], [], [], []
    for k in range(spec.n_blocks):
        rng = np.random.default_rng(block_seeds[k])
        mask = characteristic_mask(ic_xhat, ic_vals, a_hat, (0.0, 1.0), pad)
        if mask.empty or n_adapt == 0:
            basis = base
            interior = grid
            tags = np.zeros(spec.n_rbf, dtype=int)
            val_rows, top_rows = val_base, top_base
        else:
            adapt_pts = _sample_mask_points(mask, n_adapt, rng)
            widths = np.column_stack(
                [np.full(n_adapt, wx), np.full(n_adapt, wt)]
            )
            basis = RbfBasis(
                np.vstack([base.centers, adapt_pts]),
                np.vstack([base.widths, widths]),
            )
            interior = dedup_rows(np.vstack([grid, adapt_pts]))
            tags = np.concatenate([np.zeros(spec.n_rbf, dtype=int), np.ones(n_adapt, dtype=int)])
            adapt = RbfBasis(adapt_pts, widths)
            val_rows, top_rows = val_rows_adapt, top_rows_adapt
            val_rows[:, spec.n_rbf:] = operator_matrix(block_problem, adapt, val_pts)
            top_rows[:, spec.n_rbf:] = eval_matrix(adapt, top_pts)
        system = build_system(
            block_problem,
            basis,
            interior,
            bc_pts,
            extra_rows=[(ic_pts, ic_vals, RowKind.INITIAL)],
            fixed=fixed,
        )
        try:
            model = solve_system(system, basis)
        except (ArithmeticError, np.linalg.LinAlgError) as err:
            raise ArithmeticError(f"time block {k} solve failed: {err}") from err
        model = replace(model, tags=tags)
        models.append(model)
        masks.append(mask)
        losses.append(model.loss)
        with fixed_blas_threads():
            val_losses.append(float(np.max(np.abs(val_rows @ model.coefficients))))
            # next block's initial rows: this block's top edge, taken verbatim
            ic_vals = top_rows @ model.coefficients

    return AdvectionResult(
        spec,
        (f_ratio, lam, sigma_tun),
        tuple(models),
        tuple(masks),
        np.array(losses),
        np.array(val_losses),
    )


def run_advection_forward(spec: TimeBlockSpec, tunables=None, tuning_blocks: int = 10) -> tuple:
    """Solve the transport problem, tuning (f, lam, sigma_f) when not given.

    Tuning evaluates a short leading stretch of blocks and scores each
    candidate by its off-grid validation residual, which penalizes
    kernels sharp enough to alias between collocation points; the draws
    of the winning evaluation carry over verbatim to the full sweep
    because the sampling streams only depend on (seed, eval index,
    block index).  Returns (AdvectionResult, BoHistory or None).
    """
    if tunables is not None:
        return solve_advection_timeblocks(spec, tunables), None
    n_tune = min(max(int(tuning_blocks), 1), spec.n_blocks)
    prefix = replace(
        spec, n_blocks=n_tune, t_final=spec.block_dt * n_tune
    )

    state = {"i": 0}

    def objective(w):
        i = state["i"]
        state["i"] += 1
        return solve_advection_timeblocks(prefix, tuple(w), eval_seed=i).aggregate_validation

    w_opt, history = optimize(objective, spec.bounds, spec.bo)
    result = solve_advection_timeblocks(spec, tuple(w_opt), eval_seed=int(history.incumbent_index))
    return result, history


# ---------------------------------------------------------------------------
# sensor data and inverse estimation


class SensorPlacement(Enum):
    UNIFORM_RANDOM = "uniform_random"
    BOUNDARY_LAYER_BIASED = "boundary_layer_biased"


@dataclass(frozen=True)
class SensorData:
    points: np.ndarray
    values: np.ndarray
    noise_fraction: float
    placement: SensorPlacement

    def __post_init__(self):
        if self.points.shape[0] != self.values.shape[0]:
            raise ValueError("points/values length mismatch")
        if self.noise_fraction < 0:
            raise ValueError("noise_fraction must be nonnegative")


def generate_sensor_data(
    problem: PdeProblem,
    true_params: dict,
    n_points: int,
    noise_fraction: float,
    placement: SensorPlacement,
    rng,
) -> SensorData:
    """Noisy point observations of the exact solution at the true parameters.

    Multiplicative noise: value = exact * (1 + noise_fraction * N(0,1)).
    The biased placement puts ceil(2n/3) points in (0.9, 1) where the
    sharp layer lives and spreads the rest uniformly over (0, 0.9).
    """
    if n_points < 1:
        raise ValueError("need at least one sensor point")
    if noise_fraction < 0:
        raise ValueError("noise_fraction must be nonnegative")
    overrides = {}
    if "nu" in true_params:
        overrides["nu"] = float(true_params["nu"])
    if "a" in true_params:
        overrides["advection_speed"] = float(true_params["a"])
    truth = replace(problem, **overrides) if overrides else problem
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
    return SensorData(pts, values, float(noise_fraction), placement)


@dataclass(frozen=True)
class InverseRunSpec:
    forward: ForwardRunSpec
    sensors: SensorData
    true_params: dict = field(default_factory=dict)  # reporting only

    def __post_init__(self):
        if not self.forward.pde_params:
            raise ValueError("inverse run needs PDE parameters in the search vector")
        inside = self.forward.problem.domain.contains(self.sensors.points)
        if not bool(np.all(inside)):
            raise ValueError("sensor points must lie inside the problem domain")


@dataclass(frozen=True)
class InverseResult:
    estimates: dict
    history: BoHistory
    model: SolvedModel
    w_named: dict
    metrics: dict


def run_inverse(spec: InverseRunSpec) -> InverseResult:
    """Estimate PDE parameters by minimizing the full-system residual.

    Sensor rows join the collocation system on every evaluation; the
    reported estimate is the incumbent's distribution mean (mu_nu) or
    speed (a), not any single draw.
    """
    history, model, w_named, _ = _optimize_forward(spec.forward, spec.sensors)
    if "mu_nu" in spec.forward.pde_params:
        estimates = {"nu": float(w_named["mu_nu"])}
    else:
        estimates = {"a": float(w_named["a"])}
    metrics = {"residual_loss": history.best_loss, "n_evals": len(history)}
    for name, est in estimates.items():
        if name in spec.true_params:
            truth = float(spec.true_params[name])
            metrics[f"{name}_rel_error"] = abs(est - truth) / abs(truth)
    return InverseResult(estimates, history, model, w_named, metrics)
