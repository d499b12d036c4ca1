"""End-to-end driver workflows: curriculum, tuned forward solve, transport blocks, inverse runs."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rbfadapt.assembly import (
    build_system,
    dedup_rows,
    evaluate_model,
    operator_matrix,
    solve_system,
)
from rbfadapt.bayesopt import BoConfig, SearchBounds
from rbfadapt.blas import fixed_blas_threads
from rbfadapt.drivers import (
    TUNABLE_NAMES,
    _at_params,
    _effective_problem,
    _extra_rows,
    _graded,
    _sample_mask_points,
    ForwardRunSpec,
    SensorData,
    SensorPlacement,
    TimeBlockSpec,
    baseline_block,
    characteristic_mask,
    check_curriculum,
    error_metrics,
    forward_objective,
    generate_sensor_data,
    hyperparam_names,
    run_advection_forward,
    run_baseline_curriculum,
    run_kapi,
    shared_baseline,
    solve_advection_timeblocks,
    solve_baseline,
)
from rbfadapt.problems import (
    ADVECTION_X,
    Box,
    PdeProblem,
    ProblemKind,
    advection1d,
    advection_initial,
    convdiff_type1,
    convdiff_type2,
    poisson2d,
)
from rbfadapt.rbf import RbfBasis
from rbfadapt.sampling import (
    BaselineConfig,
    boundary_points_xsides,
    initial_points,
    uniform_grid,
)


# ---------------------------------------------------------------------------
# hyperparameter vector layout


class TestHyperparamNames:
    def test_single_component_1d(self):
        assert hyperparam_names(1, 1) == ["f", "mu", "tau", "lam"]

    def test_two_components_2d_are_suffixed(self):
        names = hyperparam_names(2, 2)
        assert names == [
            "f_1", "mu_x_1", "mu_y_1", "tau_1", "lam_1",
            "f_2", "mu_x_2", "mu_y_2", "tau_2", "lam_2",
        ]

    def test_pde_parameters_append_last(self):
        assert hyperparam_names(0, 2, "a") == ["a"]
        assert hyperparam_names(1, 1, "nu")[-2:] == ["mu_nu", "sigma_nu"]

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            hyperparam_names(-1, 1)
        with pytest.raises(ValueError):
            hyperparam_names(1, 3)


# ---------------------------------------------------------------------------
# baseline curriculum


class TestBaselineCurriculum:
    BASE = BaselineConfig(500, 500, 0.1)

    def test_steep_front_schedule_stops_at_last_solvable(self):
        result = run_baseline_curriculum(
            convdiff_type1(0.1), self.BASE, [0.1, 0.05, 0.01]
        )
        assert result.metrics["nu_solved"] == 0.05
        assert [m["nu"] for m in result.report["schedule"]] == [0.1, 0.05, 0.01]
        assert result.metrics["n_clusters"] == 1
        (lo, hi), = result.report["cluster_intervals"]
        assert 0.85 <= lo < hi <= 1.0

    def test_single_entry_schedule_short_circuits(self):
        result = run_baseline_curriculum(convdiff_type1(0.1), self.BASE, [0.1])
        assert result.metrics["nu_solved"] == 0.1
        assert len(result.report["schedule"]) == 1

    def test_interior_front_problem_finds_two_sharp_regions(self):
        result = run_baseline_curriculum(
            convdiff_type2(0.3), self.BASE, [0.3, 0.2, 0.15, 0.1]
        )
        assert result.metrics["n_clusters"] == 2

    def test_unsolvable_schedule_raises_with_diagnostics(self):
        with pytest.raises(ArithmeticError, match="nu=0.001"):
            run_baseline_curriculum(convdiff_type1(0.001), self.BASE, [0.001])

    def test_non_decreasing_schedule_rejected(self):
        with pytest.raises(ValueError):
            run_baseline_curriculum(convdiff_type1(0.1), self.BASE, [0.05, 0.1])

    def test_empty_schedule_rejected(self):
        with pytest.raises(ValueError):
            run_baseline_curriculum(convdiff_type1(0.1), self.BASE, [])

    def test_study_is_graded_on_the_ten_times_finer_mesh(self):
        # the solvability of the solved entry is the max error the run reports its grading by
        result = run_baseline_curriculum(convdiff_type1(0.1), self.BASE, [0.1, 0.05, 0.01])
        assert result.mesh.shape == (10 * self.BASE.n_colloc, 1)
        (solved,) = [m for m in result.report["schedule"] if m["nu"] == result.metrics["nu_solved"]]
        assert solved["solvability"] == error_metrics(result.predicted, result.reference)["linf"]

    @pytest.mark.parametrize("problem,schedule,threshold,n_colloc,message", [
        (convdiff_type1(0.1), [], 1e-3, 100, "schedule: must not be empty"),
        (convdiff_type1(0.1), [0.1, 0.1], 1e-3, 100, "schedule: values must be strictly decreasing"),
        (poisson2d(0.05), [0.1], 1e-3, 100, "problem: curriculum cluster detection is one-dimensional"),
        # the library once reached these mid-walk: "nu must be positive"
        # after the first solve, and "baseline solved no schedule entry"
        (convdiff_type1(0.1), [0.5, -0.1], 1e-3, 100, "schedule: must be positive, got -0.1"),
        (convdiff_type1(0.1), [0.5, 0.1], 0.0, 100, "threshold: must be positive, got 0"),
        # the solved entry's gradients need three points, once found after the whole schedule
        (convdiff_type1(0.1), [0.1], 1e-3, 2, "baseline.n_colloc: the gradients need 3 points, got 2"),
    ])
    def test_check_curriculum_names_the_field(self, problem, schedule, threshold, n_colloc, message):
        baseline = BaselineConfig(n_colloc, min(49, n_colloc), 0.1, n_boundary=4)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_curriculum(problem, baseline, schedule, threshold)

    def test_boundary_count_other_than_two_rejected(self):
        # the 1D problems lay out their two end points whatever the count
        with pytest.raises(ValueError, match="^baseline.n_boundary: the convdiff1 problem has exactly 2"):
            run_baseline_curriculum(convdiff_type1(0.1), replace(self.BASE, n_boundary=50), [0.1])

    def test_initial_rows_rejected(self):
        # only the transport problem has initial rows; a count elsewhere is refused, not ignored
        message = "^baseline.n_initial: only the transport problem has initial rows; leave it null$"
        with pytest.raises(ValueError, match=message):
            run_baseline_curriculum(convdiff_type1(0.1), replace(self.BASE, n_initial=81), [0.1])


# ---------------------------------------------------------------------------
# forward objective evaluations


def _baseline_only_spec(nu):
    return ForwardRunSpec(
        problem=convdiff_type1(nu),
        baseline=BaselineConfig(500, 250, 0.04),
        n_adap=0,
        bounds=SearchBounds([]),
        bo=BoConfig(max_evals=1),
        seed=0,
    )


def _one_component_spec(nu):
    return ForwardRunSpec(
        problem=convdiff_type1(nu),
        baseline=BaselineConfig(500, 250, 0.04),
        n_adap=1,
        bounds=SearchBounds([("mu", 0.9, 0.9999), ("tau", 0.01, 0.5), ("lam", -0.5, 0.9)]),
        bo=BoConfig(max_evals=1),
        seed=0,
        fixed={"f": 0.5},
    )


def _default_one_component_spec():
    # the forward defaults' search: one component, f fixed at 0.5
    return ForwardRunSpec(
        problem=convdiff_type1(0.01),
        baseline=BaselineConfig(500, 250, 0.04),
        n_adap=1,
        bounds=SearchBounds([("mu", 0.9, 0.99), ("tau", 0.05, 0.5), ("lam", 0.5, 0.9)]),
        bo=BoConfig(max_evals=1),
        fixed={"f": 0.5},
    )


class TestForwardObjective:
    def test_baseline_resolves_mild_layer(self):
        spec = _baseline_only_spec(0.1)
        loss, model = forward_objective(spec, {}, 0, shared_baseline(spec))
        assert loss < 1e-3
        assert model.basis.n_kernels == 250

    def test_identical_evaluation_is_bit_identical(self):
        spec = _one_component_spec(1e-3)
        values = {"f": 0.5, "mu": 0.995, "tau": 0.3, "lam": -0.3}
        first, _ = forward_objective(spec, values, 3, shared_baseline(spec))
        second, _ = forward_objective(spec, values, 3, shared_baseline(spec))
        assert first == second

    def test_placed_component_beats_baseline_by_orders(self):
        base_spec = _baseline_only_spec(1e-3)
        base_loss, _ = forward_objective(base_spec, {}, 0, shared_baseline(base_spec))
        spec = _one_component_spec(1e-3)
        values = {"f": 0.5, "mu": 0.995, "tau": 0.3, "lam": -0.3}
        shared = shared_baseline(spec)
        placed = min(forward_objective(spec, values, s, shared)[0] for s in range(5))
        assert placed <= 1e-2
        assert placed * 50 < base_loss

    def test_min_over_random_draws_beats_baseline(self):
        base_spec = _baseline_only_spec(1e-3)
        base_loss, _ = forward_objective(base_spec, {}, 0, shared_baseline(base_spec))
        spec = _one_component_spec(1e-3)
        shared = shared_baseline(spec)
        rng = np.random.default_rng(123)
        draws = []
        for i in range(20):
            w = {
                "f": 0.5,
                "mu": rng.uniform(0.99, 0.9999),
                "tau": rng.uniform(0.05, 0.5),
                "lam": rng.uniform(-0.4, -0.15),
            }
            draws.append(forward_objective(spec, w, i, shared)[0])
        assert min(draws) * 50 < base_loss

    @pytest.mark.parametrize("with_sensors", [False, True])
    def test_fixed_block_changes_no_bit(self, with_sensors):
        spec = _one_component_spec(1e-3)
        pde = {}
        if with_sensors:
            sensors = generate_sensor_data(
                spec.problem, {"nu": 1e-3}, 17, 0.01, SensorPlacement.BOUNDARY_LAYER_BIASED,
                np.random.default_rng(2),
            )
            # a spec with sensors searches a PDE parameter; at mu_nu = nu
            # and sigma_nu = 0 every evaluation solves the spec's problem
            searched = [*zip(spec.bounds.names, spec.bounds.lowers, spec.bounds.uppers)]
            bounds = SearchBounds(searched + [("mu_nu", 1e-4, 1e-1), ("sigma_nu", 0.0, 1e-2)])
            spec = replace(spec, bounds=bounds, estimate="nu", sensors=sensors)
            pde = {"mu_nu": 1e-3, "sigma_nu": 0.0}
        fixed = baseline_block(spec.problem, spec.baseline, _extra_rows(spec, spec.problem))
        for i, (mu, tau) in enumerate([(0.995, 0.3), (0.95, 0.05), (0.9999, 0.5)]):
            w = {"f": 0.5, "mu": mu, "tau": tau, "lam": -0.3, **pde}
            loss, model = forward_objective(spec, w, i, shared_baseline(spec))
            reused_loss, reused = forward_objective(spec, w, i, fixed)
            assert reused_loss == loss
            assert np.array_equal(reused.coefficients, model.coefficients)

    def test_no_fixed_block_when_a_pde_parameter_is_searched(self):
        # an evaluation at a searched speed builds the block for that speed,
        # on the baseline kernels the run keeps
        spec = replace(
            _baseline_only_spec(0.01),
            problem=advection1d(0.1, 0.5),
            baseline=BaselineConfig(500, 250, 0.04, n_initial=4),
            bounds=SearchBounds([("a", 0.1, 1.0)]),
            estimate="a",
        )
        kept = shared_baseline(spec)
        assert isinstance(kept, RbfBasis)
        at_speed = _at_params(spec.problem, {"a": 0.7})
        fixed = baseline_block(at_speed, spec.baseline, _extra_rows(spec, at_speed), kept)
        loss, model = forward_objective(spec, {"a": 0.7}, 0, shared_baseline(spec))
        given_loss, given = forward_objective(spec, {"a": 0.7}, 0, fixed)
        assert given_loss == loss
        assert np.array_equal(given.coefficients, model.coefficients)

    @pytest.mark.parametrize("change", [
        {"mu_nu": 0.05, "sigma_nu": 0.0},  # a diffusivity the spec does not search
        {"a": 3.0},
        {"tau": None},  # a missing name
    ])
    def test_values_must_name_the_search_vector(self, change):
        spec = _one_component_spec(0.01)
        values = {"f": 0.5, "mu": 0.95, "tau": 0.3, "lam": 0.7, **change}
        values = {name: v for name, v in values.items() if v is not None}
        with pytest.raises(ValueError, match="search vector"):
            forward_objective(spec, values, 0, shared_baseline(spec))

    @pytest.mark.parametrize("change,message", [
        # a negative fraction once reached numpy as "negative dimensions"
        ({"f": -0.5}, "values: f is fixed at 0.5, got -0.5"),
        # a negative spread once returned a finite loss
        ({"tau": -0.3}, "values: tau = -0.3 lies outside its bounds [0.05, 0.5]"),
        # a fraction other than the fixed one once ran its own kernel count
        ({"f": 0.9}, "values: f is fixed at 0.5, got 0.9"),
        # a centre outside the box once ran with clamped centres
        ({"mu": 1.5}, "values: mu = 1.5 lies outside its bounds [0.9, 0.99]"),
    ], ids=["negative-fraction", "negative-spread", "other-fraction", "centre-outside"])
    def test_values_outside_the_spec_are_refused(self, change, message):
        spec = _default_one_component_spec()
        values = {"f": 0.5, "mu": 0.95, "tau": 0.3, "lam": 0.7, **change}
        with pytest.raises(ValueError) as err:
            forward_objective(spec, values, 0, shared_baseline(spec))
        assert str(err.value) == message

    def test_the_ends_of_a_box_lie_inside_it(self):
        # a search proposes the ends themselves (from_unit clips to them)
        spec = _default_one_component_spec()
        for values in ({"f": 0.5, "mu": 0.9, "tau": 0.05, "lam": 0.5}, {"f": 0.5, "mu": 0.99, "tau": 0.5, "lam": 0.9}):
            loss, _ = forward_objective(spec, values, 0, shared_baseline(spec))
            assert np.isfinite(loss)

    def test_a_failed_solve_raises_its_arithmetic_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        spec = _one_component_spec(0.01)
        shared = shared_baseline(spec)
        monkeypatch.setattr(np.linalg, "lstsq", fail)
        with pytest.raises(ArithmeticError, match="^least-squares solve failed: SVD did not converge$"):
            forward_objective(spec, {"f": 0.5, "mu": 0.95, "tau": 0.3, "lam": 0.7}, 0, shared)

    def test_component_tags_attached_to_model(self):
        spec = _one_component_spec(0.01)
        _, model = forward_objective(spec, {"f": 0.5, "mu": 0.95, "tau": 0.3, "lam": 0.7}, 0, shared_baseline(spec))
        assert model.tags is not None
        assert model.tags.shape[0] == model.basis.n_kernels
        assert set(np.unique(model.tags)) == {0, 1}


def _diffusivity_spec(n_adap=0, max_evals=1):
    # an inverse-style search of the diffusivity on convdiff1
    bounds = [("mu_nu", 1e-4, 1e-1), ("sigma_nu", 1e-6, 1e-2)]
    if n_adap:
        bounds = [("mu", 0.93, 0.99), ("tau", 0.15, 0.45), ("lam", -0.4, -0.15)] + bounds
    return ForwardRunSpec(
        problem=convdiff_type1(0.01),
        baseline=BaselineConfig(200, 100, 0.05),
        n_adap=n_adap,
        bounds=SearchBounds(bounds, log_scale={"mu_nu": True, "sigma_nu": True}),
        bo=BoConfig(max_evals=max_evals),
        seed=0,
        fixed={"f": 0.5} if n_adap else {},
        estimate="nu",
    )


class TestDiffusivityDraw:
    PROBLEM = convdiff_type1(0.5)

    def test_degenerate_sigma(self):
        # a zero spread solves at mu_nu and draws nothing
        spec = replace(_diffusivity_spec(), problem=self.PROBLEM)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert _effective_problem(spec, {"mu_nu": 0.01, "sigma_nu": 0.0}, rng).nu == 0.01
        assert rng.bit_generator.state == state

    def test_mean_recovery(self):
        spec = replace(_diffusivity_spec(), problem=self.PROBLEM)
        rng = np.random.default_rng(12)
        values = {"mu_nu": 0.05, "sigma_nu": 0.001}
        draws = np.array([_effective_problem(spec, values, rng).nu for _ in range(100000)])
        assert np.all(draws > 0)
        assert abs(draws.mean() - 0.05) < 3 * 0.001 / np.sqrt(draws.size)

    def test_spread_above_a_tenth_of_the_mean_is_capped(self):
        spec = _diffusivity_spec()
        mu_nu = 0.01
        shared = shared_baseline(spec)
        at_cap, _ = forward_objective(spec, {"mu_nu": mu_nu, "sigma_nu": 0.1 * mu_nu}, 4, shared)
        for above in (0.0015, 0.01):
            loss, _ = forward_objective(spec, {"mu_nu": mu_nu, "sigma_nu": above}, 4, shared)
            assert np.float64(loss).tobytes() == np.float64(at_cap).tobytes()
        # the spread does move the loss below the cap, so the pin is not vacuous
        below, _ = forward_objective(spec, {"mu_nu": mu_nu, "sigma_nu": 0.05 * mu_nu}, 4, shared)
        assert below != at_cap


def _poisson_spec(baseline):
    return ForwardRunSpec(
        problem=poisson2d(0.05),
        baseline=baseline,
        n_adap=1,
        bounds=SearchBounds(
            [("f", 0.5, 1.0), ("mu_x", 0.4, 0.6), ("mu_y", 0.4, 0.6), ("tau", 0.2, 1.0), ("lam", 0.5, 1.0)]
        ),
        bo=BoConfig(max_evals=1),
    )


class TestForwardRun:
    @pytest.mark.parametrize("baseline,message", [
        (BaselineConfig(1601, 401, 0.2, n_boundary=400), "baseline.n_colloc: 1601 points lay out only as 1 x 1601"),
        (BaselineConfig(1600, 401, 0.2, n_boundary=400), "baseline.n_rbf: 401 points lay out only as 1 x 401"),
        (BaselineConfig(1600, 400, 0.2, n_boundary=3), "baseline.n_boundary: must be at least 4"),
    ])
    def test_2d_baseline_counts_must_lay_out(self, baseline, message):
        with pytest.raises(ValueError, match=message):
            _poisson_spec(baseline)

    def test_the_refusal_names_the_configured_problem_type(self):
        with pytest.raises(ValueError) as err:
            _poisson_spec(BaselineConfig(1600, 400, 0.2, n_boundary=3))
        assert str(err.value) == "baseline.n_boundary: must be at least 4 for the poisson problem, got 3"

    @pytest.mark.parametrize("n_boundary", [1, 3, 50])
    def test_1d_problem_takes_exactly_two_boundary_points(self, n_boundary):
        # the 1D problems lay out their two end points whatever the count
        message = rf"^baseline.n_boundary: the convdiff1 problem has exactly 2 boundary points, got {n_boundary}$"
        with pytest.raises(ValueError, match=message):
            replace(_baseline_only_spec(0.01), baseline=BaselineConfig(500, 250, 0.04, n_boundary=n_boundary))

    def test_transport_problem_needs_initial_rows(self):
        with pytest.raises(ValueError, match="baseline.n_initial: the transport problem needs"):
            replace(
                _baseline_only_spec(0.01),
                problem=advection1d(0.1, 0.5),
                bounds=SearchBounds([("a", 0.1, 1.0)]),
                estimate="a",
            )
        with pytest.raises(ValueError, match="baseline.n_initial: the transport problem needs"):
            solve_baseline(advection1d(0.1, 0.5), BaselineConfig(100, 100, 0.1, n_boundary=20))

    def test_initial_rows_belong_to_the_transport_problem(self):
        message = "^baseline.n_initial: only the transport problem has initial rows; leave it null$"
        with pytest.raises(ValueError, match=message):
            replace(_baseline_only_spec(0.01), baseline=BaselineConfig(500, 250, 0.04, n_initial=81))

    def test_speed_search_needs_an_advection_speed(self):
        # convdiff1 has no speed to move, so every proposed a would score alike
        with pytest.raises(ValueError, match="^estimate: the convdiff1 problem has no advection speed to search$"):
            replace(_baseline_only_spec(0.01), bounds=SearchBounds([("a", 0.1, 1.0)]), estimate="a")

    @pytest.mark.parametrize("estimate", ["mu", "mu_nu", ("a",)])
    def test_an_unknown_estimate_is_refused(self, estimate):
        # the old free tuple of names, and an entry's name, are refused too
        message = rf"^estimate: expected one of \['a', 'nu'\] or None, got {re.escape(repr(estimate))}$"
        with pytest.raises(ValueError, match=message):
            replace(_baseline_only_spec(0.01), estimate=estimate)

    def test_a_fixed_diffusivity_estimate_is_refused(self):
        # a fixed mu_nu would be reported as an estimate no evaluation made
        spec = _diffusivity_spec()
        message = "^fixed.mu_nu: an inverse run searches its estimate, so mu_nu cannot be fixed$"
        with pytest.raises(ValueError, match=message):
            replace(spec, bounds=SearchBounds([("sigma_nu", 1e-6, 1e-2)]), fixed={"mu_nu": 0.05})
        # its spread may be held fixed
        replace(spec, bounds=SearchBounds([("mu_nu", 1e-4, 1e-1)]), fixed={"sigma_nu": 0.0})

    def test_a_fixed_speed_estimate_is_refused(self):
        message = "^fixed.a: an inverse run searches its estimate, so a cannot be fixed$"
        with pytest.raises(ValueError, match=message):
            replace(_small_speed_spec(), bounds=SearchBounds([]), fixed={"a": 0.5})

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="^seed: must be nonnegative, got -1$"):
            replace(_baseline_only_spec(0.01), seed=-1)

    @pytest.mark.parametrize("truth,unsearched", [({"a": 0.5}, "a"), ({"mu": 0.5}, "mu")])
    def test_sensors_truth_names_a_searched_parameter(self, truth, unsearched):
        # the run grades and reports at the truth: a diffusivity search
        # cannot report a speed, nor anything at an unknown parameter
        spec = _diffusivity_spec()
        sensors = generate_sensor_data(
            spec.problem, {"nu": 0.01}, 10, 0.0, SensorPlacement.UNIFORM_RANDOM, np.random.default_rng(0)
        )
        message = rf"^sensors: the truth names \['{unsearched}'\], which the run does not search$"
        with pytest.raises(ValueError, match=message):
            replace(spec, sensors=replace(sensors, truth=truth))

    def test_every_failed_evaluation_raises(self, monkeypatch):
        def fail(system, basis):
            raise ArithmeticError("manufactured failure")

        monkeypatch.setattr("rbfadapt.drivers.solve_system", fail)
        spec = replace(_one_component_spec(0.01), bo=BoConfig(max_evals=2))
        with pytest.raises(ArithmeticError, match="every objective evaluation failed"):
            run_kapi(spec)

    def test_search_vector_coverage_enforced(self):
        with pytest.raises(ValueError, match="need exactly"):
            ForwardRunSpec(
                problem=convdiff_type1(0.01),
                baseline=BaselineConfig(100, 50, 0.1),
                n_adap=1,
                bounds=SearchBounds([("mu", 0.9, 0.99)]),
                bo=BoConfig(max_evals=2),
            )

    def test_parameter_cannot_be_searched_and_fixed(self):
        with pytest.raises(ValueError, match="both searched and fixed"):
            ForwardRunSpec(
                problem=convdiff_type1(0.01),
                baseline=BaselineConfig(100, 50, 0.1),
                n_adap=1,
                bounds=SearchBounds(
                    [("f", 0.1, 1.0), ("mu", 0.9, 0.99), ("tau", 0.05, 0.5), ("lam", 0.5, 0.9)]
                ),
                bo=BoConfig(max_evals=2),
                fixed={"f": 0.5},
            )

    def test_default_test_mesh_is_ten_times_finer(self):
        problem, baseline = convdiff_type1(0.01), BaselineConfig(300, 150, 0.1)
        model, _ = solve_baseline(problem, baseline)
        mesh, predicted, reference = _graded(problem, baseline.n_colloc, model)
        np.testing.assert_array_equal(mesh[:, 0], np.linspace(0.0, 1.0, 3000))
        assert predicted.shape == reference.shape == (3000,)

    def test_short_tuned_run_returns_graded_model(self):
        spec = ForwardRunSpec(
            problem=convdiff_type1(0.05),
            baseline=BaselineConfig(300, 150, 0.067),
            n_adap=1,
            bounds=SearchBounds([("mu", 0.85, 0.99), ("tau", 0.05, 0.5), ("lam", 0.5, 0.9)]),
            bo=BoConfig(max_evals=5),
            seed=0,
            fixed={"f": 0.5},
        )
        result = run_kapi(spec)
        assert len(result.history) <= 5
        assert result.metrics["residual_loss"] == result.history.best_loss
        assert result.metrics["n_kernels"] == result.models[0].basis.n_kernels
        assert result.mesh.shape[0] == 3000
        assert np.isfinite(result.metrics["linf"])
        names = spec.bounds.names
        w_opt = result.report["w_opt"]
        for i, name in enumerate(names):
            assert spec.bounds.lowers[i] <= w_opt[name] <= spec.bounds.uppers[i]
        assert w_opt == {**dict(zip(names, result.history.best_w)), **spec.fixed}
        assert set(result.report) == {"w_opt"}


# ---------------------------------------------------------------------------
# characteristic masks for the transport problem


class TestCharacteristicMask:
    @staticmethod
    def _profile(centers=(0.3,), width=0.025):
        # block coordinates, x in [0, 1], as the march uses them
        xs = np.linspace(0.0, 1.0, 401)
        return xs, sum(np.exp(-((xs - c) ** 2) / (2 * width**2)) for c in centers)

    @staticmethod
    def _inside(intervals, speed, pad, pts):
        """Which (x, t) rows lie in a padded interval shifted along the flow to t."""
        x = pts[:, :1] - speed * pts[:, 1:]
        lo = np.array([a for a, _ in intervals]) - pad
        hi = np.array([b for _, b in intervals]) + pad
        return (x >= lo - 1e-12) & (x <= hi + 1e-12)

    def test_peak_is_tracked_and_moves_with_the_flow(self):
        xs, ys = self._profile()
        intervals = characteristic_mask(xs, ys)
        (lo, hi), = intervals
        assert lo < 0.3 < hi
        pts = _sample_mask_points(intervals, 0.5, 0.02, 2000, np.random.default_rng(0))
        assert np.all((pts[:, 1] >= 0.0) & (pts[:, 1] <= 1.0))
        assert np.all(self._inside(intervals, 0.5, 0.02, pts))
        late = pts[:, 1] > 0.8
        assert np.any(late) and np.all(pts[late, 0] > hi + 0.02)

    def test_zero_speed_mask_is_time_invariant(self):
        xs, ys = self._profile()
        intervals = characteristic_mask(xs, ys)
        pts = _sample_mask_points(intervals, 0.0, 0.02, 2000, np.random.default_rng(1))
        (lo, hi), = intervals
        assert np.all((pts[:, 0] >= lo - 0.02) & (pts[:, 0] <= hi + 0.02))
        assert pts[:, 1].min() < 0.1 and pts[:, 1].max() > 0.9

    def test_draws_follow_the_shifted_intervals(self):
        xs, ys = self._profile(centers=(0.15, 0.4))
        intervals = characteristic_mask(xs, ys)
        assert len(intervals) == 2
        pts = _sample_mask_points(intervals, 0.5, 0.02, 2000, np.random.default_rng(2))
        inside = self._inside(intervals, 0.5, 0.02, pts)
        assert np.all(inside.any(axis=1))
        assert np.all(inside.sum(axis=0) > 0)

    def test_flat_profile_gives_empty_mask(self):
        xs = np.linspace(-1.0, 1.0, 101)
        assert characteristic_mask(xs, np.ones_like(xs)) == ()


# ---------------------------------------------------------------------------
# sequential time blocks


class TestErrorMetrics:
    def test_known_norms(self):
        reference = np.array([3.0, 4.0])
        metrics = error_metrics(np.array([3.0, 5.0]), reference)
        assert metrics == {"linf": 1.0, "rel_l2": 0.2}

    def test_mismatched_shapes_rejected(self):
        # a (5,) array would broadcast against a (1,) one
        with pytest.raises(ValueError, match="mesh mismatch"):
            error_metrics(np.zeros(5), np.zeros(1))

    def test_zero_reference_is_zero_for_a_match_and_inf_otherwise(self):
        zeros = np.zeros(4)
        assert error_metrics(zeros.copy(), zeros) == {"linf": 0.0, "rel_l2": 0.0}
        metrics = error_metrics(np.array([0.0, 1e-3, 0.0, 0.0]), zeros)
        assert metrics["linf"] == 1e-3
        assert metrics["rel_l2"] == np.inf


def _tuning_box(name, lo, hi) -> SearchBounds:
    """The march's default tuning bounds with name's box set to [lo, hi]."""
    boxes = {"f": (1.0, 1.5), "lam": (1.0, 1.5), "sigma_f": (2.5, 4.5), name: (lo, hi)}
    return SearchBounds([(n, *boxes[n]) for n in TUNABLE_NAMES])


def _small_block_spec(**overrides):
    defaults = dict(
        speed=0.5,
        nu=0.05,
        n_blocks=4,
        t_final=0.04,
        n_colloc=300,
        n_boundary=60,
        n_initial=150,
        n_rbf=100,
        tunables=(1.25, 1.0, 3.5),
    )
    defaults.update(overrides)
    return TimeBlockSpec(**defaults)


class TestTimeBlocks:
    def test_zero_field_stays_zero(self, monkeypatch):
        monkeypatch.setattr("rbfadapt.drivers.advection_initial", lambda x, nu: np.zeros_like(x))
        spec = _small_block_spec(speed=0.0, n_blocks=2, t_final=0.02)
        result = solve_advection_timeblocks(spec)
        assert result.aggregate_loss <= 1e-8
        _, predicted, _ = result.graded_final_profile()
        assert np.max(np.abs(predicted)) <= 1e-8

    def test_blocks_hand_off_continuously(self):
        spec = _small_block_spec()
        result = solve_advection_timeblocks(spec)
        ic = initial_points(Box((0.0, 0.0), (1.0, 1.0)), spec.n_initial)
        xh = ic[:, 0]
        top = np.column_stack([xh, np.ones_like(xh)])
        bottom = np.column_stack([xh, np.zeros_like(xh)])
        for k in range(1, spec.n_blocks):
            handoff = evaluate_model(result.models[k - 1], top)
            reproduced = evaluate_model(result.models[k], bottom)
            gap = float(np.max(np.abs(handoff - reproduced)))
            assert gap <= result.block_losses[k] + 1e-12

    def test_blocks_match_a_full_rebuild_bit_for_bit(self):
        # every block's system, validation residual and hand-off, rebuilt
        # from scratch without the march's shared baseline entries
        spec = _small_block_spec()
        result = solve_advection_timeblocks(spec)
        assert any(m.basis.n_kernels > spec.n_rbf for m in result.models)
        x0, x1 = ADVECTION_X
        unit = Box((0.0, 0.0), (1.0, 1.0))
        problem = PdeProblem(
            kind=ProblemKind.ADVECTION1D,
            domain=unit,
            nu=spec.nu,
            advection_speed=spec.speed * spec.block_dt / (x1 - x0),
            boundary_spec={"left": 0.0, "right": 0.0},
        )
        grid = uniform_grid(unit, spec.n_colloc)
        bc = boundary_points_xsides(unit, spec.n_boundary)
        ic = initial_points(unit, spec.n_initial)
        top = np.column_stack([ic[:, 0], np.ones(spec.n_initial)])
        vx = (np.arange(25) + 0.5) / 25.0
        val_pts = np.column_stack([np.repeat(vx, 25), np.tile(vx, 25)])
        ic_vals = advection_initial(x0 + ic[:, 0] * (x1 - x0), spec.nu)
        for k, model in enumerate(result.models):
            interior = dedup_rows(np.vstack([grid, model.basis.centers[spec.n_rbf:]]))
            system = build_system(
                problem, model.basis, interior, bc, [(ic, ic_vals)]
            )
            rebuilt = solve_system(system, model.basis)
            assert np.array_equal(rebuilt.coefficients, model.coefficients), k
            assert rebuilt.loss == result.block_losses[k]
            with fixed_blas_threads():
                val = operator_matrix(problem, model.basis, val_pts) @ model.coefficients
            assert float(np.max(np.abs(val))) == result.validation_losses[k]
            ic_vals = evaluate_model(model, top)

    def test_result_shapes_and_echo(self):
        spec = _small_block_spec(n_blocks=3, t_final=0.03)
        result = solve_advection_timeblocks(spec)
        assert len(result.models) == 3
        assert result.block_losses.shape == (3,)
        assert result.validation_losses.shape == (3,)
        assert result.spec.tunables == (1.25, 1.0, 3.5)
        for model in result.models:
            assert model.tags is not None
            assert model.tags.shape[0] == model.basis.n_kernels

    def test_repeat_run_is_deterministic(self):
        spec = _small_block_spec(n_blocks=2, t_final=0.02)
        a = solve_advection_timeblocks(spec)
        b = solve_advection_timeblocks(spec)
        np.testing.assert_array_equal(a.block_losses, b.block_losses)

    def test_tunable_outside_bounds_rejected(self):
        spec = _small_block_spec()
        with pytest.raises(ValueError, match="sigma_f"):
            replace(spec, tunables=(1.25, 1.0, 9.0))

    def test_march_refuses_a_spec_without_tunables(self):
        spec = _small_block_spec(tunables=None, tuning_blocks=1)
        with pytest.raises(ValueError, match=r"^tunables: the march needs fixed \(f, lam, sigma_f\)"):
            solve_advection_timeblocks(spec)

    def test_spec_at_a_search_vector_reads_it_by_name(self):
        spec = _small_block_spec(tunables=None, tuning_blocks=1,
                                 bounds=SearchBounds([("sigma_f", 2.5, 4.5), ("f", 1.0, 1.5), ("lam", 1.0, 1.5)]))
        assert spec.at(np.array([3.0, 1.25, 1.5])).tunables == (1.25, 1.5, 3.0)
        with pytest.raises(ValueError, match="f = 2 lies outside"):
            spec.at([3.0, 2.0, 1.5])

    @pytest.mark.parametrize("overrides,message", [
        (dict(tunables=(1.25, 1.0, 9.0)), r"^tunables: sigma_f = 9 lies outside its bounds \[2.5, 4.5\]$"),
        (dict(tunables=(1.25, 1.0)), r"^tunables: expected \(f, lam, sigma_f\), got \(1.25, 1.0\)$"),
        (dict(tunables=None, tuning_blocks=5), r"^tuning_blocks: must lie in \[1, 4\], got 5$"),
        (dict(tunables=None, tuning_blocks=0), r"^tuning_blocks: must lie in \[1, 4\], got 0$"),
        # a negative f or sigma_f once crashed the march mid-run; the rule
        # is the forward spec's, so f = 0 is refused too, and fixed
        # tunables inside the box are refused by its lower end
        (dict(tunables=None, tuning_blocks=1, bounds=_tuning_box("sigma_f", -4.5, -1.0)),
         r"^bounds.sigma_f: sigma_f must stay positive, but reaches -4.5$"),
        (dict(tunables=None, tuning_blocks=1, bounds=_tuning_box("f", 0.0, 1.5)),
         r"^bounds.f: f must stay positive, but reaches 0$"),
        (dict(tunables=(1.2, 1.2, -0.5), bounds=_tuning_box("sigma_f", -1.0, 4.5)),
         r"^bounds.sigma_f: sigma_f must stay positive, but reaches -1$"),
    ])
    def test_spec_refuses_tunables_and_tuning_stretch(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            _small_block_spec(**overrides)

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="^seed: must be nonnegative, got -1$"):
            _small_block_spec(seed=-1)

    @pytest.mark.parametrize("n_blocks", [0, 3])
    def test_march_refuses_a_stretch_outside_its_blocks(self, n_blocks):
        # 0 once failed inside numpy, and 3 marched past t_final
        spec = _small_block_spec(n_blocks=2)
        with pytest.raises(ValueError) as err:
            solve_advection_timeblocks(spec, 0, n_blocks)
        assert str(err.value) == f"n_blocks: must lie in [1, 2], got {n_blocks}"

    def test_fixed_tunables_need_no_tuning_stretch(self):
        spec = _small_block_spec(tunables=[1, 1, 3], tuning_blocks=50)
        assert spec.tunables == (1.0, 1.0, 3.0)

    def test_forward_run_takes_the_march_from_its_spec(self):
        spec = _small_block_spec(n_blocks=2, t_final=0.02)
        result = run_advection_forward(spec)
        assert len(result.history) == 0 and result.history.stop_reason is None
        assert result.report["block_losses"] == solve_advection_timeblocks(spec).block_losses.tolist()
        tuned = replace(spec, tunables=None, tuning_blocks=1, bo=BoConfig(max_evals=2, loss_tol=None))
        result = run_advection_forward(tuned)
        history = result.history
        assert len(history) == 2
        best = solve_advection_timeblocks(tuned.at(history.best_w), history.incumbent_index)
        assert result.report["tunables"] == dict(zip(TUNABLE_NAMES, tuned.at(history.best_w).tunables))
        assert result.report["block_losses"] == best.block_losses.tolist()

    @pytest.mark.parametrize("t_final,n_blocks,tuning_blocks", [(0.05, 4, 3), (0.06, 5, 3), (0.1, 7, 3)])
    def test_tuned_blocks_are_the_march_s_first_blocks(self, t_final, n_blocks, tuning_blocks):
        # (t_final / n_blocks) * k / k is not t_final / n_blocks at these
        # pairs, so a march of a shortened spec would tune on a_hat moved in
        # its last bits
        block_dt = t_final / n_blocks
        assert block_dt * tuning_blocks / tuning_blocks != block_dt
        spec = _small_block_spec(n_blocks=n_blocks, t_final=t_final, tunables=None, tuning_blocks=tuning_blocks,
                                 bo=BoConfig(max_evals=2, loss_tol=None))
        result = run_advection_forward(spec)
        assert max(result.report["validation_losses"][:tuning_blocks]) == result.history.best_loss

    def test_march_holds_one_block_system_at_a_time(self):
        # beside the fixed baseline rows, the traced peak holds one block's
        # system, the [base | adaptive] validation and top-edge rows and the
        # temporaries of one 64-row chunk, which measured 0.4 MB; a system
        # kept while the next block's is built, or a second copy of the
        # rows' base columns, exceeds it.  numpy's lstsq copies the system
        # into memory it allocates outside tracemalloc's view.
        spec = _small_block_spec()
        tracemalloc.start()
        try:
            result = solve_advection_timeblocks(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_kernels = max(model.basis.n_kernels for model in result.models)
        assert n_kernels > spec.n_rbf
        n_evaluated = spec.n_boundary + spec.n_initial
        fixed = (spec.n_colloc + n_evaluated) * spec.n_rbf
        system = (spec.n_colloc + n_kernels - spec.n_rbf + n_evaluated) * n_kernels
        rows = (25 * 25 + spec.n_initial) * n_kernels
        assert peak <= (fixed + system + rows) * 8 + 0.75 * 2**20, peak / 2**20

    @pytest.mark.parametrize("overrides,message", [
        (dict(n_colloc=601), "n_colloc: 601 points lay out only as 1 x 601"),
        (dict(n_rbf=151), "n_rbf: 151 points lay out only as 1 x 151"),
        (dict(n_colloc=614), "n_colloc: 614 points lay out only as 2 x 307; a 2D grid needs three per side"),
    ])
    def test_grid_counts_must_lay_out(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            TimeBlockSpec(**overrides)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            _small_block_spec(n_blocks=0)
        with pytest.raises(ValueError):
            _small_block_spec(n_colloc=0)
        with pytest.raises(ValueError):
            _small_block_spec(t_final=-1.0)
        # each of these once failed inside the march: a division by zero,
        # too few boundary points per side, more kernels than grid points
        for overrides, field_name in (
            (dict(n_blocks=1, t_final=0.01, n_rbf=1, n_colloc=10), "n_rbf"),
            (dict(n_boundary=1), "n_boundary"),
            (dict(n_rbf=150, n_colloc=100), "n_rbf: must not exceed n_colloc"),
        ):
            with pytest.raises(ValueError, match=field_name):
                TimeBlockSpec(**overrides)


# ---------------------------------------------------------------------------
# sensor data


class TestSensorData:
    PROBLEM = convdiff_type1(0.01)

    def test_zero_noise_reproduces_exact_values(self):
        rng = np.random.default_rng(0)
        data = generate_sensor_data(
            self.PROBLEM, {"nu": 0.01}, 40, 0.0, SensorPlacement.UNIFORM_RANDOM, rng
        )
        np.testing.assert_allclose(data.values, self.PROBLEM.exact(data.points))

    def test_biased_placement_concentrates_near_the_layer(self):
        rng = np.random.default_rng(1)
        n = 51
        data = generate_sensor_data(
            self.PROBLEM, {"nu": 0.01}, n, 0.05, SensorPlacement.BOUNDARY_LAYER_BIASED, rng
        )
        xs = data.points[:, 0]
        in_layer = int(np.sum((xs > 0.9) & (xs < 1.0)))
        assert in_layer == int(np.ceil(2 * n / 3))
        assert np.all((xs > 0.0) & (xs < 1.0))

    def test_biased_placement_is_refused_off_1d(self):
        with pytest.raises(ValueError, match="^placement: boundary_layer_biased is defined for 1D problems"):
            generate_sensor_data(
                advection1d(0.1, 0.5), {"a": 0.5}, 20, 0.05, SensorPlacement.BOUNDARY_LAYER_BIASED,
                np.random.default_rng(0),
            )

    def test_uniform_placement_stays_inside_the_domain(self):
        problem = advection1d(0.1, 0.5)
        rng = np.random.default_rng(2)
        data = generate_sensor_data(problem, {"a": 0.5}, 200, 0.05, SensorPlacement.UNIFORM_RANDOM, rng)
        assert data.points.shape == (200, 2)
        assert np.all(problem.domain.contains(data.points))

    def test_noise_perturbs_multiplicatively(self):
        rng = np.random.default_rng(3)
        data = generate_sensor_data(
            self.PROBLEM, {"nu": 0.01}, 500, 0.05, SensorPlacement.UNIFORM_RANDOM, rng
        )
        exact = self.PROBLEM.exact(data.points)
        ratios = data.values / exact
        assert np.std(ratios) == pytest.approx(0.05, rel=0.2)

    def test_data_records_the_truth_it_measured(self):
        rng = np.random.default_rng(4)
        data = generate_sensor_data(self.PROBLEM, {"nu": 0.02}, 10, 0.0, SensorPlacement.UNIFORM_RANDOM, rng)
        assert data.truth == {"nu": 0.02}
        np.testing.assert_array_equal(data.values, convdiff_type1(0.02).exact(data.points))
        assert SensorData(data.points, data.values).truth == {}

    @pytest.mark.parametrize("truth,message", [
        ({"mu": 0.5}, "^mu: not a PDE parameter; expected nu or a$"),
        ({"a": 0.5}, "^a: the convdiff1 problem has no advection speed$"),
    ])
    def test_truth_must_be_a_parameter_of_the_problem(self, truth, message):
        # either one once measured at the problem's own nu while recording the truth given
        with pytest.raises(ValueError, match=message):
            generate_sensor_data(self.PROBLEM, truth, 10, 0.0, SensorPlacement.UNIFORM_RANDOM, np.random.default_rng(0))

    def test_invalid_inputs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            generate_sensor_data(self.PROBLEM, {"nu": 0.01}, 0, 0.05, SensorPlacement.UNIFORM_RANDOM, rng)
        with pytest.raises(ValueError):
            generate_sensor_data(self.PROBLEM, {"nu": 0.01}, 10, -0.1, SensorPlacement.UNIFORM_RANDOM, rng)


# ---------------------------------------------------------------------------
# inverse estimation


class TestReEvaluation:
    """A run's incumbent, re-evaluated through forward_objective at its own
    evaluation index, reproduces the incumbent's loss bit for bit."""

    @staticmethod
    def _reevaluated(spec, result):
        loss, _ = forward_objective(spec, result.report["w_opt"], result.history.incumbent_index, shared_baseline(spec))
        assert np.isfinite(loss)
        assert np.float64(loss).tobytes() == np.float64(result.history.best_loss).tobytes()

    def test_forward_run(self):
        spec = _one_component_spec(1e-3)
        spec = replace(spec, bo=BoConfig(max_evals=4))
        self._reevaluated(spec, run_kapi(spec))

    def test_inverse_diffusivity_run(self):
        spec = _diffusivity_spec(n_adap=1, max_evals=4)
        sensors = generate_sensor_data(
            spec.problem, {"nu": 0.01}, 30, 0.05, SensorPlacement.BOUNDARY_LAYER_BIASED,
            np.random.default_rng(5),
        )
        spec = replace(spec, sensors=sensors)
        result = run_kapi(spec)
        assert result.report == {"w_opt": result.report["w_opt"], "nu_est": result.report["w_opt"]["mu_nu"]}
        self._reevaluated(spec, result)

    def test_inverse_speed_run(self):
        problem = advection1d(0.1, 0.5)
        spec = ForwardRunSpec(
            problem=problem,
            baseline=BaselineConfig(400, 400, 0.1, n_boundary=20, n_initial=21),
            n_adap=0,
            bounds=SearchBounds([("a", 0.1, 1.0)]),
            bo=BoConfig(max_evals=3),
            seed=1,
            estimate="a",
        )
        sensors = generate_sensor_data(
            problem, {"a": 0.5}, 30, 0.05, SensorPlacement.UNIFORM_RANDOM, np.random.default_rng(1)
        )
        spec = replace(spec, sensors=sensors)
        result = run_kapi(spec)
        assert result.report == {"w_opt": result.report["w_opt"], "a_est": result.report["w_opt"]["a"]}
        self._reevaluated(spec, result)


def _small_speed_spec(seed=1):
    problem = advection1d(0.1, 0.5)
    sensors = generate_sensor_data(
        problem, {"a": 0.5}, 30, 0.05, SensorPlacement.UNIFORM_RANDOM, np.random.default_rng(1)
    )
    return ForwardRunSpec(
        problem=problem,
        baseline=BaselineConfig(400, 400, 0.2, n_boundary=20, n_initial=21),
        n_adap=0,
        bounds=SearchBounds([("a", 0.1, 1.0)]),
        bo=BoConfig(max_evals=1),
        seed=seed,
        estimate="a",
        sensors=sensors,
    )


class TestKeptBaseline:
    def test_a_speed_run_solves_on_the_kept_kernels_whatever_it_proposes(self):
        # two seeds propose different first speeds; both runs solve on the
        # same kept kernels, a strict subset of the baseline
        one, two = (run_kapi(_small_speed_spec(seed)) for seed in (1, 2))
        assert one.history.records[0][0][0] != two.history.records[0][0][0]
        kept = shared_baseline(_small_speed_spec())
        assert 0 < kept.n_kernels < 400
        for result in (one, two):
            assert np.array_equal(result.models[0].basis.centers, kept.centers)
            assert np.array_equal(result.models[0].basis.widths, kept.widths)
            assert result.metrics["n_kernels"] == kept.n_kernels

    def test_column_choice_memory_stays_chunk_sized(self):
        # speed-inverse's column choice: 1,600 kernels, a stack of 3,391
        # rows (the operator at both ends of the speed box, boundary,
        # initial and sensor rows); beyond the stack only temporaries of
        # one 64-row chunk may be held, which measured 3.3 MB
        spec = replace(_small_speed_spec(), baseline=BaselineConfig(1600, 1600, 0.1, n_boundary=80, n_initial=81))
        tracemalloc.start()
        try:
            shared_baseline(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stack_bytes = (2 * 1600 + 80 + 81 + 30) * 1600 * 8
        assert peak <= stack_bytes + 4 * 2**20, peak / 2**20

    def test_other_runs_share_the_whole_baseline(self):
        forward = shared_baseline(_one_component_spec(0.01))
        assert forward.basis.n_kernels == 250 and forward.matrix.shape[1] == 250
        searched = shared_baseline(_diffusivity_spec(n_adap=1))
        assert isinstance(searched, RbfBasis) and searched.n_kernels == 100


class TestInverse:
    def test_true_speed_has_far_lower_loss_than_wrong_speeds(self):
        problem = advection1d(0.1, 0.5)
        baseline = BaselineConfig(900, 900, 0.1, n_boundary=40, n_initial=41)
        rng = np.random.default_rng(7)
        sensors = generate_sensor_data(
            problem, {"a": 0.5}, 150, 0.0, SensorPlacement.UNIFORM_RANDOM, rng
        )
        losses = {}
        for a_try in (0.25, 0.5, 0.75):
            spec = ForwardRunSpec(
                problem=problem,
                baseline=baseline,
                n_adap=0,
                bounds=SearchBounds([("a", 0.1, 1.0)]),
                bo=BoConfig(max_evals=1),
                seed=0,
                estimate="a",
                sensors=sensors,
            )
            losses[a_try] = forward_objective(spec, {"a": a_try}, 0, shared_baseline(spec))[0]
        assert losses[0.5] < 1e-4
        assert losses[0.5] * 1000 < losses[0.25]
        assert losses[0.5] * 1000 < losses[0.75]

    def test_spec_requires_pde_parameters_and_interior_sensors(self):
        problem = convdiff_type1(0.01)
        baseline = BaselineConfig(100, 50, 0.1)
        rng = np.random.default_rng(0)
        sensors = generate_sensor_data(
            problem, {"nu": 0.01}, 10, 0.0, SensorPlacement.UNIFORM_RANDOM, rng
        )
        forward = ForwardRunSpec(
            problem=problem,
            baseline=baseline,
            n_adap=1,
            bounds=SearchBounds([("mu", 0.9, 0.99), ("tau", 0.05, 0.5), ("lam", 0.5, 0.9)]),
            bo=BoConfig(max_evals=2),
            fixed={"f": 0.5},
        )
        with pytest.raises(ValueError, match="^sensors: an inverse run needs a PDE parameter to estimate$"):
            replace(forward, sensors=sensors)
        outside = generate_sensor_data(
            problem, {"nu": 0.01}, 10, 0.0, SensorPlacement.UNIFORM_RANDOM, rng
        )
        outside = type(outside)(points=outside.points + 5.0, values=outside.values)
        forward_inv = ForwardRunSpec(
            problem=problem,
            baseline=baseline,
            n_adap=0,
            bounds=SearchBounds([("mu_nu", 1e-4, 1e-1), ("sigma_nu", 1e-6, 1e-2)],
                                log_scale={"mu_nu": True, "sigma_nu": True}),
            bo=BoConfig(max_evals=2),
            estimate="nu",
        )
        with pytest.raises(ValueError, match="sensors: .*inside"):
            replace(forward_inv, sensors=outside)

    def test_estimate_is_the_incumbent_not_a_transformed_copy(self):
        # searching the diffusivity on a log axis must hand back exactly
        # the parameter recorded for the best evaluation
        problem = convdiff_type1(0.01)
        rng = np.random.default_rng(5)
        sensors = generate_sensor_data(
            problem, {"nu": 0.01}, 30, 0.05, SensorPlacement.BOUNDARY_LAYER_BIASED, rng
        )
        bounds = SearchBounds(
            [
                ("mu", 0.93, 0.99),
                ("tau", 0.15, 0.45),
                ("lam", -0.4, -0.15),
                ("mu_nu", 1e-4, 1e-1),
                ("sigma_nu", 1e-6, 1e-2),
            ],
            log_scale={"mu_nu": True, "sigma_nu": True},
        )
        forward = ForwardRunSpec(
            problem=problem,
            baseline=BaselineConfig(200, 100, 0.05),
            n_adap=1,
            bounds=bounds,
            bo=BoConfig(max_evals=6),
            seed=0,
            fixed={"f": 0.5},
            estimate="nu",
            sensors=sensors,
        )
        result = run_kapi(forward)
        idx = bounds.index_of("mu_nu")
        assert result.report["nu_est"] == float(result.history.best_w[idx])
        assert result.report["w_opt"]["mu_nu"] == result.report["nu_est"]
        assert "nu_rel_error" in result.metrics
        assert len(result.history) <= 6

    def test_run_grades_at_the_sensors_truth(self):
        # the sensors measured at nu = 0.02: the run grades and reports
        # there, not at the problem's nu
        sensors = generate_sensor_data(
            convdiff_type1(0.02), {"nu": 0.02}, 30, 0.05, SensorPlacement.BOUNDARY_LAYER_BIASED,
            np.random.default_rng(5),
        )
        result = run_kapi(replace(_diffusivity_spec(max_evals=2), sensors=sensors))
        np.testing.assert_array_equal(result.reference, convdiff_type1(0.02).exact(result.mesh))
        assert result.metrics["nu_rel_error"] == abs(result.report["nu_est"] - 0.02) / 0.02

    def test_run_without_true_parameters_grades_against_no_reference(self):
        problem = convdiff_type1(0.01)
        rng = np.random.default_rng(5)
        sensors = generate_sensor_data(
            problem, {"nu": 0.01}, 30, 0.05, SensorPlacement.BOUNDARY_LAYER_BIASED, rng
        )
        sensors = replace(sensors, truth={})
        forward = ForwardRunSpec(
            problem=problem,
            baseline=BaselineConfig(200, 100, 0.05),
            n_adap=0,
            bounds=SearchBounds(
                [("mu_nu", 1e-4, 1e-1), ("sigma_nu", 1e-6, 1e-2)],
                log_scale={"mu_nu": True, "sigma_nu": True},
            ),
            bo=BoConfig(max_evals=2),
            estimate="nu",
            sensors=sensors,
        )
        result = run_kapi(forward)
        assert result.reference is None
        assert "nu_rel_error" not in result.metrics
        np.testing.assert_array_equal(result.mesh, np.linspace(0.0, 1.0, 2000)[:, None])
        np.testing.assert_array_equal(result.predicted, evaluate_model(result.models[0], result.mesh))


def _graded_spec(kind):
    if kind == "forward":
        return replace(_one_component_spec(0.01), bo=BoConfig(max_evals=2))
    if kind == "speed":
        return _small_speed_spec()
    spec = _diffusivity_spec(max_evals=2)
    sensors = generate_sensor_data(
        spec.problem, {"nu": 0.01}, 30, 0.05, SensorPlacement.BOUNDARY_LAYER_BIASED, np.random.default_rng(5)
    )
    return replace(spec, sensors=sensors if kind == "diffusivity" else replace(sensors, truth={}))


@pytest.mark.parametrize("kind", ["forward", "speed", "diffusivity", "no-truth"])
def test_every_searched_run_is_graded_by_one_rule(kind):
    # forward and inverse runs alike report the error against their
    # reference; an inverse run whose sensors record no truth has none
    result = run_kapi(_graded_spec(kind))
    if kind == "no-truth":
        assert result.reference is None
        assert not {"linf", "rel_l2"} & set(result.metrics)
    else:
        graded = {name: result.metrics[name] for name in ("linf", "rel_l2")}
        assert graded == error_metrics(result.predicted, result.reference)
