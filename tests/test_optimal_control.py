"""Therapy scheduling: cost, optimality pieces, and the two solvers."""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from oncocontrol import (
    CompetitionParams,
    ControlParams,
    CostModel,
    OCPSetup,
    SOLVER_DIRECT,
    SOLVER_INDIRECT,
    State,
    Trajectory,
    adjoint_rhs,
    controlled_field,
    cost,
    forward_rollout,
    integrate,
    jacobian_controlled,
    objective_and_gradient,
    pontryagin_residual,
    solve_direct,
    solve_fbsm,
)
from oncocontrol import optimal_control
from oncocontrol.optimal_control import backward_rollout
from oncocontrol.config import load_config, ocp_setup_from
from oncocontrol.errors import ConfigError, NumericalError

REPO = Path(__file__).resolve().parents[1]

DYN = CompetitionParams(
    healthy_rate=3.0,
    cancer_rate=0.6,
    shared_capacity=7e5,
    competition_coeff=5.5e-8,
)
CTL = ControlParams(
    healthy_kill_coeff=0.025, cancer_kill_coeff=0.189, max_intensity=1.0
)
NOMINAL = State(healthy=6.3e5, cancer=0.7e5)


@pytest.fixture(scope="module")
def main_setup():
    return OCPSetup(dynamics=DYN, control=CTL, initial=NOMINAL)


@pytest.fixture(scope="module")
def fbsm_solution(main_setup):
    return solve_fbsm(main_setup)


@pytest.fixture(scope="module")
def direct_solution(main_setup):
    return solve_direct(main_setup)


# ---------------------------------------------------------------------------
# cost quadrature
# ---------------------------------------------------------------------------

def test_cost_vanishes_on_the_healthy_orbit():
    times = np.linspace(0.0, 100.0, 11)
    states = np.column_stack((np.full(11, 7e5), np.zeros(11)))
    traj = Trajectory(times=times, states=states)
    assert cost(traj, 0.0, DYN) == 0.0


def test_cost_of_constant_control_is_exact():
    times = np.linspace(0.0, 100.0, 11)
    states = np.column_stack((np.full(11, 7e5), np.zeros(11)))
    traj = Trajectory(times=times, states=states)
    assert cost(traj, 0.4, DYN) == pytest.approx(0.4**2 * 100.0, rel=1e-12)


def test_cost_terms_add_at_unit_scales():
    # H = 0 and C = cancer_scale make both state penalties exactly 1
    times = np.linspace(0.0, 100.0, 26)
    states = np.column_stack((np.zeros(26), np.full(26, 70.0)))
    traj = Trajectory(times=times, states=states)
    assert cost(traj, 0.0, DYN) == pytest.approx(200.0, rel=1e-12)
    heavier = CostModel(healthy_scale=7e5, cancer_scale=70.0, control_weight=3.0)
    assert cost(traj, 1.0, DYN, heavier) == pytest.approx(500.0, rel=1e-12)


# ---------------------------------------------------------------------------
# optimality pieces
# ---------------------------------------------------------------------------

def _scalar_minimiser(adjoint, state, control, model):
    """Clamped stationary point of the Hamiltonian in u, written out for
    one (adjoint, state) pair of Python floats."""
    (p_h, p_c), (h, c) = adjoint, state
    raw = (
        p_h * control.healthy_kill_coeff * h + p_c * control.cancer_kill_coeff * c
    ) / (2.0 * model.control_weight)
    return min(max(raw, 0.0), control.max_intensity)


def test_hamiltonian_minimiser_clamps_to_the_box():
    model = CostModel.for_dynamics(DYN)
    adjoints = np.array([(1e-3, 2.0), (-1.0, -1.0), (1e-6, 1e-6)])
    states = np.array([(6e5, 1e4)] * 3)
    above, below, interior = optimal_control._clamped_minimiser(
        adjoints, states, CTL, model
    )
    assert above == 1.0
    assert below == 0.0
    expected = (1e-6 * 0.025 * 6e5 + 1e-6 * 0.189 * 1e4) / 2.0
    assert interior == pytest.approx(expected, rel=1e-12)


def test_adjoint_rest_at_the_target():
    model = CostModel.for_dynamics(DYN)
    assert adjoint_rhs(DYN, CTL, model, (7e5, 0.0), (0.0, 0.0), 0.3) == (0.0, 0.0)


def test_adjoint_matrix_is_jacobian_transpose():
    # the linear part of the adjoint flow, extracted through unit adjoint
    # vectors, must be exactly -J^T
    model = CostModel.for_dynamics(DYN)
    rng = np.random.default_rng(13)
    for _ in range(10):
        s = (rng.uniform(1e3, 7e5), rng.uniform(1e3, 7e5))
        u = rng.uniform(0.0, 1.0)
        base = np.array(adjoint_rhs(DYN, CTL, model, s, (0.0, 0.0), u))
        m = np.empty((2, 2))
        for j, unit in enumerate([(1.0, 0.0), (0.0, 1.0)]):
            col = np.array(adjoint_rhs(DYN, CTL, model, s, unit, u)) - base
            m[:, j] = -col
        jac = jacobian_controlled(DYN, CTL, s, u)
        scale = max(np.abs(jac).max(), 1.0)
        assert np.abs(m - jac.T).max() <= 1e-12 * scale


def _central_differences(setup, u, eps=3e-4):
    fd = np.empty(len(u))
    for i in range(len(u)):
        up, um = u.copy(), u.copy()
        up[i] += eps
        um[i] -= eps
        fd[i] = (
            objective_and_gradient(setup, up)[0]
            - objective_and_gradient(setup, um)[0]
        ) / (2.0 * eps)
    return fd


def test_gradient_matches_finite_differences_on_a_short_horizon():
    setup = OCPSetup(
        dynamics=DYN, control=CTL, initial=NOMINAL,
        horizon=20.0, n_intervals=8, refine=4,
    )
    rng = np.random.default_rng(21)
    u = rng.uniform(0.0, 1.0, 8)
    _, grad = objective_and_gradient(setup, u)
    fd = _central_differences(setup, u)
    assert np.all(np.abs(fd - grad) / np.maximum(np.abs(fd), 1e-12) < 1e-6)

    for _ in range(20):
        # every case draws its own admissible parameters and start
        k = rng.uniform(1e5, 1e7)
        dyn = CompetitionParams(
            healthy_rate=rng.uniform(0.1, 3.0),
            cancer_rate=rng.uniform(0.05, 3.0),
            shared_capacity=k,
            competition_coeff=rng.uniform(0.0, 1.0) / k,
        )
        lam, mu = np.sort(rng.uniform(0.0, 1.0, 2))
        h0 = rng.uniform(0.05, 1.0) * k
        setup = OCPSetup(
            dynamics=dyn,
            control=ControlParams(healthy_kill_coeff=lam, cancer_kill_coeff=mu),
            initial=State(h0, rng.uniform(0.0, 1.0) * (k - h0)),
            horizon=20.0, n_intervals=8, refine=4,
        )
        u = rng.uniform(0.0, 1.0, 8)
        _, grad = objective_and_gradient(setup, u)
        fd = _central_differences(setup, u)
        # relative to the largest component: the differences of a small
        # component are swamped by the roundoff of the whole objective
        assert np.abs(fd - grad).max() / np.abs(fd).max() < 1e-6


@pytest.mark.parametrize(
    "horizon, n_intervals, refine",
    [
        (20.0, 10, 4),
        # grids on which a floor of t / width puts some interval-edge
        # nodes in the previous interval
        (100.0, 200, 4),
        (100.0, 100, 4),
        (59.04755996516342, 33, 6),
        (365.25, 100, 4),
    ],
    ids=lambda v: f"{v:g}",
)
def test_objective_agrees_with_cost_on_the_rollout(horizon, n_intervals, refine):
    setup = OCPSetup(
        dynamics=DYN, control=CTL, initial=NOMINAL,
        horizon=horizon, n_intervals=n_intervals, refine=refine,
    )
    rng = np.random.default_rng(31)
    u = rng.uniform(0.0, 1.0, n_intervals)
    value, _ = objective_and_gradient(setup, u)
    times, states = forward_rollout(setup, u)
    traj = Trajectory(times=times, states=states)
    u_nodes = u[setup.node_intervals()]
    assert value == pytest.approx(cost(traj, u_nodes, DYN, setup.cost), rel=1e-12)


def test_cost_rejects_controls_that_match_no_sample():
    setup = OCPSetup(
        dynamics=DYN, control=CTL, initial=NOMINAL,
        horizon=20.0, n_intervals=10, refine=4,
    )
    u = np.full(10, 0.5)
    traj = Trajectory(*forward_rollout(setup, u))
    with pytest.raises(ConfigError, match="samples"):
        cost(traj, u, DYN)


def test_rollout_tracks_the_adaptive_integrator():
    setup = OCPSetup(
        dynamics=DYN, control=CTL, initial=NOMINAL,
        horizon=50.0, n_intervals=50, refine=4,
    )
    u = np.full(50, 0.6)
    _, states = forward_rollout(setup, u)
    ref = integrate(
        controlled_field(DYN, CTL, 0.6), NOMINAL, (0.0, 50.0),
        rtol=1e-10, atol=1e-6, t_eval=[50.0],
    )
    assert states[-1, 0] == pytest.approx(ref.states[-1, 0], rel=1e-6)
    assert states[-1, 1] == pytest.approx(ref.states[-1, 1], rel=1e-6)


@pytest.mark.filterwarnings("error")
def test_stiff_rollouts_raise_numerical_error():
    # the scalar loops run on Python floats, where overflow gives inf
    # silently; each rollout must still end in NumericalError rather than
    # OverflowError, ZeroDivisionError or a numpy warning.  The adjoint is
    # linear in p, and RK4 amplifies it by about (step*rate)^4/24 per step,
    # so overflowing it in 20 steps takes a step of some 500 days
    stiff = dataclasses.replace(DYN, healthy_rate=50.0)
    setup = OCPSetup(
        dynamics=stiff, control=CTL, initial=NOMINAL,
        horizon=1e4, n_intervals=10, refine=2,
    )
    u = np.full(10, 0.5)
    held = np.tile(NOMINAL.as_tuple(), (setup.n_nodes, 1))
    for run in (
        lambda: forward_rollout(setup, u),
        lambda: backward_rollout(setup, held, u),
        lambda: objective_and_gradient(setup, u),
    ):
        with pytest.raises(NumericalError, match="raise n_intervals or refine"):
            run()


def test_solvers_reject_a_step_past_the_rk4_limit_before_any_rollout(monkeypatch):
    # the stiff OCP of the command line: 5-day steps x healthy rate 50
    stiff = OCPSetup(
        dynamics=dataclasses.replace(DYN, healthy_rate=50.0), control=CTL,
        initial=NOMINAL, n_intervals=10, refine=2,
    )

    def no_rollout(*args):
        raise AssertionError("rolled out before checking the step")

    monkeypatch.setattr(optimal_control, "forward_rollout", no_rollout)
    for solver in (solve_fbsm, solve_direct):
        with pytest.raises(NumericalError, match="raise n_intervals or refine"):
            solver(stiff)


def _ocp_setups(kind, params):
    if kind == "ocp":
        return [ocp_setup_from(params)]
    if kind == "dose-report":
        return [ocp_setup_from({**params, "initial": d}) for d in params["initials"]]
    return []


def test_rk4_step_check_passes_the_shipped_configs():
    configs = sorted((REPO / "configs").glob("*.json"))
    assert len(configs) == 8
    setups = []
    for path in configs:
        cfg = load_config(path)
        setups += _ocp_setups(cfg.kind, cfg.parameters)
    assert len(setups) == 4
    for setup in setups:
        optimal_control._check_rk4_step(setup)


def test_rk4_step_check_passes_the_benchmark_patients(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", REPO / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    items = [
        item
        for seed in (1, 2, 3)
        for item in workloads.plan_round(seed, 0) + workloads.cohort_round(seed, 0)
    ]
    for item in items:
        for setup in _ocp_setups(item.kind, item.parameters):
            if item.expect == "ok":
                optimal_control._check_rk4_step(setup)
            else:
                with pytest.raises(NumericalError):
                    optimal_control._check_rk4_step(setup)
    assert {item.expect for item in items} == {"ok", "numerical"}


# ---------------------------------------------------------------------------
# degenerate problems with known optima
# ---------------------------------------------------------------------------

def test_state_blind_cost_switches_treatment_off():
    # huge scales silence both state penalties, leaving only the u^2 term
    neutral = CostModel(healthy_scale=1e30, cancer_scale=1e30, control_weight=1.0)
    setup = OCPSetup(
        dynamics=DYN, control=CTL, initial=NOMINAL,
        n_intervals=50, refine=8, cost=neutral,
    )
    for solver in (solve_fbsm, solve_direct):
        sol = solver(setup)
        assert sol.converged
        assert np.abs(sol.control).max() < 1e-9


def test_healthy_start_needs_no_treatment():
    setup = OCPSetup(
        dynamics=DYN, control=CTL, initial=State(healthy=7e5, cancer=0.0),
        n_intervals=100, refine=4,
    )
    for solver in (solve_fbsm, solve_direct):
        sol = solver(setup)
        assert sol.converged
        assert np.abs(sol.control).max() == 0.0
        assert np.abs(sol.states[:, 0] - 7e5).max() == 0.0


# ---------------------------------------------------------------------------
# reference solves
# ---------------------------------------------------------------------------

def test_fbsm_reference_solve(fbsm_solution):
    sol = fbsm_solution
    assert sol.solver == SOLVER_INDIRECT
    assert sol.converged
    assert sol.iterations < 500
    assert sol.objective == pytest.approx(2750755.544344528, rel=1e-9)
    assert sol.total_dose == pytest.approx(48.93950541945415, rel=1e-9)
    assert sol.states[-1, 0] == pytest.approx(699984.270623412, rel=1e-9)
    assert sol.states[-1, 1] == pytest.approx(8.817027878325248, rel=1e-6)
    # transversality: free terminal state means zero terminal adjoint
    assert sol.adjoints is not None
    assert tuple(sol.adjoints[-1]) == (0.0, 0.0)


def test_fbsm_control_shape(fbsm_solution):
    u = fbsm_solution.control
    assert np.all(u >= 0.0)
    assert np.all(u <= 1.0)
    # full-intensity plateau first, then a monotone taper
    assert np.all(u[:70] > 0.999)
    assert np.all(np.diff(u) <= 1e-3)
    assert u[-1] < 0.2


def test_direct_reference_solve(direct_solution):
    sol = direct_solution
    assert sol.solver == SOLVER_DIRECT
    assert sol.converged
    assert sol.objective == pytest.approx(2750755.5443443293, rel=1e-9)
    assert sol.objective_history is not None
    assert len(sol.objective_history) == sol.iterations
    history = np.asarray(sol.objective_history)
    assert np.all(history[1:] <= history[:-1] * (1.0 + 1e-9))


def test_direct_stops_on_the_projected_gradient(main_setup, direct_solution):
    sol = direct_solution
    u = sol.control
    objective, grad = objective_and_gradient(main_setup, u)
    projected = np.clip(u - grad, 0.0, CTL.max_intensity) - u
    assert float(np.max(np.abs(projected))) == sol.final_update_norm
    assert sol.final_update_norm < 1e-6
    assert sol.objective_history[-1] == sol.objective == objective
    assert sol.message == ""


def test_solvers_agree(fbsm_solution, direct_solution):
    ja, jb = fbsm_solution.objective, direct_solution.objective
    assert abs(ja - jb) / min(ja, jb) < 1e-6
    gap = np.abs(fbsm_solution.control - direct_solution.control)
    assert gap.max() < 5e-3


def test_pontryagin_residual_small(fbsm_solution, main_setup):
    assert pontryagin_residual(main_setup, fbsm_solution) < 1e-4


def test_pontryagin_residual_matches_scalar_reference(fbsm_solution, main_setup):
    # the scalar minimiser at every interval midpoint is the reference; a
    # perturbed schedule keeps the residual well away from zero
    refine = main_setup.refine
    mids = np.arange(main_setup.n_intervals) * refine + refine // 2
    wobble = 0.3 * np.sin(np.arange(main_setup.n_intervals))
    for control in (fbsm_solution.control, np.clip(fbsm_solution.control + wobble, 0.0, 1.0)):
        sol = dataclasses.replace(fbsm_solution, control=control)
        expected = max(
            abs(
                _scalar_minimiser(
                    sol.adjoints[m].tolist(), sol.states[m].tolist(), CTL, main_setup.cost
                )
                - float(sol.control[i])
            )
            for i, m in enumerate(mids)
        )
        assert pontryagin_residual(main_setup, sol) == expected


def test_default_tol_reaches_the_fixed_point(fbsm_solution, main_setup):
    # a far tighter solve stands for the fixed point u = P(u); the default
    # tol must land on it, not wherever the iteration happened to slow down
    exact = solve_fbsm(main_setup, tol=1e-13)
    assert exact.converged
    assert fbsm_solution.total_dose == pytest.approx(exact.total_dose, rel=1e-8)


def test_fbsm_converges_from_the_stalled_start():
    # the damped iteration stopped here at an update of 1.0118e-6 after
    # 500 sweeps against tol 1e-6
    setup = OCPSetup(
        dynamics=DYN, control=CTL, initial=State(healthy=5.58e5, cancer=3.91e4),
        n_intervals=50, refine=4,
    )
    sol = solve_fbsm(setup)
    assert sol.converged
    assert sol.objective == pytest.approx(solve_direct(setup).objective, rel=1e-6)


def test_fbsm_answer_does_not_depend_on_relaxation(fbsm_solution, main_setup):
    for relaxation in (0.1, 0.25):
        sol = solve_fbsm(main_setup, relaxation=relaxation)
        assert sol.converged
        assert sol.objective == pytest.approx(fbsm_solution.objective, rel=1e-9)


def test_fbsm_restarts_when_a_mixed_step_raises_the_residual(monkeypatch):
    # record each sweep's control u and residual g = P(u) - u from the
    # backward rollout, the last call before the minimiser; after every
    # rise of max|g| the next control must be the plain damped step
    setup = OCPSetup(
        dynamics=DYN, control=CTL, initial=State(healthy=4.437e5, cancer=1.017e5),
        n_intervals=100, refine=4,
    )
    mids = np.arange(setup.n_intervals) * setup.refine + setup.refine // 2
    controls, residuals = [], []
    rollout = optimal_control.backward_rollout

    def recording(setup, states, u):
        adjoints = rollout(setup, states, u)
        controls.append(u.copy())
        residuals.append(
            optimal_control._clamped_minimiser(
                adjoints[mids], states[mids], setup.control, setup.cost
            ) - u
        )
        return adjoints

    monkeypatch.setattr(optimal_control, "backward_rollout", recording)
    sol = solve_fbsm(setup, relaxation=0.5)
    assert sol.converged
    norms = [np.max(np.abs(g)) for g in residuals[: sol.iterations]]
    restarts = [k for k in range(1, len(norms)) if norms[k] > norms[k - 1]]
    assert len(restarts) >= 3
    for k in restarts:
        np.testing.assert_array_equal(
            controls[k + 1], controls[k] + 0.5 * residuals[k]
        )
    assert pontryagin_residual(setup, sol) < 1e-5


def test_objective_survives_resimulation(main_setup, direct_solution):
    # integrate the optimal schedule with the adaptive solver and
    # recompute the cost; transcription and simulation must agree
    sol = direct_solution
    horizon = main_setup.horizon
    width = horizon / len(sol.control)

    def interval(t):
        return min(int(t / width), len(sol.control) - 1)

    def schedule(t):
        return float(sol.control[interval(t)])

    times = np.linspace(0.0, horizon, 401)
    traj = integrate(
        controlled_field(DYN, CTL, schedule), NOMINAL, (0.0, horizon),
        rtol=1e-9, atol=1e-6, t_eval=times,
    )
    resim = cost(traj, sol.control[[interval(t) for t in times]], DYN)
    assert abs(resim - sol.objective) / sol.objective < 1e-3


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_setup_validation():
    with pytest.raises(ConfigError):
        OCPSetup(dynamics=DYN, control=CTL, initial=NOMINAL, refine=3)
    with pytest.raises(ConfigError):
        OCPSetup(dynamics=DYN, control=CTL, initial=NOMINAL, n_intervals=0)
    with pytest.raises(ConfigError):
        OCPSetup(dynamics=DYN, control=CTL, initial=NOMINAL, horizon=-1.0)
    with pytest.raises(ConfigError):
        CostModel(healthy_scale=0.0, cancer_scale=1.0)
    setup = OCPSetup(dynamics=DYN, control=CTL, initial=NOMINAL)
    with pytest.raises(ConfigError):
        solve_fbsm(setup, relaxation=0.0)
