"""Finite-horizon therapy scheduling for the competition model.

The planning problem: choose an intensity profile u(t) on [0, horizon],
piecewise constant on a uniform grid, minimising

    integral of ((healthy - capacity)/healthy_scale)^2
              + (cancer/cancer_scale)^2
              + control_weight * u^2   dt

subject to the controlled competition dynamics and 0 <= u <= max_intensity.
The running cost penalises healthy-tissue deficit, residual tumour burden
and treatment aggressiveness; the scale divisors put the three terms on
comparable footing, since raw cell counts would let the healthy term drown
everything else.

Two independent solvers are provided and are meant to cross-validate each
other:

  solve_fbsm    forward-backward sweeps derived from the first-order
                optimality system: integrate the state forward, the
                adjoint backward, then relax the control toward the
                pointwise minimiser of the Hamiltonian.
  solve_direct  transcribe the rollout with fixed-step RK4 and hand the
                objective to L-BFGS-B with an exact discrete adjoint
                gradient (reverse sweep through every RK4 stage, no
                finite differences).

Both share the same rollout grid: n_intervals control intervals, each cut
into `refine` RK4 substeps.  The dynamics and their Jacobian come from the
single definition in competition_dynamics.competition_equations; this
module defines the running cost (_running_cost) and the pointwise control
update (_clamped_minimiser) once each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .competition_dynamics import (
    CompetitionParams,
    ControlParams,
    State,
    Trajectory,
    equations_for,
)
from .errors import ConfigError, NumericalError

SOLVER_INDIRECT = "indirect-FBSM"
SOLVER_DIRECT = "direct-transcription"


@dataclass(frozen=True)
class CostModel:
    """Scales and weight of the running cost terms."""

    healthy_scale: float    # cells; divisor of the healthy deficit
    cancer_scale: float     # cells; divisor of the tumour burden
    control_weight: float = 1.0

    def __post_init__(self) -> None:
        if not (
            self.healthy_scale > 0.0
            and self.cancer_scale > 0.0
            and self.control_weight > 0.0
        ):
            raise ConfigError("cost scales and weight must be positive")

    @staticmethod
    def for_dynamics(params: CompetitionParams) -> "CostModel":
        # deficit measured relative to full capacity; tumour measured on a
        # much finer scale so that late-time residuals of a few cells per
        # ten thousand of capacity still register in the objective
        k = params.shared_capacity
        return CostModel(healthy_scale=k, cancer_scale=1e-4 * k, control_weight=1.0)


@dataclass
class OCPSetup:
    """Problem statement plus discretisation choices."""

    dynamics: CompetitionParams
    control: ControlParams
    initial: State
    horizon: float = 100.0      # days
    n_intervals: int = 200      # control grid
    refine: int = 4             # RK4 substeps per interval, must be even
    cost: CostModel | None = None

    def __post_init__(self) -> None:
        if not (self.horizon > 0.0):
            raise ConfigError("horizon must be positive")
        if self.n_intervals < 1:
            raise ConfigError("n_intervals must be at least 1")
        if self.refine < 2 or self.refine % 2 != 0:
            # control updates sample the interval midpoint, which must be
            # an exact rollout node
            raise ConfigError("refine must be an even integer >= 2")
        if self.cost is None:
            self.cost = CostModel.for_dynamics(self.dynamics)

    @property
    def n_nodes(self) -> int:
        return self.n_intervals * self.refine + 1

    @property
    def step(self) -> float:
        return self.horizon / (self.n_intervals * self.refine)

    def node_times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_nodes)

    def interval_edges(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_intervals + 1)


@dataclass
class OCPSolution:
    """Output of either solver on the shared rollout grid.

    control holds one intensity per interval; adjoints are present only
    for the indirect solver.  objective_history records the objective at
    each accepted iterate of the direct solver.
    """

    times: np.ndarray
    states: np.ndarray
    control: np.ndarray
    objective: float
    total_dose: float
    solver: str
    converged: bool
    iterations: int
    final_update_norm: float
    message: str = ""
    adjoints: np.ndarray | None = None
    objective_history: np.ndarray | None = None

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def trajectory(self) -> Trajectory:
        refine = (len(self.times) - 1) // len(self.control)
        idx = np.minimum(np.arange(len(self.times)) // refine, len(self.control) - 1)
        return Trajectory(
            times=self.times, states=self.states, controls=self.control[idx]
        )


# ---------------------------------------------------------------------------
# cost and optimality pointwise pieces
# ---------------------------------------------------------------------------

def _running_cost(h, c, u, k: float, model: CostModel):
    """Running-cost density at states (h, c) and intensities u, elementwise."""
    return (
        ((h - k) / model.healthy_scale) ** 2
        + (c / model.cancer_scale) ** 2
        + model.control_weight * u**2
    )


def _clamped_minimiser(
    adjoints: np.ndarray, states: np.ndarray, control: ControlParams, model: CostModel
) -> np.ndarray:
    """Minimiser of the Hamiltonian over [0, max_intensity] at each pair of
    (healthy, cancer) rows of adjoints and states.

    The Hamiltonian is quadratic in u with positive curvature, so the
    minimiser is the clamped stationary point.
    """
    raw = (
        adjoints[..., 0] * control.healthy_kill_coeff * states[..., 0]
        + adjoints[..., 1] * control.cancer_kill_coeff * states[..., 1]
    ) / (2.0 * model.control_weight)
    return np.clip(raw, 0.0, control.max_intensity)


def _trapezoid(values: np.ndarray, times: np.ndarray) -> float:
    dt = np.diff(times)
    return float(np.sum(0.5 * dt * (values[1:] + values[:-1])))


def controls_at_times(times: np.ndarray, controls: np.ndarray) -> np.ndarray:
    """Sample a piecewise-constant control at arbitrary times.

    The control grid is the uniform split of [times[0], times[-1]] into
    len(controls) intervals; the profile is right-continuous, and the
    final instant takes the last interval's value.
    """
    controls = np.asarray(controls, dtype=float)
    n = len(controls)
    t0, t1 = float(times[0]), float(times[-1])
    idx = np.clip(
        np.floor((np.asarray(times) - t0) / (t1 - t0) * n).astype(int), 0, n - 1
    )
    return controls[idx]


def cost(
    traj: Trajectory,
    controls,
    dynamics: CompetitionParams,
    model: CostModel | None = None,
) -> float:
    """Trapezoid quadrature of the running cost along a trajectory.

    controls may be per-sample (same length as traj.times) or
    per-interval on the uniform grid implied by its length.
    """
    if model is None:
        model = CostModel.for_dynamics(dynamics)
    controls = np.asarray(controls, dtype=float)
    if controls.ndim == 0:
        u_nodes = np.full(len(traj.times), float(controls))
    elif len(controls) == len(traj.times):
        u_nodes = controls
    else:
        u_nodes = controls_at_times(traj.times, controls)
    dens = _running_cost(
        traj.healthy, traj.cancer, u_nodes, dynamics.shared_capacity, model
    )
    return _trapezoid(dens, traj.times)


def hamiltonian_control(
    adjoint: tuple[float, float],
    control: ControlParams,
    state,
    model: CostModel,
) -> float:
    """Pointwise minimiser of the Hamiltonian over the intensity box."""
    if isinstance(state, State):
        state = state.as_tuple()
    return float(
        _clamped_minimiser(np.asarray(adjoint), np.asarray(state), control, model)
    )


def adjoint_rhs(
    dynamics: CompetitionParams,
    control: ControlParams,
    model: CostModel,
    state,
    adjoint: tuple[float, float],
    intensity: float,
) -> tuple[float, float]:
    """Time derivative of the adjoint pair along a state trajectory."""
    h, c = (state.healthy, state.cancer) if isinstance(state, State) else state
    p_h, p_c = adjoint
    k = dynamics.shared_capacity
    a00, a01, a10, a11 = equations_for(dynamics, control)[1](h, c, intensity)
    dl_dh = 2.0 * (h - k) / model.healthy_scale**2
    dl_dc = 2.0 * c / model.cancer_scale**2
    return (
        -(dl_dh + a00 * p_h + a10 * p_c),
        -(dl_dc + a01 * p_h + a11 * p_c),
    )


# ---------------------------------------------------------------------------
# rollouts on the fixed grid
# ---------------------------------------------------------------------------

def _require_finite(values: np.ndarray, what: str, setup: OCPSetup) -> None:
    # explicit RK4 is only conditionally stable: a step too long for the
    # fastest rate makes the rollout blow up instead of failing loudly
    if not np.isfinite(values).all():
        raise NumericalError(
            f"{what} left the finite range: the RK4 step of {setup.step:g} days "
            "is too long for these rates; raise n_intervals or refine"
        )


def forward_rollout(setup: OCPSetup, controls: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 rollout of the controlled dynamics.

    Returns (times, states) on the refined node grid; controls has one
    value per interval and is held constant across each interval's
    substeps.
    """
    f, _ = equations_for(setup.dynamics, setup.control)
    refine = setup.refine
    n_steps = setup.n_intervals * refine
    h_step = setup.step
    U = np.asarray(controls, dtype=float).tolist()
    hv, cv = setup.initial.healthy, setup.initial.cancer
    rows = [(hv, cv)]

    for j in range(n_steps):
        u = U[j // refine]
        k1h, k1c = f(hv, cv, u)
        k2h, k2c = f(hv + 0.5 * h_step * k1h, cv + 0.5 * h_step * k1c, u)
        k3h, k3c = f(hv + 0.5 * h_step * k2h, cv + 0.5 * h_step * k2c, u)
        k4h, k4c = f(hv + h_step * k3h, cv + h_step * k3c, u)
        hv += (h_step / 6.0) * (k1h + 2.0 * k2h + 2.0 * k3h + k4h)
        cv += (h_step / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        rows.append((hv, cv))

    states = np.array(rows)
    _require_finite(states, "state rollout", setup)
    return setup.node_times(), states


def backward_rollout(
    setup: OCPSetup,
    states: np.ndarray,
    controls: np.ndarray,
) -> np.ndarray:
    """RK4 integration of the adjoint system backward from zero.

    Stage states at half steps are linear interpolants of the stored
    forward solution.
    """
    assert setup.cost is not None
    _, jacobian = equations_for(setup.dynamics, setup.control)
    k = setup.dynamics.shared_capacity
    sh2 = setup.cost.healthy_scale**2
    sc2 = setup.cost.cancer_scale**2
    refine = setup.refine
    n_steps = setup.n_intervals * refine
    h_step = setup.step
    U = np.asarray(controls, dtype=float).tolist()
    S = np.asarray(states, dtype=float).tolist()

    # each stage is p' = -(grad of the running cost + J^T p); the two
    # midpoint stages share one state, hence one Jacobian; rows are
    # collected from the final node back and reversed once at the end
    ph, pc = 0.0, 0.0
    rows = [(ph, pc)]
    for j in range(n_steps - 1, -1, -1):
        u = U[j // refine]
        h1, c1 = S[j + 1]
        h0, c0 = S[j]
        hm, cm = 0.5 * (h0 + h1), 0.5 * (c0 + c1)
        a00, a01, a10, a11 = jacobian(h1, c1, u)
        k1h = -(2.0 * (h1 - k) / sh2 + a00 * ph + a10 * pc)
        k1c = -(2.0 * c1 / sc2 + a01 * ph + a11 * pc)
        a00, a01, a10, a11 = jacobian(hm, cm, u)
        lh, lc = 2.0 * (hm - k) / sh2, 2.0 * cm / sc2
        qh, qc = ph - 0.5 * h_step * k1h, pc - 0.5 * h_step * k1c
        k2h = -(lh + a00 * qh + a10 * qc)
        k2c = -(lc + a01 * qh + a11 * qc)
        qh, qc = ph - 0.5 * h_step * k2h, pc - 0.5 * h_step * k2c
        k3h = -(lh + a00 * qh + a10 * qc)
        k3c = -(lc + a01 * qh + a11 * qc)
        a00, a01, a10, a11 = jacobian(h0, c0, u)
        qh, qc = ph - h_step * k3h, pc - h_step * k3c
        k4h = -(2.0 * (h0 - k) / sh2 + a00 * qh + a10 * qc)
        k4c = -(2.0 * c0 / sc2 + a01 * qh + a11 * qc)
        ph -= (h_step / 6.0) * (k1h + 2.0 * k2h + 2.0 * k3h + k4h)
        pc -= (h_step / 6.0) * (k1c + 2.0 * k2c + 2.0 * k3c + k4c)
        rows.append((ph, pc))

    adjoints = np.array(rows[::-1])
    _require_finite(adjoints, "adjoint rollout", setup)
    return adjoints


def _node_intervals(setup: OCPSetup) -> np.ndarray:
    """Index of the control interval each rollout node belongs to; the
    final node takes the last interval."""
    return np.minimum(np.arange(setup.n_nodes) // setup.refine, setup.n_intervals - 1)


def _quadrature_weights(setup: OCPSetup) -> np.ndarray:
    """Uniform composite-trapezoid weights on the rollout nodes."""
    w = np.full(setup.n_nodes, setup.step)
    w[0] = w[-1] = 0.5 * setup.step
    return w


def _quadrature_objective(setup: OCPSetup, states: np.ndarray, controls: np.ndarray) -> float:
    assert setup.cost is not None
    dens = _running_cost(
        states[:, 0],
        states[:, 1],
        np.asarray(controls)[_node_intervals(setup)],
        setup.dynamics.shared_capacity,
        setup.cost,
    )
    # uniform weights as a dot product, not _trapezoid: this sum order is
    # what the reported objectives are made of
    return float(np.dot(_quadrature_weights(setup), dens))


def objective_and_gradient(
    setup: OCPSetup, controls: np.ndarray
) -> tuple[float, np.ndarray]:
    """Objective of the RK4 transcription and its exact gradient.

    The gradient is the discrete adjoint of the rollout itself: the
    reverse sweep walks back through the four RK4 stages of every step,
    so it matches finite differences of the transcribed objective to
    roundoff rather than to discretisation error.  Only the node states
    of forward_rollout are kept; each step's stage states are recomputed
    from its start node during the sweep, with the rollout's arithmetic.
    """
    assert setup.cost is not None
    f, jac = equations_for(setup.dynamics, setup.control)
    k = setup.dynamics.shared_capacity
    lam = setup.control.healthy_kill_coeff
    mu = setup.control.cancer_kill_coeff
    model = setup.cost
    sh2 = model.healthy_scale**2
    sc2 = model.cancer_scale**2
    refine = setup.refine
    n_steps = setup.n_intervals * refine
    h_step = setup.step

    _, s1 = forward_rollout(setup, controls)
    objective = _quadrature_objective(setup, s1, controls)
    U = np.asarray(controls, dtype=float).tolist()
    S = s1.tolist()

    grad = np.zeros(setup.n_intervals)
    # direct dependence of the quadrature on u
    node_interval = _node_intervals(setup)
    np.add.at(
        grad,
        node_interval,
        _quadrature_weights(setup) * 2.0 * model.control_weight
        * np.asarray(controls)[node_interval],
    )
    # the sweep adds to the quadrature term as floats, in the same order
    G = grad.tolist()

    # reverse sweep; w accumulates d(objective)/d(node state)
    hN, cN = S[n_steps]
    wh = 0.5 * h_step * 2.0 * (hN - k) / sh2
    wc = 0.5 * h_step * 2.0 * cN / sc2
    for j in range(n_steps - 1, -1, -1):
        i = j // refine
        u = U[i]
        h1, c1 = S[j]
        k1h, k1c = f(h1, c1, u)
        h2, c2 = h1 + 0.5 * h_step * k1h, c1 + 0.5 * h_step * k1c
        k2h, k2c = f(h2, c2, u)
        h3, c3 = h1 + 0.5 * h_step * k2h, c1 + 0.5 * h_step * k2c
        k3h, k3c = f(h3, c3, u)
        h4, c4 = h1 + h_step * k3h, c1 + h_step * k3c

        kb4h, kb4c = (h_step / 6.0) * wh, (h_step / 6.0) * wc
        a00, a01, a10, a11 = jac(h4, c4, u)
        sb4h = a00 * kb4h + a10 * kb4c
        sb4c = a01 * kb4h + a11 * kb4c

        kb3h = (h_step / 3.0) * wh + h_step * sb4h
        kb3c = (h_step / 3.0) * wc + h_step * sb4c
        a00, a01, a10, a11 = jac(h3, c3, u)
        sb3h = a00 * kb3h + a10 * kb3c
        sb3c = a01 * kb3h + a11 * kb3c

        kb2h = (h_step / 3.0) * wh + 0.5 * h_step * sb3h
        kb2c = (h_step / 3.0) * wc + 0.5 * h_step * sb3c
        a00, a01, a10, a11 = jac(h2, c2, u)
        sb2h = a00 * kb2h + a10 * kb2c
        sb2c = a01 * kb2h + a11 * kb2c

        kb1h = (h_step / 6.0) * wh + 0.5 * h_step * sb2h
        kb1c = (h_step / 6.0) * wc + 0.5 * h_step * sb2c
        a00, a01, a10, a11 = jac(h1, c1, u)
        sb1h = a00 * kb1h + a10 * kb1c
        sb1c = a01 * kb1h + a11 * kb1c

        # control enters every stage through the kill terms
        G[i] += (
            kb1h * (-lam * h1) + kb1c * (-mu * c1)
            + kb2h * (-lam * h2) + kb2c * (-mu * c2)
            + kb3h * (-lam * h3) + kb3c * (-mu * c3)
            + kb4h * (-lam * h4) + kb4c * (-mu * c4)
        )

        wh = wh + sb1h + sb2h + sb3h + sb4h
        wc = wc + sb1c + sb2c + sb3c + sb4c
        # quadrature weight of node j
        wq = h_step if j > 0 else 0.5 * h_step
        wh += wq * 2.0 * (h1 - k) / sh2
        wc += wq * 2.0 * c1 / sc2

    return objective, np.array(G)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def solve_fbsm(
    setup: OCPSetup,
    relaxation: float = 0.5,
    tol: float = 1e-6,
    max_iter: int = 500,
) -> OCPSolution:
    """Forward-backward sweep iteration on the optimality system.

    Starts from zero intensity.  Each sweep relaxes the control toward
    the Hamiltonian minimiser sampled at interval midpoints; when the
    update norm rises for three sweeps in a row the relaxation factor is
    halved.  Non-convergence is reported on the solution, not raised.
    """
    assert setup.cost is not None
    if not (0.0 < relaxation <= 1.0):
        raise ConfigError("relaxation must lie in (0, 1]")
    refine = setup.refine
    mids = np.arange(setup.n_intervals) * refine + refine // 2

    u = np.zeros(setup.n_intervals)
    relax = relaxation
    prev_delta = np.inf
    rise_streak = 0
    delta = np.inf
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        _, states = forward_rollout(setup, u)
        adjoints = backward_rollout(setup, states, u)
        proposal = _clamped_minimiser(
            adjoints[mids], states[mids], setup.control, setup.cost
        )
        u_new = (1.0 - relax) * u + relax * proposal
        delta = float(np.max(np.abs(u_new - u)))
        u = u_new
        if delta < tol:
            converged = True
            break
        if delta > prev_delta:
            rise_streak += 1
            if rise_streak >= 3:
                relax = max(0.5 * relax, 1.0 / 64.0)
                rise_streak = 0
        else:
            rise_streak = 0
        prev_delta = delta

    times, states = forward_rollout(setup, u)
    adjoints = backward_rollout(setup, states, u)
    objective = _quadrature_objective(setup, states, u)
    message = "" if converged else (
        f"no convergence in {max_iter} sweeps, last update {delta:.3e}"
    )
    return OCPSolution(
        times=times,
        states=states,
        control=u,
        objective=objective,
        total_dose=float(np.sum(u) * setup.horizon / setup.n_intervals),
        solver=SOLVER_INDIRECT,
        converged=converged,
        iterations=iterations,
        final_update_norm=delta,
        message=message,
        adjoints=adjoints,
    )


def solve_direct(
    setup: OCPSetup,
    ftol: float = 1e-11,
    max_iter: int = 500,
) -> OCPSolution:
    """Bound-constrained quasi-Newton descent on the transcription."""
    # imported here so that every other kind starts without scipy.optimize
    from scipy.optimize import minimize

    u_max = setup.control.max_intensity
    x0 = np.full(setup.n_intervals, 0.5 * u_max)
    history: list[float] = []

    def fun(x: np.ndarray) -> tuple[float, np.ndarray]:
        return objective_and_gradient(setup, x)

    def record(intermediate_result) -> None:
        # scipy hands a parameter of this name the accepted iterate's
        # OptimizeResult, whose fun is the objective already evaluated there
        history.append(intermediate_result.fun)

    result = minimize(
        fun,
        x0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, u_max)] * setup.n_intervals,
        callback=record,
        options={"maxiter": max_iter, "ftol": ftol},
    )

    u = np.clip(result.x, 0.0, u_max)
    times, states = forward_rollout(setup, u)
    objective = _quadrature_objective(setup, states, u)
    grad_norm = float(np.max(np.abs(result.jac))) if result.jac is not None else np.nan
    return OCPSolution(
        times=times,
        states=states,
        control=u,
        objective=objective,
        total_dose=float(np.sum(u) * setup.horizon / setup.n_intervals),
        solver=SOLVER_DIRECT,
        converged=bool(result.success),
        iterations=int(result.nit),
        final_update_norm=grad_norm,
        message=str(result.message),
        objective_history=np.asarray(history),
    )


def pontryagin_residual(setup: OCPSetup, solution: OCPSolution) -> float:
    """Largest gap between the control and the Hamiltonian minimiser.

    Evaluated at interval midpoints from the solution's own adjoints;
    meaningful for the indirect solver.
    """
    assert setup.cost is not None
    if solution.adjoints is None:
        raise ConfigError("solution carries no adjoints")
    refine = setup.refine
    mids = np.arange(setup.n_intervals) * refine + refine // 2
    u_star = _clamped_minimiser(
        solution.adjoints[mids], solution.states[mids], setup.control, setup.cost
    )
    return float(np.max(np.abs(u_star - solution.control)))


# ---------------------------------------------------------------------------
# dose accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DoseRow:
    """One interval of one protocol in a dose comparison table."""

    scenario: str
    protocol: str
    start: float       # days
    end: float         # days
    intensity: float
    interval_dose: float   # intensity-days
    total_dose: float      # intensity-days, whole protocol


def dose_report(
    solutions: list[OCPSolution],
    labels: list[str] | None = None,
    constant_intensity: float | None = None,
) -> list[DoseRow]:
    """Interval-by-interval dose table for solved schedules.

    Optionally adds a constant-intensity reference protocol per scenario.
    All solutions must share one horizon.
    """
    if not solutions:
        raise ConfigError("dose_report needs at least one solution")
    if labels is None:
        labels = [f"scenario_{i + 1}" for i in range(len(solutions))]
    if len(labels) != len(solutions):
        raise ConfigError("labels and solutions differ in length")
    horizon = solutions[0].horizon
    for sol in solutions[1:]:
        if abs(sol.horizon - horizon) > 1e-9:
            raise ConfigError("solutions disagree on the horizon")

    rows: list[DoseRow] = []
    for label, sol in zip(labels, solutions):
        n = len(sol.control)
        width = horizon / n
        total = float(np.sum(sol.control) * width)
        for i, ui in enumerate(sol.control):
            rows.append(
                DoseRow(
                    scenario=label,
                    protocol=sol.solver,
                    start=i * width,
                    end=(i + 1) * width,
                    intensity=float(ui),
                    interval_dose=float(ui) * width,
                    total_dose=total,
                )
            )
        if constant_intensity is not None:
            rows.append(
                DoseRow(
                    scenario=label,
                    protocol="constant",
                    start=0.0,
                    end=horizon,
                    intensity=float(constant_intensity),
                    interval_dose=float(constant_intensity) * horizon,
                    total_dose=float(constant_intensity) * horizon,
                )
            )
    return rows
