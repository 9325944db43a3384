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
                adjoint backward, and take the pointwise minimiser of
                the Hamiltonian P(u).  The fixed point u = P(u) is found
                by damped steps extrapolated with type-II Anderson
                mixing over the last few sweeps, restarted whenever the
                residual P(u) - u grows.
  solve_direct  transcribe the rollout with fixed-step RK4 and descend
                on the objective by nonmonotone spectral projected
                gradient, with an exact discrete adjoint gradient
                (reverse sweep through every RK4 stage, no finite
                differences).  Its default stop, a projected gradient
                below 1e-6, leaves the schedule within 1e-7 (max |du|)
                of the same loop run to 1e-10 on the shipped problem.

Both share the same rollout grid: n_intervals control intervals, each cut
into `refine` RK4 substeps.  The dynamics and their Jacobian come from the
single definition in competition_dynamics.competition_equations; this
module defines the running cost (_running_cost), the pointwise control
update (_clamped_minimiser) and the solution both solvers end with
(_solution) once each.
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

# sweeps of history kept by solve_fbsm's Anderson mixing
_ANDERSON_DEPTH = 5
# RK4's stability interval on the negative real axis, [-2.785, 0]
_RK4_REAL_LIMIT = 2.785
# solve_direct's nonmonotone memory, Armijo fraction and step clamp
_SPG_MEMORY = 10
_SPG_ARMIJO = 1e-4
_SPG_STEP_MIN, _SPG_STEP_MAX = 1e-10, 1e10


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

    def node_intervals(self) -> np.ndarray:
        """Index of the control interval each rollout node belongs to; the
        final node takes the last interval."""
        return np.minimum(np.arange(self.n_nodes) // self.refine, self.n_intervals - 1)


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

    controls is one intensity, or one per sample of traj.times; a rollout
    takes its per-interval schedule to nodes by indexing it with
    OCPSetup.node_intervals().
    """
    if model is None:
        model = CostModel.for_dynamics(dynamics)
    controls = np.asarray(controls, dtype=float)
    if controls.shape not in ((), traj.times.shape):
        raise ConfigError(
            f"controls of shape {controls.shape} fit neither one value nor "
            f"the {len(traj.times)} samples"
        )
    dens = _running_cost(
        traj.healthy, traj.cancer, controls, dynamics.shared_capacity, model
    )
    return _trapezoid(dens, traj.times)


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


def _check_rk4_step(setup: OCPSetup) -> None:
    """Raise NumericalError, before any rollout, when the RK4 step times
    the fastest decay rate of the linearised dynamics leaves RK4's real
    stability interval.

    The rates are those at the two single-population equilibria under
    full intensity: r_h + lam*u_max at (K, 0), and r_c + mu*u_max and
    gamma*K + lam*u_max at (0, K).  A rollout that nears either point
    with a longer step grows instead of settling.
    """
    d, c = setup.dynamics, setup.control
    u_max = c.max_intensity
    rate = max(
        d.healthy_rate + c.healthy_kill_coeff * u_max,
        d.cancer_rate + c.cancer_kill_coeff * u_max,
        d.competition_coeff * d.shared_capacity + c.healthy_kill_coeff * u_max,
    )
    if rate * setup.step > _RK4_REAL_LIMIT:
        raise NumericalError(
            f"the RK4 step of {setup.step:g} days times the fastest rate "
            f"{rate:g}/day is {rate * setup.step:.4g}, past RK4's stability "
            f"limit of {_RK4_REAL_LIMIT}; raise n_intervals or refine"
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


def _interval_midpoints(setup: OCPSetup) -> np.ndarray:
    """Rollout node at the midpoint of each control interval, where the
    control update samples the Hamiltonian minimiser."""
    return np.arange(setup.n_intervals) * setup.refine + setup.refine // 2


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
        np.asarray(controls)[setup.node_intervals()],
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

    weights = _quadrature_weights(setup)
    W = weights.tolist()
    grad = np.zeros(setup.n_intervals)
    # direct dependence of the quadrature on u
    node_interval = setup.node_intervals()
    np.add.at(
        grad,
        node_interval,
        weights * 2.0 * model.control_weight * np.asarray(controls)[node_interval],
    )
    # the sweep adds to the quadrature term as floats, in the same order
    G = grad.tolist()

    # reverse sweep; w accumulates d(objective)/d(node state)
    hN, cN = S[n_steps]
    wh = W[n_steps] * 2.0 * (hN - k) / sh2
    wc = W[n_steps] * 2.0 * cN / sc2
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
        wh += W[j] * 2.0 * (h1 - k) / sh2
        wc += W[j] * 2.0 * c1 / sc2

    return objective, np.array(G)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

def _solution(
    setup: OCPSetup, u: np.ndarray, with_adjoints: bool, **report
) -> OCPSolution:
    """Solution for the final control u: its rollout, objective and total
    dose, the adjoint rollout when asked for, and the solver's own report
    (solver, converged, iterations, final_update_norm, message, ...)."""
    times, states = forward_rollout(setup, u)
    return OCPSolution(
        times=times,
        states=states,
        control=u,
        objective=_quadrature_objective(setup, states, u),
        total_dose=float(np.sum(u) * setup.horizon / setup.n_intervals),
        adjoints=backward_rollout(setup, states, u) if with_adjoints else None,
        **report,
    )


def solve_fbsm(
    setup: OCPSetup,
    relaxation: float = 0.5,
    tol: float = 1e-6,
    max_iter: int = 500,
) -> OCPSolution:
    """Forward-backward sweep iteration on the optimality system.

    Starts from zero intensity.  Each sweep rolls the state forward and
    the adjoint backward under the current control u and takes the
    Hamiltonian minimiser P(u) at interval midpoints; the fixed point
    u = P(u) is the first-order optimum.  With residual g = P(u) - u and
    beta = relaxation, the damped step u + beta*g is extrapolated by
    type-II Anderson mixing (Walker & Ni 2011) over the last
    _ANDERSON_DEPTH sweeps: gamma fits g by least squares on the residual
    differences dG, and u becomes u + beta*g - (dU + beta*dG) gamma,
    clipped to [0, max_intensity].  When max|g| rises above the previous
    sweep's, the history is cleared and the plain damped step taken.
    The iteration stops, after one last damped step, once beta*max|g| <
    tol, which is the reported final_update_norm.  Non-convergence is
    reported on the solution, not raised.
    """
    assert setup.cost is not None
    if not (0.0 < relaxation <= 1.0):
        raise ConfigError("relaxation must lie in (0, 1]")
    _check_rk4_step(setup)
    beta = relaxation
    u_max = setup.control.max_intensity
    mids = _interval_midpoints(setup)

    u = np.zeros(setup.n_intervals)
    # column k of dU and dG: change of u and of g between two sweeps
    d_u: list[np.ndarray] = []
    d_g: list[np.ndarray] = []
    prev_u = prev_g = None
    prev_norm = np.inf
    delta = np.inf
    converged = False
    iterations = 0

    for iterations in range(1, max_iter + 1):
        _, states = forward_rollout(setup, u)
        adjoints = backward_rollout(setup, states, u)
        g = _clamped_minimiser(
            adjoints[mids], states[mids], setup.control, setup.cost
        ) - u
        norm = float(np.max(np.abs(g)))
        delta = beta * norm
        if delta < tol:
            u = u + beta * g
            converged = True
            break
        if norm > prev_norm:
            # the last step raised the residual: restart the history
            d_u.clear()
            d_g.clear()
        elif prev_u is not None:
            d_u.append(u - prev_u)
            d_g.append(g - prev_g)
            if len(d_u) > _ANDERSON_DEPTH:
                del d_u[0], d_g[0]
        prev_u, prev_g, prev_norm = u, g, norm
        if d_g:
            dU, dG = np.column_stack(d_u), np.column_stack(d_g)
            gamma = np.linalg.lstsq(dG, g, rcond=None)[0]
            u = np.clip(u + beta * g - (dU + beta * dG) @ gamma, 0.0, u_max)
        else:
            u = u + beta * g

    return _solution(
        setup,
        u,
        with_adjoints=True,
        solver=SOLVER_INDIRECT,
        converged=converged,
        iterations=iterations,
        final_update_norm=delta,
        message="" if converged else (
            f"no convergence in {max_iter} sweeps, last update {delta:.3e}"
        ),
    )


def solve_direct(
    setup: OCPSetup,
    tol: float = 1e-6,
    max_iter: int = 500,
) -> OCPSolution:
    """Nonmonotone spectral projected gradient on the transcription.

    Starts from half the maximum intensity.  With P the clip to
    [0, max_intensity] and G the exact gradient of objective_and_gradient,
    each iteration steps along d = P(u - s*G) - u.  The step s is the
    Barzilai-Borwein ratio |du|^2 / (du . dG) of the last move (at first,
    1 / max|P(u - G) - u|), clamped to [_SPG_STEP_MIN, _SPG_STEP_MAX].
    d is halved until J falls below the largest of the last _SPG_MEMORY
    accepted objectives by the Armijo margin _SPG_ARMIJO * G.d (Birgin,
    Martinez & Raydan, SIAM J. Optim. 10(4), 2000).  The loop stops once
    the projected gradient max|P(u - G) - u| < tol, which is the reported
    final_update_norm.  Non-convergence is reported on the solution, not
    raised.
    """
    _check_rk4_step(setup)
    u_max = setup.control.max_intensity

    def projected_gradient_norm(u: np.ndarray, g: np.ndarray) -> float:
        return float(np.max(np.abs(np.clip(u - g, 0.0, u_max) - u)))

    def clamped(step: float) -> float:
        return min(max(step, _SPG_STEP_MIN), _SPG_STEP_MAX)

    u = np.full(setup.n_intervals, 0.5 * u_max)
    j, g = objective_and_gradient(setup, u)
    accepted = [j]
    norm = projected_gradient_norm(u, g)
    step = clamped(1.0 / norm) if norm > 0.0 else 1.0
    iterations = 0
    while norm >= tol and iterations < max_iter:
        d = np.clip(u - step * g, 0.0, u_max) - u
        j_ref = max(accepted[-_SPG_MEMORY:])
        while True:
            j, g_new = objective_and_gradient(setup, u + d)
            if j <= j_ref + _SPG_ARMIJO * float(g @ d):
                break
            d = 0.5 * d
        curvature = float(d @ (g_new - g))
        step = clamped(float(d @ d) / curvature) if curvature > 0.0 else _SPG_STEP_MAX
        u, g = u + d, g_new
        accepted.append(j)
        iterations += 1
        norm = projected_gradient_norm(u, g)

    converged = norm < tol
    return _solution(
        setup,
        u,
        with_adjoints=False,
        solver=SOLVER_DIRECT,
        converged=converged,
        iterations=iterations,
        final_update_norm=norm,
        message="" if converged else (
            f"no convergence in {max_iter} iterations, projected gradient {norm:.3e}"
        ),
        objective_history=np.asarray(accepted[1:]),
    )


def pontryagin_residual(setup: OCPSetup, solution: OCPSolution) -> float:
    """Largest gap between the control and the Hamiltonian minimiser.

    Evaluated at interval midpoints from the solution's own adjoints;
    meaningful for the indirect solver.
    """
    assert setup.cost is not None
    if solution.adjoints is None:
        raise ConfigError("solution carries no adjoints")
    mids = _interval_midpoints(setup)
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
        width = horizon / len(sol.control)
        for i, ui in enumerate(sol.control):
            rows.append(
                DoseRow(
                    scenario=label,
                    protocol=sol.solver,
                    start=i * width,
                    end=(i + 1) * width,
                    intensity=float(ui),
                    interval_dose=float(ui) * width,
                    total_dose=sol.total_dose,
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
