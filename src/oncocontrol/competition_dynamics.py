"""Two-population healthy/cancer dynamics and an adaptive ODE integrator.

One model, defined once with its Jacobian in competition_equations:

  h' = r_h (1 - (h + c)/K_h) h - gamma h c - lambda u h
  c' = r_c (1 - (h + c)/K_c) c - mu u c

at therapy intensity u, in three parameterisations:

  coexistence    K_h, K_c = healthy_capacity, cancer_capacity; no interaction
  competition    K_h = K_c = shared_capacity, gamma = competition_coeff, u = 0
  controlled     competition with lambda, mu = healthy_kill_coeff,
                 cancer_kill_coeff

Every field, Jacobian and rollout in stability_analysis and optimal_control
is built from it.

States are cell counts and must stay nonnegative.  The integrator is an
embedded Dormand-Prince 5(4) pair with proportional step control, written
for the (healthy, cancer) pair the model integrates; solve_ode runs a
problem of one or two components on the same stepper.  A state component
that steps slightly below zero (within 1e3*atol) is clipped to exactly
zero; a larger undershoot aborts with NumericalError, since that signals a
tolerance problem rather than roundoff at extinction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericalError


@dataclass(frozen=True)
class State:
    """Point in the (healthy, cancer) plane, cells."""

    healthy: float
    cancer: float

    def __post_init__(self) -> None:
        if self.healthy < 0.0 or self.cancer < 0.0:
            raise ConfigError("cell counts must be nonnegative")

    def as_tuple(self) -> tuple[float, float]:
        return (self.healthy, self.cancer)


@dataclass(frozen=True)
class CompetitionParams:
    """Growth and interaction rates of the two-population model.

    The competition and controlled systems use shared_capacity as both
    K_h and K_c; the coexistence system uses healthy_capacity and
    cancer_capacity instead and ignores competition_coeff.
    competition_coeff is the bilinear loss rate on healthy cells, per cell
    of cancer per day.
    """

    healthy_rate: float                 # 1/day
    cancer_rate: float                  # 1/day
    shared_capacity: float              # cells
    healthy_capacity: float | None = None   # cells, coexistence only
    cancer_capacity: float | None = None    # cells, coexistence only
    competition_coeff: float = 0.0      # 1/(cell*day)

    def __post_init__(self) -> None:
        if not (self.healthy_rate > 0.0 and self.cancer_rate > 0.0):
            raise ConfigError("growth rates must be positive")
        if not (self.shared_capacity > 0.0):
            raise ConfigError("shared_capacity must be positive")
        for name in ("healthy_capacity", "cancer_capacity"):
            value = getattr(self, name)
            if value is not None and not (value > 0.0):
                raise ConfigError(f"{name} must be positive when given")
        if self.competition_coeff < 0.0:
            raise ConfigError("competition_coeff must be nonnegative")


@dataclass(frozen=True)
class ControlParams:
    """Therapy response coefficients.

    The invariant 0 <= healthy_kill_coeff < cancer_kill_coeff <= 1 encodes
    that treatment must hit cancer cells harder than healthy tissue.
    """

    healthy_kill_coeff: float   # 1/day per unit intensity
    cancer_kill_coeff: float    # 1/day per unit intensity
    max_intensity: float = 1.0  # dimensionless upper bound on u

    def __post_init__(self) -> None:
        if not (0.0 <= self.healthy_kill_coeff < self.cancer_kill_coeff <= 1.0):
            raise ConfigError(
                "requires healthy_kill_coeff < cancer_kill_coeff, both in [0, 1]"
            )
        if not (0.0 < self.max_intensity <= 1.0):
            raise ConfigError("max_intensity must lie in (0, 1]")


@dataclass
class Trajectory:
    """Sampled solution of one of the dynamical systems.

    times has shape (n,), states shape (n, 2) with columns
    (healthy, cancer).  regimes and in_session are filled only by
    fractionated radiotherapy and stay None otherwise.
    """

    times: np.ndarray
    states: np.ndarray
    regimes: list[str] | None = None
    in_session: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.shape != (self.times.shape[0], 2):
            raise ConfigError("times (n,) and states (n, 2) must line up")
        if np.any(np.diff(self.times) <= 0.0):
            raise ConfigError("times must be strictly increasing")

    @property
    def healthy(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def cancer(self) -> np.ndarray:
        return self.states[:, 1]

    def final_state(self) -> State:
        return State(float(self.states[-1, 0]), float(self.states[-1, 1]))


# ---------------------------------------------------------------------------
# right-hand sides
#
# The *_field factories return plain float closures f(t, h, c) -> (dh, dc),
# the shape the DP5 pair stepper calls; integrate hands them to it
# directly, and solve_ode wraps an array field of one or two components
# into that shape.  The rhs_* wrappers are the one-shot variants for
# callers holding State objects.
# ---------------------------------------------------------------------------

Field = Callable[[float, float, float], tuple[float, float]]
Rates = Callable[[float, float, float], tuple[float, float]]
Jacobian = Callable[[float, float, float], tuple[float, float, float, float]]


def competition_equations(
    rh: float, rc: float, kh: float, kc: float, gamma: float, lam: float, mu: float
) -> tuple[Rates, Jacobian]:
    """Right-hand side and Jacobian of the two-capacity model.

    rates(h, c, u) returns (dh/dt, dc/dt) at intensity u; jacobian(h, c, u)
    returns the state Jacobian row by row as (dh'/dh, dh'/dc, dc'/dh,
    dc'/dc).  Plain floats in and out, so the closures can sit in scalar
    loops; lam = mu = 0 gives the untreated system.
    """

    def rates(h: float, c: float, u: float) -> tuple[float, float]:
        total = h + c
        return (
            rh * (1.0 - total / kh) * h - gamma * h * c - lam * u * h,
            rc * (1.0 - total / kc) * c - mu * u * c,
        )

    def jacobian(h: float, c: float, u: float) -> tuple[float, float, float, float]:
        return (
            rh * (1.0 - (2.0 * h + c) / kh) - gamma * c - lam * u,
            -h * (rh / kh + gamma),
            -rc * c / kc,
            rc * (1.0 - (h + 2.0 * c) / kc) - mu * u,
        )

    return rates, jacobian


def equations_for(
    params: CompetitionParams, control: ControlParams | None = None
) -> tuple[Rates, Jacobian]:
    """The competition system at the given parameters, K_h = K_c =
    shared_capacity; no control is untreated."""
    lam, mu = (
        (0.0, 0.0)
        if control is None
        else (control.healthy_kill_coeff, control.cancer_kill_coeff)
    )
    k = params.shared_capacity
    return competition_equations(
        params.healthy_rate, params.cancer_rate, k, k, params.competition_coeff, lam, mu
    )


def coexistence_equations(params: CompetitionParams) -> tuple[Rates, Jacobian]:
    """The coexistence system: per-population capacities, no interaction."""
    kh, kc = params.healthy_capacity, params.cancer_capacity
    if kh is None or kc is None:
        raise ConfigError("coexistence dynamics need healthy_capacity and cancer_capacity")
    rh, rc = params.healthy_rate, params.cancer_rate
    return competition_equations(rh, rc, kh, kc, 0.0, 0.0, 0.0)


def _at(rates: Rates, u: float) -> Field:
    """The field of rates at constant intensity u."""

    def field(t: float, h: float, c: float) -> tuple[float, float]:
        return rates(h, c, u)

    return field


def coexistence_field(params: CompetitionParams) -> Field:
    """Joint crowding against per-population capacities.

    With equal capacities every point of the line h + c = capacity is an
    equilibrium.
    """
    return _at(coexistence_equations(params)[0], 0.0)


def competition_field(params: CompetitionParams) -> Field:
    """Shared capacity with a bilinear competition loss on healthy cells."""
    return _at(equations_for(params)[0], 0.0)


def controlled_field(
    params: CompetitionParams,
    control: ControlParams,
    intensity: float | Callable[[float], float],
) -> Field:
    """Competition dynamics under a therapy schedule.

    intensity is either a constant in [0, max_intensity] or a callable
    u(t); callables are trusted to respect the bound (the solvers clamp).
    """
    rates, _ = equations_for(params, control)

    if callable(intensity):

        def field(t: float, h: float, c: float) -> tuple[float, float]:
            return rates(h, c, intensity(t))

        return field

    u = float(intensity)
    if not (0.0 <= u <= control.max_intensity):
        raise ConfigError(f"intensity {u:g} outside [0, {control.max_intensity:g}]")
    return _at(rates, u)


def rhs_coexistence(params: CompetitionParams, state: State) -> tuple[float, float]:
    return coexistence_equations(params)[0](state.healthy, state.cancer, 0.0)


def rhs_competition(params: CompetitionParams, state: State) -> tuple[float, float]:
    return equations_for(params)[0](state.healthy, state.cancer, 0.0)


def rhs_controlled(
    params: CompetitionParams,
    control: ControlParams,
    state: State,
    intensity: float,
) -> tuple[float, float]:
    return controlled_field(params, control, intensity)(0.0, state.healthy, state.cancer)


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) integrator
# ---------------------------------------------------------------------------

# classical DP tableau; the 5th-order weights propagate the solution and the
# difference against the embedded 4th-order weights drives step control
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
# b - b_hat, including the FSAL stage
_E1, _E3, _E4, _E5, _E6, _E7 = (
    35.0 / 384.0 - 5179.0 / 57600.0,
    500.0 / 1113.0 - 7571.0 / 16695.0,
    125.0 / 192.0 - 393.0 / 640.0,
    -2187.0 / 6784.0 + 92097.0 / 339200.0,
    11.0 / 84.0 - 187.0 / 2100.0,
    -1.0 / 40.0,
)

_MAX_STEPS = 1_000_000
_SHRINK_FLOOR = 0.2
_GROW_CAP = 5.0
_SAFETY = 0.9


def _dormand_prince(
    field: Field,
    y0: tuple[float, float],
    t_span: tuple[float, float],
    rtol: float,
    atol: float,
    t_eval: Sequence[float] | None,
    nonnegative: bool,
) -> tuple[list[float], list[tuple[float, float]]]:
    """The one DP5 stepper, written for the state pair (yh, yc):
    field(t, h, c) returns (dh, dc) as floats.

    Returns the recorded times and states as lists; see solve_ode for the
    sampling rules.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ConfigError("t_span must satisfy t1 > t0")
    yh, yc = y0

    targets: list[float] | None = None
    if t_eval is not None:
        targets = [float(t) for t in t_eval]
        if not targets:
            raise ConfigError("t_eval must hold at least one time")
        if any(b <= a for a, b in zip(targets, targets[1:])):
            raise ConfigError("t_eval must be strictly increasing")
        if targets[0] < t0 - 1e-12 or targets[-1] > t1 + 1e-12:
            raise ConfigError("t_eval must lie within t_span")

    span = t1 - t0
    min_step = 1e-12 * span
    clip_floor = -1e3 * atol

    times: list[float] = []
    states: list[tuple[float, float]] = []
    next_target = 0

    t = t0
    if targets is None or abs(targets[0] - t0) <= 1e-12:
        times.append(t0)
        states.append((yh, yc))
        next_target = 1

    kh1, kc1 = field(t, yh, yc)
    if not (math.isfinite(kh1) and math.isfinite(kc1)):
        raise NumericalError("right-hand side not finite at initial state")
    h = span / 100.0

    steps = 0
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        steps += 1
        if steps > _MAX_STEPS:
            raise NumericalError(f"step limit {_MAX_STEPS} exceeded")

        # cap the step at the horizon and at the next requested sample
        boundary = t1
        if targets is not None and next_target < len(targets):
            boundary = min(boundary, targets[next_target])
        h = min(h, boundary - t)
        if h < min_step:
            raise NumericalError(f"step size underflow near t = {t:.6g}")

        kh2, kc2 = field(t + _C2 * h, yh + h * (_A21 * kh1), yc + h * (_A21 * kc1))
        kh3, kc3 = field(
            t + _C3 * h,
            yh + h * (_A31 * kh1 + _A32 * kh2),
            yc + h * (_A31 * kc1 + _A32 * kc2),
        )
        kh4, kc4 = field(
            t + _C4 * h,
            yh + h * (_A41 * kh1 + _A42 * kh2 + _A43 * kh3),
            yc + h * (_A41 * kc1 + _A42 * kc2 + _A43 * kc3),
        )
        kh5, kc5 = field(
            t + _C5 * h,
            yh + h * (_A51 * kh1 + _A52 * kh2 + _A53 * kh3 + _A54 * kh4),
            yc + h * (_A51 * kc1 + _A52 * kc2 + _A53 * kc3 + _A54 * kc4),
        )
        kh6, kc6 = field(
            t + h,
            yh + h * (_A61 * kh1 + _A62 * kh2 + _A63 * kh3 + _A64 * kh4 + _A65 * kh5),
            yc + h * (_A61 * kc1 + _A62 * kc2 + _A63 * kc3 + _A64 * kc4 + _A65 * kc5),
        )
        nh = yh + h * (_B1 * kh1 + _B3 * kh3 + _B4 * kh4 + _B5 * kh5 + _B6 * kh6)
        nc = yc + h * (_B1 * kc1 + _B3 * kc3 + _B4 * kc4 + _B5 * kc5 + _B6 * kc6)
        kh7, kc7 = field(t + h, nh, nc)

        if not (math.isfinite(nh) and math.isfinite(nc)
                and math.isfinite(kh7) and math.isfinite(kc7)):
            raise NumericalError(f"non-finite state near t = {t:.6g}")

        # RMS of the error over the tolerance scale
        eh = h * (_E1 * kh1 + _E3 * kh3 + _E4 * kh4 + _E5 * kh5 + _E6 * kh6 + _E7 * kh7)
        ec = h * (_E1 * kc1 + _E3 * kc3 + _E4 * kc4 + _E5 * kc5 + _E6 * kc6 + _E7 * kc7)
        qh = eh / (atol + rtol * max(abs(yh), abs(nh)))
        qc = ec / (atol + rtol * max(abs(yc), abs(nc)))
        norm = math.sqrt((qh * qh + qc * qc) / 2.0)

        if norm <= 1.0:
            if nonnegative:
                # zero out roundoff-negative components; fail on real ones
                for i, v in enumerate((nh, nc)):
                    if v < clip_floor:
                        raise NumericalError(
                            f"state component {i} reached {v:.6g}, "
                            f"below clip floor {clip_floor:.6g}"
                        )
                nh, nc = max(nh, 0.0), max(nc, 0.0)
            t, yh, yc, kh1, kc1 = t + h, nh, nc, kh7, kc7
            if targets is None:
                times.append(t)
                states.append((yh, yc))
            else:
                while next_target < len(targets) and targets[next_target] <= t + 1e-12:
                    times.append(targets[next_target])
                    states.append((yh, yc))
                    next_target += 1

        factor = _GROW_CAP if norm == 0.0 else min(
            _GROW_CAP, max(_SHRINK_FLOOR, _SAFETY * norm ** -0.2)
        )
        h = h * factor

    return times, states


def solve_ode(
    field: Callable[[float, np.ndarray], np.ndarray],
    y0: Sequence[float],
    t_span: tuple[float, float],
    rtol: float = 1e-8,
    atol: float = 1e-6,
    t_eval: Sequence[float] | None = None,
    nonnegative: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate y' = field(t, y) over t_span, returning (times, states).

    y0 has one or two components, and field takes and returns 1-D arrays
    of that length (or a scalar for every component).  It runs on the
    pair stepper that integrate uses: two components are its two lanes;
    one component rides both, the field called once for the pair, so the
    lanes stay equal and (q*q + q*q)/2 == q*q gives the steps, samples
    and errors of a one-lane stepper.  With t_eval given, the step
    size is capped so the solver lands exactly on every requested time
    and only those samples are returned; otherwise every accepted step is
    recorded.  t_eval must be nonempty, strictly increasing and contained
    in t_span.
    """
    y = np.asarray(y0, dtype=float)
    if y.ndim != 1 or y.size == 0:
        raise ConfigError("y0 must be one-dimensional and nonempty")
    n = y.size
    if n > 2:
        raise ConfigError(f"solve_ode takes one or two components, got {n}")

    def pair_field(t: float, h: float, c: float) -> tuple[float, float]:
        dy = np.asarray(field(t, np.array((h, c)[:n])), dtype=float)
        lanes = np.broadcast_to(dy, (n,)).tolist()
        return lanes[0], lanes[-1]

    times, states = _dormand_prince(
        pair_field, (float(y[0]), float(y[-1])), t_span, rtol, atol, t_eval, nonnegative
    )
    return np.asarray(times), np.asarray(states)[:, :n]


def integrate(
    field: Field,
    initial: State,
    t_span: tuple[float, float],
    rtol: float = 1e-8,
    atol: float = 1e-6,
    t_eval: Sequence[float] | None = None,
) -> Trajectory:
    """Adaptive integration of a two-population field into a Trajectory.

    The field is called as field(t, h, c) on Python floats, with no array
    in between.
    """
    times, states = _dormand_prince(
        field,
        (float(initial.healthy), float(initial.cancer)),
        t_span,
        rtol,
        atol,
        t_eval,
        nonnegative=True,
    )
    return Trajectory(times=np.asarray(times), states=np.asarray(states))
