"""Linear-quadratic cell kill and fractionated irradiation of a growing tumour.

A dose d delivered to a population of n0 cells leaves
n0 * exp(-(alpha*d + beta*d**2)) survivors.  The quadratic term makes dose
splitting protective: delivering d1 then d2 in separate sessions always
spares more cells than d1 + d2 at once.

simulate_fractionated runs a treatment course against a two-compartment
tumour/host model with a regime switch.  While total occupancy stays below
a trigger fraction of the carrying capacity both populations grow
logistically against the shared capacity ("free" regime).  Once occupancy
reaches the trigger, the healthy compartment is assumed to fill whatever
the tumour does not use: cancer follows its own slower logistic law and
healthy cells are the remainder ("competition" regime).  During an
irradiation session growth is suspended and both compartments decay by the
exact in-session solution of the linear-quadratic law at the session's
dose rate.

session_pieces is the one session timeline, walked by both the simulator
and the command line's dose sum.  Session s spans the half-open
[s - EDGE_SLACK, s + duration - EDGE_SLACK), so a gap of at most EDGE_SLACK
days before a session, as decimal edges leave, is charged to that session.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .competition_dynamics import _MAX_STEPS, Trajectory, _check_rk4_rate
from .errors import ConfigError

# days by which session edges may miss each other and still meet
EDGE_SLACK = 1e-9


@dataclass(frozen=True)
class LQParams:
    """Linear-quadratic response of one cell population."""

    alpha: float  # 1/Gy
    beta: float   # 1/Gy^2

    def __post_init__(self) -> None:
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ConfigError("alpha and beta must be nonnegative")
        if self.alpha == 0.0 and self.beta == 0.0:
            raise ConfigError("alpha and beta cannot both be zero")


def surviving_fraction(params: LQParams, dose: float) -> float:
    """exp(-(alpha*d + beta*d^2)) for a single acute dose d in Gy."""
    if dose < 0.0:
        raise ValueError("dose must be nonnegative")
    return math.exp(-(params.alpha * dose + params.beta * dose * dose))


def surviving_count(params: LQParams, initial_count: float, dose: float) -> float:
    if initial_count < 0.0:
        raise ValueError("initial_count must be nonnegative")
    return initial_count * surviving_fraction(params, dose)


@dataclass(frozen=True)
class PiecewiseGrowthParams:
    """Growth rates and state for the regime-switching tumour/host model.

    The rates must be ordered free_healthy_rate > free_cancer_rate >
    competition_cancer_rate > 0: unconstrained tissue regrows fastest and
    a tumour pushing against a full organ grows slowest.
    """

    free_healthy_rate: float        # 1/day
    free_cancer_rate: float         # 1/day
    competition_cancer_rate: float  # 1/day
    capacity: float                 # cells
    initial_cancer: float           # cells
    initial_healthy: float          # cells
    competition_trigger: float = 0.95  # occupancy fraction switching regimes

    def __post_init__(self) -> None:
        if not (
            self.free_healthy_rate
            > self.free_cancer_rate
            > self.competition_cancer_rate
            > 0.0
        ):
            raise ConfigError(
                "requires free_healthy_rate > free_cancer_rate > "
                "competition_cancer_rate > 0"
            )
        if not (self.capacity > 0.0):
            raise ConfigError("capacity must be positive")
        if self.initial_cancer <= 0.0 or self.initial_healthy < 0.0:
            raise ConfigError("need initial_cancer > 0 and initial_healthy >= 0")
        if self.initial_cancer + self.initial_healthy > self.capacity:
            raise ConfigError("initial occupancy exceeds capacity")
        if not (0.0 < self.competition_trigger <= 1.0):
            raise ConfigError("competition_trigger must lie in (0, 1]")


@dataclass(frozen=True)
class FractionationPlan:
    """Irradiation schedule: equal sessions at fixed dose rate.

    session_dose, when given, overrides dose_rate so the same total dose is
    spread over session_duration.  eradication_threshold is the cell count
    below which the tumour is declared gone once the course has ended;
    None disables the check.
    """

    session_starts: tuple[float, ...]       # days
    session_duration: float                 # days
    dose_rate: float | None = None          # Gy/day
    session_dose: float | None = None       # Gy, overrides dose_rate
    eradication_threshold: float | None = None  # cells

    def __post_init__(self) -> None:
        if len(self.session_starts) == 0:
            raise ConfigError("plan needs at least one session")
        if any(b <= a for a, b in zip(self.session_starts, self.session_starts[1:])):
            raise ConfigError("session_starts must be strictly increasing")
        if not (self.session_duration > 0.0):
            raise ConfigError("session_duration must be positive")
        gaps = [
            b - a for a, b in zip(self.session_starts, self.session_starts[1:])
        ]
        if gaps and min(gaps) < self.session_duration - EDGE_SLACK:
            raise ConfigError("sessions overlap: gap shorter than session_duration")
        if self.dose_rate is None and self.session_dose is None:
            raise ConfigError("plan needs dose_rate or session_dose")
        if self.dose_rate is not None and not (self.dose_rate > 0.0):
            raise ConfigError("dose_rate must be positive")
        if self.session_dose is not None and not (self.session_dose > 0.0):
            raise ConfigError("session_dose must be positive")
        if self.eradication_threshold is not None and not (
            self.eradication_threshold > 0.0
        ):
            raise ConfigError("eradication_threshold must be positive")

    @property
    def effective_dose_rate(self) -> float:
        if self.session_dose is not None:
            return self.session_dose / self.session_duration
        assert self.dose_rate is not None
        return self.dose_rate

    @property
    def dose_per_session(self) -> float:
        return self.effective_dose_rate * self.session_duration

    def last_session_end(self) -> float:
        return self.session_starts[-1] + self.session_duration


def session_pieces(
    plan: FractionationPlan, t_end: float
) -> list[tuple[float, float, float | None]]:
    """[0, t_end] cut at every session edge, in order, as (start, end,
    session) pieces: session is the start whose span holds the piece's
    start, or None between sessions."""
    starts, duration = plan.session_starts, plan.session_duration
    cuts = {x for s in starts for x in (s, s + duration) if 0.0 < x < t_end}
    cuts = sorted(cuts | {0.0, t_end})
    pieces, i = [], 0
    for a, b in zip(cuts, cuts[1:]):
        # spans are ordered, so only the last session starting by a can hold a
        while i + 1 < len(starts) and starts[i + 1] - EDGE_SLACK <= a:
            i += 1
        held = starts[i] - EDGE_SLACK <= a < starts[i] + duration - EDGE_SLACK
        pieces.append((a, b, starts[i] if held else None))
    return pieces


def simulate_fractionated(
    growth: PiecewiseGrowthParams,
    cancer_response: LQParams,
    healthy_response: LQParams,
    plan: FractionationPlan,
    t_end: float,
    dt: float = 0.01,
) -> Trajectory:
    """Run the treatment course on a fixed grid, dt days per step.

    Steps walk the session_pieces, so session edges land on the grid
    exactly; inside each piece the step count is rounded so steps stay
    close to dt.  Returns a Trajectory with regimes ("free"/"competition")
    and an in_session flag per sample: each node but the last takes the
    flag of the piece its step starts in.  A course of more steps than the
    adaptive integrator's limit, _MAX_STEPS, is rejected before the first,
    and so is an RK4 step outside sessions whose length times the fastest
    growth rate passes RK4's stability limit (NumericalError).
    """
    if not (t_end > 0.0):
        raise ConfigError("t_end must be positive")
    if not (0.0 < dt <= plan.session_duration):
        raise ConfigError("dt must be positive and no larger than session_duration")
    pieces = session_pieces(plan, t_end)
    # clamped, so a span / dt past the float range still counts as too many
    step_counts = [
        max(1, round(min((b - a) / dt, _MAX_STEPS + 1))) for a, b, _ in pieces
    ]
    if sum(step_counts) > _MAX_STEPS:
        raise ConfigError(
            f"dt {dt:g} cuts t_end {t_end:g} into more than {_MAX_STEPS} steps"
        )
    # rounding a piece's step count can stretch its steps to almost 1.5 dt
    step = max(
        ((b - a) / n for (a, b, s), n in zip(pieces, step_counts) if s is None),
        default=0.0,
    )
    rates = (growth.free_healthy_rate, growth.free_cancer_rate, growth.competition_cancer_rate)
    _check_rk4_rate(max(rates), step, "lower dt")

    k = growth.capacity
    trigger_level = growth.competition_trigger * k
    r_free_h = growth.free_healthy_rate
    r_free_c = growth.free_cancer_rate
    r_comp_c = growth.competition_cancer_rate
    rate = plan.effective_dose_rate
    a_c, b_c = cancer_response.alpha, cancer_response.beta
    a_h, b_h = healthy_response.alpha, healthy_response.beta
    course_end = plan.last_session_end()
    threshold = plan.eradication_threshold

    def free_rates(h: float, c: float) -> tuple[float, float]:
        crowd = 1.0 - (h + c) / k
        return (r_free_h * crowd * h, r_free_c * crowd * c)

    times = [0.0]
    h_cur = growth.initial_healthy
    c_cur = growth.initial_cancer
    cured = False

    def regime_of(h: float, c: float) -> str:
        # an eradicated tumour cannot contest the niche, so the healthy
        # compartment relaxes logistically even at high occupancy
        if cured:
            return "free"
        return "competition" if h + c >= trigger_level else "free"

    healthy_path = [h_cur]
    cancer_path = [c_cur]
    regimes = [regime_of(h_cur, c_cur)]
    session_flags = []

    for (a, b, session), n_steps in zip(pieces, step_counts):
        h_step = (b - a) / n_steps
        in_session = session is not None

        for j in range(n_steps):
            t_new = a + (j + 1) * h_step
            session_flags.append(in_session)

            if in_session:
                # growth suspended; exact in-session LQ decay over the substep
                tau = a + j * h_step - session
                d0 = rate * tau
                d1 = rate * (tau + h_step)
                quad = d1 * d1 - d0 * d0
                lin = d1 - d0
                c_cur *= math.exp(-(a_c * lin + b_c * quad))
                h_cur *= math.exp(-(a_h * lin + b_h * quad))
            elif regimes[-1] == "competition":
                # competition regime: cancer logistic on its own, healthy
                # cells take up the rest of the capacity exactly
                c = c_cur
                k1 = r_comp_c * c * (1.0 - c / k)
                c2 = c + 0.5 * h_step * k1
                k2 = r_comp_c * c2 * (1.0 - c2 / k)
                c3 = c + 0.5 * h_step * k2
                k3 = r_comp_c * c3 * (1.0 - c3 / k)
                c4 = c + h_step * k3
                k4 = r_comp_c * c4 * (1.0 - c4 / k)
                c_cur = c + (h_step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                h_cur = k - c_cur
            else:
                dh1, dc1 = free_rates(h_cur, c_cur)
                dh2, dc2 = free_rates(
                    h_cur + 0.5 * h_step * dh1, c_cur + 0.5 * h_step * dc1
                )
                dh3, dc3 = free_rates(
                    h_cur + 0.5 * h_step * dh2, c_cur + 0.5 * h_step * dc2
                )
                dh4, dc4 = free_rates(h_cur + h_step * dh3, c_cur + h_step * dc3)
                h_cur += (h_step / 6.0) * (dh1 + 2.0 * dh2 + 2.0 * dh3 + dh4)
                c_cur += (h_step / 6.0) * (dc1 + 2.0 * dc2 + 2.0 * dc3 + dc4)

            # tumour eradication is only judged once the course is over;
            # transient dips between sessions regrow and do not count
            if (threshold is not None and not cured
                    and t_new >= course_end - EDGE_SLACK and c_cur < threshold):
                c_cur = 0.0
                cured = True

            times.append(t_new)
            healthy_path.append(h_cur)
            cancer_path.append(c_cur)
            regimes.append(regime_of(h_cur, c_cur))

    # the last node starts no step, so the spans flag it directly
    t, duration = times[-1], plan.session_duration
    session_flags.append(
        any(s - EDGE_SLACK <= t < s + duration - EDGE_SLACK for s in plan.session_starts)
    )

    states = np.column_stack((np.asarray(healthy_path), np.asarray(cancer_path)))
    return Trajectory(
        times=np.asarray(times),
        states=states,
        regimes=regimes,
        in_session=np.asarray(session_flags, dtype=bool),
    )
