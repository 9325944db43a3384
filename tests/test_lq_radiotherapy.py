"""Cell kill under irradiation and the fractionated treatment course."""

import math

import numpy as np
import pytest

from oncocontrol import (
    FractionationPlan,
    LQParams,
    PiecewiseGrowthParams,
    simulate_fractionated,
    surviving_count,
    surviving_fraction,
)
from oncocontrol.errors import ConfigError
from oncocontrol.lq_radiotherapy import session_pieces

CANCER_LQ = LQParams(alpha=5e-3, beta=2e-2)
HEALTHY_LQ = LQParams(alpha=6.25e-4, beta=2.5e-3)


def course_growth(**overrides):
    fields = dict(
        free_healthy_rate=0.16,
        free_cancer_rate=0.13,
        competition_cancer_rate=0.05,
        capacity=1e9,
        initial_cancer=1e6,
        initial_healthy=4e8,
    )
    fields.update(overrides)
    return PiecewiseGrowthParams(**fields)


# ---------------------------------------------------------------------------
# survival law
# ---------------------------------------------------------------------------

def test_survival_at_ten_gray():
    expected = 1e6 * math.exp(-(5e-3 * 10.0 + 2e-2 * 100.0))
    assert surviving_count(CANCER_LQ, 1e6, 10.0) == pytest.approx(
        expected, rel=1e-12
    )
    assert surviving_count(CANCER_LQ, 1e6, 10.0) == pytest.approx(
        128734.90358780423, rel=1e-12
    )


def test_healthy_tissue_is_spared_relative_to_cancer():
    assert surviving_fraction(HEALTHY_LQ, 10.0) > surviving_fraction(
        CANCER_LQ, 10.0
    )


def test_zero_dose_is_harmless():
    assert surviving_fraction(CANCER_LQ, 0.0) == 1.0


def test_survival_decreases_with_dose():
    doses = np.linspace(0.0, 30.0, 40)
    fractions = [surviving_fraction(CANCER_LQ, d) for d in doses]
    assert all(b < a for a, b in zip(fractions, fractions[1:]))


def test_splitting_a_dose_spares_cells():
    # e^{-(a d + b d^2)} is log-concave in d, so two fractions always keep
    # at least as many cells as the same total in one shot
    rng = np.random.default_rng(3)
    for _ in range(50):
        d1, d2 = rng.uniform(0.1, 15.0, 2)
        split = surviving_fraction(CANCER_LQ, d1) * surviving_fraction(CANCER_LQ, d2)
        single = surviving_fraction(CANCER_LQ, d1 + d2)
        assert split > single


def test_lq_params_validation():
    with pytest.raises(ConfigError):
        LQParams(alpha=-1e-3, beta=0.01)
    with pytest.raises(ConfigError):
        LQParams(alpha=0.0, beta=0.0)
    with pytest.raises(ValueError):
        surviving_fraction(CANCER_LQ, -1.0)


# ---------------------------------------------------------------------------
# schedule and growth-parameter invariants
# ---------------------------------------------------------------------------

def test_growth_rate_ordering_enforced():
    with pytest.raises(ConfigError, match="free_healthy_rate > free_cancer_rate"):
        course_growth(free_cancer_rate=0.2)
    with pytest.raises(ConfigError):
        course_growth(competition_cancer_rate=0.14)
    with pytest.raises(ConfigError):
        course_growth(initial_healthy=1e9)
    with pytest.raises(ConfigError):
        course_growth(competition_trigger=0.0)


def test_plan_validation():
    with pytest.raises(ConfigError):
        FractionationPlan(session_starts=(), session_duration=0.2, dose_rate=1.0)
    with pytest.raises(ConfigError):
        FractionationPlan(
            session_starts=(0.0, 0.1), session_duration=0.2, dose_rate=1.0
        )
    with pytest.raises(ConfigError):
        FractionationPlan(
            session_starts=(10.0, 5.0), session_duration=0.2, dose_rate=1.0
        )
    with pytest.raises(ConfigError):
        FractionationPlan(
            session_starts=(0.0, 0.2 - 2e-9), session_duration=0.2, dose_rate=1.0
        )
    # sessions may overlap by the 1e-9 day that decimal edges miss by
    FractionationPlan(
        session_starts=(100.0, 100.2, 100.4, 100.6), session_duration=0.2, dose_rate=1.0
    )
    with pytest.raises(ConfigError):
        FractionationPlan(session_starts=(0.0,), session_duration=0.2)
    with pytest.raises(ConfigError):
        FractionationPlan(
            session_starts=(0.0,),
            session_duration=0.2,
            dose_rate=1.0,
            eradication_threshold=0.0,
        )


def test_session_dose_overrides_dose_rate():
    plan = FractionationPlan(
        session_starts=(0.0,), session_duration=0.2, dose_rate=1.0, session_dose=8.0
    )
    assert plan.effective_dose_rate == pytest.approx(40.0)
    assert plan.dose_per_session == pytest.approx(8.0)
    rate_only = FractionationPlan(
        session_starts=(0.0,), session_duration=0.2, dose_rate=40.0
    )
    assert rate_only.dose_per_session == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# course simulation
# ---------------------------------------------------------------------------

def test_single_session_matches_closed_form_kill():
    # growth is suspended during irradiation, so the per-substep decay
    # factors telescope to exactly one LQ hit of the full session dose
    growth = course_growth()
    plan = FractionationPlan(
        session_starts=(0.0,), session_duration=0.2, session_dose=8.0
    )
    traj = simulate_fractionated(growth, CANCER_LQ, HEALTHY_LQ, plan, t_end=0.2)
    expected_c = 1e6 * surviving_fraction(CANCER_LQ, 8.0)
    expected_h = 4e8 * surviving_fraction(HEALTHY_LQ, 8.0)
    assert traj.cancer[-1] == pytest.approx(expected_c, rel=1e-12)
    assert traj.healthy[-1] == pytest.approx(expected_h, rel=1e-12)
    assert all(traj.in_session[:-1])
    assert not traj.in_session[-1]


def test_back_to_back_sessions_each_restart_the_dose():
    # gaps equal to the duration are allowed; each substep must be charged
    # to the session it lies in, so every session is one full LQ hit
    growth = course_growth()
    plan = FractionationPlan(
        session_starts=(10.0, 10.25, 10.5, 10.75),
        session_duration=0.25,
        session_dose=2.0,
    )
    traj = simulate_fractionated(
        growth, CANCER_LQ, HEALTHY_LQ, plan, t_end=11.0, dt=0.05
    )
    before = traj.times == 10.0
    kill = surviving_fraction(CANCER_LQ, 2.0) ** 4
    assert traj.cancer[-1] == pytest.approx(traj.cancer[before][0] * kill, rel=1e-12)
    assert all(traj.in_session[(traj.times >= 10.0) & (traj.times < 11.0)])
    assert not traj.in_session[-1]


def test_session_boundaries_land_on_grid():
    growth = course_growth()
    plan = FractionationPlan(
        session_starts=(10.0, 30.0), session_duration=0.2, session_dose=2.0
    )
    traj = simulate_fractionated(growth, CANCER_LQ, HEALTHY_LQ, plan, t_end=40.0)
    for edge in (10.0, 10.2, 30.0, 30.2):
        assert np.min(np.abs(traj.times - edge)) == 0.0
    inside = traj.in_session & (traj.times >= 10.0) & (traj.times < 10.2)
    c_inside = traj.cancer[inside]
    assert all(b < a for a, b in zip(c_inside, c_inside[1:]))


def assert_flags_follow_spans(starts, duration, t_end, dt):
    # a node is flagged exactly when it lies in some [start, start + duration),
    # up to the 1e-9 day that lets session edges land on the grid
    plan = FractionationPlan(
        session_starts=tuple(map(float, starts)),
        session_duration=duration,
        session_dose=2.0,
    )
    traj = simulate_fractionated(
        course_growth(), CANCER_LQ, HEALTHY_LQ, plan, t_end=t_end, dt=dt
    )
    t, s = traj.times[:, None], np.asarray(starts)
    expected = ((t >= s - 1e-9) & (t < s + duration - 1e-9)).any(axis=1)
    assert np.array_equal(traj.in_session, expected)


def test_in_session_flags_follow_the_half_open_sessions():
    rng = np.random.default_rng(41)
    for _ in range(12):
        duration = rng.uniform(0.05, 1.0)
        gaps = rng.uniform(duration, 5.0, rng.integers(1, 40))
        # the first session may start before day 0 or run past t_end
        starts = rng.uniform(-0.5 * duration, 5.0) + np.cumsum(gaps) - gaps[0]
        t_end = starts[-1] + rng.choice([0.5 * duration, duration, 10.0])
        dt = rng.uniform(0.01, duration)
        assert_flags_follow_spans(starts, duration, t_end, dt)
    # back-to-back sessions built by repeated addition miss each other by ulps
    for first in (0.0, 0.3, 10.0, 100.0):
        for duration in (0.05, 0.1, 0.2, 0.3):
            starts = [first]
            for _ in range(rng.integers(2, 20)):
                starts.append(starts[-1] + duration)
            t_end = starts[-1] + rng.choice([0.5 * duration, duration, 10.0])
            dt = rng.uniform(0.01, duration)
            assert_flags_follow_spans(starts, duration, t_end, dt)
    # a first session within 1e-9 of day 0 starts at day 0
    for first in (-1e-9, 5e-10, 1e-9):
        assert_flags_follow_spans([first, first + 1.0], 0.2, 3.0, 0.05)
    # and a course ending within 1e-9 of a session edge ends on that edge
    for t_end in (2.0 - 5e-10, 2.2 - 5e-10):
        assert_flags_follow_spans([1.0, 2.0], 0.2, t_end, 0.05)


def test_session_pieces_tile_the_horizon():
    rng = np.random.default_rng(5)
    for _ in range(200):
        duration = rng.uniform(0.05, 1.0)
        gaps = [
            rng.choice([duration, duration - 5e-10, duration + 5e-10, duration + 2.0])
            for _ in range(rng.integers(1, 20))
        ]
        starts = rng.uniform(-duration, 2.0) + np.cumsum(gaps) - gaps[0]
        plan = FractionationPlan(
            session_starts=tuple(starts.tolist()),
            session_duration=duration,
            session_dose=2.0,
        )
        t_end = rng.uniform(0.1, starts[-1] + 2.0 * duration)
        pieces = session_pieces(plan, t_end)
        assert pieces[0][0] == 0.0 and pieces[-1][1] == t_end
        assert all(a < b for a, b, _ in pieces)
        assert all(p[1] == q[0] for p, q in zip(pieces, pieces[1:]))
        for a, b, s in pieces:
            if s is not None:
                assert s - 1e-9 <= a and b <= s + duration
            elif b - a > 1e-9:
                assert all(b <= x or a >= x + duration for x in starts)


def test_competition_regime_fills_the_niche():
    growth = course_growth(initial_cancer=5e8, initial_healthy=4.9e8)
    plan = FractionationPlan(
        session_starts=(50.0,), session_duration=0.2, session_dose=2.0
    )
    traj = simulate_fractionated(growth, CANCER_LQ, HEALTHY_LQ, plan, t_end=10.0)
    assert traj.regimes[0] == "competition"
    # healthy tissue is slaved to the leftover capacity in this regime
    comp = [i for i, r in enumerate(traj.regimes) if r == "competition"][1:]
    for i in comp:
        assert traj.healthy[i] + traj.cancer[i] == pytest.approx(1e9, rel=1e-12)


def test_transient_dip_below_threshold_does_not_cure():
    # the first heavy session knocks the tumour well under the threshold,
    # but eradication is only judged after the final session ends
    growth = course_growth(initial_cancer=5e6)
    plan = FractionationPlan(
        session_starts=(0.0, 600.0),
        session_duration=0.2,
        session_dose=20.0,
        eradication_threshold=1e6,
    )
    traj = simulate_fractionated(
        growth, CANCER_LQ, HEALTHY_LQ, plan, t_end=610.0, dt=0.05
    )
    after_first = traj.times >= 0.2
    mid = after_first & (traj.times < 600.0)
    assert traj.cancer[np.argmax(after_first)] < 1e6
    assert np.all(traj.cancer[mid] > 0.0)
    done = traj.times >= 600.2
    assert np.all(traj.cancer[done] == 0.0)
    assert traj.regimes[-1] == "free"
    # the freed niche lets healthy tissue climb again
    assert traj.healthy[-1] > traj.healthy[np.argmax(done)]


def test_dose_only_enters_through_the_kill_factor():
    # two vanishing doses give the same course, and any session costs the
    # tumour its growth window even before the kill term bites
    growth = course_growth()
    ts = (5.0,)
    runs = {}
    for dose in (1e-9, 1e-12):
        plan = FractionationPlan(
            session_starts=ts, session_duration=0.2, session_dose=dose
        )
        runs[dose] = simulate_fractionated(
            growth, CANCER_LQ, HEALTHY_LQ, plan, t_end=10.0
        )
    assert runs[1e-9].cancer[-1] == pytest.approx(
        runs[1e-12].cancer[-1], rel=1e-9
    )
    off_horizon = FractionationPlan(
        session_starts=(50.0,), session_duration=0.2, session_dose=1e-9
    )
    baseline = simulate_fractionated(
        growth, CANCER_LQ, HEALTHY_LQ, off_horizon, t_end=10.0
    )
    assert runs[1e-9].cancer[-1] < baseline.cancer[-1]


def test_simulation_validation():
    growth = course_growth()
    plan = FractionationPlan(
        session_starts=(0.0,), session_duration=0.2, session_dose=1.0
    )
    with pytest.raises(ConfigError):
        simulate_fractionated(growth, CANCER_LQ, HEALTHY_LQ, plan, t_end=0.0)
    with pytest.raises(ConfigError):
        simulate_fractionated(growth, CANCER_LQ, HEALTHY_LQ, plan, t_end=1.0, dt=0.3)


def test_course_is_deterministic():
    growth = course_growth()
    plan = FractionationPlan(
        session_starts=(1.0, 3.0), session_duration=0.2, session_dose=4.0
    )
    a = simulate_fractionated(growth, CANCER_LQ, HEALTHY_LQ, plan, t_end=5.0)
    b = simulate_fractionated(growth, CANCER_LQ, HEALTHY_LQ, plan, t_end=5.0)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.states, b.states)
