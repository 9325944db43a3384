"""Coupled two-population fields and the adaptive integrator."""

import math

import numpy as np
import pytest

from oncocontrol import (
    CompetitionParams,
    ControlParams,
    NumericalError,
    State,
    Trajectory,
    coexistence_field,
    competition_field,
    controlled_field,
    integrate,
    rhs_coexistence,
    rhs_competition,
    rhs_controlled,
    solve_ode,
)
from oncocontrol.errors import ConfigError


def shared_params(**overrides):
    fields = dict(
        healthy_rate=3.0,
        cancer_rate=0.6,
        shared_capacity=7e5,
        competition_coeff=5.5e-8,
    )
    fields.update(overrides)
    return CompetitionParams(**fields)


def therapy_params():
    return ControlParams(
        healthy_kill_coeff=0.025, cancer_kill_coeff=0.189, max_intensity=1.0
    )


NOMINAL = State(healthy=6.3e5, cancer=0.7e5)


# ---------------------------------------------------------------------------
# parameter and state validation
# ---------------------------------------------------------------------------

def test_state_rejects_negative_populations():
    with pytest.raises(ConfigError):
        State(healthy=-1.0, cancer=0.0)
    with pytest.raises(ConfigError):
        State(healthy=0.0, cancer=-1e-9)


def test_dynamics_params_validation():
    with pytest.raises(ConfigError):
        shared_params(shared_capacity=0.0)
    with pytest.raises(ConfigError):
        shared_params(healthy_rate=-0.1)
    with pytest.raises(ConfigError):
        shared_params(competition_coeff=-1e-9)


def test_kill_coefficient_ordering_enforced():
    with pytest.raises(ConfigError, match="healthy_kill_coeff < cancer_kill_coeff"):
        ControlParams(healthy_kill_coeff=0.5, cancer_kill_coeff=0.5)
    with pytest.raises(ConfigError):
        ControlParams(healthy_kill_coeff=0.2, cancer_kill_coeff=1.5)
    with pytest.raises(ConfigError):
        ControlParams(
            healthy_kill_coeff=0.025, cancer_kill_coeff=0.189, max_intensity=0.0
        )
    with pytest.raises(ConfigError):
        ControlParams(
            healthy_kill_coeff=0.025, cancer_kill_coeff=0.189, max_intensity=1.2
        )


def test_trajectory_consistency_checks():
    times = np.array([0.0, 1.0, 2.0])
    states = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    traj = Trajectory(times=times, states=states)
    assert traj.final_state().healthy == 5.0
    assert np.array_equal(traj.cancer, [2.0, 4.0, 6.0])
    with pytest.raises(ConfigError):
        Trajectory(times=times[::-1].copy(), states=states)
    with pytest.raises(ConfigError):
        Trajectory(times=times, states=states[:2])


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def test_rhs_competition_at_full_niche():
    # H + C = K kills both logistic factors, leaving only the bilinear loss
    dh, dc = rhs_competition(shared_params(), NOMINAL)
    assert dh == pytest.approx(-2425.5, rel=1e-12)
    assert dc == 0.0


def test_rhs_coexistence_vanishes_at_shared_capacity():
    p = shared_params(healthy_capacity=7e5, cancer_capacity=7e5)
    assert rhs_coexistence(p, NOMINAL) == (0.0, 0.0)


def test_rhs_coexistence_capacity_ordering_drives_signs():
    # below the healthy capacity but above the cancer one: total crowding
    # pushes the population with the smaller capacity down
    p = shared_params(healthy_capacity=8e5, cancer_capacity=5e5)
    dh, dc = rhs_coexistence(p, State(healthy=3.5e5, cancer=3.0e5))
    assert dh > 0.0
    assert dc < 0.0


def test_rhs_coexistence_requires_both_capacities():
    with pytest.raises(ConfigError):
        coexistence_field(shared_params(healthy_capacity=7e5))


def test_rhs_controlled_frozen_value():
    dh, dc = rhs_controlled(shared_params(), therapy_params(), NOMINAL, 0.7)
    assert dh == pytest.approx(-13450.5, rel=1e-12)
    assert dc == pytest.approx(-9261.0, rel=1e-12)


def test_rhs_controlled_reduces_to_competition_at_zero_dose():
    p, c = shared_params(), therapy_params()
    rng = np.random.default_rng(11)
    for _ in range(20):
        s = State(healthy=rng.uniform(0, 7e5), cancer=rng.uniform(0, 7e5))
        assert rhs_controlled(p, c, s, 0.0) == rhs_competition(p, s)


def test_controlled_field_intensity_bounds():
    p, c = shared_params(), therapy_params()
    with pytest.raises(ConfigError):
        controlled_field(p, c, 1.5)
    with pytest.raises(ConfigError):
        controlled_field(p, c, -0.1)


def test_controlled_field_accepts_schedule_function():
    p, c = shared_params(), therapy_params()
    varying = controlled_field(p, c, lambda t: 0.3)
    constant = controlled_field(p, c, 0.3)
    assert varying(1.7, 5e5, 1e5) == constant(0.0, 5e5, 1e5)


# ---------------------------------------------------------------------------
# integrator
# ---------------------------------------------------------------------------

def test_integrator_tracks_exponential_decay():
    times, states = solve_ode(
        lambda t, y: -y, [1.0], (0.0, 3.0), rtol=1e-10, atol=1e-12
    )
    assert abs(states[-1, 0] - math.exp(-3.0)) < 1e-8


def test_integrator_matches_logistic_closed_form():
    r, k, y0 = 0.6, 1.5e9, 1.0
    ts = np.linspace(0.0, 50.0, 51)
    _, states = solve_ode(
        lambda t, y: r * y * (1.0 - y / k),
        [y0],
        (0.0, 50.0),
        rtol=1e-10,
        atol=1e-9,
        t_eval=ts,
    )
    exact = k / (1.0 + (k / y0 - 1.0) * np.exp(-r * ts))
    rel = np.abs(states[:, 0] - exact) / exact
    assert rel.max() < 1e-6


def test_t_eval_samples_are_returned_exactly():
    ts = np.array([0.0, 0.37, 1.0, 2.5, 3.0])
    times, states = solve_ode(lambda t, y: -y, [1.0], (0.0, 3.0), t_eval=ts)
    assert np.array_equal(times, ts)
    assert states.shape == (5, 1)


def test_t_eval_validation():
    with pytest.raises(ConfigError):
        solve_ode(lambda t, y: -y, [1.0], (0.0, 1.0), t_eval=[0.5, 0.4])
    with pytest.raises(ConfigError):
        solve_ode(lambda t, y: -y, [1.0], (0.0, 1.0), t_eval=[0.5, 1.5])
    with pytest.raises(ConfigError):
        solve_ode(lambda t, y: -y, [1.0], (1.0, 1.0))


def test_roundoff_negatives_clip_to_zero():
    # constant decay overshoots zero by 1e-10 at the horizon, which is
    # within the clip window for the default atol
    _, states = solve_ode(lambda t, y: np.array([-1.0]), [1.0], (0.0, 1.0 + 1e-10))
    assert states[-1, 0] == 0.0


def test_structural_negatives_raise():
    with pytest.raises(NumericalError):
        solve_ode(lambda t, y: np.array([-1.0]), [1.0], (0.0, 2.0))


def test_negatives_allowed_when_requested():
    _, states = solve_ode(
        lambda t, y: np.array([-1.0]), [1.0], (0.0, 2.0), nonnegative=False
    )
    assert states[-1, 0] == pytest.approx(-1.0, abs=1e-9)


def test_nonfinite_field_raises():
    def bad(t, y):
        return np.array([float("nan")])

    with pytest.raises(NumericalError):
        solve_ode(bad, [1.0], (0.0, 1.0))


def test_integrate_and_solve_ode_share_one_stepper():
    # integrate calls field(t, h, c) on floats, solve_ode adapts an array
    # field onto the same stepper: the two must agree to the last bit
    rng = np.random.default_rng(57)
    for case in range(12):
        p = shared_params(
            healthy_rate=rng.uniform(0.1, 4.0),
            cancer_rate=rng.uniform(0.1, 1.0),
            competition_coeff=rng.uniform(0.0, 1e-7),
        )
        c = therapy_params()
        field = (
            competition_field(p),
            controlled_field(p, c, rng.uniform(0.0, 1.0)),
            controlled_field(p, c, lambda t: 0.5 + 0.5 * math.sin(t)),
        )[case % 3]
        h0 = rng.uniform(0.0, 6e5)
        start = State(healthy=h0, cancer=rng.uniform(0.0, 7e5 - h0))
        t1 = rng.uniform(5.0, 100.0)
        t_eval = np.sort(rng.uniform(0.0, t1, 5)) if case % 2 else None
        traj = integrate(field, start, (0.0, t1), t_eval=t_eval)
        times, states = solve_ode(
            lambda t, y: np.array(field(t, y[0], y[1])),
            start.as_tuple(),
            (0.0, t1),
            t_eval=t_eval,
        )
        assert traj.times.tobytes() == times.tobytes()
        assert traj.states.tobytes() == states.tobytes()


def test_integrate_keeps_competition_bounded():
    p = shared_params()
    rng = np.random.default_rng(23)
    for _ in range(5):
        frac = rng.uniform(0.05, 0.95)
        h0 = frac * 6e5
        c0 = (1.0 - frac) * 6e5
        traj = integrate(
            competition_field(p), State(healthy=h0, cancer=c0), (0.0, 100.0)
        )
        assert np.all(traj.healthy >= 0.0)
        assert np.all(traj.cancer >= 0.0)
        total = traj.healthy + traj.cancer
        assert total.max() <= 7e5 * (1.0 + 1e-6)


def test_integrate_full_niche_hugs_the_boundary():
    # from H + C = K the bilinear loss keeps carving a small vacancy that
    # regrowth refills: the total hovers just below capacity, within the
    # quasi-steady gap gamma*H*C*K / (r_H*H + r_C*C) ~ 900 cells
    p = shared_params()
    traj = integrate(competition_field(p), NOMINAL, (0.0, 50.0))
    total = traj.healthy + traj.cancer
    assert total.max() <= 7e5 * (1.0 + 1e-9)
    assert 7e5 - total.min() < 2e3
    # the vacated space goes to the faster-filling population ratio shift
    assert traj.healthy[-1] < 6.3e5
    assert traj.cancer[-1] > 0.7e5
