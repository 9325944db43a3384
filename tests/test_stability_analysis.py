"""Equilibria, eigenvalues and stability conditions of the ODE systems."""

import numpy as np
import pytest

from oncocontrol import (
    CLASS_INFEASIBLE,
    CLASS_NONHYPERBOLIC,
    CLASS_SADDLE,
    CLASS_SINK,
    CLASS_SOURCE,
    CompetitionParams,
    ControlParams,
    State,
    classify,
    coexistence_field,
    competition_field,
    controlled_field,
    eig2,
    equilibria_constant_control,
    equilibria_uncontrolled,
    integrate,
    jacobian_coexistence,
    jacobian_competition,
    jacobian_controlled,
)
from oncocontrol.competition_dynamics import competition_equations
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


def by_label(reports):
    return {r.label: r for r in reports}


# ---------------------------------------------------------------------------
# linear algebra helpers
# ---------------------------------------------------------------------------

def test_eig2_matches_numpy_on_random_matrices():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = rng.normal(0.0, 3.0, (2, 2))
        mine = eig2(m)
        ref = sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag))
        for a, b in zip(mine, ref):
            assert abs(a - b) < 1e-12 * max(1.0, np.abs(m).max())


def test_eig2_complex_pair():
    lo, hi = eig2([[0.0, -1.0], [1.0, 0.0]])
    assert lo == pytest.approx(-1j)
    assert hi == pytest.approx(1j)


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_eig2_scales_past_the_float_range(scale):
    # unscaled, the squared trace of this matrix overflows or underflows
    lo, hi = eig2([[3.0 * scale, scale], [0.0, 2.0 * scale]])
    assert (lo.imag, hi.imag) == (0.0, 0.0)
    assert lo.real == pytest.approx(2.0 * scale, rel=1e-15, abs=0.0)
    assert hi.real == pytest.approx(3.0 * scale, rel=1e-15, abs=0.0)


def test_eig2_rejects_wrong_shape():
    with pytest.raises(ConfigError):
        eig2(np.eye(3))


def test_classify_branches():
    assert classify((-1.0, -2.0)) == CLASS_SINK
    assert classify((0.5, 2.0)) == CLASS_SOURCE
    assert classify((-1.0, 1.0)) == CLASS_SADDLE
    assert classify((0.0, -1.0)) == CLASS_NONHYPERBOLIC
    assert classify((1e-9, -1.0), zero_tol=1e-8) == CLASS_NONHYPERBOLIC


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(20):
        # every case draws its own admissible parameter set
        k = rng.uniform(1e5, 1e7)
        p = CompetitionParams(
            healthy_rate=rng.uniform(0.05, 5.0),
            cancer_rate=rng.uniform(0.05, 5.0),
            shared_capacity=k,
            healthy_capacity=rng.uniform(0.5, 1.5) * k,
            cancer_capacity=rng.uniform(0.5, 1.5) * k,
            competition_coeff=rng.uniform(0.0, 1.0) / k,
        )
        lam, mu = np.sort(rng.uniform(0.0, 1.0, 2))
        ctl = ControlParams(healthy_kill_coeff=lam, cancer_kill_coeff=mu)
        delta = 1e-6 * k
        h, c = rng.uniform(1e-3, 1.0, 2) * k
        u = rng.uniform(0.0, 1.0)
        # the general model: K_h != K_c together with interaction and therapy
        rates, jacobian = competition_equations(
            p.healthy_rate,
            p.cancer_rate,
            p.healthy_capacity,
            p.cancer_capacity,
            p.competition_coeff,
            lam,
            mu,
        )
        cases = [
            (jacobian_coexistence(p, (h, c)), coexistence_field(p)),
            (jacobian_competition(p, (h, c)), competition_field(p)),
            (
                jacobian_controlled(p, ctl, (h, c), u),
                controlled_field(p, ctl, lambda t, _u=u: _u),
            ),
            (
                np.reshape(jacobian(h, c, u), (2, 2)),
                lambda t, x, y, _u=u: rates(x, y, _u),
            ),
        ]
        for jac, field in cases:
            fd = np.empty((2, 2))
            for j, (dh, dc) in enumerate([(delta, 0.0), (0.0, delta)]):
                lo = field(0.0, h - dh, c - dc)
                hi = field(0.0, h + dh, c + dc)
                fd[0, j] = (hi[0] - lo[0]) / (2.0 * delta)
                fd[1, j] = (hi[1] - lo[1]) / (2.0 * delta)
            scale = max(np.abs(jac).max(), 1e-12)
            assert np.abs(jac - fd).max() / scale < 1e-6


# ---------------------------------------------------------------------------
# untreated systems
# ---------------------------------------------------------------------------

def test_competitive_equilibria_table():
    reports = by_label(equilibria_uncontrolled(shared_params()))
    ext = reports["extinction"]
    assert ext.point == (0.0, 0.0)
    assert ext.eigenvalues[0] == pytest.approx(0.6)
    assert ext.eigenvalues[1] == pytest.approx(3.0)
    assert ext.classification == CLASS_SOURCE

    healthy = reports["healthy_only"]
    assert healthy.point == (7e5, 0.0)
    assert healthy.eigenvalues[0] == pytest.approx(-3.0)
    assert healthy.eigenvalues[1] == 0.0
    assert healthy.classification == CLASS_NONHYPERBOLIC
    # the zero mode hides a slow escape: competition chips away at the
    # pure-healthy state, so the nonlinear probe must call it unstable
    assert healthy.nonlinear_verdict == "unstable"

    cancer = reports["cancer_only"]
    assert cancer.point == (0.0, 7e5)
    assert cancer.eigenvalues[0] == pytest.approx(-0.6)
    assert cancer.eigenvalues[1] == pytest.approx(-5.5e-8 * 7e5)
    assert cancer.classification == CLASS_SINK
    assert cancer.conditions == {"competition_coeff > 0": True}


def test_probe_can_be_disabled():
    reports = by_label(
        equilibria_uncontrolled(shared_params(), probe_nonhyperbolic=False)
    )
    assert reports["healthy_only"].nonlinear_verdict is None


def test_coexistence_equilibria_capacity_ordering():
    p = shared_params(healthy_capacity=5e5, cancer_capacity=7e5)
    reports = by_label(equilibria_uncontrolled(p, competitive=False))
    healthy = reports["healthy_only"]
    assert healthy.point == (5e5, 0.0)
    assert healthy.classification == CLASS_SADDLE
    assert healthy.eigenvalues[1] == pytest.approx(0.6 * (1.0 - 5.0 / 7.0))
    cancer = reports["cancer_only"]
    assert cancer.point == (0.0, 7e5)
    assert cancer.classification == CLASS_SINK
    assert cancer.eigenvalues[0] == pytest.approx(3.0 * (1.0 - 7.0 / 5.0))
    assert cancer.conditions["cancer_capacity > healthy_capacity"]


def test_coexistence_equal_capacities_line_is_neutral():
    # equal capacities degenerate into a whole line of rest points; a
    # perturbation along the line does not move at all
    p = shared_params(healthy_capacity=7e5, cancer_capacity=7e5)
    reports = by_label(equilibria_uncontrolled(p, competitive=False))
    healthy = reports["healthy_only"]
    assert healthy.classification == CLASS_NONHYPERBOLIC
    assert healthy.nonlinear_verdict == "neutral"


def test_sinks_attract_their_neighbourhood():
    # every reported hyperbolic sink pulls back a 1% random perturbation
    # within 0.5% in 20 slow time constants
    p = shared_params()
    ctl = therapy_params()
    rng = np.random.default_rng(29)
    cases = [
        (equilibria_uncontrolled(p), competition_field(p)),
        (
            equilibria_constant_control(p, ctl, 0.7),
            controlled_field(p, ctl, 0.7),
        ),
    ]
    checked = 0
    for reports, field in cases:
        for rep in reports:
            if rep.classification != CLASS_SINK:
                continue
            norm = float(np.hypot(*rep.point))
            slow = min(abs(z.real) for z in rep.eigenvalues)
            angle = rng.uniform(0.0, 2.0 * np.pi)
            start = State(
                max(rep.point[0] + 0.01 * norm * np.cos(angle), 0.0),
                max(rep.point[1] + 0.01 * norm * np.sin(angle), 0.0),
            )
            traj = integrate(field, start, (0.0, 20.0 / slow))
            final = traj.final_state()
            dist = np.hypot(final.healthy - rep.point[0], final.cancer - rep.point[1])
            assert dist < 0.005 * norm
            checked += 1
    assert checked >= 2


# ---------------------------------------------------------------------------
# constant-intensity therapy
# ---------------------------------------------------------------------------

def test_constant_control_equilibria_at_reference_intensity():
    reports = by_label(
        equilibria_constant_control(shared_params(), therapy_params(), 0.7)
    )

    ext = reports["extinction"]
    assert ext.eigenvalues[0] == pytest.approx(0.6 - 0.189 * 0.7)
    assert ext.eigenvalues[1] == pytest.approx(3.0 - 0.025 * 0.7)
    assert ext.classification == CLASS_SOURCE
    assert ext.conditions == {
        "healthy_kill_coeff * u > healthy_rate": False,
        "cancer_kill_coeff * u > cancer_rate": False,
    }

    healthy = reports["healthy_only"]
    assert healthy.point[0] == pytest.approx(695916.6666666666, rel=1e-12)
    assert healthy.point[1] == 0.0
    assert healthy.eigenvalues[0] == pytest.approx(-2.9825)
    assert healthy.eigenvalues[1] == pytest.approx(
        0.7 * (0.025 * 0.6 - 0.189 * 3.0) / 3.0
    )
    assert healthy.classification == CLASS_SINK
    assert all(healthy.conditions.values())

    cancer = reports["cancer_only"]
    assert cancer.point[1] == pytest.approx(545650.0, rel=1e-12)
    assert cancer.eigenvalues[0] == pytest.approx(0.189 * 0.7 - 0.6)
    assert cancer.eigenvalues[1] == pytest.approx(0.61398925, rel=1e-12)
    assert cancer.classification == CLASS_SADDLE
    assert not all(cancer.conditions.values())

    interior = reports["interior"]
    assert interior.point[1] == pytest.approx(
        0.7 * (0.189 * 3.0 - 0.025 * 0.6) / (5.5e-8 * 0.6), rel=1e-12
    )
    assert interior.point[0] < 0.0
    assert interior.classification == CLASS_INFEASIBLE
    assert not interior.feasible


def test_constant_control_reduces_to_untreated_at_zero():
    p = shared_params()
    treated = by_label(
        equilibria_constant_control(
            p, therapy_params(), 0.0, probe_nonhyperbolic=False
        )
    )
    plain = by_label(equilibria_uncontrolled(p, probe_nonhyperbolic=False))
    for label in ("extinction", "healthy_only", "cancer_only"):
        assert treated[label].point == pytest.approx(plain[label].point)
        for a, b in zip(treated[label].eigenvalues, plain[label].eigenvalues):
            assert a == pytest.approx(b)


def test_reported_points_are_equilibria():
    # residual check straight on the vector field, including the
    # infeasible interior point (the algebra holds there regardless)
    p = shared_params()
    ctl = therapy_params()
    field = controlled_field(p, ctl, lambda t: 0.7)
    tol = 1e-6 * 7e5 * 3.0
    for rep in equilibria_constant_control(p, ctl, 0.7, probe_nonhyperbolic=False):
        dh, dc = field(0.0, rep.point[0], rep.point[1])
        assert abs(dh) < tol
        assert abs(dc) < tol


def test_reported_eigenvalues_match_numeric_jacobian():
    p = shared_params()
    ctl = therapy_params()
    for rep in equilibria_constant_control(p, ctl, 0.7, probe_nonhyperbolic=False):
        jac = jacobian_controlled(p, ctl, rep.point, 0.7)
        ref = sorted(np.linalg.eigvals(jac), key=lambda z: (z.real, z.imag))
        scale = max(np.abs(jac).max(), 1e-12)
        for a, b in zip(rep.eigenvalues, ref):
            assert abs(a - b) / scale < 1e-10


def test_cancer_free_bifurcation_in_competition_strength():
    # the tumour-only state flips from saddle to sink once the bilinear
    # loss outweighs the cross-rate advantage; threshold at
    # gamma* = u (mu r_H - lam r_C) / (K (r_C - mu u))
    ctl = therapy_params()
    gamma_star = 0.7 * (0.189 * 3.0 - 0.025 * 0.6) / (7e5 * (0.6 - 0.189 * 0.7))
    for gamma, expected in [
        (gamma_star * 1.05, CLASS_SINK),
        (gamma_star * 0.95, CLASS_SADDLE),
    ]:
        reports = by_label(
            equilibria_constant_control(
                shared_params(competition_coeff=gamma),
                ctl,
                0.7,
                probe_nonhyperbolic=False,
            )
        )
        assert reports["cancer_only"].classification == expected
        assert all(reports["cancer_only"].conditions.values()) == (
            expected == CLASS_SINK
        )


def test_total_extinction_needs_inadmissible_intensity():
    # killing everything would require u > healthy_rate / healthy_kill_coeff
    # = 120, far beyond the admissible range, so even u = 1 leaves the
    # extinction point unstable
    reports = by_label(
        equilibria_constant_control(
            shared_params(), therapy_params(), 1.0, probe_nonhyperbolic=False
        )
    )
    assert reports["extinction"].classification == CLASS_SOURCE
    assert not any(reports["extinction"].conditions.values())


def test_extinction_sink_with_weak_tissue():
    # slow regrowth plus strong kill coefficients can stabilize (0,0)
    p = shared_params(healthy_rate=0.05, cancer_rate=0.03, competition_coeff=0.0)
    ctl = ControlParams(
        healthy_kill_coeff=0.5, cancer_kill_coeff=0.9, max_intensity=1.0
    )
    reports = by_label(
        equilibria_constant_control(p, ctl, 0.2, probe_nonhyperbolic=False)
    )
    ext = reports["extinction"]
    assert ext.classification == CLASS_SINK
    assert all(ext.conditions.values())
    # with the cancer-only capacity negative, that branch must be flagged
    assert reports["cancer_only"].classification == CLASS_INFEASIBLE
    traj = integrate(
        controlled_field(p, ctl, 0.2), State(100.0, 80.0), (0.0, 400.0)
    )
    final = traj.final_state()
    assert np.hypot(final.healthy, final.cancer) < 1.0


def test_interior_equilibrium_feasible_with_strong_competition():
    # a much larger gamma moves the interior point into the open quadrant
    p = shared_params(competition_coeff=1e-5)
    ctl = therapy_params()
    reports = by_label(
        equilibria_constant_control(p, ctl, 0.7, probe_nonhyperbolic=False)
    )
    interior = reports["interior"]
    assert interior.feasible
    assert interior.point[0] > 0.0 and interior.point[1] > 0.0
    assert interior.classification in (CLASS_SINK, CLASS_SADDLE, CLASS_SOURCE)
    field = controlled_field(p, ctl, lambda t: 0.7)
    dh, dc = field(0.0, interior.point[0], interior.point[1])
    assert abs(dh) < 1e-6 * 7e5 * 3.0
    assert abs(dc) < 1e-6 * 7e5 * 3.0


def test_interior_absent_without_competition():
    reports = by_label(
        equilibria_constant_control(
            shared_params(competition_coeff=0.0),
            therapy_params(),
            0.7,
            probe_nonhyperbolic=False,
        )
    )
    assert "interior" not in reports


def test_intensity_outside_bounds_rejected():
    with pytest.raises(ConfigError):
        equilibria_constant_control(shared_params(), therapy_params(), 1.5)
