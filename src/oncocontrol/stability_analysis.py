"""Equilibria and linear stability of the two-population models.

For each dynamical variant the equilibrium points are written down in
closed form together with their Jacobian eigenvalues and the parameter
inequalities that decide stability.  Condition strings are kept in
cross-multiplied form so they stay meaningful when a coefficient is zero
(no division by healthy_kill_coeff and friends).

Equilibria with a zero eigenvalue are genuinely non-hyperbolic here (the
boundary point with the full niche occupied always has one), so linear
analysis is silent about them.  For those points a separate simulation
probe perturbs the state into the open quadrant, integrates for a long
horizon and reports whether the flow escapes, returns, or stalls.

Every Jacobian comes from the single definition of the system,
competition_dynamics.competition_equations.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .competition_dynamics import (
    CompetitionParams,
    ControlParams,
    State,
    coexistence_equations,
    coexistence_field,
    competition_field,
    controlled_field,
    equations_for,
    integrate,
)
from .errors import ConfigError

CLASS_SINK = "stable sink"
CLASS_SOURCE = "unstable source"
CLASS_SADDLE = "saddle"
CLASS_NONHYPERBOLIC = "non-hyperbolic"
CLASS_INFEASIBLE = "not biologically feasible"


@dataclass(frozen=True)
class EquilibriumReport:
    """One equilibrium with its linearisation and stability conditions.

    conditions maps human-readable inequality strings to their truth value
    at the given parameters; for hyperbolic feasible points, all True
    means the point is a stable sink.  nonlinear_verdict is filled only
    for non-hyperbolic points ("stable", "unstable" or "neutral").
    """

    label: str
    point: tuple[float, float]
    eigenvalues: tuple[complex, complex]
    classification: str
    conditions: dict[str, bool] = field(default_factory=dict)
    feasible: bool = True
    nonlinear_verdict: str | None = None


def _coords(state) -> tuple[float, float]:
    if isinstance(state, State):
        return state.healthy, state.cancer
    h, c = state
    return float(h), float(c)


def _ordered(pair) -> tuple[complex, complex]:
    return tuple(sorted(pair, key=lambda z: (z.real, z.imag)))


def eig2(matrix) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 matrix from trace and determinant.

    The matrix is scaled by the power of two 2^-e that brings its largest
    entry into [0.5, 1), so the squared trace cannot overflow, and the
    eigenvalues are scaled back by 2^e.  Both scalings are exact unless
    an entry drops below the normal range; an eigenvalue past the float
    range raises OverflowError.
    Returned sorted by real part, then imaginary part, so callers get a
    deterministic order.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (2, 2):
        raise ConfigError("eig2 expects a 2x2 matrix")
    e = math.frexp(float(np.max(np.abs(m))))[1]
    s = np.ldexp(m, -e)
    tr = s[0, 0] + s[1, 1]
    det = s[0, 0] * s[1, 1] - s[0, 1] * s[1, 0]
    disc = cmath.sqrt(tr * tr - 4.0 * det)
    return _ordered(
        complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))
        for z in (0.5 * (tr - disc), 0.5 * (tr + disc))
    )


def classify(eigenvalues: tuple[complex, complex], zero_tol: float = 0.0) -> str:
    """Linear classification from the real parts of the eigenvalues."""
    re = [z.real for z in eigenvalues]
    if any(abs(r) <= zero_tol for r in re):
        return CLASS_NONHYPERBOLIC
    if all(r < 0.0 for r in re):
        return CLASS_SINK
    if all(r > 0.0 for r in re):
        return CLASS_SOURCE
    return CLASS_SADDLE


# ---------------------------------------------------------------------------
# Jacobians
# ---------------------------------------------------------------------------

def jacobian_coexistence(params: CompetitionParams, state) -> np.ndarray:
    return np.reshape(coexistence_equations(params)[1](*_coords(state), 0.0), (2, 2))


def jacobian_competition(params: CompetitionParams, state) -> np.ndarray:
    return np.reshape(equations_for(params)[1](*_coords(state), 0.0), (2, 2))


def jacobian_controlled(
    params: CompetitionParams,
    control: ControlParams,
    state,
    intensity: float,
) -> np.ndarray:
    """Jacobian of the therapy system at fixed intensity u."""
    jacobian = equations_for(params, control)[1]
    return np.reshape(jacobian(*_coords(state), intensity), (2, 2))


# ---------------------------------------------------------------------------
# nonlinear probe for non-hyperbolic points
# ---------------------------------------------------------------------------

def _nonlinear_verdict(
    dyn_field,
    point: tuple[float, float],
    scale: float,
    horizon: float = 1500.0,
    offset: float = 0.01,
) -> str:
    """Perturb into the open quadrant, integrate, compare distances.

    The drift away from these points is quadratically slow, hence the
    long default horizon and the percent-level offset: smaller nudges
    barely move within any reasonable simulation time.
    """
    h0, c0 = point
    delta = offset * scale
    start = State(max(h0 - delta, 0.0), c0 + delta)
    d0 = float(np.hypot(start.healthy - h0, start.cancer - c0))
    if d0 == 0.0:
        return "neutral"
    traj = integrate(dyn_field, start, (0.0, horizon), t_eval=[horizon])
    hf, cf = traj.states[-1]
    d1 = float(np.hypot(hf - h0, cf - c0))
    ratio = d1 / d0
    if ratio > 1.001:
        return "unstable"
    if ratio < 0.999:
        return "stable"
    return "neutral"


# ---------------------------------------------------------------------------
# equilibrium enumeration
# ---------------------------------------------------------------------------

def _reporter(dyn_field, scale: float, probe: bool):
    """Report builder for one system: classifies each point, orders its
    eigenvalues as eig2 does, and probes non-hyperbolic points when asked."""

    def report(
        label: str,
        point: tuple[float, float],
        eigenvalues: tuple[complex, complex],
        conditions: dict[str, bool],
    ) -> EquilibriumReport:
        feasible = point[0] >= 0.0 and point[1] >= 0.0
        classification = classify(eigenvalues) if feasible else CLASS_INFEASIBLE
        verdict = None
        if probe and classification == CLASS_NONHYPERBOLIC:
            verdict = _nonlinear_verdict(dyn_field, point, scale)
        return EquilibriumReport(
            label=label,
            point=point,
            eigenvalues=_ordered(eigenvalues),
            classification=classification,
            conditions=conditions,
            feasible=feasible,
            nonlinear_verdict=verdict,
        )

    return report


def equilibria_uncontrolled(
    params: CompetitionParams,
    competitive: bool = True,
    probe_nonhyperbolic: bool = True,
) -> list[EquilibriumReport]:
    """Equilibria of the untreated dynamics.

    competitive selects the shared-capacity system with the bilinear
    competition loss; otherwise the per-capacity coexistence system is
    analysed (which then requires healthy_capacity and cancer_capacity).
    """
    rh, rc = params.healthy_rate, params.cancer_rate

    if competitive:
        k = params.shared_capacity
        gamma = params.competition_coeff
        report = _reporter(competition_field(params), k, probe_nonhyperbolic)
        return [
            report("extinction", (0.0, 0.0), (complex(rc), complex(rh)), {}),
            report("healthy_only", (k, 0.0), (complex(-rh), complex(0.0)), {}),
            report(
                "cancer_only",
                (0.0, k),
                (complex(-gamma * k), complex(-rc)),
                {"competition_coeff > 0": gamma > 0.0},
            ),
        ]

    dyn_field = coexistence_field(params)   # checks both capacities are given
    kh, kc = params.healthy_capacity, params.cancer_capacity
    report = _reporter(dyn_field, max(kh, kc), probe_nonhyperbolic)
    return [
        report("extinction", (0.0, 0.0), (complex(rc), complex(rh)), {}),
        report(
            "healthy_only",
            (kh, 0.0),
            (complex(-rh), complex(rc * (1.0 - kh / kc))),
            {"healthy_capacity > cancer_capacity": kh > kc},
        ),
        report(
            "cancer_only",
            (0.0, kc),
            (complex(-rc), complex(rh * (1.0 - kc / kh))),
            {"cancer_capacity > healthy_capacity": kc > kh},
        ),
    ]


def equilibria_constant_control(
    params: CompetitionParams,
    control: ControlParams,
    intensity: float,
    probe_nonhyperbolic: bool = True,
) -> list[EquilibriumReport]:
    """Equilibria of the therapy system at constant intensity u.

    Returns extinction, the two boundary points, and (when the
    competition coefficient is positive) the interior point, which is
    flagged infeasible when a coordinate is negative.
    """
    rh, rc = params.healthy_rate, params.cancer_rate
    k = params.shared_capacity
    gamma = params.competition_coeff
    lam = control.healthy_kill_coeff
    mu = control.cancer_kill_coeff
    u = float(intensity)
    report = _reporter(controlled_field(params, control, u), k, probe_nonhyperbolic)

    reports = [
        report(
            "extinction",
            (0.0, 0.0),
            (complex(rh - lam * u), complex(rc - mu * u)),
            {
                "healthy_kill_coeff * u > healthy_rate": lam * u > rh,
                "cancer_kill_coeff * u > cancer_rate": mu * u > rc,
            },
        ),
        # healthy population saturating at reduced capacity, no tumour
        report(
            "healthy_only",
            (k * (1.0 - lam * u / rh), 0.0),
            (complex(lam * u - rh), complex(u * (lam * rc - mu * rh) / rh)),
            {
                "healthy_kill_coeff * u < healthy_rate": lam * u < rh,
                "cancer_rate * healthy_kill_coeff < healthy_rate * cancer_kill_coeff":
                    rc * lam < rh * mu,
            },
        ),
        # tumour saturating at reduced capacity, healthy tissue gone
        report(
            "cancer_only",
            (0.0, k * (1.0 - mu * u / rc)),
            (
                complex(u * (mu * rh - lam * rc) / rc - gamma * k * (1.0 - mu * u / rc)),
                complex(mu * u - rc),
            ),
            {
                "cancer_kill_coeff * u < cancer_rate": mu * u < rc,
                "competition_coeff * shared_capacity * (cancer_rate - cancer_kill_coeff * u)"
                " > u * (cancer_kill_coeff * healthy_rate - healthy_kill_coeff * cancer_rate)":
                    gamma * k * (rc - mu * u) > u * (mu * rh - lam * rc),
            },
        ),
    ]

    if gamma > 0.0:
        c_int = u * (mu * rh - lam * rc) / (gamma * rc)
        h_int = k * (1.0 - mu * u / rc) - c_int
        point = (h_int, c_int)
        reports.append(
            report(
                "interior",
                point,
                eig2(jacobian_controlled(params, control, point, u)),
                {
                    "interior_healthy >= 0": h_int >= 0.0,
                    "interior_cancer >= 0": c_int >= 0.0,
                },
            )
        )

    return reports
