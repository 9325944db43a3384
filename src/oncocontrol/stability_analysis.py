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

The competition and therapy Jacobians come from the single definition of
the system, competition_dynamics.competition_equations.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .competition_dynamics import (
    CompetitionParams,
    ControlParams,
    State,
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


def eig2(matrix) -> tuple[complex, complex]:
    """Eigenvalues of a 2x2 matrix from trace and determinant.

    Returned sorted by real part, then imaginary part, so callers get a
    deterministic order.
    """
    m = np.asarray(matrix, dtype=float)
    if m.shape != (2, 2):
        raise ConfigError("eig2 expects a 2x2 matrix")
    tr = m[0, 0] + m[1, 1]
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    disc = cmath.sqrt(tr * tr - 4.0 * det)
    pair = (0.5 * (tr - disc), 0.5 * (tr + disc))
    return tuple(sorted(pair, key=lambda z: (z.real, z.imag)))


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
    if params.healthy_capacity is None or params.cancer_capacity is None:
        raise ConfigError("coexistence Jacobian needs both capacities")
    h, c = _coords(state)
    rh, rc = params.healthy_rate, params.cancer_rate
    kh, kc = params.healthy_capacity, params.cancer_capacity
    return np.array(
        [
            [rh * (1.0 - (2.0 * h + c) / kh), -rh * h / kh],
            [-rc * c / kc, rc * (1.0 - (h + 2.0 * c) / kc)],
        ]
    )


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

def _report(
    label: str,
    point: tuple[float, float],
    eigenvalues: tuple[complex, complex],
    conditions: dict[str, bool],
    dyn_field=None,
    scale: float = 1.0,
    probe: bool = True,
) -> EquilibriumReport:
    feasible = point[0] >= 0.0 and point[1] >= 0.0
    if not feasible:
        classification = CLASS_INFEASIBLE
    else:
        classification = classify(eigenvalues)
    verdict = None
    if probe and classification == CLASS_NONHYPERBOLIC and dyn_field is not None:
        verdict = _nonlinear_verdict(dyn_field, point, scale)
    return EquilibriumReport(
        label=label,
        point=point,
        eigenvalues=eigenvalues,
        classification=classification,
        conditions=conditions,
        feasible=feasible,
        nonlinear_verdict=verdict,
    )


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
        dyn = competition_field(params)
        return [
            _report(
                "extinction",
                (0.0, 0.0),
                (complex(rc), complex(rh)) if rc < rh else (complex(rh), complex(rc)),
                {},
                dyn,
                k,
                probe_nonhyperbolic,
            ),
            _report(
                "healthy_only",
                (k, 0.0),
                (complex(-rh), complex(0.0)),
                {},
                dyn,
                k,
                probe_nonhyperbolic,
            ),
            _report(
                "cancer_only",
                (0.0, k),
                tuple(sorted((complex(-gamma * k), complex(-rc)), key=lambda z: z.real)),
                {"competition_coeff > 0": gamma > 0.0},
                dyn,
                k,
                probe_nonhyperbolic,
            ),
        ]

    if params.healthy_capacity is None or params.cancer_capacity is None:
        raise ConfigError("coexistence analysis needs healthy_capacity and cancer_capacity")
    kh, kc = params.healthy_capacity, params.cancer_capacity
    dyn = coexistence_field(params)
    scale = max(kh, kc)
    return [
        _report(
            "extinction",
            (0.0, 0.0),
            (complex(rc), complex(rh)) if rc < rh else (complex(rh), complex(rc)),
            {},
            dyn,
            scale,
            probe_nonhyperbolic,
        ),
        _report(
            "healthy_only",
            (kh, 0.0),
            tuple(
                sorted(
                    (complex(-rh), complex(rc * (1.0 - kh / kc))),
                    key=lambda z: z.real,
                )
            ),
            {"healthy_capacity > cancer_capacity": kh > kc},
            dyn,
            scale,
            probe_nonhyperbolic,
        ),
        _report(
            "cancer_only",
            (0.0, kc),
            tuple(
                sorted(
                    (complex(-rc), complex(rh * (1.0 - kc / kh))),
                    key=lambda z: z.real,
                )
            ),
            {"cancer_capacity > healthy_capacity": kc > kh},
            dyn,
            scale,
            probe_nonhyperbolic,
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
    if not (0.0 <= intensity <= control.max_intensity):
        raise ConfigError(
            f"intensity {intensity:g} outside [0, {control.max_intensity:g}]"
        )
    rh, rc = params.healthy_rate, params.cancer_rate
    k = params.shared_capacity
    gamma = params.competition_coeff
    lam = control.healthy_kill_coeff
    mu = control.cancer_kill_coeff
    u = float(intensity)
    dyn = controlled_field(params, control, u)

    reports: list[EquilibriumReport] = []

    reports.append(
        _report(
            "extinction",
            (0.0, 0.0),
            tuple(sorted((complex(rh - lam * u), complex(rc - mu * u)), key=lambda z: z.real)),
            {
                "healthy_kill_coeff * u > healthy_rate": lam * u > rh,
                "cancer_kill_coeff * u > cancer_rate": mu * u > rc,
            },
            dyn,
            k,
            probe_nonhyperbolic,
        )
    )

    # healthy population saturating at reduced capacity, no tumour
    h_star = k * (1.0 - lam * u / rh)
    reports.append(
        _report(
            "healthy_only",
            (h_star, 0.0),
            tuple(
                sorted(
                    (
                        complex(lam * u - rh),
                        complex(u * (lam * rc - mu * rh) / rh),
                    ),
                    key=lambda z: z.real,
                )
            ),
            {
                "healthy_kill_coeff * u < healthy_rate": lam * u < rh,
                "cancer_rate * healthy_kill_coeff < healthy_rate * cancer_kill_coeff":
                    rc * lam < rh * mu,
            },
            dyn,
            k,
            probe_nonhyperbolic,
        )
    )

    # tumour saturating at reduced capacity, healthy tissue gone
    c_star = k * (1.0 - mu * u / rc)
    reports.append(
        _report(
            "cancer_only",
            (0.0, c_star),
            tuple(
                sorted(
                    (
                        complex(
                            u * (mu * rh - lam * rc) / rc
                            - gamma * k * (1.0 - mu * u / rc)
                        ),
                        complex(mu * u - rc),
                    ),
                    key=lambda z: z.real,
                )
            ),
            {
                "cancer_kill_coeff * u < cancer_rate": mu * u < rc,
                "competition_coeff * shared_capacity * (cancer_rate - cancer_kill_coeff * u)"
                " > u * (cancer_kill_coeff * healthy_rate - healthy_kill_coeff * cancer_rate)":
                    gamma * k * (rc - mu * u) > u * (mu * rh - lam * rc),
            },
            dyn,
            k,
            probe_nonhyperbolic,
        )
    )

    if gamma > 0.0:
        c_int = u * (mu * rh - lam * rc) / (gamma * rc)
        h_int = k * (1.0 - mu * u / rc) - c_int
        point = (h_int, c_int)
        eigs = eig2(jacobian_controlled(params, control, point, u))
        reports.append(
            _report(
                "interior",
                point,
                eigs,
                {
                    "interior_healthy >= 0": h_int >= 0.0,
                    "interior_cancer >= 0": c_int >= 0.0,
                },
                dyn,
                k,
                probe_nonhyperbolic,
            )
        )

    return reports
