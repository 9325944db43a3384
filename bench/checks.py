"""Output checks made apart from the program.

Every check reads the files the program wrote and compares them with the
benchmark's own model: its own right-hand side and cost, integrated with
scipy's DOP853 at tight tolerances, finite-difference Jacobians, and the
closed-form LQ survival factor.  Nothing here imports oncocontrol.

check_item returns a list of problems; an empty list means the item's
outputs are correct.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

# the program's documented default cost model: healthy deficit over K,
# tumour burden over 1e-4*K, unit control weight
CANCER_SCALE_SHARE = 1e-4
CONTROL_WEIGHT = 1.0
CONSTANT_PROTOCOL = 0.7      # every optimised schedule must cost less

# the objective is a trapezoid sum over RK4 nodes; against the exact
# integral its relative error was at most 1.2e-4 on the plan grid (step
# 0.125 d) and 5.8e-4 on the cohort grid (step 0.25 d) on the seeds tried
OBJECTIVE_RTOL = 5e-3
SOLVER_AGREEMENT = 1e-2      # indirect vs direct objective
HAMILTONIAN_ATOL = 1e-4      # FBSM stops on an update below 1e-6 x relaxation
# the program integrates at rtol 1e-8, atol 1e-6 cells; its largest gap to
# DOP853 was 0.15 cells (2e-7 of K) on the runs tried
TRAJECTORY_ATOL_SHARE = 1e-5
ROOT_RTOL = 1e-12            # of max rate x K; the closed forms hit 2e-16
EIGEN_ATOL = 1e-10           # the closed forms hit 2e-13
LQ_RTOL = 1e-12              # the session product hit 5e-15
DOSE_RTOL = 1e-12

_NONFINITE = re.compile(r"(?<![A-Za-z_])(nan|inf|infinity)(?![A-Za-z_])", re.IGNORECASE)


# ---------------------------------------------------------------------------
# the benchmark's own model
# ---------------------------------------------------------------------------

def field(dyn: dict, lam: float = 0.0, mu: float = 0.0):
    """Controlled competition right-hand side over arrays of (h, c)."""
    rh, rc = dyn["healthy_rate"], dyn["cancer_rate"]
    k, gamma = dyn["shared_capacity"], dyn.get("competition_coeff", 0.0)

    def f(h, c, u=0.0):
        crowd = 1.0 - (h + c) / k
        return (
            rh * crowd * h - gamma * h * c - lam * u * h,
            rc * crowd * c - mu * u * c,
        )

    return f


def exact_objectives(dyn: dict, ctl: dict, starts: np.ndarray, schedules: np.ndarray,
                     horizon: float) -> np.ndarray:
    """Cost of each piecewise-constant schedule from its start, by DOP853.

    starts has shape (B, 2), schedules (B, n) on the uniform grid of n
    intervals; the integration restarts at every interval edge so no
    step straddles a jump of the control.
    """
    k = dyn["shared_capacity"]
    f = field(dyn, ctl["healthy_kill_coeff"], ctl["cancer_kill_coeff"])
    b, n = schedules.shape
    edges = np.linspace(0.0, horizon, n + 1)
    y = np.concatenate([starts[:, 0], starts[:, 1], np.zeros(b)])
    for i in range(n):
        u = schedules[:, i]

        def rhs(t, y, u=u):
            h, c = y[:b], y[b : 2 * b]
            dh, dc = f(h, c, u)
            cost = ((h - k) / k) ** 2 + (c / (CANCER_SCALE_SHARE * k)) ** 2
            return np.concatenate([dh, dc, cost + CONTROL_WEIGHT * u * u])

        sol = solve_ivp(rhs, (edges[i], edges[i + 1]), y, method="DOP853",
                        rtol=1e-11, atol=1e-9)
        y = sol.y[:, -1]
    return y[2 * b :]


def reference_paths(dyn: dict, starts: np.ndarray, times: np.ndarray,
                    lam: float = 0.0, mu: float = 0.0, u: float = 0.0) -> np.ndarray:
    """DOP853 solutions from each start at the given times, shape (T, B, 2)."""
    f = field(dyn, lam, mu)
    b = len(starts)

    def rhs(t, y):
        dh, dc = f(y[:b], y[b:], u)
        return np.concatenate([dh, dc])

    sol = solve_ivp(rhs, (times[0], times[-1]), np.concatenate([starts[:, 0], starts[:, 1]]),
                    method="DOP853", t_eval=times, rtol=1e-11, atol=1e-9)
    return np.stack([sol.y[:b].T, sol.y[b:].T], axis=2)


def fd_jacobian(f, h: float, c: float, u: float, step: float) -> np.ndarray:
    """Central differences; exact up to rounding for a quadratic field."""
    jac = np.empty((2, 2))
    for col, (dh, dc) in enumerate(((step, 0.0), (0.0, step))):
        plus = f(h + dh, c + dc, u)
        minus = f(h - dh, c - dc, u)
        jac[:, col] = [(plus[0] - minus[0]) / (2 * step), (plus[1] - minus[1]) / (2 * step)]
    return jac


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def column(rows: list[list[str]], index: int) -> np.ndarray:
    return np.array([float(r[index]) for r in rows])


def nonfinite_files(outdir: Path) -> list[str]:
    return [
        f"{p.name} holds a non-finite number"
        for p in sorted(outdir.iterdir())
        if _NONFINITE.search(p.read_text())
    ]


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# per kind
# ---------------------------------------------------------------------------

def _check_schedules(p: dict, starts: np.ndarray, schedules: np.ndarray,
                     reported: list[float], names: list[str]) -> list[str]:
    """Reported objectives against DOP853, and against the fixed protocols."""
    n = schedules.shape[1]
    b = len(starts)
    lanes = np.concatenate([
        schedules,
        np.full((b, n), CONSTANT_PROTOCOL),
        np.zeros((b, n)),
    ])
    exact = exact_objectives(p["dynamics"], p["control"], np.concatenate([starts] * 3),
                             lanes, p["horizon"])
    problems = []
    for j, name in enumerate(names):
        ours, constant, untreated = exact[j], exact[b + j], exact[2 * b + j]
        if _rel_gap(reported[j], ours) > OBJECTIVE_RTOL:
            problems.append(f"{name}: objective {reported[j]:.8g}, DOP853 gives {ours:.8g}")
        if not ours < constant:
            problems.append(f"{name}: costs {ours:.6g}, the constant protocol {constant:.6g}")
        if not ours < untreated:
            problems.append(f"{name}: costs {ours:.6g}, no treatment costs {untreated:.6g}")
    return problems


def _schedule_from_nodes(rows: list[list[str]], refine: int, n: int) -> np.ndarray:
    return np.array([float(rows[i * refine][3]) for i in range(n)])


def check_ocp(p: dict, out: Path) -> list[str]:
    n, refine = p["n_intervals"], p["refine"]
    payload = json.loads((out / "ocp.json").read_text())
    sols = payload["solutions"]
    problems = []
    schedules, reported, names = [], [], []
    for key, stem in (("indirect", "ocp_indirect.csv"), ("direct", "ocp_direct.csv")):
        _, rows = read_csv(out / stem)
        if len(rows) != n * refine + 1:
            return [f"{stem}: {len(rows)} rows, expected {n * refine + 1}"]
        if not sols[key]["converged"]:
            problems.append(f"{key} solver did not converge")
        states = np.array([[float(r[1]), float(r[2])] for r in rows])
        if np.any(states < 0.0):
            problems.append(f"{stem}: negative cell count")
        schedules.append(_schedule_from_nodes(rows, refine, n))
        reported.append(sols[key]["objective"])
        names.append(key)
        if key == "indirect":
            problems += _check_hamiltonian(p, rows, schedules[-1])
    j_ind, j_dir = reported
    if _rel_gap(j_ind, j_dir) > SOLVER_AGREEMENT:
        problems.append(f"solvers disagree: indirect {j_ind:.8g}, direct {j_dir:.8g}")
    start = np.array([[p["initial"]["healthy"], p["initial"]["cancer"]]] * 2)
    problems += _check_schedules(p, start, np.array(schedules), reported, names)
    return problems


def _check_hamiltonian(p: dict, rows: list[list[str]], schedule: np.ndarray) -> list[str]:
    """The FBSM control is the clamped minimiser of the Hamiltonian."""
    refine = p["refine"]
    lam = p["control"]["healthy_kill_coeff"]
    mu = p["control"]["cancer_kill_coeff"]
    u_max = p["control"].get("max_intensity", 1.0)
    worst = 0.0
    for i, u in enumerate(schedule):
        r = rows[i * refine + refine // 2]
        h, c, ph, pc = float(r[1]), float(r[2]), float(r[4]), float(r[5])
        u_star = min(max((ph * lam * h + pc * mu * c) / (2.0 * CONTROL_WEIGHT), 0.0), u_max)
        worst = max(worst, abs(u_star - u))
    if worst > HAMILTONIAN_ATOL:
        return [f"indirect control is {worst:.3g} from the Hamiltonian minimiser"]
    return []


def check_dose_report(p: dict, out: Path) -> list[str]:
    payload = json.loads((out / "dose_report.json").read_text())
    _, rows = read_csv(out / "dose_report.csv")
    labels = p["labels"]
    width = p["horizon"] / p["n_intervals"]
    problems = []
    schedules, reported = [], []
    for label in labels:
        mine = [r for r in rows if r[0] == label]
        plan = [r for r in mine if r[1] != "constant"]
        const = [r for r in mine if r[1] == "constant"]
        if len(plan) != p["n_intervals"] or len(const) != 1:
            return [f"{label}: {len(plan)} schedule rows and {len(const)} constant rows"]
        u = column(plan, 4)
        doses = column(plan, 5)
        total = float(plan[0][6])
        if np.any(np.abs(doses - u * width) > DOSE_RTOL * width):
            problems.append(f"{label}: an interval dose is not intensity x width")
        if abs(float(np.sum(doses)) - total) > DOSE_RTOL * p["n_intervals"] * max(total, 1.0):
            problems.append(f"{label}: interval doses sum to {np.sum(doses)!r}, total {total!r}")
        c_int, c_dose, c_total = (float(const[0][k]) for k in (4, 5, 6))
        expected = p["constant_intensity"] * p["horizon"]
        if c_int != p["constant_intensity"] or _rel_gap(c_dose, expected) > DOSE_RTOL \
                or _rel_gap(c_total, expected) > DOSE_RTOL:
            problems.append(f"{label}: constant protocol totals {c_total!r}, expected {expected!r}")
        if _rel_gap(payload["totals"][label][plan[0][1]], total) > DOSE_RTOL:
            problems.append(f"{label}: JSON total differs from the CSV")
        sol = payload["solutions"][label]
        if not sol["converged"]:
            problems.append(f"{label}: did not converge")
        schedules.append(u)
        reported.append(sol["objective"])
    starts = np.array([[s["healthy"], s["cancer"]] for s in p["initials"]])
    problems += _check_schedules(p, starts, np.array(schedules), reported, labels)
    return problems


def _check_paths(dyn: dict, starts: np.ndarray, times: np.ndarray, got: np.ndarray,
                 what: str, lam: float = 0.0, mu: float = 0.0, u: float = 0.0) -> list[str]:
    """got has shape (T, B, 2): the program's samples from each start."""
    if np.any(got < 0.0):
        return [f"{what}: negative cell count"]
    ref = reference_paths(dyn, starts, times, lam, mu, u)
    gap = float(np.max(np.abs(got - ref)))
    if gap > TRAJECTORY_ATOL_SHARE * dyn["shared_capacity"]:
        return [f"{what}: {gap:.4g} cells from DOP853"]
    return []


def _control(p: dict) -> tuple[float, float, float]:
    if p.get("system", "competition") != "controlled":
        return 0.0, 0.0, 0.0
    ctl = p["control"]
    return ctl["healthy_kill_coeff"], ctl["cancer_kill_coeff"], float(p["intensity"])


def _check_equilibria(dyn: dict, reports: list[dict], lam: float, mu: float, u: float,
                      what: str) -> list[str]:
    """Each point is a root of the field; its eigenvalues are the FD ones."""
    f = field(dyn, lam, mu)
    k = dyn["shared_capacity"]
    scale = max(dyn["healthy_rate"], dyn["cancer_rate"]) * k
    problems = []
    for rep in reports:
        h, c = rep["point"]["healthy"], rep["point"]["cancer"]
        residual = max(abs(v) for v in f(h, c, u))
        if residual > ROOT_RTOL * scale:
            problems.append(f"{what} {rep['label']}: field is {residual:.3g} there")
        eig = np.linalg.eigvals(fd_jacobian(f, h, c, u, 1e-3 * k))
        ours = [complex(z) for z in eig]
        ours.sort(key=lambda z: (round(z.real, 9), z.imag))
        theirs = [complex(e["real"], e["imag"]) for e in rep["eigenvalues"]]
        theirs.sort(key=lambda z: (round(z.real, 9), z.imag))
        gap = max(abs(a - b) for a, b in zip(ours, theirs))
        if gap > EIGEN_ATOL * max(1.0, max(abs(z) for z in ours)):
            problems.append(f"{what} {rep['label']}: eigenvalues {theirs}, FD gives {ours}")
    return problems


def check_phase_portrait(p: dict, out: Path) -> list[str]:
    grid = p["grid"]
    h_values = np.linspace(grid["healthy"]["min"], grid["healthy"]["max"], grid["healthy"]["count"])
    c_values = np.linspace(grid["cancer"]["min"], grid["cancer"]["max"], grid["cancer"]["count"])
    starts = np.array([(h, c) for h in h_values for c in c_values])
    times = np.linspace(0.0, p["t_end"], p["samples"])
    _, rows = read_csv(out / "phase_portrait.csv")
    if len(rows) != len(starts) * len(times):
        return [f"phase_portrait.csv: {len(rows)} rows"]
    got = np.array([[float(r[2]), float(r[3])] for r in rows])
    got = got.reshape(len(starts), len(times), 2).transpose(1, 0, 2)
    if np.any(column(rows, 1).reshape(len(starts), -1) != times):
        return ["phase_portrait.csv: sample times differ from the request"]
    lam, mu, u = _control(p)
    problems = _check_paths(p["dynamics"], starts, times, got, "portrait", lam, mu, u)
    payload = json.loads((out / "phase_portrait.json").read_text())
    problems += _check_equilibria(p["dynamics"], payload["equilibria"], lam, mu, u, "portrait")
    return problems


def _check_trajectory_csv(dyn: dict, path: Path, initial: dict, t_end: float, samples: int,
                          lam: float = 0.0, mu: float = 0.0, u: float = 0.0) -> list[str]:
    _, rows = read_csv(path)
    times = np.linspace(0.0, t_end, samples)
    if len(rows) != samples or np.any(column(rows, 0) != times):
        return [f"{path.name}: sample times differ from the request"]
    got = np.array([[float(r[1]), float(r[2])] for r in rows])[:, None, :]
    start = np.array([[initial["healthy"], initial["cancer"]]])
    return _check_paths(dyn, start, times, got, path.name, lam, mu, u)


def check_competition(p: dict, out: Path) -> list[str]:
    lam, mu, u = _control(p)
    return _check_trajectory_csv(p["dynamics"], out / "competition.csv", p["initial"],
                                 p["t_end"], p["samples"], lam, mu, u)


def check_equilibria(p: dict, out: Path) -> list[str]:
    payload = json.loads((out / "equilibria.json").read_text())
    return _check_equilibria(p["dynamics"], payload["equilibria"], 0.0, 0.0, 0.0, "equilibria")


def check_constant_control(p: dict, out: Path) -> list[str]:
    ctl = p["control"]
    lam, mu, u = ctl["healthy_kill_coeff"], ctl["cancer_kill_coeff"], p["intensity"]
    payload = json.loads((out / "constant_control.json").read_text())
    problems = _check_equilibria(p["dynamics"], payload["equilibria"], lam, mu, u, "constant")
    sim = p["simulate"]
    problems += _check_trajectory_csv(p["dynamics"], out / "constant_control_trajectory.csv",
                                      sim["initial"], sim["t_end"], sim["samples"], lam, mu, u)
    return problems


def check_fractionated(p: dict, out: Path) -> list[str]:
    """Across each whole session both populations fall by the LQ factor."""
    plan = p["plan"]
    dose = plan["session_dose"]
    duration = plan["session_duration"]
    threshold = plan.get("eradication_threshold")
    course_end = plan["session_starts"][-1] + duration
    _, rows = read_csv(out / "fractionated.csv")
    times = column(rows, 0)
    states = np.array([[float(r[1]), float(r[2])] for r in rows])
    if np.any(states < 0.0):
        return ["fractionated.csv: negative cell count"]
    factors = [
        math.exp(-(p[name]["alpha"] * dose + p[name]["beta"] * dose * dose))
        for name in ("healthy_response", "cancer_response")
    ]
    problems = []
    for s in plan["session_starts"]:
        i0 = int(np.argmin(np.abs(times - s)))
        i1 = int(np.argmin(np.abs(times - (s + duration))))
        if abs(times[i0] - s) > 1e-9 or abs(times[i1] - s - duration) > 1e-9:
            problems.append(f"session at {s}: its edges are not samples")
            continue
        for col, factor in enumerate(factors):
            before, after = states[i0, col], states[i1, col]
            eradicated = (
                col == 1 and threshold is not None and after == 0.0
                and s + duration >= course_end - 1e-9 and before * factor < threshold
            )
            if not eradicated and abs(after - before * factor) > LQ_RTOL * before:
                problems.append(
                    f"session at {s}: {('healthy', 'cancer')[col]} fell by "
                    f"{float(after / before)!r}, LQ gives {factor!r}"
                )
    payload = json.loads((out / "fractionated.json").read_text())
    n = len(plan["session_starts"])
    if payload["sessions"] != n or _rel_gap(payload["total_dose"], n * dose) > 1e-9:
        problems.append(f"reported {payload['total_dose']!r} Gy over {payload['sessions']} sessions")
    return problems


CHECKS = {
    "ocp": check_ocp,
    "dose-report": check_dose_report,
    "phase-portrait": check_phase_portrait,
    "competition": check_competition,
    "equilibria": check_equilibria,
    "constant-control": check_constant_control,
    "fractionated": check_fractionated,
}


def check_item(kind: str, parameters: dict, out: Path) -> list[str]:
    problems = nonfinite_files(out)
    try:
        problems += CHECKS[kind](parameters, out)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
