"""Seeded inputs of the three workloads.

Every input is built here from the workload seed and a round index; the
program only ever sees the generated scenario configs.  A round is a fixed
list of items (one `run_scenario` call each), and a run always executes
whole rounds, so the share of each item type is the same in every run.

Initial states are drawn by stratified sampling: the admissible plane
(cancer 5-50 % of the shared capacity K, healthy 30-95 % of what cancer
leaves) is cut into equal cells and each cell gets one uniformly jittered
point.  FBSM sweep counts depend on the region of the plane, so covering
every region in every round keeps the work per round steady across seeds.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

NOMINAL_DYNAMICS = {
    "healthy_rate": 3.0,
    "cancer_rate": 0.6,
    "shared_capacity": 7.0e5,
    "competition_coeff": 5.5e-8,
}
NOMINAL_CONTROL = {"healthy_kill_coeff": 0.025, "cancer_kill_coeff": 0.189}
K = NOMINAL_DYNAMICS["shared_capacity"]

# the shipped ocp.json and dose_report.json grids
PLAN_GRID = {"horizon": 100.0, "n_intervals": 200, "refine": 4}
COHORT_GRID = {"horizon": 100.0, "n_intervals": 100, "refine": 4}
CONSTANT_INTENSITY = 0.7

PLAN_STRATA = (3, 2)      # cancer share x healthy share cells per round
COHORT_STRATA = (8, 4)    # cells per round, split over two items
# FBSM sweeps jump by up to 2x within a cell; drawing cohort starts from
# the central half of each cell narrowed the sweeps of a round from
# 2080-2510 to 2158-2486 over seeds 101-110
COHORT_JITTER = 0.5

# healthy_rate 50 with 10 intervals x refine 2 puts the RK4 step x rate at
# 250, far past RK4's stability limit of about 2.8
STIFF_PATIENT = {
    "dynamics": {**NOMINAL_DYNAMICS, "healthy_rate": 50.0},
    "control": NOMINAL_CONTROL,
    "initial": {"healthy": 6.3e5, "cancer": 7.0e4},
    "horizon": 100.0,
    "n_intervals": 10,
    "refine": 2,
    "solver": "both",
}

FRACTIONATED_GROWTH = {
    "free_healthy_rate": 0.16,
    "free_cancer_rate": 0.13,
    "competition_cancer_rate": 0.05,
    "capacity": 1.0e9,
}
CANCER_LQ = {"alpha": 5.0e-3, "beta": 2.0e-2}
HEALTHY_LQ = {"alpha": 6.25e-4, "beta": 2.5e-3}
# (sessions, days between session starts): from a weekly course to daily
# hyperfractionation, whose session scan dominates the step cost
COURSES = ((16, 7.0), (80, 2.0), (400, 1.0))

@dataclass
class Item:
    """One scenario: its kind, its parameter block, and what must happen.

    expect is "ok" (exit code 0, outputs checked) or "numerical" (the
    program must stop with a NumericalError, exit code 2, and write no NaN).
    """

    name: str
    kind: str
    parameters: dict
    expect: str = "ok"

    def config(self, seed: int, directory: str) -> dict:
        return {
            "kind": self.kind,
            "seed": seed,
            "output": {"directory": directory},
            "parameters": self.parameters,
        }


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_index}")


def stratified_starts(rng: random.Random, cells: tuple[int, int],
                      jitter: float = 1.0) -> list[dict]:
    """One start per cell of the admissible plane, uniform over the
    central `jitter` share of the cell's width on each axis."""
    nf, ng = cells
    starts = []
    for i in range(nf):
        for j in range(ng):
            share_c = 0.05 + 0.45 * (i + 0.5 + jitter * (rng.random() - 0.5)) / nf
            share_h = 0.30 + 0.65 * (j + 0.5 + jitter * (rng.random() - 0.5)) / ng
            cancer = share_c * K
            starts.append({"healthy": share_h * (K - cancer), "cancer": cancer})
    return starts


def plan_round(seed: int, round_index: int) -> list[Item]:
    rng = _rng("plan", seed, round_index)
    items = [
        Item(
            f"patient{k}",
            "ocp",
            {
                "dynamics": NOMINAL_DYNAMICS,
                "control": NOMINAL_CONTROL,
                "initial": start,
                **PLAN_GRID,
                "solver": "both",
            },
        )
        for k, start in enumerate(stratified_starts(rng, PLAN_STRATA))
    ]
    items.append(Item("stiff", "ocp", STIFF_PATIENT, expect="numerical"))
    return items


def cohort_round(seed: int, round_index: int) -> list[Item]:
    """Two dose-report items over the two colours of a checkerboard of cells.

    Together they stratify the plane twice as finely as one item could,
    and each still covers every cancer-share row.
    """
    rng = _rng("cohort", seed, round_index)
    ng = COHORT_STRATA[1]
    starts = stratified_starts(rng, COHORT_STRATA, COHORT_JITTER)
    items = []
    for colour in (0, 1):
        mine = [s for k, s in enumerate(starts) if (k // ng + k % ng) % 2 == colour]
        items.append(
            Item(
                f"cohort{colour}",
                "dose-report",
                {
                    "dynamics": NOMINAL_DYNAMICS,
                    "control": NOMINAL_CONTROL,
                    "initials": mine,
                    "labels": [f"p{k:02d}" for k in range(len(mine))],
                    **COHORT_GRID,
                    "solver": "indirect",
                    "constant_intensity": CONSTANT_INTENSITY,
                },
            )
        )
    return items


def healthy_attractor_threshold(dynamics: dict, control: dict) -> float:
    """Constant intensity above which (h*, 0) is the only sink.

    Below it the tumour-only point is stable as well; the two meet where
    competition_coeff*K*(r_c - mu*u) = u*(mu*r_h - lam*r_c).
    """
    rh, rc = dynamics["healthy_rate"], dynamics["cancer_rate"]
    gk = dynamics["competition_coeff"] * dynamics["shared_capacity"]
    lam, mu = control["healthy_kill_coeff"], control["cancer_kill_coeff"]
    return gk * rc / (gk * mu + mu * rh - lam * rc)


def takeover_horizon(dynamics: dict, cancer0: float) -> float:
    """Days for an untreated tumour to take over from cancer0 cells.

    Escape from the non-hyperbolic point (K, 0) takes about
    r_h/(r_c*gamma*c0) days; clearing the healthy residue near (0, K)
    to 1e-3*K takes ln(1e3)/(gamma*K) more.
    """
    rh, rc = dynamics["healthy_rate"], dynamics["cancer_rate"]
    gamma, k = dynamics["competition_coeff"], dynamics["shared_capacity"]
    return rh / (rc * gamma * cancer0) + math.log(1e3) / (gamma * k)


def _grid(rng: random.Random) -> dict:
    def axis() -> dict:
        return {
            "min": rng.uniform(0.03, 0.10) * K,
            "max": rng.uniform(0.85, 0.95) * K,
            "count": 5,
        }

    return {"healthy": axis(), "cancer": axis()}


def simulate_round(seed: int, round_index: int) -> list[Item]:
    rng = _rng("simulate", seed, round_index)
    dyn = {
        **NOMINAL_DYNAMICS,
        "healthy_rate": 3.0 * rng.uniform(0.9, 1.1),
        "cancer_rate": 0.6 * rng.uniform(0.9, 1.1),
        "competition_coeff": 5.5e-8 * rng.uniform(0.9, 1.1),
    }
    ctl = NOMINAL_CONTROL
    u_star = healthy_attractor_threshold(dyn, ctl)
    u_low = rng.uniform(0.2, 0.8) * u_star
    u_high = rng.uniform(max(2.0 * u_star, 0.1), 0.7)

    def portrait(system: str, intensity: float | None) -> dict:
        p = {
            "dynamics": dyn,
            "system": system,
            "grid": _grid(rng),
            "t_end": 100.0,
            "samples": 201,
            "include_equilibria": True,
        }
        if intensity is not None:
            p.update(control=ctl, intensity=intensity)
        return p

    def takeover(low: float, high: float) -> dict:
        cancer = rng.uniform(low, high) * K
        t_end = math.ceil(takeover_horizon(dyn, cancer))
        return {
            "dynamics": dyn,
            "initial": {"healthy": rng.uniform(0.8, 0.95) * (K - cancer), "cancer": cancer},
            "t_end": float(t_end),
            "samples": t_end + 1,
        }

    def constant(intensity: float) -> dict:
        return {
            "dynamics": dyn,
            "control": ctl,
            "intensity": intensity,
            "probe_nonhyperbolic": True,
            "simulate": {
                "initial": stratified_starts(rng, (1, 1))[0],
                "t_end": 200.0,
                "samples": 1001,
            },
        }

    def course(sessions: int, gap: float) -> dict:
        first = rng.uniform(60.0, 100.0)
        starts = [first + gap * s for s in range(sessions)]
        return {
            "growth": {
                **FRACTIONATED_GROWTH,
                "initial_cancer": 10.0 ** rng.uniform(5.0, 7.0),
                "initial_healthy": rng.uniform(2.0e8, 6.0e8),
            },
            "cancer_response": CANCER_LQ,
            "healthy_response": HEALTHY_LQ,
            "plan": {
                "session_starts": starts,
                "session_duration": 0.2,
                "session_dose": rng.uniform(40.0, 80.0) / sessions,
                "eradication_threshold": 1.0e6,
            },
            "t_end": starts[-1] + 50.0,
            "dt": 0.05,
        }

    items = [
        Item("portrait-competition", "phase-portrait", portrait("competition", None)),
        Item("portrait-below", "phase-portrait", portrait("controlled", u_low)),
        Item("portrait-above", "phase-portrait", portrait("controlled", u_high)),
        Item("takeover-early", "competition", takeover(0.08, 0.12)),
        Item("takeover-late", "competition", takeover(0.35, 0.45)),
        Item("equilibria", "equilibria", {"dynamics": dyn, "probe_nonhyperbolic": True}),
        Item("constant-below", "constant-control", constant(u_low)),
        Item("constant-above", "constant-control", constant(u_high)),
    ]
    items += [
        Item(f"course-{n}", "fractionated", course(n, gap)) for n, gap in COURSES
    ]
    return items


ROUNDS = {"plan": plan_round, "cohort": cohort_round, "simulate": simulate_round}

# one small item per workload, run in a fresh interpreter to time set-up
WARMUP = {
    "plan": Item(
        "warmup",
        "ocp",
        {
            "dynamics": NOMINAL_DYNAMICS,
            "control": NOMINAL_CONTROL,
            "initial": {"healthy": 6.3e5, "cancer": 7.0e4},
            "horizon": 20.0,
            "n_intervals": 10,
            "refine": 4,
            "solver": "both",
        },
    ),
    "cohort": Item(
        "warmup",
        "dose-report",
        {
            "dynamics": NOMINAL_DYNAMICS,
            "control": NOMINAL_CONTROL,
            "initials": [
                {"healthy": 6.3e5, "cancer": 7.0e4},
                {"healthy": 2.0e5, "cancer": 2.0e5},
            ],
            "labels": ["nominal", "advanced"],
            "horizon": 20.0,
            "n_intervals": 10,
            "refine": 4,
            "solver": "indirect",
            "constant_intensity": CONSTANT_INTENSITY,
        },
    ),
    "simulate": Item(
        "warmup",
        "competition",
        {
            "dynamics": NOMINAL_DYNAMICS,
            "initial": {"healthy": 6.3e5, "cancer": 7.0e4},
            "t_end": 50.0,
            "samples": 51,
        },
    ),
}
