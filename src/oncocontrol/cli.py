"""Command line front end.

One subcommand per scenario kind; every subcommand takes a JSON scenario
file and writes its results into an output directory.  Exit codes:

  0  success
  1  configuration problem (bad file, schema violation, bad invariant)
  2  numerical failure during evaluation
  3  a solver finished without converging; outputs are still written

Runs are deterministic: identical configs produce byte-identical output
files.  The environment variable ONCO_CONTROL_THREADS sets the worker
count for scenario kinds that integrate many independent initial
conditions (dose-report, phase-portrait); results are assembled in input
order, so the thread count never changes the output, only the wall time.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import growth_models
from .competition_dynamics import (
    State,
    Trajectory,
    coexistence_field,
    competition_field,
    controlled_field,
    integrate,
)
from .config import (
    ScenarioConfig,
    competition_params_from,
    control_params_from,
    growth_params_from,
    load_config,
    lq_params_from,
    ocp_setup_from,
    piecewise_growth_from,
    plan_from,
    state_from,
)
from .errors import ConfigError, NumericalError
from .lq_radiotherapy import simulate_fractionated
from .optimal_control import (
    OCPSetup,
    OCPSolution,
    dose_report,
    solve_direct,
    solve_fbsm,
)
from .outputs import write_csv, write_json
from .stability_analysis import (
    EquilibriumReport,
    equilibria_constant_control,
    equilibria_uncontrolled,
)

THREADS_ENV = "ONCO_CONTROL_THREADS"


@dataclass
class ScenarioResult:
    exit_code: int
    files: list[Path]
    summary: str


def _thread_count() -> int:
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 1
    try:
        count = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{THREADS_ENV} must be a positive integer, got {raw!r}") from exc
    if count < 1:
        raise ConfigError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return count


def _parallel_map(fn, items: list):
    """Map preserving input order, threaded when configured."""
    workers = _thread_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _stride_indices(length: int, stride: int) -> list[int]:
    idx = list(range(0, length, stride))
    if idx[-1] != length - 1:
        idx.append(length - 1)
    return idx


def _finite_or_none(value: float):
    return float(value) if math.isfinite(value) else None


# ---------------------------------------------------------------------------
# shared serialisation helpers
# ---------------------------------------------------------------------------

def _report_dict(report: EquilibriumReport) -> dict:
    return {
        "label": report.label,
        "point": {"healthy": report.point[0], "cancer": report.point[1]},
        "eigenvalues": [
            {"real": z.real, "imag": z.imag} for z in report.eigenvalues
        ],
        "classification": report.classification,
        "conditions": report.conditions,
        "feasible": report.feasible,
        "nonlinear_verdict": report.nonlinear_verdict,
    }


_REPORT_HEADER = [
    "label",
    "healthy (cells)",
    "cancer (cells)",
    "eigenvalue_1_real (1/day)",
    "eigenvalue_1_imag (1/day)",
    "eigenvalue_2_real (1/day)",
    "eigenvalue_2_imag (1/day)",
    "classification",
    "feasible",
    "nonlinear_verdict",
]


def _report_row(report: EquilibriumReport) -> list:
    e1, e2 = report.eigenvalues
    return [
        report.label,
        report.point[0],
        report.point[1],
        e1.real,
        e1.imag,
        e2.real,
        e2.imag,
        report.classification,
        report.feasible,
        report.nonlinear_verdict,
    ]


def _solution_dict(sol: OCPSolution) -> dict:
    return {
        "solver": sol.solver,
        "objective": sol.objective,
        "total_dose": sol.total_dose,
        "converged": sol.converged,
        "iterations": sol.iterations,
        "final_update_norm": _finite_or_none(sol.final_update_norm),
        "message": sol.message,
    }


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _write_outputs(
    cfg: ScenarioConfig,
    stem: str,
    table: tuple[list[str], Iterable[Sequence]] | None = None,
    payload: dict | None = None,
) -> list[Path]:
    """Write <stem>.csv from table = (header, rows) and <stem>.json from
    payload stamped with kind and seed, each when the output options enable
    it; return the paths written."""
    files: list[Path] = []
    if table is not None and cfg.output.csv:
        path = cfg.output.directory / f"{stem}.csv"
        write_csv(path, *table)
        files.append(path)
    if payload is not None and cfg.output.json:
        path = cfg.output.directory / f"{stem}.json"
        write_json(path, {"kind": cfg.kind, "seed": cfg.seed, **payload})
        files.append(path)
    return files


_TRAJECTORY_HEADER = ["time (day)", "healthy (cells)", "cancer (cells)"]


def _trajectory_rows(traj: Trajectory, stride: int, *extra) -> Iterator[tuple]:
    """Rows (time, healthy, cancer, *extra columns) at every stride-th sample
    and the last one, as Python scalars."""
    idx = _stride_indices(len(traj.times), stride)
    columns = (traj.times, traj.healthy, traj.cancer, *extra)
    yield from zip(*(np.asarray(col)[idx].tolist() for col in columns))


def _system(p: dict):
    """Field of the configured system, and a thunk for its equilibria
    without the nonlinear probe."""
    dynamics = competition_params_from(p["dynamics"])
    system = p.get("system", "competition")
    if system != "controlled":
        factory = coexistence_field if system == "coexistence" else competition_field
        return factory(dynamics), lambda: equilibria_uncontrolled(
            dynamics, competitive=system == "competition", probe_nonhyperbolic=False
        )
    if "control" not in p:
        raise ConfigError("controlled system needs a control block")
    control = control_params_from(p["control"])
    intensity = p.get("intensity", 0.0)
    return controlled_field(dynamics, control, intensity), lambda: (
        equilibria_constant_control(dynamics, control, intensity, probe_nonhyperbolic=False)
    )


def _run_growth(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.parameters
    params = growth_params_from(p)
    laws = p["laws"]
    if p["t_end"] <= params.start_time:
        raise ConfigError("t_end must exceed start_time")
    times = np.linspace(params.start_time, p["t_end"], p["samples"])

    evaluators = {
        "exponential": growth_models.exponential,
        "gompertz": growth_models.gompertz,
        "verhulst": growth_models.verhulst,
    }
    curves = {law: evaluators[law](params, times) for law in laws}

    summary: dict = {"final": {law: float(curves[law][-1]) for law in laws}}
    asymptotes = {}
    if "gompertz" in laws:
        asymptotes["gompertz"] = growth_models.gompertz_asymptote(params)
    if "verhulst" in laws:
        asymptotes["verhulst"] = params.capacity
    if asymptotes:
        summary["asymptotes"] = asymptotes
    rows = (
        [times[i]] + [curves[law][i] for law in laws]
        for i in _stride_indices(len(times), cfg.output.stride)
    )
    header = ["time (day)"] + [f"{law} (cells)" for law in laws]
    files = _write_outputs(cfg, "growth", (header, rows), summary)

    finals = ", ".join(f"{law}={float(curves[law][-1]):.6g}" for law in laws)
    return ScenarioResult(0, files, f"growth: t_end={p['t_end']:g} {finals}")


def _run_fractionated(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.parameters
    growth = piecewise_growth_from(p["growth"])
    plan = plan_from(p["plan"])
    traj = simulate_fractionated(
        growth,
        lq_params_from(p["cancer_response"]),
        lq_params_from(p["healthy_response"]),
        plan,
        t_end=p["t_end"],
        dt=p["dt"],
    )

    final = traj.final_state()
    cured = plan.eradication_threshold is not None and final.cancer == 0.0
    rate = plan.effective_dose_rate
    delivered = sum(
        rate * max(0.0, min(p["t_end"], s + plan.session_duration) - s)
        for s in plan.session_starts
        if s < p["t_end"]
    )

    files = _write_outputs(
        cfg,
        "fractionated",
        (
            _TRAJECTORY_HEADER + ["regime", "in_session"],
            _trajectory_rows(traj, cfg.output.stride, traj.regimes, traj.in_session),
        ),
        {
            "final_healthy": final.healthy,
            "final_cancer": final.cancer,
            "cured": cured,
            "minimum_cancer": float(np.min(traj.cancer)),
            "dose_per_session": plan.dose_per_session,
            "total_dose": delivered,
            "sessions": len(plan.session_starts),
        },
    )

    word = "eradicated" if cured else "persistent"
    return ScenarioResult(
        0,
        files,
        f"fractionated: tumour {word}, final cancer {final.cancer:.6g} cells, "
        f"dose {delivered:g} Gy",
    )


def _run_competition(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.parameters
    field, _ = _system(p)
    times = np.linspace(0.0, p["t_end"], p["samples"])
    traj = integrate(
        field,
        state_from(p["initial"]),
        (0.0, p["t_end"]),
        rtol=p["rtol"],
        atol=p["atol"],
        t_eval=times,
    )

    final = traj.final_state()
    files = _write_outputs(
        cfg,
        "competition",
        (_TRAJECTORY_HEADER, _trajectory_rows(traj, cfg.output.stride)),
        {
            "system": p["system"],
            "final_healthy": final.healthy,
            "final_cancer": final.cancer,
        },
    )
    return ScenarioResult(
        0,
        files,
        f"competition: {p['system']} ended at healthy {final.healthy:.6g}, "
        f"cancer {final.cancer:.6g}",
    )


def _write_reports(
    cfg: ScenarioConfig,
    stem: str,
    reports: list[EquilibriumReport],
    extra: dict,
) -> list[Path]:
    return _write_outputs(
        cfg,
        stem,
        (_REPORT_HEADER, map(_report_row, reports)),
        {"equilibria": [_report_dict(r) for r in reports], **extra},
    )


def _run_equilibria(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.parameters
    dynamics = competition_params_from(p["dynamics"])
    reports = equilibria_uncontrolled(
        dynamics,
        competitive=p["variant"] == "competition",
        probe_nonhyperbolic=p["probe_nonhyperbolic"],
    )
    files = _write_reports(cfg, "equilibria", reports, {"variant": p["variant"]})
    stable = [r.label for r in reports if r.classification == "stable sink"]
    return ScenarioResult(
        0,
        files,
        f"equilibria: {len(reports)} points, stable sinks: {', '.join(stable) or 'none'}",
    )


def _run_constant_control(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.parameters
    dynamics = competition_params_from(p["dynamics"])
    control = control_params_from(p["control"])
    intensity = p["intensity"]
    reports = equilibria_constant_control(
        dynamics, control, intensity, probe_nonhyperbolic=p["probe_nonhyperbolic"]
    )
    files = _write_reports(
        cfg, "constant_control", reports, {"intensity": intensity}
    )

    if "simulate" in p:
        sim = p["simulate"]
        times = np.linspace(0.0, sim["t_end"], sim.get("samples", 501))
        traj = integrate(
            controlled_field(dynamics, control, intensity),
            state_from(sim["initial"]),
            (0.0, sim["t_end"]),
            t_eval=times,
        )
        files += _write_outputs(
            cfg,
            "constant_control_trajectory",
            (_TRAJECTORY_HEADER, _trajectory_rows(traj, cfg.output.stride)),
        )

    stable = [r.label for r in reports if r.classification == "stable sink"]
    return ScenarioResult(
        0,
        files,
        f"constant-control: u={intensity:g}, {len(reports)} points, "
        f"stable sinks: {', '.join(stable) or 'none'}",
    )


def _solve_for(setup: OCPSetup, which: str, p: dict) -> OCPSolution:
    if which == "indirect":
        opts = p.get("fbsm", {})
        return solve_fbsm(
            setup,
            relaxation=opts.get("relaxation", 0.5),
            tol=opts.get("tol", 1e-6),
            max_iter=opts.get("max_iter", 500),
        )
    opts = p.get("direct", {})
    return solve_direct(
        setup,
        ftol=opts.get("ftol", 1e-11),
        max_iter=opts.get("max_iter", 500),
    )


def _solution_table(sol: OCPSolution, stride: int) -> tuple[list[str], Iterator[tuple]]:
    traj = sol.trajectory()
    header = _TRAJECTORY_HEADER + ["intensity (dimensionless)"]
    extra = [traj.controls]
    if sol.adjoints is not None:
        header += ["adjoint_healthy (1/cells)", "adjoint_cancer (1/cells)"]
        extra += [sol.adjoints[:, 0], sol.adjoints[:, 1]]
    return header, _trajectory_rows(traj, stride, *extra)


def _run_ocp(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.parameters
    setup = ocp_setup_from(p)
    which = p["solver"]
    solutions: dict[str, OCPSolution] = {}
    if which in ("indirect", "both"):
        solutions["indirect"] = _solve_for(setup, "indirect", p)
    if which in ("direct", "both"):
        solutions["direct"] = _solve_for(setup, "direct", p)

    files: list[Path] = []
    for name, sol in solutions.items():
        files += _write_outputs(
            cfg, f"ocp_{name}", _solution_table(sol, cfg.output.stride)
        )

    payload: dict = {
        "horizon": setup.horizon,
        "n_intervals": setup.n_intervals,
        "solutions": {name: _solution_dict(sol) for name, sol in solutions.items()},
    }
    if len(solutions) == 2:
        a, b = solutions["indirect"], solutions["direct"]
        width = setup.horizon / setup.n_intervals
        gap = a.control - b.control
        payload["cross_validation"] = {
            "objective_gap_rel": abs(a.objective - b.objective)
            / max(abs(a.objective), abs(b.objective)),
            "control_l2_gap": float(np.sqrt(np.sum(gap**2) * width)),
            "control_max_gap": float(np.max(np.abs(gap))),
        }
    files += _write_outputs(cfg, "ocp", payload=payload)

    all_converged = all(s.converged for s in solutions.values())
    objs = ", ".join(
        f"{name} J={sol.objective:.6g}" for name, sol in solutions.items()
    )
    note = "" if all_converged else " (not converged)"
    return ScenarioResult(
        0 if all_converged else 3,
        files,
        f"ocp: {objs}{note}",
    )


def _run_dose_report(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.parameters
    base = ocp_setup_from({**p, "initial": p["initials"][0]})
    initials = [state_from(d) for d in p["initials"]]
    labels = p.get("labels")
    if labels is not None and len(labels) != len(initials):
        raise ConfigError("labels must match initials in length")
    if labels is None:
        labels = [f"scenario_{i + 1}" for i in range(len(initials))]

    def solve_one(initial) -> OCPSolution:
        return _solve_for(dataclasses.replace(base, initial=initial), p["solver"], p)

    solutions = _parallel_map(solve_one, initials)
    rows = dose_report(solutions, labels, p.get("constant_intensity"))

    totals: dict = {}
    for r in rows:
        totals.setdefault(r.scenario, {})[r.protocol] = r.total_dose
    header = [
        "scenario",
        "protocol",
        "start (day)",
        "end (day)",
        "intensity (dimensionless)",
        "interval_dose (intensity-day)",
        "total_dose (intensity-day)",
    ]
    table = (
        [r.scenario, r.protocol, r.start, r.end, r.intensity, r.interval_dose, r.total_dose]
        for r in rows
    )
    files = _write_outputs(
        cfg,
        "dose_report",
        (header, table),
        {
            "solver": p["solver"],
            "totals": totals,
            "solutions": {
                label: _solution_dict(sol) for label, sol in zip(labels, solutions)
            },
        },
    )

    all_converged = all(s.converged for s in solutions)
    return ScenarioResult(
        0 if all_converged else 3,
        files,
        f"dose-report: {len(initials)} scenarios, {len(rows)} rows"
        + ("" if all_converged else " (not converged)"),
    )


def _run_phase_portrait(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.parameters
    field, equilibria = _system(p)
    axis = p["grid"]
    h_values = np.linspace(axis["healthy"]["min"], axis["healthy"]["max"], axis["healthy"]["count"])
    c_values = np.linspace(axis["cancer"]["min"], axis["cancer"]["max"], axis["cancer"]["count"])
    times = np.linspace(0.0, p["t_end"], p["samples"])
    starts = [
        (float(h0), float(c0)) for h0 in h_values for c0 in c_values
    ]

    def run_one(start):
        return integrate(
            field,
            State(start[0], start[1]),
            (0.0, p["t_end"]),
            rtol=p["rtol"],
            atol=p["atol"],
            t_eval=times,
        )

    trajectories = _parallel_map(run_one, starts)

    rows = (
        (tid, *row)
        for tid, traj in enumerate(trajectories)
        for row in _trajectory_rows(traj, cfg.output.stride)
    )
    payload: dict = {"system": p["system"], "trajectories": len(trajectories)}
    if p["include_equilibria"]:
        payload["equilibria"] = [_report_dict(r) for r in equilibria()]
    files = _write_outputs(
        cfg, "phase_portrait", (["trajectory"] + _TRAJECTORY_HEADER, rows), payload
    )

    return ScenarioResult(
        0, files, f"phase-portrait: {len(trajectories)} trajectories written"
    )


_RUNNERS = {
    "growth": _run_growth,
    "fractionated": _run_fractionated,
    "competition": _run_competition,
    "equilibria": _run_equilibria,
    "constant-control": _run_constant_control,
    "ocp": _run_ocp,
    "dose-report": _run_dose_report,
    "phase-portrait": _run_phase_portrait,
}


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    try:
        runner = _RUNNERS[cfg.kind]
    except KeyError as exc:
        raise ConfigError(f"unknown scenario kind {cfg.kind!r}") from exc
    return runner(cfg)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="onco-control",
        description="Tumour growth, radiotherapy and treatment scheduling models.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    descriptions = {
        "growth": "closed-form growth laws",
        "fractionated": "fractionated radiotherapy course",
        "competition": "healthy/cancer dynamics integration",
        "equilibria": "equilibria of the untreated dynamics",
        "constant-control": "equilibria under constant therapy intensity",
        "ocp": "optimal therapy scheduling",
        "dose-report": "dose tables for solved schedules",
        "phase-portrait": "trajectory bundle over a grid of starts",
    }
    for kind, desc in descriptions.items():
        sp = sub.add_parser(kind, help=desc)
        sp.add_argument("--config", required=True, help="scenario JSON file")
        sp.add_argument("--out", help="output directory (overrides config)")
        sp.add_argument("--seed", type=int, help="seed recorded in outputs (overrides config)")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        if cfg.kind != args.kind:
            raise ConfigError(
                f"config kind {cfg.kind!r} does not match subcommand {args.kind!r}"
            )
        if args.out is not None:
            cfg.output = dataclasses.replace(cfg.output, directory=Path(args.out))
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be nonnegative")
            cfg.seed = args.seed
        result = run_scenario(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2

    print(result.summary)
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
