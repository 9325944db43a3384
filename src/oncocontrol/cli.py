"""Command line front end.

One subcommand per scenario kind; every subcommand takes a JSON scenario
file and writes its results into an output directory.  Exit codes:

  0  success
  1  configuration problem (bad file, schema violation, bad invariant)
     or a usage error (missing --config, unknown subcommand, bad --seed)
  2  numerical failure during evaluation
  3  a solver finished without converging; outputs are still written

Runs are deterministic: identical configs produce byte-identical output
files.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import growth_models
from .competition_dynamics import (
    CompetitionParams,
    ControlParams,
    State,
    Trajectory,
    coexistence_field,
    competition_field,
    controlled_field,
    integrate,
)
from .config import ScenarioConfig, growth_params_from, load_config, ocp_setup_from, plan_from
from .errors import ConfigError, NumericalError
from .lq_radiotherapy import (
    LQParams,
    PiecewiseGrowthParams,
    session_pieces,
    simulate_fractionated,
)
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

@dataclass
class ScenarioResult:
    exit_code: int
    summary: str


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
) -> None:
    """Write <stem>.csv from table = (header, rows) and <stem>.json from
    payload stamped with kind and seed, each when the output options enable
    it."""
    if table is not None and cfg.output.csv:
        write_csv(cfg.output.directory / f"{stem}.csv", *table)
    if payload is not None and cfg.output.json:
        write_json(
            cfg.output.directory / f"{stem}.json",
            {"kind": cfg.kind, "seed": cfg.seed, **payload},
        )


_TRAJECTORY_HEADER = ["time (day)", "healthy (cells)", "cancer (cells)"]


def _trajectory_rows(
    traj: Trajectory | OCPSolution, stride: int, *extra
) -> Iterator[tuple]:
    """Rows (time, healthy, cancer, *extra columns) at every stride-th sample
    and the last one, as Python scalars."""
    idx = _stride_indices(len(traj.times), stride)
    columns = (traj.times, traj.states[:, 0], traj.states[:, 1], *extra)
    yield from zip(*(np.asarray(col)[idx].tolist() for col in columns))


def _system(p: dict):
    """Field of the configured system, and a thunk for its equilibria
    without the nonlinear probe."""
    dynamics = CompetitionParams(**p["dynamics"])
    system = p["system"]
    if system != "controlled":
        factory = coexistence_field if system == "coexistence" else competition_field
        return factory(dynamics), lambda: equilibria_uncontrolled(
            dynamics, competitive=system == "competition", probe_nonhyperbolic=False
        )
    if "control" not in p:
        raise ConfigError("controlled system needs a control block")
    control = ControlParams(**p["control"])
    intensity = p["intensity"]
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
    _write_outputs(cfg, "growth", (header, rows), summary)

    finals = ", ".join(f"{law}={float(curves[law][-1]):.6g}" for law in laws)
    return ScenarioResult(0, f"growth: t_end={p['t_end']:g} {finals}")


def _run_fractionated(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.parameters
    growth = PiecewiseGrowthParams(**p["growth"])
    plan = plan_from(p["plan"])
    traj = simulate_fractionated(
        growth,
        LQParams(**p["cancer_response"]),
        LQParams(**p["healthy_response"]),
        plan,
        t_end=p["t_end"],
        dt=p["dt"],
    )

    final = traj.final_state()
    cured = plan.eradication_threshold is not None and final.cancer == 0.0
    rate = plan.effective_dose_rate
    delivered = sum(
        rate * (b - a) for a, b, s in session_pieces(plan, p["t_end"]) if s is not None
    )

    _write_outputs(
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
        f"fractionated: tumour {word}, final cancer {final.cancer:.6g} cells, "
        f"dose {delivered:g} Gy",
    )


def _run_competition(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.parameters
    field, _ = _system(p)
    times = np.linspace(0.0, p["t_end"], p["samples"])
    traj = integrate(
        field,
        State(**p["initial"]),
        (0.0, p["t_end"]),
        rtol=p["rtol"],
        atol=p["atol"],
        t_eval=times,
    )

    final = traj.final_state()
    _write_outputs(
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
        f"competition: {p['system']} ended at healthy {final.healthy:.6g}, "
        f"cancer {final.cancer:.6g}",
    )


def _write_reports(
    cfg: ScenarioConfig,
    stem: str,
    reports: list[EquilibriumReport],
    extra: dict,
) -> None:
    _write_outputs(
        cfg,
        stem,
        (_REPORT_HEADER, map(_report_row, reports)),
        {"equilibria": [_report_dict(r) for r in reports], **extra},
    )


def _run_equilibria(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.parameters
    dynamics = CompetitionParams(**p["dynamics"])
    reports = equilibria_uncontrolled(
        dynamics,
        competitive=p["variant"] == "competition",
        probe_nonhyperbolic=p["probe_nonhyperbolic"],
    )
    _write_reports(cfg, "equilibria", reports, {"variant": p["variant"]})
    stable = [r.label for r in reports if r.classification == "stable sink"]
    return ScenarioResult(
        0,
        f"equilibria: {len(reports)} points, stable sinks: {', '.join(stable) or 'none'}",
    )


def _run_constant_control(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.parameters
    dynamics = CompetitionParams(**p["dynamics"])
    control = ControlParams(**p["control"])
    intensity = p["intensity"]
    reports = equilibria_constant_control(
        dynamics, control, intensity, probe_nonhyperbolic=p["probe_nonhyperbolic"]
    )
    _write_reports(cfg, "constant_control", reports, {"intensity": intensity})

    if "simulate" in p:
        sim = p["simulate"]
        times = np.linspace(0.0, sim["t_end"], sim["samples"])
        traj = integrate(
            controlled_field(dynamics, control, intensity),
            State(**sim["initial"]),
            (0.0, sim["t_end"]),
            t_eval=times,
        )
        _write_outputs(
            cfg,
            "constant_control_trajectory",
            (_TRAJECTORY_HEADER, _trajectory_rows(traj, cfg.output.stride)),
        )

    stable = [r.label for r in reports if r.classification == "stable sink"]
    return ScenarioResult(
        0,
        f"constant-control: u={intensity:g}, {len(reports)} points, "
        f"stable sinks: {', '.join(stable) or 'none'}",
    )


def _solve_for(setup: OCPSetup, which: str, p: dict) -> OCPSolution:
    if which == "indirect":
        return solve_fbsm(setup, **p["fbsm"])
    return solve_direct(setup, **p["direct"])


def _solution_table(
    sol: OCPSolution, setup: OCPSetup, stride: int
) -> tuple[list[str], Iterator[tuple]]:
    header = _TRAJECTORY_HEADER + ["intensity (dimensionless)"]
    extra = [sol.control[setup.node_intervals()]]
    if sol.adjoints is not None:
        header += ["adjoint_healthy (1/cells)", "adjoint_cancer (1/cells)"]
        extra += [sol.adjoints[:, 0], sol.adjoints[:, 1]]
    return header, _trajectory_rows(sol, stride, *extra)


def _run_ocp(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.parameters
    setup = ocp_setup_from(p)
    which = p["solver"]
    solutions: dict[str, OCPSolution] = {}
    if which in ("indirect", "both"):
        solutions["indirect"] = _solve_for(setup, "indirect", p)
    if which in ("direct", "both"):
        solutions["direct"] = _solve_for(setup, "direct", p)

    for name, sol in solutions.items():
        _write_outputs(cfg, f"ocp_{name}", _solution_table(sol, setup, cfg.output.stride))

    payload: dict = {
        "horizon": setup.horizon,
        "n_intervals": setup.n_intervals,
        "solutions": {name: _solution_dict(sol) for name, sol in solutions.items()},
    }
    if len(solutions) == 2:
        a, b = solutions["indirect"], solutions["direct"]
        width = setup.horizon / setup.n_intervals
        gap = a.control - b.control
        # both objectives are 0 exactly from a tumour-free start at capacity
        scale = max(abs(a.objective), abs(b.objective))
        payload["cross_validation"] = {
            "objective_gap_rel": abs(a.objective - b.objective) / scale if scale else 0.0,
            "control_l2_gap": float(np.sqrt(np.sum(gap**2) * width)),
            "control_max_gap": float(np.max(np.abs(gap))),
        }
    _write_outputs(cfg, "ocp", payload=payload)

    all_converged = all(s.converged for s in solutions.values())
    objs = ", ".join(
        f"{name} J={sol.objective:.6g}" for name, sol in solutions.items()
    )
    note = "" if all_converged else " (not converged)"
    return ScenarioResult(0 if all_converged else 3, f"ocp: {objs}{note}")


def _run_dose_report(cfg: ScenarioConfig) -> ScenarioResult:
    p = cfg.parameters
    base = ocp_setup_from({**p, "initial": p["initials"][0]})
    initials = [State(**d) for d in p["initials"]]
    labels = p.get("labels")
    if labels is not None and len(labels) != len(initials):
        raise ConfigError("labels must match initials in length")
    if labels is None:
        labels = [f"scenario_{i + 1}" for i in range(len(initials))]
    constant = p.get("constant_intensity")
    u_max = base.control.max_intensity
    if constant is not None and not (0.0 <= constant <= u_max):
        raise ConfigError(f"constant_intensity {constant:g} outside [0, {u_max:g}]")

    solutions = [
        _solve_for(dataclasses.replace(base, initial=initial), p["solver"], p)
        for initial in initials
    ]
    rows = dose_report(solutions, labels, constant)

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
    _write_outputs(
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
    trajectories = [
        integrate(
            field,
            State(float(h0), float(c0)),
            (0.0, p["t_end"]),
            rtol=p["rtol"],
            atol=p["atol"],
            t_eval=times,
        )
        for h0 in h_values
        for c0 in c_values
    ]

    rows = (
        (tid, *row)
        for tid, traj in enumerate(trajectories)
        for row in _trajectory_rows(traj, cfg.output.stride)
    )
    payload: dict = {"system": p["system"], "trajectories": len(trajectories)}
    if p["include_equilibria"]:
        payload["equilibria"] = [_report_dict(r) for r in equilibria()]
    _write_outputs(
        cfg, "phase_portrait", (["trajectory"] + _TRAJECTORY_HEADER, rows), payload
    )

    return ScenarioResult(
        0, f"phase-portrait: {len(trajectories)} trajectories written"
    )


# kind -> (runner, subcommand help)
_KINDS = {
    "growth": (_run_growth, "closed-form growth laws"),
    "fractionated": (_run_fractionated, "fractionated radiotherapy course"),
    "competition": (_run_competition, "healthy/cancer dynamics integration"),
    "equilibria": (_run_equilibria, "equilibria of the untreated dynamics"),
    "constant-control": (
        _run_constant_control,
        "equilibria under constant therapy intensity",
    ),
    "ocp": (_run_ocp, "optimal therapy scheduling"),
    "dose-report": (_run_dose_report, "dose tables for solved schedules"),
    "phase-portrait": (_run_phase_portrait, "trajectory bundle over a grid of starts"),
}


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    try:
        runner, _ = _KINDS[cfg.kind]
    except KeyError as exc:
        raise ConfigError(f"unknown scenario kind {cfg.kind!r}") from exc
    return runner(cfg)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="onco-control",
        description="Tumour growth, radiotherapy and treatment scheduling models.",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, (_, desc) in _KINDS.items():
        sp = sub.add_parser(kind, help=desc)
        sp.add_argument("--config", required=True, help="scenario JSON file")
        sp.add_argument("--out", help="output directory (overrides config)")
        sp.add_argument("--seed", type=int, help="seed recorded in outputs (overrides config)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, the code of a numerical failure;
        # --help exits 0
        return 1 if exc.code else 0

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
