"""End-to-end runs of the command line front end."""

import csv
import dataclasses
import importlib.util
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from oncocontrol import cli
from oncocontrol.cli import main

DYNAMICS = {
    "healthy_rate": 3.0,
    "cancer_rate": 0.6,
    "shared_capacity": 7e5,
    "competition_coeff": 5.5e-8,
}
CONTROL = {"healthy_kill_coeff": 0.025, "cancer_kill_coeff": 0.189}


def write_config(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def read_csv(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def growth_payload(out, **param_overrides):
    params = {
        "initial_count": 1.0,
        "doubling_time": 1.15,
        "log_fold_cap": 21.13,
        "retardation_rate": 0.06,
        "rate": 0.6,
        "capacity": 1.5e9,
        "t_end": 10.0,
        "samples": 11,
    }
    params.update(param_overrides)
    return {
        "kind": "growth",
        "output": {"directory": str(out)},
        "parameters": params,
    }


def test_growth_run(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, growth_payload(out))
    assert main(["growth", "--config", str(cfg)]) == 0
    assert "growth:" in capsys.readouterr().out

    header, rows = read_csv(out / "growth.csv")
    assert header == [
        "time (day)",
        "exponential (cells)",
        "gompertz (cells)",
        "verhulst (cells)",
    ]
    assert len(rows) == 11
    t, expo = float(rows[-1][0]), float(rows[-1][1])
    assert t == 10.0
    assert expo == pytest.approx(2.0 ** (10.0 / 1.15), rel=1e-12)

    summary = json.loads((out / "growth.json").read_text())
    assert summary["kind"] == "growth"
    assert summary["asymptotes"]["verhulst"] == 1.5e9
    assert summary["asymptotes"]["gompertz"] == pytest.approx(
        math.exp(21.13), rel=1e-12
    )


def test_growth_reruns_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = write_config(tmp_path, growth_payload(out_a), "a.json")
    cfg_b = write_config(tmp_path, growth_payload(out_b), "b.json")
    assert main(["growth", "--config", str(cfg_a)]) == 0
    assert main(["growth", "--config", str(cfg_b)]) == 0
    for name in ("growth.csv", "growth.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_out_and_seed_overrides(tmp_path):
    configured = tmp_path / "configured"
    elsewhere = tmp_path / "elsewhere"
    cfg = write_config(tmp_path, growth_payload(configured))
    code = main(
        ["growth", "--config", str(cfg), "--out", str(elsewhere), "--seed", "7"]
    )
    assert code == 0
    assert not configured.exists()
    summary = json.loads((elsewhere / "growth.json").read_text())
    assert summary["seed"] == 7


def test_negative_seed_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, growth_payload(tmp_path / "out"))
    assert main(["growth", "--config", str(cfg), "--seed", "-1"]) == 1
    assert "seed" in capsys.readouterr().err


def test_kind_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, growth_payload(tmp_path / "out"))
    assert main(["competition", "--config", str(cfg)]) == 1
    assert "does not match subcommand" in capsys.readouterr().err


def test_schema_violation_exits_one(tmp_path, capsys):
    payload = growth_payload(tmp_path / "out")
    payload["parameters"]["growht_rate"] = 0.6
    cfg = write_config(tmp_path, payload)
    assert main(["growth", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("config error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["growth"],
        ["no-such-kind", "--config", "scenario.json"],
        ["growth", "--config", "scenario.json", "--seed", "x"],
    ],
    ids=["missing-config", "unknown-subcommand", "non-integer-seed"],
)
def test_usage_errors_exit_one(tmp_path, capsys, argv):
    # argparse's own code, 2, is the code of a numerical failure
    write_config(tmp_path, growth_payload(tmp_path / "out"))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 1
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def test_overflow_exits_two(tmp_path, capsys):
    payload = growth_payload(tmp_path / "out", t_end=5000.0)
    cfg = write_config(tmp_path, payload)
    assert main(["growth", "--config", str(cfg)]) == 2
    assert "numerical failure" in capsys.readouterr().err


SHIPPED = Path(__file__).resolve().parents[1] / "configs"

SCHEMA = json.loads((Path(cli.__file__).parent / "schema.json").read_text())


def integer_paths(schema, instance, path=()):
    """Paths of the integer properties of schema that instance holds."""
    if "$ref" in schema:
        schema = SCHEMA["$defs"][schema["$ref"].rsplit("/", 1)[-1]]
    if schema.get("type") == "integer":
        yield path
    for name, sub in schema.get("properties", {}).items():
        if isinstance(instance, dict) and name in instance:
            yield from integer_paths(sub, instance[name], path + (name,))


def defaulted_config(path):
    """A shipped config with every default the schema declares written out."""
    cfg = cli.load_config(path)
    output = {**dataclasses.asdict(cfg.output), "directory": str(cfg.output.directory)}
    return {"kind": cfg.kind, "seed": cfg.seed, "output": output, "parameters": cfg.parameters}


def integer_cases():
    """(config, path) for every integer field a shipped config sets or
    defaults."""
    for config in sorted(SHIPPED.glob("*.json")):
        raw = defaulted_config(config)
        params = SCHEMA["$defs"]["parameters"][raw["kind"]]
        yield from ((config.stem, p) for p in integer_paths(SCHEMA, raw))
        yield from (
            (config.stem, ("parameters", *p))
            for p in integer_paths(params, raw["parameters"])
        )


@pytest.mark.parametrize(
    "config, path",
    list(integer_cases()),
    ids=lambda v: "/".join(v) if isinstance(v, tuple) else v,
)
def test_integer_fields_written_as_floats_are_config_errors(
    tmp_path, capsys, config, path
):
    # JSON Schema counts 501.0 as an integer, which range() and
    # np.linspace refuse with a traceback
    raw = defaulted_config(SHIPPED / f"{config}.json")
    raw["output"]["directory"] = str(tmp_path / "out")
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value = float(node[path[-1]])
    assert main([raw["kind"], "--config", str(write_config(tmp_path, raw))]) == 1
    where = "/".join(path)
    assert capsys.readouterr().err == (
        f"config error: {where}: {value!r} is not of type 'integer'\n"
    )
    assert not (tmp_path / "out").exists()



@pytest.mark.parametrize(
    "config, number, constant",
    [
        ("competition", '"healthy": 6.3e5', '"healthy": NaN'),
        ("competition", '"shared_capacity": 7.0e5', '"shared_capacity": Infinity'),
        ("ocp", '"horizon": 100.0', '"horizon": Infinity'),
    ],
    ids=["nan-healthy", "infinite-capacity", "infinite-horizon"],
)
def test_non_finite_json_constants_are_config_errors(
    tmp_path, capsys, config, number, constant
):
    # json.loads accepts NaN and Infinity, and no schema bound rejects them
    text = (SHIPPED / f"{config}.json").read_text()
    assert number in text
    cfg = tmp_path / f"{config}.json"
    cfg.write_text(text.replace(number, constant))
    out = tmp_path / "out"
    kind = json.loads(text)["kind"]
    assert main([kind, "--config", str(cfg), "--out", str(out)]) == 1
    name = constant.split(": ")[1]
    assert capsys.readouterr().err == (
        f"config error: {cfg}: {name} is not a JSON number\n"
    )
    assert not out.exists()


def test_stride_keeps_last_sample(tmp_path):
    out = tmp_path / "out"
    payload = growth_payload(out)
    payload["output"]["stride"] = 4
    cfg = write_config(tmp_path, payload)
    assert main(["growth", "--config", str(cfg)]) == 0
    _, rows = read_csv(out / "growth.csv")
    assert [float(r[0]) for r in rows] == [0.0, 4.0, 8.0, 10.0]


def test_competition_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "kind": "competition",
            "output": {"directory": str(out)},
            "parameters": {
                "dynamics": DYNAMICS,
                "initial": {"healthy": 6.3e5, "cancer": 0.7e5},
                "t_end": 5.0,
                "samples": 6,
            },
        },
    )
    assert main(["competition", "--config", str(cfg)]) == 0
    header, rows = read_csv(out / "competition.csv")
    assert header == ["time (day)", "healthy (cells)", "cancer (cells)"]
    assert len(rows) == 6
    summary = json.loads((out / "competition.json").read_text())
    assert summary["system"] == "competition"
    assert summary["final_healthy"] > 0.0
    assert summary["final_cancer"] > 0.7e5


def test_bad_control_invariant_surfaces_as_config_error(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "kind": "competition",
            "output": {"directory": str(tmp_path / "out")},
            "parameters": {
                "dynamics": DYNAMICS,
                "system": "controlled",
                "control": {
                    "healthy_kill_coeff": 0.5,
                    "cancer_kill_coeff": 0.2,
                },
                "intensity": 0.7,
                "initial": {"healthy": 6.3e5, "cancer": 0.7e5},
                "t_end": 1.0,
            },
        },
    )
    assert main(["competition", "--config", str(cfg)]) == 1
    assert "healthy_kill_coeff < cancer_kill_coeff" in capsys.readouterr().err


def test_equilibria_run(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "kind": "equilibria",
            "output": {"directory": str(out)},
            "parameters": {"dynamics": DYNAMICS},
        },
    )
    assert main(["equilibria", "--config", str(cfg)]) == 0
    assert "stable sinks" in capsys.readouterr().out
    header, rows = read_csv(out / "equilibria.csv")
    assert header[:3] == ["label", "healthy (cells)", "cancer (cells)"]
    labels = [r[0] for r in rows]
    assert labels == ["extinction", "healthy_only", "cancer_only"]
    summary = json.loads((out / "equilibria.json").read_text())
    assert summary["variant"] == "competition"
    by_label = {e["label"]: e for e in summary["equilibria"]}
    assert by_label["cancer_only"]["classification"] == "stable sink"
    assert by_label["healthy_only"]["classification"] == "non-hyperbolic"
    assert by_label["healthy_only"]["nonlinear_verdict"] == "unstable"


def test_constant_control_run_with_trajectory(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "kind": "constant-control",
            "output": {"directory": str(out)},
            "parameters": {
                "dynamics": DYNAMICS,
                "control": CONTROL,
                "intensity": 0.7,
                "simulate": {
                    "initial": {"healthy": 6.3e5, "cancer": 0.7e5},
                    "t_end": 2.0,
                    "samples": 5,
                },
            },
        },
    )
    assert main(["constant-control", "--config", str(cfg)]) == 0
    assert "healthy_only" in capsys.readouterr().out
    assert (out / "constant_control.csv").exists()
    summary = json.loads((out / "constant_control.json").read_text())
    assert summary["intensity"] == 0.7
    by_label = {e["label"]: e for e in summary["equilibria"]}
    assert by_label["healthy_only"]["classification"] == "stable sink"
    assert by_label["cancer_only"]["classification"] == "saddle"
    _, rows = read_csv(out / "constant_control_trajectory.csv")
    assert len(rows) == 5


def test_ocp_run_cross_validates(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "kind": "ocp",
            "output": {"directory": str(out)},
            "parameters": {
                "dynamics": DYNAMICS,
                "control": CONTROL,
                "initial": {"healthy": 6.3e5, "cancer": 0.7e5},
                "horizon": 20.0,
                "n_intervals": 20,
                "refine": 2,
            },
        },
    )
    assert main(["ocp", "--config", str(cfg)]) == 0
    header, rows = read_csv(out / "ocp_indirect.csv")
    assert header == [
        "time (day)",
        "healthy (cells)",
        "cancer (cells)",
        "intensity (dimensionless)",
        "adjoint_healthy (1/cells)",
        "adjoint_cancer (1/cells)",
    ]
    assert len(rows) == 20 * 2 + 1
    header, _ = read_csv(out / "ocp_direct.csv")
    assert "adjoint_healthy (1/cells)" not in header
    summary = json.loads((out / "ocp.json").read_text())
    assert set(summary["solutions"]) == {"indirect", "direct"}
    assert summary["solutions"]["indirect"]["converged"]
    assert summary["cross_validation"]["objective_gap_rel"] < 1e-5
    assert summary["cross_validation"]["control_max_gap"] < 0.05


def test_ocp_nonconvergence_exits_three_but_writes(tmp_path, capsys):
    # on a 20-day horizon the optimum is u = 1 throughout, which the first
    # projected step reaches exactly; 50 days need 14 steps
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "kind": "ocp",
            "output": {"directory": str(out)},
            "parameters": {
                "dynamics": DYNAMICS,
                "control": CONTROL,
                "initial": {"healthy": 6.3e5, "cancer": 0.7e5},
                "horizon": 50.0,
                "n_intervals": 20,
                "refine": 4,
                "solver": "direct",
                "direct": {"max_iter": 1},
            },
        },
    )
    assert main(["ocp", "--config", str(cfg)]) == 3
    assert "not converged" in capsys.readouterr().out
    assert (out / "ocp_direct.csv").exists()
    summary = json.loads((out / "ocp.json").read_text())
    assert summary["solutions"]["direct"]["converged"] is False


def test_ocp_from_a_tumour_free_start_at_capacity(tmp_path, capsys):
    # both solvers return J = 0 exactly, so the relative objective gap is 0/0
    raw = json.loads((SHIPPED / "ocp.json").read_text())
    raw["output"]["directory"] = str(tmp_path / "out")
    raw["parameters"]["initial"] = {"healthy": 7e5, "cancer": 0}
    assert main(["ocp", "--config", str(write_config(tmp_path, raw))]) == 0
    assert capsys.readouterr().out == "ocp: indirect J=0, direct J=0\n"
    summary = json.loads((tmp_path / "out" / "ocp.json").read_text())
    assert summary["cross_validation"]["objective_gap_rel"] == 0.0


def dose_report_payload(out):
    return {
        "kind": "dose-report",
        "output": {"directory": str(out)},
        "parameters": {
            "dynamics": DYNAMICS,
            "control": CONTROL,
            "initials": [
                {"healthy": 6.3e5, "cancer": 0.7e5},
                {"healthy": 5.0e5, "cancer": 1.0e5},
                {"healthy": 3.5e5, "cancer": 3.5e5},
            ],
            "labels": ["nominal", "shifted", "half"],
            "horizon": 5.0,
            "n_intervals": 5,
            "refine": 2,
            "solver": "direct",
            "constant_intensity": 0.7,
        },
    }


def test_dose_report_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dose_report_payload(out))
    assert main(["dose-report", "--config", str(cfg)]) == 0
    header, rows = read_csv(out / "dose_report.csv")
    assert header[0] == "scenario"
    assert len(rows) == 3 * (5 + 1)
    summary = json.loads((out / "dose_report.json").read_text())
    assert summary["totals"]["nominal"]["constant"] == pytest.approx(3.5)
    for label in ("nominal", "shifted", "half"):
        optimal = summary["totals"][label]["direct-transcription"]
        assert 0.0 <= optimal <= 5.0


def test_dose_report_rejects_a_constant_protocol_above_max_intensity(
    tmp_path, capsys, monkeypatch
):
    # criterion 10 bounds every intensity in the table by max_intensity;
    # the bad reference protocol must fail before any schedule is solved
    out = tmp_path / "out"
    payload = dose_report_payload(out)
    payload["parameters"]["constant_intensity"] = 1.5

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the constant protocol was checked")

    monkeypatch.setattr(cli, "solve_direct", no_solve)
    cfg = write_config(tmp_path, payload)
    assert main(["dose-report", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: constant_intensity 1.5 outside [0, 1]\n"
    assert not out.exists()


def test_dose_report_rejects_duplicate_labels(tmp_path, capsys):
    # the totals and solutions are keyed by label, so a repeated label
    # would silently drop a scenario from the JSON summary
    out = tmp_path / "out"
    payload = dose_report_payload(out)
    payload["parameters"]["labels"] = ["a", "a", "b"]
    cfg = write_config(tmp_path, payload)
    assert main(["dose-report", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: parameters/labels: ")
    assert "non-unique" in err
    assert not out.exists()


def test_dose_report_reruns_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg_a = write_config(tmp_path, dose_report_payload(out_a), "a.json")
    cfg_b = write_config(tmp_path, dose_report_payload(out_b), "b.json")
    assert main(["dose-report", "--config", str(cfg_a)]) == 0
    assert main(["dose-report", "--config", str(cfg_b)]) == 0
    for name in ("dose_report.csv", "dose_report.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_phase_portrait_run(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "kind": "phase-portrait",
            "output": {"directory": str(out)},
            "parameters": {
                "dynamics": DYNAMICS,
                "grid": {
                    "healthy": {"min": 1e5, "max": 6e5, "count": 2},
                    "cancer": {"min": 1e5, "max": 6e5, "count": 2},
                },
                "t_end": 2.0,
                "samples": 3,
            },
        },
    )
    assert main(["phase-portrait", "--config", str(cfg)]) == 0
    _, rows = read_csv(out / "phase_portrait.csv")
    assert len(rows) == 4 * 3
    assert [r[0] for r in rows[:3]] == ["0", "0", "0"]
    summary = json.loads((out / "phase_portrait.json").read_text())
    assert summary["trajectories"] == 4
    labels = [e["label"] for e in summary["equilibria"]]
    assert "cancer_only" in labels


def fractionated_config(tmp_path, out, starts, t_end):
    return write_config(
        tmp_path,
        {
            "kind": "fractionated",
            "output": {"directory": str(out)},
            "parameters": {
                "growth": {
                    "free_healthy_rate": 0.16,
                    "free_cancer_rate": 0.13,
                    "competition_cancer_rate": 0.05,
                    "capacity": 1e9,
                    "initial_cancer": 1e6,
                    "initial_healthy": 4e8,
                },
                "cancer_response": {"alpha": 5e-3, "beta": 2e-2},
                "healthy_response": {"alpha": 6.25e-4, "beta": 2.5e-3},
                "plan": {
                    "session_starts": starts,
                    "session_duration": 0.2,
                    "session_dose": 8.0,
                    "eradication_threshold": 100.0,
                },
                "t_end": t_end,
                "dt": 0.01,
            },
        },
    )


def test_fractionated_run(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = fractionated_config(tmp_path, out, [0.0], 2.0)
    assert main(["fractionated", "--config", str(cfg)]) == 0
    assert "persistent" in capsys.readouterr().out
    header, rows = read_csv(out / "fractionated.csv")
    assert header[-2:] == ["regime", "in_session"]
    flags = {r[4] for r in rows}
    assert flags == {"true", "false"}
    summary = json.loads((out / "fractionated.json").read_text())
    assert summary["cured"] is False
    assert summary["dose_per_session"] == 8.0
    assert summary["total_dose"] == pytest.approx(8.0)
    assert summary["final_cancer"] < 1e6


@pytest.mark.parametrize(
    "starts, t_end, dose",
    [
        ([0.0, 1.0], 1.1, 12.0),  # t_end cuts the last session in half
        ([0.0, 5.0], 2.0, 8.0),  # the second session starts after t_end
        ([100.0, 100.2, 100.4, 100.6], 101.0, 32.0),  # back to back in decimal
    ],
    ids=["last-session-cut", "session-after-t-end", "back-to-back-decimal"],
)
def test_total_dose_is_the_dose_delivered_by_t_end(
    tmp_path, capsys, starts, t_end, dose
):
    out = tmp_path / "out"
    cfg = fractionated_config(tmp_path, out, starts, t_end)
    assert main(["fractionated", "--config", str(cfg)]) == 0
    assert f"dose {dose:g} Gy" in capsys.readouterr().out
    summary = json.loads((out / "fractionated.json").read_text())
    assert summary["total_dose"] == pytest.approx(dose, rel=1e-12)
    assert summary["sessions"] == len(starts)


def test_outputs_honour_the_umask(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "kind": "equilibria",
            "output": {"directory": str(out)},
            "parameters": {"dynamics": DYNAMICS, "probe_nonhyperbolic": False},
        },
    )
    saved = os.umask(0o022)
    try:
        assert main(["equilibria", "--config", str(cfg)]) == 0
    finally:
        os.umask(saved)
    for name in ("equilibria.csv", "equilibria.json"):
        assert stat.S_IMODE((out / name).stat().st_mode) == 0o644


def test_unwritable_output_path_is_a_config_error(tmp_path, capsys):
    # a regular file where the output directory should be: one line on
    # stderr naming the path, exit 1, nothing written
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    cfg = write_config(
        tmp_path,
        {
            "kind": "equilibria",
            "parameters": {"dynamics": DYNAMICS, "probe_nonhyperbolic": False},
        },
    )
    out = blocker / "sub"
    assert main(["equilibria", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / 'equilibria.csv'}: ")
    assert err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == [blocker, cfg]
    assert blocker.read_text() == "not a directory\n"


@pytest.mark.parametrize("solver", ["both", "direct"])
def test_stiff_ocp_is_a_numerical_failure_with_no_nan_written(tmp_path, capsys, solver):
    # RK4 step x healthy rate = 5 days x 50/day, far past the stability limit
    out = tmp_path / "out"
    cfg = write_config(
        tmp_path,
        {
            "kind": "ocp",
            "output": {"directory": str(out)},
            "parameters": {
                "dynamics": {**DYNAMICS, "healthy_rate": 50.0},
                "control": CONTROL,
                "initial": {"healthy": 6.3e5, "cancer": 0.7e5},
                "n_intervals": 10,
                "refine": 2,
                "solver": solver,
            },
        },
    )
    assert main(["ocp", "--config", str(cfg)]) == 2
    assert "raise n_intervals or refine" in capsys.readouterr().err
    written = list(out.iterdir()) if out.exists() else []
    assert not any("nan" in path.read_text() for path in written)


def test_traced_names_resolve():
    # the benchmark's tracer wraps these module attributes where callers
    # look them up; a renamed one would silently drop out of the trace
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [(module, attr) for module, attr, _ in tracing.SPANNED]
    pairs += list(tracing.FIELD_FACTORIES)
    for module, attr in pairs:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_cli_import_leaves_scipy_optimize_unloaded():
    # no kind uses scipy, so importing the command line must not load it
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, oncocontrol.cli; print('scipy.optimize' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


NO_SCIPY_PROBE = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"No module named {name!r}")
        return None

sys.meta_path.insert(0, NoScipy())
from oncocontrol.cli import main

sys.exit(main(["ocp", "--config", sys.argv[1]]) or main(["dose-report", "--config", sys.argv[2]]))
"""


def test_ocp_and_dose_report_run_without_scipy(tmp_path):
    ocp_out, report_out = tmp_path / "ocp", tmp_path / "report"
    ocp_cfg = write_config(
        tmp_path,
        {
            "kind": "ocp",
            "output": {"directory": str(ocp_out)},
            "parameters": {
                "dynamics": DYNAMICS,
                "control": CONTROL,
                "initial": {"healthy": 6.3e5, "cancer": 0.7e5},
                "horizon": 20.0,
                "n_intervals": 20,
                "refine": 2,
                "solver": "both",
            },
        },
        name="ocp.json",
    )
    report_cfg = write_config(tmp_path, dose_report_payload(report_out), name="report.json")
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, str(ocp_cfg), str(report_cfg)],
        env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert sorted(p.name for p in ocp_out.iterdir()) == [
        "ocp.json", "ocp_direct.csv", "ocp_indirect.csv"
    ]
    assert sorted(p.name for p in report_out.iterdir()) == [
        "dose_report.csv", "dose_report.json"
    ]
