"""Scenario file validation, defaulting, and typed conversion."""

import dataclasses
import json
from pathlib import Path

import pytest

from oncocontrol.config import (
    load_config,
    parse_config,
    cost_model_from,
    competition_params_from,
    control_params_from,
    ocp_setup_from,
    plan_from,
)
from oncocontrol.errors import ConfigError


def growth_raw(**overrides):
    raw = {
        "kind": "growth",
        "parameters": {
            "initial_count": 1.0,
            "doubling_time": 1.15,
            "log_fold_cap": 21.13,
            "retardation_rate": 0.06,
            "rate": 0.6,
            "capacity": 1.5e9,
            "t_end": 60.0,
        },
    }
    raw.update(overrides)
    return raw


def test_defaults_fill_in():
    cfg = parse_config(growth_raw())
    assert cfg.kind == "growth"
    assert cfg.seed == 0
    assert str(cfg.output.directory) == "out"
    assert cfg.output.csv and cfg.output.json
    assert cfg.output.stride == 1
    assert cfg.parameters["samples"] == 501
    assert cfg.parameters["start_time"] == 0.0
    assert cfg.parameters["laws"] == ["exponential", "gompertz", "verhulst"]


def test_unknown_envelope_key_rejected():
    with pytest.raises(ConfigError, match="unexpected"):
        parse_config(growth_raw(extra_knob=1))


def test_unknown_parameter_key_rejected():
    raw = growth_raw()
    raw["parameters"]["growht_rate"] = 0.6
    with pytest.raises(ConfigError, match="growht_rate"):
        parse_config(raw)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError, match="kind"):
        parse_config(growth_raw(kind="grwoth"))


def test_missing_required_field_rejected():
    raw = growth_raw()
    del raw["parameters"]["t_end"]
    with pytest.raises(ConfigError, match="t_end"):
        parse_config(raw)


def test_stride_must_be_positive():
    with pytest.raises(ConfigError, match="stride"):
        parse_config(growth_raw(output={"stride": 0}))


def test_bad_json_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "kind": "growth",,\n}\n')
    with pytest.raises(ConfigError, match=r"line 2, column"):
        load_config(path)


def test_top_level_must_be_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(ConfigError, match="top level"):
        load_config(path)


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.json")


def test_canonical_form_is_idempotent(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(growth_raw(seed=11)))
    cfg = load_config(path)
    # the fully defaulted form, written back out as a scenario file
    defaulted = {
        "kind": cfg.kind,
        "seed": cfg.seed,
        "output": {**dataclasses.asdict(cfg.output), "directory": str(cfg.output.directory)},
        "parameters": cfg.parameters,
    }
    assert parse_config(json.loads(json.dumps(defaulted))) == cfg


def test_typed_builders():
    dyn = competition_params_from(
        {
            "healthy_rate": 3.0,
            "cancer_rate": 0.6,
            "shared_capacity": 7e5,
            "competition_coeff": 5.5e-8,
        }
    )
    assert dyn.competition_coeff == 5.5e-8
    ctl = control_params_from(
        {"healthy_kill_coeff": 0.025, "cancer_kill_coeff": 0.189}
    )
    assert ctl.max_intensity == 1.0
    plan = plan_from(
        {"session_starts": [0, 20], "session_duration": 0.2, "session_dose": 8}
    )
    assert plan.session_starts == (0.0, 20.0)
    assert plan.dose_per_session == 8.0


def test_cost_model_merges_with_derived_scales():
    dyn = competition_params_from(
        {
            "healthy_rate": 3.0,
            "cancer_rate": 0.6,
            "shared_capacity": 7e5,
            "competition_coeff": 5.5e-8,
        }
    )
    derived = cost_model_from(None, dyn)
    assert derived.healthy_scale == 7e5
    assert derived.cancer_scale == pytest.approx(70.0)
    assert derived.control_weight == 1.0
    partial = cost_model_from({"control_weight": 4.0}, dyn)
    assert partial.healthy_scale == 7e5
    assert partial.control_weight == 4.0


def test_shipped_example_configs_validate():
    config_dir = Path(__file__).resolve().parent.parent / "configs"
    paths = sorted(config_dir.glob("*.json"))
    assert len(paths) == 8
    kinds = {load_config(path).kind for path in paths}
    assert kinds == {
        "growth",
        "fractionated",
        "competition",
        "equilibria",
        "constant-control",
        "ocp",
        "dose-report",
        "phase-portrait",
    }


def test_ocp_setup_defaults():
    setup = ocp_setup_from(
        {
            "dynamics": {
                "healthy_rate": 3.0,
                "cancer_rate": 0.6,
                "shared_capacity": 7e5,
                "competition_coeff": 5.5e-8,
            },
            "control": {"healthy_kill_coeff": 0.025, "cancer_kill_coeff": 0.189},
            "initial": {"healthy": 6.3e5, "cancer": 0.7e5},
        }
    )
    assert setup.horizon == 100.0
    assert setup.n_intervals == 200
    assert setup.refine == 4
    assert setup.cost.cancer_scale == pytest.approx(70.0)
