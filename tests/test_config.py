"""Scenario file validation, defaulting, and typed conversion."""

import dataclasses
import inspect
import json
import math
from importlib import resources
from pathlib import Path

import pytest

from oncocontrol import (
    CompetitionParams,
    ControlParams,
    CostModel,
    FractionationPlan,
    GrowthParams,
    LQParams,
    OCPSetup,
    PiecewiseGrowthParams,
    State,
    solve_direct,
    solve_fbsm,
)
from oncocontrol.config import (
    load_config,
    parse_config,
    cost_model_from,
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


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize(
    "block, given",
    [(None, {}), ({}, {}), ({"tol": 1e-8}, {"tol": 1e-8})],
    ids=["absent", "empty", "partial"],
)
def test_defaulted_block_fills_its_missing_keys(block, given):
    raw = json.loads((CONFIGS / "ocp.json").read_text())
    if block is not None:
        raw["parameters"]["fbsm"] = block
    cfg = parse_config(raw)
    properties = SCHEMA["$defs"]["fbsm_options"]["properties"]
    defaults = {name: p["default"] for name, p in properties.items()}
    assert cfg.parameters["fbsm"] == {**defaults, **given}
    assert raw["parameters"].get("fbsm") == block  # the caller's dict is not filled


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "infinity"])
def test_non_finite_numbers_in_a_dict_are_config_errors(value):
    # load_config rejects the JSON literals while parsing; a dict handed to
    # parse_config can still hold them
    raw = json.loads((CONFIGS / "competition.json").read_text())
    raw["parameters"]["dynamics"]["shared_capacity"] = value
    with pytest.raises(ConfigError) as info:
        parse_config(raw)
    assert str(info.value) == (
        f"parameters/dynamics/shared_capacity: {value!r} is not a finite number"
    )


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
    dyn = CompetitionParams(
        **{
            "healthy_rate": 3.0,
            "cancer_rate": 0.6,
            "shared_capacity": 7e5,
            "competition_coeff": 5.5e-8,
        }
    )
    assert dyn.competition_coeff == 5.5e-8
    ctl = ControlParams(**{"healthy_kill_coeff": 0.025, "cancer_kill_coeff": 0.189})
    assert ctl.max_intensity == 1.0
    plan = plan_from(
        {"session_starts": [0, 20], "session_duration": 0.2, "session_dose": 8}
    )
    assert plan.session_starts == (0.0, 20.0)
    assert plan.dose_per_session == 8.0


def test_cost_model_merges_with_derived_scales():
    dyn = CompetitionParams(
        **{
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
    paths = sorted(CONFIGS.glob("*.json"))
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


# ---------------------------------------------------------------------------
# schema <-> library contract: the converters and the CLI unpack validated
# blocks by name into these callables, so names and defaults must agree
# ---------------------------------------------------------------------------

SCHEMA = json.loads(resources.files("oncocontrol").joinpath("schema.json").read_text())

BLOCK_TARGETS = {
    "dynamics": CompetitionParams,
    "control": ControlParams,
    "state": State,
    "lq": LQParams,
    "piecewise_growth": PiecewiseGrowthParams,
    "plan": FractionationPlan,
    "cost": CostModel,
    "fbsm_options": solve_fbsm,
    "direct_options": solve_direct,
}


def library_keywords(target) -> dict:
    """Keyword -> default of a dataclass or a solver (whose first
    parameter, the setup, is not part of the block)."""
    params = list(inspect.signature(target).parameters.values())
    if not dataclasses.is_dataclass(target):
        params = params[1:]
    return {p.name: p.default for p in params}


def assert_defaults_agree(properties: dict, keywords: dict, names) -> None:
    for name in names:
        library = keywords[name]
        if "default" in properties[name]:
            assert properties[name]["default"] == library, name
        else:
            # absent from the schema means "not given": the library must
            # require it or treat it as None
            assert library is inspect.Parameter.empty or library is None, name


@pytest.mark.parametrize("block", sorted(BLOCK_TARGETS))
def test_schema_blocks_match_library_keywords(block):
    schema = SCHEMA["$defs"][block]
    keywords = library_keywords(BLOCK_TARGETS[block])
    assert set(schema["properties"]) == set(keywords)
    assert_defaults_agree(schema["properties"], keywords, keywords)
    for name in schema.get("required", []):
        assert keywords[name] is inspect.Parameter.empty, name


@pytest.mark.parametrize(
    "kind, target, names",
    [
        ("ocp", OCPSetup, ("horizon", "n_intervals", "refine")),
        ("dose-report", OCPSetup, ("horizon", "n_intervals", "refine")),
        ("growth", GrowthParams, [f.name for f in dataclasses.fields(GrowthParams)]),
    ],
)
def test_schema_kind_fields_match_library_keywords(kind, target, names):
    # the converters pick these fields out of a wider parameter block by
    # name; a field the schema lacks would silently take its default
    properties = SCHEMA["$defs"]["parameters"][kind]["properties"]
    assert set(names) <= set(properties)
    assert_defaults_agree(properties, library_keywords(target), names)
