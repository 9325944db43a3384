"""Scenario file validation, defaulting, and typed conversion."""

import copy
import dataclasses
import inspect
import json
import math
import random
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
from oncocontrol import config
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


# ---------------------------------------------------------------------------
# the schema walk against jsonschema, kept as the oracle
# ---------------------------------------------------------------------------

def defaulted(cfg) -> dict:
    """A parsed config as the document it was filled into."""
    output = {**dataclasses.asdict(cfg.output), "directory": str(cfg.output.directory)}
    return {"kind": cfg.kind, "seed": cfg.seed, "output": output, "parameters": cfg.parameters}


def oracle_validator(jsonschema):
    """jsonschema's Draft 2020-12 validator, extended to fill defaults as
    it descends, to fail non-finite floats and to refuse 501.0 as an
    integer."""
    base = jsonschema.Draft202012Validator

    def properties(validator, properties, instance, schema):
        if validator.is_type(instance, "object"):
            for name, sub in properties.items():
                if "default" in sub and name not in instance:
                    instance[name] = copy.deepcopy(sub["default"])
        yield from base.VALIDATORS["properties"](validator, properties, instance, schema)

    def finite_type(validator, types, instance, schema):
        if isinstance(instance, float) and not math.isfinite(instance):
            yield jsonschema.ValidationError(f"{instance!r} is not a finite number")
        else:
            yield from base.VALIDATORS["type"](validator, types, instance, schema)

    return jsonschema.validators.extend(
        base,
        {"properties": properties, "type": finite_type},
        type_checker=base.TYPE_CHECKER.redefine(
            "integer", lambda _, v: isinstance(v, int) and not isinstance(v, bool)
        ),
    )


def oracle_parse(validator, raw: dict):
    """(error line, None) or (None, filled document) from the oracle
    validator, in the same two passes and with the same choice of error as
    parse_config."""

    def first_error(errors) -> tuple[str, str]:
        err = min(errors, key=lambda e: (len(e.absolute_path), str(e.absolute_path)))
        return "/".join(str(p) for p in err.absolute_path) or "<root>", err.message

    data = copy.deepcopy(raw)
    errors = list(validator(SCHEMA).iter_errors(data))
    if errors:
        return "{}: {}".format(*first_error(errors)), None
    params = {"$ref": f"#/$defs/parameters/{data['kind']}", "$defs": SCHEMA["$defs"]}
    errors = list(validator(params).iter_errors(data["parameters"]))
    if errors:
        return "parameters/{}: {}".format(*first_error(errors)), None
    return None, data


def node_paths(node, prefix=()):
    yield prefix
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from node_paths(child, (*prefix, key))


def is_number(path, v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_key(path, v) -> bool:
    return bool(path) and isinstance(path[-1], str)


DELETE = object()

# mutation -> (the nodes it applies to, the replacement or DELETE)
MUTATIONS = {
    "removed key": (is_key, lambda v, rng: DELETE),
    "unknown keys": (
        lambda path, v: isinstance(v, dict),
        lambda v, rng: {**v, **dict.fromkeys(rng.choice([["knob"], ["knob", "Extra"]]), 1)},
    ),
    "wrong type": (
        lambda path, v: bool(path),
        lambda v, rng: rng.choice(["text", [], {}, True, None, 7, 2.5, "growth"]),
    ),
    "integer as float": (
        lambda path, v: is_number(path, v) and isinstance(v, int), lambda v, rng: float(v)
    ),
    "non-finite": (is_number, lambda v, rng: rng.choice([math.nan, math.inf, -math.inf])),
    "past a bound": (is_number, lambda v, rng: rng.choice([-1, -1.0, 0, 0.0, v + 1, 1e300])),
    "empty array": (lambda path, v: isinstance(v, list), lambda v, rng: []),
    "duplicate item": (lambda path, v: isinstance(v, list) and v, lambda v, rng: [*v, v[0]]),
}


def mutation_corpus(seed: int = 1, per_mutation: int = 3) -> list[dict]:
    """The shipped configs, raw and defaulted, and seeded mutations of
    each: per_mutation nodes for each mutation, but every number for a
    bound, since few fields have a maximum."""
    rng = random.Random(seed)
    bases = [json.loads(path.read_text()) for path in sorted(CONFIGS.glob("*.json"))]
    bases += [defaulted(parse_config(raw)) for raw in bases]
    corpus = list(bases)
    for base in bases:
        for name, (applies, replace) in MUTATIONS.items():
            paths = [p for p in node_paths(base) if applies(p, lookup(base, p))]
            count = len(paths) if name == "past a bound" else min(per_mutation, len(paths))
            for path in rng.sample(paths, count):
                doc = copy.deepcopy(base)
                new = replace(lookup(doc, path), rng)
                if not path:
                    doc = new
                elif new is DELETE:
                    del lookup(doc, path[:-1])[path[-1]]
                else:
                    lookup(doc, path[:-1])[path[-1]] = new
                corpus.append(doc)
    return corpus


def lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def test_schema_walk_agrees_with_jsonschema():
    jsonschema = pytest.importorskip(
        "jsonschema", reason="jsonschema, the oracle for the schema walk, is not installed"
    )
    validator = oracle_validator(jsonschema)
    corpus = mutation_corpus()
    messages = []
    for raw in corpus:
        expected_error, expected_doc = oracle_parse(validator, raw)
        try:
            got = None, defaulted(parse_config(raw))
        except ConfigError as exc:
            got = str(exc), None
        assert got == (expected_error, expected_doc), raw
        messages.append(expected_error)
    # the corpus reaches every kind of failure the schema can report
    rejected = [m for m in messages if m is not None]
    assert 0.5 * len(corpus) < len(rejected) < len(corpus)
    for text in (
        "is a required property", "were unexpected", "was unexpected",
        "is not of type 'integer'", "is not of type 'object'", "is not one of",
        "is not a finite number", "is less than the minimum of",
        "is less than or equal to the minimum of", "is greater than the maximum of",
        "should be non-empty", "has non-unique elements",
    ):
        assert any(text in m for m in rejected), text


def test_a_schema_keyword_outside_the_walk_raises(monkeypatch):
    schema = copy.deepcopy(SCHEMA)
    schema["properties"]["kind"]["pattern"] = "^[a-z-]+$"
    monkeypatch.setattr(config, "_schema", lambda: schema)
    with pytest.raises(NotImplementedError, match="pattern"):
        parse_config(growth_raw())
