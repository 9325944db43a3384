"""Scenario configuration: JSON loading, schema validation, defaults.

A scenario file is a single JSON object with a ``kind`` discriminator, an
optional ``seed`` and ``output`` block, and a kind-specific ``parameters``
block.  The shipped schema.json is the authority on field names, bounds
and defaults; this module validates against it with one recursive walk
over the JSON Schema keywords the schema uses, which fills in the
defaults it declares as it descends and reports the errors jsonschema
would (a test holds the two to the same verdicts), and converts the
result into the typed parameter objects of the library modules.  A
keyword the walk does not know raises instead of passing unchecked.  Unknown keys are rejected everywhere, so a typo fails loudly
instead of silently running with a default.  Integer fields are written
without a decimal point: 501 is an integer, 501.0 is a config error.

A block whose fields are those of a dataclass is unpacked by calling its
constructor directly (``CompetitionParams(**block)``); the converters
kept here hide a conversion or a merge.  None restates a default: the
schema owns the defaults, and a key missing from a partial dict built by
hand falls through to the dataclass default.  A test keeps the schema's
property names and defaults equal to the dataclass fields and solver
keywords they are unpacked into.
"""

from __future__ import annotations

import copy
import json
import math
import operator
from dataclasses import dataclass, fields, replace
from functools import lru_cache, reduce
from importlib import resources
from pathlib import Path

from .competition_dynamics import CompetitionParams, ControlParams, State
from .errors import ConfigError
from .growth_models import GrowthParams
from .lq_radiotherapy import FractionationPlan
from .optimal_control import CostModel, OCPSetup

@lru_cache(maxsize=1)
def _schema() -> dict:
    text = resources.files("oncocontrol").joinpath("schema.json").read_text()
    return json.loads(text)


# ---------------------------------------------------------------------------
# schema walk: the JSON Schema keywords schema.json uses, and no others
# ---------------------------------------------------------------------------

# keywords that describe a schema and constrain nothing
_ANNOTATIONS = {"$schema", "$defs", "title", "description", "default"}
_KEYWORDS = _ANNOTATIONS | {
    "type", "enum", "$ref", "properties", "additionalProperties", "required",
    "minimum", "exclusiveMinimum", "maximum", "items", "minItems", "uniqueItems",
}

_TYPES = {
    "object": dict, "array": list, "string": str, "boolean": bool,
    "number": (int, float), "integer": int,
}


def _is(instance, type_name: str) -> bool:
    # bool is an int to Python but not to JSON; and JSON Schema counts
    # 501.0 as an integer, but range() and np.linspace do not, so an
    # integer field must be written without a decimal point
    return isinstance(instance, _TYPES[type_name]) and (
        type_name == "boolean" or not isinstance(instance, bool)
    )


# bound keyword -> (the test an instance fails it by, the failure's wording)
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
}


def _equal(a, b) -> bool:
    """JSON equality: true is not 1, inside arrays and objects too."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(v, b[k]) for k, v in a.items())
    return a is b or (a == b and isinstance(a, bool) == isinstance(b, bool))


def _errors(instance, schema: dict, root: dict, path: list):
    """Yield (path, message) for each keyword of schema that instance
    breaks, in schema order; $ref resolves in root.  A missing property
    that declares a default is filled in before the walk descends into it,
    so a defaulted block such as "fbsm": {} is filled in turn.  A keyword
    outside _KEYWORDS, or an additionalProperties other than false, raises
    NotImplementedError: it would otherwise pass unchecked."""
    is_object, is_array = isinstance(instance, dict), isinstance(instance, list)
    for key, want in schema.items():
        if key not in _KEYWORDS or (key == "additionalProperties" and want is not False):
            raise NotImplementedError(f"schema keyword {key}: {want!r} is not supported")
        if key == "$ref":
            target = reduce(operator.getitem, want.removeprefix("#/").split("/"), root)
            yield from _errors(instance, target, root, path)
        elif key == "type":
            if isinstance(instance, float) and not math.isfinite(instance):
                # load_config rejects NaN and Infinity as it parses, but a
                # dict handed to parse_config can still hold them
                yield path, f"{instance!r} is not a finite number"
            elif not _is(instance, want):
                yield path, f"{instance!r} is not of type {want!r}"
        elif key == "enum":
            if not any(_equal(each, instance) for each in want):
                yield path, f"{instance!r} is not one of {want!r}"
        elif key in _BOUNDS:
            fails, wording = _BOUNDS[key]
            if _is(instance, "number") and fails(instance, want):
                yield path, f"{instance!r} is {wording} {want!r}"
        elif key == "properties" and is_object:
            for name, sub in want.items():
                if name not in instance and "default" in sub:
                    instance[name] = copy.deepcopy(sub["default"])
                if name in instance:
                    yield from _errors(instance[name], sub, root, [*path, name])
        elif key == "additionalProperties" and is_object:
            extras = sorted(set(instance) - set(schema.get("properties", ())), key=str)
            if extras:
                verb = "was" if len(extras) == 1 else "were"
                listed = ", ".join(map(repr, extras))
                yield path, f"Additional properties are not allowed ({listed} {verb} unexpected)"
        elif key == "required" and is_object:
            for name in want:
                if name not in instance:
                    yield path, f"{name!r} is a required property"
        elif key == "items" and is_array:
            for index, item in enumerate(instance):
                yield from _errors(item, want, root, [*path, index])
        elif key == "minItems" and is_array and len(instance) < want:
            yield path, f"{instance!r} " + ("should be non-empty" if want == 1 else "is too short")
        elif key == "uniqueItems" and is_array and want and any(
            _equal(a, b) for i, a in enumerate(instance) for b in instance[i + 1:]
        ):
            yield path, f"{instance!r} has non-unique elements"


def _validate(instance, schema: dict, root: dict, prefix: str = "") -> None:
    """Fill the defaults of schema into instance; raise ConfigError naming
    the shallowest error as `path: message`, the first of its depth in
    path order."""
    errors = list(_errors(instance, schema, root, []))
    if errors:
        path, message = min(errors, key=lambda e: (len(e[0]), str(e[0])))
        where = "/".join(map(str, path)) or "<root>"
        raise ConfigError(f"{prefix}{where}: {message}")


@dataclass(frozen=True)
class OutputOptions:
    directory: Path
    csv: bool
    json: bool
    stride: int


@dataclass
class ScenarioConfig:
    """Validated, fully defaulted scenario."""

    kind: str
    seed: int
    output: OutputOptions
    parameters: dict


def parse_config(raw: dict) -> ScenarioConfig:
    """Validate a parsed JSON object and fill in all defaults."""
    schema = _schema()
    data = copy.deepcopy(raw)
    _validate(data, schema, schema)
    kind = data["kind"]
    _validate(data["parameters"], {"$ref": f"#/$defs/parameters/{kind}"}, schema, "parameters/")

    out = data["output"]
    return ScenarioConfig(
        kind=kind,
        seed=data["seed"],
        output=OutputOptions(
            directory=Path(out["directory"]),
            csv=out["csv"],
            json=out["json"],
            stride=out["stride"],
        ),
        parameters=data["parameters"],
    )


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc

    def reject(constant: str):
        # json accepts NaN and Infinity, which no schema bound rejects
        raise ConfigError(f"{path}: {constant} is not a JSON number")

    try:
        raw = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return parse_config(raw)


# ---------------------------------------------------------------------------
# dict -> typed parameter objects
# ---------------------------------------------------------------------------

def _fields_of(cls, d: dict) -> dict:
    """The entries of d that name fields of the dataclass cls."""
    names = {f.name for f in fields(cls)}
    return {k: v for k, v in d.items() if k in names}


def cost_model_from(d: dict | None, dynamics: CompetitionParams) -> CostModel:
    """Cost scales derived from the dynamics, overridden by those given."""
    return replace(CostModel.for_dynamics(dynamics), **(d or {}))


def growth_params_from(d: dict) -> GrowthParams:
    return GrowthParams(**_fields_of(GrowthParams, d))


def plan_from(d: dict) -> FractionationPlan:
    starts = tuple(float(s) for s in d["session_starts"])
    return FractionationPlan(**{**d, "session_starts": starts})


def ocp_setup_from(params: dict) -> OCPSetup:
    """OCPSetup from an ocp or dose-report parameter block; the grid fields
    (horizon, n_intervals, refine) are taken by name when present."""
    dynamics = CompetitionParams(**params["dynamics"])
    return OCPSetup(
        **{
            **_fields_of(OCPSetup, params),
            "dynamics": dynamics,
            "control": ControlParams(**params["control"]),
            "initial": State(**params["initial"]),
            "cost": cost_model_from(params.get("cost"), dynamics),
        }
    )
