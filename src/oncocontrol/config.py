"""Scenario configuration: JSON loading, schema validation, defaults.

A scenario file is a single JSON object with a ``kind`` discriminator, an
optional ``seed`` and ``output`` block, and a kind-specific ``parameters``
block.  The shipped schema.json is the authority on field names, bounds
and defaults; this module validates against it with a jsonschema
validator that fills in the defaults it declares as it descends, and
converts the result into the typed parameter objects of the library
modules.  Unknown keys are rejected everywhere, so a typo fails loudly
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
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path

import jsonschema

from .competition_dynamics import CompetitionParams, ControlParams, State
from .errors import ConfigError
from .growth_models import GrowthParams
from .lq_radiotherapy import FractionationPlan
from .optimal_control import CostModel, OCPSetup

@lru_cache(maxsize=1)
def _schema() -> dict:
    text = resources.files("oncocontrol").joinpath("schema.json").read_text()
    return json.loads(text)


_BASE = jsonschema.Draft202012Validator


def _properties_with_defaults(validator, properties, instance, schema):
    # jsonschema's recipe for defaults: fill each missing property before
    # descending, so a defaulted block such as "fbsm": {} is filled in turn
    if validator.is_type(instance, "object"):
        for name, sub in properties.items():
            if "default" in sub and name not in instance:
                instance[name] = copy.deepcopy(sub["default"])
    yield from _BASE.VALIDATORS["properties"](validator, properties, instance, schema)


def _finite_type(validator, types, instance, schema):
    # load_config rejects NaN and Infinity literals as it parses, but a dict
    # handed to parse_config can still hold them, and no schema bound does
    if isinstance(instance, float) and not math.isfinite(instance):
        yield jsonschema.ValidationError(f"{instance!r} is not a finite number")
    else:
        yield from _BASE.VALIDATORS["type"](validator, types, instance, schema)


def _is_integer(checker, instance) -> bool:
    # JSON Schema counts 501.0 as an integer, but range() and np.linspace
    # do not, so an integer field must be written without a decimal point
    return isinstance(instance, int) and not isinstance(instance, bool)


_Validator = jsonschema.validators.extend(
    _BASE,
    {"properties": _properties_with_defaults, "type": _finite_type},
    type_checker=_BASE.TYPE_CHECKER.redefine("integer", _is_integer),
)


def _first_error(errors) -> str:
    err = min(errors, key=lambda e: (len(e.absolute_path), str(e.absolute_path)))
    where = "/".join(str(p) for p in err.absolute_path) or "<root>"
    return f"{where}: {err.message}"


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
    errors = list(_Validator(schema).iter_errors(data))
    if errors:
        raise ConfigError(_first_error(errors))

    kind = data["kind"]
    param_schema = {"$ref": f"#/$defs/parameters/{kind}", "$defs": schema["$defs"]}
    errors = list(_Validator(param_schema).iter_errors(data["parameters"]))
    if errors:
        raise ConfigError(f"parameters/{_first_error(errors)}")

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
