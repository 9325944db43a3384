"""Scenario configuration: JSON loading, schema validation, defaults.

A scenario file is a single JSON object with a ``kind`` discriminator, an
optional ``seed`` and ``output`` block, and a kind-specific ``parameters``
block.  The shipped schema.json is the authority on field names, bounds
and defaults; this module validates against it, fills in the defaults it
declares, and converts the result into the typed parameter objects of the
library modules.  Unknown keys are rejected everywhere, so a typo fails
loudly instead of silently running with a default.

The converters unpack each validated block by field name and restate no
default: the schema owns the defaults, and a key missing from a partial
dict built by hand falls through to the dataclass default.  A test keeps
the schema's property names and defaults equal to the dataclass fields
and solver keywords they are unpacked into.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path

import jsonschema

from .competition_dynamics import CompetitionParams, ControlParams, State
from .errors import ConfigError
from .growth_models import GrowthParams
from .lq_radiotherapy import FractionationPlan, LQParams, PiecewiseGrowthParams
from .optimal_control import CostModel, OCPSetup

@lru_cache(maxsize=1)
def _schema() -> dict:
    text = resources.files("oncocontrol").joinpath("schema.json").read_text()
    return json.loads(text)


def _resolve_ref(ref: str, root: dict) -> dict:
    if not ref.startswith("#/"):
        raise ConfigError(f"unsupported schema reference {ref!r}")
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def _apply_defaults(instance, schema: dict, root: dict) -> None:
    """Fill missing keys with schema defaults, recursing into objects."""
    if "$ref" in schema:
        schema = _resolve_ref(schema["$ref"], root)
    if not isinstance(instance, dict):
        if isinstance(instance, list):
            item_schema = schema.get("items")
            if isinstance(item_schema, dict):
                for element in instance:
                    _apply_defaults(element, item_schema, root)
        return
    for name, sub in schema.get("properties", {}).items():
        resolved = _resolve_ref(sub["$ref"], root) if "$ref" in sub else sub
        if name not in instance and "default" in sub:
            instance[name] = copy.deepcopy(sub["default"])
        elif name not in instance and "default" in resolved:
            instance[name] = copy.deepcopy(resolved["default"])
        if name in instance:
            _apply_defaults(instance[name], sub, root)


def _first_error(errors) -> str:
    picked = sorted(errors, key=lambda e: (len(e.absolute_path), str(e.absolute_path)))
    if not picked:
        return "invalid configuration"
    err = picked[0]
    where = "/".join(str(p) for p in err.absolute_path) or "<root>"
    return f"{where}: {err.message}"


@dataclass(frozen=True)
class OutputOptions:
    directory: Path
    csv: bool = True
    json: bool = True
    stride: int = 1


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
    validator = jsonschema.Draft202012Validator(schema)
    errors = list(validator.iter_errors(raw))
    if errors:
        raise ConfigError(_first_error(errors))

    data = copy.deepcopy(raw)
    _apply_defaults(data, schema, schema)

    kind = data["kind"]
    param_schema = {"$ref": f"#/$defs/parameters/{kind}", "$defs": schema["$defs"]}
    param_validator = jsonschema.Draft202012Validator(param_schema)
    errors = list(param_validator.iter_errors(data["parameters"]))
    if errors:
        raise ConfigError(f"parameters/{_first_error(errors)}")
    _apply_defaults(
        data["parameters"], schema["$defs"]["parameters"][kind], schema
    )

    out = data["output"]
    return ScenarioConfig(
        kind=kind,
        seed=int(data["seed"]),
        output=OutputOptions(
            directory=Path(out["directory"]),
            csv=bool(out["csv"]),
            json=bool(out["json"]),
            stride=int(out["stride"]),
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


def competition_params_from(d: dict) -> CompetitionParams:
    return CompetitionParams(**d)


def control_params_from(d: dict) -> ControlParams:
    return ControlParams(**d)


def state_from(d: dict) -> State:
    return State(**d)


def cost_model_from(d: dict | None, dynamics: CompetitionParams) -> CostModel:
    """Cost scales derived from the dynamics, overridden by those given."""
    return replace(CostModel.for_dynamics(dynamics), **(d or {}))


def growth_params_from(d: dict) -> GrowthParams:
    return GrowthParams(**_fields_of(GrowthParams, d))


def lq_params_from(d: dict) -> LQParams:
    return LQParams(**d)


def piecewise_growth_from(d: dict) -> PiecewiseGrowthParams:
    return PiecewiseGrowthParams(**d)


def plan_from(d: dict) -> FractionationPlan:
    starts = tuple(float(s) for s in d["session_starts"])
    return FractionationPlan(**{**d, "session_starts": starts})


def ocp_setup_from(params: dict) -> OCPSetup:
    """OCPSetup from an ocp or dose-report parameter block; the grid fields
    (horizon, n_intervals, refine) are taken by name when present."""
    dynamics = competition_params_from(params["dynamics"])
    return OCPSetup(
        **{
            **_fields_of(OCPSetup, params),
            "dynamics": dynamics,
            "control": control_params_from(params["control"]),
            "initial": state_from(params["initial"]),
            "cost": cost_model_from(params.get("cost"), dynamics),
        }
    )
