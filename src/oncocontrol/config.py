"""Scenario configuration: JSON loading, schema validation, defaults.

A scenario file is a single JSON object with a ``kind`` discriminator, an
optional ``seed`` and ``output`` block, and a kind-specific ``parameters``
block.  The shipped schema.json is the authority on field names, bounds
and defaults; this module validates against it, fills in the defaults it
declares, and converts the result into the typed parameter objects of the
library modules.  Unknown keys are rejected everywhere, so a typo fails
loudly instead of silently running with a default.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

import jsonschema

from .competition_dynamics import CompetitionParams, ControlParams, State
from .errors import ConfigError
from .growth_models import GrowthParams
from .lq_radiotherapy import FractionationPlan, LQParams, PiecewiseGrowthParams
from .optimal_control import CostModel, OCPSetup

KINDS = (
    "growth",
    "fractionated",
    "competition",
    "equilibria",
    "constant-control",
    "ocp",
    "dose-report",
    "phase-portrait",
)


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
    try:
        raw = json.loads(text)
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

def competition_params_from(d: dict) -> CompetitionParams:
    return CompetitionParams(
        healthy_rate=d["healthy_rate"],
        cancer_rate=d["cancer_rate"],
        shared_capacity=d["shared_capacity"],
        healthy_capacity=d.get("healthy_capacity"),
        cancer_capacity=d.get("cancer_capacity"),
        competition_coeff=d.get("competition_coeff", 0.0),
    )


def control_params_from(d: dict) -> ControlParams:
    return ControlParams(
        healthy_kill_coeff=d["healthy_kill_coeff"],
        cancer_kill_coeff=d["cancer_kill_coeff"],
        max_intensity=d.get("max_intensity", 1.0),
    )


def state_from(d: dict) -> State:
    return State(healthy=d["healthy"], cancer=d["cancer"])


def cost_model_from(d: dict | None, dynamics: CompetitionParams) -> CostModel:
    derived = CostModel.for_dynamics(dynamics)
    if not d:
        return derived
    return CostModel(
        healthy_scale=d.get("healthy_scale", derived.healthy_scale),
        cancer_scale=d.get("cancer_scale", derived.cancer_scale),
        control_weight=d.get("control_weight", derived.control_weight),
    )


def growth_params_from(d: dict) -> GrowthParams:
    return GrowthParams(
        initial_count=d["initial_count"],
        start_time=d.get("start_time", 0.0),
        doubling_time=d.get("doubling_time"),
        log_fold_cap=d.get("log_fold_cap"),
        retardation_rate=d.get("retardation_rate"),
        rate=d.get("rate"),
        capacity=d.get("capacity"),
    )


def lq_params_from(d: dict) -> LQParams:
    return LQParams(alpha=d["alpha"], beta=d["beta"])


def piecewise_growth_from(d: dict) -> PiecewiseGrowthParams:
    return PiecewiseGrowthParams(
        free_healthy_rate=d["free_healthy_rate"],
        free_cancer_rate=d["free_cancer_rate"],
        competition_cancer_rate=d["competition_cancer_rate"],
        capacity=d["capacity"],
        initial_cancer=d["initial_cancer"],
        initial_healthy=d["initial_healthy"],
        competition_trigger=d.get("competition_trigger", 0.95),
    )


def plan_from(d: dict) -> FractionationPlan:
    return FractionationPlan(
        session_starts=tuple(float(s) for s in d["session_starts"]),
        session_duration=d["session_duration"],
        dose_rate=d.get("dose_rate"),
        session_dose=d.get("session_dose"),
        eradication_threshold=d.get("eradication_threshold"),
    )


def ocp_setup_from(params: dict) -> OCPSetup:
    dynamics = competition_params_from(params["dynamics"])
    return OCPSetup(
        dynamics=dynamics,
        control=control_params_from(params["control"]),
        initial=state_from(params["initial"]),
        horizon=params.get("horizon", 100.0),
        n_intervals=params.get("n_intervals", 200),
        refine=params.get("refine", 4),
        cost=cost_model_from(params.get("cost"), dynamics),
    )
