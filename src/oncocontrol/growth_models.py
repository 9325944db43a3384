"""Closed-form tumour growth laws.

Three classical single-population laws, each evaluated directly from its
analytic solution rather than by integrating an ODE:

  exponential   N(t) = N0 * 2**((t - t0) / doubling_time)
  gompertz      N(t) = N0 * exp(cap * (1 - exp(-ret * (t - t0))))
  verhulst      N(t) = K / (1 + (K / N0 - 1) * exp(-rate * (t - t0)))

The Verhulst form above is algebraically identical to the usual
N0*K*e^{rt}/(K + N0*(e^{rt} - 1)) but never evaluates a growing
exponential, so it cannot overflow at large t.

All evaluators accept a scalar time or an array of times and return a
matching scalar or array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

@dataclass(frozen=True)
class GrowthParams:
    """Parameter bag for the growth laws.

    Only ``initial_count`` is always required; each law checks for the
    fields it needs and rejects evaluation when they are missing.
    """

    initial_count: float            # cells at start_time
    start_time: float = 0.0         # days
    doubling_time: float | None = None   # days, exponential law
    log_fold_cap: float | None = None    # dimensionless, gompertz: asymptote is N0*exp(cap)
    retardation_rate: float | None = None  # 1/day, gompertz slowdown
    rate: float | None = None            # 1/day, verhulst intrinsic rate
    capacity: float | None = None        # cells, verhulst carrying capacity

    def __post_init__(self) -> None:
        if not (self.initial_count > 0.0):
            raise ConfigError("initial_count must be positive")
        for name in ("doubling_time", "retardation_rate", "rate", "capacity"):
            value = getattr(self, name)
            if value is not None and not (value > 0.0):
                raise ConfigError(f"{name} must be positive when given")
        if self.log_fold_cap is not None and not np.isfinite(self.log_fold_cap):
            raise ConfigError("log_fold_cap must be finite")


def _elapsed(params: GrowthParams, t):
    """Return t - start_time as an ndarray, rejecting times before start."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr < params.start_time):
        raise ValueError(
            f"time {np.min(arr):g} precedes start_time {params.start_time:g}"
        )
    return arr - params.start_time


def _finite(what: str, value):
    # a value past the float range is a modelling error, not one worth
    # returning as inf; callers compute it under np.errstate(all="ignore")
    if not np.all(np.isfinite(value)):
        raise OverflowError(f"{what} leaves the float range")
    return value


def _shaped(result, t):
    # scalar in, scalar out
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(result)
    return result


def _require(params: GrowthParams, law: str, *names: str) -> None:
    missing = [n for n in names if getattr(params, n) is None]
    if missing:
        raise ConfigError(f"{law} law needs {', '.join(missing)}")


def exponential(params: GrowthParams, t):
    """Doubling-time growth, unbounded."""
    _require(params, "exponential", "doubling_time")
    dt = _elapsed(params, t)
    with np.errstate(all="ignore"):
        value = params.initial_count * np.exp(np.log(2.0) * dt / params.doubling_time)
    return _shaped(_finite("exponential law", value), t)


def gompertz(params: GrowthParams, t):
    """Self-limiting growth with exponentially decaying specific rate.

    The specific growth rate decays like exp(-retardation_rate * t), so the
    population saturates at initial_count * exp(log_fold_cap).
    """
    _require(params, "gompertz", "log_fold_cap", "retardation_rate")
    dt = _elapsed(params, t)
    with np.errstate(all="ignore"):
        exponent = params.log_fold_cap * (1.0 - np.exp(-params.retardation_rate * dt))
        value = params.initial_count * np.exp(exponent)
    return _shaped(_finite("gompertz law", value), t)


def verhulst(params: GrowthParams, t):
    """Logistic growth toward a hard carrying capacity."""
    _require(params, "verhulst", "rate", "capacity")
    dt = _elapsed(params, t)
    coeff = params.capacity / params.initial_count - 1.0
    with np.errstate(all="ignore"):
        value = params.capacity / (1.0 + coeff * np.exp(-params.rate * dt))
    return _shaped(_finite("verhulst law", value), t)


def gompertz_asymptote(params: GrowthParams) -> float:
    """Limit of the gompertz law as t grows without bound."""
    _require(params, "gompertz", "log_fold_cap")
    with np.errstate(all="ignore"):
        value = params.initial_count * np.exp(params.log_fold_cap)
    return float(_finite("gompertz asymptote", value))
