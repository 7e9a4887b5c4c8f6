"""Flat key-value experiment configuration.

Config files are plain text, one `key = value` per line, dotted keys,
'#' comments. Unknown keys are rejected to catch typos, and COMMAND_KEYS
names the keys each subcommand reads; a key it reads on some inputs only
(predictor.poly.* under kriging) is named. Values stay strings until a
consumer coerces them; serialization round-trips.
"""

from __future__ import annotations

import math
import shlex

from .errors import ConfigError

_DESIGN_KEYS = (
    "seed",
    "design.file",
    "design.generator",
    "design.d",
    "design.n",
    "design.per_axis",
    "design.seed",
    "design.relaxation",
    "design.candidates_log2",
)
_INPUT_KEYS = _DESIGN_KEYS + (
    "data.file",
    "function.name",
    "measure.sobol_n",
    "measure.seed",
    "measure.file",
    "predictor.variant",
    "predictor.kernel.family",
    "predictor.kernel.theta",
    "predictor.kernel.nugget",
    "predictor.poly.m",
    "predictor.poly.scale",
    "predictor.poly.decay",
    "predictor.poly.noise",
    "predictor.weights_file",
    "predictor.loo_file",
    "estimator.kernel.family",
    "estimator.kernel.nugget",
    "estimator.clamp",
)
COMMAND_KEYS = {
    "estimate": frozenset(_INPUT_KEYS + (
        "estimator.kernel.theta",
        "estimator.mixture.families",
        "estimator.mixture.thetas",
        "estimator.mixture.weights",
        "trend.mode",
    )),
    "sweep": frozenset(_INPUT_KEYS + (
        "estimator.vn",
        "sweep.thetas",
        "sweep.log_min",
        "sweep.log_max",
        "sweep.count",
        "sweep.oracle.family",
        "sweep.oracle.theta",
        "sweep.oracle.nugget",
    )),
    "design": frozenset(_DESIGN_KEYS),
    "reproduce": frozenset({"threads"}),
    "selftest": frozenset(),
}
KNOWN_KEYS = frozenset().union(*COMMAND_KEYS.values())


def parse_config(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if value and value[0] in "'\"":
            value = shlex.split(value)[0]
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def apply_overrides(cfg: dict[str, str], overrides: dict[str, str]) -> dict[str, str]:
    out = dict(cfg)
    for key, value in overrides.items():
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
        out[key] = value
    return out


def get_bool(cfg: dict, key: str, default: bool) -> bool:
    raw = cfg.get(key)
    if raw is None:
        return default
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {raw!r}")


def get_float(cfg: dict, key: str, default=None) -> float:
    raw = cfg.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    return value


def get_int(cfg: dict, key: str, default=None) -> int:
    raw = cfg.get(key)
    if raw is None:
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: expected an integer, got {raw!r}") from exc
