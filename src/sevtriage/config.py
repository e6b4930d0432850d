"""Run configuration: one JSON tree, one seed, CLI flags override keys.

The config file is a nested JSON object mirroring ``DEFAULTS``; unknown
keys, and section values whose JSON type is not their default's, are
rejected early so mistakes fail loudly instead of silently using a
default or crashing later. The output directory honors the SEVTRIAGE_OUT
environment variable unless a flag pins it.
"""

from __future__ import annotations

import copy
import json
import os
from pathlib import Path
from typing import Any, Mapping

from .corpus import decode_utf8
from .errors import ConfigError, RowError

OUT_ENV_VAR = "SEVTRIAGE_OUT"

DEFAULTS: dict[str, Any] = {
    "data": None,
    "schema": {},  # field -> CSV column name; identity when omitted
    "lexicon": None,  # path to a one-phrase-per-line file; built-in list when omitted
    "out": "out",
    "seed": 42,
    "split": 0.2,
    "tfidf": {"ngram_lo": 1, "ngram_hi": 2, "max_features": 5000},
    "svd": {"k": 100},
    "pca": {"k": 100},
    "select": {"k": 300},
    "logreg": {"C": 1.0, "max_iter": 1000, "tol": 1e-6},
    "tree": {"max_depth": None, "min_samples_leaf": 1},
    "forest": {"n_trees": 100, "features_per_split": "sqrt"},
    "knn": {"k": 5},
    "net": {
        "embedding_dim": 64,
        "max_len": 64,
        "vocab_cap": 3000,
        "conv_filters": 32,
        "kernel_width": 3,
        "tabular_hidden": 32,
        "merge": [64, 32],
        "dropout": 0.3,
        "epochs": 10,
        "batch": 32,
        "lr": 1e-3,
    },
    "ensemble": {
        "members": 5,
        "sample_fraction": 0.8,
        "with_replacement": True,
        "folds": 5,
        "instance_c": [0.5, 1.0, 2.0],
    },
}


def _merge(base: dict, override: Mapping, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base and path != "schema":
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(value, Mapping) and isinstance(base.get(key), dict) and key != "schema":
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _check(value, key: str, holds, rule: str) -> None:
    """Raise ConfigError naming ``key`` unless ``holds(value)``; a value that does not convert fails."""
    try:
        ok = holds(value)
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"config key {key!r} must be {rule}, got {value!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _type_rule(default):
    """(holds, rule) for a section value: the JSON type of its default, or anything when the default is null."""
    if isinstance(default, bool):
        return lambda v: isinstance(v, bool), "true or false"
    if isinstance(default, int):
        return lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"
    if isinstance(default, float):
        return _is_number, "a number"
    if isinstance(default, list):
        return lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers"
    return lambda v: True, ""


_FEATURES_PER_SPLIT = (
    lambda v: v is None or v == "sqrt" or (_is_number(v) and 0 < v <= 1),
    "'sqrt', null or a number in (0, 1]",
)


def load_config(path: str | None = None, overrides: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """The config tree: defaults, merged with an optional file, then overrides."""
    values = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            file_values = json.loads(decode_utf8(Path(path).read_bytes()))
        except RowError as exc:
            raise ConfigError(f"config file {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}")
        if not isinstance(file_values, dict):
            raise ConfigError(f"config file {path} must contain a JSON object")
        values = _merge(values, file_values)
    if overrides:
        values = _merge(values, {k: v for k, v in overrides.items() if v is not None})
    env_out = os.environ.get(OUT_ENV_VAR)
    if env_out and (not overrides or overrides.get("out") is None):
        values["out"] = env_out
    _check(values["seed"], "seed", lambda seed: int(seed) >= 0, "a non-negative integer")
    _check(values["split"], "split", lambda split: 0.0 < float(split) < 1.0, "in (0, 1)")
    for section, defaults in DEFAULTS.items():
        if isinstance(defaults, dict) and section != "schema":
            _check(values[section], section, lambda v: isinstance(v, dict), "an object")
            for key, default in defaults.items():
                where = f"{section}.{key}"
                rule = _FEATURES_PER_SPLIT if where == "forest.features_per_split" else _type_rule(default)
                _check(values[section][key], where, *rule)
    return values
