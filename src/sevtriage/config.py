"""Run configuration: one JSON tree, one seed, CLI flags override keys.

The config file is a nested JSON object mirroring ``DEFAULTS``; unknown
keys, and values that break their key's rule (the JSON type of the
default unless the key has a rule of its own), are rejected early so
mistakes fail loudly instead of silently using a default or crashing
later. The output directory honors the SEVTRIAGE_OUT environment
variable unless a flag pins it.
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
    """Raise ConfigError naming ``key`` unless ``holds(value)``."""
    if not holds(value):
        raise ConfigError(f"config key {key!r} must be {rule}, got {value!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _type_rule(default):
    """(holds, rule) for a value with no rule of its own: the JSON type of its default."""
    if isinstance(default, bool):
        return lambda v: isinstance(v, bool), "true or false"
    if isinstance(default, int):
        return _is_int, "an integer"
    if isinstance(default, float):
        return _is_number, "a number"
    if isinstance(default, str):
        return lambda v: isinstance(v, str), "a string"
    if isinstance(default, list) and all(map(_is_int, default)):
        return lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of integers"
    if isinstance(default, list):
        return lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers"
    return lambda v: isinstance(v, dict), "an object"  # a section


_NULL_OR_STRING = (lambda v: v is None or isinstance(v, str), "null or a string")

# Keys whose rule is not the JSON type of their default.
_RULES = {
    "data": _NULL_OR_STRING,
    "schema": (lambda v: isinstance(v, dict) and all(isinstance(c, str) for c in v.values()), "an object of strings"),
    "lexicon": _NULL_OR_STRING,
    "seed": (lambda v: _is_int(v) and v >= 0, "a non-negative integer"),
    "split": (lambda v: _is_number(v) and 0 < v < 1, "a number in (0, 1)"),
    "tfidf.max_features": (lambda v: _is_int(v) and v > 0, "a positive integer"),
    "tree.max_depth": (lambda v: v is None or _is_int(v), "null or an integer"),
    "forest.features_per_split": (
        lambda v: v is None or v == "sqrt" or (_is_number(v) and 0 < v <= 1),
        "'sqrt', null or a number in (0, 1]",
    ),
    "ensemble.sample_fraction": (lambda v: _is_number(v) and v > 0, "a number > 0"),
}


def _checked(values: dict) -> dict:
    """``values``, unless a key breaks its rule: then ConfigError naming the first such key."""
    for key, default in DEFAULTS.items():
        _check(values[key], key, *_RULES.get(key, _type_rule(default)))
        if isinstance(default, dict) and key != "schema":
            for name, value in default.items():
                where = f"{key}.{name}"
                _check(values[key][name], where, *_RULES.get(where, _type_rule(value)))
    return values


def load_config(path: str | None = None, overrides: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """The config tree: defaults, merged with an optional file, then overrides.

    The file's values are checked before the overrides replace any of
    them, so a malformed key fails even where a flag sets it.
    """
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
        values = _checked(_merge(values, file_values))
    if overrides:
        values = _merge(values, {k: v for k, v in overrides.items() if v is not None})
    env_out = os.environ.get(OUT_ENV_VAR)
    if env_out and (not overrides or overrides.get("out") is None):
        values["out"] = env_out
    return _checked(values)
