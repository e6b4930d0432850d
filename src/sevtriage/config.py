"""Run configuration: one JSON tree, one seed, CLI flags override keys.

The config file is a nested JSON object mirroring ``DEFAULTS``. Each key
is written once, in ``_KEYS``, with its default and its rule; unknown
keys, and values that break their key's rule, are rejected early so
mistakes fail loudly instead of silently using a default or crashing
later. Once every key keeps its own rule, the rules between two keys of
a section (``_PAIRS``) are checked. Every number must be finite: NaN,
Infinity and an integer beyond float range break every number rule.
``schema``'s keys must be field names, which the CSV parser checks. The
learners check their keyword hyperparameters by the same rules, through
:func:`check`, and the scoring artifact its entries by the same integer
and number rules. The output directory honors the SEVTRIAGE_OUT
environment variable unless a flag pins it.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import operator
import os
from pathlib import Path
from typing import Any, Mapping

from .corpus import decode_utf8
from .errors import ConfigError, RowError

OUT_ENV_VAR = "SEVTRIAGE_OUT"


def _is_number(value) -> bool:
    """True for a real number, numpy's too, that a float64 holds finitely: no bool, NaN, ±Infinity or int beyond ±1.8e308."""
    try:
        return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _list_of(holds, shortest: int = 0):
    """A test that is true for a list (or tuple) of at least ``shortest`` items, each of which ``holds``."""
    return lambda v: isinstance(v, (list, tuple)) and len(v) >= shortest and all(map(holds, v))


def _positive_int(value) -> bool:
    return _is_int(value) and value > 0


def _positive_number(value) -> bool:
    return _is_number(value) and value > 0


# The (holds, rule) pairs for JSON values, shared by the config and the scoring artifact.
INTEGER = (_is_int, "an integer")
NUMBER = (_is_number, "a finite number")
NUMBERS = (_list_of(_is_number), "a list of finite numbers")

_NULL_OR_STRING = (lambda v: v is None or isinstance(v, str), "null or a string")
POSITIVE_INTEGER = (_positive_int, "a positive integer")
_POSITIVE_NUMBER = (_positive_number, "a positive number")
_AT_LEAST_TWO = (lambda v: _is_int(v) and v >= 2, "an integer >= 2")
_SECTION = (lambda v: isinstance(v, dict), "an object")

# Every config key in file order, as (default, (holds, rule)); a section is an object of such keys.
_KEYS: dict[str, Any] = {
    "data": (None, _NULL_OR_STRING),
    "schema": (
        {},  # field -> CSV column name; identity when omitted
        (lambda v: isinstance(v, dict) and all(isinstance(c, str) for c in v.values()), "an object of strings"),
    ),
    "lexicon": (None, _NULL_OR_STRING),  # path to a one-phrase-per-line file; built-in list when omitted
    "out": ("out", (lambda v: isinstance(v, str), "a string")),
    "seed": (42, (lambda v: _is_int(v) and v >= 0, "a non-negative integer")),
    "split": (0.2, (lambda v: _is_number(v) and 0 < v < 1, "a number in (0, 1)")),
    "tfidf": {
        "ngram_lo": (1, POSITIVE_INTEGER),
        "ngram_hi": (2, POSITIVE_INTEGER),
        "max_features": (5000, POSITIVE_INTEGER),
    },
    "svd": {"k": (100, POSITIVE_INTEGER)},
    "pca": {"k": (100, POSITIVE_INTEGER)},
    "select": {"k": (300, POSITIVE_INTEGER)},
    "logreg": {"C": (1.0, _POSITIVE_NUMBER), "max_iter": (1000, POSITIVE_INTEGER), "tol": (1e-6, _POSITIVE_NUMBER)},
    "tree": {
        "max_depth": (None, (lambda v: v is None or _positive_int(v), "null or a positive integer")),
        "min_samples_leaf": (1, POSITIVE_INTEGER),
    },
    "forest": {
        "n_trees": (100, POSITIVE_INTEGER),
        "features_per_split": (
            "sqrt",
            (lambda v: v is None or v == "sqrt" or (_is_number(v) and 0 < v <= 1), "'sqrt', null or a number in (0, 1]"),
        ),
    },
    "knn": {"k": (5, POSITIVE_INTEGER)},
    "net": {
        "embedding_dim": (64, POSITIVE_INTEGER),
        "max_len": (64, POSITIVE_INTEGER),
        "vocab_cap": (3000, POSITIVE_INTEGER),
        "conv_filters": (32, POSITIVE_INTEGER),
        "kernel_width": (3, POSITIVE_INTEGER),
        "tabular_hidden": (32, POSITIVE_INTEGER),
        "merge": ([64, 32], (_list_of(_positive_int, 1), "a non-empty list of positive integers")),
        "dropout": (0.3, (lambda v: _is_number(v) and 0 <= v < 1, "a number in [0, 1)")),
        "epochs": (10, POSITIVE_INTEGER),
        "batch": (32, POSITIVE_INTEGER),
        "lr": (1e-3, _POSITIVE_NUMBER),
    },
    "ensemble": {
        "members": (5, _AT_LEAST_TWO),
        "sample_fraction": (0.8, _POSITIVE_NUMBER),
        "with_replacement": (True, (lambda v: isinstance(v, bool), "true or false")),
        "folds": (5, _AT_LEAST_TWO),
        # each strength names its member as C={c:g}, so no two may print alike
        "instance_c": (
            [0.5, 1.0, 2.0],
            (
                lambda v: _list_of(_positive_number, 2)(v) and len({f"{c:g}" for c in v}) == len(v),
                "a list of at least 2 positive numbers, no two equal to 6 significant digits",
            ),
        ),
    },
}

DEFAULTS: dict[str, Any] = {
    key: {name: default for name, (default, _) in entry.items()} if isinstance(entry, dict) else entry[0]
    for key, entry in _KEYS.items()
}


def _merge(base: dict, override: Mapping, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key {where!r}")
        if isinstance(value, Mapping) and isinstance(_KEYS.get(where), dict):  # a section; ``schema`` is one value
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = copy.deepcopy(value)
    return out


def check_value(value, name: str, holds, rule: str) -> None:
    """Raise ConfigError ``<name> must be <rule>, got <value!r>`` unless ``holds(value)``."""
    if not holds(value):
        raise ConfigError(f"{name} must be {rule}, got {value!r}")


# Each section's rule between two of its keys, checked once every key keeps its own rule: (key, other key,
# holds(value, other's value), rule naming the other key as {other} and its value as {bound}).
_PAIRS = {
    "tfidf": ("ngram_hi", "ngram_lo", operator.ge, ">= {other} ({bound!r})"),  # an n-gram range runs from low to high
    "net": ("max_len", "kernel_width", operator.ge, ">= {other} ({bound!r})"),  # a CNN sequence holds one window
    # a subsample drawn without replacement holds at most every row
    "ensemble": ("sample_fraction", "with_replacement", lambda v, bound: bound or v <= 1, "at most 1 when {other} is false"),
}


def _pair_rule(section: str, values: Mapping, prefix: str = "") -> None:
    """ConfigError unless ``values`` holding both keys keep ``section``'s rule between them; a prefix names config keys."""
    if section in _PAIRS:
        key, other, holds, rule = _PAIRS[section]
        if key in values and other in values:
            bound, named = values[other], f"config key {prefix + key!r}" if prefix else key
            check_value(values[key], named, lambda v: holds(v, bound), rule.format(other=repr(prefix + other), bound=bound))


def check(section: str, **values) -> None:
    """ConfigError ``<name> must be <rule>, got <value!r>`` for the first of ``values`` that breaks its key's rule in
    ``section``, then for the section's rule between two keys; every learner checks its keyword hyperparameters here."""
    for name, value in values.items():
        check_value(value, name, *_KEYS[section][name][1])
    _pair_rule(section, values)


def _checked(values: dict) -> dict:
    """``values``, unless a key breaks its rule: then ConfigError naming the first such key, the rules between two keys last."""
    for key, entry in _KEYS.items():
        check_value(values[key], f"config key {key!r}", *(_SECTION if isinstance(entry, dict) else entry[1]))
        for name, (_, rule) in entry.items() if isinstance(entry, dict) else ():
            check_value(values[key][name], f"config key {key + '.' + name!r}", *rule)
    for section in _PAIRS:
        _pair_rule(section, values[section], f"{section}.")
    return values


def read_object(path, what: str) -> dict:
    """The JSON object in the UTF-8 file at ``path``; anything else raises ConfigError starting ``{what} {path}: ``."""
    try:
        value = json.loads(decode_utf8(Path(path).read_bytes()))
    except RowError as exc:
        raise ConfigError(f"{what} {path}: {exc}") from None
    except ValueError as exc:  # not JSON, or an integer with too many digits for Python to read
        raise ConfigError(f"{what} {path}: not valid JSON: {exc}") from None
    if not isinstance(value, dict):
        raise ConfigError(f"{what} {path}: must contain a JSON object")
    return value


def load_config(path: str | None = None, overrides: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """The config tree: defaults, merged with an optional file, then overrides.

    The file's values are checked before the overrides replace any of
    them, so a malformed key fails even where a flag sets it.
    """
    values = copy.deepcopy(DEFAULTS)
    if path is not None:
        values = _checked(_merge(values, read_object(path, "config file")))
    if overrides:
        values = _merge(values, {k: v for k, v in overrides.items() if v is not None})
    env_out = os.environ.get(OUT_ENV_VAR)
    if env_out and (not overrides or overrides.get("out") is None):
        values["out"] = env_out
    return _checked(values)
