"""Run configuration: one JSON tree, one seed, CLI flags override keys.

The config file is a nested JSON object mirroring ``DEFAULTS``; unknown
keys are rejected early so typos fail loudly instead of silently using a
default. The output directory honors the SEVTRIAGE_OUT environment
variable unless a flag pins it.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class RunConfig:
    values: dict[str, Any] = field(default_factory=lambda: copy.deepcopy(DEFAULTS))

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def seed(self) -> int:
        return int(self.values["seed"])

    @property
    def out_dir(self) -> str:
        return self.values["out"]


def load_config(path: str | None = None, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, then overrides."""
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
    if values["seed"] is None or int(values["seed"]) < 0:
        raise ConfigError("seed must be a non-negative integer")
    if not 0.0 < float(values["split"]) < 1.0:
        raise ConfigError("split must be in (0, 1)")
    return RunConfig(values)
