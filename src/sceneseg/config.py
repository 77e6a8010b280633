"""Flat key=value run configuration shared by every CLI command."""

from __future__ import annotations

import math
from dataclasses import MISSING, fields

from . import aggregation, backbone, decoder, model, scenegen, training
from .errors import ConfigError, ContractError, ParseError, read_text

# the dataclasses that hold config keys: each field with a plain default is
# the key <prefix><field> and gives that key its type and default
_PREFIX = {
    scenegen.SceneSpec: "",
    backbone.BackboneConfig: "backbone.",
    aggregation.AggregationConfig: "msa.",
    decoder.DecoderConfig: "decoder.",
    model.ModelConfig: "model.",
    training.TrainConfig: "train.",
}
# <prefix><field> -> key, for the keys named otherwise
_RENAMED = {"decoder.n_class": "n_class", "model.coarse_size": "superpoints.coarse_size",
            "model.seed": "seed"}


def _fields(cls):
    """(field, key) for each field of cls that has a plain default."""
    for f in fields(cls):
        if f.default is not MISSING:
            key = _PREFIX[cls] + f.name
            yield f, _RENAMED.get(key, key)


# key -> (type, default); booleans accept true/false/1/0/yes/no
DEFAULTS = {key: (type(f.default), f.default) for cls in _PREFIX for f, key in _fields(cls)} | {
    "n_scenes": (int, 4),
    "infer.top_k": (int, 0),  # 0 means keep all K
    "infer.min_score": (float, 0.0),
}


def _parse_value(key, raw):
    typ = DEFAULTS[key][0]
    raw = raw.strip()
    if typ is bool:
        low = raw.lower()
        if low in ("1", "true", "yes"):
            return True
        if low in ("0", "false", "no"):
            return False
        raise ConfigError(f"bad boolean for {key}: {raw!r}")
    try:
        value = typ(raw)
    except ValueError:
        raise ConfigError(f"bad {typ.__name__} for {key}: {raw!r}") from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"bad float for {key}: {raw!r} is not finite")
    return value


def check_ranges(cfg):
    """ConfigError naming the first key whose value the pipeline rejects. The
    rules of every key a dataclass holds live in that dataclass."""
    for key, low in (("n_scenes", 1), ("infer.top_k", 0)):
        if cfg[key] < low:
            raise ConfigError(f"{key}={cfg[key]!r} out of range: must be >= {low}")
    scene_spec(cfg)
    model_config(cfg)
    train_config(cfg)


class RunConfig:
    def __init__(self):
        self.values = {k: d for k, (_, d) in DEFAULTS.items()}

    def __getitem__(self, key):
        return self.values[key]

    def set(self, key, raw):
        if key not in DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        self.values[key] = _parse_value(key, raw)

    def dump(self):
        lines = []
        for key in sorted(self.values):
            v = self.values[key]
            if isinstance(v, bool):
                v = "true" if v else "false"
            elif isinstance(v, float):
                v = repr(v)
            lines.append(f"{key}={v}")
        return "\n".join(lines) + "\n"


def parse_config_text(text, cfg=None):
    cfg = cfg or RunConfig()
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        cfg.set(key.strip(), value)
    return cfg


def load_config(path=None, overrides=()):
    cfg = RunConfig()
    if path is not None:
        try:
            text = read_text(path)
        except ParseError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        parse_config_text(text, cfg)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        cfg.set(key.strip(), value)
    check_ranges(cfg)
    return cfg


def _fill(cls, cfg, **given):
    """cls(...) with each field that has a plain default read from its key; a
    rejected field's error names its key."""
    keys = {f.name: key for f, key in _fields(cls)}
    try:
        return cls(**{f: cfg[key] for f, key in keys.items()}, **given)
    except ContractError as exc:
        raise ConfigError(keys[exc.field] + str(exc).removeprefix(exc.field)) from None


def scene_spec(cfg: RunConfig) -> scenegen.SceneSpec:
    return _fill(scenegen.SceneSpec, cfg)


def model_config(cfg: RunConfig) -> model.ModelConfig:
    return _fill(
        model.ModelConfig, cfg,
        backbone=_fill(backbone.BackboneConfig, cfg),
        agg=_fill(aggregation.AggregationConfig, cfg),
        dec=_fill(decoder.DecoderConfig, cfg),
    )


def train_config(cfg: RunConfig) -> training.TrainConfig:
    return _fill(training.TrainConfig, cfg)
