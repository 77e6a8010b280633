"""Flat key=value run configuration shared by every CLI command."""

from __future__ import annotations

import math
from dataclasses import fields

from . import aggregation, backbone, decoder, model, scenegen, training
from .errors import ConfigError, ContractError, ParseError, read_text

# key -> (type, default); booleans accept true/false/1/0/yes/no
DEFAULTS = {
    "seed": (int, 0),
    "n_scenes": (int, 4),
    "n_objects": (int, 4),
    "n_points": (int, 2000),
    "n_class": (int, 3),
    "room_extent": (float, 4.0),
    "backbone.base_voxel": (float, 0.1),
    "backbone.channels": (int, 32),
    "backbone.levels": (int, 2),
    "superpoints.coarse_size": (float, 0.25),
    "msa.r1": (float, 0.2),
    "msa.r2": (float, 0.4),
    "msa.beta": (float, 0.3),
    "msa.cap": (int, 32),
    "msa.rq": (float, 0.3),
    "msa.k_cand": (int, 32),
    "msa.width": (int, 32),
    "decoder.k": (int, 20),
    "decoder.d": (int, 64),
    "decoder.layers": (int, 6),
    "decoder.heads": (int, 8),
    "decoder.tau": (float, 0.5),
    "model.use_local": (bool, True),
    "model.use_global": (bool, True),
    "train.lr": (float, 1e-3),
    "train.steps": (int, 500),
    "train.w_cls": (float, 0.5),
    "train.w_score": (float, 0.5),
    "train.w_bce": (float, 1.0),
    "train.w_dice": (float, 1.0),
    "train.deep_supervision": (bool, True),
    "train.lambda_cls": (float, 1.0),
    "train.lambda_mask": (float, 1.0),
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
    def __init__(self, values=None):
        self.values = {k: d for k, (_, d) in DEFAULTS.items()}
        if values:
            self.values.update(values)

    def __getitem__(self, key):
        return self.values[key]

    def __eq__(self, other):
        return isinstance(other, RunConfig) and self.values == other.values

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


def _fill(cls, cfg, prefix, named=None, **given):
    """cls(...) with each field read from the key <prefix><field>, or from the
    key `named` maps it to; a rejected field's error names its key."""
    keys = {f.name: prefix + f.name for f in fields(cls) if prefix + f.name in DEFAULTS}
    keys.update(named or {})
    try:
        return cls(**{f: cfg[key] for f, key in keys.items()}, **given)
    except ContractError as exc:
        raise ConfigError(keys[exc.field] + str(exc).removeprefix(exc.field)) from None


def scene_spec(cfg: RunConfig) -> scenegen.SceneSpec:
    return _fill(scenegen.SceneSpec, cfg, "")


def model_config(cfg: RunConfig) -> model.ModelConfig:
    return _fill(
        model.ModelConfig, cfg, "model.",
        {"coarse_size": "superpoints.coarse_size", "seed": "seed"},
        backbone=_fill(backbone.BackboneConfig, cfg, "backbone."),
        agg=_fill(aggregation.AggregationConfig, cfg, "msa."),
        dec=_fill(decoder.DecoderConfig, cfg, "decoder.", {"n_class": "n_class"}),
    )


def train_config(cfg: RunConfig) -> training.TrainConfig:
    return _fill(training.TrainConfig, cfg, "train.")
