"""Flat key=value run configuration shared by every CLI command."""

from __future__ import annotations

import math

from . import aggregation, backbone, decoder, model, scenegen, training
from .errors import ConfigError, ParseError, read_text

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

# key -> smallest value the pipeline accepts
MINIMUM = {
    "n_scenes": 1,
    "n_objects": 1,
    "n_class": 1,
    "room_extent": scenegen.MIN_ROOM_EXTENT,
    "backbone.channels": 8,
    "backbone.levels": 1,
    "msa.cap": 1,
    "msa.k_cand": 1,
    "msa.width": 1,
    "decoder.k": 1,
    "decoder.d": 1,
    "decoder.layers": 0,
    "decoder.heads": 1,
    "train.steps": 0,
    "infer.top_k": 0,
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
    """ConfigError naming the first key whose value the pipeline rejects."""

    def bad(key, rule):
        raise ConfigError(f"{key}={cfg[key]!r} out of range: must be {rule}")

    for key, low in MINIMUM.items():
        if cfg[key] < low:
            bad(key, f">= {low}")
    for key in ("backbone.base_voxel", "superpoints.coarse_size", "msa.r1"):
        if cfg[key] <= 0:
            bad(key, "> 0")
    if cfg["n_points"] < 100 * cfg["n_objects"]:
        bad("n_points", f">= 100 * n_objects = {100 * cfg['n_objects']}")
    if cfg["msa.r1"] >= cfg["msa.r2"]:
        bad("msa.r1", f"< msa.r2 = {cfg['msa.r2']!r}")
    if cfg["decoder.d"] % cfg["decoder.heads"]:
        bad("decoder.heads", f"a divisor of decoder.d = {cfg['decoder.d']}")
    if not 0 < cfg["decoder.tau"] < 1:
        bad("decoder.tau", "in (0, 1)")


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


def scene_spec(cfg: RunConfig) -> scenegen.SceneSpec:
    return scenegen.SceneSpec(
        n_objects=cfg["n_objects"],
        n_points=cfg["n_points"],
        n_class=cfg["n_class"],
        room_extent=cfg["room_extent"],
    )


def model_config(cfg: RunConfig) -> model.ModelConfig:
    return model.ModelConfig(
        backbone=backbone.BackboneConfig(
            base_voxel=cfg["backbone.base_voxel"],
            channels=cfg["backbone.channels"],
            levels=cfg["backbone.levels"],
        ),
        agg=aggregation.AggregationConfig(
            r1=cfg["msa.r1"],
            r2=cfg["msa.r2"],
            rq=cfg["msa.rq"],
            beta=cfg["msa.beta"],
            cap=cfg["msa.cap"],
            k_cand=cfg["msa.k_cand"],
            width=cfg["msa.width"],
        ),
        dec=decoder.DecoderConfig(
            k=cfg["decoder.k"],
            d=cfg["decoder.d"],
            layers=cfg["decoder.layers"],
            heads=cfg["decoder.heads"],
            tau=cfg["decoder.tau"],
            n_class=cfg["n_class"],
        ),
        coarse_size=cfg["superpoints.coarse_size"],
        use_local=cfg["model.use_local"],
        use_global=cfg["model.use_global"],
        seed=cfg["seed"],
    )


def train_config(cfg: RunConfig) -> training.TrainConfig:
    return training.TrainConfig(
        lr=cfg["train.lr"],
        steps=cfg["train.steps"],
        seed=cfg["seed"],
        w_cls=cfg["train.w_cls"],
        w_score=cfg["train.w_score"],
        w_bce=cfg["train.w_bce"],
        w_dice=cfg["train.w_dice"],
        deep_supervision=cfg["train.deep_supervision"],
        lambda_cls=cfg["train.lambda_cls"],
        lambda_mask=cfg["train.lambda_mask"],
    )
