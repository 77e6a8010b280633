"""Command-line front end: gen / train / predict / eval / inspect-attn.

Exit codes: 0 success, 2 config error, 3 data error (an OSError on a path
included), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad, config as cfgmod, inference, scenegen, training
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    NumericError,
    ParseError,
)
from .model import SegModel, seed_for

PALETTE = np.array(
    [
        [0.894, 0.102, 0.110],
        [0.216, 0.494, 0.722],
        [0.302, 0.686, 0.290],
        [0.596, 0.306, 0.639],
        [1.000, 0.498, 0.000],
        [1.000, 1.000, 0.200],
        [0.651, 0.337, 0.157],
        [0.969, 0.506, 0.749],
    ]
)


def _echo_config(cfg, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "run_config.cfg").write_text(cfg.dump())


def _load_scenes(data_dir):
    paths = sorted(Path(data_dir).glob("*.ply"))
    if not paths:
        raise DataError(f"no .ply scenes in {data_dir}")
    return {p.stem: scenegen.read_ply(p) for p in paths}


def cmd_gen(cfg, out_dir):
    out_dir = Path(out_dir)
    _echo_config(cfg, out_dir)
    spec = cfgmod.scene_spec(cfg)
    for i in range(cfg["n_scenes"]):
        scene = scenegen.generate_scene(seed_for(cfg["seed"], f"scene{i}"), spec)
        stem = out_dir / f"scene_{i:03d}"
        scenegen.write_ply(f"{stem}.ply", scene)
        scenegen.write_labels(f"{stem}.labels", scene)
    return 0


def cmd_train(cfg, data_dir, out_dir):
    out_dir = Path(out_dir)
    _echo_config(cfg, out_dir)
    scenes = _load_scenes(data_dir)
    n_class = cfg["n_class"]
    for stem, scene in scenes.items():
        top = scene.semantic[scene.instance >= 0].max(initial=-1)
        if top >= n_class:
            raise DataError(f"{stem}.ply: instance class {top} does not fit n_class={n_class}")
    model = SegModel(cfgmod.model_config(cfg))
    preps = [model.prepare(scenes[k]) for k in sorted(scenes)]
    tcfg = cfgmod.train_config(cfg)
    with open(out_dir / "loss.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "cls", "score", "bce", "dice", "foreground", "total"])
        training.fit(
            model,
            preps,
            tcfg,
            on_step=lambda step, r: writer.writerow(
                [step, repr(r.cls), repr(r.score), repr(r.bce), repr(r.dice),
                 repr(r.foreground), repr(r.total)]
            ),
        )
    model.store.save(out_dir / "checkpoint.psgw")
    return 0


def _untaped_forward(cfg, checkpoint, scene_path):
    """The prepared scene and the untaped forward pass of the checkpoint's model."""
    scene = scenegen.read_ply(scene_path)
    model = SegModel(cfgmod.model_config(cfg), checkpoint)
    prep = model.prepare(scene)
    with ad.no_tape():
        return prep, model.forward(prep)


def cmd_predict(cfg, checkpoint, scene_path, out_dir):
    out_dir = Path(out_dir)
    _echo_config(cfg, out_dir)
    prep, out = _untaped_forward(cfg, checkpoint, scene_path)
    scene = prep.scene
    top_k = cfg["infer.top_k"] or None
    instances = inference.predict(
        out.preds[-1], prep.partition, top_k=top_k, min_score=cfg["infer.min_score"]
    )
    stem = Path(scene_path).stem
    inference.write_predictions(
        out_dir / f"{stem}.pred.txt", stem, scene.n_points, prep.partition.n_superpoints, instances
    )
    colors = np.full((scene.n_points, 3), 0.6)
    for rank, inst in enumerate(instances):
        colors[inst.point_mask] = PALETTE[rank % len(PALETTE)]
    scenegen.write_ply(out_dir / f"{stem}.instances.ply", scene, color_override=colors)
    return 0


def cmd_eval(pred_dir, gt_dir, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gts = _load_scenes(gt_dir)
    pred_paths = {p.name.removesuffix(".pred.txt"): p for p in Path(pred_dir).glob("*.pred.txt")}
    missing = sorted(set(gts) ^ set(pred_paths))
    if missing:
        raise DataError(f"scene id mismatch between pred and gt dirs: {missing}")
    preds, gt_objs = {}, {}
    n_class = max(scene.n_class for scene in gts.values())
    for sid, scene in gts.items():
        gt_objs[sid] = scenegen.ground_truth(scene)
        try:
            _, _, preds[sid] = inference.read_predictions(pred_paths[sid], scene.n_points, n_class)
        except ParseError as exc:
            raise DataError(f"{pred_paths[sid].name}: {exc}") from None
    report = inference.evaluate(preds, gt_objs, n_class)
    (out_dir / "report.csv").write_text(inference.report_csv(report))
    text = inference.report_text(report, scenegen.CLASS_NAMES)
    (out_dir / "report.txt").write_text(text)
    sys.stdout.write(text)
    return 0


def cmd_inspect_attn(cfg, checkpoint, scene_path, layer, head, out_path):
    if not 0 <= layer < cfg["decoder.layers"]:
        raise ConfigError(f"layer {layer} out of range [0, {cfg['decoder.layers']})")
    if not 0 <= head < cfg["decoder.heads"]:
        raise ConfigError(f"head {head} out of range [0, {cfg['decoder.heads']})")
    if not cfg["model.use_global"]:
        raise ConfigError("model.use_global=false: no masked cross-attention runs to inspect")
    ad.attention_trace = trace = []
    try:
        _untaped_forward(cfg, checkpoint, scene_path)
    finally:
        ad.attention_trace = None
    weights = trace[layer][head]
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"sp{j}" for j in range(weights.shape[1])])
        for row in weights:
            writer.writerow([repr(float(v)) for v in row])
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sceneseg",
        description="Synthetic-scene 3D instance segmentation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="config override (wins over --config)")

    p = sub.add_parser("gen", help="generate synthetic scenes")
    common(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a model on generated scenes")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("predict", help="run inference on one scene")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("inspect-attn", help="dump masked cross-attention weights")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--scene", required=True)
    p.add_argument("--layer", type=int, required=True)
    p.add_argument("--head", type=int, required=True)
    p.add_argument("--out", required=True)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    with np.errstate(over="ignore", invalid="ignore"):  # exit 4 prints one line, no warnings
        try:
            if args.command == "eval":
                return cmd_eval(args.pred, args.gt, args.out)
            cfg = cfgmod.load_config(args.config, args.set)
            if args.command == "gen":
                return cmd_gen(cfg, args.out)
            if args.command == "train":
                return cmd_train(cfg, args.data, args.out)
            if args.command == "predict":
                return cmd_predict(cfg, args.checkpoint, args.scene, args.out)
            if args.command == "inspect-attn":
                return cmd_inspect_attn(
                    cfg, args.checkpoint, args.scene, args.layer, args.head, args.out
                )
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (DataError, ParseError, CheckpointError, OSError) as exc:
            print(f"data error: {exc}", file=sys.stderr)
            return 3
        except NumericError as exc:
            print(f"numeric failure: {exc}", file=sys.stderr)
            return 4


if __name__ == "__main__":
    sys.exit(main())
