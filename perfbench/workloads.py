"""The three benchmark workloads: set-up, closed timed loop and output checks.

Every workload is a closed loop from one caller: each operation starts when
the previous one returns. Inputs come only from the workload seed. A run
repeats whole rounds (every scene once) until both its time budget and its
minimum operation count are reached, so the share of failed operations is
the same in every run.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import random
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import reference as ref
from sceneseg import cli, config, errors, kernels, scenegen, training
from sceneseg.model import SegModel, seed_for

REPLAY_STEPS = 2  # leading steps replayed bit-for-bit from a fresh model
TRAIN_SCENES = 4  # scenes per round of the train workloads
SETUP_BURST_S = 0.1  # a burst repeats set-up until it has taken this long
SETUP_EVERY_S = 1.0  # seconds of the timed loop between set-up bursts
# what a step or command of the program may raise when it fails
PROGRAM_ERRORS = (
    errors.NumericError, errors.ContractError, errors.ShapeError,
    errors.DataError, errors.ParseError, errors.CheckpointError,
)


@dataclasses.dataclass
class TrainWorkload:
    spec: scenegen.SceneSpec
    loss_steps: int  # loss window; every run takes at least this many steps


@dataclasses.dataclass
class PredictWorkload:
    n_points: int
    n_scenes: int  # scenes per round; more scenes average out how many instances each keeps
    min_rounds: int  # so that every scene is timed several times


WORKLOADS = {
    "train-default": TrainWorkload(scenegen.SceneSpec(), loss_steps=200),
    "train-cluttered": TrainWorkload(
        scenegen.SceneSpec(n_objects=16, n_points=8000, room_extent=8.0), loss_steps=80
    ),
    "predict-dense": PredictWorkload(n_points=20000, n_scenes=8, min_rounds=5),
}


class _Stop(Exception):
    """Raised from fit's step callback once the run has measured enough."""


class Outcome:
    """What one run measured, checked and recorded."""

    def __init__(self):
        self.failures = []
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.op_kinds = ()
        self.counted_ops = []  # recorder op ids whose per-layer figures are reported
        self.inputs = {}

    def expect(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok


def _close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(1.0, abs(b))


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def scene_fastest(times, n_scenes):
    """Median over scenes of each scene's fastest time, for operations that
    visit the scenes in turn. The machine's speed drifts while a run lasts;
    the fastest time is what the code costs when nothing else interferes."""
    return statistics.median(min(times[i::n_scenes]) for i in range(n_scenes))


class SetupTimer:
    """Times a workload's set-up in bursts spread over the run; `median` is
    its median time. One set-up lasts 15 ms to 2 s, and the machine's speed
    changes in phases of a few seconds: set-ups timed only before the timed
    loop would see one phase, where bursts over the whole run see its mix of
    phases, as the timed operations do. With 5 to 100 set-ups in a run, the
    median of them varies less from run to run than the fastest."""

    def __init__(self, setup, rec, clock):
        self.setup, self.rec, self.clock = setup, rec, clock
        self.times = []
        self.last = None  # when the last burst ended

    def burst(self):
        """Sets up until the burst has taken SETUP_BURST_S; returns the last result."""
        spent = 0.0
        while spent < SETUP_BURST_S:
            if self.rec is not None:
                self.rec.begin_op("setup")
            t = self.clock()
            result = self.setup()
            self.times.append(self.clock() - t)
            spent += self.times[-1]
            if self.rec is not None:
                self.rec.end_op()
        self.last = self.clock()
        return result

    def due(self):
        return self.clock() - self.last >= SETUP_EVERY_S

    @property
    def median(self):
        return statistics.median(self.times)


def _param_digest(store):
    h = hashlib.sha256()
    for name in store.names():
        h.update(name.encode())
        h.update(store[name].value.tobytes())
    return h.hexdigest()


def _capture_next_loss(into):
    """Make the next training.total_loss call keep its inputs and result."""
    inner = training.total_loss

    def once(preds, gt, sizes, fg, scene, cfg):
        training.total_loss = inner
        report = inner(preds, gt, sizes, fg, scene, cfg)
        into.update(
            layers=[(p.class_probs.value, p.iou_score.value.ravel(), p.sp_mask.value) for p in preds],
            fg=fg.value.ravel(), scene=scene, cfg=cfg, total=report.total,
        )
        return report

    training.total_loss = once


def _check_objective(out, scene, partition, layers, fg, cfg, total, where):
    """The program's total loss against the benchmark's own evaluation."""
    ids, sizes = ref.cells(scene.positions)
    if not out.expect(
        np.array_equal(ids, partition.assignment) and np.array_equal(sizes, partition.sizes),
        f"{where}: superpoints differ from the 0.25 m cells",
    ):
        return
    classes, masks = ref.gt_instances(scene.semantic, scene.instance)
    sp_gt = ref.gt_superpoint_masks(masks, ids, sizes)
    want = ref.objective(layers, fg, scene.instance >= 0, classes, sp_gt, sizes, cfg)
    out.expect(_close(total, want), f"{where}: total loss {total!r}, reference {want!r}")


def run_train(w: TrainWorkload, seed, seconds, rec, clock=time.perf_counter):
    out = Outcome()
    out.op_kinds = ("step",)
    run_cfg = config.RunConfig()
    mcfg = config.model_config(run_cfg)
    tcfg = config.train_config(run_cfg)

    def setup():
        scenes = [
            scenegen.generate_scene(seed_for(seed, f"scene{i}"), w.spec) for i in range(TRAIN_SCENES)
        ]
        model = SegModel(mcfg)
        return scenes, model, [model.prepare(s) for s in scenes]

    setups = SetupTimer(setup, rec, clock)
    scenes, model, preps = setups.burst()

    loss_step = random.Random(seed).randrange(w.loss_steps)
    captured, reports, times, snapshot = {}, [], [], {}
    mark = {}

    def on_step(step, report):
        t = clock()
        times.append(t - mark["t"])
        if rec is not None:
            rec.end_op()
        reports.append(report)
        done = step + 1
        if done == REPLAY_STEPS:
            snapshot["params"] = _param_digest(model.store)
        if done == loss_step:
            _capture_next_loss(captured)
        if done % TRAIN_SCENES == 0:
            if done >= w.loss_steps and t - mark["start"] >= seconds:
                raise _Stop
            if setups.due():
                setups.burst()
        if rec is not None:
            rec.begin_op("step")
        mark["t"] = clock()

    if loss_step == 0:
        _capture_next_loss(captured)
    if rec is not None:
        rec.begin_op("step")
    mark["start"] = mark["t"] = clock()
    try:
        training.fit(model, preps, dataclasses.replace(tcfg, steps=10**9), on_step=on_step)
    except _Stop:
        pass
    except PROGRAM_ERRORS as exc:
        # fit cannot go on after a failed step: the run ends without results
        if rec is not None:
            rec.end_op()
        out.attempted, out.failed = len(times) + 1, 1
        out.expect(False, f"step {len(times)} failed: {type(exc).__name__}: {exc}")
        return out
    peak_rss_mb = _peak_rss_mb()  # before the checks, whose memory is not the program's
    out.attempted = len(times)
    if rec is not None:
        out.counted_ops = [g for g, kind in rec.groups if kind == "step"][: w.loss_steps]

    # the first steps replay bit-for-bit from a fresh model with the same seed
    fresh = SegModel(mcfg)
    replay = training.fit(
        fresh, [fresh.prepare(s) for s in scenes], dataclasses.replace(tcfg, steps=REPLAY_STEPS)
    )
    for k, (a, b) in enumerate(zip(replay, reports)):
        same = all(
            getattr(a, f) == getattr(b, f)
            for f in ("cls", "score", "bce", "dice", "foreground", "total", "structure")
        )
        out.expect(same, f"step {k} does not replay bit-for-bit")
    out.expect(
        _param_digest(fresh.store) == snapshot.get("params"),
        f"parameters after {REPLAY_STEPS} replayed steps differ",
    )

    # one sampled step's loss against the benchmark's own objective
    if out.expect(bool(captured), f"step {loss_step} was not captured"):
        prep = preps[loss_step % TRAIN_SCENES]
        _check_objective(
            out, captured["scene"], prep.partition, captured["layers"], captured["fg"],
            captured["cfg"], captured["total"], f"step {loss_step}",
        )

    # the mean over the whole window varies far less from seed to seed than
    # the final fifth, which depends on how hard each seed's rooms are
    losses = [r.total for r in reports[: w.loss_steps]]
    fifth = w.loss_steps // 5
    last, first = statistics.fmean(losses[-fifth:]), statistics.fmean(losses[:fifth])
    out.expect(last < first, f"final-fifth loss {last!r} not below first-fifth {first!r}")

    out.metrics = {
        "op_ms": 1000.0 * scene_fastest(times, TRAIN_SCENES),
        "round_s": min(sum(times[i : i + TRAIN_SCENES]) for i in range(0, len(times), TRAIN_SCENES)),
        "loss": statistics.fmean(losses),
        "setup_s": setups.median,
        "peak_rss_mb": peak_rss_mb,
    }
    out.inputs = {
        "points": [p.scene.n_points for p in preps],
        "superpoints": [int(p.partition.n_superpoints) for p in preps],
        "gt_instances": [len(p.gt.instance_classes) for p in preps],
        "losses": [r.total for r in reports],
        "op_times_ms": [1000.0 * t for t in times],
        "setup_times_s": setups.times,
    }
    return out


def _cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def run_predict(w: PredictWorkload, seed, seconds, rec, work: Path, clock=time.perf_counter):
    out = Outcome()
    out.op_kinds = ("predict", "eval")
    data, run, preds, report = (work / d for d in ("data", "run", "pred", "report"))
    ckpt = run / "checkpoint.psgw"

    def setup():
        gen = ["gen", "--out", data, "--set", f"seed={seed}",
               "--set", f"n_points={w.n_points}", "--set", f"n_scenes={w.n_scenes}"]
        # train.steps=0 saves the seeded initial weights: an untrained checkpoint
        train = ["train", "--data", data, "--out", run, "--set", "train.steps=0"]
        for argv in (gen, train):
            if _cli(argv) != 0:
                raise RuntimeError(f"set-up command failed: sceneseg {' '.join(map(str, argv))}")

    setups = SetupTimer(setup, rec, clock)
    setups.burst()
    scenes = sorted(data.glob("*.ply"))

    def command(kind, argv):
        if rec is not None:
            rec.begin_op(kind)
        t = clock()
        try:
            rc = _cli(argv)
        except PROGRAM_ERRORS as exc:  # the ones cli.main does not turn into an exit code
            rc = f"{type(exc).__name__}: {exc}"
        dt = clock() - t
        if rec is not None:
            rec.end_op()
        out.attempted += 1
        if rc != 0:
            out.failed += 1
            out.expect(False, f"sceneseg {' '.join(map(str, argv))}: exit {rc}")
        return dt

    predict_times, eval_times, rounds = [], [], []
    start = clock()
    while len(rounds) < w.min_rounds or clock() - start < seconds:
        if rounds and setups.due():
            setups.burst()
        t = clock()
        for path in scenes:
            predict_times.append(
                command("predict", ["predict", "--checkpoint", ckpt, "--scene", path, "--out", preds])
            )
        eval_times.append(command("eval", ["eval", "--pred", preds, "--gt", data, "--out", report]))
        rounds.append(clock() - t)
    peak_rss_mb = _peak_rss_mb()  # before the checks, whose memory is not the program's
    if rec is not None:
        out.counted_ops = [g for g, kind in rec.groups if kind in out.op_kinds]

    losses = _check_predictions(out, scenes, ckpt, preds, report)
    out.metrics = {
        "op_ms": 1000.0 * scene_fastest(predict_times, len(scenes)),
        "round_s": min(rounds),
        "loss": statistics.fmean(losses) if losses else float("nan"),
        "setup_s": setups.median,
        "peak_rss_mb": peak_rss_mb,
    }
    out.inputs.update(
        op_times_ms=[1000.0 * t for t in predict_times],
        setup_times_s=setups.times,
        eval_s_median=statistics.median(eval_times),
    )
    return out


def _check_predictions(out, scenes, ckpt, pred_dir, report_dir):
    """Check every written output against the benchmark's own computations;
    returns the checkpoint's total loss on each scene."""
    run_cfg = config.RunConfig()
    mcfg = config.model_config(run_cfg)
    tcfg = config.train_config(run_cfg)
    model = SegModel(mcfg)
    model.store.load(ckpt)
    agg = mcfg.agg
    losses, eval_scenes = [], []
    inputs = {k: [] for k in ("points", "superpoints", "gt_instances", "keypoints", "kept")}

    queries = []
    inner = kernels.sphere_query_lists

    def sphere_query_lists(keypoints, positions, r, cap):
        groups = inner(keypoints, positions, r, cap)
        queries.append((np.array(keypoints), positions, r, cap, groups))
        return groups

    for path in scenes:
        stem = path.stem
        pos, sem, inst = ref.read_ply_labels(path)
        scene = scenegen.read_ply(path)
        out.expect(np.array_equal(scene.positions, pos), f"{stem}: PLY positions differ")
        ids, sizes = ref.cells(pos)
        classes, masks = ref.gt_instances(sem, inst)
        prep = model.prepare(scene)
        queries.clear()
        kernels.sphere_query_lists = sphere_query_lists
        try:
            fwd = model.forward(prep)
        finally:
            kernels.sphere_query_lists = inner
        final = fwd.preds[-1]
        probs, iou, sp_mask = final.class_probs.value, final.iou_score.value.ravel(), final.sp_mask.value

        why = ref.check_candidates(pos, fwd.foreground.value, fwd.keypoints, agg.beta, agg.k_cand, agg.rq)
        out.expect(not why, f"{stem}: candidate sampling: {why}")
        out.expect(len(queries) == 2, f"{stem}: {len(queries)} sphere-query calls, expected 2")
        for keypts, positions, r, cap, groups in queries:
            out.expect(np.array_equal(keypts, pos[fwd.keypoints]), f"{stem}: sphere queries not at keypoints")
            for k, g in enumerate(groups):
                want = ref.sphere_group(keypts[k], positions, r, cap)
                out.expect(g.tolist() == want, f"{stem}: sphere query r={r} keypoint {k} differs")

        total = training.total_loss(fwd.preds, prep.gt, prep.partition.sizes, fwd.foreground, scene, tcfg).total
        layers = [(p.class_probs.value, p.iou_score.value.ravel(), p.sp_mask.value) for p in fwd.preds]
        _check_objective(out, scene, prep.partition, layers, fwd.foreground.value.ravel(), tcfg, total, stem)
        losses.append(total)

        pred_file = pred_dir / f"{stem}.pred.txt"
        if not out.expect(pred_file.is_file(), f"{stem}: no prediction file"):
            continue
        n, written = ref.read_pred_file(pred_file)
        out.expect(n == len(pos), f"{stem}: prediction header counts {n} points, scene has {len(pos)}")
        scores = [s for _, s, _ in written]
        out.expect(all(a >= b for a, b in zip(scores, scores[1:])), f"{stem}: scores increase")
        for k, (_, _, mask) in enumerate(written):
            inside = np.bincount(ids[mask], minlength=len(sizes))
            out.expect(
                np.all((inside == 0) | (inside == sizes)),
                f"{stem}: instance {k} splits a 0.25 m cell",
            )
        want = ref.expected_instances(probs, iou, sp_mask, sizes)
        if out.expect(len(want) == len(written), f"{stem}: {len(written)} instances, expected {len(want)}"):
            for k, ((_, c, s, sp), (wc, ws, wm)) in enumerate(zip(want, written)):
                out.expect(
                    wc == c and _close(ws, s, 1e-12) and np.array_equal(wm, sp[ids]),
                    f"{stem}: instance {k} differs from cbrt(p x s x m) of the forward pass",
                )

        eval_scenes.append((written, classes, masks))
        for key, v in zip(inputs, (len(pos), len(sizes), len(classes), len(fwd.keypoints), len(written))):
            inputs[key].append(v)

    out.inputs.update(inputs)
    report = report_dir / "report.csv"
    if not out.expect(report.is_file(), "no report.csv") or len(eval_scenes) < len(scenes):
        return losses
    ap, m_ap, ap50, ap25 = ref.evaluate(eval_scenes)
    want = {f"{c},{t:.2f}": v for (c, t), v in ap.items()}
    want.update({"all,mAP": m_ap, "all,AP50": ap50, "all,AP25": ap25})
    lines = report.read_text().splitlines()[1:]
    got = {line.rsplit(",", 1)[0]: float(line.rsplit(",", 1)[1]) for line in lines}
    out.expect(set(got) == set(want), f"report.csv rows {sorted(got)} != {sorted(want)}")
    for key in set(got) & set(want):
        # the file keeps six decimals
        out.expect(abs(got[key] - want[key]) <= 5e-7 + 1e-9, f"report.csv {key}: {got[key]} vs {want[key]!r}")
    # distinct prediction / same-class ground-truth pairs an evaluator must score
    pairs = sum(classes.count(c) for preds, classes, _ in eval_scenes for c, _, _ in preds)
    out.inputs.update(mAP=m_ap, AP50=ap50, AP25=ap25, iou_pairs=pairs)
    return losses
