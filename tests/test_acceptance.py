"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The overfit runs train real models and take a few minutes; run with -s to see
the criterion lines as they complete. The four 2000-step trainings of criteria
7 and 8 are independent seeded runs, so they run two at a time in a spawn
pool whose workers use one BLAS thread each.
"""

import contextlib
import functools
import itertools
import multiprocessing
import os
import time
from unittest import mock

import numpy as np
import pytest

from sceneseg import (
    autodiff as ad,
    aggregation,
    cli,
    config as cfgmod,
    inference,
    kernels,
    scenegen,
    training,
)
from sceneseg.decoder import LayerPrediction, MultiHeadAttention, build_attention_mask
from sceneseg.inference import InstanceResult
from sceneseg.model import SegModel, seed_for
from sceneseg.training import TrainConfig

from helpers import SMALL_CFG, match_of, micro_model, micro_scene, pairs_of, traced


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {num:2d} {name}: FAIL", flush=True)
                raise
            print(f"[acceptance] criterion {num:2d} {name}: PASS", flush=True)

        return wrapper

    return deco


def constant_pred(probs, scores, masks):
    return LayerPrediction(
        class_probs=ad.constant(np.asarray(probs, dtype=np.float64)),
        iou_score=ad.constant(np.asarray(scores, dtype=np.float64).reshape(-1, 1)),
        sp_mask=ad.constant(np.asarray(masks, dtype=np.float64)),
    )


def make_gt(classes, masks):
    m = np.asarray(masks, dtype=bool)
    return scenegen.GroundTruth(
        instance_classes=np.asarray(classes, dtype=np.int64),
        point_masks=m,
        superpoint_masks=m,
    )


# ---------------------------------------------------------------------------
# shared overfit runs (criteria 7 and 8)


def train_pipeline(steps=2000, use_local=True, use_global=True, layers=6):
    run_cfg = cfgmod.RunConfig()
    model_cfg = cfgmod.model_config(run_cfg)
    model_cfg.use_local = use_local
    model_cfg.use_global = use_global
    model_cfg.dec.layers = layers
    train_cfg = cfgmod.train_config(run_cfg)
    train_cfg.steps = steps
    model = SegModel(model_cfg)
    preps = [
        model.prepare(
            scenegen.generate_scene(seed_for(0, f"scene{i}"), cfgmod.scene_spec(run_cfg))
        )
        for i in range(4)
    ]
    trace = training.fit(model, preps, train_cfg)
    preds = {
        i: inference.predict(model.forward(p).preds[-1], p.partition)
        for i, p in enumerate(preps)
    }
    gts = {i: p.gt for i, p in enumerate(preps)}
    report = inference.evaluate(preds, gts, preps[0].scene.n_class)
    return trace, report


# the full model first: criterion 7 waits for it alone
ABLATIONS = {
    "full": {},
    "local_only": {"use_global": False},
    "global_only": {"use_local": False},
    "no_layers": {"layers": 0},
}
# seconds to wait for one pooled run: criterion 7's own limit; a worker that
# dies loses its task, and an unbounded get would then wait forever
RUN_TIMEOUT = 900
ONE_BLAS_THREAD = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


@contextlib.contextmanager
def training_pool(processes=2):
    """A spawn pool whose workers start with one BLAS thread each; it is
    terminated on exit."""
    with mock.patch.dict(os.environ, ONE_BLAS_THREAD):
        pool = multiprocessing.get_context("spawn").Pool(processes)
    with pool:
        yield pool


def start_ablations(pool, steps=2000):
    return {
        name: pool.apply_async(train_pipeline, kwds={"steps": steps, **kw})
        for name, kw in ABLATIONS.items()
    }


@pytest.fixture(scope="module")
def overfit_run():
    """(trace, report, seconds) of the full run, and the pending results of
    every run in ABLATIONS."""
    t0 = time.time()
    with training_pool() as pool:
        runs = start_ablations(pool)
        trace, report = runs["full"].get(RUN_TIMEOUT)
        yield trace, report, time.time() - t0, runs


def test_pooled_runs_match_serial_runs():
    """Short runs of every ABLATIONS entry give the same reports, to the
    last bit of every float, two at a time as one at a time. Both sides use
    one BLAS thread: OpenBLAS's thread count changes the bits of a run."""
    runs = {}
    for processes in (2, 1):
        with training_pool(processes) as pool:
            assert pool.apply(os.getenv, ("OPENBLAS_NUM_THREADS",)) == "1"
            pending = start_ablations(pool, steps=12)
            runs[processes] = {name: repr(r.get(RUN_TIMEOUT)) for name, r in pending.items()}
    assert runs[2] == runs[1]


# ---------------------------------------------------------------------------


@criterion(1, "gradient integrity")
def test_gradient_integrity():
    t0 = time.time()
    model = micro_model(seed=0, k=4, d=16, layers=2)
    prep = model.prepare(micro_scene(seed=3, n_points=120))
    assert 8 <= prep.partition.n_superpoints <= 40  # micro M target ~15
    train_cfg = TrainConfig()

    def eval_once():
        # collect every discrete choice: the matching via the loss report's
        # hash; the candidate picks, gating masks and relu/clip/group_max
        # patterns from the trace
        ad.structure_trace = trace = []
        try:
            out = model.forward(prep)
            rep = training.total_loss(
                out.preds, prep.gt, prep.partition.sizes, out.foreground, prep.scene, train_cfg
            )
        finally:
            ad.structure_trace = None
        return rep.total_tensor, (rep.structure, tuple(trace)), out

    blocks = {
        "backbone": "backbone.",
        "foreground head": "foreground.",
        "local aggregation": "local.",
        "projections": "global.",
        "decoder layer": "decoder.layer",
        "prediction head": "head.",
    }
    h, tol = 1e-4, 1e-3
    rng = np.random.default_rng(0)
    loss, base_struct, out = eval_once()
    # the trace holds the sampler's picks, then one open pattern per gating
    # mask: those of the predictions before each layer
    patterns = iter(base_struct[1])
    assert len(out.keypoints) and out.keypoints.tobytes() in patterns
    for p in out.preds[:-1]:
        gate = build_attention_mask(p.sp_mask.value, model.cfg.dec.tau)
        assert np.isfinite(gate).tobytes() in patterns
    ad.backward(loss)
    grads = {n: model.store.grad_of(n).copy() for n in model.store.names()}

    for label, prefix in blocks.items():
        names = [n for n in model.store.names() if n.startswith(prefix)]
        entries = []
        for _ in range(20):
            name = names[rng.integers(len(names))]
            t = model.store[name]
            entries.append((name, tuple(int(rng.integers(s)) for s in t.shape)))
        checked = 0
        for name, idx in entries:
            t = model.store[name]
            orig = t.value[idx]
            t.value[idx] = orig + h
            hi_loss, hi_struct, _ = eval_once()
            t.value[idx] = orig - h
            lo_loss, lo_struct, _ = eval_once()
            t.value[idx] = orig
            if hi_struct != base_struct or lo_struct != base_struct:
                continue  # non-differentiable point: a discrete choice flipped
            fd = (float(hi_loss.value[0, 0]) - float(lo_loss.value[0, 0])) / (2 * h)
            g = grads[name][idx]
            err = abs(fd - g) / max(abs(fd), abs(g), 1e-6)
            assert err < tol, f"{label} {name}{idx}: ad={g} fd={fd} rel={err}"
            checked += 1
        assert checked >= 10, f"{label}: only {checked}/20 entries were differentiable"
    assert time.time() - t0 < 60


@criterion(2, "hungarian oracle")
def test_hungarian_oracle():
    rng = np.random.default_rng(42)
    for size in range(2, 8):
        for _ in range(100):
            cost = rng.uniform(size=(size, size))
            best = None
            for perm in itertools.permutations(range(size)):
                total = sum(cost[perm[j], j] for j in range(size))
                if best is None or total < best:
                    best = total
            pairs = pairs_of(training.hungarian(cost))
            by_col = {g: q for q, g in pairs}
            got = sum(cost[by_col[j], j] for j in range(size))
            assert got == best, f"size {size}: {got} != {best}"


@criterion(3, "loss identities")
def test_loss_identities(monkeypatch):
    def components(pred, gt, eps):
        return training.set_loss(pred, match_of([(0, 0)]), gt, np.ones(4), TrainConfig(), eps)[1]

    gt_same = make_gt([0], [[True, False, True, False]])
    pred_same = constant_pred(np.ones((1, 2)), [0.5], [[1.0, 0.0, 1.0, 0.0]])
    assert components(pred_same, gt_same, eps=0.0)[3] == 0.0

    gt_disj = make_gt([0], [[False, False, True, True]])
    pred_disj = constant_pred(np.ones((1, 2)), [0.5], [[1.0, 1.0, 0.0, 0.0]])
    assert components(pred_disj, gt_disj, eps=0.0)[3] == 1.0

    assert components(pred_same, gt_same, eps=training.DICE_EPS)[2] < 1e-6

    # exact linearity in each weight
    scene = scenegen.Scene(
        points=np.zeros((3, 6)),
        semantic=np.zeros(3, dtype=int),
        instance=np.zeros(3, dtype=int),
        n_class=3,
    )
    fg = ad.constant(np.full((3, 1), 0.5))
    pred = constant_pred(np.full((2, 4), 0.25), [0.3, 0.7], np.full((2, 4), 0.4))
    args = ([pred], make_gt([1], [[True, False, True, False]]), np.ones(4), fg, scene)
    for weight in ("w_cls", "w_score", "w_bce", "w_dice"):
        totals = [training.total_loss(*args, TrainConfig(**{weight: v})).total for v in (0.0, 1.0, 2.0)]
        assert abs((totals[2] - totals[1]) - (totals[1] - totals[0])) < 1e-12

    # the weighted combination on the criterion's own components, pinned by hand:
    # uniform classes, score 0.3 against IoU 0, masks at 0.4 over 2 of 4
    # superpoints, Dice with eps 1 is 1 - 2.6 / 4.6
    monkeypatch.setattr(training, "foreground_loss", lambda *a, **k: ad.constant([[0.0]]))
    cfg = TrainConfig(w_cls=0.5, w_score=0.5, w_bce=1.0, w_dice=1.0)
    r = training.total_loss(*args, cfg)
    want = (np.log(4), 0.09, -(np.log(0.4) + np.log(0.6)) / 2, 2.0 / 4.6)
    np.testing.assert_allclose((r.cls, r.score, r.bce, r.dice), want, rtol=0, atol=1e-12)
    assert r.total == (0.5 * r.cls + 0.5 * r.score) + (1.0 * r.bce + 1.0 * r.dice)


@criterion(4, "attention-mask semantics")
def test_attention_mask_semantics():
    prev = np.array([[0.6, 0.5, 0.4], [0.9, 0.1, 0.2]])
    a = build_attention_mask(prev, 0.5)
    assert a[0, 0] == 0.0 and a[0, 1] == 0.0  # boundary tau unmasked
    assert a[0, 2] == -np.inf

    store = ad.ParamStore()
    attn = MultiHeadAttention(store, "a", 8, 2, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    z = ad.constant(rng.normal(size=(2, 8)))
    f = ad.constant(rng.normal(size=(3, 8)))
    with traced("attention_trace") as cap:
        attn(z, f, mask=a)
    (weights,) = cap
    assert weights.shape == (2, 2, 3)  # heads x queries x context rows
    for w in weights:
        assert np.all(w[0, 2] == 0.0)  # masked column: exactly zero weight
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.all(np.isfinite(w))

    # all-zero previous mask: fallback to fully unmasked rows, no NaN
    fallback = build_attention_mask(np.zeros((2, 3)), 0.5)
    np.testing.assert_array_equal(fallback, np.zeros((2, 3)))
    with traced("attention_trace") as cap2:
        out = attn(z, f, mask=fallback)
    assert np.all(np.isfinite(out.value))
    (weights,) = cap2
    assert weights.shape == (2, 2, 3)
    for w in weights:
        assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12


@criterion(5, "geometry oracles")
def test_geometry_oracles():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(5, 60))
        pos = rng.uniform(0, 2, size=(n, 3))
        keys = pos[rng.choice(n, size=min(4, n), replace=False)]
        r = float(rng.uniform(0.2, 1.0))
        cap = n  # uncapped: exact index-set comparison
        got = kernels.sphere_query_lists(keys, pos, r, cap)
        for k in range(len(keys)):
            want = np.nonzero(((pos - keys[k]) ** 2).sum(axis=1) < r * r)[0]
            np.testing.assert_array_equal(np.sort(got[k]), want)

    # farthest point sampling is the candidate sampler with every point
    # eligible and no ball but each pick's own (rq = 0); it starts at index 0
    def fps(points, n):
        return aggregation.iterative_candidate_sample(points, np.ones(len(points)), 0.5, n, 0.0).indices

    # unit-square example: start at (0,0) -> second pick is the far corner
    square = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    picks = fps(square, 2)
    assert picks[0] == 0 and picks[1] == 3

    # prefix property
    cloud = rng.uniform(size=(40, 3))
    for n in range(1, 12):
        a = fps(cloud, n)
        b = fps(cloud, n + 1)
        np.testing.assert_array_equal(b[:n], a)

    # eligible-set monotonicity in beta over a 10x10 grid
    f_grid = np.linspace(0.05, 0.95, 10)
    betas = np.linspace(0.0, 0.9, 10)
    prev = None
    for beta in betas:
        cur = aggregation.eligible_points(f_grid, beta)
        if prev is not None:
            assert np.all(cur <= prev)
        prev = cur


@criterion(6, "evaluator correctness")
def test_evaluator_correctness():
    # hand PR case: 2 gt of one class, hit at score 0.9, miss at 0.8 -> AP 0.5
    gt = make_gt([0, 0], [[1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
    preds = [
        InstanceResult(0, 0.9, None, np.array([1, 1, 0, 0, 0, 0], bool)),
        InstanceResult(0, 0.8, None, np.array([0, 0, 1, 0, 0, 0], bool)),
    ]
    rep = inference.evaluate({0: preds}, {0: gt}, 1)
    assert rep.ap[(0, 0.5)] == 0.5

    # perfect predictions
    gt2 = make_gt([0, 1], [[1, 1, 0, 0], [0, 0, 1, 1]])
    perfect = [
        InstanceResult(0, 0.9, None, np.array([1, 1, 0, 0], bool)),
        InstanceResult(1, 0.8, None, np.array([0, 0, 1, 1], bool)),
    ]
    rep2 = inference.evaluate({0: perfect}, {0: gt2}, 2)
    assert rep2.map_ == 1.0 and rep2.ap50 == 1.0 and rep2.ap25 == 1.0

    # splitting superpoints (same point masks) is invisible to the evaluator
    coarse = [InstanceResult(0, 0.9, np.array([1, 0], bool), np.array([1, 1, 0, 0], bool))]
    fine = [InstanceResult(0, 0.9, np.array([1, 1, 0, 0], bool), np.array([1, 1, 0, 0], bool))]
    gt3 = make_gt([0], [[1, 1, 0, 0]])
    r_coarse = inference.evaluate({0: coarse}, {0: gt3}, 1)
    r_fine = inference.evaluate({0: fine}, {0: gt3}, 1)
    assert r_coarse.ap == r_fine.ap
    assert (r_coarse.map_, r_coarse.ap50, r_coarse.ap25) == (r_fine.map_, r_fine.ap50, r_fine.ap25)


@criterion(7, "end-to-end overfit")
def test_end_to_end_overfit(overfit_run):
    trace, report, elapsed, _ = overfit_run
    assert elapsed < 900, f"took {elapsed:.0f}s"
    assert report.ap25 >= 0.90, f"AP25 {report.ap25}"
    assert report.ap50 >= 0.70, f"AP50 {report.ap50}"
    totals = np.array([r.total for r in trace])
    ma = np.convolve(totals, np.ones(100) / 100, mode="valid")
    assert np.all(np.diff(ma) <= 1e-12), "loss moving average not monotone decreasing"


@criterion(8, "ablation structure")
def test_ablation_structure(overfit_run):
    _, full_report, _, runs = overfit_run

    def valid(rep):
        assert rep.classes, "no classes with ground truth"
        for v in rep.ap.values():
            assert v is None or 0.0 <= v <= 1.0
        for v in (rep.map_, rep.ap50, rep.ap25):
            assert 0.0 <= v <= 1.0

    _, local_only = runs["local_only"].get(RUN_TIMEOUT)
    _, global_only = runs["global_only"].get(RUN_TIMEOUT)
    _, no_layers = runs["no_layers"].get(RUN_TIMEOUT)
    for rep in (local_only, global_only, no_layers):
        valid(rep)
    assert full_report.ap25 >= local_only.ap25
    assert full_report.ap25 >= global_only.ap25


@criterion(9, "determinism")
def test_determinism(tmp_path):
    def run(args):
        argv = list(args)
        for s in SMALL_CFG:
            argv += ["--set", s]
        assert cli.main(argv) == 0

    data = tmp_path / "data"
    run(["gen", "--out", str(data)])
    runs = []
    for sub in ("r1", "r2"):
        out = tmp_path / sub
        run(["train", "--data", str(data), "--out", str(out)])
        runs.append(out)
    loss_a = (runs[0] / "loss.csv").read_text().splitlines()
    loss_b = (runs[1] / "loss.csv").read_text().splitlines()
    assert loss_a[1:11] == loss_b[1:11]  # first 10 loss rows bit-identical

    pred_outs = []
    for sub in ("p1", "p2"):
        out = tmp_path / sub
        run(
            ["predict", "--checkpoint", str(runs[0] / "checkpoint.psgw"),
             "--scene", str(data / "scene_000.ply"), "--out", str(out)]
        )
        pred_outs.append(out)
    assert (pred_outs[0] / "scene_000.pred.txt").read_bytes() == (
        pred_outs[1] / "scene_000.pred.txt"
    ).read_bytes()


@criterion(10, "inference contract")
def test_inference_contract():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        p, s, ms = rng.uniform(size=3)
        assert abs(inference.final_score(p, s, ms) - (p * s * ms) ** (1 / 3)) < 1e-12

    assert inference.mask_score(np.array([0.5, 0.3, 0.0]), np.ones(3)) == 0.0

    # no suppression: duplicated identical queries yield duplicated instances
    probs = np.tile([0.8, 0.1, 0.1], (2, 1))
    pred = constant_pred(probs, [0.9, 0.9], np.tile([0.9, 0.2], (2, 1)))
    partition = scenegen.SuperpointPartition(
        assignment=np.array([0, 1, 1]), sizes=np.array([1, 2])
    )
    out = inference.predict(pred, partition)
    assert len(out) == 2
    assert out[0].final_score == out[1].final_score
    np.testing.assert_array_equal(out[0].point_mask, out[1].point_mask)
    assert out[0].class_id == out[1].class_id
