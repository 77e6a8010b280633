import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sceneseg import autodiff as ad, config as cfgmod, model, scenegen, training
from sceneseg.aggregation import AggregationConfig
from sceneseg.backbone import BackboneConfig
from sceneseg.decoder import DecoderConfig, LayerPrediction
from sceneseg.model import SegModel, seed_for
from sceneseg.errors import ContractError, NumericError
from sceneseg.training import TrainConfig

import helpers
from helpers import (
    SMALL_CFG,
    PerParameterAdam,
    backward_keep_tape,
    composed_add_layer_norm,
    composed_attention,
    composed_attention_block,
    composed_linear,
    composed_linear_layer,
    composed_set_criterion,
    composed_weighted_bce,
    dice_loss_per_pair,
    loop_set_criterion,
    match_cost_loop,
    match_of,
    micro_model,
    micro_scene,
    pairs_of,
    scatter_add_at,
    take_copy,
    unique_rows_np,
)


def brute_force_cost(cost):
    """Least total cost of min(K, K_gt) one-to-one pairs, by enumeration."""
    k, k_gt = cost.shape
    if k < k_gt:
        return brute_force_cost(cost.T)
    best = np.inf
    n = min(k, k_gt)
    rows = range(k)
    for combo in itertools.permutations(rows, n):
        best = min(best, sum(cost[r, c] for c, r in enumerate(combo)))
    return best


def fake_pred(probs, masks, scores=None):
    probs = np.asarray(probs, dtype=np.float64)
    masks = np.asarray(masks, dtype=np.float64)
    if scores is None:
        scores = np.full((len(probs), 1), 0.5)
    return LayerPrediction(
        class_probs=ad.constant(probs),
        iou_score=ad.constant(np.asarray(scores, dtype=np.float64).reshape(-1, 1)),
        sp_mask=ad.constant(masks),
    )


def fake_gt(classes, sp_masks):
    sp = np.asarray(sp_masks, dtype=bool)
    return scenegen.GroundTruth(
        instance_classes=np.asarray(classes, dtype=np.int64),
        point_masks=sp,  # point granularity unused by the loss terms under test
        superpoint_masks=sp,
    )


@st.composite
def matching_cases(draw):
    """Random predictions against random ground truth: K queries, K_gt
    instances over M superpoints, with some mask entries saturated at exactly
    0 or 1 as a sigmoid can give."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, k_gt, m = draw(st.integers(1, 14)), draw(st.integers(1, 14)), draw(st.integers(1, 40))
    n_class = draw(st.integers(1, 4))
    masks = rng.uniform(size=(k, m))
    saturated = rng.uniform(size=(k, m)) < draw(st.sampled_from([0.0, 0.2, 1.0]))
    masks[saturated] = np.round(masks[saturated])
    gt = fake_gt(rng.integers(0, n_class, size=k_gt), rng.uniform(size=(k_gt, m)) < 0.4)
    pred = fake_pred(rng.dirichlet(np.ones(n_class + 1), size=k), masks)
    return pred, gt, rng.integers(1, 50, size=m).astype(np.float64), rng


class TestHungarian:
    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6, 7])
    def test_matches_brute_force(self, size):
        rng = np.random.default_rng(size)
        for _ in range(20):
            cost = rng.uniform(size=(size, size))
            got = sum(cost[q, g] for q, g in pairs_of(training.hungarian(cost)))
            assert abs(got - brute_force_cost(cost)) < 1e-12

    def test_rectangular(self):
        rng = np.random.default_rng(0)
        cost = rng.uniform(size=(5, 3))
        pairs = pairs_of(training.hungarian(cost))
        assert len(pairs) == 3
        got = sum(cost[q, g] for q, g in pairs)
        assert abs(got - brute_force_cost(cost)) < 1e-12

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            cost = rng.uniform(size=(6, 4))
            base = pairs_of(training.hungarian(cost))
            assert pairs_of(training.hungarian(cost * 7.3)) == base

    def test_empty(self):
        """No pairs, as two empty int64 arrays, whichever side is empty."""
        for shape in [(0, 0), (2, 0), (0, 3)]:
            q, g = training.hungarian(np.zeros(shape))
            assert pairs_of((q, g)) == [] and q.shape == g.shape == (0,)
            assert q.dtype == g.dtype == np.int64

    def test_index_arrays_and_hashed_pairs(self):
        """Two int64 arrays, query indices ascending; their pairs have the
        repr that total_loss hashes into the structure digest."""
        cost = np.array([[5.0, 0.0], [9.0, 9.0], [0.0, 5.0]])
        q, g = training.hungarian(cost)
        assert q.dtype == np.int64 and g.dtype == np.int64
        assert q.tolist() == [0, 2] and g.tolist() == [1, 0]
        assert repr(pairs_of((q, g))) == "[(0, 1), (2, 0)]" and len(q) == 2
        assert repr(pairs_of(match_of([]))) == "[]"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 2**32 - 1), st.booleans())
    def test_scipy_order_and_optimal_cost(self, k, k_gt, seed, ties):
        """Any K x K_gt cost, ties included: two int64 arrays of min(K, K_gt)
        pairs, query indices strictly ascending (SciPy's order, which
        total_loss hashes), gt indices distinct, and a brute-force optimal
        cost whenever min(K, K_gt) <= 6."""
        cost = np.random.default_rng(seed).uniform(size=(k, k_gt))
        if ties:
            cost = np.round(cost * 3)
        q, g = training.hungarian(cost)
        n = min(k, k_gt)
        assert q.dtype == g.dtype == np.int64 and q.shape == g.shape == (n,)
        assert np.all(np.diff(q) > 0) and len(set(g.tolist())) == n
        if n <= 6:
            assert abs(cost[q, g].sum() - brute_force_cost(cost)) < 1e-9

    def test_nonfinite_rejected(self):
        """An overflowed cost is a numeric failure (exit 4), not a broken contract."""
        with pytest.raises(NumericError, match="^non-finite matching cost$"):
            training.hungarian(np.array([[1.0, np.inf], [0.0, 1.0]]))


class TestMatchCost:
    def test_perfect_pair_zero_cost(self):
        gt = fake_gt([1], [[True, False, True]])
        probs = np.array([[0.0, 1.0, 0.0, 0.0]])
        masks = np.array([[1.0, 0.0, 1.0]])
        cost = training.match_cost(fake_pred(probs, masks), gt, np.ones(3))
        # clamped log(1) = 0 and bce/dice of an exact binary match ~ 0 (eps=1 dice)
        assert cost[0, 0] < 0.3  # dice eps keeps a small residue

    def test_scaling_keeps_argmin(self):
        rng = np.random.default_rng(2)
        gt = fake_gt([0, 1], rng.uniform(size=(2, 5)) > 0.5)
        pred = fake_pred(
            rng.dirichlet(np.ones(4), size=3), rng.uniform(0.01, 0.99, size=(3, 5))
        )
        c1 = training.match_cost(pred, gt, np.ones(5), lambda_cls=1.0, lambda_mask=1.0)
        c2 = training.match_cost(pred, gt, np.ones(5), lambda_cls=2.0, lambda_mask=2.0)
        np.testing.assert_allclose(c2, 2 * c1, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(matching_cases())
    def test_matches_per_gt_loop(self, case):
        pred, gt, sizes, _ = case
        got = training.match_cost(pred, gt, sizes, lambda_cls=0.7, lambda_mask=1.3)
        want = match_cost_loop(pred, gt, sizes, lambda_cls=0.7, lambda_mask=1.3)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        pairs, want_pairs = pairs_of(training.hungarian(got)), pairs_of(training.hungarian(want))
        if pairs != want_pairs:  # only on an exact tie of the loop's costs
            total = lambda ps: sum(want[q, g] for q, g in ps)
            assert abs(total(pairs) - total(want_pairs)) <= 1e-12


def layer_loss(pred, pairs, gt, sizes, eps=training.DICE_EPS, **weights):
    """The program's criterion of one supervised layer: its loss node and its
    (cls, score, bce, dice) components."""
    return training.set_loss(pred, match_of(pairs), gt, sizes, TrainConfig(**weights), eps)


class TestClassificationLoss:
    def test_perfect_one_hot(self):
        gt = fake_gt([1, 0], np.eye(2, 4, dtype=bool))
        probs = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        pred = fake_pred(probs, np.zeros((2, 4)))
        _, (cls, *_) = layer_loss(pred, [(0, 0), (1, 1)], gt, np.ones(4))
        assert cls == 0.0

    def test_uniform(self):
        gt = fake_gt([2], [[True, False]])
        probs = np.full((3, 4), 0.25)
        pred = fake_pred(probs, np.zeros((3, 2)))
        _, (cls, *_) = layer_loss(pred, [(1, 0)], gt, np.ones(2))
        assert abs(cls - np.log(4)) < 1e-12

    def test_two_query_hand_case(self):
        gt = fake_gt([0, 1], np.eye(2, 3, dtype=bool))
        probs = np.array([[0.7, 0.1, 0.1, 0.1], [0.3, 0.1, 0.3, 0.3]])
        pred = fake_pred(probs, np.zeros((2, 3)))
        _, (cls, *_) = layer_loss(pred, [(0, 0), (1, 1)], gt, np.ones(3))
        want = -(np.log(0.7) + np.log(0.1)) / 2  # ~= 1.3297
        assert abs(cls - want) < 1e-12
        assert abs(want - 1.3297) < 1e-4

    def test_unmatched_queries_target_no_instance(self):
        gt = fake_gt([0], [[True]])
        probs = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        pred = fake_pred(probs, np.zeros((2, 1)))
        _, (cls, *_) = layer_loss(pred, [(0, 0)], gt, np.ones(1))
        assert cls == 0.0


class TestScoreLoss:
    def test_exact_scores_zero(self):
        gt = fake_gt([0], [[True, True, False]])
        masks = np.array([[0.9, 0.9, 0.1]])  # binarized == gt, so IoU target = 1
        pred = fake_pred(np.ones((1, 2)), masks, scores=[[1.0]])
        _, (_, score, *_) = layer_loss(pred, [(0, 0)], gt, np.ones(3))
        assert score == 0.0

    def test_s_one_iou_zero(self):
        gt = fake_gt([0], [[False, False, True]])
        masks = np.array([[0.9, 0.9, 0.1]])  # disjoint from gt
        pred = fake_pred(np.ones((1, 2)), masks, scores=[[1.0]])
        _, (_, score, *_) = layer_loss(pred, [(0, 0)], gt, np.ones(3))
        assert score == 1.0

    def test_hand_case(self):
        # binarized pred covers sp {0,1}, gt covers {1}: IoU = 1/2 at equal sizes
        gt = fake_gt([0], [[False, True]])
        masks = np.array([[0.8, 0.8]])
        pred = fake_pred(np.ones((1, 2)), masks, scores=[[0.6]])
        _, (_, score, *_) = layer_loss(pred, [(0, 0)], gt, np.ones(2))
        assert abs(score - 0.01) < 1e-12

    def test_no_pairs(self):
        pred = fake_pred(np.ones((2, 2)), np.zeros((2, 3)))
        gt = fake_gt([], np.zeros((0, 3), dtype=bool))
        _, (_, score, *_) = layer_loss(pred, [], gt, np.ones(3))
        assert score == 0.0

    def test_target_detached(self):
        """The score term sends no gradient into the masks its IoU target
        was measured on."""
        gt = fake_gt([0], [[True, False]])
        masks = ad.Tensor(np.array([[0.9, 0.1]]))
        score = ad.Tensor(np.array([[0.3]]))
        pred = LayerPrediction(
            class_probs=ad.constant(np.ones((1, 2))), iou_score=score, sp_mask=masks
        )
        loss, _ = layer_loss(pred, [(0, 0)], gt, np.ones(2), w_cls=0.0, w_bce=0.0, w_dice=0.0)
        ad.backward(loss)
        assert np.any(score.grad)
        assert masks.grad is None or not np.any(masks.grad)


class TestBceMaskLoss:
    def test_near_perfect(self):
        gt = fake_gt([0], [[True, False, True]])
        masks = np.array([[1.0, 0.0, 1.0]])
        pred = fake_pred(np.ones((1, 2)), masks)
        _, (_, _, bce, _) = layer_loss(pred, [(0, 0)], gt, np.ones(3))
        assert bce < 1e-6

    def test_half_everywhere(self):
        gt = fake_gt([0], [[True, False, True, False]])
        pred = fake_pred(np.ones((1, 2)), np.full((1, 4), 0.5))
        _, (_, _, bce, _) = layer_loss(pred, [(0, 0)], gt, np.ones(4))
        assert abs(bce - np.log(2)) < 1e-12

    def test_hand_case(self):
        gt = fake_gt([0], [[True, False]])
        pred = fake_pred(np.ones((1, 2)), np.array([[0.9, 0.2]]))
        _, (_, _, bce, _) = layer_loss(pred, [(0, 0)], gt, np.ones(2))
        want = -(np.log(0.9) + np.log(0.8)) / 2  # ~= 0.1643
        assert abs(bce - want) < 1e-12

    def test_size_weighting(self):
        # all error concentrated on a superpoint holding 3 of 4 points
        gt = fake_gt([0], [[True, False]])
        pred = fake_pred(np.ones((1, 2)), np.array([[0.5, 1e-9]]))
        _, (_, _, bce, _) = layer_loss(pred, [(0, 0)], gt, np.array([3, 1]))
        assert abs(bce - 0.75 * np.log(2)) < 1e-7


class TestDiceLoss:
    def test_identical_exact_zero_eps0(self):
        gt = fake_gt([0], [[True, False, True, False]])
        pred = fake_pred(np.ones((1, 2)), np.array([[1.0, 0.0, 1.0, 0.0]]))
        _, (*_, dice) = layer_loss(pred, [(0, 0)], gt, np.ones(4), eps=0.0)
        assert dice == 0.0

    def test_disjoint_exact_one_eps0(self):
        gt = fake_gt([0], [[False, False, True, True]])
        pred = fake_pred(np.ones((1, 2)), np.array([[1.0, 1.0, 0.0, 0.0]]))
        _, (*_, dice) = layer_loss(pred, [(0, 0)], gt, np.ones(4), eps=0.0)
        assert dice == 1.0

    def test_hand_case_eps0(self):
        gt = fake_gt([0], [[False, True, True, False]])
        pred = fake_pred(np.ones((1, 2)), np.array([[1.0, 1.0, 0.0, 0.0]]))
        _, (*_, dice) = layer_loss(pred, [(0, 0)], gt, np.ones(4), eps=0.0)
        assert dice == 0.5

    def test_range_with_smoothing(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.integers(2, 30)
            gt = fake_gt([0], rng.uniform(size=(1, m)) > 0.5)
            pred = fake_pred(np.ones((1, 2)), rng.uniform(size=(1, m)))
            _, (*_, v) = layer_loss(pred, [(0, 0)], gt, rng.integers(1, 9, size=m))
            assert 0.0 <= v < 1.0

    def test_identical_small_with_smoothing(self):
        m = 200
        g = np.zeros(m, dtype=bool)
        g[:40] = True
        gt = fake_gt([0], g[None])
        pred = fake_pred(np.ones((1, 2)), g[None].astype(float))
        _, (*_, v) = layer_loss(pred, [(0, 0)], gt, np.ones(m))
        assert v < 1e-2

    @settings(max_examples=200, deadline=None)
    @given(matching_cases())
    def test_matches_per_pair_chain(self, case):
        """The Dice term alone (the other weights 0): byte-identical mask
        gradients. The value is identical below 8 pairs; from 8 on, numpy
        sums the terms pairwise instead of in a chain, so it may differ by a
        few ulps (within one ulp per pair)."""
        pred, gt, sizes, rng = case
        k, k_gt = pred.sp_mask.shape[0], len(gt.instance_classes)
        n = min(k, k_gt)
        queries = np.sort(rng.choice(k, n, replace=False))
        pairs = list(zip(queries.tolist(), rng.permutation(k_gt)[:n].tolist()))
        q, gi = match_of(pairs)

        def leaf_and_pred():
            leaf = ad.Tensor(pred.sp_mask.value.copy())
            return leaf, LayerPrediction(pred.class_probs, pred.iou_score, leaf)

        leaf, p = leaf_and_pred()
        loss, (*_, value) = layer_loss(p, pairs, gt, sizes, w_cls=0.0, w_score=0.0, w_bce=0.0)
        ad.backward(loss)
        want_leaf, _ = leaf_and_pred()
        g = gt.superpoint_masks[gi].astype(np.float64)
        want = dice_loss_per_pair(want_leaf, q, g, sizes, training.DICE_EPS)
        ad.backward(want)
        want_value = want.value[0, 0]
        assert leaf.grad.tobytes() == want_leaf.grad.tobytes()
        if n < 8:
            assert value == want_value
        else:
            assert abs(value - want_value) <= n * np.spacing(want_value)


class TestForegroundLoss:
    def make_scene(self, labels):
        n = len(labels)
        return scenegen.Scene(
            points=np.zeros((n, 6)),
            semantic=np.where(np.asarray(labels), 0, -1),
            instance=np.where(np.asarray(labels), 0, -1),
            n_class=3,
        )

    def test_perfect(self):
        scene = self.make_scene([1, 0, 1])
        f = ad.constant(np.array([[1.0], [0.0], [1.0]]))
        assert training.foreground_loss(f, scene).value[0, 0] < 1e-6

    def test_half(self):
        scene = self.make_scene([1, 0])
        f = ad.constant(np.full((2, 1), 0.5))
        assert abs(training.foreground_loss(f, scene).value[0, 0] - np.log(2)) < 1e-12

    def test_mixed_hand_case(self):
        scene = self.make_scene([1, 0])
        f = ad.constant(np.array([[0.8], [0.3]]))
        want = -(np.log(0.8) + np.log(0.7)) / 2
        assert abs(training.foreground_loss(f, scene).value[0, 0] - want) < 1e-12


class TestTotalLoss:
    def setup_inputs(self):
        gt = fake_gt([0], [[True, False]])
        pred = fake_pred(np.full((2, 4), 0.25), np.full((2, 2), 0.5))
        scene = scenegen.Scene(
            points=np.zeros((3, 6)),
            semantic=np.zeros(3, dtype=int),
            instance=np.zeros(3, dtype=int),
            n_class=3,
        )
        fg = ad.constant(np.full((3, 1), 0.5))
        return [pred], gt, np.ones(2), fg, scene

    def test_weighted_combination_hand_case(self, monkeypatch):
        """One layer: the total is w . (cls, score, bce, dice), summed in the
        criterion's order, plus the foreground term (weight 1, here 0)."""
        monkeypatch.setattr(training, "foreground_loss", lambda *a, **k: ad.constant([[0.0]]))
        cfg = TrainConfig(w_cls=0.5, w_score=0.5, w_bce=1.0, w_dice=1.0)
        r = training.total_loss(*self.setup_inputs(), cfg)
        # uniform classes; score 0.5 against IoU 0; masks at 0.5 against 1 of
        # 2 superpoints; Dice with eps 1 is 1 - 2 / 3
        assert abs(r.cls - np.log(4)) < 1e-12 and r.score == 0.25
        assert abs(r.bce - np.log(2)) < 1e-12 and abs(r.dice - 1.0 / 3.0) < 1e-12
        assert r.total == (0.5 * r.cls + 0.5 * r.score) + (1.0 * r.bce + 1.0 * r.dice)
        assert abs(r.total - (0.5 * np.log(4) + 0.125 + np.log(2) + 1.0 / 3.0)) < 1e-12

    def test_all_zero_components(self):
        """With every weight 0 only the foreground term is left. A perfect
        prediction zeroes cls, score and Dice exactly; BCE stays at its clamp."""
        args = self.setup_inputs()
        zero = TrainConfig(w_cls=0.0, w_score=0.0, w_bce=0.0, w_dice=0.0)
        r = training.total_loss(*args, zero)
        assert r.total == r.foreground
        gt = fake_gt([0], [[True, False]])
        probs = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        pred = fake_pred(probs, [[1.0, 0.0], [0.0, 0.0]], scores=[[1.0], [0.0]])
        r = training.total_loss([pred], gt, *args[2:], TrainConfig())
        assert (r.cls, r.score, r.dice) == (0.0, 0.0, 0.0) and 0.0 < r.bce < 1e-6
        assert r.total == r.bce + r.foreground

    @pytest.mark.parametrize("weight", ["w_cls", "w_score", "w_bce", "w_dice"])
    def test_exact_linearity_in_each_weight(self, weight):
        args = self.setup_inputs()

        def total(v):
            cfg = TrainConfig(**{weight: v})
            return training.total_loss(*args, cfg).total

        t0, t1, t2 = total(0.0), total(1.0), total(2.0)
        assert abs((t2 - t1) - (t1 - t0)) < 1e-12

    def test_doubling_w_cls_doubles_cls_share(self, monkeypatch):
        monkeypatch.setattr(training, "foreground_loss", lambda *a, **k: ad.constant([[0.0]]))
        args = self.setup_inputs()
        only_cls = dict(w_score=0.0, w_bce=0.0, w_dice=0.0)
        a = training.total_loss(*args, TrainConfig(w_cls=0.5, **only_cls)).total
        b = training.total_loss(*args, TrainConfig(w_cls=1.0, **only_cls)).total
        assert a > 0.0 and abs(b - 2 * a) < 1e-12

    def test_deep_supervision_averages_layers(self):
        preds, gt, sizes, fg, scene = self.setup_inputs()
        preds = preds * 3
        on = training.total_loss(preds, gt, sizes, fg, scene, TrainConfig(deep_supervision=True))
        off = training.total_loss(preds, gt, sizes, fg, scene, TrainConfig(deep_supervision=False))
        assert abs(on.total - off.total) < 1e-12  # identical layers average to the same

    def test_scene_without_instances_matches_no_pair(self, monkeypatch):
        """With no instance, match_cost is K x 0 and hungarian matches no pair,
        so the report, structure included, is that of an empty assignment."""
        _, _, sizes, fg, scene = self.setup_inputs()
        scene = dataclasses.replace(scene, instance=np.full(3, -1))
        gt = fake_gt([], np.zeros((0, 2), bool))
        preds = [fake_pred(np.full((2, 4), 0.25), [[0.7, 0.2], [0.4, 0.9]]),
                 fake_pred(np.full((2, 4), 0.25), [[0.1, 0.6], [0.5, 0.3]])]
        cost = training.match_cost(preds[0], gt, sizes)
        assert cost.shape == (2, 0) and pairs_of(training.hungarian(cost)) == []
        got = training.total_loss(preds, gt, sizes, fg, scene, TrainConfig())
        monkeypatch.setattr(training, "match_cost", lambda *a: None)
        monkeypatch.setattr(training, "hungarian", lambda cost: match_of([]))
        want = training.total_loss(preds, gt, sizes, fg, scene, TrainConfig())
        fields = ("cls", "score", "bce", "dice", "foreground", "total", "structure")
        assert [getattr(got, f) for f in fields] == [getattr(want, f) for f in fields]
        h = hashlib.sha256()
        for p in preds:
            h.update(b"[]" + (p.sp_mask.value > 0.5).tobytes())
        assert got.structure == h.digest() and got.score == got.bce == got.dice == 0.0

    def test_requires_predictions(self):
        _, gt, sizes, fg, scene = self.setup_inputs()
        with pytest.raises(ContractError):
            training.total_loss([], gt, sizes, fg, scene, TrainConfig())


def adam_store(shapes, rng):
    store = ad.ParamStore()
    for i, shape in enumerate(shapes):
        store.create(f"p{i}", *shape, rng)
    return store


class TestAdam:
    def test_first_step_is_the_closed_form_update(self):
        """At t = 1 the moments are (1 - beta) g and (1 - beta) g * g, so the
        update is lr * g / (|g| + eps) up to the bias-correction rounding; a
        parameter without a gradient does not move."""
        rng = np.random.default_rng(0)
        store = adam_store([(3, 4), (1, 4)], rng)
        before = {n: store[n].value.copy() for n in store.names()}
        g = rng.normal(size=(3, 4))
        store["p0"].grad = g
        cfg = TrainConfig(lr=0.01)
        opt = training.Adam(store, cfg)
        opt.step()
        b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
        mhat = ((1 - b1) * g) / (1.0 - b1)
        vhat = ((1 - b2) * g * g) / (1.0 - b2)
        want = before["p0"] - cfg.lr * mhat / (np.sqrt(vhat) + eps)
        assert store["p0"].value.tobytes() == want.tobytes()
        np.testing.assert_allclose(before["p0"] - want, cfg.lr * np.sign(g), rtol=1e-6)
        assert store["p1"].grad is None
        assert store["p1"].value.tobytes() == before["p1"].tobytes()
        assert opt.t == 1 and not opt.m["p1"].any() and not opt.v["p1"].any()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1e-3, 0.01, 0.3]), st.data())
    def test_three_steps_match_a_per_element_reference(self, seed, lr, data):
        rng = np.random.default_rng(seed)
        shapes = [(int(rng.integers(1, 4)), int(rng.integers(1, 5))) for _ in range(3)]
        store = adam_store(shapes, rng)
        params = {n: [float(v) for v in store[n].value.ravel()] for n in store.names()}
        m = {n: [0.0] * len(p) for n, p in params.items()}
        v = {n: [0.0] * len(p) for n, p in params.items()}
        opt = training.Adam(store, TrainConfig(lr=lr))
        b1, b2, eps = training.ADAM_BETA1, training.ADAM_BETA2, training.ADAM_EPS
        for t in (1, 2, 3):
            b1c, b2c = 1.0 - b1**t, 1.0 - b2**t
            for n in store.names():
                kind = data.draw(st.sampled_from(["none", "normal", "zeros", "scales"]))
                if kind == "none":
                    store[n].grad = None
                    g = [0.0] * len(params[n])
                else:
                    grad = rng.normal(size=store[n].shape)
                    if kind == "zeros":
                        grad[rng.uniform(size=grad.shape) < 0.5] = 0.0
                    elif kind == "scales":
                        grad *= 10.0 ** rng.integers(-6, 4, size=grad.shape)
                    store[n].grad = grad
                    g = [float(x) for x in grad.ravel()]
                for i, gi in enumerate(g):
                    m[n][i] = b1 * m[n][i] + (1 - b1) * gi
                    v[n][i] = b2 * v[n][i] + (1 - b2) * gi * gi
                    mhat, vhat = m[n][i] / b1c, v[n][i] / b2c
                    params[n][i] -= lr * mhat / (math.sqrt(vhat) + eps)
            opt.step()
            for n in store.names():
                want = np.array(params[n]).reshape(store[n].shape)
                assert store[n].value.tobytes() == want.tobytes(), (t, n)


@st.composite
def adam_case(draw):
    """A block size and parameter shapes around it: larger than a block,
    exactly one block, or small enough that several share one."""
    block = draw(st.integers(1, 24))
    shapes = []
    for kind in draw(st.lists(st.sampled_from(["larger", "exact", "small"]), min_size=1, max_size=8)):
        size = {"larger": lambda: draw(st.integers(block + 1, 3 * block + 5)),
                "exact": lambda: block,
                "small": lambda: draw(st.integers(1, max(1, block // 3)))}[kind]()
        rows = draw(st.sampled_from([d for d in range(1, size + 1) if size % d == 0]))
        shapes.append((rows, size // rows))
    return block, shapes


class TestBlockedAdam:
    @settings(max_examples=200, deadline=None)
    @given(adam_case(), st.integers(3, 5), st.integers(0, 2**32 - 1), st.data())
    def test_same_bytes_as_per_parameter_adam(self, case, steps, seed, data):
        """Parameters and both moments of every parameter equal the
        per-parameter update's bytes, whatever the packing into blocks, for
        missing, C-ordered and F-ordered gradients."""
        block, shapes = case
        rng = np.random.default_rng(seed)
        stores = [adam_store(shapes, np.random.default_rng(seed)) for _ in range(2)]
        cfg = TrainConfig(lr=data.draw(st.sampled_from([1e-3, 0.3])))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training.Adam, "BLOCK", block)
            opt = training.Adam(stores[0], cfg)
        oracle = PerParameterAdam(stores[1], cfg)
        for m, v, g, s, members in opt.blocks:
            assert len(members) == 1 or len(g) <= block
        for _ in range(steps):
            for n in stores[0].names():
                kind = data.draw(st.sampled_from(["none", "C", "F"]))
                grad = None
                if kind != "none":
                    grad = rng.normal(size=stores[0][n].shape) * 10.0 ** rng.integers(-6, 4)
                    grad = np.asfortranarray(grad) if kind == "F" else grad
                stores[0][n].grad = grad
                stores[1][n].grad = None if grad is None else grad.copy(order="K")
            opt.step()
            oracle.step()
            for n in stores[0].names():
                assert stores[0][n].value.tobytes() == stores[1][n].value.tobytes(), n
                assert opt.m[n].tobytes() == oracle.m[n].tobytes(), n
                assert opt.v[n].tobytes() == oracle.v[n].tobytes(), n

    def test_default_model_same_bytes_as_per_parameter_adam(self):
        """The default model's 267 parameters under the real block size."""
        cfg, tcfg = cfgmod.model_config(cfgmod.RunConfig()), TrainConfig()
        models = [SegModel(cfg), SegModel(cfg)]
        opt, oracle = training.Adam(models[0].store, tcfg), PerParameterAdam(models[1].store, tcfg)
        rng = np.random.default_rng(0)
        for _ in range(3):
            for n in models[0].store.names():
                grad = rng.normal(size=models[0].store[n].shape)
                models[0].store[n].grad, models[1].store[n].grad = grad, grad.copy()
            opt.step()
            oracle.step()
        for n in models[0].store.names():
            assert models[0].store[n].value.tobytes() == models[1].store[n].value.tobytes(), n
            assert opt.m[n].tobytes() == oracle.m[n].tobytes(), n
            assert opt.v[n].tobytes() == oracle.v[n].tobytes(), n


class TestFit:
    def prepared(self, model, seed=3):
        return model.prepare(micro_scene(seed=seed))

    def test_deterministic_first_losses(self):
        traces = []
        for _ in range(2):
            m = micro_model(seed=1)
            cfg = TrainConfig(steps=10)
            trace = training.fit(m, [self.prepared(m)], cfg)
            traces.append([r.total for r in trace])
        assert traces[0] == traces[1]

    def test_loss_decreases(self):
        m = micro_model(seed=1)
        trace = training.fit(m, [self.prepared(m)], TrainConfig(steps=40))
        assert np.mean([r.total for r in trace[-10:]]) < np.mean(
            [r.total for r in trace[:10]]
        )

    def test_nan_abort_names_component(self):
        m = micro_model(seed=1)
        m.store["decoder.query"].value[0, 0] = np.nan
        with pytest.raises(NumericError) as exc:
            training.fit(m, [self.prepared(m)], TrainConfig(steps=3))
        assert str(exc.value) == "non-finite class_probs of decoder stage 0 at step 0"

    @pytest.mark.parametrize("n_class", [1, 2])
    def test_refuses_a_class_the_model_has_no_slot_for(self, n_class):
        """The seed-3 four-object room holds classes 0 and 2; without a slot
        for class 2, fit stops before its first step."""
        cfg = micro_model().cfg
        m = SegModel(dataclasses.replace(cfg, dec=dataclasses.replace(cfg.dec, n_class=n_class)))
        prep = m.prepare(micro_scene(seed=3, n_points=400, n_objects=4))
        steps = []
        with pytest.raises(ContractError, match=f"instance class 2 does not fit n_class={n_class}"):
            training.fit(m, [prep], TrainConfig(steps=1), on_step=lambda s, r: steps.append(s))
        assert steps == []

    def test_requires_scenes(self):
        with pytest.raises(ContractError):
            training.fit(micro_model(), [], TrainConfig(steps=1))

    def test_no_deep_supervision_still_trains_early_layers(self):
        m = micro_model(seed=2)
        prep = self.prepared(m)
        cfg = TrainConfig(deep_supervision=False)
        report = training.scene_loss(m, prep, cfg)
        ad.backward(report.total_tensor)
        for name in m.store.names():
            if name.startswith("decoder.layer0.ffn"):
                assert np.any(m.store.grad_of(name) != 0), name

    def test_no_parameter_holds_a_gradient_after_fit(self):
        m = micro_model(seed=1)
        training.fit(m, [self.prepared(m)], TrainConfig(steps=1))
        assert [n for n in m.store.names() if m.store[n].grad is not None] == []

    @staticmethod
    def fit_against_oracle(scenes, monkeypatch, after_first_step=lambda model: None):
        """Two default-config steps of `fit` over `scenes`, and the same two
        steps of a model with the same init that drops every gradient before
        its backward, so PerParameterAdam reads zeros for each parameter the
        loss does not reach. `after_first_step` edits each model after its
        first step. Every parameter and both of its moments must match; the
        names each oracle step left unreached are returned."""
        tcfg = TrainConfig(steps=len(scenes))
        models = [SegModel(cfgmod.model_config(cfgmod.RunConfig())) for _ in range(2)]
        opts, adam = [], training.Adam
        monkeypatch.setattr(training, "Adam", lambda *args: opts.append(adam(*args)) or opts[0])
        training.fit(models[0], [models[0].prepare(s) for s in scenes], tcfg,
                     on_step=lambda step, _: step == 0 and after_first_step(models[0]))
        store, oracle, unreached = models[1].store, PerParameterAdam(models[1].store, tcfg), []
        for step, scene in enumerate(scenes):
            for n in store.names():
                store[n].grad = None
            ad.backward(training.scene_loss(models[1], models[1].prepare(scene), tcfg).total_tensor)
            unreached.append({n for n in store.names() if store[n].grad is None})
            oracle.step()
            if step == 0:
                after_first_step(models[1])
        for n in store.names():
            assert models[0].store[n].value.tobytes() == store[n].value.tobytes(), n
            assert opts[0].m[n].tobytes() == oracle.m[n].tobytes(), n
            assert opts[0].v[n].tobytes() == oracle.v[n].tobytes(), n
        return unreached

    def test_a_room_without_instances_gives_the_score_head_zeros(self, monkeypatch):
        """No set_criterion node reaches head.score.*, nor the mask MLP
        global.mask.*, on a room without an instance; the step must not apply
        the previous room's gradient to them."""
        room = scenegen.generate_scene(seed_for(1, "scene0"), scenegen.SceneSpec())
        empty = dataclasses.replace(room, semantic=np.full(room.n_points, -1),
                                    instance=np.full(room.n_points, -1))
        empty.validate()
        unreached = self.fit_against_oracle([room, empty], monkeypatch)
        unfed = {n for n in unreached[1] if n.startswith(("head.score.", "global.mask."))}
        assert len(unfed) == 8 and not unfed & unreached[0]

    def test_a_step_without_keypoints_gives_the_local_branch_zeros(self, monkeypatch):
        """A foreground bias of -50 leaves no eligible keypoint, so neither
        local.* nor any cross_l block's q, k and v projection is reached."""
        room = scenegen.generate_scene(seed_for(1, "scene0"), scenegen.SceneSpec())

        def silence_foreground(model):
            model.store["foreground.lin.b"].value[...] = -50.0

        unreached = self.fit_against_oracle([room, room], monkeypatch, silence_foreground)
        local = {n for n in unreached[1]
                 if re.fullmatch(r"local\..+|decoder\.layer\d+\.cross_l\.[qkv]\.[wb]", n)}
        assert len(local) == 4 + 2 + 6 * 6 and not local & unreached[0]

    @staticmethod
    def train_small():
        """Loss rows, structure hashes and final parameter bytes of a
        10-step SMALL_CFG fit."""
        cfg = cfgmod.load_config(None, SMALL_CFG)
        spec = cfgmod.scene_spec(cfg)
        scenes = [
            scenegen.generate_scene(seed_for(cfg["seed"], f"scene{i}"), spec) for i in range(2)
        ]
        m = SegModel(cfgmod.model_config(cfg))
        trace = training.fit(m, [m.prepare(s) for s in scenes], cfgmod.train_config(cfg))
        rows = [(r.cls, r.score, r.bce, r.dice, r.foreground, r.total, r.structure) for r in trace]
        return rows, {n: m.store[n].value.tobytes() for n in m.store.names()}

    def test_fused_attention_trains_like_composed_chain(self, monkeypatch):
        """Each attention block, run as three linears, the stacked attention
        node and the out linear, and then with the per-head chain in place of
        that node, gives the bytes of the fused block."""
        fused = self.train_small()
        monkeypatch.setattr(ad, "attention_block", composed_attention_block)
        assert self.train_small() == fused
        monkeypatch.setattr(helpers, "attention", composed_attention)
        assert self.train_small() == fused

    def test_add_layer_norm_trains_like_composed_chain(self, monkeypatch):
        """Each post-norm residual, run as an add node and a layer_norm node,
        gives the bytes of the fused one."""
        fused = self.train_small()
        monkeypatch.setattr(ad, "add_layer_norm", composed_add_layer_norm)
        assert self.train_small() == fused

    def test_fused_ops_train_like_composed_chains(self, monkeypatch):
        """The fused linear and BCE ops, and gradients kept without a copy,
        give the bytes of the chains and copies they replace."""
        fused = self.train_small()
        monkeypatch.setattr(ad, "linear", composed_linear)
        monkeypatch.setattr(ad, "weighted_bce", composed_weighted_bce)
        monkeypatch.setattr(ad.Node, "_take", take_copy)
        assert self.train_small() == fused

    def test_linear_relu_trains_like_composed_chain(self, monkeypatch):
        """Each ReLU layer of the MLPs and the backbone, run as a linear node
        and a relu node, gives the bytes of the fused layer."""
        fused = self.train_small()
        monkeypatch.setattr(ad.Linear, "__call__", composed_linear_layer)
        assert self.train_small() == fused

    def test_set_criterion_trains_like_composed_chain(self, monkeypatch):
        fused = self.train_small()
        monkeypatch.setattr(ad, "set_criterion", composed_set_criterion)
        assert self.train_small() == fused

    def test_releasing_backward_trains_like_keeping_the_tape(self, monkeypatch):
        released = self.train_small()
        monkeypatch.setattr(ad, "backward", backward_keep_tape)
        assert self.train_small() == released

    def test_vectorised_step_trains_like_loop_oracles(self, monkeypatch):
        fast = self.train_small()
        monkeypatch.setattr(ad, "scatter_add", scatter_add_at)
        monkeypatch.setattr(training, "match_cost", match_cost_loop)
        monkeypatch.setattr(ad, "set_criterion", loop_set_criterion)
        monkeypatch.setattr(scenegen, "unique_rows", unique_rows_np)
        assert self.train_small() == fast

    def test_tape_nodes_do_not_grow_with_instances(self):
        """The loss adds the same nodes for 4 matched pairs as for 16."""
        m = SegModel(
            model.ModelConfig(
                backbone=BackboneConfig(base_voxel=0.3, channels=8, levels=1),
                agg=AggregationConfig(cap=8, k_cand=6, width=8),
                dec=DecoderConfig(k=20, d=16, layers=1, heads=4),
                coarse_size=0.6,
            )
        )

        def nodes(n_objects):
            spec = scenegen.SceneSpec(n_objects=n_objects, n_points=1600, room_extent=8.0)
            prep = m.prepare(scenegen.generate_scene(5, spec))
            assert len(prep.gt.instance_classes) == n_objects
            report = training.scene_loss(m, prep, TrainConfig())
            return len(ad._toposort(report.total_tensor))

        assert nodes(4) == nodes(16)
