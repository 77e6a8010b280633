import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sceneseg import autodiff as ad, config as cfgmod, model, scenegen, training
from sceneseg.aggregation import AggregationConfig
from sceneseg.backbone import BackboneConfig
from sceneseg.decoder import DecoderConfig, LayerPrediction, MultiHeadAttention
from sceneseg.model import SegModel, seed_for
from sceneseg.errors import ContractError, NumericError
from sceneseg.training import Assignment, TrainConfig

from helpers import (
    SMALL_CFG,
    composed_attention,
    dice_loss_per_pair,
    match_cost_loop,
    micro_model,
    micro_scene,
    scatter_add_at,
    unique_rows_np,
)


def brute_force_cost(cost):
    k, k_gt = cost.shape
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
            a = training.hungarian(cost)
            got = sum(cost[q, g] for q, g in a.pairs)
            assert abs(got - brute_force_cost(cost)) < 1e-12

    def test_rectangular(self):
        rng = np.random.default_rng(0)
        cost = rng.uniform(size=(5, 3))
        a = training.hungarian(cost)
        assert len(a.pairs) == 3
        got = sum(cost[q, g] for q, g in a.pairs)
        assert abs(got - brute_force_cost(cost)) < 1e-12

    def test_positive_rescaling_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            cost = rng.uniform(size=(6, 4))
            base = training.hungarian(cost).pairs
            assert training.hungarian(cost * 7.3).pairs == base

    def test_empty(self):
        assert training.hungarian(np.zeros((0, 0))).pairs == []

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractError):
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
        pairs, want_pairs = training.hungarian(got).pairs, training.hungarian(want).pairs
        if pairs != want_pairs:  # only on an exact tie of the loop's costs
            total = lambda ps: sum(want[q, g] for q, g in ps)
            assert abs(total(pairs) - total(want_pairs)) <= 1e-12


class TestClassificationLoss:
    def test_perfect_one_hot(self):
        gt = fake_gt([1, 0], np.eye(2, 4, dtype=bool))
        probs = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        pred = fake_pred(probs, np.zeros((2, 4)))
        a = Assignment(pairs=[(0, 0), (1, 1)])
        loss = training.classification_loss(pred, a, gt, 3)
        assert loss.value[0, 0] == 0.0

    def test_uniform(self):
        gt = fake_gt([2], [[True, False]])
        probs = np.full((3, 4), 0.25)
        pred = fake_pred(probs, np.zeros((3, 2)))
        a = Assignment(pairs=[(1, 0)])
        loss = training.classification_loss(pred, a, gt, 3)
        assert abs(loss.value[0, 0] - np.log(4)) < 1e-12

    def test_two_query_hand_case(self):
        gt = fake_gt([0, 1], np.eye(2, 3, dtype=bool))
        probs = np.array([[0.7, 0.1, 0.1, 0.1], [0.3, 0.1, 0.3, 0.3]])
        pred = fake_pred(probs, np.zeros((2, 3)))
        a = Assignment(pairs=[(0, 0), (1, 1)])
        loss = training.classification_loss(pred, a, gt, 3)
        want = -(np.log(0.7) + np.log(0.1)) / 2  # ~= 1.3297
        assert abs(loss.value[0, 0] - want) < 1e-12
        assert abs(want - 1.3297) < 1e-4

    def test_unmatched_queries_target_no_instance(self):
        gt = fake_gt([0], [[True]])
        probs = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        pred = fake_pred(probs, np.zeros((2, 1)))
        a = Assignment(pairs=[(0, 0)])
        loss = training.classification_loss(pred, a, gt, 3)
        assert loss.value[0, 0] == 0.0


class TestScoreLoss:
    def test_exact_scores_zero(self):
        gt = fake_gt([0], [[True, True, False]])
        masks = np.array([[0.9, 0.9, 0.1]])  # binarized == gt, so IoU target = 1
        pred = fake_pred(np.ones((1, 2)), masks, scores=[[1.0]])
        loss = training.score_loss(pred, Assignment(pairs=[(0, 0)]), gt, np.ones(3))
        assert loss.value[0, 0] == 0.0

    def test_s_one_iou_zero(self):
        gt = fake_gt([0], [[False, False, True]])
        masks = np.array([[0.9, 0.9, 0.1]])  # disjoint from gt
        pred = fake_pred(np.ones((1, 2)), masks, scores=[[1.0]])
        loss = training.score_loss(pred, Assignment(pairs=[(0, 0)]), gt, np.ones(3))
        assert loss.value[0, 0] == 1.0

    def test_hand_case(self):
        # binarized pred covers sp {0,1}, gt covers {1}: IoU = 1/2 at equal sizes
        gt = fake_gt([0], [[False, True]])
        masks = np.array([[0.8, 0.8]])
        pred = fake_pred(np.ones((1, 2)), masks, scores=[[0.6]])
        loss = training.score_loss(pred, Assignment(pairs=[(0, 0)]), gt, np.ones(2))
        assert abs(loss.value[0, 0] - 0.01) < 1e-12

    def test_no_pairs(self):
        pred = fake_pred(np.ones((2, 2)), np.zeros((2, 3)))
        gt = fake_gt([], np.zeros((0, 3), dtype=bool))
        assert training.score_loss(pred, Assignment(pairs=[]), gt, np.ones(3)).value[0, 0] == 0.0

    def test_target_detached(self):
        gt = fake_gt([0], [[True, False]])
        masks = ad.Tensor(np.array([[0.9, 0.1]]))
        pred = LayerPrediction(
            class_probs=ad.constant(np.ones((1, 2))),
            iou_score=ad.Tensor(np.array([[0.3]])),
            sp_mask=masks,
        )
        loss = training.score_loss(pred, Assignment(pairs=[(0, 0)]), gt, np.ones(2))
        ad.backward(loss)
        assert masks.grad is None or not np.any(masks.grad)


class TestBceMaskLoss:
    def test_near_perfect(self):
        gt = fake_gt([0], [[True, False, True]])
        masks = np.array([[1.0, 0.0, 1.0]])
        pred = fake_pred(np.ones((1, 2)), masks)
        loss = training.bce_mask_loss(pred, Assignment(pairs=[(0, 0)]), gt, np.ones(3))
        assert loss.value[0, 0] < 1e-6

    def test_half_everywhere(self):
        gt = fake_gt([0], [[True, False, True, False]])
        pred = fake_pred(np.ones((1, 2)), np.full((1, 4), 0.5))
        loss = training.bce_mask_loss(pred, Assignment(pairs=[(0, 0)]), gt, np.ones(4))
        assert abs(loss.value[0, 0] - np.log(2)) < 1e-12

    def test_hand_case(self):
        gt = fake_gt([0], [[True, False]])
        pred = fake_pred(np.ones((1, 2)), np.array([[0.9, 0.2]]))
        loss = training.bce_mask_loss(pred, Assignment(pairs=[(0, 0)]), gt, np.ones(2))
        want = -(np.log(0.9) + np.log(0.8)) / 2  # ~= 0.1643
        assert abs(loss.value[0, 0] - want) < 1e-12

    def test_size_weighting(self):
        # all error concentrated on a superpoint holding 3 of 4 points
        gt = fake_gt([0], [[True, False]])
        pred = fake_pred(np.ones((1, 2)), np.array([[0.5, 1e-9]]))
        loss = training.bce_mask_loss(
            pred, Assignment(pairs=[(0, 0)]), gt, np.array([3, 1])
        ).value[0, 0]
        assert abs(loss - 0.75 * np.log(2)) < 1e-7


class TestDiceLoss:
    def test_identical_exact_zero_eps0(self):
        gt = fake_gt([0], [[True, False, True, False]])
        pred = fake_pred(np.ones((1, 2)), np.array([[1.0, 0.0, 1.0, 0.0]]))
        loss = training.dice_loss(pred, Assignment(pairs=[(0, 0)]), gt, np.ones(4), eps=0.0)
        assert loss.value[0, 0] == 0.0

    def test_disjoint_exact_one_eps0(self):
        gt = fake_gt([0], [[False, False, True, True]])
        pred = fake_pred(np.ones((1, 2)), np.array([[1.0, 1.0, 0.0, 0.0]]))
        loss = training.dice_loss(pred, Assignment(pairs=[(0, 0)]), gt, np.ones(4), eps=0.0)
        assert loss.value[0, 0] == 1.0

    def test_hand_case_eps0(self):
        gt = fake_gt([0], [[False, True, True, False]])
        pred = fake_pred(np.ones((1, 2)), np.array([[1.0, 1.0, 0.0, 0.0]]))
        loss = training.dice_loss(pred, Assignment(pairs=[(0, 0)]), gt, np.ones(4), eps=0.0)
        assert loss.value[0, 0] == 0.5

    def test_range_with_smoothing(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = rng.integers(2, 30)
            gt = fake_gt([0], rng.uniform(size=(1, m)) > 0.5)
            pred = fake_pred(np.ones((1, 2)), rng.uniform(size=(1, m)))
            v = training.dice_loss(
                pred, Assignment(pairs=[(0, 0)]), gt, rng.integers(1, 9, size=m)
            ).value[0, 0]
            assert 0.0 <= v < 1.0

    def test_identical_small_with_smoothing(self):
        m = 200
        g = np.zeros(m, dtype=bool)
        g[:40] = True
        gt = fake_gt([0], g[None])
        pred = fake_pred(np.ones((1, 2)), g[None].astype(float))
        v = training.dice_loss(pred, Assignment(pairs=[(0, 0)]), gt, np.ones(m)).value[0, 0]
        assert v < 1e-2

    @settings(max_examples=200, deadline=None)
    @given(matching_cases())
    def test_matches_per_pair_chain(self, case):
        """Byte-identical gradients. The value is identical below 8 pairs; from
        8 on, numpy sums the terms pairwise instead of in a chain, so it may
        differ by a few ulps (within one ulp per pair)."""
        pred, gt, sizes, rng = case
        k, k_gt = pred.sp_mask.shape[0], len(gt.instance_classes)
        n = min(k, k_gt)
        queries = np.sort(rng.choice(k, n, replace=False))
        pairs = list(zip(queries.tolist(), rng.permutation(k_gt)[:n].tolist()))

        def run(loss_fn):
            leaf = ad.Tensor(pred.sp_mask.value.copy())
            p = LayerPrediction(pred.class_probs, pred.iou_score, leaf)
            loss = loss_fn(p, Assignment(pairs=pairs), gt, sizes)
            ad.backward(loss)
            return loss.value[0, 0], leaf.grad

        value, grad = run(training.dice_loss)
        want_value, want_grad = run(dice_loss_per_pair)
        assert grad.tobytes() == want_grad.tobytes()
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
    def fixed_components(self, monkeypatch, cls, score, bce, dice, fg):
        monkeypatch.setattr(
            training, "classification_loss", lambda *a, **k: ad.constant([[cls]])
        )
        monkeypatch.setattr(training, "score_loss", lambda *a, **k: ad.constant([[score]]))
        monkeypatch.setattr(training, "bce_mask_loss", lambda *a, **k: ad.constant([[bce]]))
        monkeypatch.setattr(training, "dice_loss", lambda *a, **k: ad.constant([[dice]]))
        monkeypatch.setattr(training, "foreground_loss", lambda *a, **k: ad.constant([[fg]]))

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
        self.fixed_components(monkeypatch, 2.0, 1.0, 0.4, 0.6, 0.0)
        args = self.setup_inputs()
        cfg = TrainConfig(w_cls=0.5, w_score=0.5, w_bce=1.0, w_dice=1.0)
        report = training.total_loss(*args, cfg)
        assert report.total == 2.5

    def test_all_zero_components(self, monkeypatch):
        self.fixed_components(monkeypatch, 0.0, 0.0, 0.0, 0.0, 0.0)
        report = training.total_loss(*self.setup_inputs(), TrainConfig())
        assert report.total == 0.0

    @pytest.mark.parametrize("weight", ["w_cls", "w_score", "w_bce", "w_dice"])
    def test_exact_linearity_in_each_weight(self, weight):
        args = self.setup_inputs()

        def total(v):
            cfg = TrainConfig(**{weight: v})
            return training.total_loss(*args, cfg).total

        t0, t1, t2 = total(0.0), total(1.0), total(2.0)
        assert abs((t2 - t1) - (t1 - t0)) < 1e-12

    def test_doubling_w_cls_doubles_cls_share(self, monkeypatch):
        self.fixed_components(monkeypatch, 2.0, 0.0, 0.0, 0.0, 0.0)
        args = self.setup_inputs()
        a = training.total_loss(*args, TrainConfig(w_cls=0.5)).total
        b = training.total_loss(*args, TrainConfig(w_cls=1.0)).total
        assert abs(b - 2 * a) < 1e-12

    def test_deep_supervision_averages_layers(self, monkeypatch):
        self.fixed_components(monkeypatch, 1.0, 1.0, 1.0, 1.0, 0.0)
        preds, gt, sizes, fg, scene = self.setup_inputs()
        preds = preds * 3
        on = training.total_loss(preds, gt, sizes, fg, scene, TrainConfig(deep_supervision=True))
        off = training.total_loss(preds, gt, sizes, fg, scene, TrainConfig(deep_supervision=False))
        assert abs(on.total - off.total) < 1e-12  # identical layers average to the same

    def test_requires_predictions(self):
        _, gt, sizes, fg, scene = self.setup_inputs()
        with pytest.raises(ContractError):
            training.total_loss([], gt, sizes, fg, scene, TrainConfig())


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
        with pytest.raises(NumericError, match="cls|score|bce|dice|foreground|total"):
            training.fit(m, [self.prepared(m)], TrainConfig(steps=3))

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
        fused = self.train_small()
        monkeypatch.setattr(
            MultiHeadAttention,
            "__call__",
            lambda self, z, f, mask=None, capture=None: self.out(
                composed_attention(self.q(z), self.k(f), self.v(f), self.heads, mask, capture)
            ),
        )
        assert self.train_small() == fused

    def test_vectorised_step_trains_like_loop_oracles(self, monkeypatch):
        fast = self.train_small()
        monkeypatch.setattr(ad, "scatter_add", scatter_add_at)
        monkeypatch.setattr(training, "match_cost", match_cost_loop)
        monkeypatch.setattr(training, "dice_loss", dice_loss_per_pair)
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
