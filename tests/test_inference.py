import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from helpers import read_predictions_loop, rle_decode_loop, rle_encode_loop
from sceneseg import autodiff as ad, inference, scenegen
from sceneseg.decoder import LayerPrediction
from sceneseg.errors import ContractError, ParseError
from sceneseg.inference import InstanceResult


def make_pred(probs, scores, masks):
    return LayerPrediction(
        class_probs=ad.constant(np.asarray(probs, dtype=np.float64)),
        iou_score=ad.constant(np.asarray(scores, dtype=np.float64).reshape(-1, 1)),
        sp_mask=ad.constant(np.asarray(masks, dtype=np.float64)),
    )


def make_partition(assignment):
    assignment = np.asarray(assignment)
    return scenegen.SuperpointPartition(
        assignment=assignment, sizes=np.bincount(assignment)
    )


def make_gt(classes, point_masks, sp_masks=None):
    pm = np.asarray(point_masks, dtype=bool)
    return scenegen.GroundTruth(
        instance_classes=np.asarray(classes, dtype=np.int64),
        point_masks=pm,
        superpoint_masks=pm if sp_masks is None else np.asarray(sp_masks, dtype=bool),
    )


class TestMaskScore:
    def test_weighted_mean_above_half(self):
        # entries 0.9 and 0.6 qualify; equal sizes -> plain mean 0.75
        assert inference.mask_score([0.9, 0.6, 0.4], np.ones(3)) == 0.75

    def test_no_entry_qualifies(self):
        assert inference.mask_score([0.5, 0.1, 0.0], np.ones(3)) == 0.0

    def test_size_weighting(self):
        got = inference.mask_score([0.9, 0.6], np.array([3, 1]))
        assert abs(got - (0.9 * 3 + 0.6 * 1) / 4) < 1e-15

    def test_all_above(self):
        assert abs(inference.mask_score([0.8, 0.8], np.array([5, 2])) - 0.8) < 1e-15


class TestFinalScore:
    def test_hand_case(self):
        got = inference.final_score(0.9, 0.8, 0.5)
        assert abs(got - np.cbrt(0.36)) < 1e-12
        assert abs(got - 0.7114) < 5e-4

    def test_random_triples_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            p, s, ms = rng.uniform(size=3)
            assert abs(inference.final_score(p, s, ms) - (p * s * ms) ** (1 / 3)) < 1e-12

    def test_monotone_in_each_factor(self):
        base = inference.final_score(0.5, 0.5, 0.5)
        assert inference.final_score(0.6, 0.5, 0.5) > base
        assert inference.final_score(0.5, 0.6, 0.5) > base
        assert inference.final_score(0.5, 0.5, 0.6) > base

    def test_zero_factor_zeroes_score(self):
        assert inference.final_score(0.9, 0.9, 0.0) == 0.0


class TestIouPoints:
    def test_hand_case(self):
        a = np.array([1, 1, 1, 1, 0, 0], dtype=bool)
        b = np.array([0, 0, 1, 1, 1, 1], dtype=bool)
        assert inference.iou_points(a, b) == 2 / 6

    def test_identical(self):
        m = np.array([1, 0, 1], dtype=bool)
        assert inference.iou_points(m, m) == 1.0

    def test_both_empty(self):
        assert inference.iou_points(np.zeros(4, bool), np.zeros(4, bool)) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            inference.iou_points(np.zeros(3, bool), np.zeros(4, bool))


class TestPredict:
    def test_no_instance_rows_dropped(self):
        probs = [[0.1, 0.1, 0.8], [0.6, 0.2, 0.2]]  # last column = "no instance"
        pred = make_pred(probs, [0.9, 0.9], [[0.9, 0.9], [0.9, 0.9]])
        part = make_partition([0, 0, 1])
        out = inference.predict(pred, part)
        assert len(out) == 1 and out[0].class_id == 0

    def test_empty_mask_dropped(self):
        pred = make_pred([[0.9, 0.05, 0.05]], [0.9], [[0.3, 0.4]])
        out = inference.predict(pred, make_partition([0, 1]))
        assert out == []

    def test_all_no_instance_empty_list(self):
        pred = make_pred(np.tile([0.1, 0.1, 0.8], (4, 1)), np.ones(4), np.full((4, 3), 0.9))
        assert inference.predict(pred, make_partition([0, 1, 2])) == []

    def test_sorted_by_score_desc(self):
        probs = [[0.9, 0.05, 0.05], [0.3, 0.6, 0.1]]
        pred = make_pred(probs, [0.5, 0.9], [[0.9, 0.9], [0.9, 0.9]])
        out = inference.predict(pred, make_partition([0, 1]))
        assert [r.class_id for r in out] == [1, 0]
        assert out[0].final_score >= out[1].final_score

    def test_tie_breaks_to_lower_query(self):
        probs = np.tile([0.9, 0.05, 0.05], (2, 1))
        pred = make_pred(probs, [0.7, 0.7], np.tile([0.9, 0.6], (2, 1)))
        part = make_partition([0, 0, 1])
        out = inference.predict(pred, part)
        assert len(out) == 2
        np.testing.assert_array_equal(out[0].point_mask, out[1].point_mask)

    def test_duplicate_queries_duplicate_outputs(self):
        # no suppression: identical queries survive as identical instances
        probs = np.tile([0.8, 0.1, 0.1], (3, 1))
        pred = make_pred(probs, [0.9] * 3, np.tile([0.9, 0.2], (3, 1)))
        out = inference.predict(pred, make_partition([0, 1, 1]))
        assert len(out) == 3
        for r in out[1:]:
            assert r.final_score == out[0].final_score
            np.testing.assert_array_equal(r.point_mask, out[0].point_mask)

    def test_top_k_and_min_score(self):
        probs = np.tile([0.9, 0.05, 0.05], (4, 1))
        scores = [0.9, 0.7, 0.5, 0.3]
        pred = make_pred(probs, scores, np.full((4, 2), 0.9))
        part = make_partition([0, 1])
        assert len(inference.predict(pred, part, top_k=2)) == 2
        kept = inference.predict(pred, part, min_score=0.8)
        assert all(r.final_score >= 0.8 for r in kept)

    def test_mask_propagates_through_partition(self):
        pred = make_pred([[0.9, 0.05, 0.05]], [0.9], [[0.9, 0.1]])
        part = make_partition([0, 1, 0, 1, 0])
        out = inference.predict(pred, part)
        np.testing.assert_array_equal(out[0].point_mask, [1, 0, 1, 0, 1])

    def test_class_argmax_over_real_classes(self):
        # "no instance" prob is below a real class: query is kept, and the
        # reported class ignores the no-instance column
        pred = make_pred([[0.2, 0.45, 0.35]], [0.9], [[0.9]])
        out = inference.predict(pred, make_partition([0]))
        assert out[0].class_id == 1


class TestAveragePrecision:
    def test_hand_pr_case(self):
        # 2 gt, hit at score 0.9 then miss at 0.8: precision 1 at recall 0.5
        assert inference._average_precision([True, False], 2) == 0.5

    def test_perfect(self):
        assert inference._average_precision([True, True], 2) == 1.0

    def test_no_predictions(self):
        assert inference._average_precision([], 3) == 0.0

    def test_no_gt(self):
        assert inference._average_precision([True], 0) is None

    def test_late_hit_interpolation(self):
        # miss, hit: rightward-max interpolation lifts early precision to 0.5
        assert inference._average_precision([False, True], 1) == 0.5


class TestEvaluate:
    def perfect_setup(self):
        gt = make_gt([0, 1], [[1, 1, 0, 0], [0, 0, 1, 1]])
        preds = [
            InstanceResult(0, 0.9, None, np.array([1, 1, 0, 0], bool)),
            InstanceResult(1, 0.8, None, np.array([0, 0, 1, 1], bool)),
        ]
        return {0: preds}, {0: gt}

    def test_perfect_predictions(self):
        preds, gts = self.perfect_setup()
        rep = inference.evaluate(preds, gts, 3)
        assert rep.map_ == 1.0 and rep.ap50 == 1.0 and rep.ap25 == 1.0

    def test_empty_predictions(self):
        _, gts = self.perfect_setup()
        rep = inference.evaluate({0: []}, gts, 3)
        assert rep.map_ == 0.0 and rep.ap50 == 0.0 and rep.ap25 == 0.0

    def test_classes_without_gt_excluded(self):
        preds, gts = self.perfect_setup()
        rep = inference.evaluate(preds, gts, 3)
        assert rep.classes == [0, 1]
        assert (2, 0.5) not in rep.ap

    def test_hand_pr_half(self):
        # one class, 2 gt; high-scoring hit plus low-scoring miss -> AP 0.5
        gt = make_gt([0, 0], [[1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1]])
        preds = [
            InstanceResult(0, 0.9, None, np.array([1, 1, 0, 0, 0, 0], bool)),
            InstanceResult(0, 0.8, None, np.array([0, 0, 1, 0, 0, 0], bool)),
        ]
        rep = inference.evaluate({0: preds}, {0: gt}, 1)
        assert rep.ap[(0, 0.5)] == 0.5

    def test_scene_order_invariance(self):
        gt_a = make_gt([0], [[1, 1, 0]])
        gt_b = make_gt([0], [[0, 1, 1]])
        pa = [InstanceResult(0, 0.9, None, np.array([1, 1, 0], bool))]
        pb = [InstanceResult(0, 0.7, None, np.array([0, 1, 1], bool))]
        r1 = inference.evaluate({"a": pa, "b": pb}, {"a": gt_a, "b": gt_b}, 1)
        r2 = inference.evaluate({"b": pb, "a": pa}, {"b": gt_b, "a": gt_a}, 1)
        assert r1.ap == r2.ap

    def test_threshold_grid(self):
        assert len(inference.MAP_THRESHOLDS) == 10
        assert inference.MAP_THRESHOLDS[0] == 0.50
        assert inference.MAP_THRESHOLDS[-1] == 0.95

    def test_partial_overlap_threshold_sensitivity(self):
        # IoU 0.6 instance: counts at t=0.5, not at t=0.75
        gt = make_gt([0], [[1, 1, 1, 1, 1, 0, 0, 0, 0, 0]])
        mask = np.zeros(10, bool)
        mask[2:6] = True  # inter 3, union 6 -> IoU 0.5... adjust
        mask = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, 0], bool)  # IoU 3/5 = 0.6
        preds = [InstanceResult(0, 0.9, None, mask)]
        rep = inference.evaluate({0: preds}, {0: gt}, 1)
        assert rep.ap[(0, 0.5)] == 1.0
        assert rep.ap[(0, 0.75)] == 0.0

    def test_each_pair_iou_computed_once(self, monkeypatch):
        calls = []
        iou = inference.iou_points
        monkeypatch.setattr(
            inference, "iou_points", lambda a, b: calls.append(1) or iou(a, b)
        )
        gt = make_gt([0, 0, 1], [[1, 1, 0, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 0, 1]])
        preds = [
            InstanceResult(0, 0.9, None, np.array([1, 1, 0, 0, 0], bool)),
            InstanceResult(0, 0.8, None, np.array([0, 1, 1, 0, 0], bool)),
            InstanceResult(1, 0.7, None, np.array([0, 0, 0, 1, 1], bool)),
        ]
        rep = inference.evaluate({0: preds}, {0: gt}, 2)
        assert len(calls) == 2 * 2 + 1  # same-class (prediction, gt) pairs
        assert rep.ap[(0, 0.5)] == 0.5 and rep.ap[(1, 0.5)] == 1.0

    def test_superpoint_split_bit_identical(self):
        # refining the superpoint partition (same point masks) changes nothing
        gt = make_gt([0], [[1, 1, 0, 0]])
        coarse = [InstanceResult(0, 0.9, np.array([1, 0], bool), np.array([1, 1, 0, 0], bool))]
        fine = [
            InstanceResult(0, 0.9, np.array([1, 1, 0, 0], bool), np.array([1, 1, 0, 0], bool))
        ]
        r1 = inference.evaluate({0: coarse}, {0: gt}, 1)
        r2 = inference.evaluate({0: fine}, {0: gt}, 1)
        assert r1.ap == r2.ap and r1.map_ == r2.map_


class TestRle:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = rng.integers(1, 200)
            mask = rng.uniform(size=n) < rng.uniform()
            runs = inference._rle_encode(mask)
            np.testing.assert_array_equal(inference._rle_decode(runs, n), mask)

    @settings(max_examples=200, deadline=None)
    @given(arrays(bool, st.integers(0, 300)))
    @example(np.zeros(0, bool))
    @example(np.ones(7, bool))
    @example(np.zeros(7, bool))
    def test_matches_loop_oracle(self, mask):
        assert inference._rle_encode(mask) == rle_encode_loop(mask)

    def test_starts_with_zero_run(self):
        assert inference._rle_encode(np.array([1, 1, 0], bool)) == [0, 2, 1]
        assert inference._rle_encode(np.array([0, 0, 1], bool)) == [2, 1]

    def test_bad_total_rejected(self):
        with pytest.raises(ParseError):
            inference._rle_decode([2, 1], 5)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-3, 40), max_size=12), st.integers(-2, 2))
    @example([], 0)
    @example([0, 5], 0)
    @example([3, -1, 2**70], 0)
    @example([2**70, 1], 0)
    def test_decode_matches_loop_oracle(self, runs, shift):
        """Same mask or the same ParseError, for well-formed and broken runs."""
        n = max(0, min(sum(r for r in runs if r > 0), 10**4) + shift)

        def outcome(decode):
            try:
                return decode(runs, n).tobytes()
            except ParseError as exc:
                return str(exc)

        assert outcome(inference._rle_decode) == outcome(rle_decode_loop)


class TestPredictionFiles:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        instances = [
            InstanceResult(
                class_id=int(rng.integers(0, 3)),
                final_score=float(rng.uniform()),
                sp_mask=None,
                point_mask=rng.uniform(size=30) < 0.4,
            )
            for _ in range(3)
        ]
        path = tmp_path / "scene_000.pred.txt"
        inference.write_predictions(path, "scene_000", 30, 7, instances)
        sid, n_sp, back = inference.read_predictions(path, 30, 3)
        assert sid == "scene_000" and n_sp == 7
        assert len(back) == 3
        for a, b in zip(instances, back):
            assert a.class_id == b.class_id
            assert a.final_score == b.final_score  # repr() round-trips floats
            np.testing.assert_array_equal(a.point_mask, b.point_mask)

    @pytest.mark.parametrize("scene_id", ["my room", "a  b c", "7 8"])
    def test_roundtrip_id_with_spaces(self, tmp_path, scene_id):
        """The counts are the header's last two fields; the id is all between
        `scene ` and them."""
        mask = np.array([False, True, True, False])
        path = tmp_path / f"{scene_id}.pred.txt"
        inference.write_predictions(path, scene_id, 4, 2, [InstanceResult(1, 0.5, None, mask)])
        assert path.read_text().splitlines()[0] == f"scene {scene_id} 4 2"
        for sid, n_sp, (inst,) in (inference.read_predictions(path, 4, 3),
                                   read_predictions_loop(path, 3)):
            assert (sid, n_sp, inst.class_id) == (scene_id, 2, 1)
            assert inst.point_mask.tolist() == mask.tolist()

    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("nope\n")
        with pytest.raises(ParseError):
            inference.read_predictions(p, 4, 3)

    @pytest.mark.parametrize(
        "body, line",
        [
            ("scene s 4\n", 1),
            ("scene s four 1\n", 1),
            ("scene s 4 1\n\ninstance 0 0.5 1 3\n", 2),
            ("scene s 4 1\ninstance 0 0.5\n", 2),
            ("scene s 4 1\ninstance 0 0.5 1 x\n", 2),
            ("scene s 4 1\ninstance zero 0.5 1 3\n", 2),
        ],
    )
    def test_malformed_lines_name_the_line(self, tmp_path, body, line):
        p = tmp_path / "bad.pred.txt"
        p.write_text(body)
        with pytest.raises(ParseError) as info:
            inference.read_predictions(p, 4, 3)
        assert info.value.line == line

    @pytest.mark.parametrize(
        "runs, match",
        [
            ("1 x 3", "integers"),
            ("1 2.5 1", "integers"),
            (f"1 {2**70} 3", "integers"),
            ("6 -2", "negative"),
            ("1 2", "sum to 3, expected 4"),
        ],
    )
    def test_bad_runs_name_the_line(self, tmp_path, runs, match):
        p = tmp_path / "bad.pred.txt"
        p.write_text(f"scene s 4 1\ninstance 0 0.5 0 4\ninstance 1 0.5 {runs}\n")
        with pytest.raises(ParseError, match=f"^line 3: .*{match}") as info:
            inference.read_predictions(p, 4, 3)
        assert info.value.line == 3

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 60).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(
                        arrays(bool, n),
                        st.sampled_from(
                            ["ok"] * 6
                            + ["short", "long", "negative", "huge", "text"]
                            + ["class_high", "class_negative", "nan", "inf"]
                        ),
                    ),
                    max_size=5,
                ),
            )
        )
    )
    def test_read_matches_loop_oracle(self, tmp_path_factory, case):
        """Identical instances from a well-formed file; otherwise a ParseError
        naming the first bad instance line, where the loop gave one too."""
        n, lines = case
        body = [f"scene s {n} 3"]
        for i, (mask, fault) in enumerate(lines):
            runs = inference._rle_encode(mask)
            if fault == "short":
                runs[-1] -= 1
            elif fault == "long":
                runs.append(1)
            elif fault == "negative":
                runs = [-1] + runs
            elif fault == "huge":
                runs = [2**70] + runs
            runs = " ".join(map(str, runs)) + (" x" if fault == "text" else "")
            cls = {"class_high": 7, "class_negative": -1}.get(fault, i % 3)
            score = {"nan": "nan", "inf": "-inf" if i % 2 else "inf"}.get(fault, repr(0.1 * i))
            body.append(f"instance {cls} {score} {runs}")
        path = tmp_path_factory.mktemp("pred") / "s.pred.txt"
        path.write_text("\n".join(body) + "\n")
        bad = [ln for ln, (_, fault) in enumerate(lines, start=2) if fault != "ok"]
        if not bad:
            sid, n_sp, got = inference.read_predictions(path, n, 3)
            assert (sid, n_sp) == read_predictions_loop(path, 3)[:2] == ("s", 3)
            want = read_predictions_loop(path, 3)[2]
            assert [(a.class_id, a.final_score) for a in got] == [
                (b.class_id, b.final_score) for b in want
            ]
            assert [a.point_mask.tobytes() for a in got] == [b.point_mask.tobytes() for b in want]
            return
        with pytest.raises(ParseError) as info:
            inference.read_predictions(path, n, 3)
        assert info.value.line == bad[0]
        with pytest.raises(ParseError) as oracle:
            read_predictions_loop(path, 3)
        assert oracle.value.line in (None, bad[0])

    def test_negative_run_rejected(self, tmp_path):
        p = tmp_path / "bad.pred.txt"
        p.write_text("scene s 4 1\ninstance 0 0.5 6 -2\n")
        with pytest.raises(ParseError, match="negative"):
            inference.read_predictions(p, 4, 3)

    def test_header_count_checked_against_scene_before_decoding(self, tmp_path, monkeypatch):
        n = 99999999999999
        p = tmp_path / "huge.pred.txt"
        p.write_text(f"scene s {n} 1\ninstance 0 0.5 {n}\n")
        monkeypatch.setattr(inference, "_rle_decode", None)  # decoding would fail loudly
        with pytest.raises(ParseError, match=f"^line 1: header gives {n} points, the scene has 4$"):
            inference.read_predictions(p, 4, 3)
        monkeypatch.undo()
        p.write_text("scene s 4 1\ninstance 0 0.5 1 3\n")
        _, _, (inst,) = inference.read_predictions(p, 4, 3)
        assert inst.point_mask.tolist() == [False, True, True, True]


class TestReports:
    def make_report(self):
        preds = {0: [InstanceResult(0, 0.9, None, np.array([1, 1, 0], bool))]}
        gts = {0: make_gt([0], [[1, 1, 0]])}
        return inference.evaluate(preds, gts, 1)

    def test_csv_parses_back(self):
        rep = self.make_report()
        text = inference.report_csv(rep)
        lines = text.strip().splitlines()
        assert lines[0] == "class,threshold,ap"
        assert lines[-3].startswith("all,mAP,")
        for line in lines[1:-3]:
            c, t, v = line.split(",")
            assert float(v) == rep.ap[(int(c), float(t))]

    def test_text_contains_means(self):
        rep = self.make_report()
        text = inference.report_text(rep, class_names=["box"])
        assert "box" in text and "mean" in text
