"""Tests of the benchmark's own code: the reference computations the output
checks rely on and the span self-time arithmetic.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import reference as ref  # noqa: E402
import spans  # noqa: E402
from sceneseg import aggregation, inference, kernels  # noqa: E402


def masks(*rows):
    return [np.array(r, dtype=bool) for r in rows]


def test_ap_one_hit_one_miss_against_two_instances():
    gt = masks([1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1])
    preds = [(0, 0.9, gt[0]), (0, 0.8, np.array([0, 0, 1, 0, 0, 0], bool))]
    ap, _, ap50, _ = ref.evaluate([(preds, [0, 0], gt)])
    assert ap[(0, 0.5)] == 0.5
    assert ap50 == 0.5


def test_ap_perfect_predictions():
    gt = masks([1, 1, 0, 0], [0, 0, 1, 1])
    preds = [(0, 0.9, gt[0]), (1, 0.8, gt[1])]
    _, m_ap, ap50, ap25 = ref.evaluate([(preds, [0, 1], gt)])
    assert (m_ap, ap50, ap25) == (1.0, 1.0, 1.0)


def test_ap_agrees_with_program_on_random_scenes():
    rng = np.random.default_rng(7)
    scenes, progs, gts = [], {}, {}
    for s in range(3):
        n = 60
        labels = rng.integers(-1, 4, size=n)
        classes = [int(c) for c in rng.integers(0, 2, size=4)]
        gt = [labels == k for k in range(4)]
        preds = []
        for r in range(6):
            m = gt[rng.integers(0, 4)] ^ (rng.uniform(size=n) < 0.15)
            preds.append((int(rng.integers(0, 2)), float(rng.uniform()), m))
        preds.sort(key=lambda p: -p[1])
        scenes.append((preds, classes, gt))
        progs[s] = [inference.InstanceResult(c, sc, None, m) for c, sc, m in preds]
        gts[s] = type("GT", (), {"instance_classes": np.array(classes), "point_masks": np.array(gt)})
    ap, m_ap, ap50, ap25 = ref.evaluate(scenes)
    want = inference.evaluate(progs, gts, 2)
    assert ap.keys() == want.ap.keys()
    for key in ap:
        assert ap[key] == pytest.approx(want.ap[key], abs=1e-12)
    assert (m_ap, ap50, ap25) == pytest.approx((want.map_, want.ap50, want.ap25), abs=1e-12)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_child_spans():
    # op 0..10; a 1..6 holds b 2..3 and c 4..5; d 7..9
    rec = spans.Recorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]))
    rec.begin_op("step")
    a = rec.enter("a")
    b = rec.enter("b")
    rec.leave(b)
    c = rec.enter("c")
    rec.leave(c)
    rec.leave(a)
    d = rec.enter("d")
    rec.leave(d)
    rec.end_op()
    selfs = spans.self_times(rec.spans)
    by_name = {s.name: selfs[s.sid] for s in rec.spans}
    assert by_name == {"step": 10 - 5 - 2, "a": 5 - 1 - 1, "b": 1, "c": 1, "d": 2}


def test_covered_merges_overlapping_intervals():
    assert spans.covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4
    assert spans.covered([]) == 0


def test_nothing_is_recorded_outside_an_operation():
    rec = spans.Recorder(clock=FakeClock(range(100)))
    assert rec.enter("a") is None
    rec.count("calls")
    rec.tensor_created()
    assert rec.spans == [] and not rec.counts


def test_per_op_divides_by_operations_of_the_kinds_that_ran_the_layer():
    totals = {("read", "predict"): 8.0, ("read", "eval"): 8.0, ("load", "predict"): 4.0,
              ("init", "setup"): 9.0}
    n = {"predict": 4, "eval": 1, "setup": 3}
    got = spans.per_op(totals, ("predict", "eval"), n, ("setup",))
    assert got == {"read": 16.0 / 5, "load": 1.0, "init": 3.0}


def test_rle_decode_round_trips_the_program_encoder():
    rng = np.random.default_rng(3)
    for n in (1, 7, 50):
        m = rng.uniform(size=n) < 0.4
        assert np.array_equal(ref.rle_decode(inference._rle_encode(m), n), m)
    with pytest.raises(ValueError):
        ref.rle_decode([2, 2], 5)


def test_candidate_rule_accepts_the_program_and_rejects_a_swap():
    rng = np.random.default_rng(5)
    pos = rng.uniform(0, 2, size=(300, 3))
    fg = rng.uniform(size=300)
    picks = aggregation.iterative_candidate_sample(pos, fg, 0.3, 12, 0.3).indices
    assert ref.check_candidates(pos, fg, picks, 0.3, 12, 0.3) == ""
    assert ref.check_candidates(pos, fg, picks[::-1], 0.3, 12, 0.3) != ""
    assert ref.check_candidates(pos, fg, picks[:-1], 0.3, 12, 0.3) != ""


def test_sphere_group_matches_program_with_and_without_cap():
    rng = np.random.default_rng(9)
    pos = np.round(rng.uniform(0, 1, size=(400, 3)), 2)  # rounding makes distance ties
    keys = pos[:5]
    for cap in (4, 400):
        got = kernels.sphere_query_lists(keys, pos, 0.3, cap)
        for k in range(5):
            assert got[k].tolist() == ref.sphere_group(keys[k], pos, 0.3, cap)
