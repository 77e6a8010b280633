"""The verdict arithmetic of tools/bench_pairs.py."""

import importlib.util
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bp = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bp)

PARENT = [310.0, 312.0, 314.0, 315.0, 316.0, 317.0, 318.0, 320.0, 322.0, 330.0]


class TestQuartiles:
    def test_inclusive_quartiles(self):
        assert bp.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
        assert bp.quartiles(PARENT) == (314.25, 316.5, 319.5)

    def test_single_value(self):
        assert bp.quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestWins:
    def test_direction_and_ties(self):
        assert bp.wins([3.0, 3.0, 3.0], [2.0, 3.0, 4.0], "lower") == 1
        assert bp.wins([3.0, 3.0, 3.0], [2.0, 3.0, 4.0], "higher") == 1


class TestClaimVerdict:
    def test_holds(self):
        change = [v - 60.0 for v in PARENT]
        v = bp.claim_verdict(PARENT, change, "lower")
        assert v["holds"] and v["wins"] == 10 and v["wins_needed"] == 9
        assert v["median_gain"] == 60.0 and v["parent_iqr"] == 5.25

    def test_nine_of_ten_is_enough_eight_is_not(self):
        change = [v - 60.0 for v in PARENT]
        change[0] = PARENT[0]  # a tie counts for neither side
        assert bp.claim_verdict(PARENT, change, "lower")["holds"]
        change[1] = PARENT[1] + 1.0
        v = bp.claim_verdict(PARENT, change, "lower")
        assert not v["holds"] and v["wins"] == 8 and "fewer than 9" in v["reasons"][0]

    def test_gain_must_exceed_parent_iqr(self):
        change = [v - 5.0 for v in PARENT]  # wins every pair, but by less than the IQR
        v = bp.claim_verdict(PARENT, change, "lower")
        assert v["wins"] == 10 and not v["holds"]
        assert "IQR" in v["reasons"][0]

    def test_needs_ten_pairs(self):
        v = bp.claim_verdict(PARENT[:9], [x - 60.0 for x in PARENT[:9]], "lower")
        assert not v["holds"] and "9 pairs" in v["reasons"][0]

    def test_loss_must_be_equal(self):
        v = bp.claim_verdict(PARENT, [x - 60.0 for x in PARENT], "lower", loss_equal=False)
        assert not v["holds"] and v["reasons"] == ["loss differs in some pair"]

    def test_higher_is_better(self):
        assert bp.claim_verdict(PARENT, [x + 60.0 for x in PARENT], "higher")["holds"]
        assert not bp.claim_verdict(PARENT, [x - 60.0 for x in PARENT], "higher")["holds"]


class TestBoundVerdict:
    def test_relative_to_parent_median(self):
        v = bp.bound_verdict([100.0, 100.0], [109.0, 111.0], "lower", 0.1)
        assert v["relative_worsening"] == pytest.approx(0.1) and v["verdict"] == "within bound"
        assert bp.bound_verdict([100.0], [111.0], "lower", 0.1)["verdict"] == "worse than bound"
        assert bp.bound_verdict([100.0], [50.0], "lower", 0.1)["relative_worsening"] == -0.5

    def test_zero_parent_median(self):
        assert bp.bound_verdict([0.0], [0.0], "lower", 0.2)["verdict"] == "within bound"
        assert bp.bound_verdict([0.0], [1.0], "lower", 0.2)["verdict"] == "worse than bound"

    def test_wide_parent_spread_is_unresolved(self):
        parent = [100.0, 100.0, 100.0, 130.0, 130.0]  # IQR 30% of the median
        change = [90.0, 90.0, 90.0, 105.0, 105.0]  # better median, loses one pair
        v = bp.bound_verdict(parent, change, "lower", 0.25)
        assert v["relative_iqr"] == {"parent": pytest.approx(0.3), "change": pytest.approx(0.15)}
        assert v["relative_worsening"] < 0 and v["verdict"] == "unresolved"
        assert bp.bound_verdict(parent, change, "lower", 0.3)["verdict"] == "within bound"

    def test_wide_change_spread_is_unresolved(self):
        parent = [100.0, 100.0, 100.0, 101.0, 101.0]
        change = [70.0, 70.0, 100.0, 110.0, 110.0]  # IQR 40% of the parent's median
        v = bp.bound_verdict(parent, change, "lower", 0.25)
        assert v["relative_iqr"]["change"] == pytest.approx(0.4)
        assert v["verdict"] == "unresolved"

    def test_change_beating_every_parent_run_is_resolved(self):
        parent = [100.0, 100.0, 100.0, 130.0, 130.0]
        assert bp.bound_verdict(parent, [95.0] * 5, "lower", 0.25)["verdict"] == "within bound"
        assert bp.bound_verdict(parent, [100.0] * 5, "lower", 0.25)["verdict"] == "unresolved"
        assert bp.bound_verdict(parent, [131.0] * 5, "higher", 0.25)["verdict"] == "within bound"
        assert bp.bound_verdict(parent, [130.0] * 5, "higher", 0.25)["verdict"] == "unresolved"


def test_parse_seeds():
    assert bp.parse_seeds("201-204") == [201, 202, 203, 204]
    assert bp.parse_seeds("5,9") == [5, 9]


def test_summarise_marks_the_claim_and_loss():
    metrics = [
        {"name": "loss", "unit": "loss", "better": "lower", "bound": 0.2},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ]

    def run(loss, rss):
        return {"metrics": {"loss": {"value": loss}, "peak_rss_mb": {"value": rss}}}

    pairs = [{"parent": run(1.5, p), "change": run(1.5, p - 60.0)} for p in PARENT]
    out = bp.summarise(pairs, metrics, "peak_rss_mb")
    assert out["loss_equal_in_every_pair"]
    assert out["metrics"]["peak_rss_mb"]["claim"]["holds"]
    assert "claim" not in out["metrics"]["loss"]
    pairs[3]["change"] = run(1.25, 200.0)
    out = bp.summarise(pairs, metrics, "peak_rss_mb")
    assert not out["loss_equal_in_every_pair"]
    assert not out["metrics"]["peak_rss_mb"]["claim"]["holds"]


ROOT = Path(__file__).resolve().parent.parent
# verdicts a file records beyond the shared checks, by (workload, metric);
# the key EVERY stands for every metric of every workload
EVERY = None
VERDICTS = {
    "BENCH_6.json": {("train-cluttered", "op_ms"): "unresolved"},
    "BENCH_9.json": {EVERY: "within bound"},
    "BENCH_10.json": {EVERY: "within bound"},
    "BENCH_11.json": {EVERY: "within bound"},
    "BENCH_12.json": {EVERY: "within bound"},
    "BENCH_13.json": {
        ("train-default", "setup_s"): "unresolved",
        ("predict-dense", "setup_s"): "unresolved",
    },
    "BENCH_14.json": {EVERY: "within bound"},
    "BENCH_15.json": {EVERY: "within bound"},
    "BENCH_18.json": {("train-cluttered", "setup_s"): "unresolved"},
    "BENCH_19.json": {("train-cluttered", "setup_s"): "unresolved"},
    "BENCH_20.json": {("train-cluttered", "setup_s"): "unresolved"},
    "BENCH_21.json": {("train-cluttered", "setup_s"): "unresolved"},
    "BENCH_22.json": {EVERY: "within bound"},
    "BENCH_23.json": {EVERY: "within bound"},
    "BENCH_24.json": {EVERY: "within bound"},
    "BENCH_25.json": {EVERY: "within bound"},
    "BENCH_26.json": {
        ("train-cluttered", "setup_s"): "unresolved",
        ("predict-dense", "setup_s"): "unresolved",
    },
    "BENCH_27.json": {EVERY: "within bound"},
}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_bench_follows_from_its_pairs(path):
    """Each BENCH_*.json covers every workload, holds the summaries its own
    pairs give, was correct in every run with equal loss in every pair, and
    every claim it records holds."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads(path.read_text())["workloads"]
    assert set(workloads) == {w["name"] for w in bench["workloads"]}
    for entry in workloads.values():
        summary = bp.summarise(entry["pairs"], bench["end_to_end"], entry["claim"])
        want = json.loads(json.dumps(summary))
        assert {k: entry[k] for k in want} == want
        assert entry["all_correct"] and entry["loss_equal_in_every_pair"]
        if entry["claim"] is not None:
            assert entry["metrics"][entry["claim"]]["claim"]["holds"]
    verdicts = {(w, m): v["verdict"] for w, e in workloads.items() for m, v in e["metrics"].items()}
    for where, verdict in VERDICTS.get(path.name, {}).items():
        for key in verdicts if where is EVERY else [where]:
            assert verdicts[key] == verdict, key


def test_sigterm_removes_the_exported_trees(tmp_path):
    """A SIGTERM mid-run exits non-zero and leaves no bench_pairs_* tree."""
    tool = Path(bp.__file__)
    proc = subprocess.Popen(
        [sys.executable, str(tool), "--parent", "HEAD", "--change", "HEAD",
         "--workload", "train-default", "--seeds", "1", "--name", "sigterm_check"],
        env={**os.environ, "TMPDIR": str(tmp_path)},
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    try:
        deadline = time.monotonic() + 60.0
        while not list(tmp_path.glob("bench_pairs_*")):
            assert proc.poll() is None, proc.stderr.read().decode()
            assert time.monotonic() < deadline, "no bench_pairs_* directory appeared"
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) != 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stderr.close()
    assert list(tmp_path.glob("bench_pairs_*")) == []
    assert not (tool.parent.parent / "BENCH_sigterm_check.json").exists()


def test_recorded_workload_is_never_replaced(tmp_path):
    """A BENCH_<name>.json that already records the workload makes the tool
    exit non-zero before it exports a tree, and keeps the file's bytes."""
    tool = Path(bp.__file__)
    path = tool.parent.parent / "BENCH_recorded_check.json"
    recorded = json.dumps({"workloads": {"train-default": {"pairs": []}}}, indent=1).encode()
    path.write_bytes(recorded)
    try:
        proc = subprocess.run(
            [sys.executable, str(tool), "--parent", "HEAD", "--change", "HEAD",
             "--workload", "train-default", "--seeds", "1", "--name", "recorded_check"],
            env={**os.environ, "TMPDIR": str(tmp_path)}, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode != 0
        assert "already records train-default" in proc.stderr
        assert path.read_bytes() == recorded
        assert list(tmp_path.glob("bench_pairs_*")) == []
    finally:
        path.unlink()
