"""Paired benchmark runs of a parent and a change.

    python3 tools/bench_pairs.py --parent 1e0b6ef --change HEAD \
        --workload train-cluttered --seeds 201-210 --claim peak_rss_mb --name 6

Each side runs from its own `git archive` of its commit, so uncommitted edits
are never measured. For every seed, `perfbench/run.py --trace 0` runs once in
each tree; the side that runs first alternates from pair to pair. The pairs,
each side's median and quartiles per end-to-end metric, the parent's
interquartile range, the change's wins and the verdicts are written to
`BENCH_<name>.json`, one entry per workload, so runs of several workloads
collect in one file.

The claim rule: the claimed metric is better on at least nine tenths of the
pairs (ties count for neither), over at least ten pairs, the medians differ
in the claimed direction by more than the parent's interquartile range, and
`loss` is equal in every pair. Every other metric is checked against its
BENCHMARK.json bound, taken as a fraction of the parent's median. A metric
whose interquartile range on either side exceeds that bound is unresolved,
since such runs cannot show a worsening up to the bound, unless every
change run beats every parent run. Runs last BENCHMARK.json's
`run_seconds`. SIGTERM stops the tool like an exception: the running
perfbench child is killed and both trees are removed.

A recorded run is never replaced, since every run made is reported: if
`BENCH_<name>.json` already records `--workload`, the tool exits non-zero
before it exports any tree, and the file stays as it was. Record a rerun
under another `--name`.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values):
    """(first quartile, median, third quartile), inclusive method."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def wins(parent, change, better):
    """Pairs where the change is strictly better; ties count for neither."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def claim_verdict(parent, change, better, loss_equal=True):
    """The claim rule of the module docstring for one metric's paired values."""
    q1, p_med, q3 = quartiles(parent)
    c_med = quartiles(change)[1]
    gain = p_med - c_med if better == "lower" else c_med - p_med
    won = wins(parent, change, better)
    need = math.ceil(WIN_SHARE * len(parent))
    reasons = []
    if len(parent) < MIN_PAIRS:
        reasons.append(f"{len(parent)} pairs, fewer than {MIN_PAIRS}")
    if won < need:
        reasons.append(f"won {won} of {len(parent)} pairs, fewer than {need}")
    if not gain > q3 - q1:
        reasons.append(f"median gain {gain:.6g} is not above the parent's IQR {q3 - q1:.6g}")
    if not loss_equal:
        reasons.append("loss differs in some pair")
    return {
        "wins": won,
        "pairs": len(parent),
        "wins_needed": need,
        "median_gain": gain,
        "parent_iqr": q3 - q1,
        "holds": not reasons,
        "reasons": reasons,
    }


def _relative(diff, base):
    return diff / abs(base) if base else (0.0 if diff <= 0 else math.inf)


def bound_verdict(parent, change, better, bound):
    """"within bound" or "worse than bound": whether the change's median is
    worse than the parent's by more than `bound`, a fraction of the parent's
    median. "unresolved" when either side's IQR, as that fraction, exceeds
    the bound and not every change run beats every parent run."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    worse = c_med - p_med if better == "lower" else p_med - c_med
    rel = _relative(worse, p_med)
    spread = {"parent": _relative(p_q3 - p_q1, p_med), "change": _relative(c_q3 - c_q1, p_med)}
    if better == "lower":
        separated = max(change) < min(parent)
    else:
        separated = min(change) > max(parent)
    if max(spread.values()) > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "within bound" if rel <= bound else "worse than bound"
    return {"relative_worsening": rel, "relative_iqr": spread, "bound": bound, "verdict": verdict}


def parse_seeds(text):
    """'201-210' or '201,205,207' -> list of ints."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def export(rev, dest):
    """Extract `git archive rev` into dest; returns the full commit id."""
    sha = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(dest, filter="data")
    return sha


def run_once(tree, workload, seed, seconds):
    """The JSON result line of one untraced perfbench run in `tree`."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(
            f"{tree}: no result from perfbench (exit {proc.returncode}): {proc.stderr[-400:]}"
        )
    return json.loads(lines[-1])


def _exit_on_sigterm(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills its child, and
    # through TemporaryDirectory, which removes the trees
    raise SystemExit(f"stopped by signal {signum}")


def summarise(pairs, metrics, claim):
    """Per-metric quartiles of both sides, wins and verdicts over the pairs."""
    loss_equal = all(
        p["parent"]["metrics"]["loss"]["value"] == p["change"]["metrics"]["loss"]["value"]
        for p in pairs
    )
    out = {}
    for m in metrics:
        name = m["name"]
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        entry = {
            "unit": m["unit"],
            "better": m["better"],
            "parent_quartiles": quartiles(parent),
            "change_quartiles": quartiles(change),
            "wins": wins(parent, change, m["better"]),
            **bound_verdict(parent, change, m["better"], m["bound"]),
        }
        if name == claim:
            entry["claim"] = claim_verdict(parent, change, m["better"], loss_equal)
        out[name] = entry
    return {"loss_equal_in_every_pair": loss_equal, "metrics": out}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="commit of the parent")
    parser.add_argument("--change", required=True, help="commit of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 201-210 or 201,203")
    parser.add_argument("--claim", help="end-to-end metric the change claims to improve")
    parser.add_argument("--name", required=True,
                        help="output is BENCH_<name>.json at the repo root")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    if args.claim is not None and args.claim not in {m["name"] for m in metrics}:
        parser.error(f"unknown metric {args.claim!r}")
    out_path = ROOT / f"BENCH_{args.name}.json"

    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    if args.workload in doc.get("workloads", {}):
        raise SystemExit(f"{out_path.name} already records {args.workload}; choose another --name")
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: Path(tmp) / side for side in ("parent", "change")}
        shas = {side: export(getattr(args, side), trees[side]) for side in trees}
        if any(doc.get(side, sha) != sha for side, sha in shas.items()):
            raise SystemExit(f"{out_path.name} holds runs of other commits; choose another --name")
        pairs = []
        for i, seed in enumerate(parse_seeds(args.seeds)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], args.workload, seed, bench["run_seconds"])
            pairs.append(pair)
            values = {s: {k: v["value"] for k, v in pair[s]["metrics"].items()} for s in order}
            print(json.dumps({"seed": seed, "first": order[0], **values}), flush=True)

    doc.update(shas)
    doc.setdefault("workloads", {})[args.workload] = {
        "command": f"python3 perfbench/run.py --workload {args.workload} --seed <seed> "
                   f"--seconds {bench['run_seconds']:g} --trace 0",
        "claim": args.claim,
        "all_correct": all(p[s]["correct"] and p[s]["failed"] == 0 for p in pairs for s in trees),
        **summarise(pairs, metrics, args.claim),
        "pairs": pairs,
    }
    out_path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
