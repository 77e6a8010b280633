"""sceneseg pipeline benchmark.

    python3 perfbench/run.py --workload train-default --seed 1 --seconds 25 --trace 0

Runs one workload in this process, checks its outputs, and prints one JSON
object as the last line of standard output: `correct`, `attempted`, `failed`
and `metrics`. With `--trace 0` the metrics are the end-to-end metrics of
BENCHMARK.json; with `--trace 1` the layers are wrapped in timing spans and
the metrics are the per-layer ones. Spans, inputs and results go to
`.perfbench_out/<workload>/` at the repository root. The exit code is 1 when
an output check fails and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the workloads' matrices are small and a second thread only
# spins (twice the CPU time for the same step time on 2 cores); a process on
# one core also feels less of whatever else runs on the machine.
BLAS_THREADS = 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sceneseg").is_dir():
        print(f"error: no sceneseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)  # read once, when numpy loads BLAS
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import spans
    import workloads

    out_dir = ROOT / ".perfbench_out" / args.workload
    work = out_dir / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    rec = spans.Recorder() if args.trace else None
    undo = spans.install(rec) if rec is not None else (lambda: None)
    w = workloads.WORKLOADS[args.workload]
    try:
        if isinstance(w, workloads.TrainWorkload):
            outcome = workloads.run_train(w, args.seed, args.seconds, rec)
        else:
            outcome = workloads.run_predict(w, args.seed, args.seconds, rec, work)
    finally:
        undo()

    if rec is not None:
        wanted = bench["per_layer"]
        values = spans.per_layer(rec, outcome.counted_ops, outcome.op_kinds)
        values["traced.op_ms"] = outcome.metrics.get("op_ms", 0.0)
    else:
        wanted = bench["end_to_end"]
        values = outcome.metrics
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    stem = f"seed{args.seed}-trace{args.trace}"
    if rec is not None:
        rec.write_jsonl(out_dir / f"{stem}.spans.jsonl")
    (out_dir / f"{stem}.json").write_text(json.dumps({
        **result,
        "failures": outcome.failures,
        "inputs": outcome.inputs,
        "blas_threads": BLAS_THREADS,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }, indent=1))
    for line in outcome.failures:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
