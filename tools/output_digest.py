"""Digests of every file a fixed CLI recipe writes at one commit.

    python3 tools/output_digest.py --rev HEAD~1 > before.txt
    python3 tools/output_digest.py --rev HEAD > after.txt
    diff before.txt after.txt

The commit runs from its own `git archive` (the export of
tools/bench_pairs.py), so uncommitted edits are never run. Every command goes
through `python -m sceneseg.cli` with OPENBLAS_NUM_THREADS=1, since the BLAS
thread count changes the last bits of matrix products. The output is one
`<sha256[:16]> <path>` line per file the recipe writes, by path. The recipe:

- the default `gen` -> `train` (500 steps) -> `predict` of each scene ->
  `eval` -> `inspect-attn` at layer 3 head 5 and at layer 0 head 0
- `train` for 60 steps each with model.use_global=false, with
  model.use_local=false and with msa.rq=0
- `gen` of two 20,000-point rooms (seed 7) -> `train` for 0 steps at the
  default config -> `predict` of each room
"""

from __future__ import annotations

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import _exit_on_sigterm, export

ABLATIONS = {
    "run_no_global": "model.use_global=false",
    "run_no_local": "model.use_local=false",
    "run_rq0": "msa.rq=0",
}


def recipe():
    """The CLI argument lists, in order, relative to the work directory."""
    steps = [["gen", "--out", "data"],
             ["train", "--data", "data", "--out", "run", "--set", "train.steps=500"]]
    for i in range(4):
        steps.append(["predict", "--checkpoint", "run/checkpoint.psgw",
                      "--scene", f"data/scene_{i:03d}.ply", "--out", "pred"])
    steps.append(["eval", "--pred", "pred", "--gt", "data", "--out", "eval"])
    for layer, head in ((3, 5), (0, 0)):
        steps.append(["inspect-attn", "--checkpoint", "run/checkpoint.psgw",
                      "--scene", "data/scene_000.ply", "--layer", str(layer),
                      "--head", str(head), "--out", f"attn_l{layer}_h{head}.csv"])
    for out, setting in ABLATIONS.items():
        steps.append(["train", "--data", "data", "--out", out,
                      "--set", "train.steps=60", "--set", setting])
    steps.append(["gen", "--out", "dense_data", "--set", "n_points=20000",
                  "--set", "n_scenes=2", "--set", "seed=7"])
    steps.append(["train", "--data", "dense_data", "--out", "dense_run", "--set", "train.steps=0"])
    for i in range(2):
        steps.append(["predict", "--checkpoint", "dense_run/checkpoint.psgw",
                      "--scene", f"dense_data/scene_{i:03d}.ply", "--out", "dense_pred"])
    return steps


def digest_lines(work):
    """`<sha256[:16]> <path>` for every file under work, sorted by path."""
    files = sorted(p for p in Path(work).rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()[:16]} {p.relative_to(work).as_posix()}"
            for p in files]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", required=True, help="commit whose outputs are digested")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    with tempfile.TemporaryDirectory(prefix="output_digest_") as tmp:
        tree, work = Path(tmp) / "tree", Path(tmp) / "work"
        export(args.rev, tree)
        work.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": str(tree / "src")}
        for step in recipe():
            proc = subprocess.run([sys.executable, "-m", "sceneseg.cli", *step],
                                  cwd=work, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{' '.join(step)} exited {proc.returncode}: {proc.stderr.strip()}")
        print("\n".join(digest_lines(work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
