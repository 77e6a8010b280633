"""The recipe and the line format of tools/output_digest.py; the recipe
itself runs outside the test suite."""

import hashlib
import importlib.util
from pathlib import Path

from sceneseg import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # the tool imports bench_pairs' export
    spec = importlib.util.spec_from_file_location("output_digest", TOOLS / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_recipe_step_parses(monkeypatch):
    tool = load_tool(monkeypatch)
    commands = [cli.build_parser().parse_args(step).command for step in tool.recipe()]
    assert commands.count("train") == 5 and commands.count("predict") == 6
    assert commands[0] == "gen" and "eval" in commands and "inspect-attn" in commands


def test_digest_lines_sorted_by_relative_path(monkeypatch, tmp_path):
    tool = load_tool(monkeypatch)
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "loss.csv").write_bytes(b"step\n")
    (tmp_path / "attn.csv").write_bytes(b"")
    empty, step = (hashlib.sha256(data).hexdigest()[:16] for data in (b"", b"step\n"))
    assert tool.digest_lines(tmp_path) == [f"{empty} attn.csv", f"{step} run/loss.csv"]
