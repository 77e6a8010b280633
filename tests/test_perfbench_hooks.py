"""perfbench/spans.py still finds every attribute it wraps, and its counters
still see one default training step.

The benchmark reaches into the program by replacing module and class
attributes; a change that removes or renames one fails here, not only when
the benchmark runs."""

import dataclasses
import importlib.util
from pathlib import Path

from sceneseg import autodiff, config, decoder, inference, kernels, scenegen, training
from sceneseg.model import SegModel, seed_for

_spec = importlib.util.spec_from_file_location(
    "perfbench_spans", Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)

# the attributes install() replaces besides the timed ones of SPANNED
HOOKS = [
    (kernels, "min_sq_dist_to_set"),
    (inference, "iou_points"),
    (autodiff, "backward"),
    (decoder, "build_attention_mask"),
    (autodiff.Tensor, "__init__"),
]


def test_install_counts_one_default_step_and_undo_restores():
    patched = [(owner, attr) for owner, attr, _ in spans.SPANNED] + HOOKS
    before = [owner.__dict__[attr] for owner, attr in patched]
    run_cfg = config.RunConfig()
    model = SegModel(config.model_config(run_cfg))
    prep = model.prepare(scenegen.generate_scene(seed_for(0, "scene0"), scenegen.SceneSpec()))
    tcfg = dataclasses.replace(config.train_config(run_cfg), steps=1)

    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        assert all(owner.__dict__[attr] is not old for (owner, attr), old in zip(patched, before))
        rec.begin_op("step")
        training.fit(model, [prep], tcfg)
        rec.end_op()
    finally:
        undo()
    assert [owner.__dict__[attr] for owner, attr in patched] == before

    counts = {name: n for (_, name), n in rec.counts.items()}
    assert counts["autodiff.tape_nodes"] == 446
    # the tensors each layer's spans create, as the per-layer tape_nodes metrics sum them
    made = dict.fromkeys(spans.TAPE_LAYER.values(), 0)
    for s in rec.spans:
        if s.name in spans.TAPE_LAYER:
            made[spans.TAPE_LAYER[s.name]] += s.tensors
    assert made == {"backbone.tape_nodes": 19, "aggregation.tape_nodes": 18, "decoder.tape_nodes": 123}
    assert counts["aggregation.keypoints"] > 0
    assert counts["kernels.min_sq_dist_calls"] == counts["aggregation.keypoints"]  # one per pick
    assert "decoder.fallback_rows" in counts
    assert {s.name for s in rec.spans} >= {"decoder.forward", "aggregation.candidate_sample"}
