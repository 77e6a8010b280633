"""In-memory span recorder and the wrappers that time sceneseg's layers.

A span is one call into a layer: its name, start, end, the enclosing span and
the operation (training step, `predict` or `eval` command, set-up round) it
belongs to. Counters are kept per operation at the same boundaries. Nothing
is recorded outside an operation, so the output checks that run after the
timed loop leave no spans.

The wrappers replace module and class attributes, which the program reaches
through module lookups, so every call is seen without editing `src/`.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from sceneseg import (
    aggregation,
    autodiff,
    backbone,
    cli,
    decoder,
    inference,
    kernels,
    model,
    scenegen,
    training,
)

# (owner, attribute, span name); each span name is a per-layer time metric
SPANNED = [
    (scenegen, "generate_scene", "scenegen.generate_scene"),
    (scenegen, "read_ply", "scenegen.read_ply"),
    (scenegen, "write_ply", "scenegen.write_ply"),
    (scenegen, "build_superpoints", "scenegen.build_superpoints"),
    (model.SegModel, "__init__", "model.init"),
    (model.SegModel, "prepare", "model.prepare"),
    (model.SegModel, "forward", "model.forward"),
    (backbone.Backbone, "__call__", "backbone.forward"),
    (aggregation, "iterative_candidate_sample", "aggregation.candidate_sample"),
    (aggregation.LocalAggregator, "__call__", "aggregation.local"),
    (aggregation, "superpoint_avg_pool", "aggregation.global"),
    (aggregation.GlobalProjector, "__call__", "aggregation.global"),
    (kernels, "sphere_query_lists", "kernels.sphere_query"),
    (decoder.Decoder, "run", "decoder.forward"),
    (autodiff.ParamStore, "load", "autodiff.checkpoint_load"),
    (training, "total_loss", "training.loss"),
    (training, "match_cost", "training.match_cost"),
    (training, "hungarian", "training.hungarian"),
    (training.Adam, "step", "training.adam"),
    (inference, "predict", "inference.rank"),
    (inference, "write_predictions", "inference.write_predictions"),
    (inference, "read_predictions", "inference.read_predictions"),
    (inference, "evaluate", "inference.evaluate"),
    (cli, "cmd_predict", "cli.predict"),
    (cli, "cmd_eval", "cli.eval"),
]

# spans whose self-created tensors count towards a layer's tape nodes
TAPE_LAYER = {
    "backbone.forward": "backbone.tape_nodes",
    "aggregation.candidate_sample": "aggregation.tape_nodes",
    "aggregation.local": "aggregation.tape_nodes",
    "aggregation.global": "aggregation.tape_nodes",
    "decoder.forward": "decoder.tape_nodes",
}


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "group", "tensors")

    def __init__(self, sid, name, start, parent, group):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.group = group
        self.tensors = 0


class Recorder:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.groups = []  # (group id, kind)
        self.counts = defaultdict(int)  # (group id, counter name) -> total

    def begin_op(self, kind):
        """Open the root span of one operation; later spans join its group."""
        if self.stack:
            raise RuntimeError(f"operation {kind!r} opened inside another")
        gid = len(self.groups)
        self.groups.append((gid, kind))
        self.stack.append(self._new(kind, None, gid))

    def end_op(self):
        self.stack.pop().end = self.clock()
        if self.stack:
            raise RuntimeError("operation closed with open spans")

    def enter(self, name):
        if not self.stack:
            return None
        span = self._new(name, self.stack[-1].sid, self.stack[0].group)
        self.stack.append(span)
        return span

    def leave(self, span):
        if span is None:
            return
        span.end = self.clock()
        # an exception may unwind several wrapped frames at once
        while self.stack and self.stack[-1] is not span:
            self.stack.pop().end = span.end
        self.stack.pop()

    def count(self, name, n=1):
        if self.stack:
            self.counts[(self.stack[0].group, name)] += n

    def tensor_created(self):
        if self.stack:
            self.stack[-1].tensors += 1

    def _new(self, name, parent, group):
        span = Span(len(self.spans), name, self.clock(), parent, group)
        self.spans.append(span)
        return span

    def write_jsonl(self, path):
        kinds = dict(self.groups)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.group, "op_kind": kinds[s.group],
                    "tensors": s.tensors,
                }) + "\n")


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for a, b in sorted(intervals):
        if reach is None or a > reach:
            total += b - a
            reach = b
        elif b > reach:
            total += b - reach
            reach = b
    return total


def self_times(spans):
    """Span id -> its duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.sid]]
        out[s.sid] = (s.end - s.start) - covered([k for k in kids if k[1] > k[0]])
    return out


def per_op(totals, op_kinds, kinds_of_ops, fallback_kinds):
    """Per-operation value of each metric.

    `totals` maps (metric, op kind) to the metric's sum over the operations of
    that kind, and `kinds_of_ops` maps an op kind to how many such operations
    ran. A metric is divided by the number of operations of the kinds in
    `op_kinds` that touched it; a metric that no such operation touched is
    taken per operation of `fallback_kinds` (set-up) instead, and is 0 when
    nothing touched it."""
    names = {m for m, _ in totals}
    out = {}
    for m in sorted(names):
        for kinds in (op_kinds, fallback_kinds):
            hit = [k for k in kinds if totals.get((m, k), 0)]
            if hit:
                out[m] = sum(totals[(m, k)] for k in hit) / sum(kinds_of_ops[k] for k in hit)
                break
        else:
            out[m] = 0.0
    return out


def layer_totals(rec: Recorder, ops):
    """Sum self times (ms), tape nodes and counters over the given operations.

    Returns ({(metric, op kind): total}, {op kind: operation count})."""
    ops = set(ops)
    kinds = dict(rec.groups)
    n_ops = defaultdict(int)
    for gid in ops:
        n_ops[kinds[gid]] += 1
    totals = defaultdict(float)
    selfs = self_times([s for s in rec.spans if s.group in ops])
    for s in rec.spans:
        if s.group not in ops or s.parent is None:
            continue
        kind = kinds[s.group]
        totals[(s.name + "_ms", kind)] += 1000.0 * selfs[s.sid]
        if s.name in TAPE_LAYER:
            totals[(TAPE_LAYER[s.name], kind)] += s.tensors
    for (gid, name), n in rec.counts.items():
        if gid in ops:
            totals[(name, kinds[gid])] += n
    return dict(totals), dict(n_ops)


def per_layer(rec: Recorder, counted_ops, op_kinds):
    """Per-operation self times and counts over the counted operations, with
    set-up rounds as the fallback for layers that only set-up calls."""
    setups = [g for g, kind in rec.groups if kind == "setup"]
    totals, n_ops = layer_totals(rec, list(counted_ops) + setups)
    return per_op(totals, op_kinds, n_ops, ("setup",))


def _count_reachable(loss):
    seen, stack = {id(loss)}, [loss]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


# span name -> (counter, size of the call's result)
RESULT_COUNTS = {
    "aggregation.candidate_sample": ("aggregation.keypoints", lambda out: len(out.indices)),
    "inference.rank": ("inference.instances_kept", len),
}


def _spanned(rec, name, fn):
    counted = RESULT_COUNTS.get(name)

    def wrapper(*args, **kwargs):
        span = rec.enter(name)
        try:
            out = fn(*args, **kwargs)
            if counted is not None:
                rec.count(counted[0], counted[1](out))
            return out
        finally:
            rec.leave(span)

    return wrapper


def install(rec: Recorder):
    """Wrap every layer entry point; returns a function that undoes it."""
    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for owner, attr, name in SPANNED:
        patch(owner, attr, _spanned(rec, name, owner.__dict__[attr]))

    min_sq = kernels.min_sq_dist_to_set

    def min_sq_dist_to_set(positions, indices):
        rec.count("kernels.min_sq_dist_calls")
        rec.count("kernels.point_distances", len(positions) * len(indices))
        return min_sq(positions, indices)

    patch(kernels, "min_sq_dist_to_set", min_sq_dist_to_set)

    iou = inference.iou_points

    def iou_points(a, b):
        rec.count("inference.iou_calls")
        return iou(a, b)

    patch(inference, "iou_points", iou_points)

    backward = _spanned(rec, "autodiff.backward", autodiff.backward)

    def traced_backward(loss):
        rec.count("autodiff.tape_nodes", _count_reachable(loss))
        return backward(loss)

    patch(autodiff, "backward", traced_backward)

    mask = decoder.build_attention_mask

    def build_attention_mask(prev_mask, tau):
        out = mask(prev_mask, tau)
        rec.count("decoder.fallback_rows", int((~(prev_mask >= tau).any(axis=1)).sum()))
        return out

    patch(decoder, "build_attention_mask", build_attention_mask)

    tensor_init = autodiff.Tensor.__init__

    def init(self, *args, **kwargs):
        tensor_init(self, *args, **kwargs)
        rec.tensor_created()

    patch(autodiff.Tensor, "__init__", init)

    def undo():
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)

    return undo
