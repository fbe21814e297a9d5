"""Spans and op counters recorded from outside the package.

The tracer replaces public segbert functions with timing wrappers at
the module attribute where each caller looks them up (a function
imported with ``from .x import f`` is looked up in the importing
module, so ``segbert.training.adam_step`` and ``segbert.autodiff.adam_step``
are separate patch points). Wrappers are installed only inside
``with tracer:`` and the original attributes are restored on exit.

Every wrapped call becomes a span ``[name, start, end, parent]``; a
span's self time is its duration minus the time its child spans cover.
With ``ops=True`` each public ``Tape`` op is wrapped too. Ops do not
become spans: they add to per-kind counters (calls, forward seconds,
output bytes), and the ``TapeEntry.backward`` closure an op appends is
wrapped to add per-kind backward seconds.
"""

from __future__ import annotations

import time
from collections import defaultdict

import segbert
import segbert.features
import segbert.gradcheck
import segbert.model
import segbert.training
from segbert.autodiff import Tape

# (module, attribute) -> span name. COARSE points are few calls per fold,
# cheap enough for the untraced runs, and give the phase times behind
# the end-to-end rates. FINE points add every model and feature layer.
COARSE = {
    (segbert, "load_tu_dataset"): "load_tu_dataset",
    (segbert, "prepare_dataset"): "prepare_dataset",
    (segbert, "make_folds"): "make_folds",
    (segbert, "evaluate_accuracy"): "evaluate_accuracy",
    (segbert, "model_gradcheck"): "model_gradcheck",
    (segbert.training, "prepare_dataset"): "prepare_dataset",
    (segbert.training, "make_folds"): "make_folds",
    (segbert.training, "pretrain"): "pretrain",
    (segbert.training, "finetune_fold"): "finetune_fold",
    (segbert.training, "evaluate_accuracy"): "evaluate_accuracy",
    (segbert.gradcheck, "encode"): "encode",
}
FINE = {
    (segbert.model, "dataset_bundles"): "dataset_bundles",
    (segbert.features, "dataset_wl_codes"): "dataset_wl_codes",
    (segbert.features, "build_bundles"): "build_bundles",
    (segbert.gradcheck, "build_bundles"): "build_bundles",
    (segbert.model, "unify"): "unify",
    (segbert.model, "prepare_graph"): "prepare_graph",
    (segbert.gradcheck, "prepare_graph"): "prepare_graph",
    (segbert.model, "build_batch"): "build_batch",
    (segbert.training, "build_batch"): "build_batch",
    (segbert.gradcheck, "build_batch"): "build_batch",
    (segbert.model, "initial_embedding"): "initial_embedding",
    (segbert.model, "transformer_layer"): "transformer_layer",
    (segbert.model, "encode"): "encode",
    (segbert.training, "encode"): "encode",
    (segbert.training, "classify_batch"): "classify_batch",
    (segbert.training, "reconstruct_attributes"): "reconstruct_attributes",
    (segbert.gradcheck, "reconstruct_attributes"): "reconstruct_attributes",
    (segbert.training, "recover_structure"): "recover_structure",
    (segbert.gradcheck, "recover_structure"): "recover_structure",
    (segbert.training, "pretrain_batch_loss"): "pretrain_batch_loss",
    (segbert.training, "adam_step"): "adam_step",
    (segbert.training, "clip_global_norm"): "clip_global_norm",
    (Tape, "backward"): "Tape.backward",
}
TAPE_OPS = (
    "matmul", "add", "mul", "add_n", "scale", "relu", "gelu",
    "softmax_rows", "layer_norm_rows", "dropout", "take_rows",
    "concat_rows", "concat_cols", "slice_cols", "mean_rows",
    "attention_scores", "attention_apply", "cosine_rows", "mse",
    "cross_entropy",
)


class Tracer:
    """In-memory span recorder; use as a context manager."""

    def __init__(self, fine: bool = False, ops: bool = False):
        self.points = dict(COARSE)
        if fine:
            self.points.update(FINE)
        self.ops = ops
        self.spans: list = []
        self.stack: list = []
        # per-call facts the metrics need, keyed by what they count
        self.counts: dict = defaultdict(float)
        self.op_stats: dict = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.step_ms: list = []
        self._batch_start = None
        self._batch_graphs = 0
        self._saved: list = []

    # ------------------------------------------------------------------
    # installation

    def __enter__(self):
        for (owner, attr), name in self.points.items():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        if self.ops:
            for op in TAPE_OPS:
                original = getattr(Tape, op)
                self._saved.append((Tape, op, original))
                setattr(Tape, op, self._wrap_op(op, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, result, span)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_op(self, kind, fn):
        stats, clock = self.op_stats[kind], time.perf_counter

        def timed_backward(backward):
            def run():
                t0 = clock()
                backward()
                stats[2] += clock() - t0
            return run

        def wrapper(tape, *args, **kwargs):
            before = len(tape.entries)
            t0 = clock()
            out = fn(tape, *args, **kwargs)
            stats[1] += clock() - t0
            stats[0] += 1
            stats[3] += out.value.nbytes
            if len(tape.entries) > before:
                entry = tape.entries[-1]
                entry.backward = timed_backward(entry.backward)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------------
    # per-call counters, named _after_<span name>

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def _after_load_tu_dataset(self, args, kwargs, ds, span):
        self.counts["arcs"] += sum(len(g.edges) for g in ds.graphs)

    def _after_dataset_wl_codes(self, args, kwargs, codes, span):
        self.counts["wl_nodes"] += sum(len(c) for c in codes)

    def _after_unify(self, args, kwargs, segments, span):
        self.counts["slots"] += sum(s.slot_count for s in segments)
        self.counts["real_slots"] += sum(int(s.real_mask.sum()) for s in segments)

    def _after_build_batch(self, args, kwargs, batch, span):
        self._batch_start = span[1]
        self._batch_graphs = len(batch.members)

    def _after_adam_step(self, args, kwargs, result, span):
        if self._batch_start is not None:
            self.step_ms.append((span[2] - self._batch_start) * 1e3)
            self.counts["graph_steps"] += self._batch_graphs
            self._batch_start = None

    def _after_Tape_backward(self, args, kwargs, result, span):
        entries = args[0].entries
        self.counts["backward_calls"] += 1
        self.counts["step_ops"] += len(entries)
        self.counts["step_bytes"] += sum(e.output.value.nbytes for e in entries)
        if self._inside("model_gradcheck"):
            self.counts["gradcheck_backwards"] += 1

    def _after_evaluate_accuracy(self, args, kwargs, acc, span):
        self.counts["eval_graphs"] += len(args[3] if len(args) > 3
                                          else kwargs["indices"])

    def _after_encode(self, args, kwargs, h, span):
        if self._inside("model_gradcheck"):
            self.counts["gradcheck_encodes"] += 1

    # ------------------------------------------------------------------
    # aggregation

    def totals(self) -> tuple:
        """(inclusive seconds, self seconds, calls) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        incl, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for (name, start, end, _parent), c in zip(self.spans, child):
            incl[name] += end - start
            self_s[name] += end - start - c
            calls[name] += 1
        return incl, self_s, calls
