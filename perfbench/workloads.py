"""The four benchmark workloads, driven through segbert's public API.

A workload has a timed ``setup`` (TU files to prepared inputs and
folds) and a ``run_pass`` that does the whole job once, set-up
included, and returns what the metrics and the correctness checks
need. Each keeps the set-up outputs it needs for its checks.

Why these four:

- ``mutag-pp``: every array is at most ~400 x 32, so per-op tape
  bookkeeping, the finiteness checks and ``build_batch`` dominate.
- ``proteins-seg``: 620-wide adjacency rows make the embedding matmuls
  kernel-bound, and the long size tail fills the last segments with
  dummy slots. The only workload with the raw residual, pre-training
  (the per-graph ``pretrain_batch_loss`` loop) and gradient clipping.
- ``collab-dense``: ~1.4 M arcs, so TU parsing and the Python WL
  refinement dominate; evaluation only, with the tape paused.
- ``gradcheck``: forward recording on one 5-node graph, with no
  backward sweep, no Adam and no batching.

``run_cv`` gets ``early_stop_patience == epochs == 1`` so every fold
trains, refits and evaluates exactly the same number of graphs on
every seed (the refit length is the chosen epoch, which could vary
with longer runs); the amount of work per pass depends only on the
set's size profile.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

import segbert
from segbert import Strategy, TrainConfig
from segbert.gradcheck import toy_graph

from synth import NAMES


@dataclass
class PassResult:
    """One pass: graph counts and model seconds per phase, checks."""

    graphs: dict = field(default_factory=dict)  # phase -> graphs
    seconds: dict = field(default_factory=dict)  # phase -> model seconds
    setup_s: float | None = None
    digest: str = ""
    test_acc: float | None = None
    checks: list = field(default_factory=list)  # (name, ok, detail)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))
        self.attempted += 1
        self.failed += 0 if ok else 1


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _in_unit(values) -> bool:
    return all(0.0 <= v <= 1.0 for v in values)


def shape_of(ds, n_adj: int, inputs) -> dict:
    sizes = [g.node_count for g in ds.graphs]
    slots = sum(gi.slot_count for gi in inputs)
    real = sum(len(gi.real_slots) for gi in inputs)
    return {"graphs": len(sizes), "avg_nodes": round(float(np.mean(sizes)), 2),
            "max_nodes": max(sizes), "arcs": sum(len(g.edges) for g in ds.graphs),
            "classes": ds.class_count, "n_adj": n_adj, "slots": slots,
            "real_slot_fraction": round(real / slots, 4)}


class CvWorkload:
    """Load, then the full 10-fold ``run_cv``."""

    def __init__(self, name, directory, seed, tiny, strategy, k, residual,
                 train_cfg: TrainConfig, setup_reps: int,
                 above_chance: bool = False):
        self.name, self.directory, self.seed = name, directory, seed
        self.strategy, self.k, self.residual = strategy, k, residual
        self.train_cfg = train_cfg
        self.setup_reps = setup_reps
        # a 3-graph test fold of the tiny set cannot show learning
        self.above_chance = above_chance and not tiny
        self.shape: dict = {}

    def _plan(self):
        ds = segbert.load_tu_dataset(self.directory, NAMES[self.name])
        plan = segbert.resolve_plan(ds, self.strategy, self.k)
        config = segbert.config_for(ds, plan, residual_mode=self.residual)
        return ds, plan, config

    def setup(self):
        ds, plan, config = self._plan()
        inputs = segbert.prepare_dataset(ds, plan, config)
        folds = segbert.make_folds(ds, self.train_cfg.seed)
        self.shape = shape_of(ds, config.n_adj, inputs)
        self.folds = folds
        self.chance = float(np.bincount([g.label for g in ds.graphs]).max()
                            / len(ds.graphs))

    def run_pass(self, tracer) -> PassResult:
        ds, plan, config = self._plan()
        summary = segbert.run_cv(ds, plan, config, self.train_cfg)
        res = PassResult()
        incl, _self, _calls = tracer.totals()
        res.setup_s = (incl["load_tu_dataset"] + incl["prepare_dataset"]
                       + incl["make_folds"])
        train = 0
        for report, split in zip(summary.folds, self.folds):
            train += (len(report.epochs) * len(split.train)
                      + report.chosen_epoch * (len(split.train) + len(split.val)))
        res.graphs["train"] = train
        res.seconds["train"] = incl["finetune_fold"] - incl["evaluate_accuracy"]
        res.graphs["eval"] = int(tracer.counts["eval_graphs"])
        res.seconds["eval"] = incl["evaluate_accuracy"]
        if self.train_cfg.pretrain_tasks:
            res.graphs["pretrain"] = self.train_cfg.pretrain_epochs * len(ds)
            res.seconds["pretrain"] = incl["pretrain"]
        res.attempted += len(summary.folds) + bool(self.train_cfg.pretrain_tasks)

        losses = [s.train_loss for r in summary.folds for s in r.epochs]
        accs = [a for r in summary.folds for s in r.epochs
                for a in (s.train_acc, s.val_acc, s.test_acc)]
        accs += summary.accuracies()
        res.test_acc = summary.mean_accuracy
        res.digest = _digest([r.chosen_epoch for r in summary.folds],
                             summary.accuracies())
        res.check("losses finite", all(math.isfinite(v) for v in losses))
        res.check("accuracies in [0, 1]", _in_unit(accs))
        res.check("10 folds", len(summary.folds) == 10,
                  f"{len(summary.folds)} folds")
        if self.above_chance:
            res.check("test_acc above chance", res.test_acc > self.chance,
                      f"{res.test_acc:.4f} vs majority share {self.chance:.4f}")
        return res


class EvalWorkload:
    """Set-up, then one eval-mode pass over every graph."""

    setup_reps = 0  # every pass sets up; its set-up time is sampled there

    def __init__(self, name, directory, seed, k):
        self.name, self.directory, self.seed, self.k = name, directory, seed, k
        self.shape: dict = {}

    def setup(self):
        ds = segbert.load_tu_dataset(self.directory, NAMES[self.name])
        plan = segbert.resolve_plan(ds, Strategy.PADDING_PRUNING, self.k)
        config = segbert.config_for(ds, plan)
        inputs = segbert.prepare_dataset(ds, plan, config)
        segbert.make_folds(ds, self.seed)
        self.shape = shape_of(ds, config.n_adj, inputs)
        return ds, config, inputs

    def run_pass(self, tracer) -> PassResult:
        ds, config, inputs = self.setup()
        incl, _self, _calls = tracer.totals()
        setup_s = incl["load_tu_dataset"] + incl["prepare_dataset"] + incl["make_folds"]
        params = segbert.init_params(config, seed=self.seed)
        acc = segbert.evaluate_accuracy(params, config, inputs, np.arange(len(inputs)))
        incl, _self, _calls = tracer.totals()
        res = PassResult(setup_s=setup_s)
        res.graphs["eval"] = len(inputs)
        res.seconds["eval"] = incl["evaluate_accuracy"]
        res.digest = _digest(acc)
        res.check("accuracy in [0, 1]", _in_unit([acc]), f"{acc:.4f}")
        return res


class GradcheckWorkload:
    """``model_gradcheck`` for both residual modes."""

    def __init__(self, seed, tiny):
        self.seed = seed
        # the default depth and head count at width 4 instead of 32, so a
        # pass takes seconds (the finite-difference loop is quadratic in it)
        width = 2 if tiny else 4
        self.model = dict(hidden_dim=width, head_count=2, layer_count=2,
                          intermediate_dim=width)
        self.setup_reps = 20 if tiny else 200
        graph = toy_graph()
        self.shape = {"graphs": 1, "avg_nodes": graph.node_count,
                      "max_nodes": graph.node_count, "arcs": len(graph.edges),
                      "classes": 2, "n_adj": graph.node_count,
                      "slots": graph.node_count, "real_slot_fraction": 1.0,
                      **self.model}

    def setup(self):
        """What model_gradcheck does before its finite-difference loop."""
        g = toy_graph()
        config = segbert.ModelConfig(class_count=2, attr_dim=3, use_tags=True,
                                     n_adj=g.node_count, segment_k=g.node_count,
                                     **self.model)
        segbert.init_params(config, seed=self.seed)
        plan = segbert.UnifyPlan(Strategy.FULL_INPUT, g.node_count)
        bundles = segbert.build_bundles(g, n_adj=g.node_count)
        gi = segbert.prepare_graph(g, bundles, plan, config)
        segbert.build_batch([gi], config.class_count)
        segbert.structure_target(gi)

    def run_pass(self, tracer) -> PassResult:
        reports = [segbert.model_gradcheck(mode, seed=self.seed, **self.model)
                   for mode in ("none", "raw")]
        incl, _self, _calls = tracer.totals()
        res = PassResult()
        # every call makes one analytic forward before its loss evaluations
        res.graphs["gradcheck"] = int(tracer.counts["gradcheck_encodes"]) - len(reports)
        res.seconds["gradcheck"] = incl["model_gradcheck"]
        res.digest = _digest([sorted(r.errors.items()) for r in reports])
        for mode, report in zip(("none", "raw"), reports):
            bad = [n for n, e in report.errors.items()
                   if not e < report.tolerance]
            res.attempted += len(report.errors)
            res.failed += len(bad)
            res.check(f"gradcheck {mode} passed at {report.tolerance:g}",
                      report.passed and not bad,
                      f"worst {report.worst:.2e}" + (f", failing {bad}" if bad else ""))
        return res


def make(name: str, directory: str, seed: int, tiny: bool):
    if name == "mutag-pp":
        cfg = TrainConfig(learning_rate=1e-2, epochs=1, early_stop_patience=1,
                          batch_size=16, seed=seed)
        return CvWorkload(name, directory, seed, tiny, Strategy.PADDING_PRUNING,
                          25, "none", cfg, setup_reps=3 if tiny else 15,
                          above_chance=True)
    if name == "proteins-seg":
        cfg = TrainConfig(learning_rate=1e-3, epochs=1, early_stop_patience=1,
                          batch_size=32, seed=seed, grad_clip=1.0,
                          pretrain_tasks=("structure", "reconstruction"),
                          pretrain_epochs=1)
        return CvWorkload(name, directory, seed, tiny, Strategy.SEGMENT_SHIFTING,
                          20, "raw", cfg, setup_reps=2 if tiny else 5)
    if name == "collab-dense":
        return EvalWorkload(name, directory, seed, 100)
    if name == "gradcheck":
        return GradcheckWorkload(seed, tiny)
    raise ValueError(f"unknown workload {name!r}")
