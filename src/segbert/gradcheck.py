"""Finite-difference validation of the model's gradients.

A fixed 5-node toy graph runs through the full network in eval mode
(dropout is the identity there, keeping the loss a deterministic
function of the parameters). The loss sums the classification
cross-entropy with the pre-training losses (reconstruction only when
the toy graph has attributes) so every parameter group, heads
included, receives gradient. Each parameter entry is then
perturbed by a central step and compared against the tape's analytic
gradient. ``finite_difference_check`` is that comparison for any loss
built on a tape, so tests can run it on batched, segmented and
pre-training losses too.

In eval mode every layer is a deterministic function of its input and
the parameters, so perturbing a tensor leaves the input of every layer
before the first one that reads it bit for bit as in the analytic pass
(``resume_layer`` names that layer). The model check keeps each
layer's input and the encoder output from its analytic pass, and each
finite-difference evaluation resumes ``encode`` at the perturbed
tensor's layer: a head's evaluation runs no layer at all, and the
losses are the bits a full evaluation gives. Training-mode checks keep
full evaluations, since dropout draws from one stream per pass.

The analytic pass records, so every op output is checked for NaN and
Inf as in training. The finite-difference evaluations run on paused
tapes, whose ops check nothing: ``paused_value`` checks each loss once
and, on a non-finite loss, replays that evaluation on a recording tape
so that ``NonFiniteError`` names the op. A non-finite value that does
not reach a perturbed loss goes unreported there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor, paused_value
from .dataset import GraphInstance
from .features import build_bundles
from .model import (
    ModelConfig,
    ModelParams,
    build_batch,
    encode,
    init_params,
    prepare_graph,
    reconstruct_attributes,
    recover_structure,
    structure_target,
)
from .unify import Strategy, UnifyPlan

__all__ = ["GradCheckReport", "finite_difference_check", "model_gradcheck",
           "relative_error", "resume_layer", "toy_graph"]

# the one gate setting: central differences with this step, and every
# parameter group's relative error below this tolerance
STEP = 1e-5
TOLERANCE = 1e-3
TOY_ATTR_DIM = 3


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max entrywise |a-b| / max(|a|+|b|, 1e-6)."""
    denom = np.maximum(np.abs(a) + np.abs(b), 1e-6)
    return float(np.max(np.abs(a - b) / denom))


def toy_graph(attr_dim: int = TOY_ATTR_DIM) -> GraphInstance:
    """Five nodes, a path with two chords, deterministic tags/attrs."""
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3)]
    g = GraphInstance(node_count=5, edges=pairs, label=1)
    g.node_tags = [0, 1, 2, 0, 1]
    if attr_dim > 0:
        g.node_attributes = (np.arange(5 * attr_dim, dtype=np.float64)
                             .reshape(5, attr_dim) % 7) / 7.0
    return g


@dataclass
class GradCheckReport:
    errors: dict
    tolerance: float
    evaluations: int  # loss evaluations made: the analytic pass, two per entry

    @property
    def worst(self) -> float:
        return max(self.errors.values())

    @property
    def passed(self) -> bool:
        return self.worst < self.tolerance

    def lines(self) -> list:
        out = []
        for name, err in self.errors.items():
            flag = "ok" if err < self.tolerance else "FAIL"
            out.append(f"{name:40s} rel_err {err:.3e} {flag}")
        return out


def model_gradcheck(residual_mode: str = ModelConfig.residual_mode,
                    hidden_dim: int = ModelConfig.hidden_dim,
                    head_count: int = ModelConfig.head_count,
                    layer_count: int = ModelConfig.layer_count,
                    intermediate_dim: int = ModelConfig.intermediate_dim,
                    attr_dim: int = TOY_ATTR_DIM, seed: int = 0) -> GradCheckReport:
    """Check every parameter group of a small model; returns a report."""
    g = toy_graph(attr_dim)
    # dropout keeps ModelConfig's rates, which eval mode ignores
    cfg = ModelConfig(
        hidden_dim=hidden_dim,
        head_count=head_count,
        layer_count=layer_count,
        intermediate_dim=intermediate_dim,
        residual_mode=residual_mode,
        class_count=2,
        attr_dim=attr_dim,
        use_tags=True,
        n_adj=5,
        segment_k=5,
    )
    params = init_params(cfg, seed=seed)
    plan = UnifyPlan(Strategy.FULL_INPUT, 5)
    gi = prepare_graph(g, build_bundles(g, n_adj=5), plan, cfg)
    batch = build_batch([gi], cfg.class_count)
    onehot = batch.labels_onehot
    target_w = structure_target(gi)
    real = batch.real_slot_lists[0]
    attr_target = batch.attr[real] if attr_dim > 0 else None

    # each layer's input, then the encoder output, at the analytic pass
    layer_inputs = []

    def run_loss(tape: Tape, start: tuple | None = None) -> Tensor:
        h = encode(tape, params, cfg, batch, training=False, start=start)
        if tape.recording and not layer_inputs:
            # the analytic pass: each layer's attention_block entry reads
            # its input; constants keep later passes off this tape
            layer_inputs.extend(Tensor(e.inputs[0].value) for e in tape.entries
                                if e.op == "attention_block")
            layer_inputs.append(Tensor(h.value))
        h_final = tape.take_rows(h, real)
        z = tape.mean_rows(h, batch.real_slot_lists)
        logits = tape.linear(z, params["classifier.weight"], params["classifier.bias"])
        terms = [tape.cross_entropy(logits, onehot)]
        if attr_target is not None:
            terms.append(tape.mse(reconstruct_attributes(tape, params, h_final),
                                  attr_target))
        terms.append(tape.mse(recover_structure(tape, h_final), target_w))
        return tape.add_n(terms)

    def loss_for(name: str):
        layer = resume_layer(name, cfg.layer_count)
        if layer is None:
            return run_loss
        start = (layer, layer_inputs[layer])
        return lambda tape: run_loss(tape, start)

    return finite_difference_check(params, run_loss, loss_for)


def resume_layer(name: str, layer_count: int) -> int | None:
    """The first encoder layer that reads parameter ``name``, or
    ``layer_count`` when only the heads do: an evaluation perturbing it
    can resume there. The raw residual enters every layer, so it resumes
    at layer 0, from the embedding. None (a full evaluation) for the
    embeddings and for any name not listed here."""
    group, _, rest = name.partition(".")
    if group == "residual":
        return 0
    if group == "layers":
        return int(rest.partition(".")[0])
    if group in ("classifier", "reconstruct"):
        return layer_count
    return None


def finite_difference_check(params: ModelParams, run_loss, loss_for=None) -> GradCheckReport:
    """Compare the tape gradient of ``run_loss(tape)``, a 1 x 1 loss
    tensor, with central differences of step ``STEP``, entry by entry
    for every parameter; the report passes below ``TOLERANCE``.

    Each evaluation runs on a fresh tape with the same seed, so training
    mode draws the same dropout masks every time and the loss stays a
    deterministic function of the parameters. Only the analytic pass
    records; the finite-difference evaluations run through
    ``paused_value``, which computes the same values and masks without
    taping entries and checks only the loss.

    ``loss_for(name)``, called after the analytic pass, gives the loss
    function to evaluate while entries of parameter ``name`` are
    perturbed. It must return the bits ``run_loss`` returns at every
    such perturbation, so it can skip the work the tensor cannot reach.
    Without it every evaluation is ``run_loss``.
    """
    params.zero_grads()
    tape = Tape(seed=0)
    tape.backward(run_loss(tape))
    analytic = params.grads.copy()

    def loss_value(run) -> float:
        return float(paused_value(run, seed=0).value[0, 0])

    values = params.values
    numeric = np.empty_like(values)
    bounds = list(zip(params.names(), params.offsets, params.offsets[1:]))
    for name, start, stop in bounds:
        run = run_loss if loss_for is None else loss_for(name)
        for i in range(start, stop):
            orig = values[i]
            values[i] = orig + STEP
            hi = loss_value(run)
            values[i] = orig - STEP
            lo = loss_value(run)
            values[i] = orig
            numeric[i] = (hi - lo) / (2.0 * STEP)
    errors = {name: relative_error(analytic[lo:hi], numeric[lo:hi])
              for name, lo, hi in bounds}
    return GradCheckReport(errors=errors, tolerance=TOLERANCE,
                           evaluations=1 + 2 * values.size)
