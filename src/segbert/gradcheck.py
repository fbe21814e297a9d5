"""Finite-difference validation of the model's gradients.

A fixed 5-node toy graph runs through the full network in eval mode
(dropout is the identity there, keeping the loss a deterministic
function of the parameters). The loss sums the classification
cross-entropy with both pre-training losses so every parameter group,
heads included, receives gradient. Each parameter entry is then
perturbed by a central step and compared against the tape's analytic
gradient. ``finite_difference_check`` is that comparison for any loss
built on a tape, so tests can run it on batched, segmented and
pre-training losses too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor
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
           "relative_error", "toy_graph"]

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
    arcs = sorted({(i, j, 1.0) for i, j in pairs} | {(j, i, 1.0) for i, j in pairs})
    g = GraphInstance(node_count=5, edges=list(arcs), label=1)
    g.node_tags = [0, 1, 2, 0, 1]
    if attr_dim > 0:
        g.node_attributes = (np.arange(5 * attr_dim, dtype=np.float64)
                             .reshape(5, attr_dim) % 7) / 7.0
    return g


@dataclass
class GradCheckReport:
    errors: dict
    tolerance: float

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
    raw_target = batch.raw_rows(batch.real_slot_lists[0])

    def run_loss(tape: Tape) -> Tensor:
        h = encode(tape, params, cfg, batch, training=False)
        h_final = tape.take_rows(h, batch.real_slot_lists[0])
        z = tape.mean_rows(h_final)
        logits = tape.linear(z, params["classifier.weight"], params["classifier.bias"])
        ce = tape.cross_entropy(logits, onehot)
        recon = tape.mse(reconstruct_attributes(tape, params, h_final), raw_target)
        struct = tape.mse(recover_structure(tape, h_final), target_w)
        return tape.add_n([ce, recon, struct])

    return finite_difference_check(params, run_loss)


def finite_difference_check(params: ModelParams, run_loss) -> GradCheckReport:
    """Compare the tape gradient of ``run_loss(tape)``, a 1 x 1 loss
    tensor, with central differences of step ``STEP``, entry by entry
    for every parameter; the report passes below ``TOLERANCE``.

    Each evaluation runs on a fresh tape with the same seed, so training
    mode draws the same dropout masks every time and the loss stays a
    deterministic function of the parameters. Only the analytic pass
    records; the finite-difference evaluations run on paused tapes,
    which compute the same values and masks without taping entries.
    """
    params.zero_grads()
    tape = Tape(seed=0)
    tape.backward(run_loss(tape))
    analytic = params.grads.copy()

    def loss_value() -> float:
        tape = Tape(seed=0)
        with tape.paused():
            return float(run_loss(tape).value[0, 0])

    values = params.values
    numeric = np.empty_like(values)
    for i in range(values.size):
        orig = values[i]
        values[i] = orig + STEP
        hi = loss_value()
        values[i] = orig - STEP
        lo = loss_value()
        values[i] = orig
        numeric[i] = (hi - lo) / (2.0 * STEP)
    bounds = zip(params.names(), params.offsets, params.offsets[1:])
    errors = {name: relative_error(analytic[lo:hi], numeric[lo:hi])
              for name, lo, hi in bounds}
    return GradCheckReport(errors=errors, tolerance=TOLERANCE)
