"""Finite-difference checks of the full model's analytic gradients."""

import numpy as np
import pytest

import segbert.autodiff as autodiff
from segbert.dataset import GraphInstance
from segbert.features import build_bundles
from segbert.gradcheck import finite_difference_check, model_gradcheck, relative_error, toy_graph
from segbert.model import ModelConfig, build_batch, classify_batch, init_params, prepare_graph
from segbert.training import PRETRAIN_TASKS, pretrain_batch_loss
from segbert.unify import Strategy, UnifyPlan


def small_kwargs(**overrides):
    base = dict(hidden_dim=8, head_count=2, layer_count=1, intermediate_dim=6)
    base.update(overrides)
    return base


def test_relative_error_zero_for_equal():
    a = np.array([[1.0, -2.0], [0.0, 3.0]])
    assert relative_error(a, a.copy()) == 0.0


def test_relative_error_known_value():
    a = np.array([[1.0]])
    b = np.array([[1.1]])
    assert relative_error(a, b) == pytest.approx(0.1 / 2.1, rel=1e-12)


def test_relative_error_floors_denominator():
    a = np.array([[0.0]])
    b = np.array([[1e-9]])
    # denominator clamps at 1e-6, so the error is 1e-9 / 1e-6
    assert relative_error(a, b) == pytest.approx(1e-3, rel=1e-12)


def test_toy_graph_is_fixed():
    g = toy_graph()
    assert g.node_count == 5
    arcs = {(i, j) for i, j, _ in g.edges}
    assert all((j, i) in arcs for i, j in arcs)
    assert g.node_tags == [0, 1, 2, 0, 1]
    assert g.node_attributes.shape == (5, 3)
    assert toy_graph(0).node_attributes is None


def test_gradcheck_passes_without_residual():
    report = model_gradcheck(residual_mode="none", **small_kwargs())
    assert report.passed, max(report.errors.items(), key=lambda kv: kv[1])
    assert report.worst < 1e-3


def test_gradcheck_passes_with_raw_residual():
    report = model_gradcheck(residual_mode="raw", **small_kwargs())
    assert report.passed
    assert "residual.weight" in report.errors


def test_gradcheck_covers_every_parameter_group():
    kwargs = small_kwargs(residual_mode="raw")
    report = model_gradcheck(**kwargs)
    cfg = ModelConfig(hidden_dim=8, head_count=2, layer_count=1,
                      intermediate_dim=6, residual_mode="raw", class_count=2,
                      attr_dim=3, use_tags=True, n_adj=5, segment_k=5)
    expected = set(init_params(cfg).names())
    assert set(report.errors) == expected


def test_gradcheck_adjacency_raw_variant():
    # without attributes the raw channel falls back to adjacency rows
    report = model_gradcheck(attr_dim=0, residual_mode="raw", **small_kwargs())
    assert report.passed
    assert "attr_embed.weight" not in report.errors


def test_gradcheck_report_lines_name_groups():
    report = model_gradcheck(residual_mode="none", **small_kwargs(layer_count=1))
    lines = report.lines()
    assert len(lines) == len(report.errors)
    assert all("rel_err" in line for line in lines)
    assert any("classifier.weight" in line for line in lines)


def test_corrupted_backward_is_detected(monkeypatch):
    """Negative control: a 1% error injected into one backward closure
    must push the reported error past the tolerance."""
    real_gelu = autodiff.Tape.gelu

    def tampered(self, a):
        out = real_gelu(self, a)
        entry = self.entries[-1]
        orig = entry.backward

        def bad():
            orig()
            src = entry.inputs[0]
            if src.grad is not None:
                src.grad *= 1.01

        entry.backward = bad
        return out

    monkeypatch.setattr(autodiff.Tape, "gelu", tampered)
    report = model_gradcheck(residual_mode="none", **small_kwargs())
    assert not report.passed
    assert report.worst > 1e-3


# ----------------------------------------------------------------------
# the same every-entry check on segmented, batched and pre-training losses


def segmented_batch(residual_mode):
    """The toy graph (2 segments, 1 dummy slot) and a 7-node graph with
    attributes (3 segments, 2 dummy slots), segment-shifted at k=3 and
    stacked into one batch."""
    ring = GraphInstance(node_count=7, label=0, edges=sorted(
        {(i, j, 1.0) for a, b in [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)]
         for i, j in ((a, b), (b, a))}))
    ring.node_tags = [i % 3 for i in range(7)]
    ring.node_attributes = np.linspace(-1.0, 1.0, 21).reshape(7, 3)
    cfg = ModelConfig(hidden_dim=4, head_count=2, layer_count=2, intermediate_dim=4,
                      dropout_hidden=0.2, dropout_attention=0.3,
                      residual_mode=residual_mode, class_count=2, attr_dim=3,
                      use_tags=True, n_adj=9, segment_k=3)
    plan = UnifyPlan(Strategy.SEGMENT_SHIFTING, 3)
    inputs = [prepare_graph(g, build_bundles(g, n_adj=9), plan, cfg)
              for g in (toy_graph(), ring)]
    assert [len(gi.segments) for gi in inputs] == [2, 3]
    assert [gi.slot_count - len(gi.real_slots) for gi in inputs] == [1, 2]
    return cfg, init_params(cfg, seed=3), inputs


def assert_every_entry_passes(report, params):
    assert set(report.errors) == set(params.names())
    assert report.passed, max(report.errors.items(), key=lambda kv: kv[1])


@pytest.mark.parametrize("residual_mode", ["none", "raw"])
def test_gradcheck_segment_shifted_graph_with_dummy_slots(residual_mode):
    cfg, params, inputs = segmented_batch(residual_mode)
    batch = build_batch(inputs[1:], cfg.class_count)

    def run_loss(tape):
        ce, _ = classify_batch(tape, params, cfg, batch, training=True)
        pre = pretrain_batch_loss(tape, params, cfg, batch, PRETRAIN_TASKS, training=True)
        return tape.add_n([ce, pre])

    assert_every_entry_passes(finite_difference_check(params, run_loss), params)


def test_gradcheck_two_graph_classify_batch():
    cfg, params, inputs = segmented_batch("raw")
    batch = build_batch(inputs, cfg.class_count)
    report = finite_difference_check(
        params, lambda tape: classify_batch(tape, params, cfg, batch, training=True)[0])
    assert_every_entry_passes(report, params)
    assert report.errors["classifier.weight"] > 0.0  # a real comparison, not 0 vs 0


def test_gradcheck_two_graph_pretrain_batch_loss():
    cfg, params, inputs = segmented_batch("raw")
    batch = build_batch(inputs, cfg.class_count)
    report = finite_difference_check(
        params, lambda tape: pretrain_batch_loss(tape, params, cfg, batch,
                                                 PRETRAIN_TASKS, training=True))
    assert_every_entry_passes(report, params)
    assert report.errors["reconstruct.weight"] > 0.0
