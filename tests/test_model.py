"""Model forward passes, embeddings, heads, checkpoints."""

import functools
import pickle
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from segbert.autodiff import Tape, Tensor
from segbert.dataset import GraphInstance
from segbert.features import build_bundles
from segbert.model import (
    BatchData,
    GraphInputs,
    ModelConfig,
    ModelParams,
    build_batch,
    classify_batch,
    config_for,
    encode,
    init_params,
    initial_embedding,
    load_checkpoint,
    prepare_dataset,
    prepare_graph,
    reconstruct_attributes,
    recover_structure,
    save_checkpoint,
    structure_target,
    transformer_layer,
)
from segbert.unify import Strategy, UnifyPlan, resolve_plan

from conftest import assert_arena_views, attach_tags, cycle_graph, path_graph, synth_dataset
from graph_helpers import forward_graph, positional_embedding


def tiny_config(**kw):
    base = dict(hidden_dim=8, head_count=2, layer_count=2, intermediate_dim=6,
                dropout_hidden=0.0, dropout_attention=0.0, class_count=2,
                attr_dim=0, use_tags=False, n_adj=4, segment_k=4)
    base.update(kw)
    return ModelConfig(**base)


def zeroed(params, names):
    for n in names:
        params[n].value[:] = 0.0


# ----------------------------------------------------------------------
# parameters


def test_init_params_shapes_and_values():
    cfg = tiny_config(attr_dim=3, residual_mode="raw", n_adj=5)
    params = init_params(cfg, seed=1)
    shapes = {n: t.value.shape for n, t in params.items()}
    assert shapes["adj_embed.fc1.weight"] == (5, 8)
    assert shapes["adj_embed.fc2.weight"] == (8, 8)
    assert shapes["attr_embed.weight"] == (3, 8)
    assert shapes["layers.0.attn.query.weight"] == (8, 8)
    assert shapes["layers.1.ffn.fc1.weight"] == (8, 6)
    assert shapes["layers.1.ffn.fc2.weight"] == (6, 8)
    assert shapes["residual.weight"] == (3, 8)  # raw width = attr_dim
    assert shapes["classifier.weight"] == (8, 2)
    assert shapes["reconstruct.weight"] == (8, 3)

    for name, t in params.items():
        if name.endswith(".bias"):
            assert np.all(t.value == 0.0), name
        elif name.endswith(".gain"):
            assert np.all(t.value == 1.0), name
        else:
            assert np.all(np.abs(t.value) <= 0.04 + 1e-12), name  # 2 sigma cut
        assert t.requires_grad

    again = init_params(cfg, seed=1)
    other = init_params(cfg, seed=2)
    assert all(np.array_equal(params[n].value, again[n].value) for n in params.names())
    assert any(not np.array_equal(params[n].value, other[n].value)
               for n in params.names())


def test_residual_and_attr_params_only_when_configured():
    plain = init_params(tiny_config(), seed=0)
    assert "residual.weight" not in plain.names()
    assert "attr_embed.weight" not in plain.names()
    # no attributes: the raw residual reads the adjacency rows, and there
    # is no reconstruction head, since reconstruction decodes attributes
    raw = init_params(tiny_config(residual_mode="raw"), seed=0)
    assert raw["residual.weight"].value.shape == (4, 8)
    assert not any(name.startswith("reconstruct.") for name in plain.names() + raw.names())


def test_config_validation_errors():
    with pytest.raises(ValueError, match="even"):
        tiny_config(hidden_dim=7, head_count=1)
    with pytest.raises(ValueError, match="divide"):
        tiny_config(hidden_dim=8, head_count=3)
    with pytest.raises(ValueError, match="residual_mode"):
        tiny_config(residual_mode="slope")
    with pytest.raises(ValueError, match="dropout_attention"):
        tiny_config(dropout_attention=1.0)
    for field, value, message in [
        ("layer_count", 0, "layer_count must be at least 1, got 0"),
        ("intermediate_dim", 0, "intermediate_dim must be positive, got 0"),
        ("class_count", 1, "class_count must be at least 2, got 1"),
        ("attr_dim", -1, "attr_dim must be non-negative, got -1"),
        ("n_adj", 0, "n_adj must be positive, got 0"),
        ("segment_k", 0, "segment_k must be positive, got 0"),
    ]:
        with pytest.raises(ValueError) as err:
            tiny_config(**{field: value})
        assert str(err.value) == message


def test_config_rejects_negative_wl_iterations():
    assert tiny_config(wl_iterations=0).wl_iterations == 0
    with pytest.raises(ValueError, match="wl_iterations must be non-negative, got -3"):
        tiny_config(wl_iterations=-3)


def test_config_for_derives_dataset_fields():
    ds = synth_dataset(count=12, seed=0, with_tags=True)
    plan = resolve_plan(ds, Strategy.SEGMENT_SHIFTING, override=4)
    cfg = config_for(ds, plan, hidden_dim=8, head_count=2, intermediate_dim=6)
    assert cfg.class_count == 2
    assert cfg.use_tags is True
    assert cfg.attr_dim == 0
    assert cfg.segment_k == 4
    # max 9 nodes in blocks of 4 -> 3 segments -> 12 adjacency columns
    assert cfg.n_adj == 12


# ----------------------------------------------------------------------
# initial embedding


def test_initial_embedding_channels_for_path_and_dummy():
    cfg = tiny_config(segment_k=3, n_adj=3)
    params = init_params(cfg, seed=0)
    zeroed(params, ["adj_embed.fc1.weight", "adj_embed.fc1.bias",
                    "adj_embed.fc2.weight", "adj_embed.fc2.bias"])
    g = path_graph(2)
    gi = prepare_graph(g, build_bundles(g, n_adj=3), UnifyPlan(Strategy.FULL_INPUT, 3), cfg)
    batch = build_batch([gi], cfg.class_count)
    h0 = initial_embedding(Tape(), params, cfg, batch)

    s0 = positional_embedding(0, 8)
    s1 = positional_embedding(1, 8)
    # real nodes: degree 1, shared WL code 0
    assert np.allclose(h0.value[0], s1 + s0, atol=1e-12)
    assert np.allclose(h0.value[1], s1 + s0, atol=1e-12)
    # dummy slot: all-zero bundle, so both sinusoid channels see value 0
    assert np.allclose(h0.value[2], 2.0 * s0, atol=1e-12)
    assert np.array_equal(s0, np.tile([0.0, 1.0], 4))


def test_initial_embedding_tag_channel():
    cfg = tiny_config(segment_k=3, n_adj=3, use_tags=True)
    params = init_params(cfg, seed=0)
    zeroed(params, ["adj_embed.fc1.weight", "adj_embed.fc1.bias",
                    "adj_embed.fc2.weight", "adj_embed.fc2.bias"])
    g = path_graph(2)
    g.node_tags = [2, 0]
    gi = prepare_graph(g, build_bundles(g, n_adj=3), UnifyPlan(Strategy.FULL_INPUT, 3), cfg)
    h0 = initial_embedding(Tape(), params, cfg, build_batch([gi], 2))

    s0 = positional_embedding(0, 8)
    s1 = positional_embedding(1, 8)
    s2 = positional_embedding(2, 8)
    # tags seed the WL colors, so the two nodes get WL codes 0 and 1
    assert np.allclose(h0.value[0], s1 + s0 + s2, atol=1e-12)  # deg 1, wl 0, tag 2
    assert np.allclose(h0.value[1], s1 + s1 + s0, atol=1e-12)  # deg 1, wl 1, tag 0
    assert np.allclose(h0.value[2], 2.0 * s0, atol=1e-12)  # dummy: no tag term


def test_initial_embedding_attr_channel_takes_priority():
    cfg = tiny_config(segment_k=2, n_adj=2, attr_dim=2, use_tags=True)
    params = init_params(cfg, seed=3)
    g = path_graph(2)
    g.node_tags = [1, 1]
    g.node_attributes = np.array([[1.0, 2.0], [3.0, 4.0]])
    gi = prepare_graph(g, build_bundles(g, n_adj=2), UnifyPlan(Strategy.FULL_INPUT, 2), cfg)
    batch = build_batch([gi], 2)
    tape = Tape()
    h0 = initial_embedding(tape, params, cfg, batch)
    # subtracting the linear attr channel must leave a tag-free remainder
    e_x = g.node_attributes @ params["attr_embed.weight"].value \
        + params["attr_embed.bias"].value
    s1 = positional_embedding(1, 8)
    remainder = h0.value - e_x
    adj_part = remainder - batch.const
    # const rows exclude the tag sinusoid because attributes are present
    assert not np.allclose(batch.const[0], s1 + s1 + s1, atol=1e-9)


# ----------------------------------------------------------------------
# transformer layer


def test_layer_single_slot_attention_is_identity_mixing():
    """With one slot per segment every attention weight is 1, so the
    attention output is the value projection and transformer_layer
    equals a layer computed by hand with no mixing between slots."""
    cfg = tiny_config(segment_k=1, n_adj=2)
    params = init_params(cfg, seed=4)
    rng = np.random.default_rng(0)
    for _name, t in params.items():
        t.value[...] = rng.standard_normal(t.value.shape)
    h = rng.standard_normal((3, 8))
    out = transformer_layer(Tape(), params, cfg, Tensor(h), 0, training=False)

    def dense(name, x):
        return x @ params[f"layers.0.{name}.weight"].value + params[f"layers.0.{name}.bias"].value

    def norm(name, x):
        c = x - x.mean(axis=1, keepdims=True)
        y = c / np.sqrt((c * c).mean(axis=1, keepdims=True) + 1e-12)
        return y * params[f"layers.0.{name}.gain"].value + params[f"layers.0.{name}.bias"].value

    def gelu(x):
        return x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))

    h1 = norm("norm1", h + dense("attn.out", dense("attn.value", h)))
    h2 = norm("norm2", h1 + dense("ffn.fc2", gelu(dense("ffn.fc1", h1))))
    assert np.allclose(out.value, h2, rtol=1e-12, atol=1e-12)


def test_layer_is_permutation_equivariant_within_segment():
    cfg = tiny_config(segment_k=5, n_adj=4)
    params = init_params(cfg, seed=5)
    rng = np.random.default_rng(6)
    h = rng.standard_normal((5, 8))
    perm = rng.permutation(5)

    out1 = transformer_layer(Tape(), params, cfg, Tensor(h), 0, training=False)
    out2 = transformer_layer(Tape(), params, cfg, Tensor(h[perm]), 0, training=False)
    assert np.allclose(out2.value, out1.value[perm], atol=1e-10)


def primitive_layer(tape, params, cfg, h, layer, training, res_term=None):
    """transformer_layer spelled out in primitive ops: per-head column
    slices with their own scale, softmax, dropout and products, the
    heads concatenated, and each norm as layer_norm_rows, mul and add."""
    k = cfg.segment_k
    d_head = cfg.hidden_dim // cfg.head_count
    prefix = f"layers.{layer}"

    def dense(name, x):
        return tape.add(tape.matmul(x, params[f"{name}.weight"]), params[f"{name}.bias"])

    def norm(name, x):
        return tape.add(tape.mul(tape.layer_norm_rows(x), params[f"{name}.gain"]),
                        params[f"{name}.bias"])

    q = dense(f"{prefix}.attn.query", h)
    key = tape.matmul(h, params[f"{prefix}.attn.key.weight"])
    v = dense(f"{prefix}.attn.value", h)
    heads = []
    for hd in range(cfg.head_count):
        lo, hi = hd * d_head, (hd + 1) * d_head
        scores = tape.attention_scores(tape.slice_cols(q, lo, hi),
                                       tape.slice_cols(key, lo, hi), k)
        probs = tape.softmax_rows(tape.scale(scores, 1.0 / np.sqrt(d_head)))
        probs = tape.dropout(probs, cfg.dropout_attention, training)
        heads.append(tape.attention_apply(probs, tape.slice_cols(v, lo, hi), k))
    attn_out = dense(f"{prefix}.attn.out", tape.concat_cols(heads))
    h1 = norm(f"{prefix}.norm1", tape.add(h, attn_out))
    ff = dense(f"{prefix}.ffn.fc2", tape.gelu(dense(f"{prefix}.ffn.fc1", h1)))
    ff = tape.dropout(ff, cfg.dropout_hidden, training)
    h2 = norm(f"{prefix}.norm2", tape.add(h1, ff))
    return h2 if res_term is None else tape.add(h2, res_term)


@pytest.mark.parametrize("heads, residual", [(1, False), (2, True), (4, False)])
def test_fused_layer_matches_primitive_composition(heads, residual):
    """Two training-mode layers over 3 segments on one seeded tape: the
    fused ops give the same output and gradients as the primitives,
    which pins the order of the attention dropout masks."""
    cfg = tiny_config(head_count=heads, segment_k=3, n_adj=3,
                      dropout_hidden=0.4, dropout_attention=0.3)
    rng = np.random.default_rng(21)
    h0 = rng.standard_normal((9, 8))
    res0 = rng.standard_normal((9, 8))
    proj = rng.standard_normal((9, 8))

    def run(layer_fn):
        params = init_params(cfg, seed=22)
        h = Tensor(h0.copy(), requires_grad=True)
        res = Tensor(res0.copy(), requires_grad=True) if residual else None
        tape = Tape(seed=23)
        out = h
        for layer in range(cfg.layer_count):
            out = layer_fn(tape, params, cfg, out, layer, True, res)
        tape.backward(tape.mse(tape.mul(out, proj), np.zeros_like(proj)))
        grads = {name: t.grad for name, t in params.items() if name.startswith("layers.")}
        grads["h"] = h.grad
        if residual:
            grads["res"] = res.grad
        return out.value, grads, tape.rng.random()

    fused_out, fused_grads, fused_next = run(transformer_layer)
    prim_out, prim_grads, prim_next = run(primitive_layer)
    assert fused_next == prim_next  # the same number of draws
    assert np.max(np.abs(fused_out - prim_out)) <= 1e-12
    assert fused_grads.keys() == prim_grads.keys()
    assert len(fused_grads) == 15 * cfg.layer_count + 1 + residual
    for name, g in prim_grads.items():
        assert np.max(np.abs(fused_grads[name] - g)) <= 1e-12, name


def test_residual_modes_same_shape_different_values():
    ds = synth_dataset(count=6, seed=2, with_tags=True)
    plan = resolve_plan(ds, Strategy.PADDING_PRUNING, override=6)
    cfg_none = config_for(ds, plan, hidden_dim=8, head_count=2, intermediate_dim=6,
                          dropout_hidden=0.0, dropout_attention=0.0)
    cfg_raw = ModelConfig(**{**cfg_none.__dict__, "residual_mode": "raw"})
    inputs = prepare_dataset(ds, plan, cfg_none)

    p_none = init_params(cfg_none, seed=7)
    p_raw = init_params(cfg_raw, seed=7)
    out_none = forward_graph(p_none, cfg_none, inputs[0])
    out_raw = forward_graph(p_raw, cfg_raw, inputs[0])
    assert out_none.h_final.value.shape == out_raw.h_final.value.shape
    assert out_none.y_hat.value.shape == out_raw.y_hat.value.shape
    assert not np.allclose(out_none.h_final.value, out_raw.h_final.value)


# ----------------------------------------------------------------------
# whole-graph forward


def toy_inputs(strategy=Strategy.FULL_INPUT, k=None, n=5, seed=8, tags=True):
    g = cycle_graph(n)
    if tags:
        attach_tags(g)
    plan = UnifyPlan(Strategy(strategy), k or n)
    n_adj = plan.k if strategy != Strategy.SEGMENT_SHIFTING \
        else ((n + plan.k - 1) // plan.k) * plan.k
    cfg = tiny_config(segment_k=plan.k, n_adj=n_adj, use_tags=tags,
                      dropout_hidden=0.0, dropout_attention=0.0)
    gi = prepare_graph(g, build_bundles(g, n_adj=n_adj), plan, cfg)
    return cfg, init_params(cfg, seed=seed), gi


def test_forward_graph_shapes_and_probabilities():
    cfg, params, gi = toy_inputs()
    out = forward_graph(params, cfg, gi)
    assert out.h_final.value.shape == (5, 8)
    assert out.z.value.shape == (1, 8)
    assert out.y_hat.value.shape == (1, 2)
    assert abs(out.y_hat.value.sum() - 1.0) < 1e-9
    assert np.all(out.y_hat.value >= 0.0)


def test_forward_graph_identical_nodes_identical_rows():
    g = GraphInstance(node_count=4, edges=[])
    g.node_tags = [1, 1, 1, 1]
    cfg = tiny_config(segment_k=4, n_adj=4, use_tags=True,
                      dropout_hidden=0.0, dropout_attention=0.0)
    params = init_params(cfg, seed=9)
    gi = prepare_graph(g, build_bundles(g, n_adj=4), UnifyPlan(Strategy.FULL_INPUT, 4), cfg)
    out = forward_graph(params, cfg, gi)
    rows = out.h_final.value
    assert np.allclose(rows, rows[0], atol=1e-12)
    assert np.allclose(out.z.value, rows[0], atol=1e-12)


def test_padding_pruning_keeps_min_n_k_rows():
    g = cycle_graph(9)
    cfg = tiny_config(segment_k=6, n_adj=6, dropout_hidden=0.0, dropout_attention=0.0)
    params = init_params(cfg, seed=10)
    gi = prepare_graph(g, build_bundles(g, n_adj=6),
                       UnifyPlan(Strategy.PADDING_PRUNING, 6), cfg)
    out = forward_graph(params, cfg, gi)
    assert out.h_final.value.shape == (6, 8)


def test_segment_shifting_28_nodes_two_segments_concatenate():
    cfg, params, gi = toy_inputs(Strategy.SEGMENT_SHIFTING, k=20, n=28, seed=11)
    out = forward_graph(params, cfg, gi)
    assert out.h_final.value.shape == (28, 8)

    # an independent forward of each 20-slot segment must reproduce the
    # corresponding rows: segments only interact through shared weights
    batch = build_batch([gi], cfg.class_count)
    full = encode(Tape(), params, cfg, batch, training=False)
    for seg in range(2):
        rows = np.arange(seg * 20, (seg + 1) * 20)
        adj = batch.adj.take(rows)
        part = BatchData(
            const=batch.const[rows], adj=adj, attr=None,
            real_slot_lists=[np.arange(20)],
            labels_onehot=np.zeros((1, 2)), members=[gi])
        alone = encode(Tape(), params, cfg, part, training=False)
        assert np.allclose(alone.value, full.value[rows], atol=1e-10)


def test_batched_classification_matches_per_graph_forward():
    ds = synth_dataset(count=8, seed=12, with_tags=True)
    plan = resolve_plan(ds, Strategy.PADDING_PRUNING, override=8)
    cfg = config_for(ds, plan, hidden_dim=8, head_count=2, intermediate_dim=6,
                     dropout_hidden=0.0, dropout_attention=0.0)
    params = init_params(cfg, seed=13)
    inputs = prepare_dataset(ds, plan, cfg)
    batch = build_batch(inputs, cfg.class_count)
    _, logits = classify_batch(Tape(), params, cfg, batch, training=False)
    for i, gi in enumerate(inputs):
        solo = forward_graph(params, cfg, gi)
        e = np.exp(logits.value[i] - logits.value[i].max())
        assert np.allclose(e / e.sum(), solo.y_hat.value[0], atol=1e-9)
    with pytest.raises(ValueError, match="empty batch"):
        build_batch([], cfg.class_count)


@functools.cache
def pooling_case(k: int):
    """Ten tagged graphs of 1 to 13 nodes, segment-shifted at k, with
    params and each graph's pooled row when it is pooled alone. At k=3
    there are dummy slots and up to five segments; at k=1 the 1-node
    graph is a 1-slot graph."""
    graphs = [attach_tags(path_graph(n) if n < 3 else cycle_graph(n))
              for n in (1, 2, 4, 5, 7, 8, 9, 10, 11, 13)]
    cfg = tiny_config(segment_k=k, n_adj=15 if k == 3 else 13, use_tags=True)
    plan = UnifyPlan(Strategy.SEGMENT_SHIFTING, k)
    inputs = [prepare_graph(g, build_bundles(g, n_adj=cfg.n_adj), plan, cfg) for g in graphs]
    params = init_params(cfg, seed=3)
    alone = [pooled_rows(params, cfg, [gi])[0].tobytes() for gi in inputs]
    return cfg, params, inputs, alone


def pooled_rows(params, cfg, inputs):
    """The classifier's input in an eval-mode classify_batch: one pooled
    row per graph."""
    tape = Tape()
    classify_batch(tape, params, cfg, build_batch(inputs, cfg.class_count), training=False)
    head = next(e for e in reversed(tape.entries) if e.op == "linear")
    return head.inputs[0].value


@pytest.mark.parametrize("k", [3, 1])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_a_graphs_pooled_row_does_not_depend_on_its_batch(k, data):
    cfg, params, inputs, alone = pooling_case(k)
    order = data.draw(st.permutations(range(len(inputs))))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(inputs) - 1))))
    for lo, hi in zip([0, *cuts], [*cuts, len(inputs)]):
        members = order[lo:hi]
        rows = pooled_rows(params, cfg, [inputs[i] for i in members])
        differ = [i for i, row in zip(members, rows) if row.tobytes() != alone[i]]
        assert differ == [], f"graphs {differ} of batch {members}"


def test_training_tape_length_is_pinned():
    """One training classify_batch on the toy graph, 2 layers with the
    raw residual, records 19 ops: 3 embedding, 1 residual, 6 per layer
    and 3 in the head."""
    from segbert.gradcheck import toy_graph

    g = toy_graph()
    cfg = ModelConfig(hidden_dim=4, head_count=2, intermediate_dim=4, class_count=2,
                      attr_dim=3, use_tags=True, n_adj=5, segment_k=5,
                      residual_mode="raw")
    gi = prepare_graph(g, build_bundles(g, n_adj=5), UnifyPlan(Strategy.FULL_INPUT, 5), cfg)
    tape = Tape(seed=0)
    classify_batch(tape, init_params(cfg, seed=0), cfg, build_batch([gi], 2), training=True)
    ops = [e.op for e in tape.entries]
    layer = ["attention_block", "add_layer_norm", "mlp", "dropout", "add_layer_norm", "add"]
    assert ops == (["mlp", "linear", "add_n", "linear"] + layer * 2
                   + ["mean_rows", "linear", "cross_entropy"])
    assert len(ops) == 19


def test_full_input_permutation_invariance_quick():
    rng = np.random.default_rng(14)
    ds = synth_dataset(count=6, seed=15, with_tags=True)
    plan = resolve_plan(ds, Strategy.FULL_INPUT)
    cfg = config_for(ds, plan, hidden_dim=8, head_count=2, intermediate_dim=6,
                     dropout_hidden=0.0, dropout_attention=0.0)
    params = init_params(cfg, seed=16)
    from segbert.features import dataset_bundles

    bundles = dataset_bundles(ds, cfg.n_adj, cfg.wl_iterations)
    for g, b in zip(ds.graphs[:3], bundles[:3]):
        base = forward_graph(params, cfg, prepare_graph(g, b, plan, cfg))
        for _ in range(5):
            perm = rng.permutation(g.node_count)
            out = forward_graph(params, cfg, prepare_graph(g, b, plan, cfg, order=perm))
            assert np.max(np.abs(out.z.value - base.z.value)) < 1e-8
            assert np.max(np.abs(out.y_hat.value - base.y_hat.value)) < 1e-8


# ----------------------------------------------------------------------
# auxiliary heads


def test_reconstruct_attributes_zero_input_gives_bias():
    cfg = tiny_config(attr_dim=3)
    params = init_params(cfg, seed=17)
    params["reconstruct.bias"].value[:] = [[1.0, 2.0, 3.0]]
    out = reconstruct_attributes(Tape(), params, Tensor(np.zeros((4, 8))))
    assert np.allclose(out.value, np.tile([1.0, 2.0, 3.0], (4, 1)), atol=1e-12)


def test_recover_structure_identical_rows_all_ones():
    h = Tensor(np.tile([1.0, 2.0, 0.5], (2, 1)))
    out = recover_structure(Tape(), h)
    assert np.allclose(out.value, 1.0, atol=1e-12)
    with pytest.raises(ValueError, match="at least 2"):
        recover_structure(Tape(), Tensor(np.ones((1, 3))))


def test_structure_target_uses_kept_nodes():
    g = cycle_graph(6)
    cfg = tiny_config(segment_k=4, n_adj=4)
    gi = prepare_graph(g, build_bundles(g, n_adj=4),
                       UnifyPlan(Strategy.PADDING_PRUNING, 4), cfg)
    target = structure_target(gi)
    assert target.shape == (4, 4)
    # kept nodes 0..3 of the 6-cycle: consecutive pairs linked
    expected = np.zeros((4, 4))
    for i in range(3):
        expected[i, i + 1] = expected[i + 1, i] = 1.0
    assert np.array_equal(target, expected)


# ----------------------------------------------------------------------
# checkpoints


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_config(attr_dim=2, residual_mode="raw")
    params = init_params(cfg, seed=18)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.names() == params.names()
    for name in params.names():
        assert np.array_equal(loaded[name].value, params[name].value)


def test_a_checkpoint_with_key_biases_loads_and_no_forward_reads_them(tmp_path):
    """Checkpoints from before the key projection lost its bias hold a
    layers.{l}.attn.key.bias tensor per layer, and attribute-less ones
    from before reconstruction read attributes only hold a
    reconstruct.* head n_adj wide; they load with those tensors kept."""
    cfg, params, gi = toy_inputs(Strategy.SEGMENT_SHIFTING, k=4, n=7)
    d = cfg.hidden_dim
    key_biases = {f"layers.{layer}.attn.key.bias": np.full((1, d), 0.3)
                  for layer in range(cfg.layer_count)}
    head = {"reconstruct.weight": np.full((d, cfg.n_adj), 0.2),
            "reconstruct.bias": np.full((1, cfg.n_adj), 0.1)}
    batch = build_batch([gi], cfg.class_count)
    for extra in (key_biases, head):
        arrays = {name: t.value for name, t in params.items()} | extra
        path = str(tmp_path / "old.ckpt")
        save_checkpoint(ModelParams.from_arrays(arrays), path)
        loaded = load_checkpoint(path)
        for name, value in extra.items():
            assert np.array_equal(loaded[name].value, value), name
        old, new = (classify_batch(Tape(), p, cfg, batch, training=False)[1].value
                    for p in (loaded, params))
        assert np.array_equal(old, new)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(str(path))
    good = tmp_path / "trunc.ckpt"
    cfg = tiny_config()
    save_checkpoint(init_params(cfg, seed=0), str(good))
    blob = good.read_bytes()
    good.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(str(good))
    for bad, message in [(blob[:4] + struct.pack("<I", 2) + blob[8:],
                          "unsupported checkpoint version 2"),
                         (blob + b"\x00", "trailing bytes after checkpoint payload")]:
        good.write_bytes(bad)
        with pytest.raises(ValueError) as err:
            load_checkpoint(str(good))
        assert str(err.value) == f"{good}: {message}"


def test_params_copy_is_independent():
    params = init_params(tiny_config(), seed=19)
    clone = params.copy()
    clone["classifier.weight"].value[:] = 0.0
    assert not np.allclose(params["classifier.weight"].value, 0.0)


def test_params_stay_views_of_their_arenas(tmp_path):
    params = init_params(tiny_config(attr_dim=2, residual_mode="raw"), seed=23)
    assert_arena_views(params)
    assert params.offsets[-1] == params.values.size == params.grads.size
    clone = params.copy()
    assert_arena_views(clone)
    assert not np.shares_memory(clone.values, params.values)
    path = str(tmp_path / "model.ckpt")
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert_arena_views(loaded)
    assert np.array_equal(loaded.values, params.values)
    shipped = pickle.loads(pickle.dumps(params))
    assert_arena_views(shipped)
    assert shipped.names() == params.names()
    assert np.array_equal(shipped.values, params.values)
    params["classifier.weight"].grad[...] = 1.0
    params.zero_grads()
    assert_arena_views(params)
    assert not params.grads.any()


def _checkpoint_blob(entries):
    """Checkpoint bytes built by hand from (name, 2-D array) pairs."""
    blob = b"SGBT" + struct.pack("<II", 1, len(entries))
    for name, arr in entries:
        encoded = name.encode("utf-8")
        blob += struct.pack("<III", len(encoded), *arr.shape) + encoded
        blob += arr.astype("<f8").tobytes()
    return blob


def test_checkpoint_rejects_repeated_tensor_name(tmp_path):
    entries = [("w", np.ones((2, 3))), ("b", np.zeros((1, 3)))]
    path = tmp_path / "model.ckpt"
    path.write_bytes(_checkpoint_blob(entries))
    assert np.array_equal(load_checkpoint(str(path)).values, [1, 1, 1, 1, 1, 1, 0, 0, 0])
    path.write_bytes(_checkpoint_blob(entries + [("w", np.zeros((2, 3)))]))
    with pytest.raises(ValueError, match="'w' appears twice") as err:
        load_checkpoint(str(path))
    assert str(path) in str(err.value)


def test_checkpoint_rejects_zero_tensors(tmp_path):
    path = tmp_path / "empty.ckpt"
    path.write_bytes(_checkpoint_blob([]))
    with pytest.raises(ValueError, match="holds no tensors") as err:
        load_checkpoint(str(path))
    assert str(path) in str(err.value)


@pytest.mark.parametrize("size", [4, 6, 11, 17])  # 17: inside the tensor's header
def test_checkpoint_rejects_short_file_header(tmp_path, size):
    path = tmp_path / "short.ckpt"
    path.write_bytes(_checkpoint_blob([("w", np.ones((1, 1)))])[:size])
    with pytest.raises(ValueError, match="truncated checkpoint header") as err:
        load_checkpoint(str(path))
    assert str(path) in str(err.value)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_prepare_graph_rejects_a_graph_without_nodes(strategy):
    g = GraphInstance(node_count=0, edges=[], label=0)
    plan = UnifyPlan(strategy, 4)
    with pytest.raises(ValueError, match="graph has no nodes"):
        prepare_graph(g, build_bundles(g, n_adj=4), plan, tiny_config())
