"""The one-pass dataset preparation against an independent per-graph reference.

``reference_prepare_graph`` is the per-graph preparation written out
on its own: unify one graph, gather and embed its integer channels,
take its adjacency rows and attributes, and sort its real slots by
node. The dataset pass must give every GraphInputs field bit for bit.
"""

import dataclasses

import numpy as np
import pytest

from segbert.dataset import GraphDataset, GraphInstance
from segbert.features import build_bundles, dataset_bundles, sinusoid_rows
from segbert.gradcheck import toy_graph
from segbert.model import GraphInputs, ModelConfig, config_for, prepare_dataset, prepare_graph
from segbert.unify import Strategy, UnifyPlan, resolve_plan, unify

from conftest import path_graph


def reference_prepare_graph(g, features, plan, config, order=None) -> GraphInputs:
    slot_node = np.concatenate([s.node_ids for s in unify(g, plan, order=order)])
    dummy = slot_node < 0
    d = config.hidden_dim

    codes = [features.degrees, features.wl_codes]
    if config.attr_dim == 0 and config.use_tags and features.tags is not None:
        codes.append(features.tags)
    values = np.stack(codes)[:, slot_node].astype(np.float64)
    values[:, dummy] = 0.0
    sinusoids = sinusoid_rows(values.reshape(-1), d).reshape(len(codes), -1, d)
    const = sinusoids[0] + sinusoids[1]
    if len(codes) == 3:  # tags: no tag term at dummy slots
        sinusoids[2][dummy] = 0.0
        const += sinusoids[2]
    adj = features.adjacency.take(slot_node)
    attr = None
    if config.attr_dim > 0:
        if features.attributes is None:
            attr = np.zeros((len(slot_node), config.attr_dim))
        else:
            attr = features.attributes[slot_node]
            attr[dummy] = 0.0

    real = np.flatnonzero(~dummy)
    real = real[np.argsort(slot_node[real], kind="stable")]
    return GraphInputs(graph=g, const_rows=const, adj_rows=adj,
                       attr_rows=attr, real_slots=real, kept_nodes=slot_node[real],
                       label=g.label)


def assert_same_array(a, b, name):
    assert a.dtype == b.dtype, name
    assert a.shape == b.shape, name
    assert np.array_equal(a, b), name
    assert a.tobytes() == b.tobytes(), name  # bit for bit, signed zeros too


def assert_same_inputs(got: GraphInputs, want: GraphInputs):
    assert got.graph is want.graph
    assert got.label == want.label
    for name in ("const_rows", "real_slots", "kept_nodes"):
        assert_same_array(getattr(got, name), getattr(want, name), name)
    for name in ("indptr", "indices"):
        assert_same_array(getattr(got.adj_rows, name), getattr(want.adj_rows, name),
                          f"adj_rows.{name}")
    assert got.adj_rows.width == want.adj_rows.width
    assert (got.attr_rows is None) == (want.attr_rows is None)
    if want.attr_rows is not None:
        assert_same_array(got.attr_rows, want.attr_rows, "attr_rows")


def random_graph(rng, n: int, label: int) -> GraphInstance:
    """Random arcs; some graphs get self-loops or isolated nodes."""
    arcs = []
    p = rng.uniform(0.05, 0.6)
    for i in range(n):
        if rng.random() < 0.1:
            arcs.append((i, i))
        arcs += [(i, j) for j in range(i + 1, n) if rng.random() < p]
    return GraphInstance(node_count=n, edges=arcs, label=label)


def random_dataset(seed: int, tags: str, attrs: bool, count: int = 14) -> GraphDataset:
    """Sizes 1..31 (one large graph always); ``tags`` is "all", "some" or "none"."""
    rng = np.random.default_rng(seed)
    sizes = [31, 1, *rng.integers(1, 26, count - 2)]
    graphs = []
    for i, n in enumerate(sizes):
        g = random_graph(rng, int(n), label=i % 3)
        if tags == "all" or (tags == "some" and i % 2 == 0):
            g.node_tags = rng.integers(0, 5, g.node_count).tolist()
        if attrs:
            g.node_attributes = rng.standard_normal((g.node_count, 3))
        graphs.append(g)
    return GraphDataset(name="RANDOM", graphs=graphs, class_count=3,
                        attr_dim=3 if attrs else 0, tag_vocab_size=0 if tags == "none" else 5,
                        max_nodes=max(sizes), avg_nodes=float(np.mean(sizes)))


STRATEGY_KS = [(Strategy.FULL_INPUT, None), (Strategy.PADDING_PRUNING, 6),
               (Strategy.SEGMENT_SHIFTING, 4)]
CHANNELS = [("all", False), ("some", False), ("none", False), ("all", True), ("none", True)]


@pytest.mark.parametrize("strategy, k", STRATEGY_KS)
@pytest.mark.parametrize("tags, attrs", CHANNELS)
@pytest.mark.parametrize("seed", [0, 1])
def test_dataset_pass_equals_per_graph_reference(strategy, k, tags, attrs, seed):
    ds = random_dataset(seed, tags, attrs)
    plan = resolve_plan(ds, strategy, k)
    config = config_for(ds, plan, hidden_dim=6, head_count=2, intermediate_dim=4)
    inputs = prepare_dataset(ds, plan, config)
    features = dataset_bundles(ds, config.n_adj, config.wl_iterations)
    assert len(inputs) == len(ds.graphs)
    for got, g, f in zip(inputs, ds.graphs, features):
        assert_same_inputs(got, reference_prepare_graph(g, f, plan, config))
    # the cases the pass has to get right are all present
    if strategy is not Strategy.FULL_INPUT:
        assert any(g.node_count > k for g in ds.graphs)
        assert any(g.node_count > config.n_adj for g in ds.graphs) == (
            strategy is Strategy.PADDING_PRUNING)
    assert any(len(gi.real_slots) < gi.slot_count for gi in inputs)  # dummy slots


@pytest.mark.parametrize("strategy, k", STRATEGY_KS)
@pytest.mark.parametrize("tags, attrs", CHANNELS)
def test_prepare_graph_with_order_equals_reference(strategy, k, tags, attrs):
    ds = random_dataset(2, tags, attrs, count=6)
    plan = resolve_plan(ds, strategy, k)
    config = config_for(ds, plan, hidden_dim=4, head_count=2, intermediate_dim=4)
    rng = np.random.default_rng(3)
    for g, f in zip(ds.graphs, dataset_bundles(ds, config.n_adj, config.wl_iterations)):
        for order in (None, rng.permutation(g.node_count), rng.permutation(g.node_count)):
            got = prepare_graph(g, f, plan, config, order=order)
            assert_same_inputs(got, reference_prepare_graph(g, f, plan, config, order=order))


def test_gradcheck_toy_graph_equals_reference():
    g = toy_graph()
    for attr_dim, use_tags in ((3, True), (0, True), (0, False)):
        config = ModelConfig(class_count=2, attr_dim=attr_dim, use_tags=use_tags, n_adj=5,
                             segment_k=5, hidden_dim=4, head_count=2, intermediate_dim=4)
        plan = UnifyPlan(Strategy.FULL_INPUT, 5)
        features = build_bundles(g, n_adj=5)
        assert_same_inputs(prepare_graph(g, features, plan, config),
                           reference_prepare_graph(g, features, plan, config))


def test_rows_are_views_of_dataset_wide_arrays():
    ds = random_dataset(4, "all", True)
    plan = resolve_plan(ds, Strategy.SEGMENT_SHIFTING, 4)
    inputs = prepare_dataset(ds, plan, config_for(ds, plan))
    first, last = inputs[0], inputs[-1]
    assert first.const_rows.base is not None
    assert first.const_rows.base is last.const_rows.base
    assert first.attr_rows.base is last.attr_rows.base
    assert first.adj_rows.indices.base is last.adj_rows.indices.base
    assert first.adj_rows.indptr[0] == 0 and last.adj_rows.indptr[0] == 0


def test_an_empty_dataset_prepares_to_nothing():
    ds = GraphDataset(name="EMPTY", graphs=[], class_count=2, attr_dim=0,
                      tag_vocab_size=0, max_nodes=1, avg_nodes=1.0)
    plan = resolve_plan(ds, Strategy.SEGMENT_SHIFTING, 4)
    assert prepare_dataset(ds, plan, config_for(ds, plan)) == []


def test_features_of_another_graph_are_rejected():
    """A 5-node graph with the features of a 7-node path used to give 7
    slots and 9 adjacency non-zeros without a word."""
    g = toy_graph(0)
    config = ModelConfig(n_adj=7, segment_k=7, use_tags=True, hidden_dim=4, head_count=2,
                         intermediate_dim=4)
    plan = UnifyPlan(Strategy.FULL_INPUT, 7)
    with pytest.raises(ValueError, match="graph 0: degrees has 7 rows for 5 nodes"):
        prepare_graph(g, build_bundles(path_graph(7), n_adj=7), plan, config)


@pytest.mark.parametrize("field, value", [
    ("degrees", np.zeros(4, dtype=np.int64)),
    ("wl_codes", np.zeros(6, dtype=np.int64)),
    ("tags", np.zeros(3, dtype=np.int64)),
    ("attributes", np.zeros((4, 3))),
])
def test_each_feature_row_count_is_checked(field, value):
    g = toy_graph()
    features = dataclasses.replace(build_bundles(g, n_adj=5), **{field: value})
    config = ModelConfig(attr_dim=3, use_tags=True, n_adj=5, segment_k=5, hidden_dim=4,
                         head_count=2, intermediate_dim=4)
    with pytest.raises(ValueError, match=f"graph 0: {field} has {len(value)} rows for 5 nodes"):
        prepare_graph(g, features, UnifyPlan(Strategy.FULL_INPUT, 5), config)


@pytest.mark.parametrize("tags", [[0, 1], [0, 1, 2, 0, 1, 2, 0]], ids=["short", "long"])
def test_tags_assigned_after_construction_are_checked(tags):
    """The constructor checks the tags it is given; tags assigned later,
    as toy_graph assigns them, are checked when the features are built
    (they used to fail inside WL with an IndexError or a broadcast error)."""
    g = toy_graph()
    g.node_tags = tags
    ds = GraphDataset(name="TOY", graphs=[g], class_count=2, attr_dim=3,
                      tag_vocab_size=3, max_nodes=5, avg_nodes=5.0)
    plan = UnifyPlan(Strategy.FULL_INPUT, 5)
    with pytest.raises(ValueError, match=f"graph 0: tags has {len(tags)} rows for 5 nodes"):
        prepare_dataset(ds, plan, config_for(ds, plan))


def test_adjacency_row_count_is_checked():
    g = toy_graph()
    features = dataclasses.replace(build_bundles(g, n_adj=5),
                                   adjacency=build_bundles(path_graph(6), n_adj=5).adjacency)
    config = ModelConfig(n_adj=5, segment_k=5, hidden_dim=4, head_count=2, intermediate_dim=4)
    with pytest.raises(ValueError, match="graph 0: adjacency has 6 rows for 5 nodes"):
        prepare_graph(g, features, UnifyPlan(Strategy.FULL_INPUT, 5), config)


@pytest.mark.parametrize("dataset_pass", [False, True])
def test_a_plan_k_other_than_segment_k_is_rejected(dataset_pass):
    """An 8-node path cut into two 4-slot segments under segment_k 8
    used to prepare, and attention then crossed the two segments."""
    g = path_graph(8)
    ds = GraphDataset(name="PATH", graphs=[g], class_count=2, attr_dim=0,
                      tag_vocab_size=0, max_nodes=8, avg_nodes=8.0)
    plan = UnifyPlan(Strategy.SEGMENT_SHIFTING, 4)
    config = dataclasses.replace(config_for(ds, plan), segment_k=8)
    with pytest.raises(ValueError, match="plan k 4 differs from config segment_k 8"):
        if dataset_pass:
            prepare_dataset(ds, plan, config)
        else:
            prepare_graph(g, build_bundles(g, config.n_adj), plan, config)
