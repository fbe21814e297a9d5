"""The sparse adjacency channel: CSR rows from features to batches.

Each check compares the CSR path with the dense arrays it replaces,
written out here: a node x n_adj adjacency matrix truncated at n_adj
columns, gathered per slot with zero rows at dummy slots.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from segbert.dataset import GraphDataset, GraphInstance, weight_matrix
from segbert.features import CsrRows, build_bundles
from segbert.model import (
    ModelConfig,
    build_batch,
    config_for,
    prepare_dataset,
    prepare_graph,
    structure_target,
)
from segbert.unify import Strategy, UnifyPlan, resolve_plan

from conftest import path_graph


def weighted_graph(rng, n: int, p: float = 0.35, label: int = 0) -> GraphInstance:
    """Random symmetric weights, plus a self-loop on node 0."""
    arcs = {(0, 0): 0.5}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                arcs[(i, j)] = arcs[(j, i)] = float(rng.uniform(0.5, 2.0))
    return GraphInstance(node_count=n, edges=sorted((i, j, w) for (i, j), w in arcs.items()),
                         label=label)


def dense_slot_rows(g: GraphInstance, n_adj: int, slot_node: np.ndarray) -> np.ndarray:
    """The dense per-slot adjacency rows: truncated, gathered, dummies zero."""
    full = np.zeros((g.node_count, n_adj))
    keep = g.indices < n_adj
    full[g.arc_rows()[keep], g.indices[keep]] = g.weights[keep]
    out = full[slot_node]
    out[slot_node < 0] = 0.0
    return out


def slot_nodes(gi) -> np.ndarray:
    return np.array([-1 if i is None else i for s in gi.segments for i in s.node_ids])


CASES = [
    # (strategy, k, n_adj, node count): full input with dummies, pruning
    # that cuts rows and columns, shifting with a dummy-padded last segment
    (Strategy.FULL_INPUT, 9, 9, 7),
    (Strategy.PADDING_PRUNING, 5, 5, 12),
    (Strategy.SEGMENT_SHIFTING, 4, 12, 11),
    (Strategy.SEGMENT_SHIFTING, 4, 12, 6),
]


@pytest.mark.parametrize("strategy, k, n_adj, n", CASES)
@pytest.mark.parametrize("permuted", [False, True])
def test_prepared_csr_rows_equal_dense_gather(strategy, k, n_adj, n, permuted):
    rng = np.random.default_rng(n * 10 + k)
    g = weighted_graph(rng, n)
    cfg = ModelConfig(hidden_dim=4, head_count=2, intermediate_dim=4,
                      n_adj=n_adj, segment_k=k)
    order = rng.permutation(n) if permuted else None
    gi = prepare_graph(g, build_bundles(g, n_adj=n_adj), UnifyPlan(strategy, k), cfg,
                       order=order)
    assert isinstance(gi.adj_rows, CsrRows)
    assert gi.adj_rows.width == n_adj
    expected = dense_slot_rows(g, n_adj, slot_nodes(gi))
    assert np.array_equal(gi.adj_rows.toarray(), expected)


def test_truncated_features_keep_only_columns_below_n_adj():
    g = weighted_graph(np.random.default_rng(3), 10, p=0.6)
    rows = build_bundles(g, n_adj=4).adjacency
    assert rows.row_count == 10 and rows.indices.max() < 4
    assert np.array_equal(rows.toarray(), dense_slot_rows(g, 4, np.arange(10)))
    # wide enough: the graph's own arrays, not copies
    wide = build_bundles(g, n_adj=10).adjacency
    assert wide.indices is g.indices and wide.weights is g.weights


def test_take_handles_repeats_and_empty_selections():
    g = weighted_graph(np.random.default_rng(4), 6)
    rows = build_bundles(g, n_adj=6).adjacency
    pick = np.array([5, -1, 0, 5, -1])
    assert np.array_equal(rows.take(pick).toarray(), dense_slot_rows(g, 6, pick))
    empty = rows.take(np.array([], dtype=np.int64))
    assert empty.row_count == 0 and empty.toarray().shape == (0, 6)


@pytest.mark.parametrize("attrs", [False, True])
def test_batch_stacks_one_csr_matrix(attrs):
    rng = np.random.default_rng(5)
    graphs = [weighted_graph(rng, n, label=n % 2) for n in (11, 3, 8)]
    if attrs:
        for g in graphs:
            g.node_attributes = rng.standard_normal((g.node_count, 2))
    cfg = ModelConfig(hidden_dim=4, head_count=2, intermediate_dim=4, n_adj=12,
                      segment_k=4, attr_dim=2 if attrs else 0)
    plan = UnifyPlan(Strategy.SEGMENT_SHIFTING, 4)
    inputs = [prepare_graph(g, build_bundles(g, n_adj=12), plan, cfg) for g in graphs]
    batch = build_batch(inputs, 2)
    expected = np.concatenate([gi.adj_rows.toarray() for gi in inputs])
    assert np.array_equal(batch.adj.toarray(), expected)
    # one scipy matrix per batch, sharing the stacked arrays
    matrix = batch.adj.matrix
    assert isinstance(matrix, sparse.csr_array) and batch.adj.matrix is matrix
    assert np.array_equal(matrix.toarray(), expected)
    slots = batch.real_slot_lists[2]
    if attrs:
        assert batch.raw is batch.attr
        assert np.array_equal(batch.raw_rows(slots), batch.attr[slots])
    else:
        assert batch.raw is batch.adj  # an alias, not a second copy
        assert np.array_equal(batch.raw_rows(slots), expected[slots])


@pytest.mark.parametrize("strategy, k", [(Strategy.FULL_INPUT, 12),
                                         (Strategy.PADDING_PRUNING, 7),
                                         (Strategy.SEGMENT_SHIFTING, 5)])
def test_structure_target_equals_weight_matrix_block(strategy, k):
    rng = np.random.default_rng(6)
    g = weighted_graph(rng, 12)
    cfg = ModelConfig(hidden_dim=4, head_count=2, intermediate_dim=4, n_adj=15,
                      segment_k=k)
    gi = prepare_graph(g, build_bundles(g, n_adj=15), UnifyPlan(strategy, k), cfg,
                       order=rng.permutation(12))
    w = weight_matrix(g)
    assert np.array_equal(structure_target(gi), w[np.ix_(gi.kept_nodes, gi.kept_nodes)])


def test_prepare_and_batch_memory_stays_linear_in_arcs():
    """A 3000-node path segment-shifted at k = 20 has n_adj = 3000. One
    dense slots x n_adj float64 array would take 3000 * 3000 * 8 B = 72 MB;
    the sparse channel stays far below that."""
    g = path_graph(3000)
    ds = GraphDataset(name="PATH", graphs=[g], class_count=2, attr_dim=0,
                      tag_vocab_size=0, max_nodes=3000, avg_nodes=3000.0)
    plan = resolve_plan(ds, Strategy.SEGMENT_SHIFTING, 20)
    cfg = config_for(ds, plan)
    assert cfg.n_adj == 3000
    tracemalloc.start()
    try:
        inputs = prepare_dataset(ds, plan, cfg)
        matrix = build_batch(inputs, cfg.class_count).adj.matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert matrix.shape == (3000, 3000) and matrix.nnz == 2 * 2999
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
