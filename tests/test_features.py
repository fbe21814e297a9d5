"""Degrees, WL refinement, sinusoid embeddings, bundles."""

import numpy as np
import pytest

from segbert.dataset import GraphInstance
from segbert.features import (
    build_bundles,
    compute_degrees,
    compute_wl_codes,
    dataset_bundles,
    dataset_wl_codes,
    sinusoid_rows,
)

from conftest import (attach_attrs, attach_tags, cycle_graph, path_graph, random_graph,
                      star_graph, synth_dataset)
from graph_helpers import arc_list, positional_embedding, recorded_sorts, undirected_edge_count
from wl_oracle import brute_force_wl, partition_of


# ----------------------------------------------------------------------
# degrees


def test_degree_isolated_node():
    g = GraphInstance(node_count=1, edges=[])
    assert compute_degrees(g).tolist() == [0]


def test_degree_triangle():
    g = cycle_graph(3)
    assert compute_degrees(g).tolist() == [2, 2, 2]


def test_degree_path():
    g = path_graph(3)
    assert compute_degrees(g).tolist() == [1, 2, 1]


def test_degree_self_loop_counts_once():
    g = GraphInstance(node_count=2,
                      edges=[(0, 0), (0, 1), (1, 0)])
    assert compute_degrees(g).tolist() == [2, 1]


def test_degree_sum_is_twice_edge_count():
    rng = np.random.default_rng(17)
    for _ in range(50):
        g = random_graph(rng)
        degs = compute_degrees(g)
        assert degs.sum() == 2 * undirected_edge_count(g)


# ----------------------------------------------------------------------
# WL refinement


def test_wl_edgeless_graph_single_color():
    g = GraphInstance(node_count=4, edges=[])
    codes = compute_wl_codes(g, iterations=2)
    assert len(set(codes)) == 1
    assert codes[0] == 0  # dense compression starts at 0


def test_wl_path_endpoints_share_color():
    codes = compute_wl_codes(path_graph(3), iterations=2)
    assert codes[0] == codes[2]
    assert codes[1] != codes[0]


def test_wl_triangle_vs_path_disjoint_after_two_rounds():
    tri, path = cycle_graph(3), path_graph(3)
    codes = dataset_wl_codes([tri, path], iterations=2)
    assert not set(codes[0]) & set(codes[1])


def test_wl_codes_dense_range():
    ds = synth_dataset(count=16, seed=5, with_tags=False)
    codes = dataset_wl_codes(ds.graphs, iterations=2)
    seen = sorted({c for row in codes for c in row})
    assert seen == list(range(len(seen)))


def test_wl_isomorphic_copies_share_codes():
    g1 = cycle_graph(5)
    g2 = cycle_graph(5)
    codes = dataset_wl_codes([g1, g2], iterations=2)
    assert codes[0] == codes[1]


def test_wl_permutation_consistency():
    rng = np.random.default_rng(29)
    for _ in range(20):
        g = random_graph(rng)
        perm = rng.permutation(g.node_count)
        edges = sorted((int(perm[i]), int(perm[j])) for i, j in arc_list(g))
        gp = GraphInstance(node_count=g.node_count, edges=edges)
        codes = dataset_wl_codes([g, gp], iterations=2)
        for i in range(g.node_count):
            assert codes[0][i] == codes[1][perm[i]]


def test_wl_uses_tags_as_initial_colors_when_present():
    g = path_graph(3)
    tagged = path_graph(3)
    tagged.node_tags = [5, 5, 5]  # identical tags: 0 rounds leave one color
    assert len(set(compute_wl_codes(tagged, iterations=0))) == 1
    # with degree init, iterations=0 already separates mid from ends
    assert len(set(compute_wl_codes(g, iterations=0))) == 2


def test_wl_refinement_is_monotone():
    rng = np.random.default_rng(41)
    for _ in range(25):
        g = random_graph(rng, lo=4, hi=12)
        parts = [partition_of(compute_wl_codes(g, iterations=t)) for t in range(4)]
        for coarse, fine in zip(parts, parts[1:]):
            holder = {}
            for gid, group in enumerate(coarse):
                for node in group:
                    holder[node] = gid
            for group in fine:
                assert len({holder[n] for n in group}) == 1  # refines, never merges


def test_wl_matches_brute_force_oracle_on_random_graphs():
    rng = np.random.default_rng(53)
    graphs = [random_graph(rng) for _ in range(100)]
    got = dataset_wl_codes(graphs, iterations=2)
    want = brute_force_wl(graphs, iterations=2)
    # per-graph partitions agree
    for mine, ref in zip(got, want):
        assert partition_of(mine) == partition_of(ref)
    # cross-graph equivalence classes agree (shared dictionary semantics)
    by_code: dict = {}
    by_tree: dict = {}
    for gi, (mine, ref) in enumerate(zip(got, want)):
        for ni, (c, t) in enumerate(zip(mine, ref)):
            by_code.setdefault(c, set()).add((gi, ni))
            by_tree.setdefault(t, set()).add((gi, ni))
    assert sorted(map(sorted, by_code.values())) == sorted(map(sorted, by_tree.values()))


def _first_appearance(rows):
    """Dense 0..C-1 numbering of hashable colors in order of first use."""
    dense: dict = {}
    return [[dense.setdefault(c, len(dense)) for c in row] for row in rows]


def _mixed_wl_set():
    rng = np.random.default_rng(67)
    graphs = [random_graph(rng, lo=3, hi=9) for _ in range(12)]
    graphs += [attach_tags(random_graph(rng, lo=3, hi=9)) for _ in range(6)]
    # on their own, regular graphs stabilise after one round, paths and stars later
    graphs += [cycle_graph(6), path_graph(7), star_graph(5), attach_tags(cycle_graph(4))]
    graphs.append(GraphInstance(node_count=3, edges=[
        (0, 0), (0, 1), (1, 0), (1, 2), (2, 1)]))  # self-loop
    graphs.append(GraphInstance(node_count=5, edges=[(0, 1), (1, 0)]))  # isolated
    graphs.append(GraphInstance(node_count=3, edges=[]))  # edgeless
    graphs.append(attach_tags(GraphInstance(node_count=2, edges=[])))
    return graphs


@pytest.mark.parametrize("iterations", [0, 1, 2, 3])
def test_wl_codes_equal_oracle_numbering(iterations):
    """Exact codes, not just partitions: the oracle's tree colors numbered
    by first appearance, on graphs that alone would stabilise at different rounds."""
    graphs = _mixed_wl_set()
    want = _first_appearance(brute_force_wl(graphs, iterations))
    assert dataset_wl_codes(graphs, iterations) == want
    for g, row in zip(graphs, want):
        assert compute_wl_codes(g, iterations) == _first_appearance([row])[0]


def _disjoint_union(graphs):
    """One untagged GraphInstance holding ``graphs`` side by side, in order."""
    edges, offset = [], 0
    for g in graphs:
        edges += [(i + offset, j + offset) for i, j in arc_list(g)]
        offset += g.node_count
    return GraphInstance(node_count=offset, edges=edges)


@pytest.mark.parametrize("p3_first", [True, False])
def test_wl_component_codes_do_not_depend_on_graph_boundaries(p3_first):
    """A P3 on its own and a P3 next to a P4 in one graph refine alike."""
    alone, joined = path_graph(3), _disjoint_union([path_graph(3), path_graph(4)])
    graphs = [alone, joined] if p3_first else [joined, alone]
    codes = dict(zip(map(id, graphs), dataset_wl_codes(graphs, iterations=2)))
    assert codes[id(alone)] == codes[id(joined)][:3]


@pytest.mark.parametrize("iterations", [1, 2, 3])
def test_wl_codes_equal_codes_of_the_disjoint_union(iterations):
    graphs = [g for g in _mixed_wl_set() if g.node_tags is None]
    union = compute_wl_codes(_disjoint_union(graphs), iterations)
    bounds = np.cumsum([0] + [g.node_count for g in graphs]).tolist()
    want = [union[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    assert dataset_wl_codes(graphs, iterations) == want


@pytest.mark.parametrize("iterations", [0, 1, 2, 3])
def test_wl_cross_graph_partition_ignores_graph_order(iterations):
    graphs = _mixed_wl_set()
    forward = dataset_wl_codes(graphs, iterations)
    backward = dataset_wl_codes(graphs[::-1], iterations)[::-1]
    assert backward != forward  # numbering follows order; the classes do not
    assert (partition_of([c for row in forward for c in row])
            == partition_of([c for row in backward for c in row]))


def test_wl_round_is_one_int32_sort_of_the_arcs(monkeypatch):
    graphs = _mixed_wl_set()
    arcs = sum(len(g.indices) for g in graphs)
    assert recorded_sorts(monkeypatch, lambda: dataset_wl_codes(graphs, 1)) == [
        (arcs, np.dtype(np.int32))]
    assert recorded_sorts(monkeypatch, lambda: dataset_wl_codes(graphs, 0)) == []


def test_wl_codes_with_keys_past_int32_equal_the_oracle(monkeypatch):
    """A 50,000-node path with 45,000 distinct tags puts nodes * span past
    2**31 in every round; a tail of three repeated tags leaves the
    neighbor multisets something to split."""
    n = 50_000
    tags = list(range(45_000)) + np.random.default_rng(5).integers(0, 3, n - 45_000).tolist()
    g = path_graph(n)
    g.node_tags = tags
    got = []
    seen = recorded_sorts(monkeypatch, lambda: got.extend(dataset_wl_codes([g], 2)))
    assert [kind for _, kind in seen] == [np.dtype(np.int64)] * 2
    assert got == _first_appearance(brute_force_wl([g], 2))
    assert len(set(got[0])) > len(set(tags))


@pytest.mark.parametrize("iterations", [-1, -3])
def test_wl_rejects_negative_iterations(iterations):
    graphs = _mixed_wl_set()
    with pytest.raises(ValueError, match=f"iterations must be non-negative, got {iterations}"):
        dataset_wl_codes(graphs, iterations)
    with pytest.raises(ValueError, match="non-negative"):
        dataset_wl_codes([], iterations)
    with pytest.raises(ValueError, match="non-negative"):
        build_bundles(graphs[0], n_adj=4, wl_iterations=iterations)


# ----------------------------------------------------------------------
# sinusoid embedding


def test_positional_embedding_value_zero():
    out = positional_embedding(0, 8)
    assert np.array_equal(out, np.tile([0.0, 1.0], 4))


def test_positional_embedding_frozen_values():
    # frozen from direct evaluation of the exponent pattern
    assert np.allclose(
        positional_embedding(1, 4),
        [0.8414709848078965, 0.9950041652780258,
         0.009999833334166664, 0.9999995000000417],
        atol=1e-15)
    assert np.allclose(
        positional_embedding(3, 6),
        [0.1411200080598672, 0.7982992213658409,
         0.13879810108005056, 0.9995500337489875,
         0.006463259070189646, 0.9999990305045462],
        atol=1e-15)


def test_positional_embedding_formula():
    d = 10
    for v in (1, 2, 17, 400):
        out = positional_embedding(v, d)
        for l in range(d // 2):
            assert out[2 * l] == pytest.approx(np.sin(v / 10000 ** (2 * l / d)), abs=1e-15)
            assert out[2 * l + 1] == pytest.approx(
                np.cos(v / 10000 ** ((2 * l + 1) / d)), abs=1e-15)


def test_positional_embedding_bounds_and_purity():
    vals = np.arange(200)
    table = sinusoid_rows(vals, 16)
    assert np.all(table <= 1.0) and np.all(table >= -1.0)
    first = positional_embedding(7, 16)
    first[:] = 99.0  # caller mutation must not leak into later calls
    assert np.allclose(positional_embedding(7, 16), table[7], atol=1e-15)


def test_positional_embedding_rejects_odd_width():
    with pytest.raises(ValueError, match="even"):
        positional_embedding(1, 5)


def test_sinusoid_rows_matches_scalar():
    vals = np.array([0.0, 1.0, 5.0, 123.0])
    rows = sinusoid_rows(vals, 12)
    for i, v in enumerate(vals):
        assert np.array_equal(rows[i], positional_embedding(v, 12))


# ----------------------------------------------------------------------
# bundles


def test_bundle_two_node_path():
    g = path_graph(2)
    features = build_bundles(g, n_adj=4)
    adjacency = features.adjacency.toarray()
    assert features.degrees[0] == 1
    assert np.array_equal(adjacency[0], [0.0, 1.0, 0.0, 0.0])
    assert features.attributes is None
    assert features.tags is None
    assert np.array_equal(adjacency[1], [1.0, 0.0, 0.0, 0.0])


def test_bundle_adjacency_truncation():
    g = cycle_graph(6)
    features = build_bundles(g, n_adj=3)
    adjacency = features.adjacency.toarray()
    # node 5 connects to 4 and 0; only column 0 survives truncation
    assert np.array_equal(adjacency[5], [1.0, 0.0, 0.0])
    assert adjacency.shape == (6, 3)


def test_bundle_carries_tags_and_attrs():
    g = attach_attrs(attach_tags(cycle_graph(5)))
    features = build_bundles(g, n_adj=5)
    assert features.tags.tolist() == [i % 3 for i in range(5)]
    assert np.array_equal(features.attributes, g.node_attributes)


def test_bundle_wl_codes_length_validated():
    with pytest.raises(ValueError, match="wl_codes length"):
        build_bundles(path_graph(3), n_adj=3, wl_codes=[0, 1])


def test_dataset_bundles_share_wl_dictionary():
    ds = synth_dataset(count=6, seed=8, with_tags=False)
    per_graph = dataset_bundles(ds, n_adj=ds.max_nodes)
    expected = dataset_wl_codes(ds.graphs, 2)
    for features, codes in zip(per_graph, expected):
        assert features.wl_codes.tolist() == codes
