"""TU loader, writer and fold construction."""

import os

import numpy as np
import pytest

from segbert.dataset import (
    DatasetError,
    FoldSplit,
    GraphInstance,
    load_tu_dataset,
    make_folds,
    weight_matrix,
    write_tu_dataset,
)

from conftest import synth_dataset


def write_files(tmp_path, name="TOY", a=None, indicator=None, labels=None,
                node_labels=None, node_attrs=None):
    tmp_path.mkdir(parents=True, exist_ok=True)

    def put(suffix, lines):
        if lines is None:
            return
        (tmp_path / f"{name}_{suffix}.txt").write_text("\n".join(lines) + "\n")

    put("A", a)
    put("graph_indicator", indicator)
    put("graph_labels", labels)
    put("node_labels", node_labels)
    put("node_attributes", node_attrs)
    return str(tmp_path)


# two graphs: a triangle (nodes 1-3) and an edge (nodes 4-5)
TRIANGLE_PLUS_EDGE = dict(
    a=["1, 2", "2, 1", "2, 3", "3, 2", "1, 3", "3, 1", "4, 5", "5, 4"],
    indicator=["1", "1", "1", "2", "2"],
    labels=["1", "-1"],
)


def test_loader_against_handwritten_files(tmp_path):
    d = write_files(tmp_path, **TRIANGLE_PLUS_EDGE,
                    node_labels=["7", "7", "9", "9", "7"],
                    node_attrs=["0.5, 1.0", "0.25, 2.0", "0.125, 3.0",
                                "1.5, 4.0", "2.5, 5.0"])
    ds = load_tu_dataset(d, "TOY")

    assert len(ds) == 2
    assert ds.class_count == 2
    assert ds.label_map == {-1: 0, 1: 1}
    assert [g.label for g in ds.graphs] == [1, 0]
    assert ds.max_nodes == 3
    assert abs(ds.avg_nodes - 2.5) < 1e-12

    tri = ds.graphs[0]
    assert tri.node_count == 3
    assert tri.edges == [(0, 1, 1.0), (0, 2, 1.0), (1, 0, 1.0),
                         (1, 2, 1.0), (2, 0, 1.0), (2, 1, 1.0)]
    assert tri.node_tags == [0, 0, 1]  # 7 -> 0, 9 -> 1
    assert np.allclose(tri.node_attributes,
                       [[0.5, 1.0], [0.25, 2.0], [0.125, 3.0]])

    pair = ds.graphs[1]
    assert pair.node_count == 2
    assert pair.edges == [(0, 1, 1.0), (1, 0, 1.0)]
    assert pair.node_tags == [1, 0]
    assert ds.tag_vocab_size == 2
    assert ds.attr_dim == 2


def test_loader_completes_one_directional_arcs(tmp_path):
    d = write_files(tmp_path, a=["1, 2"], indicator=["1", "1"], labels=["0"])
    ds = load_tu_dataset(d, "TOY")
    assert ds.graphs[0].edges == [(0, 1, 1.0), (1, 0, 1.0)]


def test_duplicate_edge_collapses_with_warning(tmp_path):
    d = write_files(tmp_path, a=["1, 2", "2, 1", "1, 2"],
                    indicator=["1", "1"], labels=["0"])
    with pytest.warns(UserWarning, match="duplicate edge"):
        ds = load_tu_dataset(d, "TOY")
    assert ds.graphs[0].edges == [(0, 1, 1.0), (1, 0, 1.0)]


def test_missing_file_error_names_path(tmp_path):
    with pytest.raises(DatasetError, match="_A.txt"):
        write_files(tmp_path, a=None, indicator=["1"], labels=["0"])
        load_tu_dataset(str(tmp_path), "TOY")


def test_malformed_edge_line_names_line_number(tmp_path):
    d = write_files(tmp_path, a=["1, 2", "oops"], indicator=["1", "1"], labels=["0"])
    with pytest.raises(DatasetError, match=":2"):
        load_tu_dataset(d, "TOY")


def test_edge_endpoint_out_of_range(tmp_path):
    d = write_files(tmp_path, a=["1, 9"], indicator=["1", "1"], labels=["0"])
    with pytest.raises(DatasetError, match="out of range"):
        load_tu_dataset(d, "TOY")


def test_edge_crossing_graphs_rejected(tmp_path):
    d = write_files(tmp_path, a=["1, 2", "2, 3"],
                    indicator=["1", "1", "2"], labels=["0", "1"])
    with pytest.raises(DatasetError, match="joins graphs"):
        load_tu_dataset(d, "TOY")


def test_label_count_mismatch(tmp_path):
    d = write_files(tmp_path, a=["1, 2"], indicator=["1", "1"], labels=["0", "1"])
    with pytest.raises(DatasetError, match="labels for"):
        load_tu_dataset(d, "TOY")


def test_tag_count_mismatch(tmp_path):
    d = write_files(tmp_path, a=["1, 2"], indicator=["1", "1"],
                    labels=["0"], node_labels=["1"])
    with pytest.raises(DatasetError, match="tags for"):
        load_tu_dataset(d, "TOY")


def test_single_graph_dataset_loads_but_folds_error(tmp_path):
    d = write_files(tmp_path, a=["1, 2", "2, 1"],
                    indicator=["1", "1"], labels=["5"])
    ds = load_tu_dataset(d, "TOY")
    assert len(ds) == 1
    assert ds.graphs[0].label == 0
    with pytest.raises(DatasetError, match="at least 10"):
        make_folds(ds, seed=0)


def test_round_trip_write_then_load(tmp_path):
    ds = synth_dataset(count=14, seed=3, with_tags=True, with_attrs=True)
    out = tmp_path / "rt"
    write_tu_dataset(ds, str(out))
    back = load_tu_dataset(str(out), ds.name)

    assert len(back) == len(ds)
    assert back.class_count == ds.class_count
    assert back.attr_dim == ds.attr_dim
    assert back.tag_vocab_size == ds.tag_vocab_size
    assert back.max_nodes == ds.max_nodes
    assert abs(back.avg_nodes - ds.avg_nodes) < 1e-12
    for a, b in zip(ds.graphs, back.graphs):
        assert a.node_count == b.node_count
        assert a.edges == b.edges
        assert a.label == b.label
        assert a.node_tags == b.node_tags
        assert np.array_equal(a.node_attributes, b.node_attributes)


def test_round_trip_handwritten(tmp_path):
    d = write_files(tmp_path / "src", **TRIANGLE_PLUS_EDGE)
    ds = load_tu_dataset(d, "TOY")
    write_tu_dataset(ds, str(tmp_path / "dst"))
    back = load_tu_dataset(str(tmp_path / "dst"), "TOY")
    assert back.label_map == ds.label_map
    for a, b in zip(ds.graphs, back.graphs):
        assert (a.node_count, a.edges, a.label) == (b.node_count, b.edges, b.label)


def test_weight_matrix():
    ds = synth_dataset(count=10, seed=1)
    g = ds.graphs[0]
    w = weight_matrix(g)
    assert w.shape == (g.node_count, g.node_count)
    assert np.array_equal(w, w.T)
    for i, j, wt in g.edges:
        assert w[i, j] == wt
    assert w.sum() == len(g.edges)


# ----------------------------------------------------------------------
# folds


def fold_fixture():
    return synth_dataset(count=47, seed=9)  # odd count, uneven classes


def test_folds_partition_and_rotate():
    ds = fold_fixture()
    folds = make_folds(ds, seed=4)
    assert len(folds) == 10

    all_tests = [i for f in folds for i in f.test]
    assert sorted(all_tests) == list(range(len(ds)))  # exactly one test part each

    for f in range(10):
        split = folds[f]
        assert set(split.train) | set(split.val) | set(split.test) == set(range(len(ds)))
        assert not set(split.train) & set(split.val)
        assert not set(split.train) & set(split.test)
        assert not set(split.val) & set(split.test)
        assert split.val == folds[(f + 1) % 10].test  # rotation

    sizes = [len(f.test) for f in folds]
    assert max(sizes) - min(sizes) <= 1


def test_folds_are_stratified():
    ds = fold_fixture()
    folds = make_folds(ds, seed=4)
    for cls in range(ds.class_count):
        per_fold = [sum(1 for i in f.test if ds.graphs[i].label == cls)
                    for f in folds]
        assert max(per_fold) - min(per_fold) <= 1


def test_folds_deterministic_per_seed():
    ds = fold_fixture()
    a = make_folds(ds, seed=11)
    b = make_folds(ds, seed=11)
    c = make_folds(ds, seed=12)
    assert [(f.train, f.val, f.test) for f in a] == [(f.train, f.val, f.test) for f in b]
    assert [(f.train, f.val, f.test) for f in a] != [(f.train, f.val, f.test) for f in c]


def test_fold_ratio_roughly_8_1_1():
    ds = synth_dataset(count=100, seed=2)
    folds = make_folds(ds, seed=0)
    for f in folds:
        assert len(f.test) == 10
        assert len(f.val) == 10
        assert len(f.train) == 80


# ----------------------------------------------------------------------
# irregular files: the whole-file parse falls back to the line reader


def write_raw(tmp_path, a, indicator="1\n1\n2\n2\n", labels="0\n1\n",
              node_labels=None, name="RAW"):
    """Write the files verbatim, so line endings and blanks are exact."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    for suffix, text in (("A", a), ("graph_indicator", indicator),
                         ("graph_labels", labels), ("node_labels", node_labels)):
        if text is not None:
            (tmp_path / f"{name}_{suffix}.txt").write_bytes(text.encode())
    return str(tmp_path), str(tmp_path / f"{name}_A.txt")


def graph_view(ds):
    return [(g.node_count, g.edges, g.label, g.node_tags) for g in ds.graphs]


TWO_EDGES = [(2, [(0, 1, 1.0), (1, 0, 1.0)], 0, None),
             (2, [(0, 1, 1.0), (1, 0, 1.0)], 1, None)]


@pytest.mark.parametrize("a", [
    "1, 2\n\n3, 4\n",  # empty line
    "1, 2\n   \n3, 4\n",  # whitespace-only line
    "1, 2\n3, 4",  # no trailing newline
    "1,2\n3,4\n",  # no space after the comma
    "1, 2\r\n3, 4\r\n",  # CRLF
    " 1 ,\t2\n3, 4\n\n\n",  # padding and trailing blank lines
], ids=["blank", "spaces", "no-newline", "no-space", "crlf", "padding"])
def test_loader_irregular_layout_same_dataset(tmp_path, a):
    d, _ = write_raw(tmp_path, a, indicator="1\n1\n\n2\r\n2", labels="0\n \n1")
    assert graph_view(load_tu_dataset(d, "RAW")) == TWO_EDGES


def test_loader_stray_comment_names_its_line(tmp_path):
    d, path = write_raw(tmp_path, "1, 2\n\n# comment\n3, 4\n")
    with pytest.raises(DatasetError) as err:
        load_tu_dataset(d, "RAW")
    assert str(err.value) == f"{path}:3: expected 'i, j', got '# comment'"
    d, path = write_raw(tmp_path / "b", "1, 2\n#3, 4\n")
    with pytest.raises(DatasetError) as err:
        load_tu_dataset(d, "RAW")
    assert str(err.value) == f"{path}:2: expected an integer node id, got '#3'"


def test_loader_range_and_crossing_errors_name_their_line(tmp_path):
    d, path = write_raw(tmp_path, "1, 2\n\n3, 5\n")
    with pytest.raises(DatasetError) as err:
        load_tu_dataset(d, "RAW")
    assert str(err.value) == f"{path}:3: node id out of range 1..4"
    d, path = write_raw(tmp_path / "b", "1, 2\n2, 3\n")
    with pytest.raises(DatasetError) as err:
        load_tu_dataset(d, "RAW")
    assert str(err.value) == f"{path}:2: edge joins graphs 1 and 2"


HUGE = "99999999999999999999"  # past int64


@pytest.mark.parametrize("suffix, files, message", [
    ("graph_indicator", dict(indicator=f"1\n1\n{HUGE}\n2\n"), f"3: graph id {HUGE}"),
    ("graph_labels", dict(labels=f"0\n\n{HUGE}\n"), f"2: graph label {HUGE}"),
    ("node_labels", dict(node_labels=f"1\n2\n-{HUGE}\n4\n"), f"3: node tag -{HUGE}"),
], ids=["indicator", "graph-label", "node-label"])
def test_loader_integer_past_int64_names_its_line(tmp_path, suffix, files, message):
    d, _ = write_raw(tmp_path, "1, 2\n3, 4\n", **files)
    with pytest.raises(DatasetError) as err:
        load_tu_dataset(d, "RAW")
    assert str(err.value) == f"{d}/RAW_{suffix}.txt:{message} does not fit in 64 bits"


def test_loader_arc_id_past_int64_is_out_of_range(tmp_path):
    d, path = write_raw(tmp_path, f"1, 2\n3, {HUGE}\n")
    with pytest.raises(DatasetError) as err:
        load_tu_dataset(d, "RAW")
    assert str(err.value) == f"{path}:2: node id out of range 1..4"


def test_loader_graph_id_beyond_node_count(tmp_path):
    # a valid int64 id that would size per-graph arrays far past the data
    d, _ = write_raw(tmp_path, "1, 2\n3, 4\n", indicator="1\n1\n2\n1000000000000000\n")
    with pytest.raises(DatasetError, match="graph id 1000000000000000 but only 4 nodes"):
        load_tu_dataset(d, "RAW")
    d, _ = write_raw(tmp_path / "b", "1, 2\n3, 4\n", indicator="1\n1\n2\n-9223372036854775808\n")
    with pytest.raises(DatasetError, match="1-based"):
        load_tu_dataset(d, "RAW")


def test_loader_interleaved_indicator(tmp_path):
    # graph 1 holds global nodes 1 and 3, graph 2 holds 2, 4 and 5
    d, _ = write_raw(tmp_path, "1, 3\n2, 5\n4, 2\n", indicator="1\n2\n1\n2\n2\n",
                     node_labels="10\n20\n30\n40\n50\n")
    ds = load_tu_dataset(d, "RAW")
    assert graph_view(ds) == [
        (2, [(0, 1, 1.0), (1, 0, 1.0)], 0, [0, 2]),
        (3, [(0, 1, 1.0), (0, 2, 1.0), (1, 0, 1.0), (2, 0, 1.0)], 1, [1, 3, 4]),
    ]


def test_duplicate_edges_warn_once_per_duplicate_line(tmp_path):
    d, path = write_raw(tmp_path, "1, 2\n2, 1\n1, 2\n\n3, 4\n1,2\n3, 4\n")
    with pytest.warns(UserWarning) as record:
        ds = load_tu_dataset(d, "RAW")
    messages = [str(w.message) for w in record if "duplicate edge" in str(w.message)]
    assert messages == [f"{path}:3: duplicate edge (1, 2)",
                        f"{path}:6: duplicate edge (1, 2)",
                        f"{path}:7: duplicate edge (3, 4)"]
    assert graph_view(ds) == TWO_EDGES


def test_weight_matrix_and_helpers_from_csr():
    g = GraphInstance(node_count=3, edges=[(0, 0, 1.0), (0, 2, 2.5), (2, 0, 2.5)])
    assert g.indptr.tolist() == [0, 2, 2, 3]
    assert g.indices.tolist() == [0, 2, 0]
    assert np.array_equal(weight_matrix(g), [[1.0, 0.0, 2.5], [0.0, 0.0, 0.0],
                                             [2.5, 0.0, 0.0]])
    assert g.neighbor_sets() == [{0, 2}, set(), {0}]
    assert g.undirected_edge_count == 2
    back = GraphInstance(node_count=3, indptr=g.indptr, indices=g.indices,
                         weights=g.weights)
    assert back.edges == [(0, 0, 1.0), (0, 2, 2.5), (2, 0, 2.5)]
