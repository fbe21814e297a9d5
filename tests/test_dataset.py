"""TU loader, writer and fold construction."""

import os
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segbert.dataset import (
    DatasetError,
    FoldSplit,
    GraphDataset,
    GraphInstance,
    load_tu_dataset,
    make_folds,
    write_tu_dataset,
)

from conftest import synth_dataset
from graph_helpers import (adjacency_matrix, arc_list, neighbor_sets, recorded_sorts,
                           undirected_edge_count)


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
    assert arc_list(tri) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert tri.node_tags == [0, 0, 1]  # 7 -> 0, 9 -> 1
    assert np.allclose(tri.node_attributes,
                       [[0.5, 1.0], [0.25, 2.0], [0.125, 3.0]])

    pair = ds.graphs[1]
    assert pair.node_count == 2
    assert arc_list(pair) == [(0, 1), (1, 0)]
    assert pair.node_tags == [1, 0]
    assert ds.tag_vocab_size == 2
    assert ds.attr_dim == 2


def test_loader_completes_one_directional_arcs(tmp_path):
    d = write_files(tmp_path, a=["1, 2"], indicator=["1", "1"], labels=["0"])
    ds = load_tu_dataset(d, "TOY")
    assert arc_list(ds.graphs[0]) == [(0, 1), (1, 0)]


def test_duplicate_edge_collapses_with_warning(tmp_path):
    d = write_files(tmp_path, a=["1, 2", "2, 1", "1, 2"],
                    indicator=["1", "1"], labels=["0"])
    with pytest.warns(UserWarning, match="duplicate edge"):
        ds = load_tu_dataset(d, "TOY")
    assert arc_list(ds.graphs[0]) == [(0, 1), (1, 0)]


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
        assert arc_list(a) == arc_list(b)
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
        assert ((a.node_count, arc_list(a), a.label)
                == (b.node_count, arc_list(b), b.label))


@pytest.mark.parametrize("field, what", [("node_tags", "tags"),
                                         ("node_attributes", "attributes")])
def test_write_rejects_a_set_where_only_some_graphs_have_node_rows(tmp_path, field, what):
    """The writer used to raise TypeError after writing the indicator,
    label and arc files; it now checks before any file is opened."""
    ds = synth_dataset(count=14, seed=3, with_tags=True, with_attrs=True)
    setattr(ds.graphs[5], field, None)
    setattr(ds.graphs[9], field, None)
    with pytest.raises(ValueError, match=f"graph 5 has no node {what} while others do"):
        write_tu_dataset(ds, str(tmp_path))
    assert os.listdir(tmp_path) == []


def test_weight_matrix():
    ds = synth_dataset(count=10, seed=1)
    g = ds.graphs[0]
    w = adjacency_matrix(g)
    assert w.shape == (g.node_count, g.node_count)
    assert np.array_equal(w, w.T)
    for i, j in arc_list(g):
        assert w[i, j] == 1.0
    assert w.sum() == len(g.indices)


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
# irregular files: np.loadtxt rejects them, and the line walker loads
# them or names the first bad line


def write_raw(tmp_path, a, indicator="1\n1\n2\n2\n", labels="0\n1\n",
              node_labels=None, node_attrs=None, name="RAW"):
    """Write the files verbatim, so line endings and blanks are exact."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    for suffix, text in (("A", a), ("graph_indicator", indicator),
                         ("graph_labels", labels), ("node_labels", node_labels),
                         ("node_attributes", node_attrs)):
        if text is not None:
            (tmp_path / f"{name}_{suffix}.txt").write_bytes(text.encode())
    return str(tmp_path), str(tmp_path / f"{name}_A.txt")


def graph_view(ds):
    return [(g.node_count, arc_list(g), g.label, g.node_tags) for g in ds.graphs]


TWO_EDGES = [(2, [(0, 1), (1, 0)], 0, None),
             (2, [(0, 1), (1, 0)], 1, None)]


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
    # the earliest bad line wins, whichever check it fails
    d, path = write_raw(tmp_path / "c", "1, 2\n2, 3\n1, 9\n")
    with pytest.raises(DatasetError) as err:
        load_tu_dataset(d, "RAW")
    assert str(err.value) == f"{path}:2: edge joins graphs 1 and 2"
    d, path = write_raw(tmp_path / "d", "1, 2\n\n1, 9\n2, 3\n")
    with pytest.raises(DatasetError) as err:
        load_tu_dataset(d, "RAW")
    assert str(err.value) == f"{path}:3: node id out of range 1..4"


@pytest.mark.parametrize("files, message", [
    (dict(labels="0\n\nx\n"), "graph_labels.txt:3: expected an integer graph label, got 'x'"),
    (dict(node_labels="1\n2\n\nx\n4\n"),
     "node_labels.txt:4: expected an integer node tag, got 'x'"),
    (dict(node_attrs="1.0\n \n2.0\ny\n3.0\n"),
     "node_attributes.txt:4: expected a real node attribute, got 'y'"),
], ids=["graph-label", "node-tag", "attribute"])
def test_loader_bad_value_after_blank_line_names_its_line(tmp_path, files, message):
    d, _ = write_raw(tmp_path, "1, 2\n3, 4\n", **files)
    with pytest.raises(DatasetError) as err:
        load_tu_dataset(d, "RAW")
    assert str(err.value) == f"{d}/RAW_{message}"


@pytest.mark.parametrize("attrs, message", [
    ("1.0, 2.0\n1.5, x\n2.0, 3.0\n4.0, 5.0\n", ":2: expected a real node attribute, got 'x'"),
    ("1.0, 2.0\n1.5, 2.5\n\n2.0\n4.0, 5.0\n", ":4: expected 2 values, got '2.0'"),
    ("1.0, 2.0\n1.5, 2.5\n2.0, 3.0\n", ": 3 attribute rows for 4 nodes"),
    ("1.0, 2.0\n\n1.5, 2.5\n2.0, nan\n4.0, 5.0\n", ":4: non-finite attribute in '2.0, nan'"),
    ("1.0, 2.0\n1.5, 2.5\n2.0, 3.0\n-inf, 5.0\n", ":4: non-finite attribute in '-inf, 5.0'"),
    ("1.0, 2.0\n1.5, 2.5\n  \n2.0, 3.0\n\t\n4.0, inf", ":6: non-finite attribute in '4.0, inf'"),
], ids=["not-a-number", "ragged", "row-count", "nan", "minus-inf", "inf-after-spaces"])
def test_loader_bad_attribute_file(tmp_path, attrs, message):
    d, _ = write_raw(tmp_path, "1, 2\n3, 4\n", node_attrs=attrs)
    with pytest.raises(DatasetError) as err:
        load_tu_dataset(d, "RAW")
    assert str(err.value) == f"{d}/RAW_node_attributes.txt{message}"


def test_loader_attributes_with_whitespace_lines_load(tmp_path):
    rows = [[1.0, 2.0], [1.5, 2.5], [0.1, -3e-7], [4.0, 5.0]]
    d, _ = write_raw(tmp_path, "1, 2\n3, 4\n",
                     node_attrs="1.0, 2.0\n \n1.5,2.5\r\n\t\n 0.1 , -3e-7\n4.0, 5.0")
    ds = load_tu_dataset(d, "RAW")
    assert ds.attr_dim == 2
    assert np.array_equal(np.vstack([g.node_attributes for g in ds.graphs]), rows)


@pytest.mark.parametrize("a", ["", "\n\n", " \n"], ids=["empty", "newlines", "spaces"])
def test_loader_set_without_arcs(tmp_path, a):
    d, _ = write_raw(tmp_path, a)
    ds = load_tu_dataset(d, "RAW")
    assert [(g.node_count, arc_list(g), g.label) for g in ds.graphs] == [
        (2, [], 0), (2, [], 1)]
    assert [g.indptr.tolist() for g in ds.graphs] == [[0, 0, 0], [0, 0, 0]]


def test_regular_files_take_one_loadtxt_call_each(tmp_path, monkeypatch):
    import segbert.dataset as dataset

    d = write_files(tmp_path, **TRIANGLE_PLUS_EDGE,
                    node_labels=["7", "7", "9", "9", "7"],
                    node_attrs=["0.5, 1.0", "0.25, 2.0", "0.125, 3.0",
                                "1.5, 4.0", "2.5, 5.0"])
    loaded = []
    loadtxt = np.loadtxt

    def counting_loadtxt(path, *args, **kwargs):
        loaded.append(os.path.basename(path))
        return loadtxt(path, *args, **kwargs)

    def no_walk(path):
        raise AssertionError(f"line walker ran on {path}")

    monkeypatch.setattr(dataset.np, "loadtxt", counting_loadtxt)
    monkeypatch.setattr(dataset, "_lines", no_walk)
    ds = load_tu_dataset(d, "TOY")
    assert sorted(loaded) == sorted(f"TOY_{s}.txt" for s in (
        "A", "graph_indicator", "graph_labels", "node_labels", "node_attributes"))
    assert (ds.tag_vocab_size, ds.attr_dim) == (2, 2)


def test_whitespace_lines_take_one_more_loadtxt_call(tmp_path, monkeypatch):
    """A file np.loadtxt rejects for whitespace-only lines is loaded by a
    second np.loadtxt call over its non-blank lines."""
    import segbert.dataset as dataset

    d, _ = write_raw(tmp_path, "1, 2\n   \n3, 4\n",
                     node_attrs="1.0, 2.0\n \n1.5,2.5\n0.5, 1\n2, 3\n")
    sources = []
    loadtxt = np.loadtxt

    def recording_loadtxt(source, *args, **kwargs):
        sources.append(os.path.basename(source) if isinstance(source, str) else source)
        return loadtxt(source, *args, **kwargs)

    monkeypatch.setattr(dataset.np, "loadtxt", recording_loadtxt)
    ds = load_tu_dataset(d, "RAW")
    assert sources == ["RAW_graph_indicator.txt", "RAW_graph_labels.txt",
                       "RAW_A.txt", ["1, 2", "3, 4"], "RAW_node_attributes.txt",
                       ["1.0, 2.0", "1.5,2.5", "0.5, 1", "2, 3"]]
    assert graph_view(ds) == TWO_EDGES
    assert np.array_equal(np.vstack([g.node_attributes for g in ds.graphs]),
                          [[1.0, 2.0], [1.5, 2.5], [0.5, 1.0], [2.0, 3.0]])


HUGE = "99999999999999999999"  # past int64


@pytest.mark.parametrize("suffix, files, message", [
    ("graph_indicator", dict(indicator=f"1\n1\n{HUGE}\n2\n"), f"3: graph id {HUGE}"),
    ("graph_labels", dict(labels=f"0\n\n{HUGE}\n"), f"3: graph label {HUGE}"),
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
    for name, indicator, message in [
        ("c", "1\n1\n3\n3\n", "graph 2 has no nodes (ids must cover 1..3)"),
        ("d", "", "no nodes listed"),
    ]:
        d, _ = write_raw(tmp_path / name, "", indicator=indicator)
        with pytest.raises(DatasetError) as err:
            load_tu_dataset(d, "RAW")
        assert str(err.value) == f"{d}/RAW_graph_indicator.txt: {message}"


def test_loader_interleaved_indicator(tmp_path):
    # graph 1 holds global nodes 1 and 3, graph 2 holds 2, 4 and 5
    d, _ = write_raw(tmp_path, "1, 3\n2, 5\n4, 2\n", indicator="1\n2\n1\n2\n2\n",
                     node_labels="10\n20\n30\n40\n50\n")
    ds = load_tu_dataset(d, "RAW")
    assert graph_view(ds) == [
        (2, [(0, 1), (1, 0)], 0, [0, 2]),
        (3, [(0, 1), (0, 2), (1, 0), (2, 0)], 1, [1, 3, 4]),
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
    g = GraphInstance(node_count=3, edges=[(0, 0), (0, 2), (2, 0)])
    assert g.indptr.tolist() == [0, 2, 2, 3]
    assert g.indices.tolist() == [0, 2, 0]
    assert np.array_equal(adjacency_matrix(g), [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0],
                                                [1.0, 0.0, 0.0]])
    assert neighbor_sets(g) == [{0, 2}, set(), {0}]
    assert undirected_edge_count(g) == 2
    assert arc_list(g) == [(0, 0), (0, 2), (2, 0)]


@pytest.mark.parametrize("node_count, bad, message", [
    (3, [(1, 5), (5, 1)], "arc (1, 5) has an end outside 0..2"),
    (3, [(-1, 1)], "arc (-1, 1) has an end outside 0..2"),
    (3, [(3, 0)], "arc (3, 0) has an end outside 0..2"),
    (-1, [], "node_count must be non-negative, got -1"),
], ids=["target-past-end", "negative-source", "source-at-node-count", "negative-node-count"])
def test_arc_list_rejects_an_end_outside_the_graph(node_count, bad, message):
    # loaded, these arcs would index another graph's nodes in a dataset-wide
    # array, or count in the wrong row of indptr
    with pytest.raises(ValueError) as err:
        GraphInstance(node_count=node_count, edges=[(0, 1), (1, 0)] + bad)
    assert str(err.value) == message


def test_edges_are_the_stored_arcs(tmp_path):
    # unsorted input with a repeated arc: stored once
    g = GraphInstance(node_count=3, edges=[(1, 0), (0, 1), (0, 1, 1.0)])
    assert g.edges.tolist() == [[0, 1], [1, 0]]
    assert g.edges.tolist() == [list(arc) for arc in arc_list(g)]
    ds = GraphDataset(name="TOY", graphs=[g, GraphInstance(node_count=1, label=1)],
                      class_count=2, attr_dim=0, tag_vocab_size=0, max_nodes=3,
                      avg_nodes=2.0)
    write_tu_dataset(ds, str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a duplicate arc line would warn
        back = load_tu_dataset(str(tmp_path), "TOY")
    assert arc_list(back.graphs[0]) == [(0, 1), (1, 0)]


def test_edges_is_an_array_of_the_csr_fields(tmp_path):
    """``edges`` is an (arcs, 2) int64 array read column by column from
    the CSR arrays, also for a graph without arcs."""
    d = write_files(tmp_path, a=["1, 2", "2, 3", "1, 3", "5, 5"],
                    indicator=["1", "1", "1", "2", "3"], labels=["0", "1", "0"])
    ds = load_tu_dataset(d, "TOY")
    assert [len(g.indices) for g in ds.graphs] == [6, 0, 1]
    for g in ds.graphs:
        arcs = g.edges
        assert arcs.dtype == np.int64
        assert arcs.shape == (len(g.indices), 2)
        assert np.array_equal(arcs[:, 0], g.arc_rows())
        assert np.array_equal(arcs[:, 1], g.indices)


# what the writer made of WRITER_SET before it wrote arcs from the CSR
# arrays; it must keep writing these bytes
WRITTEN = {
    "TOY_A.txt": "1, 1\n1, 2\n2, 1\n2, 3\n3, 2\n6, 7\n6, 9\n7, 6\n7, 8\n8, 7\n8, 9\n9, 6\n9, 8\n",
    "TOY_graph_indicator.txt": "1\n1\n1\n2\n2\n3\n3\n3\n3\n",
    "TOY_graph_labels.txt": "3\n-1\n3\n",
    "TOY_node_attributes.txt": ("0.5, -1.25\n1e-07, 3.0\n0.1, 2.0\n-3.5, 0.0\n1.0, 123456.789\n"
                                "1.0, 2.0\n3.0, 4.0\n5.0, 6.0\n7.0, 8.0\n"),
    "TOY_node_labels.txt": "7\n11\n11\n9\n7\n9\n9\n7\n11\n",
}


def writer_set():
    """Tags, attributes, label and tag maps, a self-loop and a graph
    without arcs between two with arcs."""
    graphs = [
        GraphInstance(node_count=3, label=1, node_tags=[0, 2, 2],
                      node_attributes=np.array([[0.5, -1.25], [1e-07, 3.0], [0.1, 2.0]]),
                      edges=[(0, 0), (0, 1), (1, 0), (1, 2), (2, 1)]),
        GraphInstance(node_count=2, label=0, node_tags=[1, 0],
                      node_attributes=np.array([[-3.5, 0.0], [1.0, 123456.789]])),
        GraphInstance(node_count=4, label=1, node_tags=[1, 1, 0, 2],
                      node_attributes=np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]),
                      edges=[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)]),
    ]
    return GraphDataset(name="TOY", graphs=graphs, class_count=2, attr_dim=2,
                        tag_vocab_size=3, max_nodes=4, avg_nodes=3.0,
                        label_map={-1: 0, 3: 1}, tag_map={7: 0, 9: 1, 11: 2})


def test_writer_output_is_pinned_byte_for_byte(tmp_path):
    write_tu_dataset(writer_set(), str(tmp_path))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == {
        name: text.encode() for name, text in WRITTEN.items()}


@pytest.mark.parametrize("rows, message", [
    (dict(node_tags=[1]), "node_tags has 1 rows for 3 nodes"),
    (dict(node_tags=[0, 1, 2, 0]), "node_tags has 4 rows for 3 nodes"),
    (dict(node_attributes=np.zeros((2, 4))), "node_attributes has 2 rows for 3 nodes"),
], ids=["one-tag", "extra-tag", "attribute-rows"])
def test_constructor_rejects_rows_that_are_not_one_per_node(rows, message):
    with pytest.raises(ValueError) as err:
        GraphInstance(node_count=3, edges=[(0, 1), (1, 0)], **rows)
    assert str(err.value) == message


@pytest.mark.parametrize("edges", [
    [(1, 0), (2, 1)],
    [(1, 0, 1.0), (2, 1, 1.0)],
    [[0, 1], (1, 2), (2, 1, 1.0), (0, 1)],
    np.array([[1, 0], [2, 1]]),
    np.array([[1, 0], [1, 2]], dtype=np.int32),
    ((np.int64(0), np.int64(1)), (1, 2)),
], ids=["pairs", "unit-triples", "mixed-with-repeat", "int64-array", "int32-array",
        "numpy-ints"])
def test_arc_list_accepts_pairs_unit_triples_and_integer_arrays(edges):
    """An (arcs, 2) array used to fail on ``edges or []`` with "truth
    value of an array ... is ambiguous"."""
    g = GraphInstance(3, edges=edges)
    assert (g.indptr.tolist(), g.indices.tolist()) == ([0, 1, 3, 4], [1, 0, 2, 1])
    assert g.indptr.dtype == g.indices.dtype == np.int64
    for nothing in (None, [], np.empty((0, 2), dtype=np.int64)):
        g = GraphInstance(3, edges=nothing)
        assert (g.indptr.tolist(), g.indices.tolist()) == ([0, 0, 0, 0], [])


@pytest.mark.parametrize("edges, message", [
    ([(0, 1.5, 1.0)], "arc (0, 1.5) has an end that is not an integer"),
    ([(1.5, 0, 1.0), (0, 1, 1.0)], "arc (1.5, 0) has an end that is not an integer"),
    ([(0, 1), ("2", 1)], "arc (2, 1) has an end that is not an integer"),
    ([(True, 1)], "arc (True, 1) has an end that is not an integer"),
    (np.array([[0.0, 1.0]]), "arc (0.0, 1.0) has an end that is not an integer"),
    ([(0, 1), (1, 2, 2.5)], "arc (1, 2) has extra entries [2.5]; only 1.0 may follow"),
    ([(0, 1, 1.0, 1.0)], "arc (0, 1) has extra entries [1.0, 1.0]; only 1.0 may follow"),
    ([(0, 1), (0,)], "arc (0,) is not a sequence of at least two entries"),
    ([0, 1], "arc 0 is not a sequence of at least two entries"),
    (np.array([0, 1]), "arc 0 is not a sequence of at least two entries"),
], ids=["float-target", "float-source", "string-end", "bool-end", "float-array", "weight",
        "fourth-entry", "one-entry", "bare-ints", "flat-array"])
def test_arc_list_rejects_an_arc_that_is_not_an_integer_pair(edges, message):
    """The first case used to store the arc 0 -> 1, the second to raise a
    bare TypeError, the weight to be kept; the last three raised a bare
    unpacking error that did not name the arc."""
    with pytest.raises(ValueError) as err:
        GraphInstance(3, edges=edges)
    assert str(err.value) == message


# ----------------------------------------------------------------------
# the loader's arrays against a reference built from the arc list


def reference_load(indicator, lines, path):
    """Per-graph CSR records (node_count and int64 indptr and indices) of
    the arcs each line lists, both ways, and the duplicate warnings, all
    from plain Python over the file, so the reference shares no code
    with the loader's key path."""
    members = {}
    for node, graph in enumerate(indicator):
        members.setdefault(graph, []).append(node)
    local = {node: i for nodes in members.values() for i, node in enumerate(nodes)}
    arcs = {graph: set() for graph in members}
    seen, warned = set(), []
    for n, (a, b) in enumerate(lines, start=1):
        if (a, b) in seen:
            warned.append(f"{path}:{n}: duplicate edge ({a + 1}, {b + 1})")
        seen.add((a, b))
        arcs[indicator[a]] |= {(local[a], local[b]), (local[b], local[a])}
    graphs = []
    for g in sorted(members):
        rows = [[] for _ in members[g]]
        for i, j in sorted(arcs[g]):
            rows[i].append(j)
        indptr = [0]
        for row in rows:
            indptr.append(indptr[-1] + len(row))
        graphs.append(SimpleNamespace(
            node_count=len(rows), indptr=np.array(indptr, dtype=np.int64),
            indices=np.array([j for row in rows for j in row], dtype=np.int64)))
    return graphs, warned


def load_with_warnings(directory, name):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        ds = load_tu_dataset(directory, name)
    return ds, [str(w.message) for w in record]


def assert_same_csr(got, want):
    for g, ref in zip(got, want, strict=True):
        assert g.node_count == ref.node_count
        for field in ("indptr", "indices"):
            a, b = getattr(g, field), getattr(ref, field)
            assert a.dtype == b.dtype and np.array_equal(a, b), field


@st.composite
def tu_arc_files(draw):
    """(graph id per node, arc lines as 0-based pairs): an interleaved
    indicator; arcs in shuffled order, some listed one way only, some
    repeated."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    indicator = draw(st.permutations([g for g, n in enumerate(sizes) for _ in range(n)]))
    members = [[i for i, g in enumerate(indicator) if g == graph] for graph in range(len(sizes))]
    lines = []
    for nodes in members:
        ends = st.sampled_from(nodes)
        for a, b, both in draw(st.lists(st.tuples(ends, ends, st.booleans()), max_size=8)):
            lines += [(a, b), (b, a)] if both else [(a, b)]
    if lines:
        lines += draw(st.lists(st.sampled_from(lines), max_size=4))
    return indicator, draw(st.permutations(lines))


def write_arc_files(directory, indicator, lines):
    write_files(directory, name="RND", a=[f"{a + 1}, {b + 1}" for a, b in lines],
                indicator=[str(g + 1) for g in indicator],
                labels=[str(g % 2) for g in range(max(indicator) + 1)])
    return str(directory), f"{directory}/RND_A.txt"


@settings(max_examples=150, deadline=None)
@given(tu_arc_files())
def test_loader_arrays_and_warnings_equal_the_arc_list_reference(files):
    indicator, lines = files
    with tempfile.TemporaryDirectory() as tmp:
        d, path = write_arc_files(Path(tmp), indicator, lines)
        ds, warned = load_with_warnings(d, "RND")
        want, want_warned = reference_load(indicator, lines, path)
    assert_same_csr(ds.graphs, want)
    assert warned == want_warned


@st.composite
def arc_lists(draw):
    """(node count 0-8, arcs as pairs): in any order, some one way only,
    some repeated, self-loops, and nodes that no arc touches."""
    n = draw(st.integers(0, 8))
    if n == 0:
        return 0, []
    ends = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(ends, ends), max_size=12))
    for i, j, both in draw(st.lists(st.tuples(ends, ends, st.booleans()), max_size=6)):
        arcs += [(i, j), (j, i)] if both else [(i, i)]
    if arcs:
        arcs += draw(st.lists(st.sampled_from(arcs), max_size=4))
    return n, draw(st.permutations(arcs))


@settings(max_examples=150, deadline=None)
@given(arc_lists(), st.sampled_from(["pairs", "unit-triples", "array"]))
def test_arc_list_is_stored_as_the_sorted_set_of_both_directions(case, form):
    """The arc-list constructor keeps the promise of symmetric, sorted
    storage: its arrays equal the sorted set of both directions and
    survive a write and load without a duplicate warning (a graph of 0
    nodes has no TU form)."""
    n, arcs = case
    edges = {"pairs": arcs, "unit-triples": [(i, j, 1.0) for i, j in arcs],
             "array": np.array(arcs, dtype=np.int64).reshape(-1, 2)}[form]
    g = GraphInstance(n, edges=edges)
    want = sorted({(i, j) for i, j in arcs} | {(j, i) for i, j in arcs})
    assert arc_list(g) == want
    assert g.indptr.tolist() == [sum(1 for i, _ in want if i < r) for r in range(n + 1)]
    assert g.indptr.dtype == g.indices.dtype == np.int64
    if n == 0:
        return
    ds = GraphDataset(name="RND", graphs=[g], class_count=1, attr_dim=0, tag_vocab_size=0,
                      max_nodes=n, avg_nodes=float(n))
    with tempfile.TemporaryDirectory() as tmp:
        write_tu_dataset(ds, tmp)
        loaded, warned = load_with_warnings(tmp, "RND")
    assert_same_csr(loaded.graphs, [g])
    assert warned == []


def test_loader_keys_past_int32_on_a_long_path(tmp_path, monkeypatch):
    """A 50,000-node path puts n_nodes * width past 2**31, so the keys are
    int64; the arcs are listed one way, one of them twice."""
    n = 50_000
    lines = [(i, i + 1) for i in range(n - 1)] + [(7, 8)]
    d, path = write_arc_files(tmp_path, [0] * n, lines)
    loaded = []
    seen = recorded_sorts(monkeypatch, lambda: loaded.extend(load_with_warnings(d, "RND")))
    ds, warned = loaded
    want, want_warned = reference_load([0] * n, lines, path)
    assert {kind for _, kind in seen} == {np.dtype(np.int64)}
    assert_same_csr(ds.graphs, want)
    assert warned == want_warned == [f"{path}:{n}: duplicate edge (8, 9)"]


def test_symmetric_file_sorts_nothing_longer_than_its_arc_lines(tmp_path, monkeypatch):
    """Both directions listed: the forward keys are the arc set and only
    the reversed keys are sorted; one direction only: the two sorted
    key arrays are merged."""
    def sizes(d):
        sorts = recorded_sorts(monkeypatch, lambda: load_tu_dataset(d, "RND"))
        return [size for size, _ in sorts]

    symmetric = [(0, 1), (1, 0), (1, 2), (2, 1), (3, 3), (3, 4), (4, 3)]  # in key order
    for name, lines in [("in-order", symmetric), ("shuffled", symmetric[::-1])]:
        d, _ = write_arc_files(tmp_path / name, [0, 0, 0, 1, 1], lines)
        assert sizes(d) and max(sizes(d)) <= len(lines), name
    assert recorded_sorts(monkeypatch, lambda: load_tu_dataset(
        str(tmp_path / "in-order"), "RND")) == [(len(symmetric), np.int32)]  # reversed keys only
    one_way = [(0, 1), (1, 2), (2, 1), (3, 4), (3, 3)]
    d, _ = write_arc_files(tmp_path / "one-way", [0, 0, 0, 1, 1], one_way)
    merged, *before = sizes(d)[::-1]
    assert merged == 2 * len(one_way) > max(before)
