"""Graph-classification datasets in the TU flat-file layout.

A dataset directory holds ``<name>_A.txt`` (one directed arc per line,
1-based global node ids), ``<name>_graph_indicator.txt`` (graph id per
node), ``<name>_graph_labels.txt`` (label per graph) and optionally
``<name>_node_labels.txt`` / ``<name>_node_attributes.txt``. The loader
parses each file in one pass, converts global ids to per-graph local
indices, drops duplicate arcs (with a warning naming the line),
completes symmetric storage, and remaps class labels and node tags to
dense 0-based ranges. Every arc has weight 1.0.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "DatasetError",
    "GraphInstance",
    "GraphDataset",
    "FoldSplit",
    "load_tu_dataset",
    "write_tu_dataset",
    "make_folds",
]

FOLD_COUNT = 10


class DatasetError(Exception):
    """Malformed or missing dataset files; message names file and line."""


def _csr_from_arcs(n: int, edges) -> tuple:
    """Sorted CSR arrays of an arc list; a repeated arc keeps its last weight."""
    weight = {(i, j): w for i, j, w in edges}
    arcs = sorted(weight)
    counts = [0] * (n + 1)
    for i, _j in arcs:
        counts[i + 1] += 1
    return (np.cumsum(counts, dtype=np.int64),
            np.array([j for _i, j in arcs], dtype=np.int64),
            np.array([weight[a] for a in arcs], dtype=np.float64))


class GraphInstance:
    """One graph: local node ids 0..node_count-1 in symmetric CSR storage.

    Node i's neighbours, in increasing order, are
    ``indices[indptr[i]:indptr[i + 1]]`` with connection ``weights``.
    Build it from an arc list (``edges=[(i, j, w), ...]``) or the arrays.
    """

    def __init__(self, node_count: int, edges: list | None = None,
                 node_tags: list | None = None,
                 node_attributes: np.ndarray | None = None, label: int = 0,
                 *, indptr=None, indices=None, weights=None):
        self.node_count = int(node_count)
        self.node_tags = node_tags
        self.node_attributes = node_attributes
        self.label = label
        if indptr is None:
            indptr, indices, weights = _csr_from_arcs(self.node_count, edges or [])
        self.indptr, self.indices = indptr, indices
        self.weights = np.ones(len(indices)) if weights is None else weights

    def arc_rows(self) -> np.ndarray:
        """Source node of every stored arc, aligned with ``indices``."""
        return np.arange(self.node_count).repeat(self.indptr[1:] - self.indptr[:-1])

    @cached_property
    def edges(self) -> list:
        """[(i, j, weight)] of the stored arcs, both directions present,
        sorted; built from the CSR arrays at the first read."""
        return list(zip(self.arc_rows().tolist(), self.indices.tolist(),
                        self.weights.tolist()))


@dataclass
class GraphDataset:
    name: str
    graphs: list
    class_count: int
    attr_dim: int
    tag_vocab_size: int
    max_nodes: int
    avg_nodes: float
    label_map: dict = field(default_factory=dict)  # original label -> dense
    tag_map: dict = field(default_factory=dict)  # original tag -> dense

    def __len__(self) -> int:
        return len(self.graphs)


@dataclass
class FoldSplit:
    """Index lists into dataset.graphs for one cross-validation fold."""

    train: list
    val: list
    test: list


# ----------------------------------------------------------------------
# loading: one np.loadtxt call per file; if it fails or a check finds
# a bad value, the line reader runs only to name the offending line


def _read_lines(path: str) -> list[str]:
    if not os.path.isfile(path):
        raise DatasetError(f"missing dataset file: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _parse_int(text: str, path: str, lineno: int, what: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise DatasetError(
            f"{path}:{lineno}: expected an integer {what}, got {text.strip()!r}"
        ) from None


def _load_table(path: str, dtype, columns: int | None = None):
    """Whole-file parse of comma-separated values; None if irregular."""
    if not os.path.isfile(path):
        raise DatasetError(f"missing dataset file: {path}")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty file
            table = np.loadtxt(path, delimiter=",", dtype=dtype, ndmin=2,
                               comments=None, encoding="utf-8")
    except ValueError:
        return None
    if columns is not None and table.size == 0:
        return table.reshape(0, columns)
    if columns is not None and table.shape[1] != columns:
        return None
    return table


def _int_column(path: str, what: str, count: int | None = None,
                noun: str = "", of: str = "") -> np.ndarray:
    """One integer per non-blank line; ``count`` lines expected if given,
    and then error line numbers count only the non-blank lines."""
    table = _load_table(path, np.int64, 1)
    lines = [] if table is not None else [
        (i, ln) for i, ln in enumerate(_read_lines(path), start=1) if ln.strip()]
    found = len(lines) if table is None else len(table)
    if count is not None and found != count:
        raise DatasetError(f"{path}: {found} {noun} for {count} {of}")
    if table is not None:
        return table[:, 0]
    if count is not None:
        lines = [(i, ln) for i, (_, ln) in enumerate(lines, start=1)]
    values = [_parse_int(ln, path, i, what) for i, ln in lines]
    for (i, _), value in zip(lines, values):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise DatasetError(f"{path}:{i}: {what} {value} does not fit in 64 bits")
    return np.array(values, dtype=np.int64)


def _scan_arcs(path: str, graph_of: list) -> np.ndarray:
    """Line-by-line arc reader: raises at the first bad line, warns per
    duplicate arc, and returns the (u, v) rows."""
    n_nodes = len(graph_of)
    seen: set = set()
    rows = []
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DatasetError(f"{path}:{lineno}: expected 'i, j', got {line.strip()!r}")
        u = _parse_int(parts[0], path, lineno, "node id")
        v = _parse_int(parts[1], path, lineno, "node id")
        if not (1 <= u <= n_nodes and 1 <= v <= n_nodes):
            raise DatasetError(f"{path}:{lineno}: node id out of range 1..{n_nodes}")
        gu, gv = graph_of[u - 1], graph_of[v - 1]
        if gu != gv:
            raise DatasetError(f"{path}:{lineno}: edge joins graphs {gu + 1} and {gv + 1}")
        if (u, v) in seen:
            warnings.warn(f"{path}:{lineno}: duplicate edge ({u}, {v})", stacklevel=3)
        seen.add((u, v))
        rows.append((u, v))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def _dense_map(values: np.ndarray) -> tuple:
    """(original -> dense dict, dense array) for sorted distinct values."""
    ordered = np.sort(values)
    distinct = ordered[np.append(True, ordered[1:] != ordered[:-1])]
    return ({int(v): i for i, v in enumerate(distinct.tolist())},
            np.searchsorted(distinct, values))


def load_tu_dataset(directory: str, name: str) -> GraphDataset:
    """Load ``<name>_*.txt`` from directory into a GraphDataset."""
    prefix = os.path.join(directory, name)
    indicator_path = prefix + "_graph_indicator.txt"
    edges_path = prefix + "_A.txt"

    node_graph = _int_column(indicator_path, "graph id")
    n_nodes = len(node_graph)
    if n_nodes == 0:
        raise DatasetError(f"{indicator_path}: no nodes listed")
    if node_graph.min() < 1:
        raise DatasetError(f"{indicator_path}: graph ids are 1-based")
    node_graph -= 1
    graph_count = int(node_graph.max()) + 1
    if graph_count > n_nodes:  # checked before bincount sizes an array by it
        raise DatasetError(
            f"{indicator_path}: graph id {graph_count} but only {n_nodes} nodes "
            f"(ids must cover 1..{graph_count})")
    counts = np.bincount(node_graph, minlength=graph_count)
    if not counts.all():
        raise DatasetError(
            f"{indicator_path}: graph {int(np.argmin(counts)) + 1} has no nodes "
            f"(ids must cover 1..{graph_count})")
    # nodes of one graph may be interleaved in pathological files, so
    # local ids come from a stable sort by graph rather than slicing
    starts = np.zeros(graph_count + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    by_graph = np.argsort(node_graph, kind="stable")  # graph-major order
    position = np.empty(n_nodes, dtype=np.int64)  # global node -> graph-major
    position[by_graph] = np.arange(n_nodes)
    local = position - starts[node_graph]

    raw_labels = _int_column(prefix + "_graph_labels.txt", "graph label",
                             graph_count, "labels", "graphs")
    label_map, labels = _dense_map(raw_labels)

    arcs = _load_table(edges_path, np.int64, 2)
    if arcs is not None:
        u, v = arcs[:, 0] - 1, arcs[:, 1] - 1
        regular = bool(((u >= 0) & (u < n_nodes) & (v >= 0) & (v < n_nodes)).all())
        if regular:
            key = np.sort(u * n_nodes + v)
            regular = bool((node_graph[u] == node_graph[v]).all()
                           and (key[1:] != key[:-1]).all())
    if arcs is None or not regular:
        arcs = _scan_arcs(edges_path, node_graph.tolist())

    tags_path = prefix + "_node_labels.txt"
    tags = None
    tag_map: dict = {}
    if os.path.isfile(tags_path):
        raw_tags = _int_column(tags_path, "node tag", n_nodes, "tags", "nodes")
        tag_map, tags = _dense_map(raw_tags)
        tags = tags[by_graph].tolist()

    attrs_path = prefix + "_node_attributes.txt"
    attrs = None
    if os.path.isfile(attrs_path):
        attrs = _load_table(attrs_path, np.float64)
        if attrs is None or len(attrs) != n_nodes:
            attrs = _scan_attributes(attrs_path, n_nodes)
        attrs = attrs[by_graph]

    # symmetric completion: both directions of every arc as one int64
    # key (graph-major row, local column), sorted, repeats masked out
    u, v = arcs[:, 0] - 1, arcs[:, 1] - 1
    width = int(counts.max())
    key = np.sort(np.concatenate([position[u] * width + local[v],
                                  position[v] * width + local[u]]))
    key = key[np.append(True, key[1:] != key[:-1])]
    rows, cols = np.divmod(key, width)
    row_ptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_nodes), out=row_ptr[1:])
    ones = np.ones(len(cols))

    graphs = []
    for g in range(graph_count):
        lo, hi = starts[g], starts[g + 1]
        a, b = row_ptr[lo], row_ptr[hi]
        graphs.append(GraphInstance(
            node_count=hi - lo, label=int(labels[g]),
            node_tags=None if tags is None else tags[lo:hi],
            node_attributes=None if attrs is None else attrs[lo:hi],
            indptr=row_ptr[lo:hi + 1] - a, indices=cols[a:b], weights=ones[a:b]))

    return GraphDataset(
        name=name,
        graphs=graphs,
        class_count=len(label_map),
        attr_dim=0 if attrs is None else attrs.shape[1],
        tag_vocab_size=len(tag_map),
        max_nodes=width,
        avg_nodes=float(np.mean(counts)),
        label_map=label_map,
        tag_map=tag_map,
    )


def _scan_attributes(path: str, n_nodes: int) -> np.ndarray:
    """Line-by-line attribute reader with per-line error messages."""
    lines = [ln for ln in _read_lines(path) if ln.strip()]
    if len(lines) != n_nodes:
        raise DatasetError(f"{path}: {len(lines)} attribute rows for {n_nodes} nodes")
    rows = []
    for i, line in enumerate(lines):
        try:
            rows.append([float(p) for p in line.split(",")])
        except ValueError:
            raise DatasetError(
                f"{path}:{i + 1}: malformed attribute row {line.strip()!r}") from None
    width = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != width:
            raise DatasetError(f"{path}:{i + 1}: expected {width} values, got {len(row)}")
    return np.asarray(rows, dtype=np.float64)


# ----------------------------------------------------------------------
# writing (round-trip support and synthetic fixtures)


def write_tu_dataset(dataset: GraphDataset, directory: str) -> None:
    """Write the dataset back out in the TU flat-file layout.

    Labels and tags are written through the inverse of the recorded
    maps when available, so a load/write/load cycle reproduces the same
    in-memory structure.
    """
    os.makedirs(directory, exist_ok=True)
    prefix = os.path.join(directory, dataset.name)
    inv_label = {v: k for k, v in dataset.label_map.items()} or None
    inv_tag = {v: k for k, v in dataset.tag_map.items()} or None

    offsets = np.cumsum([0] + [g.node_count for g in dataset.graphs]).tolist()

    with open(prefix + "_graph_indicator.txt", "w", encoding="utf-8") as fh:
        for gi, g in enumerate(dataset.graphs, start=1):
            fh.write(f"{gi}\n" * g.node_count)

    with open(prefix + "_graph_labels.txt", "w", encoding="utf-8") as fh:
        for g in dataset.graphs:
            label = inv_label[g.label] if inv_label else g.label
            fh.write(f"{label}\n")

    with open(prefix + "_A.txt", "w", encoding="utf-8") as fh:
        for off, g in zip(offsets, dataset.graphs):
            for i, j, _w in g.edges:
                fh.write(f"{i + off + 1}, {j + off + 1}\n")

    if any(g.node_tags is not None for g in dataset.graphs):
        with open(prefix + "_node_labels.txt", "w", encoding="utf-8") as fh:
            for g in dataset.graphs:
                for t in g.node_tags:
                    fh.write(f"{inv_tag[t] if inv_tag else t}\n")

    if any(g.node_attributes is not None for g in dataset.graphs):
        with open(prefix + "_node_attributes.txt", "w", encoding="utf-8") as fh:
            for g in dataset.graphs:
                for row in g.node_attributes:
                    fh.write(", ".join(repr(float(x)) for x in row) + "\n")


# ----------------------------------------------------------------------
# cross-validation folds


def make_folds(dataset: GraphDataset, seed: int) -> list:
    """Ten stratified folds with rotating validation parts.

    Graphs of each class are shuffled with the seed and dealt into 10
    chunks whose sizes differ by at most one; remainders start at a
    rotating offset so overall fold sizes stay within one graph of each
    other. Fold f tests on chunk f and validates on chunk f+1 mod 10,
    so every graph appears in exactly one test part and one validation
    part across the 10 folds.
    """
    n = len(dataset.graphs)
    if n < FOLD_COUNT:
        raise DatasetError(
            f"10-fold cross-validation needs at least {FOLD_COUNT} graphs, got {n}")
    rng = np.random.default_rng(seed)
    chunks: list[list[int]] = [[] for _ in range(FOLD_COUNT)]
    offset = 0
    for cls in range(dataset.class_count):
        members = [i for i, g in enumerate(dataset.graphs) if g.label == cls]
        members = list(rng.permutation(members))
        base, extra = divmod(len(members), FOLD_COUNT)
        cursor = 0
        for f in range(FOLD_COUNT):
            size = base + (1 if (f - offset) % FOLD_COUNT < extra else 0)
            chunks[f].extend(int(i) for i in members[cursor:cursor + size])
            cursor += size
        offset = (offset + extra) % FOLD_COUNT

    folds = []
    everything = set(range(n))
    for f in range(FOLD_COUNT):
        test = sorted(chunks[f])
        val = sorted(chunks[(f + 1) % FOLD_COUNT])
        train = sorted(everything - set(test) - set(val))
        folds.append(FoldSplit(train=train, val=val, test=test))
    return folds
