"""Graph-classification datasets in the TU flat-file layout.

A dataset directory holds ``<name>_A.txt`` (one directed arc per line,
1-based global node ids), ``<name>_graph_indicator.txt`` (graph id per
node), ``<name>_graph_labels.txt`` (label per graph) and optionally
``<name>_node_labels.txt`` / ``<name>_node_attributes.txt``. The loader
reads each file with one np.loadtxt call (a file with whitespace-only
lines still loads), rejects bad values, ragged rows, ids out of range
or across graphs and non-finite attributes with an error naming
``file:line``, converts global ids to per-graph local indices, drops
duplicate arcs (with a warning naming the line), completes symmetric
storage, and remaps class labels and node tags to dense 0-based ranges.
Graphs are unweighted, as the layout has no arc weights. Arcs are
handled as one integer key each, int32 while every key fits; the
forward and the reversed keys are each sorted at most once, and merged
only when the file lists some arc one way only or twice. An arc list
given to ``GraphInstance`` goes through the same key path.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

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
    """Missing or malformed dataset files; a bad line is named ``file:line``."""


def _symmetric_csr(row_key, col_key, u, v, width: int, on_repeat=None) -> tuple:
    """(indptr, columns) of the arcs u -> v and their reverses, sorted and distinct."""
    # arc i -> j has the key row_key[i] + col_key[j], and row r's keys
    # start at r * width. ``on_repeat`` gets the positions of the arcs
    # that repeat an earlier one. Arcs in key order, as TU files are
    # written, are sorted already: strictly increasing keys need no sort
    # and have no repeats.
    key = row_key[u] + col_key[v]
    forward = key
    if (key[1:] <= key[:-1]).any():
        forward = np.sort(key)  # default kind: the order is unknown
        fresh = np.append(True, forward[1:] != forward[:-1])
        if not fresh.all():
            if on_repeat is not None:
                repeat = np.empty(len(key), dtype=bool)
                # a stable order puts the first of equal arcs first
                repeat[np.argsort(key, kind="stable")] = ~fresh
                on_repeat(np.flatnonzero(repeat))
            forward = forward[fresh]
    # when every arc is listed both ways once, the sorted reversed keys
    # are the same array and the forward keys are the symmetric arc set.
    # Otherwise both are merged and repeats dropped; the stable kind
    # merges the two sorted runs in one pass.
    backward = np.sort(row_key[v] + col_key[u])  # default kind: reversed keys are out of order
    key = forward
    if not np.array_equal(forward, backward):
        key = np.sort(np.concatenate([forward, backward]), kind="stable")
        key = key[np.append(True, key[1:] != key[:-1])]
    return (np.searchsorted(key, np.arange(len(row_key) + 1, dtype=key.dtype) * width),
            (key % width).astype(np.int64))


def _csr_from_arcs(n: int, edges) -> tuple:
    """CSR arrays of a sequence of (i, j) arcs, completed as the loader's."""
    # a third entry is accepted only as 1.0, the weight every arc has
    ends = []
    for arc in edges:
        try:
            i, j, *rest = arc
        except (TypeError, ValueError):
            raise ValueError(f"arc {arc} is not a sequence of at least two entries") from None
        if not all(isinstance(e, (int, np.integer)) and not isinstance(e, bool) for e in (i, j)):
            raise ValueError(f"arc ({i}, {j}) has an end that is not an integer")
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"arc ({i}, {j}) has an end outside 0..{n - 1}")
        if rest not in ([], [1.0]):
            raise ValueError(f"arc ({i}, {j}) has extra entries {rest}; only 1.0 may follow")
        ends.append((i, j))
    u, v = np.array(ends, dtype=np.int64).reshape(-1, 2).T
    return _symmetric_csr(np.arange(n) * n, np.arange(n), u, v, max(n, 1))


def _check_rows(n: int, node_tags, node_attributes) -> None:
    """Raise ValueError unless tags and attributes have one row per node."""
    for what, rows in (("node_tags", node_tags), ("node_attributes", node_attributes)):
        if rows is not None and len(rows) != n:
            raise ValueError(f"{what} has {len(rows)} rows for {n} nodes")


class GraphInstance:
    """One graph: local node ids 0..node_count-1 in symmetric CSR storage.

    Node i's neighbours, in increasing order, are
    ``indices[indptr[i]:indptr[i + 1]]``; arcs have no weights. Build it
    from a sequence of (i, j) arcs or an (arcs, 2) integer array, which
    is completed and de-duplicated as a loaded file is; CSR arrays are
    passed as their arcs, ``np.column_stack([g.arc_rows(), g.indices])``.
    Tags or attributes without one row per node raise ValueError;
    assigned after construction, they are checked when the graph is
    prepared.
    """

    def __init__(self, node_count: int, edges: list | np.ndarray | None = None,
                 node_tags: list | None = None,
                 node_attributes: np.ndarray | None = None, label: int = 0):
        self.node_count = int(node_count)
        if self.node_count < 0:
            raise ValueError(f"node_count must be non-negative, got {self.node_count}")
        _check_rows(self.node_count, node_tags, node_attributes)
        self.node_tags = node_tags
        self.node_attributes = node_attributes
        self.label = label
        self.indptr, self.indices = _csr_from_arcs(self.node_count,
                                                   [] if edges is None else edges)

    @classmethod
    def _from_symmetric(cls, node_count: int, node_tags, node_attributes, label: int,
                        indptr, indices) -> "GraphInstance":
        """A graph over CSR arrays that ``_symmetric_csr`` built from
        validated lines, with rows for every node (the loader's): the
        constructor without ``_check_rows`` and without the key path."""
        graph = cls.__new__(cls)
        graph.node_count, graph.label = int(node_count), label
        graph.node_tags, graph.node_attributes = node_tags, node_attributes
        graph.indptr, graph.indices = indptr, indices
        return graph

    def arc_rows(self) -> np.ndarray:
        """Source node of every stored arc, aligned with ``indices``."""
        return np.arange(self.node_count).repeat(self.indptr[1:] - self.indptr[:-1])

    @property
    def edges(self) -> np.ndarray:
        """The stored arcs, both directions present and sorted, as an
        (arcs, 2) int64 array of ends; built from the CSR arrays on each
        read."""
        return np.column_stack([self.arc_rows(), self.indices])


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
# loading: each file is one np.loadtxt call, or a second one over its
# non-blank lines when np.loadtxt rejects it, and a walk over its lines
# only when that fails too; every check then runs once, as a mask on
# the parsed table. Table row r is the r-th non-blank line of the file,
# so the file is read again only to name the line of a failed check.


_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1


def _lines(path: str) -> list:
    """(line number, stripped text) of every non-blank line of the file."""
    with open(path, "r", encoding="utf-8") as fh:
        return [(n, text.strip()) for n, text in enumerate(fh.read().split("\n"), start=1)
                if text.strip()]


def _table(path: str, what: str, dtype=np.int64, columns: int | None = 1,
           form: str = "", overflow: int | None = None) -> np.ndarray:
    """Comma-separated ``what`` values of one file as a 2-D array.

    A file np.loadtxt rejects, or whose column count is not ``columns``,
    is loaded again from its non-blank lines by one more np.loadtxt
    call, which is enough when whitespace-only lines were its only
    fault. Only when that fails too are the lines walked in Python, and
    the first bad line raises: a field count other than ``columns``
    (None: the first line's) as "expected ``form``", a field that is
    not a ``what``, or an integer past int64, which reads as
    ``overflow`` instead when that is given.
    """
    if not os.path.isfile(path):
        raise DatasetError(f"missing dataset file: {path}")

    def load(source):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data
                table = np.loadtxt(source, delimiter=",", dtype=dtype, ndmin=2,
                                   comments=None, encoding="utf-8")
        except ValueError:
            return None
        return table if columns in (None, table.shape[1]) else None

    table = load(path)
    if table is not None:
        return table
    with open(path, "r", encoding="utf-8") as fh:
        table = load(list(filter(None, map(str.strip, fh.read().split("\n")))))
    if table is not None:
        return table
    lines = _lines(path)
    width = columns or (len(lines[0][1].split(",")) if lines else 1)
    parse, kind = (int, "an integer") if dtype is np.int64 else (float, "a real")
    rows = []
    for n, text in lines:
        # a one-value line is not split: "1, 2" is then not a ``what``
        fields = [text] if width == 1 else text.split(",")
        if len(fields) != width:
            raise DatasetError(f"{path}:{n}: expected {form or f'{width} values'}, got {text!r}")
        row = []
        for token in fields:
            try:
                value = parse(token)
            except ValueError:
                raise DatasetError(
                    f"{path}:{n}: expected {kind} {what}, got {token.strip()!r}") from None
            if parse is int and not _INT64_MIN <= value <= _INT64_MAX:
                if overflow is None:
                    raise DatasetError(f"{path}:{n}: {what} {value} does not fit in 64 bits")
                value = overflow
            row.append(value)
        rows.append(row)
    return np.array(rows, dtype=dtype).reshape(-1, width)


def _dense_map(values: np.ndarray) -> tuple:
    """(original -> dense dict, dense array) for sorted distinct values."""
    distinct, dense = np.unique(values, return_inverse=True)
    return {int(v): i for i, v in enumerate(distinct.tolist())}, dense


def load_tu_dataset(directory: str, name: str) -> GraphDataset:
    """Load ``<name>_*.txt`` from directory into a GraphDataset."""
    prefix = os.path.join(directory, name)
    indicator_path = prefix + "_graph_indicator.txt"
    edges_path = prefix + "_A.txt"

    node_graph = _table(indicator_path, "graph id")[:, 0]
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

    labels_path = prefix + "_graph_labels.txt"
    raw_labels = _table(labels_path, "graph label")[:, 0]
    if len(raw_labels) != graph_count:
        raise DatasetError(f"{labels_path}: {len(raw_labels)} labels for {graph_count} graphs")
    label_map, labels = _dense_map(raw_labels)

    # an id past int64 reads as 0, out of range like any id past n_nodes.
    # The earliest bad arc wins, whether out of range or across graphs;
    # node 1 stands in for an id outside, in masked gathers that run only
    # when some id is outside. Per-arc temporaries stay unnamed, so their
    # memory is reused (~25 ms on 1.4M arcs).
    u, v = _table(edges_path, "node id", columns=2, form="'i, j'", overflow=0).T - 1
    inside = (u >= 0) & (u < n_nodes) & (v >= 0) & (v < n_nodes)
    bad = (node_graph[u] != node_graph[v]) if inside.all() else (
        ~inside | (node_graph[u * inside] != node_graph[v * inside]))
    if bad.any():
        row = int(np.argmax(bad))
        problem = (f"edge joins graphs {node_graph[u[row]] + 1} and {node_graph[v[row]] + 1}"
                   if inside[row] else f"node id out of range 1..{n_nodes}")
        raise DatasetError(f"{edges_path}:{_lines(edges_path)[row][0]}: {problem}")

    # every arc as one key (graph-major row, local column), int32 while
    # every key fits, which halves the sorts. The key names its arc, so
    # the sorted keys show the duplicates, each warned of by its line.
    width = int(counts.max())
    kind = np.int32 if n_nodes * width < 2 ** 31 else np.int64

    def warn_repeats(rows):
        lines = _lines(edges_path)
        for r in rows:
            warnings.warn(f"{edges_path}:{lines[r][0]}: duplicate edge "
                          f"({u[r] + 1}, {v[r] + 1})", stacklevel=4)

    row_ptr, cols = _symmetric_csr(position.astype(kind) * width, local.astype(kind),
                                   u, v, width, warn_repeats)

    tags_path = prefix + "_node_labels.txt"
    tags = None
    tag_map: dict = {}
    if os.path.isfile(tags_path):
        raw_tags = _table(tags_path, "node tag")[:, 0]
        if len(raw_tags) != n_nodes:
            raise DatasetError(f"{tags_path}: {len(raw_tags)} tags for {n_nodes} nodes")
        tag_map, tags = _dense_map(raw_tags)
        tags = tags[by_graph].tolist()

    attrs_path = prefix + "_node_attributes.txt"
    attrs = None
    if os.path.isfile(attrs_path):
        attrs = _table(attrs_path, "node attribute", np.float64, columns=None)
        if len(attrs) != n_nodes:
            raise DatasetError(f"{attrs_path}: {len(attrs)} attribute rows for {n_nodes} nodes")
        finite = np.isfinite(attrs).all(axis=1)
        if not finite.all():
            n, text = _lines(attrs_path)[int(np.argmin(finite))]
            raise DatasetError(f"{attrs_path}:{n}: non-finite attribute in {text!r}")
        attrs = attrs[by_graph]

    # the keys are sorted, distinct and symmetric, so each graph's rows
    # are too: its slices are kept as they are, with no second check
    graphs = []
    for g in range(graph_count):
        lo, hi = starts[g], starts[g + 1]
        a, b = row_ptr[lo], row_ptr[hi]
        graphs.append(GraphInstance._from_symmetric(
            hi - lo, None if tags is None else tags[lo:hi],
            None if attrs is None else attrs[lo:hi], int(labels[g]),
            row_ptr[lo:hi + 1] - a, cols[a:b]))

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


# ----------------------------------------------------------------------
# writing (round-trip support and synthetic fixtures)


def write_tu_dataset(dataset: GraphDataset, directory: str) -> None:
    """Write the dataset back out in the TU flat-file layout.

    Labels and tags are written through the inverse of the recorded
    maps when available, so a load/write/load cycle reproduces the same
    in-memory structure. The layout needs a tag and an attribute row for
    every node, so a set where only some graphs have them is rejected
    before any file is written.
    """
    for field, what in (("node_tags", "tags"), ("node_attributes", "attributes")):
        missing = [i for i, g in enumerate(dataset.graphs) if getattr(g, field) is None]
        if 0 < len(missing) < len(dataset.graphs):
            raise ValueError(f"graph {missing[0]} has no node {what} while others do: "
                             "the TU layout needs a row for every node")
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
            # one format string per graph: ~4x faster than a write per arc
            ends = np.column_stack([g.arc_rows(), g.indices]) + (off + 1)
            fh.write("%d, %d\n" * len(ends) % tuple(ends.ravel().tolist()))

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
