"""Node feature extraction for graph instances.

Four ingredients feed the model's initial embeddings: node degrees,
Weisfeiler-Lehman structural codes, truncated adjacency rows under the
graph's fixed artificial node order, and the raw attribute vector when
the dataset has one. Degrees, WL codes and node tags are turned into
vectors through the same sinusoidal value embedding.

Adjacency rows stay sparse: ``CsrRows`` holds the graph's own CSR
arrays cut to the first n_adj columns, so their cost is O(arcs) rather
than O(nodes x n_adj) whatever the row width. They stay plain numpy
arrays until a product needs them as a scipy matrix.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy import sparse

from .dataset import GraphDataset, GraphInstance

__all__ = [
    "CsrRows",
    "GraphFeatures",
    "compute_degrees",
    "dataset_wl_codes",
    "sinusoid_rows",
    "build_bundles",
    "dataset_bundles",
]

DEFAULT_WL_ITERATIONS = 2


def compute_degrees(g: GraphInstance) -> np.ndarray:
    """Distinct-neighbor count per node; a self-loop counts once."""
    return g.indptr[1:] - g.indptr[:-1]


# ----------------------------------------------------------------------
# Weisfeiler-Lehman color refinement


def dataset_wl_codes(graphs: Sequence[GraphInstance],
                     iterations: int = DEFAULT_WL_ITERATIONS) -> list:
    """WL codes for a whole collection under one shared dictionary.

    The collection is refined as one disjoint union, so every graph
    goes through the same rounds. A node starts from its tag, or its
    degree when the graph has no tags. Each round recolors every node
    by signature (own color, sorted multiset of neighbor colors)
    through a fresh table built in node order. Refinement stops after
    ``iterations`` rounds, or sooner once a round leaves the number of
    colors, and so the joint partition, unchanged. Codes are 0..C-1 in
    order of first appearance; two nodes, in one graph or in two, share
    a code exactly when their refinement trees of that depth are equal.

    A signature is one run of int32 words, the own color and then the
    sorted neighbor colors, and the table is keyed by the run's bytes.
    A round sorts once: the keys ``node * span + neighbor color``, where
    ``span`` is the color count, int32 while ``nodes * span < 2**31``
    and int64 past it.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be non-negative, got {iterations}")
    if not graphs:
        return []
    bounds = [0, *itertools.accumulate(g.node_count for g in graphs)]
    nodes = bounds[-1]
    per_graph = [compute_degrees(g) for g in graphs]
    degrees = np.concatenate(per_graph)
    owner = np.arange(nodes, dtype=np.int32).repeat(degrees)
    neighbor = np.concatenate([g.indices + lo for g, lo in zip(graphs, bounds)])
    init = [d if g.node_tags is None else np.asarray(g.node_tags).reshape(-1)
            for g, d in zip(graphs, per_graph)]
    for i, (g, start) in enumerate(zip(graphs, init)):
        if len(start) != g.node_count:  # tags assigned after construction
            raise ValueError(f"graph {i}: tags has {len(start)} rows for {g.node_count} nodes")
    init = np.concatenate(init)
    table: dict = {}
    flat = [table.setdefault(v, len(table)) for v in init.tolist()]
    # node i's signature is the run words[first[i]:first[i + 1]]: its
    # own color, then its neighbor colors in increasing order
    first = np.arange(nodes + 1)
    first[1:] += degrees.cumsum()
    own, near = first[:-1], np.arange(len(owner)) + owner + 1
    words = np.empty(first[-1], dtype=np.int32)  # colors < nodes < 2**31
    cuts = (first * words.itemsize).tolist()
    for _ in range(int(iterations)):
        span = len(table)  # colors lie in 0..span-1
        colors = np.array(flat, dtype=np.int32)
        # one sort, default kind (the colors come in no order), groups
        # each node's neighbor colors in increasing order
        base = np.multiply(owner, span, dtype=np.int32 if nodes * span < 2 ** 31 else np.int64)
        key = np.sort(base + colors[neighbor])
        words[near] = key - base
        words[own] = colors
        runs = words.tobytes()
        table = {}
        flat = [table.setdefault(runs[lo:hi], len(table)) for lo, hi in itertools.pairwise(cuts)]
        if len(table) == span:  # refinement never merges: stable
            break
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


# ----------------------------------------------------------------------
# sinusoidal value embedding


def sinusoid_rows(values, d_h: int) -> np.ndarray:
    """Sinusoid rows of integer-valued features: (n,) values to n x d_h.

    Entry 2l of a row is sin(value / 10000^(2l/d_h)) and entry 2l+1 is
    cos(value / 10000^((2l+1)/d_h)); d_h must be even. Value 0 maps to
    [0, 1, 0, 1, ...]. A row depends on its own value only, so the rows
    of repeated values may be computed once and gathered.
    """
    if d_h <= 0 or d_h % 2 != 0:
        raise ValueError(f"embedding width must be a positive even number, got {d_h}")
    v = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    ls = np.arange(d_h // 2, dtype=np.float64)
    sin_div = np.power(10000.0, 2.0 * ls / d_h)
    cos_div = np.power(10000.0, (2.0 * ls + 1.0) / d_h)
    out = np.empty((v.shape[0], d_h))
    out[:, 0::2] = np.sin(v / sin_div)
    out[:, 1::2] = np.cos(v / cos_div)
    return out


# ----------------------------------------------------------------------
# per-graph feature arrays


@dataclass(frozen=True)
class CsrRows:
    """Sparse 0/1 rows ``width`` columns wide, in CSR form.

    Row i has a 1 at the columns ``indices[indptr[i]:indptr[i + 1]]``;
    every other entry is 0.
    """

    indptr: np.ndarray  # (rows + 1,) int64
    indices: np.ndarray  # (nnz,) int64
    width: int

    @property
    def row_count(self) -> int:
        return len(self.indptr) - 1

    def take(self, rows: np.ndarray) -> "CsrRows":
        """The rows listed in ``rows``, in that order; -1 gives an empty row."""
        starts = self.indptr[rows]
        # row -1 spans indptr[-1] to indptr[0], a count of -nnz, clipped to 0
        counts = np.maximum(self.indptr[rows + 1] - starts, 0)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        counts.cumsum(out=indptr[1:])
        src = np.arange(indptr[-1]) + (starts - indptr[:-1]).repeat(counts)
        return CsrRows(indptr, self.indices[src], self.width)

    @staticmethod
    def stack(parts: Sequence["CsrRows"]) -> "CsrRows":
        """The rows of every part, in order; a single part as it is."""
        if len(parts) == 1:
            return parts[0]
        nnz = np.cumsum([0] + [len(p.indices) for p in parts])
        indptr = np.concatenate([p.indptr[:-1] + off for p, off in zip(parts, nnz)]
                                + [nnz[-1:]])
        return CsrRows(indptr, np.concatenate([p.indices for p in parts]), parts[0].width)

    @cached_property
    def matrix(self) -> sparse.csr_array:
        """The rows as a scipy CSR array of unit data sharing these index
        arrays, built on first use and kept."""
        return sparse.csr_array((np.ones(len(self.indices)), self.indices, self.indptr),
                                shape=(self.row_count, self.width))


@dataclass
class GraphFeatures:
    """Everything the model needs to embed the nodes of one graph: row i
    of each array is node i. Adjacency rows follow the fixed node order,
    truncated to the first n_adj columns and kept sparse."""

    degrees: np.ndarray  # (n,) int64
    wl_codes: np.ndarray  # (n,) int64
    adjacency: CsrRows  # n rows, n_adj wide
    tags: np.ndarray | None  # (n,) int64
    attributes: np.ndarray | None  # (n, attr_dim)


def _adjacency_rows(g: GraphInstance, n_adj: int) -> CsrRows:
    """The graph's CSR arrays cut to columns below n_adj; the graph's
    own arrays when no arc reaches that far."""
    if g.node_count <= n_adj:
        return CsrRows(g.indptr, g.indices, n_adj)
    keep = g.indices < n_adj
    kept_before = np.zeros(len(keep) + 1, dtype=np.int64)
    np.cumsum(keep, out=kept_before[1:])
    return CsrRows(kept_before[g.indptr], g.indices[keep], n_adj)


def build_bundles(g: GraphInstance, n_adj: int,
                  wl_iterations: int = DEFAULT_WL_ITERATIONS,
                  wl_codes: Sequence[int] | None = None) -> GraphFeatures:
    """Feature arrays of one graph.

    Pass ``wl_codes`` from :func:`dataset_wl_codes` to keep codes
    comparable across a dataset; without it the graph gets a private
    WL dictionary.
    """
    if wl_codes is None:
        wl_codes = dataset_wl_codes([g], wl_iterations)[0]
    if len(wl_codes) != g.node_count:
        raise ValueError(
            f"wl_codes length {len(wl_codes)} does not match {g.node_count} nodes")
    return GraphFeatures(
        compute_degrees(g), np.asarray(wl_codes, dtype=np.int64),
        _adjacency_rows(g, n_adj),
        tags=None if g.node_tags is None else np.asarray(g.node_tags, dtype=np.int64),
        attributes=None if g.node_attributes is None
        else np.asarray(g.node_attributes, dtype=np.float64))


def dataset_bundles(dataset: GraphDataset, n_adj: int,
                    wl_iterations: int = DEFAULT_WL_ITERATIONS) -> list:
    """Feature arrays for every graph, WL codes shared dataset-wide."""
    codes = dataset_wl_codes(dataset.graphs, wl_iterations)
    return [build_bundles(g, n_adj, wl_iterations, wl_codes=c)
            for g, c in zip(dataset.graphs, codes)]
