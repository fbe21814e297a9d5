"""Small graph, embedding and forward helpers that only the tests use."""

from dataclasses import dataclass

import numpy as np

from segbert.autodiff import Tape, Tensor
from segbert.dataset import GraphInstance
from segbert.features import CsrRows, sinusoid_rows
from segbert.model import GraphInputs, ModelConfig, ModelParams, build_batch, encode


def positional_embedding(value: float, d_h: int) -> np.ndarray:
    """Sinusoid vector of an integer-valued feature.

    Entry 2l is sin(value / 10000^(2l/d_h)) and entry 2l+1 is
    cos(value / 10000^((2l+1)/d_h)); d_h must be even. Value 0 maps to
    [0, 1, 0, 1, ...].
    """
    return sinusoid_rows(np.array([float(value)]), d_h)[0]


def adjacency_matrix(g: GraphInstance) -> np.ndarray:
    """Dense node_count x node_count 0/1 adjacency matrix."""
    w = np.zeros((g.node_count, g.node_count))
    w[g.arc_rows(), g.indices] = 1.0
    return w


def dense_rows(rows: CsrRows) -> np.ndarray:
    """The dense (rows, width) 0/1 array of CSR rows."""
    out = np.zeros((rows.row_count, rows.width))
    out[np.arange(rows.row_count).repeat(np.diff(rows.indptr)), rows.indices] = 1.0
    return out


def arc_list(g: GraphInstance) -> list:
    """The stored arcs as (i, j) pairs, read from the CSR arrays."""
    return list(zip(g.arc_rows().tolist(), g.indices.tolist()))


def neighbor_sets(g: GraphInstance) -> list[set]:
    ptr, nbrs = g.indptr.tolist(), g.indices.tolist()
    return [set(nbrs[ptr[i]:ptr[i + 1]]) for i in range(g.node_count)]


def undirected_edge_count(g: GraphInstance) -> int:
    # self-loops appear once in the arc list, other edges twice
    loops = int(np.count_nonzero(g.arc_rows() == g.indices))
    return (len(g.indices) - loops) // 2 + loops


def recorded_sorts(monkeypatch, run) -> list:
    """(size, dtype) of every array np.sort sorts while ``run()`` runs."""
    seen = []
    sort = np.sort

    def recording_sort(a, *args, **kwargs):
        seen.append((len(a), a.dtype))
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", recording_sort)
    try:
        run()
    finally:
        monkeypatch.undo()
    return seen


@dataclass
class GraphOutput:
    h_final: Tensor
    z: Tensor
    y_hat: Tensor


def forward_graph(params: ModelParams, config: ModelConfig, gi: GraphInputs,
                  training: bool = False, tape: Tape | None = None) -> GraphOutput:
    """Reference single-graph forward pass.

    h_final holds one row per kept node, ordered by original node id;
    z is their mean; y_hat the softmax class distribution.
    """
    tape = tape or Tape()
    batch = build_batch([gi], config.class_count)
    h = encode(tape, params, config, batch, training)
    h_final = tape.take_rows(h, batch.real_slot_lists[0])
    z = tape.mean_rows(h, batch.real_slot_lists)
    logits = tape.linear(z, params["classifier.weight"], params["classifier.bias"])
    y_hat = tape.softmax_rows(logits)
    return GraphOutput(h_final=h_final, z=z, y_hat=y_hat)
