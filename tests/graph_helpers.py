"""Small graph and embedding helpers that only the tests use."""

import numpy as np

from segbert.dataset import GraphInstance
from segbert.features import sinusoid_rows


def positional_embedding(value: float, d_h: int) -> np.ndarray:
    """Sinusoid vector of an integer-valued feature.

    Entry 2l is sin(value / 10000^(2l/d_h)) and entry 2l+1 is
    cos(value / 10000^((2l+1)/d_h)); d_h must be even. Value 0 maps to
    [0, 1, 0, 1, ...].
    """
    return sinusoid_rows(np.array([float(value)]), d_h)[0]


def weight_matrix(g: GraphInstance) -> np.ndarray:
    """Dense node_count x node_count connection-weight matrix."""
    w = np.zeros((g.node_count, g.node_count))
    w[g.arc_rows(), g.indices] = g.weights
    return w


def neighbor_sets(g: GraphInstance) -> list[set]:
    ptr, nbrs = g.indptr.tolist(), g.indices.tolist()
    return [set(nbrs[ptr[i]:ptr[i + 1]]) for i in range(g.node_count)]


def undirected_edge_count(g: GraphInstance) -> int:
    # self-loops appear once in the arc list, other edges twice
    loops = int(np.count_nonzero(g.arc_rows() == g.indices))
    return (len(g.indices) - loops) // 2 + loops
