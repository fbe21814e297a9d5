"""Shared fixtures: synthetic graph datasets in the in-memory and
TU-file forms, plus discovery of real benchmark directories when the
user has placed them under SEGBERT_DATA_DIR."""

import os

import numpy as np
import pytest

from segbert.dataset import GraphDataset, GraphInstance

from graph_helpers import arc_list


def cycle_graph(n: int, label: int = 0) -> GraphInstance:
    return GraphInstance(
        node_count=n,
        edges=[(i, (i + 1) % n) for i in range(n)],
        label=label,
    )


def star_graph(n: int, label: int = 1) -> GraphInstance:
    return GraphInstance(
        node_count=n,
        edges=[(0, i) for i in range(1, n)],
        label=label,
    )


def path_graph(n: int, label: int = 0) -> GraphInstance:
    return GraphInstance(
        node_count=n,
        edges=[(i, i + 1) for i in range(n - 1)],
        label=label,
    )


def random_graph(rng, lo=3, hi=10, p=0.4, label=0) -> GraphInstance:
    """Loop-free Erdos-Renyi graph with at least a spanning path."""
    n = int(rng.integers(lo, hi + 1))
    pairs = [(i, i + 1) for i in range(n - 1)]
    for i in range(n):
        for j in range(i + 2, n):
            if rng.random() < p:
                pairs.append((i, j))
    return GraphInstance(node_count=n, edges=pairs, label=label)


def attach_tags(g: GraphInstance, vocab: int = 3) -> GraphInstance:
    g.node_tags = [i % vocab for i in range(g.node_count)]
    return g


def attach_attrs(g: GraphInstance) -> GraphInstance:
    degs = np.zeros(g.node_count)
    for i, j in arc_list(g):
        if i != j:
            degs[i] += 0.5  # each undirected edge contributes two arcs
    g.node_attributes = np.stack(
        [degs / 10.0, np.linspace(0.0, 1.0, g.node_count)], axis=1)
    return g


def synth_dataset(count: int = 24, seed: int = 0, with_tags: bool = True,
                  with_attrs: bool = False, name: str = "SYNTH",
                  lo: int = 5, hi: int = 9) -> GraphDataset:
    """Cycles (class 0) vs stars (class 1), separable by structure."""
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(count):
        n = int(rng.integers(lo, hi + 1))
        g = cycle_graph(n) if i % 2 == 0 else star_graph(n)
        if with_tags:
            attach_tags(g)
        if with_attrs:
            attach_attrs(g)
        graphs.append(g)
    sizes = [g.node_count for g in graphs]
    tag_vocab = 3 if with_tags else 0
    return GraphDataset(
        name=name,
        graphs=graphs,
        class_count=2,
        attr_dim=2 if with_attrs else 0,
        tag_vocab_size=tag_vocab,
        max_nodes=max(sizes),
        avg_nodes=float(np.mean(sizes)),
        label_map={0: 0, 1: 1},
        tag_map={i: i for i in range(tag_vocab)} if with_tags else {},
    )


def assert_arena_views(params):
    """Every tensor is a view of its own slot in the model's two arenas."""
    for name, t in params.items():
        assert np.shares_memory(t.value, params.values), name
        assert np.shares_memory(t.grad, params.grads), name
    assert np.array_equal(np.concatenate([t.value.ravel() for _, t in params.items()]),
                          params.values)
    assert np.array_equal(np.concatenate([t.grad.ravel() for _, t in params.items()]),
                          params.grads)


def real_data_dir() -> str | None:
    """Directory holding TU benchmark folders, if the user provided one."""
    for cand in (os.environ.get("SEGBERT_DATA_DIR"), "/root/pkg/data", "/root/data"):
        if cand and os.path.isdir(cand):
            return cand
    return None


def find_tu_dataset(name: str):
    """Locate <dir>/<name>/<name>_A.txt under the data dir, or None."""
    base = real_data_dir()
    if base is None:
        return None
    for sub in (os.path.join(base, name), base):
        if os.path.isfile(os.path.join(sub, f"{name}_A.txt")):
            return sub
    return None


def require_tu_dataset(name: str) -> str:
    d = find_tu_dataset(name)
    if d is None:
        pytest.skip(
            f"TU dataset {name} not present (set SEGBERT_DATA_DIR to a directory "
            f"containing {name}/{name}_A.txt); this sandbox has no network access "
            f"to fetch it")
    return d
