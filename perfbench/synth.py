"""Seeded synthetic graph sets shaped like the TU benchmarks.

Each generator fixes the size profile of its set (graph count, node
count per graph, class and density per graph) independently of the
seed, so every seed gives the same amount of work. The seed draws the
edges, tags and attributes and shuffles the graph order. Shapes follow
Morris et al. 2020, "TUDataset" (arXiv 2007.08663):

- MUTAG: 188 graphs, avg 17.9 / max 28 nodes, 7 node tags, 2 classes
  (125 / 63). Class 0 graphs are rings with chords (no leaves), class 1
  graphs are random trees (many leaves), so the label is learnable from
  degree and WL structure alone.
- PROTEINS: 200 graphs (a sixth of the real 1113, so that one benchmark
  run holds three full 10-fold runs) at the real avg 39 / max 620
  nodes with a long tail, 3 tags plus 3 float attributes, 2 classes,
  ~3.7 average degree.
- COLLAB: 500 dense ego-nets (a tenth of the real set's 5000 graphs, at
  the real avg ~75 / max ~490 nodes), no tags, 3 classes.

Run as a script to write one set in the TU layout:
``python3 perfbench/synth.py <workload> <seed> <directory> [--tiny]``.
The benchmark runs it in a child process, so the memory the generator
uses does not count towards the benchmark's peak RSS.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

NAMES = {"mutag-pp": "MUTAG", "proteins-seg": "PROTEINS",
         "collab-dense": "COLLAB"}


def _quantile_sizes(count: int, lo: int, hi: int, power: float) -> np.ndarray:
    """Deterministic size profile lo + (hi - lo) * u**power on a grid."""
    u = (np.arange(count) + 0.5) / count
    sizes = np.rint(lo + (hi - lo) * u ** power).astype(int)
    sizes[-1] = hi
    return sizes


def _graph(n: int, pairs: np.ndarray, label: int, tags=None, attrs=None):
    from segbert import GraphInstance

    both = np.concatenate([pairs, pairs[:, ::-1]], axis=0).astype(np.int64)
    keys = np.unique(both[:, 0] * n + both[:, 1])  # sorted, duplicates dropped
    edges = [(i, j, 1.0) for i, j in zip((keys // n).tolist(), (keys % n).tolist())]
    g = GraphInstance(node_count=int(n), edges=edges, label=int(label))
    if tags is not None:
        g.node_tags = [int(t) for t in tags]
    if attrs is not None:
        g.node_attributes = attrs
    return g


def _ring_with_chords(rng, n: int) -> np.ndarray:
    ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    chords = []
    for _ in range(max(1, n // 8)):
        i = int(rng.integers(n))
        j = (i + int(rng.integers(2, max(3, n // 2)))) % n
        chords.append((i, j))
    return np.concatenate([ring, np.array(chords)], axis=0)


def _random_tree(rng, n: int) -> np.ndarray:
    # preferential parents near the root give hubs and many leaves
    parents = [int(rng.integers(max(1, i // 3))) for i in range(1, n)]
    return np.stack([np.array(parents), np.arange(1, n)], axis=1)


def mutag_like(seed: int, tiny: bool = False):
    count = 30 if tiny else 188
    sizes = _quantile_sizes(count, 10, 28, 1.28)
    labels = (np.arange(count) % 3 == 1).astype(int)  # 125 / 63 at 188
    rng = np.random.default_rng([seed, 1])
    graphs = []
    for n, y in zip(sizes, labels):
        pairs = _random_tree(rng, n) if y else _ring_with_chords(rng, n)
        graphs.append(_graph(n, pairs, y, tags=rng.integers(0, 7, size=n)))
    return graphs


def _banded(rng, n: int, reach: tuple) -> np.ndarray:
    """Backbone path plus chords to the next nodes, as in a protein
    contact graph; reach[d] is the chance of a chord of length d + 2."""
    pairs = [np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)]
    for d, p in enumerate(reach, start=2):
        src = np.arange(max(0, n - d))
        keep = src[rng.random(src.size) < p]
        pairs.append(np.stack([keep, keep + d], axis=1))
    return np.concatenate(pairs, axis=0)


def proteins_like(seed: int, tiny: bool = False):
    count = 40 if tiny else 200
    tail = np.array([45, 60]) if tiny else np.array([200, 410, 620])
    body = _quantile_sizes(count - tail.size, 4, 110, 2.61)
    sizes = np.concatenate([body, tail])
    labels = (np.arange(count) % 5 >= 3).astype(int)  # 2/5 in class 1
    rng = np.random.default_rng([seed, 2])
    graphs = []
    for n, y in zip(sizes, labels):
        reach = (0.45, 0.25) if y else (0.6, 0.4)
        tags = rng.integers(0, 3, size=n)
        attrs = np.round(rng.normal(size=(n, 3)) + 0.5 * y, 6)
        graphs.append(_graph(n, _banded(rng, n, reach), y, tags=tags,
                             attrs=attrs))
    return graphs


def collab_like(seed: int, tiny: bool = False):
    count = 30 if tiny else 500
    hi = 60 if tiny else 490
    sizes = _quantile_sizes(count, 32, hi, 9.65)
    labels = np.arange(count) % 3
    density = np.array([0.1, 0.2, 0.3])
    rng = np.random.default_rng([seed, 3])
    graphs = []
    for n, y in zip(sizes, labels):
        iu, ju = np.triu_indices(n - 1, k=1)
        keep = rng.random(iu.size) < density[y]
        alters = np.stack([iu[keep] + 1, ju[keep] + 1], axis=1)
        ego = np.stack([np.zeros(n - 1, dtype=int), np.arange(1, n)], axis=1)
        graphs.append(_graph(n, np.concatenate([ego, alters]), y))
    return graphs


GENERATORS = {"mutag-pp": mutag_like, "proteins-seg": proteins_like,
              "collab-dense": collab_like}


def generate(workload: str, seed: int, tiny: bool = False):
    """The workload's GraphDataset, graph order shuffled by the seed."""
    from segbert import GraphDataset

    graphs = GENERATORS[workload](seed, tiny)
    order = np.random.default_rng([seed, 0]).permutation(len(graphs))
    graphs = [graphs[i] for i in order]
    sizes = [g.node_count for g in graphs]
    has_tags = graphs[0].node_tags is not None
    has_attrs = graphs[0].node_attributes is not None
    return GraphDataset(
        name=NAMES[workload], graphs=graphs,
        class_count=len({g.label for g in graphs}),
        attr_dim=graphs[0].node_attributes.shape[1] if has_attrs else 0,
        tag_vocab_size=len({t for g in graphs for t in g.node_tags})
        if has_tags else 0,
        max_nodes=max(sizes), avg_nodes=float(np.mean(sizes)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(GENERATORS))
    parser.add_argument("seed", type=int)
    parser.add_argument("directory")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    from segbert import write_tu_dataset

    write_tu_dataset(generate(args.workload, args.seed, args.tiny),
                     args.directory)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.exit(main())
