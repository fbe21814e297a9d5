"""Brute-force Weisfeiler-Lehman refinement, independent of the package.

Instead of an integer dictionary, each node's color is its unfolded
neighborhood tree: the round-t color is the nested tuple (round t-1
color, sorted tuple of the neighbors' round t-1 colors). Trees are
canonical values, so they compare across graphs directly. The stop
rule mirrors the library: every graph goes through the same rounds, at
most ``iterations`` of them, adopting each computed round and stopping
early once a round leaves the joint partition of all nodes of all
graphs unchanged.
"""

from graph_helpers import neighbor_sets


def _partition(colors):
    groups = {}
    for i, c in enumerate(colors):
        groups.setdefault(c, []).append(i)
    return sorted(tuple(v) for v in groups.values())


def _joint_partition(rows):
    return _partition([c for row in rows for c in row])


def brute_force_wl(graphs, iterations):
    """Per-graph lists of canonical tree colors."""
    nbrs = [neighbor_sets(g) for g in graphs]
    results = []
    for g, adj in zip(graphs, nbrs):
        if g.node_tags is not None:
            results.append([("v", int(t)) for t in g.node_tags])
        else:
            results.append([("v", len(adj[i])) for i in range(g.node_count)])
    for _ in range(max(int(iterations), 0)):
        new = [
            [(colors[i], tuple(sorted(colors[j] for j in adj[i])))
             for i in range(len(colors))]
            for colors, adj in zip(results, nbrs)
        ]
        stable = _joint_partition(new) == _joint_partition(results)
        results = new
        if stable:
            break
    return results


def partition_of(colors):
    return _partition(colors)
