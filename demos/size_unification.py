"""Compare the three ways graphs are fitted to fixed-width input slots.

The transformer consumes k node slots at a time. FullInput pads every
graph to the dataset maximum; PaddingPruning fixes a budget k, padding
small graphs and keeping only the first k serialized nodes of large
ones; SegmentShifting chops any graph into ceil(n/k) segments of k
slots and the model attends within each segment.
"""

import numpy as np

from segbert import Strategy, resolve_plan, unify
from segbert.dataset import GraphDataset, GraphInstance


def ring(n):
    return GraphInstance(node_count=n, edges=[(i, (i + 1) % n) for i in range(n)])


graphs = [ring(n) for n in (4, 9, 17, 28)]
ds = GraphDataset(name="RINGS", graphs=graphs, class_count=2, attr_dim=0,
                  tag_vocab_size=0, max_nodes=28,
                  avg_nodes=float(np.mean([4, 9, 17, 28])))


def describe(strategy, override=None):
    plan = resolve_plan(ds, strategy, override)
    print(f"\n{plan.strategy.value} (k={plan.k})")
    for g in graphs:
        segments = unify(g, plan)
        reals = [int(np.sum(s.real_mask)) for s in segments]
        dummies = [s.slot_count - r for s, r in zip(segments, reals)]
        kept = sum(reals)
        note = "" if kept == g.node_count else f"  (prunes to {kept})"
        print(f"  n={g.node_count:2d} -> {len(segments)} segment(s), "
              f"real per segment {reals}, dummies {dummies}{note}")


describe(Strategy.FULL_INPUT)
describe(Strategy.PADDING_PRUNING, 10)
describe(Strategy.SEGMENT_SHIFTING, 10)

print("\nDummy slots sit at the tail of the last segment, carry all-zero")
print("features, and are excluded from fusion and losses. Pruning keeps")
print("the first k nodes of whatever serialization order is in effect.")
