"""Graph-size unification: map a variable-size graph onto fixed slots.

Three strategies. FullInput sizes every instance to the dataset
maximum; PaddingPruning uses a per-dataset budget k, padding small
graphs and keeping only the first k nodes of the serialization order
for large ones; SegmentShifting chops the node sequence into ceil(n/k)
segments of k slots. Dummy slots carry all-zero features, sit at the
tail of the last segment, take part in attention like any other slot,
and are excluded from fusion and losses downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import GraphDataset, GraphInstance

__all__ = [
    "Strategy",
    "UnifyPlan",
    "Segment",
    "resolve_k",
    "resolve_plan",
    "resolve_n_adj",
    "segment_count",
    "unify",
]


class Strategy(str, Enum):
    FULL_INPUT = "full-input"
    PADDING_PRUNING = "padding-pruning"
    SEGMENT_SHIFTING = "segment-shifting"


# per-dataset padding/pruning budgets, sized slightly above the
# average instance; lookups fall back to prefix matching so TU variant
# suffixes (PTC_MR, PROTEINS_full) hit the intended row
_PADDING_K = {
    "MUTAG": 25,
    "PTC": 50,
    "IMDB-BINARY": 50,
    "IMDBBINARY": 50,
    "IMDB-B": 50,
    "IMDB-MULTI": 50,
    "IMDBMULTI": 50,
    "IMDB-M": 50,
    "NCI1": 50,
    "COLLAB": 100,
    "PROTEINS": 100,
}

DEFAULT_SEGMENT_K = 20


@dataclass(frozen=True)
class UnifyPlan:
    strategy: Strategy
    k: int


@dataclass
class Segment:
    """k slots; node_ids holds the original node index or None."""

    slot_count: int
    node_ids: list
    real_mask: np.ndarray


def _named_padding_k(name: str) -> int | None:
    key = name.strip().upper()
    if key in _PADDING_K:
        return _PADDING_K[key]
    for prefix, k in _PADDING_K.items():
        if key.startswith(prefix):
            return k
    return None


def resolve_k(dataset: GraphDataset, strategy: Strategy,
              override: int | None = None) -> int:
    """Slot budget for a dataset under a strategy.

    FullInput pins k to the dataset maximum and rejects overrides that
    disagree. PaddingPruning uses the named budget table, or for
    unlisted datasets the smallest multiple of 5 strictly above the
    average size. SegmentShifting defaults to 20.
    """
    strategy = Strategy(strategy)
    if strategy is Strategy.FULL_INPUT:
        if override is not None and override != dataset.max_nodes:
            if override < dataset.max_nodes:
                raise ValueError(
                    f"full-input forbids a k override below max_nodes: "
                    f"k={override} but the largest graph has {dataset.max_nodes} nodes")
            raise ValueError(
                f"full-input pins k to max_nodes ({dataset.max_nodes}); got {override}")
        return dataset.max_nodes
    if override is not None:
        if override <= 0:
            raise ValueError(f"k must be positive, got {override}")
        return int(override)
    if strategy is Strategy.PADDING_PRUNING:
        named = _named_padding_k(dataset.name)
        if named is not None:
            return named
        return int(math.floor(dataset.avg_nodes / 5.0) * 5 + 5)
    return DEFAULT_SEGMENT_K


def resolve_plan(dataset: GraphDataset, strategy, override: int | None = None) -> UnifyPlan:
    strategy = Strategy(strategy)
    return UnifyPlan(strategy=strategy, k=resolve_k(dataset, strategy, override))


def resolve_n_adj(dataset: GraphDataset, plan: UnifyPlan) -> int:
    """Adjacency-row width: k, or for SegmentShifting the dataset
    maximum rounded up to a whole number of segments."""
    if plan.strategy is Strategy.SEGMENT_SHIFTING:
        return segment_count(dataset.max_nodes, plan.k) * plan.k
    return plan.k


def segment_count(node_count: int, k: int) -> int:
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return max(1, math.ceil(node_count / k))


def unify(g: GraphInstance, plan: UnifyPlan, order=None) -> list:
    """Slot assignment for one graph; returns a list of Segments.

    ``order`` optionally re-serializes the nodes (a permutation of
    0..n-1). Pruning keeps the first k entries of that order;
    segmenting chops it into consecutive runs.
    """
    n = g.node_count
    if order is None:
        order = list(range(n))
    else:
        order = [int(i) for i in order]
        if sorted(order) != list(range(n)):
            raise ValueError("order must be a permutation of the node indices")
    k = plan.k
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")

    if plan.strategy is Strategy.FULL_INPUT:
        if n > k:
            raise ValueError(
                f"full-input requires k >= node_count, got k={k} for {n} nodes")
        kept = order
        chunk_count = 1
    elif plan.strategy is Strategy.PADDING_PRUNING:
        kept = order[:k]
        chunk_count = 1
    else:
        kept = order
        chunk_count = segment_count(n, k)

    segments = []
    for c in range(chunk_count):
        ids = kept[c * k:(c + 1) * k]
        pad = k - len(ids)
        slot_ids = list(ids) + [None] * pad
        mask = np.array([i is not None for i in slot_ids], dtype=bool)
        segments.append(Segment(slot_count=k, node_ids=slot_ids, real_mask=mask))
    return segments
