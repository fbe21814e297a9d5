"""Graph-size unification: map a variable-size graph onto fixed slots.

Three strategies, one rule: keep a prefix of the node serialization
order, pad it with -1 to a whole number of segments of k slots, and cut
that one slot -> node array into k-wide segments. FullInput keeps every
node and pins k to the dataset maximum, so a graph fills one segment;
PaddingPruning keeps the first k nodes under a per-dataset budget k,
so one segment too; SegmentShifting keeps every node in ceil(n/k)
segments. A -1 slot is a dummy: it carries all-zero features, sits at
the tail of the last segment, takes part in attention like any other
slot, and is excluded from fusion and losses downstream.
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
# average instance; a name takes the first row it starts with, so TU
# variants (PTC_MR, PROTEINS_full, IMDB-BINARY) hit the intended row
_PADDING_K = {
    "MUTAG": 25,
    "PTC": 50,
    "IMDBBINARY": 50,
    "IMDB-B": 50,
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
    """k slots; ``node_ids`` holds each slot's original node index, or
    -1 at a dummy slot."""

    node_ids: np.ndarray

    @property
    def slot_count(self) -> int:
        return len(self.node_ids)

    @property
    def real_mask(self) -> np.ndarray:
        return self.node_ids >= 0


def _named_padding_k(name: str) -> int | None:
    key = name.strip().upper()
    return next((k for prefix, k in _PADDING_K.items() if key.startswith(prefix)), None)


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
    0..n-1). The kept prefix of that order (its first k entries under
    PaddingPruning, all of it otherwise) is padded with -1 to whole
    segments of k slots; the Segments are the k-wide rows of that one
    int64 array.
    """
    n = g.node_count
    if order is None:
        order = np.arange(n, dtype=np.int64)
    else:
        order = np.asarray(order, dtype=np.int64)
        if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("order must be a permutation of the node indices")
    k = plan.k
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if plan.strategy is Strategy.FULL_INPUT and n > k:
        raise ValueError(
            f"full-input requires k >= node_count, got k={k} for {n} nodes")

    kept = order[:k] if plan.strategy is Strategy.PADDING_PRUNING else order
    slots = np.full(segment_count(len(kept), k) * k, -1, dtype=np.int64)
    slots[:len(kept)] = kept
    return [Segment(row) for row in slots.reshape(-1, k)]
