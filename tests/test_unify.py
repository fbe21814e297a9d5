"""Size-unification strategies and their slot arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segbert.dataset import GraphDataset, GraphInstance
from segbert.features import build_bundles, sinusoid_rows
from segbert.model import ModelConfig, prepare_graph
from segbert.unify import (
    Segment,
    Strategy,
    UnifyPlan,
    resolve_k,
    resolve_n_adj,
    resolve_plan,
    segment_count,
    unify,
)

from conftest import cycle_graph, synth_dataset


def named_dataset(name, max_nodes=30, avg=17.9):
    return GraphDataset(name=name, graphs=[], class_count=2, attr_dim=0,
                        tag_vocab_size=0, max_nodes=max_nodes, avg_nodes=avg)


# ----------------------------------------------------------------------
# k resolution


@pytest.mark.parametrize("name,expected", [
    ("MUTAG", 25),
    (" mutag ", 25),
    ("PTC", 50),
    ("PTC_MR", 50),
    ("PTC_FM", 50),
    ("IMDB-BINARY", 50),
    ("IMDBBINARY", 50),
    ("IMDB-B", 50),
    ("IMDB-MULTI", 50),
    ("IMDBMULTI", 50),
    ("IMDB-M", 50),
    ("NCI1", 50),
    ("NCI109", 50),
    ("COLLAB", 100),
    ("PROTEINS", 100),
    ("PROTEINS_full", 100),
])
def test_padding_budgets_for_named_datasets(name, expected):
    ds = named_dataset(name)
    assert resolve_k(ds, Strategy.PADDING_PRUNING) == expected


def test_padding_budget_unknown_dataset_sits_above_average():
    assert resolve_k(named_dataset("ZZZ", avg=17.9), Strategy.PADDING_PRUNING) == 20
    assert resolve_k(named_dataset("ZZZ", avg=20.0), Strategy.PADDING_PRUNING) == 25


def test_full_input_k_is_dataset_maximum():
    ds = named_dataset("MUTAG", max_nodes=28)
    assert resolve_k(ds, Strategy.FULL_INPUT) == 28
    assert resolve_k(ds, Strategy.FULL_INPUT, override=28) == 28


def test_full_input_rejects_small_override():
    ds = named_dataset("MUTAG", max_nodes=28)
    with pytest.raises(ValueError, match="below max_nodes"):
        resolve_k(ds, Strategy.FULL_INPUT, override=5)
    with pytest.raises(ValueError, match="pins k"):
        resolve_k(ds, Strategy.FULL_INPUT, override=99)


def test_segment_shifting_default_and_override():
    ds = named_dataset("ANY")
    assert resolve_k(ds, Strategy.SEGMENT_SHIFTING) == 20
    assert resolve_k(ds, Strategy.SEGMENT_SHIFTING, override=7) == 7
    with pytest.raises(ValueError, match="positive"):
        resolve_k(ds, Strategy.PADDING_PRUNING, override=0)


def test_resolve_plan_accepts_strings():
    ds = named_dataset("MUTAG", max_nodes=28)
    plan = resolve_plan(ds, "padding-pruning")
    assert plan == UnifyPlan(Strategy.PADDING_PRUNING, 25)


def test_n_adj_resolution():
    ds = named_dataset("X", max_nodes=28)
    assert resolve_n_adj(ds, UnifyPlan(Strategy.FULL_INPUT, 28)) == 28
    assert resolve_n_adj(ds, UnifyPlan(Strategy.PADDING_PRUNING, 25)) == 25
    # 28 nodes in blocks of 20 -> 2 segments -> rows cover 40 columns
    assert resolve_n_adj(ds, UnifyPlan(Strategy.SEGMENT_SHIFTING, 20)) == 40


# ----------------------------------------------------------------------
# segment construction


def test_full_input_pads_to_k():
    g = cycle_graph(12)
    segs = unify(g, UnifyPlan(Strategy.FULL_INPUT, 20))
    assert len(segs) == 1
    s = segs[0]
    assert s.slot_count == 20
    assert s.node_ids.tolist() == list(range(12)) + [-1] * 8
    assert s.real_mask.sum() == 12
    assert not s.real_mask[12:].any()  # dummies at the tail


def test_full_input_rejects_oversized_graph():
    with pytest.raises(ValueError, match="node_count"):
        unify(cycle_graph(30), UnifyPlan(Strategy.FULL_INPUT, 20))


def test_padding_pruning_keeps_first_k_of_order():
    g = cycle_graph(30)
    segs = unify(g, UnifyPlan(Strategy.PADDING_PRUNING, 25))
    assert len(segs) == 1
    assert segs[0].node_ids.tolist() == list(range(25))

    reversed_order = list(range(29, -1, -1))
    segs = unify(g, UnifyPlan(Strategy.PADDING_PRUNING, 25), order=reversed_order)
    assert segs[0].node_ids.tolist() == reversed_order[:25]


def test_segment_shifting_28_nodes_k20():
    g = cycle_graph(28)
    segs = unify(g, UnifyPlan(Strategy.SEGMENT_SHIFTING, 20))
    assert len(segs) == 2
    assert segs[0].node_ids.tolist() == list(range(20))
    assert segs[0].real_mask.all()
    assert segs[1].node_ids.tolist() == list(range(20, 28)) + [-1] * 12
    assert segs[1].real_mask.sum() == 8


def test_segment_shifting_exact_multiple_has_no_dummies():
    g = cycle_graph(40)
    segs = unify(g, UnifyPlan(Strategy.SEGMENT_SHIFTING, 20))
    assert len(segs) == 2
    assert all(s.real_mask.all() for s in segs)


def test_dummy_slots_get_zero_features():
    g = cycle_graph(3)
    g.node_tags = [0, 1, 2]
    features = build_bundles(g, n_adj=5)
    cfg = ModelConfig(hidden_dim=4, head_count=2, intermediate_dim=4,
                      use_tags=True, n_adj=5, segment_k=5)
    gi = prepare_graph(g, features, UnifyPlan(Strategy.FULL_INPUT, 5), cfg)
    adj_rows = gi.adj_rows.toarray()
    assert np.array_equal(adj_rows[:3], features.adjacency.toarray())
    # dummies: degree 0, WL code 0, no tag, zero adjacency, no attributes
    zero = sinusoid_rows([0.0], 4)[0]
    assert np.array_equal(gi.const_rows[3:], np.tile(zero + zero, (2, 1)))
    assert np.array_equal(adj_rows[3:], np.zeros((2, 5)))
    assert gi.attr_rows is None
    assert gi.real_slots.tolist() == [0, 1, 2]


def test_unify_validates_order():
    g = cycle_graph(4)
    # a repeat, a missing index, too short, too long
    for order in ([0, 1, 1, 2], [0, 1, 2, 4], [0, 1, 2], [0, 1, 2, 3, 4]):
        with pytest.raises(ValueError, match="permutation"):
            unify(g, UnifyPlan(Strategy.FULL_INPUT, 4), order=order)


@pytest.mark.parametrize("strategy", list(Strategy))
def test_unify_order_array_matches_list(strategy):
    g = cycle_graph(11)
    order = [3, 10, 0, 7, 1, 9, 2, 8, 4, 6, 5]
    plan = UnifyPlan(strategy, 11 if strategy is Strategy.FULL_INPUT else 4)
    from_list = unify(g, plan, order=order)
    from_array = unify(g, plan, order=np.array(order, dtype=np.int32))
    assert [s.node_ids.tolist() for s in from_array] == [s.node_ids.tolist() for s in from_list]
    assert from_list[0].node_ids[:4].tolist() == order[:4]


@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("k", [0, -3])
def test_unify_rejects_non_positive_k(strategy, k):
    with pytest.raises(ValueError, match="k must be positive"):
        unify(cycle_graph(4), UnifyPlan(strategy, k))
    with pytest.raises(ValueError, match=f"k must be positive, got {k}"):
        segment_count(4, k)


# ----------------------------------------------------------------------
# slot arithmetic properties


@settings(max_examples=300, deadline=None)
@given(n=st.integers(min_value=1, max_value=600), k=st.integers(min_value=1, max_value=120))
def test_slot_arithmetic_property(n, k):
    g = GraphInstance(node_count=n, edges=[])

    pp = unify(g, UnifyPlan(Strategy.PADDING_PRUNING, k))
    assert len(pp) == 1
    assert sum(s.real_mask.sum() for s in pp) == min(n, k)

    ss = unify(g, UnifyPlan(Strategy.SEGMENT_SHIFTING, k))
    assert len(ss) == segment_count(n, k) == -(-n // k)
    assert sum(int(s.real_mask.sum()) for s in ss) == n
    assert all(s.slot_count == k for s in ss)
    # dummy slots only at the tail of the last segment
    for s in ss[:-1]:
        assert s.real_mask.all()
    tail = ss[-1].real_mask
    boundary = int(tail.sum())
    assert tail[:boundary].all() and not tail[boundary:].any()

    if n <= k:
        fi = unify(g, UnifyPlan(Strategy.FULL_INPUT, k))
        assert len(fi) == 1
        assert int(fi[0].real_mask.sum()) == n
