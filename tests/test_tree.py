from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multimarket.errors import (
    MalformedTopology,
    NonPositiveProbability,
    ProbabilitySumMismatch,
)
from multimarket.tree import _branching_nodes, _id_chars, build_tree
from stopping import (
    StoppingTime,
    enumerate_stopping_times,
    sample_stopping_time_pairs,
    sample_stopping_times,
)


def test_minimal_binary_tree():
    tree = build_tree([2], {"r.0": "1/2", "r.1": "1/2"})
    assert len(tree.nodes) == 3
    assert tree.children("r") == ("r.0", "r.1")
    assert tree.leaves == ("r.0", "r.1")
    assert tree.horizon == 1


def test_two_period_uniform():
    tree = build_tree([2, 2], ["1/4"] * 4)
    assert len(tree.nodes) == 7
    assert len(tree.leaves) == 4
    assert all(tree.atom_probs[a] == F(1, 4) for a in tree.leaves)


def test_probability_sum_mismatch():
    with pytest.raises(ProbabilitySumMismatch):
        build_tree([2], ["0.6", "0.5"])


def test_nonpositive_probability():
    with pytest.raises(NonPositiveProbability):
        build_tree([2], ["0", "1"])


def test_explicit_nodes_and_malformed():
    tree = build_tree(
        [("a", None), ("b", "a"), ("c", "a")], {"b": "1/3", "c": "2/3"}
    )
    assert tree.leaves == ("b", "c")
    with pytest.raises(MalformedTopology):
        build_tree([("a", None), ("b", "a"), ("c", "b")], {"b": "1/2", "c": "1/2"})
    with pytest.raises(MalformedTopology):
        build_tree([("a", None), ("b", None)], {"a": "1/2", "b": "1/2"})


@pytest.mark.parametrize("branching", [[2], [10], [11], [3, 2], [1] * 40, [101, 2], [12, 1, 3], [1000]])
def test_id_chars_counts_the_ids_that_branching_builds(branching):
    assert _id_chars(branching) == sum(map(len, _branching_nodes(branching)))


def test_build_is_deterministic():
    one = build_tree([3, 2], [f"{w}/21" for w in (1, 2, 3, 4, 5, 6)])
    two = build_tree([3, 2], [f"{w}/21" for w in (1, 2, 3, 4, 5, 6)])
    assert list(one.nodes) == list(two.nodes)
    assert one.leaves == two.leaves
    assert one.atom_probs == two.atom_probs


@given(
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    st.integers(0, 10_000),
)
def test_node_probability_consistency(branching, salt):
    import random

    rng = random.Random(salt)
    leaves = 1
    for b in branching:
        leaves *= b
    weights = [rng.randint(1, 9) for _ in range(leaves)]
    total = sum(weights)
    tree = build_tree(branching, [F(w, total) for w in weights])
    assert tree.node_prob(tree.root) == 1
    for node_id in tree.nonterminal():
        children_mass = sum(tree.node_prob(c) for c in tree.children(node_id))
        assert tree.node_prob(node_id) == children_mass


def test_constant_stopping_times_valid():
    tree = build_tree([2, 2], ["1/4"] * 4)
    StoppingTime(frozenset(tree.leaves)).validate(tree)
    StoppingTime(frozenset({"r"})).validate(tree)
    with pytest.raises(MalformedTopology):
        StoppingTime(frozenset({"r", "r.0"})).validate(tree)


def test_sampled_antichains_among_enumerated():
    tree = build_tree([2, 2], ["1/4"] * 4)
    every = set(enumerate_stopping_times(tree))
    assert len(every) == 5
    sampled = sample_stopping_times(tree, 25, seed=11)
    for st_ in sampled:
        assert st_.antichain in every
    again = sample_stopping_times(tree, 25, seed=11)
    assert [s.antichain for s in sampled] == [s.antichain for s in again]


def test_sampled_pairs_are_ordered():
    tree = build_tree([2, 3], [f"1/6"] * 6)
    for earlier, later in sample_stopping_time_pairs(tree, 40, seed=3):
        for leaf in tree.leaves:
            assert earlier.value_at(tree, leaf) <= later.value_at(tree, leaf)
