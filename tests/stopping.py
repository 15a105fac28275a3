"""Stopping times on a scenario tree, for the tests.

A stopping time is an antichain of nodes crossed exactly once by every
root-to-leaf path.  The tests use these samplers to check the spanning
reduction that `multimarket.gains` rests on: every simple strategy over
stopping times generates a claim in the span of the elementary gains.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from multimarket.errors import MalformedTopology
from multimarket.tree import ScenarioTree


def _path(tree: ScenarioTree, leaf_id: str) -> list[str]:
    """Root-to-leaf node sequence, by a walk up the parents."""
    path = [leaf_id]
    while tree.node(path[-1]).parent is not None:
        path.append(tree.node(path[-1]).parent)
    return path[::-1]


def node_on_path(tree: ScenarioTree, leaf_id: str, antichain: frozenset[str]) -> str:
    for node_id in _path(tree, leaf_id):
        if node_id in antichain:
            return node_id
    raise MalformedTopology(f"antichain misses atom {leaf_id!r}")


@dataclass(frozen=True)
class StoppingTime:
    """An antichain of nodes crossed exactly once by every root-to-leaf path."""

    antichain: frozenset[str]

    def validate(self, tree: ScenarioTree) -> None:
        for node_id in self.antichain:
            tree.node(node_id)
        for leaf in tree.leaves:
            hits = [n for n in _path(tree, leaf) if n in self.antichain]
            if len(hits) != 1:
                raise MalformedTopology(
                    f"antichain crosses atom {leaf!r} {len(hits)} times"
                )

    def value_at(self, tree: ScenarioTree, leaf: str) -> int:
        return tree.node(node_on_path(tree, leaf, self.antichain)).time


def _random_cut(tree: ScenarioTree, rng: random.Random, stop_within: frozenset[str] | None) -> frozenset[str]:
    """Random antichain covering all atoms; never descends past `stop_within`."""
    chosen: list[str] = []

    def walk(node_id: str) -> None:
        node = tree.node(node_id)
        must_stop = node.is_leaf or (stop_within is not None and node_id in stop_within)
        if must_stop or rng.random() < 0.5:
            chosen.append(node_id)
        else:
            for child in node.children:
                walk(child)

    walk(tree.root)
    return frozenset(chosen)


def sample_stopping_times(tree: ScenarioTree, count: int, seed: int) -> list[StoppingTime]:
    """Deterministically sample valid stopping times (as antichains)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        st = StoppingTime(_random_cut(tree, rng, None))
        st.validate(tree)
        out.append(st)
    return out


def sample_stopping_time_pairs(
    tree: ScenarioTree, count: int, seed: int
) -> list[tuple[StoppingTime, StoppingTime]]:
    """Sample ordered pairs b1 <= b2: b1's crossing node is always an ancestor
    (or equal) of b2's on every path."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        later = StoppingTime(_random_cut(tree, rng, None))
        earlier = StoppingTime(_random_cut(tree, rng, later.antichain))
        later.validate(tree)
        earlier.validate(tree)
        pairs.append((earlier, later))
    return pairs


def enumerate_stopping_times(tree: ScenarioTree) -> list[frozenset[str]]:
    """All antichains covering the atom set (exponential; small trees only)."""

    def cuts(node_id: str) -> list[list[str]]:
        node = tree.node(node_id)
        result = [[node_id]]
        if node.children:
            partial: list[list[str]] = [[]]
            for child in node.children:
                partial = [p + c for p in partial for c in cuts(child)]
            result.extend(partial)
        return result

    return [frozenset(c) for c in cuts(tree.root)]
