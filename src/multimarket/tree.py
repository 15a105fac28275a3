"""Finite event trees: the probability space and its filtration.

A scenario tree encodes a finite filtered probability space on a discrete
time grid ``0..horizon``.  Nodes are the cells of the filtration; leaves are
the atoms of the terminal sigma-algebra and carry strictly positive
probabilities summing to one.  Node ids are stable path strings ("r",
"r.0", "r.0.1", ...) so that a fixed build spec always produces the same
indexing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod
from typing import Mapping, Sequence

from .errors import (
    MalformedTopology,
    NonPositiveProbability,
    ProbabilitySumMismatch,
    SchemaError,
    SizeLimitExceeded,
)
from .numbers import Num, digit_limit, parse_scalar, past_digit_limit, tolerances

ROOT_ID = "r"
# a node id of `branching` grows with its depth, so the ids of a deep tree
# take the square of its depth in characters: more than this is refused
MAX_ID_CHARS = 2**23


@dataclass(frozen=True)
class Node:
    id: str
    time: int
    parent: str | None
    children: tuple[str, ...]

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class ScenarioTree:
    """Immutable event tree.  Construct via :func:`build_tree` only.

    ``nodes`` is insertion-ordered by (time, sibling index); ``leaves`` is the
    deterministic atom order used for every payoff vector in the package.
    """

    nodes: Mapping[str, Node]
    leaves: tuple[str, ...]
    atom_probs: Mapping[str, Num]
    horizon: int
    exact: bool
    _atoms_under: Mapping[str, tuple[str, ...]] = field(repr=False, default_factory=dict)

    # -- queries ----------------------------------------------------------

    def node(self, node_id: str) -> Node:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise MalformedTopology(f"unknown node {node_id!r}") from None

    def children(self, node_id: str) -> tuple[str, ...]:
        return self.node(node_id).children

    def atoms_under(self, node_id: str) -> tuple[str, ...]:
        return self._atoms_under[node_id]

    @property
    def root(self) -> str:
        """The first node: `nodes` is in time order."""
        return next(iter(self.nodes))

    def node_prob(self, node_id: str) -> Num:
        return sum(self.atom_probs[a] for a in self.atoms_under(node_id))

    def nonterminal(self) -> tuple[str, ...]:
        return tuple(n for n in self.nodes if self.nodes[n].children)

def _explicit_nodes(spec) -> dict[str, Node]:
    """Assemble nodes from an explicit [(id, parent)] listing."""
    parents: dict[str, str | None] = {}
    order: list[str] = []
    for entry in spec:
        if isinstance(entry, dict) and "id" in entry:
            node_id, parent = entry["id"], entry.get("parent")
        elif isinstance(entry, (list, tuple)) and len(entry) == 2:
            node_id, parent = entry
        else:
            raise SchemaError(f"node entry {entry!r} is not an (id, parent) pair")
        if not isinstance(node_id, str) or not (parent is None or isinstance(parent, str)):
            raise SchemaError(f"node entry {entry!r} needs a string id and parent")
        if node_id in parents:
            raise MalformedTopology(f"duplicate node id {node_id!r}")
        parents[node_id] = parent
        order.append(node_id)
    roots = [n for n, p in parents.items() if p is None]
    if len(roots) != 1:
        raise MalformedTopology(f"expected exactly one root, found {len(roots)}")
    children: dict[str, list[str]] = {n: [] for n in order}
    for node_id in order:
        parent = parents[node_id]
        if parent is None:
            continue
        if parent not in parents:
            raise MalformedTopology(f"node {node_id!r} has unknown parent {parent!r}")
        children[parent].append(node_id)

    # times by a walk down from the root; a node it never reaches sits on
    # (or under) a parent cycle
    times = {roots[0]: 0}
    frontier = [roots[0]]
    while frontier:
        node_id = frontier.pop()
        for child in children[node_id]:
            times[child] = times[node_id] + 1
            frontier.append(child)
    if len(times) != len(order):
        cycle = next(n for n in order if n not in times)
        raise MalformedTopology(f"node {cycle!r} is not reachable from the root (parent cycle)")
    # a stable sort keeps listing order within each time
    return {
        n: Node(n, times[n], parents[n], tuple(children[n]))
        for n in sorted(order, key=times.__getitem__)
    }


def _check_atom_probs(atom_probs, atoms: int) -> None:
    """`atom_probs` is a map or a list with one entry per atom."""
    if isinstance(atom_probs, Mapping):
        if len(atom_probs) != atoms:
            raise MalformedTopology("atom probabilities must cover exactly the leaves")
    elif not isinstance(atom_probs, Sequence) or isinstance(atom_probs, str):
        raise SchemaError(f"atom_probs must be a map or a list, got {atom_probs!r}")
    elif len(atom_probs) != atoms:
        if past_digit_limit(atoms):
            atoms = f"at least 10**{digit_limit()}"
        raise MalformedTopology(f"{len(atom_probs)} probabilities for {atoms} atoms")


def _id_chars(branching: Sequence[int]) -> int:
    """The total length of the node ids that `_branching_nodes` builds for
    these counts, from the counts alone: a child's id is its parent's id, a
    dot and its index."""
    nodes = 1
    total = chars = len(ROOT_ID)
    for count in branching:
        # the digits of the indices 0..count-1: one each, one more per power
        # of ten that an index reaches
        digits, power = count, 10
        while power < count:
            digits += count - power
            power *= 10
        chars = count * chars + nodes * (count + digits)
        nodes *= count
        total += chars
    return total


def _branching_nodes(branching: Sequence[int]) -> dict[str, Node]:
    """Nodes of per-level branching counts: the (id, parent) listing,
    level by level, built as an explicit listing."""
    level: list[tuple[str, str | None]] = [(ROOT_ID, None)]
    listing = level[:]
    for count in branching:
        level = [(f"{node_id}.{k}", node_id) for node_id, _ in level for k in range(count)]
        listing += level
    return _explicit_nodes(listing)


def build_tree(branching_spec, atom_probs, exact: bool | None = None) -> ScenarioTree:
    """Build and validate a scenario tree.

    ``branching_spec`` is either per-level branching counts (e.g. ``[2, 2]``)
    or an explicit node listing of ``(id, parent)`` pairs / ``{"id", "parent"}``
    dicts.  ``atom_probs`` maps leaf id to probability, or lists probabilities
    in leaf order.  Probabilities must be strictly positive and sum to one
    (within the mode's ``feas`` tolerance, so exactly in rational mode).
    """
    if branching_spec and not isinstance(branching_spec[0], int):
        nodes = _explicit_nodes(branching_spec)
    else:
        if not branching_spec or any((not isinstance(b, int)) or b < 1 for b in branching_spec):
            raise MalformedTopology(f"branching counts must be positive ints: {branching_spec!r}")
        # the leaf count is known before any node is built, so a count far
        # beyond the probabilities given fails here, not out of memory
        _check_atom_probs(atom_probs, prod(branching_spec))
        chars = _id_chars(branching_spec)
        if chars > MAX_ID_CHARS:
            raise SizeLimitExceeded(
                f"branching would build {chars} characters of node ids, more than {MAX_ID_CHARS}"
            )
        nodes = _branching_nodes(branching_spec)

    leaves = tuple(n for n in nodes if not nodes[n].children)
    horizon = max(nodes[n].time for n in nodes)
    for leaf in leaves:
        if nodes[leaf].time != horizon:
            raise MalformedTopology(
                f"leaf {leaf!r} terminates at t={nodes[leaf].time} < horizon {horizon}"
            )

    _check_atom_probs(atom_probs, len(leaves))
    raw = dict(atom_probs) if isinstance(atom_probs, Mapping) else dict(zip(leaves, atom_probs))
    if set(raw) != set(leaves):
        raise MalformedTopology("atom probabilities must cover exactly the leaves")

    if exact is None:
        exact = not any(isinstance(v, float) for v in raw.values())
    probs = {leaf: parse_scalar(raw[leaf], exact) for leaf in leaves}
    for leaf, p in probs.items():
        if p <= 0:
            raise NonPositiveProbability(f"atom {leaf!r} has probability {p}")
    total = sum(probs.values())
    if abs(total - 1) > tolerances(exact).feas:
        raise ProbabilitySumMismatch(f"atom probabilities sum to {total}, not 1")

    # nodes are in time order, so in reverse every child precedes its parent
    atoms_under: dict[str, tuple[str, ...]] = {}
    for node_id in reversed(nodes):
        node = nodes[node_id]
        atoms_under[node_id] = (node_id,) if node.is_leaf else tuple(
            a for c in node.children for a in atoms_under[c]
        )

    return ScenarioTree(
        nodes=nodes,
        leaves=leaves,
        atom_probs=probs,
        horizon=horizon,
        exact=exact,
        _atoms_under=atoms_under,
    )
