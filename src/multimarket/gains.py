"""Simple strategies, self-financing bookkeeping, and zero-cost claim spaces.

On a finite tree every simple strategy over stopping times generates the same
claims as one-step node-indexed predictable positions, so the attainable
zero-cost cone of a submarket is spanned by the elementary gains: hold one
unit of one asset over one step under one node, financed by the numeraire.
The spanning reduction is a tested property, not an assumption (see the
arbitrage test suite).  A gain is stored once, as a row of `numbers.to_row`
that every LP and check reads: under each child of its node, the numeraire
row times the discounted price move to that child (integers in rational
mode), exact zeros elsewhere.  Its payoff is derived on read.

Every hedge and arbitrage witness is a self-financed strategy: one walk down
the tree, `self_financing`, gives its numeraire legs and its terminal wealth.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import DimensionMismatch
from .market import MarketModel, discounted_prices
from .numbers import Num, lowest, to_row


@dataclass(frozen=True)
class GainAtom:
    """One elementary zero-cost payoff: unit position in `asset` of
    `submarket` held over the step under `node`."""

    submarket: str
    node: str
    asset: int
    row: tuple[Sequence[Num], Num]  # to_row of the payoff, by tree.leaves order

    @property
    def payoff(self) -> tuple[Num, ...]:
        """The row's values: Fractions in rational mode, floats in float mode."""
        nums, den = self.row
        if isinstance(den, float):
            return tuple(nums)
        return tuple(Fraction(n, den) for n in nums)


@dataclass(frozen=True)
class SimpleStrategy:
    """A self-financed strategy, as :func:`self_financing` builds it.

    ``risky[label][node]`` is the vector held from `node` to its children and
    ``numeraire[label][node]`` the numeraire position over the same step, for
    every non-terminal node.
    """

    risky: Mapping[str, Mapping[str, tuple[Num, ...]]]
    numeraire: Mapping[str, Mapping[str, Num]]


def elementary_gains(model: MarketModel, label: str) -> tuple[GainAtom, ...]:
    """One gain per (non-terminal node, asset index), deterministic
    order: nodes as indexed by the tree, then asset index."""
    return model._memoized(("elementary_gains", label), lambda: _elementary_gains(model, label))


def _elementary_gains(model: MarketModel, label: str) -> tuple[GainAtom, ...]:
    sub = model.submarket(label)
    tree = model.tree
    exact = model.exact
    tilde = discounted_prices(model, label)
    index = {a: k for k, a in enumerate(tree.leaves)}
    num, num_den = to_row([sub.numeraire[a] for a in tree.leaves], exact)
    zero = 0 if exact else 0.0
    out = []
    for node_id in tree.nonterminal():
        children = tree.children(node_id)
        for i, start in enumerate(tilde[node_id]):
            moves, den = to_row([tilde[c][i] - start for c in children], exact)
            row = [zero] * len(index)
            for child, move in zip(children, moves):
                for a in tree.atoms_under(child):
                    k = index[a]
                    row[k] = num[k] * move
            if exact:
                den = lowest(row, den * num_den)
            else:
                row = tuple(row)
            out.append(GainAtom(label, node_id, i, (row, den)))
    return tuple(out)


def global_gains(model: MarketModel) -> tuple[GainAtom, ...]:
    """Concatenation of every submarket's elementary gains, declared order."""
    return model._memoized(
        ("global_gains",),
        lambda: tuple(g for label in model.labels for g in elementary_gains(model, label)),
    )


def strategy_from_coefficients(
    model: MarketModel, basis: Sequence[GainAtom], coeffs: Sequence[Num]
) -> dict[str, dict[str, tuple[Num, ...]]]:
    """One-step risky positions, by submarket and node, from coefficients on
    basis gains."""
    risky: dict[str, dict[str, list[Num]]] = {s.label: {} for s in model.submarkets}
    dims = {s.label: s.dim for s in model.submarkets}
    for g, c in zip(basis, coeffs):
        positions = risky[g.submarket].setdefault(g.node, [0] * dims[g.submarket])
        positions[g.asset] = positions[g.asset] + c
    return {
        label: {node: tuple(vals) for node, vals in nodes.items()}
        for label, nodes in risky.items()
    }


def _positions(risky, label, node_id, dim):
    vec = risky.get(label, {}).get(node_id)
    if vec is None:
        return (0,) * dim
    if len(vec) != dim:
        raise DimensionMismatch(
            f"{len(vec)} positions for submarket {label!r} of dim {dim}"
        )
    return tuple(vec)


def self_financing(
    model: MarketModel,
    initial_wealth: Mapping[str, Num],
    risky: Mapping[str, Mapping[str, Sequence[Num]]],
) -> tuple[SimpleStrategy, dict[str, Num]]:
    """The self-financed strategy of one-step risky positions and its
    terminal wealth per atom: each submarket trades from its own initial
    wealth in its own numeraire, and wealth is the sum over submarkets.

    One walk per submarket down `tree.nodes`, which are in time order,
    carries each node's numeraire leg and discounted wealth.  At the root the
    leg absorbs whatever the risky positions do not use; at each later node
    it pays for the change in the risky positions at current prices.
    Discounted wealth starts at x0 / N_root and adds the one-step gain
    phi . (S~_child - S~_parent) on each step; an atom's wealth adds each
    submarket's N_leaf times its discounted wealth, in declared order.
    """
    tree = model.tree
    positions: dict[str, dict[str, tuple[Num, ...]]] = {}
    numeraire: dict[str, dict[str, Num]] = {}
    wealth = {a: 0 for a in tree.leaves}
    for sub in model.submarkets:
        phi = {n: _positions(risky, sub.label, n, sub.dim) for n in tree.nonterminal()}
        tilde = discounted_prices(model, sub.label)
        x0 = initial_wealth.get(sub.label, 0)
        legs: dict[str, Num] = {}
        acc: dict[str, Num] = {}
        for node_id, node in tree.nodes.items():
            parent = node.parent
            prices = sub.assets[node_id]
            if parent is None:
                acc[node_id] = x0 / sub.numeraire[node_id]
                if node.children:
                    spent = sum(p * s for p, s in zip(phi[node_id], prices))
                    legs[node_id] = (x0 - spent) / sub.numeraire[node_id]
                continue
            held = phi[parent]
            value = acc[parent]
            for i in range(sub.dim):
                value += held[i] * (tilde[node_id][i] - tilde[parent][i])
            acc[node_id] = value
            if node.children:
                change = sum((p - c) * s for p, c, s in zip(held, phi[node_id], prices))
                legs[node_id] = legs[parent] + change / sub.numeraire[node_id]
        for leaf in tree.leaves:
            wealth[leaf] += sub.numeraire[leaf] * acc[leaf]
        positions[sub.label] = phi
        numeraire[sub.label] = legs
    return SimpleStrategy(risky=positions, numeraire=numeraire), wealth


def strategy_cost(model: MarketModel, strategy: SimpleStrategy) -> dict[str, Num]:
    """Initial cost per submarket (risky plus numeraire legs at time 0)."""
    root = model.tree.root
    out = {}
    for sub in model.submarkets:
        phi = _positions(strategy.risky, sub.label, root, sub.dim)
        cost = sum(p * s for p, s in zip(phi, sub.assets[root]))
        cost += strategy.numeraire[sub.label][root] * sub.numeraire[root]
        out[sub.label] = cost
    return out
