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
    """Predictable one-step positions per submarket.

    ``risky[label][node]`` is the vector held from `node` to its children;
    ``numeraire[label][node]`` the numeraire position over the same step
    (None until filled in by :func:`complete_self_financing`).
    """

    risky: Mapping[str, Mapping[str, tuple[Num, ...]]]
    numeraire: Mapping[str, Mapping[str, Num]] | None = None


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
) -> SimpleStrategy:
    """Assemble one-step risky positions from coefficients on basis gains."""
    risky: dict[str, dict[str, list[Num]]] = {s.label: {} for s in model.submarkets}
    dims = {s.label: s.dim for s in model.submarkets}
    for g, c in zip(basis, coeffs):
        positions = risky[g.submarket].setdefault(g.node, [0] * dims[g.submarket])
        positions[g.asset] = positions[g.asset] + c
    return SimpleStrategy(
        risky={
            label: {node: tuple(vals) for node, vals in nodes.items()}
            for label, nodes in risky.items()
        }
    )


def _positions(strategy_risky, label, node_id, dim):
    by_node = strategy_risky.get(label, {})
    vec = by_node.get(node_id)
    if vec is None:
        return (0,) * dim
    if len(vec) != dim:
        raise DimensionMismatch(
            f"{len(vec)} positions for submarket {label!r} of dim {dim}"
        )
    return tuple(vec)


def terminal_value(
    model: MarketModel,
    initial_wealth: Mapping[str, Num],
    strategy: SimpleStrategy | Mapping,
) -> dict[str, Num]:
    """Terminal wealth per atom: each submarket compounds its initial wealth
    in its own numeraire and accumulates the discounted one-step gains."""
    risky = strategy.risky if isinstance(strategy, SimpleStrategy) else strategy
    tree = model.tree
    tildes = {s.label: discounted_prices(model, s.label) for s in model.submarkets}
    out = {}
    for leaf in tree.leaves:
        total = 0
        path = tree.path(leaf)
        for sub in model.submarkets:
            x0 = initial_wealth.get(sub.label, 0)
            tilde = tildes[sub.label]
            acc = x0 / sub.numeraire[path[0]]
            for step, node_id in enumerate(path[:-1]):
                phi = _positions(risky, sub.label, node_id, sub.dim)
                succ = path[step + 1]
                for i in range(sub.dim):
                    acc += phi[i] * (tilde[succ][i] - tilde[node_id][i])
            total += sub.numeraire[leaf] * acc
        out[leaf] = total
    return out


def complete_self_financing(
    model: MarketModel,
    initial_wealth: Mapping[str, Num],
    strategy: SimpleStrategy | Mapping,
) -> SimpleStrategy:
    """Fill in the numeraire legs so each submarket trades self-financed from
    its own initial wealth.

    At the root the numeraire position absorbs whatever the risky positions
    do not use; at each later rebalancing node it pays for the change in the
    risky positions at current prices.
    """
    risky_in = strategy.risky if isinstance(strategy, SimpleStrategy) else strategy
    tree = model.tree
    risky: dict[str, dict[str, tuple[Num, ...]]] = {}
    numeraire: dict[str, dict[str, Num]] = {}
    root = tree.path(tree.leaves[0])[0]
    for sub in model.submarkets:
        risky[sub.label] = {
            n: _positions(risky_in, sub.label, n, sub.dim) for n in tree.nonterminal()
        }
        phi0: dict[str, Num] = {}
        x0 = initial_wealth.get(sub.label, 0)
        phi_root = risky[sub.label][root]
        spent = sum(p * s for p, s in zip(phi_root, sub.assets[root]))
        phi0[root] = (x0 - spent) / sub.numeraire[root]
        for node_id in tree.nonterminal():
            if node_id == root:
                continue
            parent = tree.node(node_id).parent
            prev_phi = risky[sub.label][parent]
            prev_num = phi0[parent]
            cur_phi = risky[sub.label][node_id]
            change = sum(
                (p - c) * s for p, c, s in zip(prev_phi, cur_phi, sub.assets[node_id])
            )
            phi0[node_id] = prev_num + change / sub.numeraire[node_id]
        numeraire[sub.label] = phi0
    return SimpleStrategy(risky=risky, numeraire=numeraire)


def strategy_cost(model: MarketModel, strategy: SimpleStrategy) -> dict[str, Num]:
    """Initial cost per submarket (risky plus numeraire legs at time 0)."""
    if strategy.numeraire is None:
        raise DimensionMismatch("strategy has no numeraire legs; complete it first")
    tree = model.tree
    root = tree.path(tree.leaves[0])[0]
    out = {}
    for sub in model.submarkets:
        phi = _positions(strategy.risky, sub.label, root, sub.dim)
        cost = sum(p * s for p, s in zip(phi, sub.assets[root]))
        cost += strategy.numeraire[sub.label][root] * sub.numeraire[root]
        out[sub.label] = cost
    return out
