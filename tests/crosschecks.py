"""Independent routes to quantities the package computes, for the tests.

Each helper reaches a value the package also reaches by another path:
terminal wealth by valuing the positions that enter each leaf, the
self-financing identity node by node, span membership by its own LP, a
fractional price through the reciprocal infimum, and membership of a measure
in a weighted measure set by its implied deflator's Fraction sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from multimarket.arbitrage import GLOBAL, MeasureSelector, _require_positive, scope_basis
from multimarket.errors import NonPositiveWeight
from multimarket.gains import SimpleStrategy, _positions
from multimarket.lp import EQ, INFEASIBLE, lp, solve_lp
from multimarket.market import MarketModel
from multimarket.numbers import Num, tolerances
from multimarket.pricing import price_fractional


def strategy_wealth(model: MarketModel, strategy: SimpleStrategy) -> dict[str, Num]:
    """Terminal wealth per atom of a completed strategy, by direct valuation
    of the positions entering each leaf."""
    tree = model.tree
    out = {}
    for leaf in tree.leaves:
        parent = tree.node(leaf).parent
        total = 0
        for sub in model.submarkets:
            phi = _positions(strategy.risky, sub.label, parent, sub.dim)
            total += sum(p * s for p, s in zip(phi, sub.assets[leaf]))
            total += strategy.numeraire[sub.label][parent] * sub.numeraire[leaf]
        out[leaf] = total
    return out


def self_financing_residuals(model: MarketModel, strategy: SimpleStrategy) -> dict[str, Num]:
    """Rebalancing-identity residual per (submarket, node); all zero for a
    self-financed strategy."""
    tree = model.tree
    out = {}
    for sub in model.submarkets:
        for node_id in tree.nonterminal():
            parent = tree.node(node_id).parent
            if parent is None:
                continue
            prev_phi = _positions(strategy.risky, sub.label, parent, sub.dim)
            cur_phi = _positions(strategy.risky, sub.label, node_id, sub.dim)
            prev_val = sum(p * s for p, s in zip(prev_phi, sub.assets[node_id]))
            prev_val += strategy.numeraire[sub.label][parent] * sub.numeraire[node_id]
            cur_val = sum(p * s for p, s in zip(cur_phi, sub.assets[node_id]))
            cur_val += strategy.numeraire[sub.label][node_id] * sub.numeraire[node_id]
            out[f"{sub.label}/{node_id}"] = cur_val - prev_val
    return out


def in_span(
    vectors: Sequence[Sequence[Num]],
    target: Sequence[Num],
    exact: bool = True,
) -> bool:
    """Feasibility of writing `target` as a linear combination of `vectors`."""
    nvars = len(vectors)
    rows = []
    for k in range(len(target)):
        coeffs = [vectors[j][k] for j in range(nvars)]
        rows.append((coeffs, EQ, target[k]))
    prog = lp("min", [0] * nvars, rows, bounds=[(None, None)] * nvars, exact=exact)
    return solve_lp(prog).status != INFEASIBLE


def fractional_reciprocal(model: MarketModel, claim, weight: Mapping[str, Num], scope: str = GLOBAL) -> Num:
    """The reciprocal route to `price_fractional`'s supremum, available when
    the claim is strictly positive: one over the infimum of E_Q[Z/H] over the
    measure set weighted by the claim itself."""
    h = [claim[a] for a in model.tree.leaves]
    if any(v <= 0 for v in h):
        raise NonPositiveWeight("reciprocal identity needs a strictly positive claim")
    h_map = dict(zip(model.tree.leaves, h))
    inf_value = price_fractional(model, dict(weight), h_map, scope=scope, sense="min")
    return 1 / inf_value


def hat(model: MarketModel, label: str) -> MeasureSelector:
    """The classical uni-market measure set of a submarket."""
    model.submarket(label)
    return MeasureSelector(scope=label, weight=model.numeraire_ratio(label))


def global_ratio(model: MarketModel, label: str) -> MeasureSelector:
    """Global cone weighted by one submarket's numeraire growth."""
    return MeasureSelector(scope=GLOBAL, weight=model.numeraire_ratio(label))


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    residuals: Mapping[str, Num]
    equivalent: bool


def check_measure_membership(
    model: MarketModel, q: Mapping[str, Num], selector: MeasureSelector
) -> MembershipReport:
    """Does q lie in the closed weighted measure set of the selector?

    Recovers the implied deflator X = (q/P)/Z and tests orthogonality
    against the selector cone's gains.  Atoms with zero q-mass keep the
    measure on the set's boundary: membership in the closure is reported
    with ``equivalent=False``.
    """
    tree = model.tree
    _require_positive(selector.weight)
    tol = tolerances(model.exact).member
    total = sum(q.get(a, 0) for a in tree.leaves)
    if any(q.get(a, 0) < -tol for a in tree.leaves) or abs(total - 1) > tol:
        return MembershipReport(member=False, residuals={}, equivalent=False)
    implied_x = {
        a: q.get(a, 0) / (tree.atom_probs[a] * selector.weight[a])
        for a in tree.leaves
    }
    basis = scope_basis(model, selector.scope)
    residuals = {}
    member = True
    for g in basis:
        r = sum(
            tree.atom_probs[a] * implied_x[a] * g.payoff[k]
            for k, a in enumerate(tree.leaves)
        )
        residuals[f"{g.submarket}/{g.node}/{g.asset}"] = r
        if abs(r) > tol:
            member = False
    equivalent = member and all(q.get(a, 0) > 0 for a in tree.leaves)
    return MembershipReport(member=member, residuals=residuals, equivalent=equivalent)
