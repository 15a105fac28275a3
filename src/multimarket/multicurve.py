"""Tenor-structured market construction and the co-traded bond demonstration.

Numeraires here accumulate per step from a shared base rate plus a
tenor-specific spread.  Each step compounds the two factors multiplicatively,
(1 + r dt)(1 + s dt), so that the terminal growth splits into a common
stochastic part times a per-tenor part; with deterministic spreads the
per-tenor part is a constant and every tenor's risk-neutral measure
coincides, which is the whole point of the construction.

The co-traded demonstration places two same-maturity unit bonds with
different prices in one submarket (arbitrage: buy cheap, sell rich) and then
splits them into their own submarkets where the cross trade is impossible
and no arbitrage remains.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .arbitrage import (
    ArbitrageWitness,
    DeflatorCertificate,
    check_global_nfl,
    martingale_measure,
)
from .errors import (
    BadMaturities,
    NonPositiveAccumulation,
    NonPositiveBond,
    QuotesEqual,
    SchemaError,
    certificate_failure,
)
from .gains import self_financing, strategy_cost
from .market import MarketModel, Submarket, make_model
from .numbers import Num, parse_scalar, tolerances
from .tree import ScenarioTree


@dataclass(frozen=True)
class RateStructure:
    """Per-node short rate and per-tenor short spreads, plus the step size."""

    base_rate: Mapping[str, Num]
    spreads: Mapping[str, Mapping[str, Num]]
    dt: Num = 1
    initial_numeraire: Mapping[str, Num] | None = None

    @staticmethod
    def from_document(tree: ScenarioTree, doc: Mapping, exact: bool) -> "RateStructure":
        if not isinstance(doc, Mapping) or "base_rate" not in doc or "spreads" not in doc:
            raise SchemaError("rate_structure needs 'base_rate' and 'spreads'")
        base = _scalar_map(doc["base_rate"], "base_rate", exact)
        spreads = {
            label: _scalar_map(per, f"spread of {label!r}", exact)
            for label, per in _mapping(doc["spreads"], "spreads").items()
        }
        dt = parse_scalar(doc.get("dt", 1), exact)
        initial = None
        if "initial_numeraire" in doc:
            initial = _scalar_map(doc["initial_numeraire"], "initial_numeraire", exact)
        return RateStructure(base_rate=base, spreads=spreads, dt=dt, initial_numeraire=initial)


def _mapping(raw, where: str) -> Mapping:
    if not isinstance(raw, Mapping):
        raise SchemaError(f"rate_structure {where} must be a map, got {raw!r}")
    return raw


def _scalar_map(raw, where: str, exact: bool) -> dict:
    return {key: parse_scalar(v, exact) for key, v in _mapping(raw, where).items()}


@dataclass(frozen=True)
class ZcQuote:
    """A zero-coupon quote: unit payoff at the tree horizon, given spot price."""

    tenor: str
    price: Num

    def __post_init__(self):
        if not 0 < self.price <= 1:
            raise NonPositiveBond(f"bond price {self.price} outside (0, 1]")


def fra_rate(b_ti: Num, b_tm: Num, start: Num, maturity: Num) -> Num:
    """Forward rate locked in by trading the two bonds against the contract:
    (1/(M - I)) (B(t,I)/B(t,M) - 1)."""
    if maturity <= start:
        raise BadMaturities(f"maturity {maturity} must exceed start {start}")
    if b_ti <= 0 or b_tm <= 0:
        raise NonPositiveBond(f"bond prices must be positive: {b_ti}, {b_tm}")
    return (b_ti / b_tm - 1) / (maturity - start)


def numeraire_from_rates(tree: ScenarioTree, rates: RateStructure, label: str) -> dict[str, Num]:
    """Compound the numeraire along each path: one (1 + r dt)(1 + s dt)
    factor per step, anchored at the initial level."""
    spreads = rates.spreads[label]
    initial = 1
    if rates.initial_numeraire is not None:
        initial = rates.initial_numeraire.get(label, 1)
    # the tree's numeric type: an int root would make int/int quotients floats
    initial = parse_scalar(initial, tree.exact)
    out: dict[str, Num] = {}
    for node_id in tree.nodes:
        node = tree.nodes[node_id]
        if node.parent is None:
            out[node_id] = initial
            continue
        parent = node.parent
        try:
            r = rates.base_rate[parent]
            s = spreads[parent]
        except KeyError as exc:
            raise SchemaError(f"rate_structure lacks a value at node {parent!r}") from exc
        factor = (1 + r * rates.dt) * (1 + s * rates.dt)
        if factor <= 0:
            raise NonPositiveAccumulation(
                f"accumulation factor {factor} at node {parent!r} for {label!r}"
            )
        out[node_id] = out[parent] * factor
    return out


def build_tenor_market(
    tree: ScenarioTree,
    rates: RateStructure,
    tenor_assets: Mapping[str, Mapping[str, tuple]],
) -> MarketModel:
    """Assemble a model whose numeraires compound from the rate structure and
    whose risky assets are given per tenor."""
    submarkets = []
    for label in rates.spreads:
        assets_raw = tenor_assets.get(label)
        numeraire = numeraire_from_rates(tree, rates, label)
        if assets_raw is None:
            # tenor quoted by its numeraire only: track it as the single asset
            assets = {n: (numeraire[n],) for n in tree.nodes}
            dim = 1
        else:
            assets = {n: tuple(v) for n, v in assets_raw.items()}
            dim = len(next(iter(assets.values())))
        submarkets.append(Submarket(label=label, dim=dim, assets=assets, numeraire=numeraire))
    return make_model(tree, submarkets)


@dataclass(frozen=True)
class CommonMeasureResult:
    common: bool
    measures: Mapping[str, Mapping[str, Num]]
    max_tv_distance: Num


def common_measure_check(model: MarketModel, certificate: DeflatorCertificate) -> CommonMeasureResult:
    """Build every tenor's risk-neutral measure from the one deflator and
    compare them atom by atom.  Deterministic numeraire growth forces a
    common measure; that implication is checked (it raises), not just
    reported."""
    tree = model.tree
    measures = {
        sub.label: martingale_measure(model, certificate, sub.label)
        for sub in model.submarkets
    }
    labels = list(measures)
    max_tv: Num = 0
    for i, one in enumerate(labels):
        for other in labels[i + 1:]:
            tv = sum(
                abs(measures[one][a] - measures[other][a]) for a in tree.leaves
            ) / 2
            if tv > max_tv:
                max_tv = tv
    common = max_tv <= tolerances(model.exact).feas
    deterministic = all(
        len(set(model.numeraire_ratio(s.label).values())) == 1 for s in model.submarkets
    )
    if deterministic and not common:
        raise certificate_failure(
            model.exact, max_tv, "deterministic numeraire growth must give a common measure"
        )
    return CommonMeasureResult(common=common, measures=measures, max_tv_distance=max_tv)


@dataclass(frozen=True)
class CotradeDemo:
    merged_witness: ArbitrageWitness
    merged_nfl_ok: bool
    split_nfl_ok: bool
    narrative: str


def _bond_path(tree: ScenarioTree, price: Num) -> dict[str, Num]:
    """Deterministic price path from the quote to the unit payoff: geometric
    accumulation at the bond's implied per-step yield."""
    horizon = tree.horizon
    if horizon == 0:
        raise BadMaturities("tree must have at least one step")
    # price * growth^horizon = 1, with exact arithmetic kept when possible
    out = {}
    if isinstance(price, Fraction):
        values = _rational_ladder(price, horizon)
    else:
        growth = (1 / price) ** (1.0 / horizon)
        values = [price * growth**t for t in range(horizon + 1)]
        values[-1] = 1.0
    for node_id in tree.nodes:
        out[node_id] = values[tree.nodes[node_id].time]
    return out


def _rational_ladder(price: Fraction, horizon: int) -> list[Fraction]:
    """Exact monotone ladder from price to 1: linear interpolation of the
    inverse keeps every intermediate value rational and inside (price, 1)."""
    inv0, inv1 = 1 / price, Fraction(1)
    values = []
    for t in range(horizon + 1):
        inv = inv0 + (inv1 - inv0) * Fraction(t, horizon)
        values.append(1 / inv)
    return values


def cotrade_arbitrage_demo(
    cheap: ZcQuote, rich: ZcQuote, tree: ScenarioTree
) -> CotradeDemo:
    """Same-maturity unit bonds at different prices.

    Merged (both tradable in one submarket, the richer bond as numeraire):
    buy one cheap bond financed by shorting rich bonds; zero net cost, the
    terminal gap is locked in on every atom, and the global check fails.

    Split (each bond alone in its submarket, serving as its own numeraire):
    no cross trade exists, every discounted price is constant, and the global
    check passes.
    """
    if cheap.price == rich.price:
        raise QuotesEqual(f"both quotes at {cheap.price}: nothing to demonstrate")
    if cheap.price > rich.price:
        cheap, rich = rich, cheap
    cheap_path = _bond_path(tree, cheap.price)
    rich_path = _bond_path(tree, rich.price)

    merged = make_model(
        tree,
        [
            Submarket(
                label="cotraded",
                dim=1,
                assets={n: (cheap_path[n],) for n in tree.nodes},
                numeraire=rich_path,
            )
        ],
    )
    merged_result = check_global_nfl(merged)
    if merged_result.ok:
        raise certificate_failure(
            merged.exact, merged_result.ok, "co-traded bonds at unequal prices must admit arbitrage"
        )

    # explicit buy-cheap / sell-rich lock-in, held to maturity
    hold = {"cotraded": {n: (1,) for n in tree.nonterminal()}}
    strategy, payoff = self_financing(merged, {}, hold)
    costs = strategy_cost(merged, strategy)
    if any(c != 0 for c in costs.values()):
        raise certificate_failure(merged.exact, costs, "lock-in strategy must cost nothing")
    if not all(v > 0 for v in payoff.values()):
        raise certificate_failure(
            merged.exact, payoff, "lock-in payoff must be positive on every atom"
        )
    witness = ArbitrageWitness(
        scope="global",
        strategy=strategy,
        payoff=payoff,
        violating_atoms=tuple(a for a in tree.leaves if payoff[a] > 0),
    )

    split = make_model(
        tree,
        [
            Submarket(
                label=f"tenor:{cheap.tenor}",
                dim=1,
                assets={n: (cheap_path[n],) for n in tree.nodes},
                numeraire=cheap_path,
            ),
            Submarket(
                label=f"tenor:{rich.tenor}",
                dim=1,
                assets={n: (rich_path[n],) for n in tree.nodes},
                numeraire=rich_path,
            ),
        ],
    )
    split_result = check_global_nfl(split)
    if not split_result.ok:
        raise certificate_failure(
            split.exact, split_result.ok, "split bonds must be jointly arbitrage free"
        )

    gap = min(payoff.values())
    hedge_ratio = cheap.price / rich.price
    narrative = (
        f"Unit bonds of tenors {cheap.tenor!r} and {rich.tenor!r} both pay 1 at "
        f"maturity but quote at {cheap.price} and {rich.price}. Co-traded, buying "
        f"the cheap bond and shorting {hedge_ratio} rich bonds costs nothing today "
        f"and locks in at least {gap} at maturity on every atom: an arbitrage, so "
        f"the checker rejects the merged market. Housed in separate submarkets "
        f"with no cross trading, each bond only trades against itself, and the "
        f"global no-free-lunch check passes."
    )
    return CotradeDemo(
        merged_witness=witness,
        merged_nfl_ok=merged_result.ok,
        split_nfl_ok=split_result.ok,
        narrative=narrative,
    )
