"""Superreplication prices across hedging venues, with duality certificates.

Four prices coexist because hedging can use one submarket, the cheapest
submarket, every submarket separately, or all submarkets jointly with the
initial wealth split between them (and no borrowing across the split).
Every pricing quantity is one LP of the same shape, `_cone_lp`: optimize
E[X H] over deflator-cone directions q = P X that are orthogonal to a
scope's gains and meet some budget rows.  A venue price has one budget row
per funded submarket and reads the hedge from its row duals; one check
that uses no LP code then proves both sides: the hedge dominates the
claim, the witness lies in the cone within its budget rows, and the gap is
zero (exactly in rational mode).  The cone LP, a `LinearProgram` in the
model's mode, and the witness's orthogonality check
(`arbitrage.check_orthogonal`, the one the deflator certificate passes)
read the row each gain carries, `GainAtom.row`.  The weighted measure-set extreme E[X H]/E[X Z] is the
same LP over the slice E[X Z] = 1.  Closed-form identities for
one-dimensional submarkets, constant growth ratios, and the two-submarket
case are evaluated against the LPs rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from .arbitrage import (
    GLOBAL,
    MeasureSelector,
    atom_row,
    check_global_nfl,
    check_orthogonal,
    check_submarket_nfl,
    scope_basis,
)
from .errors import (
    CertificateViolation,
    ConditionNotMet,
    DegenerateDenominator,
    DimensionNotOne,
    GlobalArbitrage,
    NonPositiveWeight,
    SubmarketArbitrage,
    WrongShape,
    certificate_failure,
)
from .gains import SimpleStrategy, self_financing, strategy_from_coefficients
from .lp import EQ, INFEASIBLE, LE, OPTIMAL, LinearProgram, solve_lp
from .market import Claim, MarketModel
from .numbers import Num, dot, from_row, to_row, tolerances

VENUE_GLOBAL = "global"
VENUE_LOWER = "lower"
VENUE_UPPER = "upper"


@dataclass(frozen=True)
class DualWitness:
    kind: str  # "measure" over atoms, or "cone" element (deflator direction)
    values: Mapping[str, Num]
    boundary: bool


@dataclass(frozen=True)
class PriceReport:
    venue: str
    status: str  # "optimal" | "infeasible"
    price: Num | None
    allocation: Mapping[str, Num]
    hedge: SimpleStrategy | None
    dual_value: Num | None
    dual_witness: DualWitness | None
    duality_gap: Num | None
    selected_submarket: str | None = None


def _payoff_vector(model: MarketModel, claim) -> tuple[Num, ...]:
    if isinstance(claim, Claim):
        claim = claim.payoff
    return tuple(claim[a] for a in model.tree.leaves)


def terminal_asset_claim(model: MarketModel, label: str) -> dict[str, Num]:
    """The claim paying the submarket's first asset's terminal value."""
    sub = model.submarket(label)
    return {a: sub.assets[a][0] for a in model.tree.leaves}


def _gap(primal: Num, dual: Num, exact: bool) -> Num:
    gap = primal - dual
    if abs(gap) > tolerances(exact).gap * (1 + abs(primal)):
        raise certificate_failure(exact, gap, f"duality gap {gap}")
    return gap


def _certify(model, h, scope, allocation, wealth, q) -> tuple[Num, Num]:
    """Check both sides of a price without the LP code; returns the value of
    the witness q (a deflator-cone direction P X over the atoms) and the
    duality gap.

    1. The hedge's terminal wealth per atom, from `gains.self_financing` on
       the allocation, dominates the claim on every atom; a joint-venue
       allocation is also nonnegative.
    2. q is nonnegative, orthogonal to every gain of `scope` and meets the
       budget row of every funded submarket: growth-weighted mass 1 for a
       single submarket, at most 1 for each submarket of the joint venue.
    3. The allocation's total equals the value of the claim under q.

    Steps 2 and 3 take q, the gains, the growth ratios and h as rows of
    `to_row`, so rational mode multiplies integers only.  The mode's
    tolerance row gives the slack: ``feas`` for feasibility and the budgets,
    ``member`` for the cone, all zero in rational mode.
    """
    exact = model.exact
    joint = scope == GLOBAL
    tol = tolerances(exact)
    for k, a in enumerate(model.tree.leaves):
        short = h[k] - wealth[a]
        if short > tol.feas * (1 + abs(h[k])):
            raise certificate_failure(exact, short, f"hedge misses the claim by {short} at {a!r}")
    if joint:
        for lab, x in allocation.items():
            if x < -tol.feas:
                raise certificate_failure(exact, x, f"negative allocation {x} to {lab!r}")
    if any(v < -tol.member for v in q):
        raise certificate_failure(exact, min(q), f"cone witness {min(q)} is negative")
    qn, qd = to_row(q, exact)
    check_orthogonal(model, scope_basis(model, scope), qn, qd, "cone witness")
    for lab in allocation:
        rn, rd = atom_row(model, ("ratio_row", lab), model.numeraire_ratio(lab))
        mass, unit = dot(rn, qn), rd * qd
        if mass > unit + tol.feas or (not joint and mass < unit - tol.feas):
            mass = from_row(mass, unit, exact)
            raise certificate_failure(exact, mass, f"cone witness misses the budget of {lab!r}: {mass}")
    hn, hd = to_row(h, exact)
    value = from_row(dot(hn, qn), hd * qd, exact)
    return value, _gap(sum(allocation.values()), value, exact)


def _require_submarket_nfl(model, label):
    result = check_submarket_nfl(model, label)
    if not result.ok:
        raise SubmarketArbitrage(result.witness, f"submarket {label!r} admits arbitrage")
    return result.certificate


def _require_global_nfl(model):
    result = check_global_nfl(model)
    if not result.ok:
        raise GlobalArbitrage(result.witness, "global market admits arbitrage")
    return result.certificate


def price_submarket(model: MarketModel, claim, label: str) -> PriceReport:
    """Classical superreplication price hedging only inside one submarket:
    the venue LP of `_price_venue` with one budget row, an equality, since
    the submarket's initial capital may have either sign.  Its optimum is
    the supremum over the submarket's measure set, and the witness is
    reported as the attaining measure.  Computed once per model, submarket
    and payoff vector.
    """
    _require_submarket_nfl(model, label)
    h = _payoff_vector(model, claim)
    return model._memoized(
        ("price_submarket", label, h), lambda: _price_venue(model, h, label, (label,))
    )


def _cone_lp(model: MarketModel, h, scope: str, budgets, sense: str):
    """The one LP behind every price: optimize E[X H] = h.q over deflator-cone
    directions q = P X >= 0 on the atoms, with one row q.g == 0 per gain g of
    `scope` and, after them, one row (w, rel, 1) per budget (w, rel), w a
    row of `to_row`.  The gain rows are the ones the gains carry."""
    rows = [(*g.row, EQ, 0) for g in scope_basis(model, scope)]
    rows += [(wn, wd, rel, 1) for (wn, wd), rel in budgets]
    return solve_lp(LinearProgram(sense, h, tuple(rows), ((0, None),) * len(h), model.exact))


def _price_venue(model: MarketModel, h: tuple[Num, ...], scope: str, labels) -> PriceReport:
    """The cone LP maximizing E[X H] with one budget row E[X ratio] per
    funded label, == 1 for a single submarket and <= 1 for each funded
    submarket of the joint venue (`scope` GLOBAL).  A model that passed its
    NFL check makes it feasible and bounded.  Its row duals are the hedge:
    the budget rows' duals are the allocation and the gain rows' duals the
    gain coefficients.  `_certify` checks both sides on the LP's own q.
    """
    leaves = model.tree.leaves
    joint = scope == GLOBAL
    basis = scope_basis(model, scope)
    budget = LE if joint else EQ
    budgets = [(atom_row(model, ("ratio_row", lab), model.numeraire_ratio(lab)), budget) for lab in labels]
    out = _cone_lp(model, h, scope, budgets, "max")
    if out.status != OPTIMAL:
        raise certificate_failure(model.exact, out.status, f"venue LP of {scope!r} is {out.status}")
    nb = len(basis)
    # + 0: a float -0.0 dual reports as 0.0
    allocation = {lab: y + 0 for lab, y in zip(labels, out.row_duals[nb:])}
    hedge, wealth = self_financing(
        model, allocation, strategy_from_coefficients(model, basis, out.row_duals[:nb])
    )
    q = out.x
    dual_value, gap = _certify(model, h, scope, allocation, wealth, q)
    if joint:
        values = {a: v / model.tree.atom_probs[a] for a, v in zip(leaves, q)}
    else:
        ratio = model.numeraire_ratio(scope)
        values = {a: ratio[a] * v for a, v in zip(leaves, q)}
    zero = tolerances(model.exact).zero
    boundary = any(abs(v) <= zero for v in q)
    witness = DualWitness(kind="cone" if joint else "measure", values=values, boundary=boundary)
    return PriceReport(
        venue=VENUE_GLOBAL if joint else f"submarket:{scope}",
        status="optimal",
        price=sum(allocation.values()),
        allocation=allocation,
        hedge=hedge,
        dual_value=dual_value,
        dual_witness=witness,
        duality_gap=gap,
    )


def _extreme_submarket(model, claim, pick) -> PriceReport:
    reports = [price_submarket(model, claim, s.label) for s in model.submarkets]
    prices = [r.price for r in reports]
    best = prices.index(pick(prices))  # first hit wins: declared order
    return replace(
        reports[best],
        venue=VENUE_LOWER if pick is min else VENUE_UPPER,
        selected_submarket=model.submarkets[best].label,
    )


def price_lower(model: MarketModel, claim) -> PriceReport:
    """Cheapest single submarket that superreplicates the claim alone."""
    return _extreme_submarket(model, claim, min)


def price_upper(model: MarketModel, claim) -> PriceReport:
    """Capital sufficient to superreplicate inside every submarket
    separately."""
    return _extreme_submarket(model, claim, max)


def price_global(model: MarketModel, claim) -> PriceReport:
    """Joint-venue price: split nonnegative initial wealth across submarkets,
    trade each only internally, and dominate the claim with the summed
    terminal wealth.  The minimum is attained (polyhedral program); the
    report carries the attaining allocation and hedge.

    The venue LP of `_price_venue` with one budget row per submarket, each
    an inequality, since each allocation is nonnegative; the witness is
    reported as the deflator direction X = q/P.  Computed once per model and
    payoff vector.
    """
    _require_global_nfl(model)
    h = _payoff_vector(model, claim)
    return model._memoized(
        ("price_global", h), lambda: _price_venue(model, h, GLOBAL, model.labels)
    )


def price_fractional(
    model: MarketModel,
    claim,
    weight: Mapping[str, Num],
    scope: str = GLOBAL,
    sense: str = "max",
) -> Num:
    """Extreme of E_Q[H/Z] over the closed weighted measure set: the extreme
    of E[X H]/E[X Z] over the deflator cone, which is constant along its
    rays, so the cone LP over the slice E[X Z] = 1.  Computed once per
    model, scope, sense, payoff vector and weight vector."""
    tree = model.tree
    for atom in tree.leaves:
        if weight[atom] <= 0:
            raise NonPositiveWeight(f"weight {weight[atom]} at atom {atom!r}")
    h = _payoff_vector(model, claim)
    z = tuple(weight[a] for a in tree.leaves)
    return model._memoized(
        ("price_fractional", scope, sense, h, z),
        lambda: _price_fractional(model, h, z, scope, sense),
    )


def _price_fractional(
    model: MarketModel, h: tuple[Num, ...], z: tuple[Num, ...], scope: str, sense: str
) -> Num:
    out = _cone_lp(model, h, scope, [(to_row(z, model.exact), EQ)], sense)
    if out.status == INFEASIBLE:
        raise DegenerateDenominator("denominator vanishes on the whole cone")
    if out.status != OPTIMAL:
        raise certificate_failure(model.exact, out.status, f"fractional LP of {scope!r} is {out.status}")
    return out.value


def dual_certificate_global(
    model: MarketModel,
    claim,
    allocation: Mapping[str, Num],
    lam: Mapping[str, Num],
) -> Num:
    """Certificate of optimality for a global-venue allocation: the residual
    claim (claim minus funded numeraire legs), valued through the measure set
    weighted by the lambda-mix, must have supremum exactly zero at an
    attaining allocation.  Over-funding drives it strictly negative."""
    selector = MeasureSelector.linear_combination(model, lam)
    tree = model.tree
    h = _payoff_vector(model, claim)
    residual = []
    for k, atom in enumerate(tree.leaves):
        funded = sum(
            allocation.get(lab, 0) * model.numeraire_ratio(lab)[atom]
            for lab in model.labels
        )
        residual.append(h[k] - funded)
    value = price_fractional(
        model, dict(zip(tree.leaves, residual)), selector.weight, scope=GLOBAL, sense="max"
    )
    if abs(value) > tolerances(model.exact).gap:
        raise CertificateViolation(value)
    return value


def dual_bounds_global(model: MarketModel, claim) -> tuple[Num, Num]:
    """Bracket the joint-venue price by the best-growth and worst-growth
    weighted measure sets."""
    lower = price_fractional(model, claim, MeasureSelector.max_ratio(model).weight)
    upper = price_fractional(model, claim, MeasureSelector.min_ratio(model).weight)
    price = price_global(model, claim).price
    tol = tolerances(model.exact).gap
    if not (lower <= price + tol and price <= upper + tol):
        raise certificate_failure(
            model.exact, price, f"bounds {lower}, {upper} miss price {price}"
        )
    return lower, upper


# --- one-dimensional identity suite ------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    lhs: Num
    rhs: Num

    @property
    def residual(self) -> Num:
        return self.lhs - self.rhs


@dataclass(frozen=True)
class IdentityReport:
    checks: Mapping[str, IdentityCheck]

    def residuals(self) -> dict[str, Num]:
        return {name: c.residual for name, c in self.checks.items()}

    @property
    def ok(self) -> bool:
        return all(c.residual == 0 for c in self.checks.values())


def one_dim_identity_suite(model: MarketModel, label: str, other: str) -> IdentityReport:
    """Evaluate the one-dimensional pricing identities between two submarkets
    (both hedged venues are priced through their own uni-market measure set):

    own_venue: the asset's own-venue price is its spot price;
    cross_venue: the other venue's price of the asset via the growth-ratio
      supremum and, equivalently, the reciprocal infimum;
    swap_decomposition: linearity of the swap price in the hedging venue;
    swap_own_venue: the swap's own-venue price via the infimum factor, and
      equivalently via the inf/sup correction on the cross asset;
    price_ratio: cross-multiplied ratio identity between venues.
    """
    for lab in (label, other):
        if model.submarket(lab).dim != 1:
            raise DimensionNotOne(f"submarket {lab!r} has dim != 1")
    s_t = terminal_asset_claim(model, label)
    s_bar = terminal_asset_claim(model, other)
    tree = model.tree
    swap = {a: s_t[a] - s_bar[a] for a in tree.leaves}
    spot = model.submarket(label).assets[tree.root][0]
    ratio = model.numeraire_ratio(label)
    ratio_bar = model.numeraire_ratio(other)

    pi_own = price_submarket(model, s_t, label).price
    pi_cross = price_submarket(model, s_t, other).price
    pi_bar_own = price_submarket(model, s_bar, other).price
    pi_swap_cross = price_submarket(model, swap, other).price
    pi_swap_own = price_submarket(model, swap, label).price
    pi_bar_in_label = price_submarket(model, s_bar, label).price

    sup_growth = price_fractional(model, ratio, ratio_bar, scope=other, sense="max")
    inf_inv = price_fractional(model, ratio_bar, ratio, scope=label, sense="min")
    sup_inv = price_fractional(model, ratio_bar, ratio, scope=label, sense="max")

    checks = {
        "own_venue": IdentityCheck(pi_own, spot),
        "cross_venue_sup": IdentityCheck(pi_cross, spot * sup_growth),
        "cross_venue_reciprocal": IdentityCheck(pi_cross, spot / inf_inv),
        "swap_decomposition": IdentityCheck(pi_swap_cross, pi_cross - pi_bar_own),
        "swap_own_venue": IdentityCheck(pi_swap_own, inf_inv * (pi_cross - pi_bar_own)),
        "swap_own_venue_correction": IdentityCheck(
            pi_swap_own, pi_own - pi_bar_in_label * inf_inv / sup_inv
        ),
        "price_ratio": IdentityCheck(pi_swap_cross * pi_own, pi_swap_own * pi_cross),
    }
    return IdentityReport(checks=checks)


def basis_swap_price(model: MarketModel, label: str, other: str, venue: str) -> PriceReport:
    """Price the long-`label` short-`other` terminal exchange in the chosen
    venue (one of the two submarkets, or 'global')."""
    for lab in (label, other):
        if model.submarket(lab).dim != 1:
            raise DimensionNotOne(f"submarket {lab!r} has dim != 1")
    s_t = terminal_asset_claim(model, label)
    s_bar = terminal_asset_claim(model, other)
    swap = {a: s_t[a] - s_bar[a] for a in model.tree.leaves}
    if venue == VENUE_GLOBAL:
        return price_global(model, swap)
    return price_submarket(model, swap, venue)


# --- constant growth-ratio shortcut ------------------------------------------


@dataclass(frozen=True)
class ConstantRatioReport:
    price: Num
    tau_max: str
    c_values: Mapping[str, Num]
    allocation: Mapping[str, Num]
    lp_price: Num
    report: PriceReport


def price_constant_ratio(model: MarketModel, claim, lam: Mapping[str, Num]) -> ConstantRatioReport:
    """Shortcut valid when every submarket's growth, deflated by the
    lambda-mix, has a constant expectation across the whole mixed measure
    set: the joint price is that measure-set supremum rescaled by the best
    constant, and all initial wealth sits in the best submarket.

    The constancy hypothesis is verified by solving the max and the min of
    each expectation and comparing; ConditionNotMet is raised otherwise
    (callers can fall back to price_global, which is also the cross-check).
    The concentrated-funding LP and the joint LP must both price the claim
    at the shortcut, within the mode's ``gap`` tolerance times (1 + |price|).
    """
    _require_global_nfl(model)
    selector = MeasureSelector.linear_combination(model, lam)
    c_values: dict[str, Num] = {}
    for lab in model.labels:
        ratio = model.numeraire_ratio(lab)
        hi = price_fractional(model, ratio, selector.weight, sense="max")
        lo = price_fractional(model, ratio, selector.weight, sense="min")
        if abs(hi - lo) > tolerances(model.exact).feas:
            raise ConditionNotMet(
                f"expected growth of {lab!r} varies over the measure set: [{lo}, {hi}]"
            )
        c_values[lab] = hi
    tau_max = max(model.labels, key=lambda lab: c_values[lab])  # first label on ties
    sup_h = price_fractional(model, claim, selector.weight, sense="max")
    price = sup_h / c_values[tau_max]

    # all funding in tau_max, trading global: the joint venue with its budget row alone
    concentrated = _price_venue(model, _payoff_vector(model, claim), GLOBAL, (tau_max,))
    full = price_global(model, claim)
    tol = tolerances(model.exact).gap * (1 + abs(price))
    for name, value in (("concentrated funding LP", concentrated.price), ("joint LP", full.price)):
        if abs(value - price) > tol:
            raise certificate_failure(model.exact, value, f"{name} {value} != shortcut {price}")
    return ConstantRatioReport(
        price=price,
        tau_max=tau_max,
        c_values=c_values,
        allocation={tau_max: price},
        lp_price=full.price,
        report=full,
    )


# --- two-submarket closed forms ------------------------------------------------


@dataclass(frozen=True)
class TwoMarketReport:
    min_formula: Mapping[str, IdentityCheck]  # per asset label
    hypothesis_holds: bool
    swap_lp_price: Num
    swap_formulas: Mapping[str, IdentityCheck] | None
    p_cross: Mapping[str, Num]


def two_market_report(model: MarketModel) -> TwoMarketReport:
    """Closed forms for exactly two one-dimensional submarkets.

    Each asset's joint price is the smaller of its own-venue price and its
    cross price through the other submarket's global measure set.  The swap's
    closed forms apply only under the documented hypothesis (cross price of
    the first asset at least the second's spot); when it fails the LP value
    is still reported and the closed forms are marked not applicable.
    """
    if len(model.submarkets) != 2:
        raise WrongShape(f"need exactly 2 submarkets, have {len(model.submarkets)}")
    lab1, lab2 = model.labels
    for lab in (lab1, lab2):
        if model.submarket(lab).dim != 1:
            raise DimensionNotOne(f"submarket {lab!r} has dim != 1")
    _require_global_nfl(model)
    tree = model.tree
    s1 = terminal_asset_claim(model, lab1)
    s2 = terminal_asset_claim(model, lab2)
    ratio2 = model.numeraire_ratio(lab2)

    p_cross = {
        lab1: price_fractional(model, s1, ratio2, scope=GLOBAL, sense="max"),
        lab2: price_fractional(model, s2, model.numeraire_ratio(lab1), scope=GLOBAL, sense="max"),
    }
    own = {
        lab1: price_submarket(model, s1, lab1).price,
        lab2: price_submarket(model, s2, lab2).price,
    }
    joint = {
        lab1: price_global(model, s1).price,
        lab2: price_global(model, s2).price,
    }
    min_formula = {
        lab1: IdentityCheck(joint[lab1], min(p_cross[lab1], own[lab1])),
        lab2: IdentityCheck(joint[lab2], min(p_cross[lab2], own[lab2])),
    }

    hypothesis = p_cross[lab1] >= own[lab2]
    swap = {a: s1[a] - s2[a] for a in tree.leaves}
    swap_lp = price_global(model, swap).price
    formulas = None
    if hypothesis:
        factor = min(own[lab1] / p_cross[lab1], 1)
        product_form = factor * (p_cross[lab1] - own[lab2])
        ratio1 = model.numeraire_ratio(lab1)
        sup_rel = price_fractional(model, ratio1, ratio2, scope=GLOBAL, sense="max")
        inf_rel = price_fractional(model, ratio1, ratio2, scope=GLOBAL, sense="min")
        difference_form = joint[lab1] - joint[lab2] * max(inf_rel, 1) / max(sup_rel, 1)
        formulas = {
            "product_form": IdentityCheck(swap_lp, product_form),
            "difference_form": IdentityCheck(swap_lp, difference_form),
        }
    return TwoMarketReport(
        min_formula=min_formula,
        hypothesis_holds=hypothesis,
        swap_lp_price=swap_lp,
        swap_formulas=formulas,
        p_cross=p_cross,
    )
