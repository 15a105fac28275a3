import dataclasses
import gc
import json
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import multimarket.arbitrage as arbitrage
import multimarket.cli as cli
import multimarket.lp as lp_module
import multimarket.pricing as pricing
from conftest import desk_market_m2
from crosschecks import fractional_reciprocal, strategy_wealth
from multimarket.arbitrage import GLOBAL, MeasureSelector, check_global_nfl, scope_basis
from multimarket.errors import (
    CertificateViolation,
    ConditionNotMet,
    DegenerateDenominator,
    DimensionNotOne,
    GlobalArbitrage,
    NumericBreakdown,
    SubmarketArbitrage,
    WrongShape,
)
from multimarket.generate import random_claim, random_model
from multimarket.lp import EQ, LE
from multimarket.market import Submarket, load_market, make_model, scale_submarket, serialize_market
from multimarket.numbers import from_row
from multimarket.pricing import (
    basis_swap_price,
    dual_bounds_global,
    dual_certificate_global,
    one_dim_identity_suite,
    price_constant_ratio,
    price_fractional,
    price_global,
    price_lower,
    price_submarket,
    price_upper,
    terminal_asset_claim,
    two_market_report,
)


def test_submarket_prices_m2(m2):
    h = terminal_asset_claim(m2, "tau1")
    assert price_submarket(m2, h, "tau1").price == F(4)
    report = price_submarket(m2, h, "tau2")
    assert report.price == F(15, 4)
    assert report.duality_gap == 0
    assert report.dual_witness.values == {"r.0": F(3, 8), "r.1": F(5, 8)}


def test_zero_claim_prices_zero(m2):
    zero = {a: F(0) for a in m2.tree.leaves}
    assert price_submarket(m2, zero, "tau1").price == 0
    assert price_global(m2, zero).price == 0
    assert price_upper(m2, zero).price == 0


def test_lower_and_upper_m2(m2):
    h = terminal_asset_claim(m2, "tau1")
    lower = price_lower(m2, h)
    assert (lower.price, lower.selected_submarket) == (F(15, 4), "tau2")
    upper = price_upper(m2, h)
    assert (upper.price, upper.selected_submarket) == (F(4), "tau1")

    ratio2 = dict(m2.numeraire_ratio("tau2"))
    assert price_submarket(m2, ratio2, "tau1").price == F(16, 15)
    assert price_submarket(m2, ratio2, "tau2").price == F(1)
    assert price_lower(m2, ratio2).price == F(1)
    assert price_lower(m2, ratio2).selected_submarket == "tau2"


def test_single_submarket_lower_equals_submarket(m2):
    solo = make_model(m2.tree, [m2.submarket("tau1")])
    h = terminal_asset_claim(solo, "tau1")
    assert price_lower(solo, h).price == price_submarket(solo, h, "tau1").price


def test_global_price_m2(m2):
    h = terminal_asset_claim(m2, "tau1")
    report = price_global(m2, h)
    assert report.price == F(15, 4)
    assert dict(report.allocation) == {"tau1": F(0), "tau2": F(15, 4)}
    assert report.hedge.risky["tau1"]["r"] == (F(3, 4),)
    assert report.duality_gap == 0
    # hedge superreplicates with equality here
    assert strategy_wealth(m2, report.hedge) == dict(h)


def test_global_price_numeraire_claim(m2):
    ratio2 = dict(m2.numeraire_ratio("tau2"))
    report = price_global(m2, ratio2)
    assert report.price == F(1)
    assert dict(report.allocation) == {"tau1": F(0), "tau2": F(1)}
    scaled = {a: F(7, 2) * v for a, v in ratio2.items()}
    assert price_global(m2, scaled).price == F(7, 2)


def test_price_on_arbitrage_model_raises(m1):
    h = terminal_asset_claim(m1, "tau1")
    with pytest.raises(GlobalArbitrage):
        price_global(m1, h)
    rising = Submarket(
        "up",
        1,
        {"r": (F(2),), "r.0": (F(3),), "r.1": (F(5, 2),)},
        {n: F(1) for n in m1.tree.nodes},
    )
    bad = make_model(m1.tree, [rising])
    with pytest.raises(SubmarketArbitrage):
        price_submarket(bad, {"r.0": F(1), "r.1": F(1)}, "up")


def test_superreplication_attained_with_tight_atom(m2):
    rng = random.Random(1)
    for _ in range(5):
        h = random_claim(rng, m2)
        report = price_global(m2, h)
        wealth = strategy_wealth(m2, report.hedge)
        slacks = [wealth[a] - h[a] for a in m2.tree.leaves]
        assert all(s >= 0 for s in slacks)
        if report.price > 0:
            assert any(s == 0 for s in slacks)


def test_each_price_solves_one_lp_after_its_nfl_check(monkeypatch):
    calls = []
    solve = lp_module.solve_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    for module in (lp_module, arbitrage, pricing):
        monkeypatch.setattr(module, "solve_lp", counted)
    for seed in range(6):
        # a fresh load: the generator's own global check stays on its model
        model = load_market(serialize_market(random_model(seed, arbitrage_free=True)))
        h = random_claim(random.Random(seed), model)
        weight = MeasureSelector.max_ratio(model).weight
        for label in model.labels:
            calls.clear()
            price_submarket(model, h, label)
            assert len(calls) == 2, (seed, label)  # deflator LP, measure LP
        calls.clear()
        price_global(model, h)
        assert len(calls) == 2, seed  # deflator LP, global dual LP
        calls.clear()
        price_fractional(model, h, weight)
        assert len(calls) == 1, seed

        # the same calls again are answered by the model's memo
        calls.clear()
        for label in model.labels:
            price_submarket(model, h, label)
        price_global(model, h)
        price_fractional(model, h, weight)
        assert not calls, seed

        # a second claim reuses the NFL results: one LP per venue
        h2 = random_claim(random.Random(seed + 100), model)
        for label in model.labels:
            calls.clear()
            price_submarket(model, h2, label)
            assert len(calls) == 1, (seed, label)
        calls.clear()
        price_global(model, h2)
        assert len(calls) == 1, seed

        # after the global check the submarkets take the common deflator:
        # each submarket price solves only its venue LP
        model = load_market(serialize_market(random_model(seed, arbitrage_free=True)))
        price_global(model, h)
        for label in model.labels:
            calls.clear()
            price_submarket(model, h, label)
            assert len(calls) == 1, (seed, label)


def test_memo_lives_exactly_as_long_as_its_model(m2_path):
    with open(m2_path) as handle:
        document = json.load(handle)
    model = load_market(document)
    twin = load_market({**document, "mode": "float"})
    h = model.claim("Stau1").payoff
    assert check_global_nfl(model).ok
    assert price_global(model, h).price == F(15, 4)
    assert model._memo and not twin._memo
    # equal payoff keys, separate memos: each mode keeps its own numbers
    assert type(price_global(twin, twin.claim("Stau1").payoff).price) is float
    assert type(price_global(model, h).price) is F
    assert model == load_market(document)  # the memo takes no part in equality
    assert scale_submarket(model, "tau2", F(2))._memo == {}
    assert dataclasses.replace(model, claims=())._memo == {}
    ref = weakref.ref(model)
    del model
    gc.collect()
    assert ref() is None


def _forge(monkeypatch, field):
    """Make the venue LP report a shifted first entry of `field`: a first
    gain coefficient that is off by one (the hedge misses the claim on one
    atom of m2), or a witness with one more unit of mass on the first atom
    (out of the cone)."""
    solve = pricing.solve_lp

    def forged(*args, **kwargs):
        out = solve(*args, **kwargs)
        values = list(getattr(out, field))
        values[0] += 1
        return dataclasses.replace(out, **{field: tuple(values)})

    monkeypatch.setattr(pricing, "solve_lp", forged)


@pytest.mark.parametrize("venue", ["submarket", "global"])
@pytest.mark.parametrize(
    "field, message",
    [("row_duals", "hedge misses the claim"), ("x", "measure set|cone witness")],
)
@pytest.mark.parametrize("mode, error", [("rational", CertificateViolation), ("float", NumericBreakdown)])
def test_forged_certificate_is_rejected(monkeypatch, m2, venue, field, message, mode, error):
    model = load_market({**serialize_market(m2), "mode": mode})
    h = terminal_asset_claim(model, "tau1")
    _forge(monkeypatch, field)
    with pytest.raises(error, match=message):
        if venue == "global":
            price_global(model, h)
        else:
            price_submarket(model, h, "tau1")


def test_integer_cone_check_reports_what_the_fraction_sums_report(monkeypatch):
    # a witness off the cone by 1/10**40 on one atom of a planted 36-atom model
    model = random_model(0, atoms=36, periods=1, submarkets=2, arbitrage_free=True)
    h = random_claim(random.Random(0), model)
    seen = []
    solve = pricing.solve_lp

    def nudged(*args, **kwargs):
        out = solve(*args, **kwargs)
        seen.append((out.x[0] + F(1, 10**40),) + out.x[1:])
        return dataclasses.replace(out, x=seen[-1])

    monkeypatch.setattr(pricing, "solve_lp", nudged)
    with pytest.raises(CertificateViolation) as err:
        price_global(model, h)
    # the same check on Fraction sums
    for g in scope_basis(model, GLOBAL):
        r = sum(v * w for v, w in zip(g.payoff, seen[-1]))
        if r != 0:
            break
    assert r != 0
    assert str(err.value) == f"cone witness not orthogonal to gain {g.submarket}/{g.node}/{g.asset}: {r}"
    assert err.value.value == r and type(err.value.value) is F


@pytest.mark.parametrize("venue", ["submarket", "global"])
@pytest.mark.parametrize("mode, error", [("rational", CertificateViolation), ("float", NumericBreakdown)])
def test_witness_outside_its_budget_is_rejected(monkeypatch, m2, venue, mode, error):
    # twice the LP's witness stays nonnegative and orthogonal to every gain;
    # only a budget row can reject it
    model = load_market({**serialize_market(m2), "mode": mode})
    h = terminal_asset_claim(model, "tau1")
    solve = pricing.solve_lp

    def doubled(*args, **kwargs):
        out = solve(*args, **kwargs)
        return dataclasses.replace(out, x=tuple(2 * v for v in out.x))

    monkeypatch.setattr(pricing, "solve_lp", doubled)
    with pytest.raises(error, match="budget"):
        if venue == "global":
            price_global(model, h)
        else:
            price_submarket(model, h, "tau1")


_FORGED_UNDER_O = """
import dataclasses, json, sys
from multimarket import pricing
from multimarket.errors import CertificateViolation
from multimarket.market import load_market

solve = pricing.solve_lp

def forged(*args, **kwargs):
    out = solve(*args, **kwargs)
    duals = (out.row_duals[0] + 1,) + out.row_duals[1:]
    return dataclasses.replace(out, row_duals=duals)

pricing.solve_lp = forged
with open(sys.argv[1]) as handle:
    model = load_market(json.load(handle))
try:
    pricing.price_global(model, pricing.terminal_asset_claim(model, "tau1"))
except CertificateViolation:
    print("debug", __debug__, "raised")
"""


def test_forged_certificate_is_rejected_under_optimize_flag(m2_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-O", "-c", _FORGED_UNDER_O, m2_path],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.stdout == "debug False raised\n", out.stderr


def test_dual_certificate_m2(m2):
    h = terminal_asset_claim(m2, "tau1")
    allocation = {"tau1": F(0), "tau2": F(15, 4)}
    assert dual_certificate_global(m2, h, allocation, {"tau1": F(1)}) == 0
    assert dual_certificate_global(m2, h, allocation, {"tau1": F(1), "tau2": F(1)}) == 0
    zero = {a: F(0) for a in m2.tree.leaves}
    assert dual_certificate_global(m2, zero, {}, {"tau1": F(1)}) == 0
    over = {"tau1": F(1), "tau2": F(15, 4)}
    with pytest.raises(CertificateViolation) as err:
        dual_certificate_global(m2, h, over, {"tau1": F(1)})
    assert err.value.value < 0


def test_dual_bounds_m2(m2):
    ratio2 = dict(m2.numeraire_ratio("tau2"))
    lower, upper = dual_bounds_global(m2, ratio2)
    assert lower == F(1)
    assert upper == F(16, 15)

    solo = make_model(m2.tree, [m2.submarket("tau1")])
    h = terminal_asset_claim(solo, "tau1")
    lo, hi = dual_bounds_global(solo, h)
    assert lo == hi == price_global(solo, h).price


def test_price_fractional_and_reciprocal(m2):
    h = terminal_asset_claim(m2, "tau1")
    ratio2 = m2.numeraire_ratio("tau2")
    assert price_fractional(m2, h, ratio2) == F(15, 4)
    assert fractional_reciprocal(m2, h, ratio2) == F(15, 4)
    assert price_fractional(m2, dict(ratio2), ratio2) == 1


def test_price_fractional_is_the_risk_neutral_price_on_a_complete_binary_model(m2):
    # one binary step, asset 4 -> 6 or 3 under a unit numeraire: the unit
    # weight leaves the unique risk-neutral measure (1/3, 2/3)
    solo = make_model(m2.tree, [m2.submarket("tau1")])
    unit = {a: F(1) for a in solo.tree.leaves}
    h = {"r.0": F(6), "r.1": F(3)}
    for sense in ("max", "min"):
        assert price_fractional(solo, h, unit, sense=sense) == F(1, 3) * 6 + F(2, 3) * 3 == F(4)
    assert price_fractional(solo, {"r.0": F(1), "r.1": F(0)}, unit) == F(1, 3)


@given(st.integers(1, 40))
def test_price_fractional_positively_homogeneous(c):
    m2 = desk_market_m2()
    h = terminal_asset_claim(m2, "tau1")
    weight = m2.numeraire_ratio("tau2")
    for scope in (GLOBAL, "tau1", "tau2"):
        base = price_fractional(m2, h, weight, scope=scope)
        scaled = price_fractional(m2, {a: F(c) * v for a, v in h.items()}, weight, scope=scope)
        assert scaled == F(c) * base, scope


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_price_fractional_degenerate_denominator(m2, mode):
    # the gain (1, 2) is positive on every atom, so the deflator cone meets
    # the nonnegative orthant only at 0 and no slice E[X Z] = 1 exists
    rising = Submarket(
        "rising",
        1,
        {"r": (F(1),), "r.0": (F(2),), "r.1": (F(3),)},
        {n: F(1) for n in m2.tree.nodes},
    )
    model = load_market({**serialize_market(make_model(m2.tree, [rising])), "mode": mode})
    unit = {a: 1 for a in model.tree.leaves}
    for scope in (GLOBAL, "rising"):
        with pytest.raises(DegenerateDenominator):
            price_fractional(model, unit, unit, scope=scope)


def _cone_lp_shape(model, prog):
    """Why `prog` is not a cone LP of `model`, or None: default bounds, one
    column per atom, one scope's gain rows == 0, then budget rows == 1 or
    <= 1 with right-hand side 1."""
    n = len(model.tree.leaves)
    if len(prog.objective) != n or prog.bounds != ((0, None),) * n:
        return "not one nonnegative column per atom"
    gains = [
        tuple(from_row(v, den, prog.exact) for v in nums) for nums, den, rel, rhs in prog.rows if (rel, rhs) == (EQ, 0)
    ]
    budgets = prog.rows[len(gains):]
    bases = [[g.payoff for g in scope_basis(model, s)] for s in (GLOBAL, *model.labels)]
    if gains not in bases:
        return "leading rows are not one scope's gains"
    if not budgets or any(rel not in (EQ, LE) or rhs != 1 for *_, rel, rhs in budgets):
        return "budget rows are not == 1 or <= 1"
    return None


def test_every_pricing_lp_of_verify_is_a_cone_lp(monkeypatch, capsys, tmp_path, m2_path):
    received = []
    solve = lp_module.solve_lp

    def recorded(prog):
        received.append(prog)
        return solve(prog)

    monkeypatch.setattr(pricing, "solve_lp", recorded)
    with open(m2_path) as handle:
        documents = [json.load(handle)]
    for seed in (0, 1, 2, 3):
        model = random_model(seed, arbitrage_free=True)
        document = serialize_market(model)
        claim = random_claim(random.Random(seed), model)
        document["claims"] = [{"label": "H", "payoff": {a: str(v) for a, v in claim.items()}}]
        documents.append(document)
    for k, document in enumerate(documents):
        for mode in ("rational", "float"):
            spec = tmp_path / f"model{k}-{mode}.json"
            spec.write_text(json.dumps({**document, "mode": mode}))
            model = load_market(json.loads(spec.read_text()))
            received.clear()
            assert cli.main(["verify", str(spec)]) == 0
            assert received, (k, mode)
            faults = [_cone_lp_shape(model, prog) for prog in received]
            assert faults == [None] * len(received), (k, mode)
    capsys.readouterr()


def test_one_dim_identity_suite_m2(m2):
    report = one_dim_identity_suite(m2, "tau1", "tau2")
    assert report.ok
    checks = report.checks
    assert checks["own_venue"].lhs == F(4)
    assert checks["cross_venue_sup"].lhs == F(15, 4)
    assert checks["swap_decomposition"].lhs == F(15, 4) - F(5)
    degenerate = one_dim_identity_suite(m2, "tau1", "tau1")
    assert degenerate.checks["swap_decomposition"].lhs == 0
    assert degenerate.ok


def test_identity_suite_requires_dimension_one(m2):
    wide = Submarket(
        "wide",
        2,
        {n: (F(1), F(2)) for n in m2.tree.nodes},
        {n: F(1) for n in m2.tree.nodes},
    )
    model = make_model(m2.tree, [m2.submarket("tau1"), wide])
    with pytest.raises(DimensionNotOne):
        one_dim_identity_suite(model, "tau1", "wide")


def test_identity_suite_zero_residual_on_random_complete_pairs():
    from multimarket.generate import random_complete_pair

    for seed in range(20):
        model = random_complete_pair(seed)
        report = one_dim_identity_suite(model, *model.labels)
        assert report.ok, (seed, report.residuals())
        flipped = one_dim_identity_suite(model, *reversed(model.labels))
        assert flipped.ok, (seed, flipped.residuals())


def test_identity_factorized_form_needs_a_pinned_venue():
    # hedging venue with a flat asset: its measure set is the whole simplex,
    # the LP price is the claim's maximum, and the factorized form undershoots
    from multimarket.tree import build_tree

    tree = build_tree([2], ["1/2", "1/2"])
    flat_venue = Submarket(
        "venue", 1, {n: (F(1),) for n in tree.nodes}, {n: F(1) for n in tree.nodes}
    )
    moving = Submarket(
        "asset",
        1,
        {"r": (F(1),), "r.0": (F(4),), "r.1": (F(1, 4),)},
        {"r": F(1), "r.0": F(2), "r.1": F(1, 2)},
    )
    model = make_model(tree, [moving, flat_venue])
    assert check_global_nfl(model).ok
    report = one_dim_identity_suite(model, "asset", "venue")
    assert price_submarket(model, terminal_asset_claim(model, "asset"), "venue").price == F(4)
    assert report.checks["cross_venue_sup"].rhs == F(2)
    assert not report.ok


def test_basis_swap_venues(m2):
    assert basis_swap_price(m2, "tau1", "tau2", "tau2").price == F(-5, 4)
    assert basis_swap_price(m2, "tau1", "tau2", "tau1").price == F(-4, 3)
    assert basis_swap_price(m2, "tau1", "tau2", "global").price == F(0)
    assert basis_swap_price(m2, "tau1", "tau1", "global").price == 0
    assert basis_swap_price(m2, "tau1", "tau1", "tau2").price == 0
    # decomposition: swap price plus own-asset price recovers the cross price
    swap = basis_swap_price(m2, "tau1", "tau2", "tau2").price
    own = price_submarket(m2, terminal_asset_claim(m2, "tau2"), "tau2").price
    cross = price_submarket(m2, terminal_asset_claim(m2, "tau1"), "tau2").price
    assert swap + own == cross


def test_constant_ratio_m2(m2):
    h = terminal_asset_claim(m2, "tau1")
    report = price_constant_ratio(m2, h, {"tau2": F(1)})
    assert report.price == F(15, 4)
    assert report.tau_max == "tau2"
    assert report.c_values == {"tau1": F(15, 16), "tau2": F(1)}
    assert dict(report.allocation) == {"tau2": F(15, 4)}
    assert report.lp_price == report.price


@pytest.mark.parametrize("mode, error", [("rational", CertificateViolation), ("float", NumericBreakdown)])
def test_constant_ratio_compares_the_concentrated_price_in_both_modes(monkeypatch, m2, mode, error):
    model = load_market({**serialize_market(m2), "mode": mode})
    h = terminal_asset_claim(model, "tau1")
    assert price_constant_ratio(model, h, {"tau2": 1}).price == pytest.approx(3.75)
    venue = pricing._price_venue

    def shifted(model, h, scope, labels):
        report = venue(model, h, scope, labels)
        if len(labels) == 1 and scope == GLOBAL:  # the concentrated-funding LP
            return dataclasses.replace(report, price=report.price + report.price / 1000)
        return report

    monkeypatch.setattr(pricing, "_price_venue", shifted)
    fresh = load_market({**serialize_market(m2), "mode": mode})
    with pytest.raises(error, match="concentrated funding LP"):
        price_constant_ratio(fresh, terminal_asset_claim(fresh, "tau1"), {"tau2": 1})


def test_constant_ratio_single_submarket(m2):
    solo = make_model(m2.tree, [m2.submarket("tau1")])
    h = terminal_asset_claim(solo, "tau1")
    report = price_constant_ratio(solo, h, {"tau1": F(1)})
    assert report.c_values == {"tau1": F(1)}
    assert report.price == price_submarket(solo, h, "tau1").price


def test_constant_ratio_condition_not_met():
    # incomplete market (3 atoms, 1 effective constraint): the measure set is
    # a segment, and a stochastic foreign growth ratio varies across it
    from multimarket.tree import build_tree

    tree = build_tree([3], ["1/3", "1/3", "1/3"])
    base = Submarket(
        "base",
        1,
        {"r": (F(2),), "r.0": (F(1),), "r.1": (F(2),), "r.2": (F(3),)},
        {n: F(1) for n in tree.nodes},
    )
    carry = Submarket(
        "carry",
        1,
        {"r": (F(1),), "r.0": (F(1),), "r.1": (F(3, 2),), "r.2": (F(1),)},
        {"r": F(1), "r.0": F(1), "r.1": F(3, 2), "r.2": F(1)},
    )
    model = make_model(tree, [base, carry])
    assert check_global_nfl(model).ok
    with pytest.raises(ConditionNotMet):
        price_constant_ratio(model, {"r.0": F(1), "r.1": F(1), "r.2": F(1)}, {"base": F(1)})


def test_constant_ratio_deterministic_numeraires_match_global():
    for seed in (0, 2, 4, 6):
        model = random_model(
            seed, arbitrage_free=True, submarkets=2, deterministic_numeraires=True
        )
        rng = random.Random(seed + 100)
        h = random_claim(rng, model)
        ratios = {lab: next(iter(model.numeraire_ratio(lab).values())) for lab in model.labels}
        tau_max = max(model.labels, key=lambda lab: ratios[lab])
        report = price_constant_ratio(model, h, {tau_max: F(1)})
        assert report.price == price_global(model, h).price
        assert set(report.allocation) == {report.tau_max}


def test_two_market_m2(m2):
    report = two_market_report(m2)
    assert not report.hypothesis_holds  # cross price 15/4 below the spot 5
    assert report.swap_formulas is None
    assert report.swap_lp_price == 0
    for check in report.min_formula.values():
        assert check.residual == 0
    assert report.p_cross["tau1"] == F(15, 4)


def test_two_market_symmetric_copy(m2):
    tau1 = m2.submarket("tau1")
    clone = Submarket("copy", 1, tau1.assets, tau1.numeraire)
    model = make_model(m2.tree, [tau1, clone])
    report = two_market_report(model)
    assert report.hypothesis_holds
    assert report.swap_lp_price == 0
    for check in report.min_formula.values():
        assert check.lhs == F(4)
        assert check.residual == 0
    for check in report.swap_formulas.values():
        assert check.residual == 0


def test_two_market_wrong_shape(m2):
    solo = make_model(m2.tree, [m2.submarket("tau1")])
    with pytest.raises(WrongShape):
        two_market_report(solo)


def test_two_market_random_closed_forms():
    hypothesis_hits = 0
    for seed in range(0, 60, 2):
        model = random_model(seed, arbitrage_free=True, submarkets=2, dims=[1, 1])
        report = two_market_report(model)
        for check in report.min_formula.values():
            assert check.residual == 0, seed
        if report.hypothesis_holds:
            hypothesis_hits += 1
            for check in report.swap_formulas.values():
                assert check.residual == 0, (seed, report)
    assert hypothesis_hits > 0


@given(st.integers(0, 30), st.fractions(min_value=0, max_value=9))
def test_positive_homogeneity(seed, scale):
    model = random_model(seed % 6, arbitrage_free=True)
    rng = random.Random(seed)
    h = random_claim(rng, model)
    scaled = {a: scale * v for a, v in h.items()}
    assert price_global(model, scaled).price == scale * price_global(model, h).price
    label = model.labels[0]
    assert (
        price_submarket(model, scaled, label).price
        == scale * price_submarket(model, h, label).price
    )


@given(st.integers(0, 30))
def test_monotonicity(seed):
    model = random_model(seed % 6, arbitrage_free=True)
    rng = random.Random(seed)
    h = random_claim(rng, model)
    bigger = {a: v + F(rng.randint(0, 5)) for a, v in h.items()}
    assert price_global(model, bigger).price >= price_global(model, h).price
    assert price_lower(model, bigger).price >= price_lower(model, h).price


def test_numeraire_scaling_invariance(m2):
    h = terminal_asset_claim(m2, "tau1")
    scaled = scale_submarket(scale_submarket(m2, "tau2", F(9, 2)), "tau1", F(3))
    h_scaled = {a: F(3) * v for a, v in h.items()}  # claim follows tau1's asset
    assert price_global(scaled, h_scaled).price == F(3) * price_global(m2, h).price
    assert (
        price_submarket(scaled, dict(h), "tau2").price
        == price_submarket(m2, dict(h), "tau2").price
    )


def test_ordering_on_random_models():
    for seed in range(0, 30):
        model = random_model(seed)
        if not check_global_nfl(model).ok:
            continue
        rng = random.Random(1000 + seed)
        for _ in range(2):
            h = random_claim(rng, model)
            joint = price_global(model, h).price
            lower = price_lower(model, h).price
            upper = price_upper(model, h).price
            assert joint <= lower <= upper
