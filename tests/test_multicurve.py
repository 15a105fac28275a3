import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multimarket.arbitrage import check_global_nfl
from multimarket.gains import elementary_gains
from multimarket.market import discounted_prices
from multimarket.errors import (
    BadMaturities,
    NonPositiveAccumulation,
    NonPositiveBond,
    QuotesEqual,
)
from multimarket.multicurve import (
    RateStructure,
    ZcQuote,
    build_tenor_market,
    common_measure_check,
    cotrade_arbitrage_demo,
    fra_rate,
    numeraire_from_rates,
)
from multimarket.tree import build_tree


def test_fra_fixture_value():
    rate = fra_rate(F(99, 100), F(97, 100), F(1, 4), F(1, 2))
    assert rate == F(8, 97)
    assert abs(float(rate) - 0.0824742268041237) < 1e-12


def test_fra_flat_and_inverted():
    assert fra_rate(F(97, 100), F(97, 100), F(1, 4), F(1, 2)) == 0
    assert fra_rate(F(95, 100), F(97, 100), F(1, 4), F(1, 2)) < 0


def test_fra_errors():
    with pytest.raises(BadMaturities):
        fra_rate(F(1), F(1), F(1, 2), F(1, 2))
    with pytest.raises(NonPositiveBond):
        fra_rate(F(0), F(1), F(1, 4), F(1, 2))


@given(st.fractions(min_value="1/10", max_value=10))
def test_fra_invariant_under_common_bond_scaling(scale):
    base = fra_rate(F(99, 100), F(97, 100), F(1, 4), F(1, 2))
    scaled = fra_rate(scale * F(99, 100), scale * F(97, 100), F(1, 4), F(1, 2))
    assert scaled == base


def _two_period_tree():
    return build_tree([2, 2], ["1/4"] * 4)


def test_zero_spreads_single_numeraire():
    tree = _two_period_tree()
    base = {n: F(1, 20) for n in tree.nonterminal()}
    rates = RateStructure(
        base_rate=base,
        spreads={"a": {n: F(0) for n in base}, "b": {n: F(0) for n in base}},
    )
    model = build_tenor_market(tree, rates, {})
    num_a = model.submarket("a").numeraire
    num_b = model.submarket("b").numeraire
    assert num_a == num_b
    result = check_global_nfl(model)
    assert result.ok
    assert common_measure_check(model, result.certificate).common


def test_deterministic_rates_give_deterministic_numeraires():
    tree = _two_period_tree()
    base = {n: F(1, 20) if tree.nodes[n].time == 0 else F(1, 10) for n in tree.nonterminal()}
    rates = RateStructure(base_rate=base, spreads={"a": {n: F(1, 100) for n in base}})
    numeraire = numeraire_from_rates(tree, rates, "a")
    by_level = {}
    for node_id, value in numeraire.items():
        by_level.setdefault(tree.nodes[node_id].time, set()).add(value)
    assert all(len(values) == 1 for values in by_level.values())


def test_stochastic_rate_deterministic_spreads_share_one_measure():
    tree = _two_period_tree()
    rng = random.Random(3)
    base = {n: F(rng.randint(1, 9), 50) for n in tree.nonterminal()}
    spreads = {
        "t3m": {n: F(1, 100) for n in base},
        "t6m": {n: F(3, 100) for n in base},
        "t1y": {n: F(0) for n in base},
    }
    rates = RateStructure(base_rate=base, spreads=spreads)
    model = build_tenor_market(tree, rates, {})
    result = check_global_nfl(model)
    assert result.ok
    report = common_measure_check(model, result.certificate)
    assert report.common
    assert report.max_tv_distance == 0


def test_exact_tenor_market_holds_rationals():
    # an int initial level and int asset values: int/int quotients would be
    # floats, and the "exact" deflator a binary approximation
    tree = build_tree([2], ["1/2", "1/2"])
    rates = RateStructure(
        base_rate={"r": F(1, 10)}, spreads={"a": {"r": F(0)}}, initial_numeraire={"a": 3}
    )
    model = build_tenor_market(tree, rates, {"a": {"r": (1,), "r.0": (2,), "r.1": (F(1, 2),)}})
    prices = discounted_prices(model, "a")
    assert prices["r"] == (F(1, 3),)
    assert all(type(v) is F for values in prices.values() for v in values)
    assert all(type(v) is F for g in elementary_gains(model, "a") for v in g.payoff)
    result = check_global_nfl(model)
    assert dict(result.certificate.xstar) == {"r.0": F(4, 5), "r.1": F(6, 5)}

    # the default initial level 1, numeraire-only tenors
    rates = RateStructure(base_rate={"r": F(1, 10)}, spreads={"b": {"r": F(0)}})
    quoted = build_tenor_market(tree, rates, {})
    assert all(type(v) is F for values in discounted_prices(quoted, "b").values() for v in values)


def test_m2_measures_are_distinct(m2):
    cert = check_global_nfl(m2).certificate
    report = common_measure_check(m2, cert)
    assert not report.common
    assert report.max_tv_distance == F(1, 24)


def test_single_submarket_trivially_common(m2):
    from multimarket.market import make_model

    solo = make_model(m2.tree, [m2.submarket("tau2")])
    cert = check_global_nfl(solo).certificate
    assert common_measure_check(solo, cert).common


def test_accumulation_must_stay_positive():
    tree = build_tree([2], ["1/2", "1/2"])
    rates = RateStructure(
        base_rate={"r": F(-2)}, spreads={"a": {"r": F(0)}}
    )
    with pytest.raises(NonPositiveAccumulation):
        numeraire_from_rates(tree, rates, "a")


def test_cotrade_demo_fixture_quotes():
    tree = build_tree([2], ["1/2", "1/2"])
    demo = cotrade_arbitrage_demo(ZcQuote("t3m", F(97, 100)), ZcQuote("t6m", F(96, 100)), tree)
    assert not demo.merged_nfl_ok
    assert demo.split_nfl_ok
    payoff = demo.merged_witness.payoff
    assert all(v == F(1, 97) for v in payoff.values())
    assert demo.narrative


def test_cotrade_equal_quotes_raise():
    tree = build_tree([2], ["1/2", "1/2"])
    with pytest.raises(QuotesEqual):
        cotrade_arbitrage_demo(ZcQuote("a", F(1, 2)), ZcQuote("b", F(1, 2)), tree)


def test_cotrade_intro_shape_same_terminal_value():
    # same terminal price, different spots: merged arbitrage, split clean
    tree = build_tree([2, 2], ["1/4"] * 4)
    demo = cotrade_arbitrage_demo(ZcQuote("one", F(9, 10)), ZcQuote("two", F(19, 20)), tree)
    assert not demo.merged_nfl_ok and demo.split_nfl_ok


def test_cotrade_random_quote_pairs():
    rng = random.Random(12)
    tree = build_tree([2], ["1/3", "2/3"])
    for _ in range(20):
        a = F(rng.randint(80, 99), 100)
        b = F(rng.randint(80, 99), 100)
        if a == b:
            b = a - F(1, 100)
        demo = cotrade_arbitrage_demo(ZcQuote("a", a), ZcQuote("b", b), tree)
        assert not demo.merged_nfl_ok
        assert demo.split_nfl_ok
        assert all(v > 0 for v in demo.merged_witness.payoff.values())


_COTRADE_UNDER_O = """
from fractions import Fraction as F
from multimarket import multicurve
from multimarket.arbitrage import NflResult
from multimarket.errors import CertificateViolation
from multimarket.tree import build_tree

# a checker that finds no arbitrage in the merged market
multicurve.check_global_nfl = lambda model: NflResult(ok=True)
tree = build_tree([2], ["1/2", "1/2"])
try:
    multicurve.cotrade_arbitrage_demo(
        multicurve.ZcQuote("t3m", F(97, 100)), multicurve.ZcQuote("t6m", F(96, 100)), tree
    )
except CertificateViolation:
    print("debug", __debug__, "raised")
"""


def test_cotrade_checks_survive_optimize_flag():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-O", "-c", _COTRADE_UNDER_O], capture_output=True, text=True, env=env
    )
    assert out.stdout == "debug False raised\n", out.stderr
