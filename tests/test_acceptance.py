"""Acceptance gate: one test per criterion, each printing a pass line.

Everything runs in rational mode with zero-tolerance equality unless a
criterion explicitly allows float comparison.  Random instances are seeded
and the populations (arbitrage-free vs. not, hypothesis branches) are
asserted, not hoped for.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

from crosschecks import strategy_wealth
from multimarket.arbitrage import (
    arbitrage_lp,
    check_global_nfl,
    check_submarket_nfl,
)
from multimarket.gains import strategy_cost
from multimarket.generate import (
    random_claim,
    random_complete_pair,
    random_model,
)
from multimarket.multicurve import (
    RateStructure,
    ZcQuote,
    build_tenor_market,
    common_measure_check,
    cotrade_arbitrage_demo,
    fra_rate,
)
from multimarket.pricing import (
    basis_swap_price,
    dual_bounds_global,
    dual_certificate_global,
    one_dim_identity_suite,
    price_constant_ratio,
    price_global,
    price_lower,
    price_submarket,
    price_upper,
    terminal_asset_claim,
    two_market_report,
)
from multimarket.tree import build_tree
from oracle import brute_superreplication, grid_superreplication

from conftest import desk_market_m1, desk_market_m2

N_MODELS = 200


def _models():
    for seed in range(N_MODELS):
        yield seed, random_model(seed)


def _passed(name, detail=""):
    print(f"PASS {name}" + (f" ({detail})" if detail else ""))


def test_criterion_1_ftap_equivalence():
    started = time.time()
    ok_count = 0
    for seed, model in _models():
        result = check_global_nfl(model)
        lp_value, witness = arbitrage_lp(model)
        if result.ok:
            ok_count += 1
            assert lp_value == 0, f"seed {seed}: certificate vs direct LP disagree"
            cert = result.certificate
            tree = model.tree
            assert all(cert.xstar[a] > 0 for a in tree.leaves)
            assert sum(tree.atom_probs[a] * cert.xstar[a] for a in tree.leaves) == 1
            for g in cert.basis_checked:
                assert (
                    sum(
                        tree.atom_probs[a] * cert.xstar[a] * g.payoff[k]
                        for k, a in enumerate(tree.leaves)
                    )
                    == 0
                )
        else:
            assert lp_value is None, f"seed {seed}: witness vs direct LP disagree"
    elapsed = time.time() - started
    assert elapsed < 30, f"criterion 1 took {elapsed:.1f}s"
    assert 0 < ok_count < N_MODELS  # both populations exercised
    _passed(
        "1 FTAP equivalence",
        f"{N_MODELS} models, {ok_count} arbitrage-free, {elapsed:.1f}s",
    )


def test_criterion_2_cross_market_fixture():
    m1 = desk_market_m1()
    assert check_submarket_nfl(m1, "tau1").ok
    assert check_submarket_nfl(m1, "tau2").ok
    result = check_global_nfl(m1)
    assert not result.ok
    witness = result.witness
    payoff = witness.payoff
    values = [payoff[a] for a in m1.tree.leaves]
    assert all(v >= 0 for v in values) and any(v > 0 for v in values)
    assert strategy_wealth(m1, witness.strategy) == dict(payoff)
    assert all(c == 0 for c in strategy_cost(m1, witness.strategy).values())
    _passed("2 cross-submarket arbitrage fixture")


def _arbitrage_free_models_with_claims():
    for seed in range(N_MODELS):
        model = random_model(seed)
        if not check_global_nfl(model).ok:
            continue
        rng = random.Random(10_000 + seed)
        claims = [random_claim(rng, model) for _ in range(3)]
        yield seed, model, claims


def test_criterion_3_pricing_duality():
    instances = 0
    for seed, model, claims in _arbitrage_free_models_with_claims():
        for h in claims:
            joint = price_global(model, h)
            assert joint.duality_gap == 0, f"seed {seed}"
            for label in model.labels:
                single = price_submarket(model, h, label)
                assert single.duality_gap == 0, f"seed {seed}/{label}"
            instances += 1
    assert instances >= 100
    _passed("3 pricing duality", f"{instances} claim instances, gap 0")


def test_criterion_4_ordering():
    for seed, model, claims in _arbitrage_free_models_with_claims():
        for h in claims:
            joint = price_global(model, h).price
            lower = price_lower(model, h).price
            upper = price_upper(model, h).price
            assert joint <= lower <= upper, f"seed {seed}"
    _passed("4 price ordering joint <= single-best <= all-venues")


def test_criterion_5_certificate_and_bounds():
    for seed, model, claims in _arbitrage_free_models_with_claims():
        for h in claims:
            joint = price_global(model, h)
            lam = {k: v for k, v in joint.allocation.items() if v > 0} or {
                lab: F(1) for lab in model.labels
            }
            value = dual_certificate_global(model, h, joint.allocation, lam)
            assert value == 0, f"seed {seed}: certificate {value}"
            lo, hi = dual_bounds_global(model, h)
            assert lo <= joint.price <= hi, f"seed {seed}"
    _passed("5 attained-allocation certificate 0, growth bounds bracket")


def test_criterion_6_one_dimensional_identities():
    m2 = desk_market_m2()
    report = one_dim_identity_suite(m2, "tau1", "tau2")
    assert report.ok
    assert price_submarket(m2, terminal_asset_claim(m2, "tau1"), "tau1").price == F(4)
    assert price_submarket(m2, terminal_asset_claim(m2, "tau1"), "tau2").price == F(15, 4)
    assert basis_swap_price(m2, "tau1", "tau2", "tau2").price == F(-5, 4)
    for seed in range(100):
        pair = random_complete_pair(seed)
        suite = one_dim_identity_suite(pair, *pair.labels)
        assert suite.ok, (seed, suite.residuals())
    _passed("6 identity suite zero residuals", "100 pairs + desk fixture")


def test_criterion_7_two_submarket_closed_forms():
    holds = fails = 0
    for seed in range(100):
        model = random_model(seed, arbitrage_free=True, submarkets=2, dims=[1, 1])
        report = two_market_report(model)
        for check in report.min_formula.values():
            assert check.residual == 0, seed
        if report.hypothesis_holds:
            holds += 1
            for check in report.swap_formulas.values():
                assert check.residual == 0, seed
        else:
            fails += 1
            assert report.swap_formulas is None
    assert holds >= 10 and fails >= 10, (holds, fails)
    _passed("7 two-submarket closed forms", f"hypothesis holds {holds}, fails {fails}")


def test_criterion_8_constant_ratio_rule():
    checked = 0
    for seed in range(0, 40, 2):
        model = random_model(
            seed, arbitrage_free=True, submarkets=2, deterministic_numeraires=True
        )
        rng = random.Random(seed)
        h = random_claim(rng, model)
        ratios = {
            lab: next(iter(model.numeraire_ratio(lab).values())) for lab in model.labels
        }
        tau_max = max(model.labels, key=lambda lab: ratios[lab])
        report = price_constant_ratio(model, h, {tau_max: F(1)})
        assert report.price == price_global(model, h).price
        assert set(report.allocation) == {report.tau_max}
        checked += 1
    assert checked == 20
    _passed("8 constant-growth shortcut equals the joint LP", f"{checked} models")


def test_criterion_9_multicurve():
    rate = fra_rate(F(99, 100), F(97, 100), F(1, 4), F(1, 2))
    assert abs(float(rate) - 0.0824742268041237) < 1e-12

    rng = random.Random(77)
    tree = build_tree([2], ["1/2", "1/2"])
    for _ in range(20):
        a = F(rng.randint(80, 99), 100)
        b = F(rng.randint(80, 99), 100)
        if a == b:
            b = a - F(1, 100)
        demo = cotrade_arbitrage_demo(ZcQuote("a", a), ZcQuote("b", b), tree)
        assert not demo.merged_nfl_ok and demo.split_nfl_ok

    two_period = build_tree([2, 2], ["1/4"] * 4)
    base = {n: F(rng.randint(1, 9), 50) for n in two_period.nonterminal()}
    spreads = {
        "t3m": {n: F(1, 100) for n in base},
        "t6m": {n: F(3, 100) for n in base},
    }
    model = build_tenor_market(two_period, RateStructure(base_rate=base, spreads=spreads), {})
    result = check_global_nfl(model)
    assert result.ok
    report = common_measure_check(model, result.certificate)
    assert report.common and report.max_tv_distance == 0
    _passed("9 multicurve: forward rate, co-trade demo, common measures")


def test_criterion_10_oracle_equivalence():
    from multimarket.arbitrage import scope_basis

    exact_checked = grid_checked = 0
    for seed in range(N_MODELS):
        model = random_model(seed, arbitrage_free=True)
        if len(scope_basis(model, "global")) > 10:
            continue
        rng = random.Random(20_000 + seed)
        h = random_claim(rng, model)
        assert (
            brute_superreplication(model, h, "global").value
            == price_global(model, h).price
        ), seed
        label = model.labels[seed % len(model.labels)]
        assert (
            brute_superreplication(model, h, label).value
            == price_submarket(model, h, label).price
        ), seed
        exact_checked += 1
        if grid_checked < 50 and len(model.labels) <= 2 and all(
            s.dim == 1 for s in model.submarkets
        ):
            from oracle import TooLarge
            from test_oracle import _float_twin

            twin = _float_twin(model)
            floats = {a: float(v) for a, v in h.items()}
            try:
                grid = grid_superreplication(twin, floats, "global")
            except TooLarge:
                continue  # beyond the grid method's tighter caps
            assert abs(grid.value - float(price_global(model, h).price)) < 1e-6, seed
            grid_checked += 1
    assert exact_checked >= 150
    assert grid_checked >= 40
    _passed(
        "10 oracle equivalence",
        f"{exact_checked} exact active-set, {grid_checked} float grid",
    )


def test_criterion_11_verify_is_byte_stable(m2_path):
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(os.path.dirname(__file__), "..", "src")
        + os.pathsep
        + env.get("PYTHONPATH", "")
    )
    runs = {
        subprocess.run(
            [sys.executable, "-m", "multimarket.cli", "verify", m2_path],
            capture_output=True,
            check=True,
            env=env,
        ).stdout
        for _ in range(5)
    }
    assert len(runs) == 1
    _passed("11 verify output byte-identical across 5 runs")
