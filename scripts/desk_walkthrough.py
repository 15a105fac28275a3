"""End-to-end walkthrough on the two desk fixtures.

Prints the whole story for the canonical two-submarket market: validation,
elementary gains, the common deflator and the measures built from it, all
four superreplication prices of the first asset, the identity suite, and the
cross-market arbitrage that appears once the second submarket's down state
is lowered.

Run:  python scripts/desk_walkthrough.py
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from multimarket.arbitrage import (
    check_global_nfl,
    check_submarket_nfl,
    martingale_measure,
    state_price_deflator,
)
from multimarket.gains import elementary_gains, strategy_cost
from multimarket.market import load_market, tightest_bound
from multimarket.multicurve import common_measure_check
from multimarket.pricing import (
    basis_swap_price,
    one_dim_identity_suite,
    price_global,
    price_lower,
    price_submarket,
    price_upper,
    terminal_asset_claim,
    two_market_report,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def load(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return load_market(json.load(fh))


def main():
    m2 = load("m2.json")
    # load_market validates: the model is well formed once it loads
    print(f"model ok=True, tightest bound K={tightest_bound(m2)}")
    for label in m2.labels:
        gains = [g.payoff for g in elementary_gains(m2, label)]
        print(f"elementary gains {label}: {gains}")

    result = check_global_nfl(m2)
    cert = result.certificate
    print(f"\ncommon deflator: {dict(cert.xstar)}")
    for label in m2.labels:
        q = martingale_measure(m2, cert, label)
        d = state_price_deflator(m2, cert, label)
        print(f"measure {label}: {q}   state-price deflator at root: {d['r']}")
    measures = common_measure_check(m2, cert)
    print(f"measures common: {measures.common} (max TV distance {measures.max_tv_distance})")

    h = terminal_asset_claim(m2, "tau1")
    print(f"\nclaim = first asset's terminal value {dict(h)}")
    print(f"  own venue      : {price_submarket(m2, h, 'tau1').price}")
    print(f"  other venue    : {price_submarket(m2, h, 'tau2').price}")
    lower, upper = price_lower(m2, h), price_upper(m2, h)
    print(f"  best single    : {lower.price} via {lower.selected_submarket}")
    print(f"  every venue    : {upper.price} via {upper.selected_submarket}")
    joint = price_global(m2, h)
    print(f"  joint funding  : {joint.price} with allocation {dict(joint.allocation)}")
    print(f"  hedge positions: {dict(joint.hedge.risky['tau1'])} in tau1")

    print("\nidentity suite residuals:", one_dim_identity_suite(m2, "tau1", "tau2").residuals())
    swap = basis_swap_price(m2, "tau1", "tau2", "tau2")
    print(f"basis swap priced in tau2: {swap.price}")
    tm = two_market_report(m2)
    print(f"two-market closed form hypothesis holds: {tm.hypothesis_holds}; "
          f"joint swap price {tm.swap_lp_price}")

    m1 = load("m1.json")
    print("\nlowering tau2's down state to 4:")
    print(f"  tau1 alone clean: {check_submarket_nfl(m1, 'tau1').ok}")
    print(f"  tau2 alone clean: {check_submarket_nfl(m1, 'tau2').ok}")
    broken = check_global_nfl(m1)
    print(f"  jointly clean:    {broken.ok}")
    witness = broken.witness
    print(f"  witness payoff {dict(witness.payoff)} at per-submarket cost "
          f"{strategy_cost(m1, witness.strategy)}")


if __name__ == "__main__":
    main()
