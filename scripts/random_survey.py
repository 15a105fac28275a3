"""Seeded sweep over random markets: arbitrage rates, price orderings, gaps.

Run:  python scripts/random_survey.py --models 120 --claims 2
"""

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from multimarket.arbitrage import arbitrage_lp, check_global_nfl
from multimarket.generate import random_claim, random_model
from multimarket.pricing import price_global, price_lower, price_upper


def fail(message):
    """Report a failed check on stderr and exit 1; unlike assert, this
    survives python -O."""
    print(message, file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--models", type=int, default=120)
    parser.add_argument("--claims", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    started = time.time()
    clean = witnesses = 0
    strict_orderings = ties = 0
    for seed in range(args.seed, args.seed + args.models):
        model = random_model(seed)
        result = check_global_nfl(model)
        lp_value, _ = arbitrage_lp(model)
        agree = result.ok == (lp_value == 0 if lp_value is not None else False)
        if not agree:
            fail(f"seed {seed}: certificate route disagrees with the direct LP")
        if not result.ok:
            witnesses += 1
            continue
        clean += 1
        rng = random.Random(seed ^ 0x5EED)
        for _ in range(args.claims):
            h = random_claim(rng, model)
            joint = price_global(model, h)
            if joint.duality_gap != 0:
                fail(f"seed {seed}: joint duality gap {joint.duality_gap}")
            lo = price_lower(model, h).price
            hi = price_upper(model, h).price
            if not joint.price <= lo <= hi:
                fail(f"seed {seed}: prices out of order: {joint.price}, {lo}, {hi}")
            if joint.price < lo < hi:
                strict_orderings += 1
            elif joint.price == lo == hi:
                ties += 1
    elapsed = time.time() - started
    print(f"{args.models} models in {elapsed:.1f}s")
    print(f"  arbitrage-free: {clean}   with witness: {witnesses}")
    print(f"  priced claims : {clean * args.claims} (every duality gap exactly 0)")
    print(f"  strict joint < single-best < all-venues orderings: {strict_orderings}")
    print(f"  fully degenerate (all three equal): {ties}")


if __name__ == "__main__":
    main()
