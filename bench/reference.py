"""Reference figures quoted in README.md, measured on this checkout.

    python3 bench/reference.py

Prints, as JSON lines, the time and the LP work of the global NFL check on
two planted 36-atom models (one period with 2 submarkets; a 3x12 two-period
tree with 3 submarkets) and of `multimarket verify fixtures/m2.json`. LP
counts come from the benchmark's tracer; pivots and the largest tableau
coefficient (numerator or denominator bits) from a counter on the simplex
pivot, which only this script installs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import time

from run import ROOT, SRC, import_program, planted_document
from tracing import Tracer, value_bits

sys.path.insert(0, str(SRC))


def measure(mm, label, call) -> dict:
    tableau = mm["lp"]._Tableau
    original = tableau._pivot
    counts = {"pivots": 0, "tableau_bits_max": 0}

    def counted(self, cost, cost_const, row, col):
        original(self, cost, cost_const, row, col)
        counts["pivots"] += 1
        for row in self.rows:
            counts["tableau_bits_max"] = max(counts["tableau_bits_max"], max(value_bits(v) for v in row))

    tracer = Tracer()
    tableau._pivot = counted
    tracer.install()
    start = time.perf_counter()
    try:
        call()
    finally:
        elapsed = time.perf_counter() - start
        tracer.uninstall()
        tableau._pivot = original
    return {
        "case": label,
        "seconds_with_counters": round(elapsed, 3),
        "solve_lp_calls": tracer.calls["lp.solve_lp"],
        "extract_deflator_calls": tracer.calls["arbitrage.extract_deflator"],
        "lp_rows_max": tracer.rows_max,
        "lp_cols_max": tracer.cols_max,
        "result_bits_max": tracer.bits_max,
        **counts,
    }


def timed(call) -> float:
    start = time.perf_counter()
    call()
    return round(time.perf_counter() - start, 3)


def main() -> int:
    mm = import_program()
    check = mm["arbitrage"].check_global_nfl
    cases = []
    for shape, subs in (([36], 2), ([3, 12], 3)):
        document = planted_document(mm, random.Random("reference"), shape, subs, False)
        model = mm["market"].load_market(document)
        cases.append((f"check_global_nfl, planted {shape} x{subs}", lambda m=model: check(m)))

    def verify_m2():
        with contextlib.redirect_stdout(io.StringIO()):
            mm["cli"].main(["verify", str(ROOT / "fixtures" / "m2.json")])

    cases.append(("verify fixtures/m2.json", verify_m2))
    for label, call in cases:
        row = {"seconds": timed(call), **measure(mm, label, call)}
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
