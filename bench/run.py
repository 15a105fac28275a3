"""Seeded benchmark of multimarket's certificates and prices.

    python3 bench/run.py --workload nfl-ladder --seed 1 --seconds 30 --trace 0

Runs one workload as a closed loop (one caller; each op starts when the
previous one ends) against the public functions of the `multimarket` found
in this checkout's `src/`, checks every output with `bench/checks.py`, and
prints one JSON line last: `correct`, `attempted`, `failed` and the metrics.
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones
(see README.md). Work proceeds in whole rounds; a round is the fixed list of
ops below, drawn afresh from `--seed` and the round number, so no model or
document is used by two ops.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"
SETUP_REPEATS = 9

sys.path.insert(0, str(BENCH))
from checks import (  # noqa: E402
    CheckFailed,
    Doc,
    check_deflator,
    check_hedge,
    check_venues,
    check_verify_report,
    check_witness,
    has_arbitrage,
    require,
)
from tracing import LAYERS, Tracer  # noqa: E402

PROGRAM_MODULES = ("tree", "market", "lp", "gains", "arbitrage", "pricing", "generate", "cli")


def import_program():
    """Fresh import of the package from this checkout's src/."""
    for name in [n for n in sys.modules if n == "multimarket" or n.startswith("multimarket.")]:
        del sys.modules[name]
    return {name: importlib.import_module(f"multimarket.{name}") for name in PROGRAM_MODULES}


def source_revision() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: ") and (git / ref[5:]).is_file():
            return (git / ref[5:]).read_text().strip()
        return ref
    digest = hashlib.sha256()
    for path in sorted((SRC / "multimarket").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return f"not a git checkout; src/multimarket sha256 {digest.hexdigest()[:16]}"


class Op:
    """One op's input document, and the model or file made from it."""

    def __init__(self, name: str, document: dict, **extra):
        self.name = name
        self.document = document
        self.text = json.dumps(document)
        self.model = None
        self.path = None
        self.extra = extra


def branching(tree) -> list[int]:
    out, node = [], tree.nodes[tree.leaves[0]]
    while node.parent is not None:
        node = tree.nodes[node.parent]
        out.append(len(node.children))
    return out[::-1]


def planted_document(mm, rng: random.Random, shape: list[int], submarkets: int, claim: bool) -> dict:
    """A planted (arbitrage-free by construction) model from `random_model`
    on exactly the branching `shape`: even seeds select the planted style,
    and the seed is advanced until the generated tree has that shape."""
    atoms = 1
    for b in shape:
        atoms *= b
    seed = rng.randrange(0, 2**31, 2)
    while True:
        model = mm["generate"].random_model(
            seed, atoms=atoms, periods=len(shape), submarkets=submarkets, dims=[1] * submarkets
        )
        if branching(model.tree) == shape:
            break
        seed += 2
    document = mm["market"].serialize_market(model)
    if claim:
        payoff = mm["generate"].random_claim(random.Random(seed), model)
        document["claims"] = [{"label": "H", "payoff": {a: str(v) for a, v in payoff.items()}}]
    return document


# --- workloads ----------------------------------------------------------------


class NflLadder:
    """check_global_nfl plus check_submarket_nfl for every label, exact."""

    # (branching, submarkets): the atom ladder 4/9/16/25/36 on one and two
    # periods. The 3x3 rung comes three times so that the median op falls
    # inside one rung rather than between two.
    RUNGS = [([4], 2), ([2, 2], 3), ([9], 3), ([16], 2), ([3, 3], 2), ([3, 3], 2), ([3, 3], 2),
             ([25], 3), ([36], 2), ([4, 4], 2)]
    stream = "nfl"

    def generate(self, mm, rng):
        return [Op(f"nfl{shape}x{subs}", planted_document(mm, rng, shape, subs, False)) for shape, subs in self.RUNGS]

    def prepare(self, mm, ops):
        for op in ops:
            op.model = mm["market"].load_market(json.loads(op.text))

    def execute(self, mm, op):
        arbitrage = mm["arbitrage"]
        model = op.model
        return arbitrage.check_global_nfl(model), [arbitrage.check_submarket_nfl(model, lab) for lab in model.labels]

    def check(self, op, result):
        doc = Doc(op.document)
        joint, per_label = result
        require(joint.ok, f"{op.name}: planted model reported as arbitrageable")
        check_deflator(doc, joint.certificate.xstar, "global")
        for label, res in zip(doc.labels, per_label):
            require(res.ok, f"{op.name}: submarket {label} reported as arbitrageable")
            check_deflator(doc, res.certificate.xstar, label)


class PriceLadder:
    """Every venue the CLI offers on one seeded claim, exact mode."""

    RUNGS = [([4], 2), ([2, 2], 3), ([9], 3), ([3, 3], 2), ([16], 2)]
    stream = "price"
    mode = "rational"

    def generate(self, mm, rng):
        ops = []
        for shape, subs in self.RUNGS:
            document = planted_document(mm, rng, shape, subs, True)
            ops.append(Op(f"price{shape}x{subs}", {**document, "mode": self.mode}))
        return ops

    prepare = NflLadder.prepare

    def execute(self, mm, op):
        pricing = mm["pricing"]
        model = op.model
        claim = model.claim("H").payoff
        reports = [pricing.price_global(model, claim), pricing.price_lower(model, claim), pricing.price_upper(model, claim)]
        return reports + [pricing.price_submarket(model, claim, lab) for lab in model.labels]

    def check(self, op, result):
        doc = Doc(op.document)
        payoff = doc.claims["H"]
        joint, lower, upper, *own = result
        check_venues(doc, payoff, joint.price, lower.price, upper.price,
                     {lab: r.price for lab, r in zip(doc.labels, own)})
        exact = self.mode == "rational"
        for report in result:
            check_hedge(doc, report.hedge, report.allocation, payoff, exact)


class PriceFloat(PriceLadder):
    """The price-ladder ops on the same models loaded with "mode": "float",
    plus one op that fails today: `price_global` on the seed-78 model below
    raises NumericBreakdown (the seed does not change it)."""

    mode = "float"

    def generate(self, mm, rng):
        model = mm["generate"].random_model(78, atoms=36, periods=2, submarkets=3, dims=[1, 1, 1])
        payoff = mm["generate"].random_claim(random.Random(78), model)
        document = mm["market"].serialize_market(model)
        document["claims"] = [{"label": "H", "payoff": {a: str(v) for a, v in payoff.items()}}]
        return super().generate(mm, rng) + [Op("price-seed78", {**document, "mode": "float"})]


class VerifyDesk:
    """`multimarket verify <doc>` in-process, stdout captured."""

    stream = "verify"
    FIXTURES = ("m1", "m2", "cotrade")
    PLANTED = [([2], 2), ([3], 2), ([2, 2], 2)]

    def generate(self, mm, rng):
        ops = []
        for name in self.FIXTURES:
            document = json.loads((ROOT / "fixtures" / f"{name}.json").read_text())
            ops.append(Op(name, document, exit=3 if name == "m1" else 0))
        for _ in range(2):
            model = mm["generate"].random_complete_pair(rng.randrange(2**31))
            ops.append(Op("pair", mm["market"].serialize_market(model), exit=0, complete_pair=True))
        for shape, subs in self.PLANTED:
            ops.append(Op(f"planted{shape}", planted_document(mm, rng, shape, subs, True), exit=0))
        for _ in range(2):
            # fully random style (odd seed), kept only when it admits arbitrage
            seed = rng.randrange(1, 2**31, 2)
            while True:
                document = mm["market"].serialize_market(mm["generate"].random_model(seed))
                if has_arbitrage(Doc(document)):
                    break
                seed += 2
            ops.append(Op("arbitrage", document, exit=3))
        return ops

    def prepare(self, mm, ops):
        WORK.mkdir(exist_ok=True)
        for k, op in enumerate(ops):
            op.path = WORK / f"{os.getpid()}-{k}.json"
            op.path.write_text(op.text)

    def execute(self, mm, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mm["cli"].main(["verify", str(op.path)])
        return code, out.getvalue()

    def check(self, op, result):
        code, text = result
        require(code == op.extra["exit"], f"{op.name}: exit {code}, expected {op.extra['exit']}")
        doc = Doc(op.document)
        report = json.loads(text)
        if code == 3:
            require(report["no_free_lunch"] is False, f"{op.name}: exit 3 without a verdict")
            check_witness(doc, report["witness"])
            return
        check_verify_report(doc, report, op.extra.get("complete_pair", False))
        if op.name == "m2":
            got = report["ordering"]["Stau1"]
            require((got["global"], got["lower"], got["upper"]) == ("15/4", "15/4", "4"),
                    f"m2: Stau1 prices {got}, expected 15/4, 15/4, 4")


WORKLOADS = {
    "nfl-ladder": NflLadder,
    "price-ladder": PriceLadder,
    "price-float": PriceFloat,
    "verify-desk": VerifyDesk,
}


# --- the loop -------------------------------------------------------------------


def round_rng(workload, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload.stream}/{seed}/{index}")


def timed(workload, mm, op):
    start = time.perf_counter()
    try:
        result, error = workload.execute(mm, op), None
    except Exception as exc:  # an op that raises is counted as failed
        result, error = None, exc
    return time.perf_counter() - start, result, error


def run(args) -> tuple[dict, dict]:
    workload = WORKLOADS[args.workload]()
    setups = []
    for repeat in reversed(range(SETUP_REPEATS)):
        # each repeat builds another round's inputs; the last one, round 0, is kept
        start = time.perf_counter()
        mm = import_program()
        ops = workload.generate(mm, round_rng(workload, args.seed, repeat))
        workload.prepare(mm, ops)
        setups.append(time.perf_counter() - start)
    print(f"multimarket from {mm['cli'].__file__}")
    print(f"revision {source_revision()}")

    tracer = Tracer() if args.trace else None
    latencies, failures = [], []
    traced_ops, traced_s, report_bytes = 0, 0.0, 0
    wrong = 0
    start = time.perf_counter()
    index = 0
    while True:
        outcomes = [timed(workload, mm, op) for op in ops]
        latencies.extend(t for t, _, _ in outcomes)
        if tracer is not None:
            # the same documents again, loaded into fresh models
            fresh = workload.generate(mm, round_rng(workload, args.seed, index))
            tracer.install()
            try:
                workload.prepare(mm, fresh)
                for op in fresh:
                    tracer.begin_op(traced_ops)
                    seconds, result, _ = timed(workload, mm, op)
                    tracer.end_op()
                    traced_ops += 1
                    traced_s += seconds
                    if isinstance(workload, VerifyDesk) and result is not None:
                        report_bytes += len(result[1].encode())
            finally:
                tracer.uninstall()
        for op, (_, result, error) in zip(ops, outcomes):
            if error is None:
                try:
                    workload.check(op, result)
                except CheckFailed as exc:
                    error = exc
                    wrong += 1
            if error is not None:
                failures.append(f"{op.name}: {type(error).__name__}: {error}")
        index += 1
        # whole rounds only: stop when the next round would likely overrun
        elapsed = time.perf_counter() - start
        if elapsed * (index + 1) / index > args.seconds:
            break
        ops = workload.generate(mm, round_rng(workload, args.seed, index))
        workload.prepare(mm, ops)

    attempted = len(latencies)
    for line in sorted(set(failures)):
        print(f"failed x{failures.count(line)}: {line}", file=sys.stderr)
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (attempted / sum(latencies), "op/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = layer_metrics(tracer, traced_ops, traced_s - sum(latencies), report_bytes)
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }, {"latencies_s": latencies, "setups_s": setups, "failures": failures, "tracer": tracer}


def layer_metrics(tracer: Tracer, ops: int, overhead_s: float, report_bytes) -> dict:
    calls = tracer.calls
    extractions = calls["arbitrage.extract_deflator"]
    metrics = {f"{layer}.self_s": (tracer.self_s[layer] / ops, "s/op") for layer in LAYERS}
    for name in (
        "lp.solve_lp", "lp.solve_fractional", "arbitrage.extract_deflator", "arbitrage.arbitrage_lp",
        "gains.elementary_gains", "market.numeraire_ratio", "market.load_market",
        "pricing.price_submarket", "pricing.price_fractional",
    ):
        metrics[f"{name}.calls"] = (calls[name] / ops, "1/op")
    metrics.update({
        "lp.result_bits_max": (tracer.bits_max, "bits"),
        "lp.rows_max": (tracer.rows_max, "count"),
        "lp.cols_max": (tracer.cols_max, "count"),
        "arbitrage.lps_per_extraction": (tracer.lps_in_extraction / extractions if extractions else 0, "ratio"),
        "arbitrage.deflator_useful_ratio": (tracer.useful_extractions / extractions if extractions else 0, "ratio"),
        "cli.report_bytes": (report_bytes / ops, "B/op"),
        "trace.overhead_s": (overhead_s / ops, "s/op"),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "multimarket" / "__init__.py").is_file():
        print(f"no multimarket package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        summary, detail = run(args)
    finally:
        for path in WORK.glob(f"{os.getpid()}-*.json"):
            path.unlink()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if detail["tracer"] is not None:
        detail["tracer"].write_spans(RESULTS / f"{stem}.spans.jsonl.gz")
    del detail["tracer"]
    (RESULTS / f"{stem}.json").write_text(json.dumps({**summary, **detail}, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
