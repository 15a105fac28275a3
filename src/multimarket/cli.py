"""Command-line surface: validation, arbitrage verdicts, deflators, prices,
the identity suite, FRA arithmetic, the co-traded demo, and random spec
emission.

Exit codes: 0 success; 2 validation failure; 3 arbitrage found where absence
was required (including the `arb` verdict itself, so pipelines can assert on
it); 4 numeric breakdown (retry in rational mode) or, in rational mode, a
certificate check that failed.

All reports are emitted as JSON with deterministic key order: rational
scalars as "p/q" strings, floats rounded to 12 significant digits.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .arbitrage import (
    check_global_nfl,
    check_submarket_nfl,
    martingale_measure,
    state_price_deflator,
)
from .errors import (
    ArbitrageExists,
    CertificateViolation,
    ConditionNotMet,
    MarketError,
    NumericBreakdown,
    SchemaError,
)
from .generate import random_model
from .market import MarketModel, load_market, serialize_market, tightest_bound
from .numbers import format_sig12, parse_scalar, scalar_to_json, tolerances
from .pricing import (
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

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ARBITRAGE = 3
EXIT_NUMERIC = 4


def _jsonable(obj):
    if isinstance(obj, (Fraction, float)):
        return scalar_to_json(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(_jsonable(payload), indent=2) + "\n")


def _read_document(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _load(path: str) -> MarketModel:
    return load_market(_read_document(path))


def _strategy_payload(strategy):
    return {
        "risky": {
            label: {node: list(vec) for node, vec in sorted(nodes.items())}
            for label, nodes in sorted(strategy.risky.items())
        },
        "numeraire": {
            label: dict(sorted(nodes.items()))
            for label, nodes in sorted(strategy.numeraire.items())
        },
    }


def _witness_payload(witness):
    return {
        "scope": witness.scope,
        "payoff": dict(witness.payoff),
        "violating_atoms": list(witness.violating_atoms),
        "strategy": _strategy_payload(witness.strategy),
    }


def _certificate_payload(certificate):
    return {
        "scope": certificate.scope,
        "xstar": dict(certificate.xstar),
        "gains_checked": len(certificate.basis_checked),
    }


def _price_payload(report):
    payload = {
        "venue": report.venue,
        "status": report.status,
        "price": report.price,
        "allocation": dict(report.allocation),
        "dual_value": report.dual_value,
        "duality_gap": report.duality_gap,
    }
    if report.selected_submarket is not None:
        payload["selected_submarket"] = report.selected_submarket
    if report.hedge is not None:
        payload["hedge"] = _strategy_payload(report.hedge)
    if report.dual_witness is not None:
        payload["dual_witness"] = {
            "kind": report.dual_witness.kind,
            "values": dict(report.dual_witness.values),
            "boundary": report.dual_witness.boundary,
        }
    return payload


def cmd_validate(args) -> int:
    try:
        document = _read_document(args.spec)
    except SchemaError as exc:
        _emit({"ok": False, "issues": [{"code": "Unreadable", "detail": str(exc)}]})
        return EXIT_VALIDATION
    try:
        model = load_market(document)
    except MarketError as exc:
        _emit({"ok": False, "issues": [{"code": type(exc).__name__, "detail": str(exc)}]})
        return EXIT_VALIDATION
    _emit(
        {
            "ok": True,
            "mode": "rational" if model.exact else "float",
            "atoms": list(model.tree.leaves),
            "submarkets": list(model.labels),
            "bound": tightest_bound(model),
            "issues": [],
        }
    )
    return EXIT_OK


def cmd_arb(args) -> int:
    model = _load(args.spec)
    if args.submarket:
        result = check_submarket_nfl(model, args.submarket)
        scope = args.submarket
    else:
        result = check_global_nfl(model)
        scope = "global"
    if result.ok:
        _emit(
            {
                "scope": scope,
                "no_free_lunch": True,
                "certificate": _certificate_payload(result.certificate),
            }
        )
        return EXIT_OK
    _emit(
        {
            "scope": scope,
            "no_free_lunch": False,
            "witness": _witness_payload(result.witness),
        }
    )
    return EXIT_ARBITRAGE


def cmd_deflator(args) -> int:
    model = _load(args.spec)
    result = check_global_nfl(model)
    if not result.ok:
        _emit({"no_free_lunch": False, "witness": _witness_payload(result.witness)})
        return EXIT_ARBITRAGE
    certificate = result.certificate
    payload = {
        "no_free_lunch": True,
        "certificate": _certificate_payload(certificate),
        "martingale_measures": {
            label: martingale_measure(model, certificate, label) for label in model.labels
        },
        "state_price_deflators": {
            label: state_price_deflator(model, certificate, label) for label in model.labels
        },
    }
    _emit(payload)
    return EXIT_OK


def cmd_price(args) -> int:
    document = _read_document(args.spec)
    if args.mode and isinstance(document, dict):
        document = {**document, "mode": args.mode}
    model = load_market(document)
    claim = model.claim(args.claim).payoff
    venue = args.venue
    if venue == "global":
        report = price_global(model, claim)
    elif venue == "lower":
        report = price_lower(model, claim)
    elif venue == "upper":
        report = price_upper(model, claim)
    elif venue.startswith("submarket:"):
        report = price_submarket(model, claim, venue.split(":", 1)[1])
    else:
        raise SchemaError(f"unknown venue {venue!r}")
    _emit(_price_payload(report))
    return EXIT_OK


def _identity_entry(check):
    return {"lhs": check.lhs, "rhs": check.rhs, "residual": check.residual}


def cmd_verify(args) -> int:
    model = _load(args.spec)
    result = check_global_nfl(model)
    if not result.ok:
        _emit({"no_free_lunch": False, "witness": _witness_payload(result.witness)})
        return EXIT_ARBITRAGE

    claims = {c.label: dict(c.payoff) for c in model.claims}
    for label in model.labels:
        if model.submarket(label).dim == 1:
            claims.setdefault(f"terminal:{label}", terminal_asset_claim(model, label))

    slack = tolerances(model.exact).gap  # the slack of `dual_bounds_global`
    ordering = {}
    certificates = {}
    bounds = {}
    for name, payoff in claims.items():
        joint = price_global(model, payoff)
        lower = price_lower(model, payoff)
        upper = price_upper(model, payoff)
        ordering[name] = {
            "global": joint.price,
            "lower": lower.price,
            "upper": upper.price,
            "ordered": joint.price <= lower.price + slack and lower.price <= upper.price + slack,
        }
        lam = {
            lab: v for lab, v in joint.allocation.items() if v > 0
        } or {lab: Fraction(1) for lab in model.labels}
        try:
            value = dual_certificate_global(model, payoff, joint.allocation, lam)
            certificates[name] = {"value": value, "ok": True}
        except CertificateViolation as exc:
            certificates[name] = {"value": exc.value, "ok": False}
        lo, hi = dual_bounds_global(model, payoff)
        bounds[name] = {
            "lower": lo,
            "upper": hi,
            "price": joint.price,
            "bracketed": lo <= joint.price + slack and joint.price <= hi + slack,
        }

    lemma = {}
    one_dim = [lab for lab in model.labels if model.submarket(lab).dim == 1]
    for label in one_dim:
        for other in one_dim:
            if label == other:
                continue
            report = one_dim_identity_suite(model, label, other)
            lemma[f"{label}->{other}"] = {
                name: _identity_entry(c) for name, c in report.checks.items()
            }

    two_market = None
    if len(model.submarkets) == 2 and all(s.dim == 1 for s in model.submarkets):
        tm = two_market_report(model)
        two_market = {
            "min_formula": {k: _identity_entry(c) for k, c in tm.min_formula.items()},
            "hypothesis_holds": tm.hypothesis_holds,
            "swap_lp_price": tm.swap_lp_price,
            "swap_formulas": (
                {k: _identity_entry(c) for k, c in tm.swap_formulas.items()}
                if tm.swap_formulas is not None
                else "not_applicable"
            ),
        }

    constant_ratio = {}
    if claims:
        probe_claim = next(iter(claims.values()))
        for label in model.labels:
            try:
                cr = price_constant_ratio(model, probe_claim, {label: Fraction(1)})
                constant_ratio[label] = {
                    "applicable": True,
                    "tau_max": cr.tau_max,
                    "price": cr.price,
                    "lp_price": cr.lp_price,
                    "residual": cr.price - cr.lp_price,
                }
            except ConditionNotMet:
                constant_ratio[label] = {"applicable": False}

    _emit(
        {
            "no_free_lunch": True,
            "ordering": ordering,
            "certificate": certificates,
            "bounds": bounds,
            "one_dim_identities": lemma,
            "two_market": two_market,
            "constant_ratio": constant_ratio,
        }
    )
    return EXIT_OK


def cmd_fra(args) -> int:
    from .multicurve import fra_rate  # lazy: kept out of the other commands' start-up

    rate = fra_rate(
        parse_scalar(args.bi),
        parse_scalar(args.bm),
        parse_scalar(args.i),
        parse_scalar(args.m),
    )
    sys.stdout.write(format_sig12(rate) + "\n")
    return EXIT_OK


def cmd_demo_cotrade(args) -> int:
    from .multicurve import ZcQuote, cotrade_arbitrage_demo

    document = _read_document(args.spec)
    model = load_market(document)
    quotes_doc = document.get("zc_quotes")
    quotes = quotes_doc.get("quotes") if isinstance(quotes_doc, dict) else None
    if not (
        isinstance(quotes, list)
        and len(quotes) == 2
        and all(
            isinstance(q, dict) and isinstance(q.get("tenor"), str) and "price" in q
            for q in quotes
        )
    ):
        raise SchemaError("demo cotrade needs a 'zc_quotes' section with two quotes")
    q1, q2 = (ZcQuote(q["tenor"], parse_scalar(q["price"], model.exact)) for q in quotes)
    demo = cotrade_arbitrage_demo(q1, q2, model.tree)
    sys.stdout.write(demo.narrative + "\n")
    _emit(
        {
            "merged_no_free_lunch": demo.merged_nfl_ok,
            "split_no_free_lunch": demo.split_nfl_ok,
            "witness": _witness_payload(demo.merged_witness),
        }
    )
    return EXIT_OK


def cmd_gen(args) -> int:
    model = random_model(
        args.seed,
        atoms=args.atoms,
        submarkets=args.submarkets,
        arbitrage_free=args.arbitrage_free,
    )
    _emit(serialize_market(model))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multimarket",
        description="Segmented-market laboratory: arbitrage certificates and superreplication prices on finite trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="schema and model validation report")
    p.add_argument("spec")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("arb", help="no-free-lunch verdict with certificate or witness")
    p.add_argument("spec")
    p.add_argument("--submarket", default=None)
    p.set_defaults(func=cmd_arb)

    p = sub.add_parser("deflator", help="common deflator, measures, state-price deflators")
    p.add_argument("spec")
    p.set_defaults(func=cmd_deflator)

    p = sub.add_parser("price", help="superreplication price report")
    p.add_argument("spec")
    p.add_argument("--claim", required=True)
    p.add_argument("--venue", default="global")
    p.add_argument("--mode", choices=["rational", "float"], default=None)
    p.set_defaults(func=cmd_price)

    p = sub.add_parser("verify", help="full identity suite with residuals")
    p.add_argument("spec")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fra", help="no-arbitrage forward rate from two bond prices")
    p.add_argument("--bi", required=True, help="bond price maturing at the start date")
    p.add_argument("--bm", required=True, help="bond price maturing at the end date")
    p.add_argument("--i", required=True, help="start, in year fractions")
    p.add_argument("--m", required=True, help="end, in year fractions")
    p.set_defaults(func=cmd_fra)

    p = sub.add_parser("demo", help="demonstrations")
    demo_sub = p.add_subparsers(dest="demo", required=True)
    d = demo_sub.add_parser("cotrade", help="merged-vs-split co-traded bond arbitrage")
    d.add_argument("spec")
    d.set_defaults(func=cmd_demo_cotrade)

    p = sub.add_parser("gen", help="emit a random market spec")
    p.add_argument("--atoms", type=int, default=None)
    p.add_argument("--submarkets", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--arbitrage-free", action="store_true")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericBreakdown as exc:
        sys.stderr.write(f"numeric breakdown: {exc}; retry with --mode rational\n")
        return EXIT_NUMERIC
    except CertificateViolation as exc:
        sys.stderr.write(f"certificate violation: {exc}\n")
        return EXIT_NUMERIC
    except ArbitrageExists as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_ARBITRAGE
    except MarketError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
