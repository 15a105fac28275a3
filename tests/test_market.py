import json
import os
from dataclasses import replace
from fractions import Fraction as F

import pytest

from multimarket.errors import NonPositiveNumeraire, SchemaError, UnknownSubmarket
from multimarket.market import (
    MarketModel,
    Submarket,
    discounted_prices,
    load_market,
    scale_submarket,
    serialize_market,
    tightest_bound,
    validate_model,
)
from multimarket.numbers import parse_scalar
from multimarket.tree import build_tree


def test_load_m2_document(m2_path, m2):
    with open(m2_path) as fh:
        model = load_market(json.load(fh))
    assert model.labels == ("tau1", "tau2")
    assert model.exact
    assert model.tree.leaves == ("r.0", "r.1")
    assert model.submarket("tau2").assets["r.0"] == (F(36, 5),)
    assert model.submarket("tau2").numeraire["r.0"] == F(6, 5)
    assert model.claim("Stau1").payoff == {"r.0": F(6), "r.1": F(3)}


def test_zero_numeraire_rejected():
    doc = {
        "tree": {"branching": [2], "atom_probs": ["1/2", "1/2"]},
        "submarkets": [
            {
                "label": "tau1",
                "dim": 1,
                "numeraire": {"r": "1", "r.0": "0", "r.1": "1"},
                "assets": {"r": ["1"], "r.0": ["1"], "r.1": ["1"]},
            }
        ],
    }
    with pytest.raises(NonPositiveNumeraire):
        load_market(doc)


def test_single_submarket_classic_form():
    doc = {
        "tree": {"branching": [2], "atom_probs": ["1/2", "1/2"]},
        "submarkets": [
            {
                "label": "only",
                "dim": 1,
                "numeraire": {"r": "1", "r.0": "1", "r.1": "1"},
                "assets": {"r": ["2"], "r.0": ["3"], "r.1": ["1"]},
            }
        ],
    }
    model = load_market(doc)
    assert model.labels == ("only",)
    assert model.numeraire_ratio("only") == {"r.0": F(1), "r.1": F(1)}


def test_discounted_prices(m2):
    tilde = discounted_prices(m2, "tau2")
    assert tilde["r"] == (F(5),)
    assert tilde["r.0"] == (F(6),)
    assert tilde["r.1"] == (F(22, 5),)
    assert discounted_prices(m2, "tau1")["r.0"] == (F(6),)
    with pytest.raises(UnknownSubmarket):
        discounted_prices(m2, "tau9")


def test_discounted_times_numeraire_recovers_assets(m2):
    for sub in m2.submarkets:
        tilde = discounted_prices(m2, sub.label)
        for node_id in m2.tree.nodes:
            rebuilt = tuple(v * sub.numeraire[node_id] for v in tilde[node_id])
            assert rebuilt == sub.assets[node_id]


def test_validate_reports_bound(m2):
    # the K that `multimarket validate` prints
    assert tightest_bound(m2) == F(6)


def test_declared_bound_constant_is_checked(m2):
    validate_model(replace(m2, bound_constant=F(6)))
    with pytest.raises(
        SchemaError, match="BoundExceeded at -: tightest bound 6 exceeds declared constant 5"
    ):
        validate_model(replace(m2, bound_constant=F(5)))


def test_validate_flags_negative_numeraire():
    tree = build_tree([2], ["1/2", "1/2"])
    bad = Submarket(
        "bad",
        1,
        {n: (F(1),) for n in tree.nodes},
        {"r": F(1), "r.0": F(-1), "r.1": F(1)},
    )
    with pytest.raises(NonPositiveNumeraire, match="r.0"):
        validate_model(MarketModel(tree=tree, submarkets=(bad,)))


def test_validate_empty_market():
    tree = build_tree([2], ["1/2", "1/2"])
    with pytest.raises(SchemaError, match="EmptyMarket"):
        validate_model(MarketModel(tree=tree, submarkets=()))


def test_validate_raises_the_first_defect_in_audit_order(m2):
    # the second submarket reuses the first's label and lacks a numeraire
    # entry: the label comes first in the audit
    first, second = m2.submarkets
    numeraire = {n: v for n, v in second.numeraire.items() if n != "r.1"}
    clash = replace(second, label=first.label, numeraire=numeraire)
    with pytest.raises(SchemaError, match=f"^DuplicateLabel at {first.label}: label reused$"):
        validate_model(replace(m2, submarkets=(first, clash)))


def test_document_round_trip(m2_path):
    with open(m2_path) as fh:
        model = load_market(json.load(fh))
    doc = serialize_market(model)
    again = load_market(doc)
    assert serialize_market(again) == doc
    assert again.labels == model.labels
    for sub, sub2 in zip(model.submarkets, again.submarkets):
        assert sub == sub2
    assert again.tree.atom_probs == model.tree.atom_probs


def test_missing_sections_schema_errors(m2_path):
    with pytest.raises(SchemaError):
        load_market({"submarkets": []})
    with pytest.raises(SchemaError):
        load_market({"tree": {"branching": [2], "atom_probs": ["1/2", "1/2"]}})
    with open(m2_path) as handle:
        document = json.load(handle)
    with pytest.raises(SchemaError):
        load_market({**document, "submarkets": document["submarkets"] + ["tau3"]})
    with pytest.raises(SchemaError):
        load_market({**document, "claims": [{"payoff": {"r.0": "1", "r.1": "1"}}]})
    with pytest.raises(SchemaError):
        load_market({**document, "claims": [{"label": "c"}]})
    tau1 = document["submarkets"][0]
    for bad_entry in ({"dim": "x"}, {"numeraire": [1, 1, 1]}, {"label": ["a"]}):
        with pytest.raises(SchemaError):
            load_market({**document, "submarkets": [{**tau1, **bad_entry}]})
    with pytest.raises(SchemaError):
        load_market({**document, "tree": {"branching": "ab", "atom_probs": ["1/2", "1/2"]}})
    probs = document["tree"]["atom_probs"]
    for bad_tree in ({"nodes": [["r"]], "atom_probs": probs}, {"branching": [2], "atom_probs": 5}):
        with pytest.raises(SchemaError):
            load_market({**document, "tree": bad_tree})
    with pytest.raises(SchemaError):
        load_market({**document, "claims": [{**document["claims"][0], "label": ["a"]}]})


def test_scale_submarket_positive_only(m2):
    scaled = scale_submarket(m2, "tau2", F(7))
    assert scaled.submarket("tau2").numeraire["r.0"] == F(42, 5)
    assert scaled.submarket("tau1") == m2.submarket("tau1")
    with pytest.raises(NonPositiveNumeraire):
        scale_submarket(m2, "tau2", F(0))


def test_float_mode_inference():
    doc = {
        "tree": {"branching": [2], "atom_probs": [0.5, 0.5]},
        "submarkets": [
            {
                "label": "only",
                "dim": 1,
                "numeraire": {"r": 1.0, "r.0": 1.0, "r.1": 1.0},
                "assets": {"r": [2.0], "r.0": [3.0], "r.1": [1.0]},
            }
        ],
    }
    model = load_market(doc)
    assert not model.exact
    assert isinstance(model.submarket("only").assets["r"][0], float)


def test_parse_scalar_refuses_numbers_past_the_digit_limit():
    # the interpreter's default limit is 4300 digits; an exponent past it is
    # refused before `Fraction` expands it, in both modes
    assert parse_scalar("1e4299") == 10**4299
    assert parse_scalar("1e-4300", exact=False) == 0.0
    for raw, exact in [
        ("1e99999999", True),
        ("1e99999999", False),
        ("1e-99_999_999", True),
        ("1e" + "9" * 5000, False),
        ("1e4300", True),
        ("1e-4300", True),
        ("9" * 4300 + ".5", True),
    ]:
        with pytest.raises(SchemaError, match="has more than 4300 digits"):
            parse_scalar(raw, exact)
    with pytest.raises(SchemaError, match="overflows a float"):
        parse_scalar("1e4300", exact=False)
