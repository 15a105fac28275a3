"""Float-mode twin of the desk pipeline: same answers within tolerance."""

import random
from fractions import Fraction as F

import pytest

from crosschecks import fractional_reciprocal
from multimarket.arbitrage import arbitrage_lp, check_global_nfl, martingale_measure
from multimarket.errors import NonPositiveWeight
from multimarket.generate import random_claim, random_model
from multimarket.market import Submarket, load_market, make_model, serialize_market
from multimarket.numbers import GAP_TOL
from multimarket.pricing import (
    dual_bounds_global,
    price_global,
    price_lower,
    price_submarket,
    terminal_asset_claim,
)
from multimarket.tree import build_tree


def m2_float():
    tree = build_tree([2], [0.5, 0.5])
    tau1 = Submarket(
        "tau1", 1, {"r": (4.0,), "r.0": (6.0,), "r.1": (3.0,)},
        {"r": 1.0, "r.0": 1.0, "r.1": 1.0},
    )
    tau2 = Submarket(
        "tau2", 1, {"r": (5.0,), "r.0": (7.2,), "r.1": (4.4,)},
        {"r": 1.0, "r.0": 1.2, "r.1": 1.0},
    )
    return make_model(tree, [tau1, tau2])


def test_float_pipeline_matches_rational_values():
    model = m2_float()
    assert not model.exact
    result = check_global_nfl(model)
    assert result.ok
    xstar = result.certificate.xstar
    assert xstar["r.0"] == pytest.approx(2 / 3)
    assert xstar["r.1"] == pytest.approx(4 / 3)
    q2 = martingale_measure(model, result.certificate, "tau2")
    assert q2["r.0"] == pytest.approx(3 / 8)

    h = terminal_asset_claim(model, "tau1")
    assert price_submarket(model, h, "tau1").price == pytest.approx(4.0)
    joint = price_global(model, h)
    assert joint.price == pytest.approx(3.75)
    assert abs(joint.duality_gap) < 1e-9
    assert price_lower(model, h).price == pytest.approx(3.75)
    lo, hi = dual_bounds_global(model, dict(model.numeraire_ratio("tau2")))
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(16 / 15)


def test_mode_override_converts_the_document(m2_path):
    import json

    with open(m2_path) as fh:
        doc = json.load(fh)
    doc["mode"] = "float"
    model = load_market(doc)
    assert not model.exact
    assert isinstance(model.submarket("tau2").numeraire["r.0"], float)
    h = terminal_asset_claim(model, "tau1")
    assert price_global(model, h).price == pytest.approx(3.75)


def test_reciprocal_requires_positive_claim(m2):
    with pytest.raises(NonPositiveWeight):
        fractional_reciprocal(
            m2, {"r.0": F(1), "r.1": F(0)}, m2.numeraire_ratio("tau2")
        )


def _as_float(model, claim=None):
    document = serialize_market(model)
    if claim is not None:
        document["claims"] = [{"label": "H", "payoff": {a: str(v) for a, v in claim.items()}}]
    return load_market({**document, "mode": "float"})


# Three float solves that drifted under Bland's first-improving entering
# rule and ended in NumericBreakdown; the most-negative rule finishes them.
def test_float_global_price_of_the_seed_78_model_matches_exact_mode():
    model = random_model(78, atoms=36, periods=2, submarkets=3, dims=[1, 1, 1])
    claim = random_claim(random.Random(78), model)
    exact = float(price_global(model, claim).price)
    floating = _as_float(model, claim)
    price = price_global(floating, floating.claim("H").payoff).price
    assert abs(price - exact) <= GAP_TOL * (1 + abs(exact))


def test_float_direct_arbitrage_lp_on_a_deep_tree_returns_zero():
    value, witness = arbitrage_lp(_as_float(random_model(16, atoms=16, periods=4)))
    assert (value, witness) == (0, None)


def test_float_global_check_on_a_wide_model_passes():
    assert check_global_nfl(_as_float(random_model(0, atoms=64, periods=2, submarkets=3))).ok
