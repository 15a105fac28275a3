import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from conftest import FIXTURES
from multimarket.cli import main
from multimarket.errors import CertificateViolation, NumericBreakdown
from multimarket.generate import random_claim, random_model
from multimarket.market import load_market, serialize_market

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_validate_m2(capsys, m2_path):
    code, out = run_cli(capsys, "validate", m2_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["bound"] == "6"
    assert payload["submarkets"] == ["tau1", "tau2"]


def test_validate_zero_probability_names_the_atom(capsys, tmp_path):
    doc = {
        "tree": {"branching": [2], "atom_probs": {"r.0": "0", "r.1": "1"}},
        "submarkets": [
            {
                "label": "x",
                "dim": 1,
                "numeraire": {"r": "1", "r.0": "1", "r.1": "1"},
                "assets": {"r": ["1"], "r.0": ["1"], "r.1": ["1"]},
            }
        ],
    }
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "validate", str(spec))
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert "r.0" in payload["issues"][0]["detail"]


def test_arb_exit_codes(capsys, m1_path, m2_path):
    code, out = run_cli(capsys, "arb", m2_path)
    assert code == 0
    assert json.loads(out)["no_free_lunch"] is True
    code, out = run_cli(capsys, "arb", m1_path)
    assert code == 3
    payload = json.loads(out)
    assert payload["no_free_lunch"] is False
    assert payload["witness"]["violating_atoms"]
    code, out = run_cli(capsys, "arb", m1_path, "--submarket", "tau2")
    assert code == 0


def test_deflator_reports_measures(capsys, m2_path):
    code, out = run_cli(capsys, "deflator", m2_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["certificate"]["xstar"] == {"r.0": "2/3", "r.1": "4/3"}
    assert payload["martingale_measures"]["tau2"] == {"r.0": "3/8", "r.1": "5/8"}
    assert payload["state_price_deflators"]["tau2"]["r"] == "16/15"


def test_deflator_on_arbitrage_model_exits_3(capsys, m1_path):
    code, out = run_cli(capsys, "deflator", m1_path)
    assert code == 3
    assert json.loads(out)["no_free_lunch"] is False


def test_price_upper_m2(capsys, m2_path):
    code, out = run_cli(capsys, "price", m2_path, "--claim", "Stau1", "--venue", "upper")
    assert code == 0
    assert json.loads(out)["price"] == "4"


def test_price_global_m2(capsys, m2_path):
    code, out = run_cli(capsys, "price", m2_path, "--claim", "Stau1", "--venue", "global")
    assert code == 0
    payload = json.loads(out)
    assert payload["price"] == "15/4"
    assert payload["allocation"] == {"tau1": "0", "tau2": "15/4"}
    assert payload["duality_gap"] == "0"


def test_price_submarket_venue_and_float_mode(capsys, m2_path):
    code, out = run_cli(capsys, "price", m2_path, "--claim", "Stau1", "--venue", "submarket:tau2")
    assert json.loads(out)["price"] == "15/4"
    code, out = run_cli(
        capsys, "price", m2_path, "--claim", "Stau1", "--venue", "lower", "--mode", "float"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["price"] == pytest.approx(3.75)
    assert payload["selected_submarket"] == "tau2"


def test_price_mode_loads_the_document_in_that_mode(capsys, m2_path, tmp_path):
    # float probabilities, a tau2 of dyadic floats and a claim with more
    # digits than a serialized float keeps: --mode rational reads the floats
    # of the document exactly, as the document with "mode": "rational" does
    with open(m2_path) as fh:
        doc = json.load(fh)
    doc["tree"]["atom_probs"] = {"r.0": 0.5, "r.1": 0.5}
    doc["submarkets"][1]["numeraire"] = {"r": 1.0, "r.0": 1.25, "r.1": 1.0}
    doc["submarkets"][1]["assets"] = {"r": [4.5], "r.0": [8.125], "r.1": [3.25]}
    doc["claims"] = [{"label": "Stau1", "payoff": {"r.0": 6.123456789012345, "r.1": 3.0}}]
    outputs = {}
    for mode in ("float", "rational"):
        spec = tmp_path / f"{mode}.json"
        spec.write_text(json.dumps({**doc, "mode": mode}))
        code, outputs[mode] = run_cli(capsys, "price", str(spec), "--claim", "Stau1", "--mode", "rational")
        assert code == 0
    assert outputs["float"] == outputs["rational"]


def test_price_on_arbitrage_model_exits_3(capsys, m1_path, tmp_path):
    with open(m1_path) as fh:
        doc = json.load(fh)
    doc["claims"] = [{"label": "H", "payoff": {"r.0": "1", "r.1": "1"}}]
    spec = tmp_path / "m1c.json"
    spec.write_text(json.dumps(doc))
    code = main(["price", str(spec), "--claim", "H", "--venue", "global"])
    assert code == 3


def test_fra_twelve_digits(capsys):
    code, out = run_cli(capsys, "fra", "--bi", "0.99", "--bm", "0.97", "--i", "0.25", "--m", "0.5")
    assert code == 0
    assert out.strip() == "0.0824742268041"


def test_demo_cotrade(capsys, cotrade_path):
    code, out = run_cli(capsys, "demo", "cotrade", cotrade_path)
    assert code == 0
    narrative, _, rest = out.partition("\n{")
    payload = json.loads("{" + rest)
    assert payload["merged_no_free_lunch"] is False
    assert payload["split_no_free_lunch"] is True
    assert "arbitrage" in narrative


def test_verify_emits_identities(capsys, m2_path):
    code, out = run_cli(capsys, "verify", m2_path)
    assert code == 0
    payload = json.loads(out)
    assert payload["no_free_lunch"] is True
    assert payload["ordering"]["Stau1"]["ordered"] is True
    assert payload["two_market"]["swap_formulas"] == "not_applicable"
    assert payload["certificate"]["Stau1"]["ok"] is True


def test_verify_exits_3_on_arbitrage(capsys, m1_path):
    code, out = run_cli(capsys, "verify", m1_path)
    assert code == 3


def test_gen_arbitrage_free_passes_arb(capsys, tmp_path):
    for seed in (1, 3, 8):
        code, out = run_cli(capsys, "gen", "--seed", str(seed), "--arbitrage-free")
        assert code == 0
        spec = tmp_path / f"gen{seed}.json"
        spec.write_text(out)
        code, _ = run_cli(capsys, "arb", str(spec))
        assert code == 0


def test_gen_deterministic_for_fixed_seed(capsys):
    _, one = run_cli(capsys, "gen", "--seed", "5", "--atoms", "3")
    _, two = run_cli(capsys, "gen", "--seed", "5", "--atoms", "3")
    assert one == two


def test_verify_byte_identical_across_runs(m2_path):
    outputs = {
        subprocess.run(
            [sys.executable, "-m", "multimarket.cli", "verify", m2_path],
            capture_output=True,
            check=True,
            env=_subprocess_env(),
        ).stdout
        for _ in range(3)
    }
    assert len(outputs) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["arb", "SPEC"],
        ["deflator", "SPEC"],
        ["price", "SPEC", "--claim", "Stau1"],
        ["verify", "SPEC"],
        ["demo", "cotrade", "SPEC"],
    ],
)
def test_missing_file_exits_2_without_traceback(argv, tmp_path):
    missing = str(tmp_path / "absent.json")
    out = subprocess.run(
        [sys.executable, "-m", "multimarket.cli", *(missing if a == "SPEC" else a for a in argv)],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "SchemaError" in out.stderr


def test_certificate_violation_exits_4(capsys, monkeypatch, m2_path):
    def violated(model):
        raise CertificateViolation(-1, "deflator not positive")

    monkeypatch.setattr("multimarket.cli.check_global_nfl", violated)
    code, _ = run_cli(capsys, "verify", m2_path)
    assert code == 4


def test_numeric_breakdown_exits_4(capsys, monkeypatch, m2_path):
    def broken(model, claim):
        raise NumericBreakdown("pivot limit exceeded")

    monkeypatch.setattr("multimarket.cli.price_global", broken)
    code = main(["price", m2_path, "--claim", "Stau1", "--mode", "float"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err == "numeric breakdown: pivot limit exceeded; retry with --mode rational\n"


_VERIFY_UNDER_O = """
import json, sys
from multimarket.arbitrage import DeflatorCertificate, scope_basis
from multimarket.errors import CertificateViolation
from multimarket.market import load_market

with open(sys.argv[1]) as handle:
    model = load_market(json.load(handle))
certificate = DeflatorCertificate(
    scope="global",
    xstar={a: -1 for a in model.tree.leaves},
    basis_checked=scope_basis(model, "global"),
)
try:
    certificate.verify(model)
except CertificateViolation:
    print("debug", __debug__, "raised")
"""


def test_certificate_checks_survive_optimize_flag(m2_path):
    out = subprocess.run(
        [sys.executable, "-O", "-c", _VERIFY_UNDER_O, m2_path],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert out.stdout == "debug False raised\n", out.stderr


def _fixture(name, **fields):
    with open(os.path.join(FIXTURES, f"{name}.json")) as handle:
        return {**json.load(handle), **fields}


def _claimed(model, claim, **fields):
    payoff = {a: str(v) for a, v in claim.items()}
    return {**serialize_market(model), "claims": [{"label": "H", "payoff": payoff}], **fields}


def _three_period():
    # hedges carry legs and wealth through interior nodes
    model = random_model(0, atoms=8, periods=3, submarkets=2)
    return _claimed(model, random_claim(random.Random(0), model))


def _seed_78_float():
    # the joint price whose float LP broke down under the first-improving
    # entering rule
    model = random_model(78, atoms=36, periods=2, submarkets=3, dims=[1, 1, 1])
    return _claimed(model, random_claim(random.Random(78), model), mode="float")


def _deep_float():
    # a deep tree whose float arbitrage LP broke down under the same rule
    return {**serialize_market(random_model(16, atoms=16, periods=4)), "mode": "float"}


def _price(name, document, claim, venue, mode):
    argv = ["price", "--claim", claim, "--venue", venue, "--mode", mode]
    return pytest.param(argv, document, 0, id=f"price-{name}-{venue}-{mode}")


@pytest.mark.parametrize(
    "argv, document, want",
    [
        pytest.param(["verify"], lambda: _fixture("cotrade"), 0, id="verify-cotrade"),
        pytest.param(["arb"], lambda: _fixture("cotrade"), 0, id="arb-cotrade"),
        pytest.param(["deflator"], lambda: _fixture("cotrade"), 0, id="deflator-cotrade"),
        # m1's deflator LP is infeasible: its Farkas check runs on float rows
        pytest.param(["arb"], lambda: _fixture("m1", mode="float"), 3, id="arb-m1-float"),
        _price("m2", lambda: _fixture("m2"), "Stau1", "lower", "rational"),
        _price("m2", lambda: _fixture("m2"), "Stau1", "upper", "float"),
        _price("m2", lambda: _fixture("m2"), "Stau1", "submarket:tau1", "rational"),
        _price("m2", lambda: _fixture("m2"), "Stau1", "submarket:tau1", "float"),
        _price("m2", lambda: _fixture("m2"), "Stau1", "submarket:tau2", "rational"),
        _price("m2", lambda: _fixture("m2"), "Stau1", "submarket:tau2", "float"),
        pytest.param(["validate"], lambda: _fixture("m1"), 0, id="validate-m1"),
        pytest.param(["validate"], lambda: _fixture("cotrade"), 0, id="validate-cotrade"),
        # a declared bound below m2's tightest bound 6
        pytest.param(["validate"], lambda: _fixture("m2", bound_constant="5"), 2, id="validate-m2-bound-5"),
        _price("three-period", _three_period, "H", "global", "rational"),
        _price("three-period", _three_period, "H", "global", "float"),
        _price("three-period", _three_period, "H", "lower", "rational"),
        _price("three-period", _three_period, "H", "lower", "float"),
        pytest.param(["price", "--claim", "H", "--venue", "global"], _seed_78_float, 0, id="price-seed-78-float"),
        pytest.param(["arb"], _deep_float, 0, id="arb-deep-tree-float"),
    ],
)
def test_command_exits_with_its_documented_code(capsys, tmp_path, argv, document, want):
    # every certificate check on these paths raises rather than asserts, so
    # the same codes hold under `python -O` (see test_tolerances)
    spec = tmp_path / "document.json"
    spec.write_text(json.dumps(document()))
    command, *options = argv
    code, _ = run_cli(capsys, command, str(spec), *options)
    assert code == want


def _run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "multimarket.cli", *argv],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )


def test_unparseable_number_in_document_exits_2(m2_path, tmp_path):
    with open(m2_path) as handle:
        document = json.load(handle)
    first = next(iter(document["tree"]["atom_probs"]))
    document["tree"]["atom_probs"][first] = "x"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    out = _run_cli("arb", str(bad))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "SchemaError" in out.stderr


def test_malformed_submarket_exits_2_without_traceback(m2_path, tmp_path):
    with open(m2_path) as handle:
        document = json.load(handle)
    document["submarkets"][0]["dim"] = "x"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(document))
    for command in ("validate", "arb"):
        out = _run_cli(command, str(bad))
        assert out.returncode == 2, command
        assert "Traceback" not in out.stderr, command


def _first_prob(doc, value, mode):
    probs = dict(doc["tree"]["atom_probs"])
    probs[next(iter(probs))] = value
    return {**doc, "mode": mode, "tree": {**doc["tree"], "atom_probs": probs}}


def _first_asset(doc, value, mode):
    first = doc["submarkets"][0]
    first = {**first, "assets": {**first["assets"], "r": [value]}}
    return {**doc, "mode": mode, "submarkets": [first, *doc["submarkets"][1:]]}


def _quotient_past_limit(doc):
    # asset and numeraire each within the digit limit at r.0, the discounted
    # price 10**8000 past it
    first = doc["submarkets"][0]
    first = {
        **first,
        "assets": {**first["assets"], "r.0": ["1e4000"]},
        "numeraire": {**first["numeraire"], "r.0": "1e-4000"},
    }
    return {**doc, "submarkets": [first, *doc["submarkets"][1:]]}


def _listed_nodes(doc, *extra):
    # m2's tree as a node listing, plus the (id, parent) pairs `extra`
    pairs = [("r", None), ("r.0", "r"), ("r.1", "r"), *extra]
    nodes = [{"id": n, "parent": p} for n, p in pairs]
    return {**doc, "tree": {"nodes": nodes, "atom_probs": doc["tree"]["atom_probs"]}}


def _rated(doc, rate_structure):
    # the first submarket's numeraire left to `rate_structure`
    first = {k: v for k, v in doc["submarkets"][0].items() if k != "numeraire"}
    return {**doc, "rate_structure": rate_structure, "submarkets": [first, *doc["submarkets"][1:]]}


@pytest.mark.parametrize("command", ["validate", "arb", "verify"])
@pytest.mark.parametrize(
    "defect",
    [
        lambda doc: {**doc, "tree": {"nodes": [["r"]], "atom_probs": doc["tree"]["atom_probs"]}},
        lambda doc: {**doc, "tree": {**doc["tree"], "atom_probs": 5}},
        lambda doc: {**doc, "claims": [{**doc["claims"][0], "label": ["a"]}]},
        lambda doc: _first_prob(doc, float("nan"), "rational"),
        lambda doc: _first_asset(doc, float("inf"), "rational"),
        lambda doc: _first_prob(doc, float("nan"), "float"),
        lambda doc: _first_asset(doc, "1e400", "float"),
        lambda doc: _listed_nodes(doc, ("a", "a")),
        lambda doc: _listed_nodes(doc, ("a", "b"), ("b", "a")),
        lambda doc: {**doc, "claims": 5},
        lambda doc: _rated(doc, 5),
        lambda doc: _rated(doc, {"base_rate": ["0"], "spreads": {"tau1": {"r": "0"}}}),
        lambda doc: _rated(doc, {"base_rate": {"r": "0"}, "spreads": {"tau1": 5}}),
        lambda doc: _rated(doc, {"base_rate": {"r": "0"}, "spreads": {"tau2": {"r": "0"}}}),
        lambda doc: {**doc, "rate_structure": 5},
        lambda doc: {**doc, "tree": {**doc["tree"], "branching": [10**12]}},
        lambda doc: _first_asset(doc, "1e99999999", "rational"),
        lambda doc: _first_asset(doc, "1e99999999", "float"),
        lambda doc: _first_asset(doc, "1e5000", "rational"),
        lambda doc: {**doc, "tree": {"branching": [10] * 5000, "atom_probs": ["1/2", "1/2"]}},
        _quotient_past_limit,
    ],
    ids=[
        "node-entry",
        "atom-probs",
        "claim-label",
        "nan-rational",
        "infinity-rational",
        "nan-float",
        "overflow-float",
        "self-parent",
        "parent-cycle",
        "claims-int",
        "rate-structure-int",
        "base-rate-list",
        "spread-not-map",
        "spread-missing",
        "rate-structure-unused",
        "branching-huge",
        "exponent-huge-rational",
        "exponent-huge-float",
        "digits-past-limit",
        "leaf-count-past-limit",
        "quotient-past-limit",
    ],
)
def test_malformed_document_exits_2(capsys, m2_path, tmp_path, command, defect):
    with open(m2_path) as handle:
        document = json.load(handle)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(defect(document)))
    code, _ = run_cli(capsys, command, str(bad))
    assert code == 2


@pytest.mark.parametrize("command", ["validate", "arb"])
def test_computed_number_past_the_digit_limit_exits_2_in_one_line(m2_path, tmp_path, command):
    with open(m2_path) as handle:
        document = json.load(handle)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_quotient_past_limit(document)))
    out = _run_cli(command, str(bad))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "SchemaError: a computed number has more than 4300 digits\n"


def test_zero_rates_give_m2_its_outputs(capsys, m2_path, tmp_path):
    # tau1's unit numeraire, left to zero base rate and spread
    with open(m2_path) as handle:
        document = json.load(handle)
    rated = tmp_path / "rated.json"
    rated.write_text(json.dumps(_rated(document, {"base_rate": {"r": "0"}, "spreads": {"tau1": {"r": "0"}}})))
    for argv in (["verify"], ["deflator"], ["price", "--claim", "Stau1", "--mode", "float"]):
        command, *options = argv
        want = run_cli(capsys, command, m2_path, *options)
        assert run_cli(capsys, command, str(rated), *options) == want
        assert want[0] == 0


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_rate_structure_compounds_the_numeraire(m2_path, mode):
    with open(m2_path) as handle:
        document = json.load(handle)
    rates = {
        "base_rate": {"r": "1/20"},
        "spreads": {"tau1": {"r": "1/100"}},
        "initial_numeraire": {"tau1": "2"},
    }
    model = load_market({**_rated(document, rates), "mode": mode})
    if mode == "rational":
        grown = F(2121, 1000)
        assert model.submarket("tau1").numeraire == {"r": 2, "r.0": grown, "r.1": grown}
    else:
        grown = 2.0 * ((1 + 0.05 * 1.0) * (1 + 0.01 * 1.0))
        assert model.submarket("tau1").numeraire == {"r": 2.0, "r.0": grown, "r.1": grown}
    assert all(type(v) is type(grown) for v in model.submarket("tau1").numeraire.values())


def _nested(tmp_path, m2_path, kind):
    spec = tmp_path / f"{kind}.json"
    if kind == "unclosed-lists":
        spec.write_text("[" * 100_000)
    else:
        # m2 plus an unused section nested 960 lists deep: without "mode",
        # so the mode is inferred, or naming either mode
        with open(m2_path) as handle:
            document = json.load(handle)
        del document["mode"]
        if kind != "unused-deep-section":
            document["mode"] = kind.rsplit("-", 1)[1]
        text = json.dumps(document)
        spec.write_text(text[:-1] + ', "zc_quotes": ' + "[" * 960 + '"1"' + "]" * 960 + "}")
    return str(spec)


@pytest.mark.parametrize("command", ["validate", "arb", "verify"])
@pytest.mark.parametrize(
    "kind", ["unclosed-lists", "unused-deep-section", "unused-deep-section-rational", "unused-deep-section-float"]
)
def test_deeply_nested_document_exits_2(m2_path, tmp_path, command, kind):
    out = _run_cli(command, _nested(tmp_path, m2_path, kind))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "zc_quotes",
    [
        [{"tenor": "t3m", "price": "97/100"}, {"tenor": "t6m", "price": "96/100"}],
        {"quotes": 5},
        {"quotes": [{"tenor": "t3m", "price": "97/100"}, {"tenor": "t6m"}]},
        {"quotes": [1, 2]},
        {"quotes": [{"tenor": 5, "price": "97/100"}, {"tenor": "t6m", "price": "96/100"}]},
    ],
    ids=["list", "quotes-int", "quote-without-price", "int-entries", "tenor-not-string"],
)
def test_demo_cotrade_malformed_quotes_exit_2(cotrade_path, tmp_path, zc_quotes):
    with open(cotrade_path) as handle:
        document = json.load(handle)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**document, "zc_quotes": zc_quotes}))
    out = _run_cli("demo", "cotrade", str(bad))
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "SchemaError" in out.stderr


def test_node_ids_past_the_size_limit_exit_2_before_any_node_is_built(capsys, monkeypatch, m2_path, tmp_path):
    # a node id grows with its depth: 5,001 levels would build about 25
    # million characters of ids from a document of 15 KB
    def built(spec):
        raise AssertionError("a node was built")

    monkeypatch.setattr("multimarket.tree._explicit_nodes", built)
    with open(m2_path) as handle:
        document = json.load(handle)
    spec = tmp_path / "deep.json"
    spec.write_text(json.dumps({**document, "tree": {**document["tree"], "branching": [1] * 5000 + [2]}}))
    code = main(["arb", str(spec)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "SizeLimitExceeded: branching would build 25030007 characters of node ids, more than 8388608\n"
    )


def test_chain_deeper_than_the_recursion_limit_validates(capsys, tmp_path):
    steps = 1500
    ids = ["r"]
    for _ in range(steps):
        ids.append(ids[-1] + ".0")
    document = {
        "tree": {"branching": [1] * steps, "atom_probs": ["1"]},
        "submarkets": [
            {"label": "a", "numeraire": {n: "1" for n in ids}, "assets": {n: ["1"] for n in ids}}
        ],
    }
    spec = tmp_path / "chain.json"
    for form in (document, serialize_market(load_market(document))):
        spec.write_text(json.dumps(form))
        code, out = run_cli(capsys, "validate", str(spec))
        assert code == 0
        assert json.loads(out)["ok"] is True


def test_cli_import_leaves_multicurve_unloaded():
    out = subprocess.run(
        [sys.executable, "-c", "import sys, multimarket.cli; print('multimarket.multicurve' in sys.modules)"],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert out.stdout == "False\n", out.stderr


# SHA-256 of each `verify` exit code and stdout, over seeded random models
# with one claim, in both modes: any changed report byte changes it.
VERIFY_REPORT_DIGEST = "1a749488332ea0c034b316daca4b3a5abcb4b103512431fadd944cdb948bc314"


def test_verify_report_digest(capsys, tmp_path):
    digest = hashlib.sha256()
    spec = tmp_path / "model.json"
    for seed in range(60):
        model = random_model(seed)
        claim = random_claim(random.Random(seed), model)
        document = serialize_market(model)
        document["claims"] = [{"label": "H", "payoff": {a: str(v) for a, v in claim.items()}}]
        for mode in ("rational", "float"):
            spec.write_text(json.dumps({**document, "mode": mode}))
            code, out = run_cli(capsys, "verify", str(spec))
            digest.update(f"{code}\n".encode() + out.encode())
    assert digest.hexdigest() == VERIFY_REPORT_DIGEST


def test_float_verify_orders_and_brackets_within_the_bounds_slack(capsys, tmp_path):
    # float prices that agree to every printed digit are ordered and
    # bracketed: the flags allow the slack that `dual_bounds_global` allows
    model = random_model(0)
    claim = random_claim(random.Random(0), model)
    document = serialize_market(model)
    document["claims"] = [{"label": "H", "payoff": {a: str(v) for a, v in claim.items()}}]
    spec = tmp_path / "model.json"
    spec.write_text(json.dumps({**document, "mode": "float"}))
    code, out = run_cli(capsys, "verify", str(spec))
    assert code == 0
    payload = json.loads(out)
    assert payload["ordering"] and all(row["ordered"] for row in payload["ordering"].values())
    assert payload["bounds"] and all(row["bracketed"] for row in payload["bounds"].values())


def test_validate_non_utf8_file_is_unreadable(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00bad")
    code, out = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert json.loads(out)["issues"][0]["code"] == "Unreadable"


def test_unparseable_fra_argument_exits_2():
    out = _run_cli("fra", "--bi", "x", "--bm", "1", "--i", "0", "--m", "1")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "SchemaError" in out.stderr


def test_one_node_tree_prices_its_time_zero_claim(capsys, tmp_path):
    # the root is the only atom: a hedge has no step and no numeraire leg
    document = {
        "tree": {"nodes": [{"id": "r", "parent": None}], "atom_probs": {"r": "1"}},
        "submarkets": [{"label": "a", "dim": 1, "numeraire": {"r": "2"}, "assets": {"r": ["5"]}}],
        "claims": [{"label": "H", "payoff": {"r": "3"}}],
    }
    path = tmp_path / "one-node.json"
    path.write_text(json.dumps(document))
    code, out = run_cli(capsys, "price", str(path), "--claim", "H")
    assert code == 0
    report = json.loads(out)
    assert report["price"] == "3"
    assert report["hedge"] == {"risky": {"a": {}}, "numeraire": {"a": {}}}
    assert run_cli(capsys, "verify", str(path))[0] == 0
