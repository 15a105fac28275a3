import dataclasses
import random
from fractions import Fraction as F

import pytest

import multimarket.arbitrage as arbitrage
import multimarket.pricing as pricing

from crosschecks import check_measure_membership, global_ratio, hat, strategy_wealth
from multimarket.arbitrage import (
    DeflatorCertificate,
    MeasureSelector,
    arbitrage_lp,
    check_global_nfl,
    check_submarket_nfl,
    extract_deflator,
    martingale_measure,
    measure_from_weight,
    scope_basis,
    state_price_deflator,
)
from multimarket.errors import (
    ArbitrageExists,
    CertificateViolation,
    NonPositiveWeight,
    NumericBreakdown,
)
from multimarket.gains import self_financing, strategy_cost
from multimarket.generate import random_model
from multimarket.market import Submarket, load_market, make_model, serialize_market
from multimarket.numbers import FEAS_TOL, MEMBER_TOL
from multimarket.pricing import price_global, terminal_asset_claim
from multimarket.tree import build_tree
from oracle import enumerate_measure_vertices
from stopping import node_on_path, sample_stopping_time_pairs


def _witness_is_sound(model, witness):
    costs = strategy_cost(model, witness.strategy)
    assert all(c == 0 for c in costs.values())
    payoff = witness.payoff
    direct = strategy_wealth(model, witness.strategy)
    assert direct == dict(payoff)
    values = [payoff[a] for a in model.tree.leaves]
    assert all(v >= 0 for v in values)
    assert any(v > 0 for v in values)
    assert witness.violating_atoms


def test_m2_submarket_certificates(m2):
    res = check_submarket_nfl(m2, "tau1")
    assert res.ok
    assert dict(res.certificate.xstar) == {"r.0": F(2, 3), "r.1": F(4, 3)}
    assert check_submarket_nfl(m2, "tau2").ok


def test_monotone_price_is_submarket_arbitrage():
    tree = build_tree([2], ["1/2", "1/2"])
    rising = Submarket(
        "up", 1, {"r": (F(2),), "r.0": (F(3),), "r.1": (F(5, 2),)}, {n: F(1) for n in tree.nodes}
    )
    model = make_model(tree, [rising])
    res = check_submarket_nfl(model, "up")
    assert not res.ok
    _witness_is_sound(model, res.witness)


def test_constant_prices_give_unit_deflator():
    tree = build_tree([2], ["1/2", "1/2"])
    flat = Submarket("flat", 1, {n: (F(7),) for n in tree.nodes}, {n: F(1) for n in tree.nodes})
    model = make_model(tree, [flat])
    cert = check_submarket_nfl(model, "flat").certificate
    assert dict(cert.xstar) == {"r.0": F(1), "r.1": F(1)}


def test_complete_martingale_market_keeps_the_unit_deflator():
    tree = build_tree([2], ["1/3", "2/3"])
    # E_P[S_1] = (1/3)*6 + (2/3)*3 = 4 = S_0: discounted prices are a P-martingale
    mart = Submarket(
        "m", 1, {"r": (F(4),), "r.0": (F(6),), "r.1": (F(3),)}, {n: F(1) for n in tree.nodes}
    )
    model = make_model(tree, [mart])
    cert = check_global_nfl(model).certificate
    assert dict(cert.xstar) == {"r.0": F(1), "r.1": F(1)}


def test_m2_global_certificate(m2):
    res = check_global_nfl(m2)
    assert res.ok
    assert dict(res.certificate.xstar) == {"r.0": F(2, 3), "r.1": F(4, 3)}
    res.certificate.verify(m2)


def _count_lps(monkeypatch):
    calls = []
    solve = arbitrage.solve_lp

    def counted(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(arbitrage, "solve_lp", counted)
    return calls


def test_extract_deflator_solves_one_lp(monkeypatch):
    calls = _count_lps(monkeypatch)
    verdicts = set()
    for seed in range(12):
        model = random_model(seed, atoms=6)
        for scope in ("global",) + tuple(model.labels):
            calls.clear()
            try:
                extract_deflator(model, scope)
                verdicts.add(True)
            except ArbitrageExists:
                verdicts.add(False)
            assert len(calls) == 1, (seed, scope)
    assert verdicts == {True, False}


def test_submarket_certificate_after_a_passing_global_check_is_the_common_deflator(monkeypatch):
    calls = _count_lps(monkeypatch)
    for seed in range(6):
        model = load_market(serialize_market(random_model(seed, arbitrage_free=True)))
        common = check_global_nfl(model).certificate
        calls.clear()
        for label in model.labels:
            res = check_submarket_nfl(model, label)
            assert res.ok
            assert res.certificate.xstar is common.xstar
            assert res.certificate.scope == label
            assert res.certificate.basis_checked == scope_basis(model, label)
        assert not calls, seed


def test_submarket_check_on_a_fresh_model_solves_its_own_lp(monkeypatch, m2, m1):
    calls = _count_lps(monkeypatch)
    for label in m2.labels:
        calls.clear()
        assert check_submarket_nfl(m2, label).ok
        assert len(calls) == 1, label
    # global arbitrage, clean submarkets: the common deflator does not exist
    assert not check_global_nfl(m1).ok
    for label in m1.labels:
        calls.clear()
        assert check_submarket_nfl(m1, label).ok
        assert len(calls) == 1, label


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_submarket_verdicts_do_not_depend_on_call_order(mode):
    for seed in range(200):
        document = {**serialize_market(random_model(seed)), "mode": mode}
        global_first, submarkets_first = load_market(document), load_market(document)
        check_global_nfl(global_first)
        after = [check_submarket_nfl(global_first, lab).ok for lab in global_first.labels]
        before = [check_submarket_nfl(submarkets_first, lab).ok for lab in submarkets_first.labels]
        assert after == before, seed
        assert check_global_nfl(submarkets_first).ok == check_global_nfl(global_first).ok


def _negative_certificate(model):
    return DeflatorCertificate(
        scope="global",
        xstar={a: -1 for a in model.tree.leaves},
        basis_checked=scope_basis(model, "global"),
    )


def test_negative_deflator_is_rejected(m2):
    with pytest.raises(CertificateViolation):
        _negative_certificate(m2).verify(m2)
    float_m2 = load_market({**serialize_market(m2), "mode": "float"})
    with pytest.raises(NumericBreakdown):
        _negative_certificate(float_m2).verify(float_m2)


def test_integer_deflator_check_reports_what_the_fraction_sums_report():
    model = random_model(0, atoms=36, periods=1, submarkets=2, arbitrage_free=True)
    common = check_global_nfl(model).certificate
    tree = model.tree
    a0, a1 = tree.leaves[:2]
    eps = F(1, 10**40)

    # one entry nudged: the mean misses 1
    xstar = {**common.xstar, a0: common.xstar[a0] + eps}
    mean = sum(tree.atom_probs[a] * xstar[a] for a in tree.leaves)
    with pytest.raises(CertificateViolation) as err:
        dataclasses.replace(common, xstar=xstar).verify(model)
    assert str(err.value) == f"deflator mean {mean} != 1"
    assert err.value.value == mean

    # a second entry nudged back by the same mass: the mean holds, a gain fails
    xstar[a1] = common.xstar[a1] - eps * tree.atom_probs[a0] / tree.atom_probs[a1]
    for k, g in enumerate(common.basis_checked):
        r = sum(tree.atom_probs[a] * xstar[a] * g.payoff[i] for i, a in enumerate(tree.leaves))
        if r != 0:
            break
    assert r != 0
    message = f"deflator not orthogonal to gain {g.submarket}/{g.node}/{g.asset}: {r}"
    # the scope's own basis (integer rows from the memo) and a basis of its own
    for basis in (common.basis_checked, common.basis_checked[k:]):
        with pytest.raises(CertificateViolation) as err:
            dataclasses.replace(common, xstar=xstar, basis_checked=basis).verify(model)
        assert str(err.value) == message
        assert err.value.value == r and type(err.value.value) is F


def test_float_deflator_and_cone_checks_pin_their_tolerances(monkeypatch, m2):
    # the float twin of the test above: each check rejects at ten times its
    # tolerance and passes at a tenth of it
    planted = random_model(0, atoms=36, periods=1, submarkets=2, arbitrage_free=True)
    model = load_market({**serialize_market(planted), "mode": "float"})
    common = check_global_nfl(model).certificate
    tree = model.tree
    a0, a1 = tree.leaves[:2]

    def nudged(mass0, mass1=0.0):
        # E[X*] moves by mass0 on atom a0 and by mass1 on atom a1
        xstar = {
            **common.xstar,
            a0: common.xstar[a0] + mass0 / tree.atom_probs[a0],
            a1: common.xstar[a1] + mass1 / tree.atom_probs[a1],
        }
        return dataclasses.replace(common, xstar=xstar)

    with pytest.raises(NumericBreakdown, match="deflator mean"):
        nudged(10 * FEAS_TOL).verify(model)
    nudged(FEAS_TOL / 10).verify(model)
    # a mean-preserving nudge leaves residual mass * (g[a0] - g[a1]) on gain g
    spread = max(abs(g.payoff[0] - g.payoff[1]) for g in common.basis_checked)
    mass = 10 * MEMBER_TOL / spread
    with pytest.raises(NumericBreakdown, match="deflator not orthogonal"):
        nudged(mass, -mass).verify(model)
    nudged(mass / 100, -mass / 100).verify(model)

    # the venue LP's witness moved on its first atom: on m2 every global gain
    # is a multiple of (2, -1), so the residual on tau1/r/0 is twice the move;
    # moving down keeps it nonnegative and inside its <= budget rows
    solve = pricing.solve_lp
    for residual in (10 * MEMBER_TOL, MEMBER_TOL / 10):

        def moved(*args, **kwargs):
            out = solve(*args, **kwargs)
            return dataclasses.replace(out, x=(out.x[0] - residual / 2,) + out.x[1:])

        monkeypatch.setattr(pricing, "solve_lp", moved)
        fresh = load_market({**serialize_market(m2), "mode": "float"})
        h = terminal_asset_claim(fresh, "tau1")
        if residual > MEMBER_TOL:
            with pytest.raises(NumericBreakdown, match="cone witness not orthogonal to gain tau1/r/0"):
                price_global(fresh, h)
        else:
            assert price_global(fresh, h).price == pytest.approx(3.75)


def test_m1_cross_market_arbitrage(m1):
    assert check_submarket_nfl(m1, "tau1").ok
    assert check_submarket_nfl(m1, "tau2").ok
    res = check_global_nfl(m1)
    assert not res.ok
    _witness_is_sound(m1, res.witness)
    with pytest.raises(ArbitrageExists):
        extract_deflator(m1)


def test_single_submarket_global_equals_submarket(m2):
    solo = make_model(m2.tree, [m2.submarket("tau1")])
    global_cert = check_global_nfl(solo).certificate
    sub_cert = check_submarket_nfl(solo, "tau1").certificate
    assert dict(global_cert.xstar) == dict(sub_cert.xstar)


def test_direct_lp_equivalence_on_random_models():
    for seed in range(40):
        model = random_model(seed)
        checker = check_global_nfl(model)
        value, witness = arbitrage_lp(model)
        if checker.ok:
            assert value == 0
            checker.certificate.verify(model)
        else:
            assert value is None
            _witness_is_sound(model, witness)
            _witness_is_sound(model, checker.witness)


def test_generated_trees_have_the_periods_asked_for():
    for periods in (1, 2, 3, 4):
        assert random_model(0, atoms=8, periods=periods).tree.horizon == periods


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_three_period_verdicts_agree_with_the_direct_lp(mode):
    verdicts = set()
    for seed in range(8):
        generated = random_model(seed, atoms=8, periods=3)
        assert generated.tree.horizon == 3
        model = load_market({**serialize_market(generated), "mode": mode})
        _, witness = arbitrage_lp(model)
        ok = check_global_nfl(model).ok
        assert ok == (witness is None), seed
        verdicts.add(ok)
    assert verdicts == {True, False}


def test_martingale_measures_m2(m2):
    cert = check_global_nfl(m2).certificate
    assert martingale_measure(m2, cert, "tau1") == {"r.0": F(1, 3), "r.1": F(2, 3)}
    q2 = martingale_measure(m2, cert, "tau2")
    assert q2 == {"r.0": F(3, 8), "r.1": F(5, 8)}
    # one-step martingale identity under q2
    assert F(6) * q2["r.0"] + F(22, 5) / F(1) * q2["r.1"] == F(5)


def test_martingale_property_node_by_node_on_random_models():
    from multimarket.market import discounted_prices

    for seed in (0, 2, 6, 8):
        model = random_model(seed, arbitrage_free=True, atoms=4, periods=2)
        cert = check_global_nfl(model).certificate
        for label in model.labels:
            q = martingale_measure(model, cert, label)
            tilde = discounted_prices(model, label)
            tree = model.tree
            for node_id in tree.nonterminal():
                mass = sum(q[a] for a in tree.atoms_under(node_id))
                for i in range(model.submarket(label).dim):
                    expected = sum(
                        q[a] * tilde[node_on_path(tree, a, frozenset(tree.children(node_id)))][i]
                        for a in tree.atoms_under(node_id)
                    )
                    assert expected == mass * tilde[node_id][i]


def test_deterministic_numeraires_share_one_measure():
    model = random_model(4, arbitrage_free=True, atoms=3, periods=1, submarkets=3,
                         deterministic_numeraires=True)
    cert = check_global_nfl(model).certificate
    measures = [martingale_measure(model, cert, lab) for lab in model.labels]
    assert all(m == measures[0] for m in measures)


def test_state_price_deflator_flat_market_is_one():
    tree = build_tree([2], ["1/2", "1/2"])
    flat = Submarket("flat", 1, {n: (F(7),) for n in tree.nodes}, {n: F(1) for n in tree.nodes})
    model = make_model(tree, [flat])
    cert = check_global_nfl(model).certificate
    d = state_price_deflator(model, cert, "flat")
    assert all(v == 1 for v in d.values())


def test_state_price_deflator_m2(m2):
    cert = check_global_nfl(m2).certificate
    d2 = state_price_deflator(m2, cert, "tau2")
    assert d2["r"] == F(16, 15)
    # terminal values: conditional expectation collapses to X*
    assert d2["r.0"] == F(2, 3)
    # D * S is a martingale under the atom probabilities
    sub = m2.submarket("tau2")
    lhs = d2["r"] * sub.assets["r"][0]
    rhs = sum(
        m2.tree.atom_probs[a] * d2[a] * sub.assets[a][0] for a in m2.tree.leaves
    )
    assert lhs == rhs == F(16, 15) * 5


def test_measure_from_weight_examples(m2):
    cert = check_global_nfl(m2).certificate
    unit = measure_from_weight(m2, cert, {a: F(1) for a in m2.tree.leaves})
    assert unit == {
        a: m2.tree.atom_probs[a] * cert.xstar[a] for a in m2.tree.leaves
    }
    ratio2 = measure_from_weight(m2, cert, m2.numeraire_ratio("tau2"))
    assert ratio2 == martingale_measure(m2, cert, "tau2")
    maxed = measure_from_weight(m2, cert, MeasureSelector.max_ratio(m2).weight)
    assert maxed == {"r.0": F(3, 8), "r.1": F(5, 8)}
    with pytest.raises(NonPositiveWeight):
        measure_from_weight(m2, cert, {"r.0": F(1), "r.1": F(0)})


def test_membership_by_construction_and_refutation(m2):
    cert = check_global_nfl(m2).certificate
    q2 = martingale_measure(m2, cert, "tau2")
    report = check_measure_membership(m2, q2, global_ratio(m2, "tau2"))
    assert report.member and report.equivalent
    assert all(v == 0 for v in report.residuals.values())

    off = check_measure_membership(
        m2, {"r.0": F(1, 2), "r.1": F(1, 2)}, hat(m2, "tau1")
    )
    assert not off.member
    assert list(off.residuals.values()) == [F(1, 2)]  # E_Q[S_1] - S_0 = 4.5 - 4


def test_membership_boundary_flagged():
    tree = build_tree([3], ["1/3", "1/3", "1/3"])
    # one asset with two martingale measures; a vertex has a zero atom
    sub = Submarket(
        "s",
        1,
        {"r": (F(2),), "r.0": (F(1),), "r.1": (F(2),), "r.2": (F(3),)},
        {n: F(1) for n in tree.nodes},
    )
    model = make_model(tree, [sub])
    selector = hat(model, "s")
    boundary_q = {"r.0": F(1, 2), "r.1": F(0), "r.2": F(1, 2)}
    report = check_measure_membership(model, boundary_q, selector)
    assert report.member and not report.equivalent


def test_measure_vertices_recover_cone_elements(m2):
    selector = global_ratio(m2, "tau2")
    for q in enumerate_measure_vertices(m2, selector):
        report = check_measure_membership(m2, q, selector)
        assert report.member


def test_vertices_recover_orthogonal_deflators_on_random_models():
    # every vertex of a weighted measure set comes from a nonnegative
    # deflator-cone direction: recover X = (q/P)/Z and check orthogonality
    from multimarket.arbitrage import scope_basis

    rng = random.Random(31)
    for seed in (0, 2, 8, 12):
        model = random_model(seed, arbitrage_free=True)
        if len(scope_basis(model, "global")) > 10:
            continue  # outside the enumeration caps
        weight = {
            a: F(rng.randint(1, 9), rng.choice((2, 3, 4))) for a in model.tree.leaves
        }
        selector = MeasureSelector(scope="global", weight=weight)
        vertices = enumerate_measure_vertices(model, selector)
        assert vertices, seed
        cert = check_global_nfl(model).certificate
        for q in vertices:
            implied = {
                a: q[a] / (model.tree.atom_probs[a] * weight[a])
                for a in model.tree.leaves
            }
            assert all(v >= 0 for v in implied.values())
            for g in cert.basis_checked:
                residual = sum(
                    model.tree.atom_probs[a] * implied[a] * g.payoff[k]
                    for k, a in enumerate(model.tree.leaves)
                )
                assert residual == 0, seed


def test_stopping_time_orthogonality(m2):
    rng = random.Random(23)
    from multimarket.market import discounted_prices

    cert = check_global_nfl(m2).certificate
    models = [(m2, cert)]
    extra = random_model(6, arbitrage_free=True, atoms=4, periods=2, submarkets=2)
    models.append((extra, check_global_nfl(extra).certificate))
    for model, certificate in models:
        tree = model.tree
        pairs = sample_stopping_time_pairs(tree, 50, seed=9)
        for label in model.labels:
            sub = model.submarket(label)
            tilde = discounted_prices(model, label)
            for earlier, later in pairs:
                phi = {n: F(rng.randint(-3, 3)) for n in earlier.antichain}
                total = 0
                for leaf in tree.leaves:
                    n1 = node_on_path(tree, leaf, earlier.antichain)
                    n2 = node_on_path(tree, leaf, later.antichain)
                    move = tilde[n2][0] - tilde[n1][0]
                    total += (
                        tree.atom_probs[leaf]
                        * certificate.xstar[leaf]
                        * sub.numeraire[leaf]
                        * phi[n1]
                        * move
                    )
                assert total == 0


def test_witness_from_ray_matches_terminal_value(m1):
    _, witness = arbitrage_lp(m1)
    assert dict(witness.payoff) == self_financing(m1, {}, witness.strategy.risky)[1]
