import itertools
import random
from fractions import Fraction as F

import pytest

from crosschecks import in_span, self_financing_residuals, strategy_wealth
from multimarket.errors import DimensionMismatch, UnknownSubmarket
from multimarket.gains import elementary_gains, global_gains, self_financing, strategy_cost
from multimarket.generate import random_model
from multimarket.market import Submarket, load_market, make_model, serialize_market
from multimarket.numbers import to_row
from multimarket.tree import build_tree
from stopping import node_on_path, sample_stopping_time_pairs


def test_elementary_gains_m2(m2):
    (g1,) = elementary_gains(m2, "tau1")
    assert g1.payoff == (F(2), F(-1))
    assert (g1.node, g1.asset) == ("r", 0)
    (g2,) = elementary_gains(m2, "tau2")
    assert g2.payoff == (F(6, 5), F(-3, 5))
    with pytest.raises(UnknownSubmarket):
        elementary_gains(m2, "nope")


def test_constant_discounted_prices_have_zero_gains():
    tree = build_tree([2], ["1/2", "1/2"])
    flat = Submarket(
        "flat", 1, {n: (F(3),) for n in tree.nodes}, {n: F(1) for n in tree.nodes}
    )
    model = make_model(tree, [flat])
    (g,) = elementary_gains(model, "flat")
    assert g.payoff == (F(0), F(0))


def test_global_gains_concatenates_in_declared_order(m2):
    basis = global_gains(m2)
    assert [g.submarket for g in basis] == ["tau1", "tau2"]
    assert [g.payoff for g in basis] == [(F(2), F(-1)), (F(6, 5), F(-3, 5))]


def test_single_submarket_global_basis_is_its_own(m2):
    solo = make_model(m2.tree, [m2.submarket("tau1")])
    assert global_gains(solo) == elementary_gains(solo, "tau1")


def test_duplicated_submarket_does_not_grow_the_span(m2):
    clone = Submarket("copy", 1, m2.submarket("tau1").assets, m2.submarket("tau1").numeraire)
    doubled = make_model(m2.tree, list(m2.submarkets) + [clone])
    basis = global_gains(doubled)
    assert len(basis) == 3
    originals = [g.payoff for g in global_gains(m2)]
    for g in basis:
        assert in_span(originals, g.payoff)


def test_terminal_value_pure_numeraire(m2):
    value = self_financing(m2, {"tau1": F(2), "tau2": F(3)}, {})[1]
    ratio2 = m2.numeraire_ratio("tau2")
    for atom in m2.tree.leaves:
        assert value[atom] == F(2) + F(3) * ratio2[atom]


def test_terminal_value_unit_position_is_the_gain(m2):
    value = self_financing(m2, {}, {"tau1": {"r": (F(1),)}})[1]
    assert value == {"r.0": F(2), "r.1": F(-1)}


def test_terminal_value_of_desk_hedge(m2):
    value = self_financing(m2, {"tau2": F(15, 4)}, {"tau1": {"r": (F(3, 4),)}})[1]
    assert value == {"r.0": F(6), "r.1": F(3)}


def test_completion_matches_terminal_value_and_is_self_financing(m2):
    x = {"tau1": F(1), "tau2": F(2)}
    risky = {"tau1": {"r": (F(1, 2),)}, "tau2": {"r": (F(-1, 3),)}}
    completed, wealth = self_financing(m2, x, risky)
    assert strategy_wealth(m2, completed) == wealth
    assert strategy_cost(m2, completed) == x
    assert all(v == 0 for v in self_financing_residuals(m2, completed).values())


def test_buy_and_hold_numeraire_amount(m2):
    completed, _ = self_financing(m2, {"tau1": F(1), "tau2": F(1)}, {})
    assert completed.numeraire["tau1"]["r"] == F(1)
    assert completed.numeraire["tau2"]["r"] == F(1)


def test_zero_cost_completion_example(m2):
    completed, _ = self_financing(m2, {"tau1": F(4)}, {"tau1": {"r": (F(1),)}})
    assert completed.numeraire["tau1"]["r"] == F(0)
    assert strategy_wealth(m2, completed) == {"r.0": F(6), "r.1": F(3)}


def test_self_financing_on_random_multiperiod_models():
    # 3 and 4 periods carry wealth and legs through interior nodes
    rng = random.Random(5)
    sizes = [dict(atoms=4, periods=2), dict(atoms=8, periods=3), dict(atoms=16, periods=4)]
    depths = set()
    for mode, size, seed in itertools.product(("rational", "float"), sizes, range(6)):
        model = random_model(seed, submarkets=2, **size)
        model = load_market({**serialize_market(model), "mode": mode})
        depths.add(model.tree.horizon)
        num = F if model.exact else float
        x = {lab: num(rng.randint(0, 5)) for lab in model.labels}
        risky = {
            lab: {
                n: tuple(num(rng.randint(-3, 3)) for _ in range(model.submarket(lab).dim))
                for n in model.tree.nonterminal()
            }
            for lab in model.labels
        }
        completed, wealth = self_financing(model, x, risky)
        tol = 0 if model.exact else 1e-9
        residuals = self_financing_residuals(model, completed)
        for got, want in [
            (strategy_wealth(model, completed), wealth),
            (strategy_cost(model, completed), x),
            (residuals, dict.fromkeys(residuals, 0)),
        ]:
            assert got.keys() == want.keys()
            for key in got:
                assert abs(got[key] - want[key]) <= tol * (1 + abs(want[key])), (mode, size, seed, key)
    assert depths == {2, 3, 4}


def test_self_financing_rejects_a_position_vector_of_the_wrong_length(m2):
    with pytest.raises(DimensionMismatch, match="2 positions for submarket 'tau1' of dim 1"):
        self_financing(m2, {}, {"tau1": {"r": (F(1), F(2))}})


def test_terminal_value_linear_in_wealth_and_positions(m2):
    a = self_financing(m2, {"tau1": F(1)}, {"tau1": {"r": (F(2),)}})[1]
    b = self_financing(m2, {"tau2": F(3)}, {"tau2": {"r": (F(-1),)}})[1]
    combined = self_financing(
        m2, {"tau1": F(1), "tau2": F(3)}, {"tau1": {"r": (F(2),)}, "tau2": {"r": (F(-1),)}}
    )[1]
    for atom in m2.tree.leaves:
        assert combined[atom] == a[atom] + b[atom]


def test_stopping_time_payoffs_stay_in_the_elementary_span():
    rng = random.Random(17)
    for seed in (2, 4):
        model = random_model(seed, atoms=4, periods=2, submarkets=2)
        tree = model.tree
        for label in model.labels:
            basis = [list(g.payoff) for g in elementary_gains(model, label)]
            sub = model.submarket(label)
            from multimarket.market import discounted_prices

            tilde = discounted_prices(model, label)
            pairs = sample_stopping_time_pairs(tree, 25, seed=seed)
            for earlier, later in pairs:
                phi = {n: F(rng.randint(-3, 3)) for n in earlier.antichain}
                payoff = []
                for leaf in tree.leaves:
                    n1 = node_on_path(tree, leaf, earlier.antichain)
                    n2 = node_on_path(tree, leaf, later.antichain)
                    move = tilde[n2][0] - tilde[n1][0]
                    payoff.append(sub.numeraire[leaf] * phi[n1] * move)
                assert in_span(basis, payoff)


def test_span_membership_lp(m2):
    basis = [list(g.payoff) for g in global_gains(m2)]
    total = [sum(col) for col in zip(*basis)]
    assert in_span(basis, total)
    assert not in_span(basis, [F(1), F(1)])


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_gains_are_the_terminal_values_of_unit_one_step_strategies(mode):
    # the independent route: replay the strategy that holds one unit of the
    # gain's asset over the step under its node, from zero wealth; the row
    # the gain stores is that value's row, in lowest terms with exact zeros
    dims_seen = set()
    cases = [(seed, {}) for seed in range(120)]
    cases += [(seed, dict(atoms=a, periods=2, submarkets=3)) for a in (9, 16) for seed in range(10)]
    for seed, size in cases:
        model = load_market({**serialize_market(random_model(seed, **size)), "mode": mode})
        for sub in model.submarkets:
            dims_seen.add(sub.dim)
            for g in elementary_gains(model, sub.label):
                unit = tuple(1 if i == g.asset else 0 for i in range(sub.dim))
                value = self_financing(model, {}, {sub.label: {g.node: unit}})[1]
                values = tuple(value[a] for a in model.tree.leaves)
                assert g.payoff == values, (seed, g)
                assert g.row == to_row(values, model.exact), (seed, g)
    assert dims_seen == {1, 2}
