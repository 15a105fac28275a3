import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from crosschecks import global_ratio, hat
from multimarket.arbitrage import check_global_nfl, martingale_measure
from multimarket.generate import random_claim, random_model
from multimarket.market import Submarket, make_model
from multimarket.pricing import (
    price_fractional,
    price_global,
    price_lower,
    price_submarket,
    price_upper,
    terminal_asset_claim,
)
from multimarket.tree import build_tree
from oracle import (
    TooLarge,
    _convex_min,
    _partial_min,
    brute_superreplication,
    enumerate_measure_vertices,
    grid_superreplication,
    oracle_sup_measure,
)


def test_m2_vertex_singletons(m2):
    hat1 = enumerate_measure_vertices(m2, hat(m2, "tau1"))
    assert hat1 == [{"r.0": F(1, 3), "r.1": F(2, 3)}]
    global2 = enumerate_measure_vertices(m2, global_ratio(m2, "tau2"))
    assert global2 == [{"r.0": F(3, 8), "r.1": F(5, 8)}]


def test_unconstrained_selector_gives_the_simplex():
    tree = build_tree([2], ["1/2", "1/2"])
    flat = Submarket("flat", 1, {n: (F(1),) for n in tree.nodes}, {n: F(1) for n in tree.nodes})
    model = make_model(tree, [flat])
    vertices = enumerate_measure_vertices(model, hat(model, "flat"))
    as_sets = {tuple(sorted(v.items())) for v in vertices}
    assert as_sets == {
        (("r.0", F(1)), ("r.1", F(0))),
        (("r.0", F(0)), ("r.1", F(1))),
    }


def test_vertex_sup_matches_fractional_program():
    for seed in (0, 2, 4, 8, 10):
        model = random_model(seed, arbitrage_free=True)
        rng = random.Random(seed)
        h = random_claim(rng, model)
        for label in model.labels:
            selector = global_ratio(model, label)
            weight = selector.weight
            functional = {a: h[a] / weight[a] for a in model.tree.leaves}
            by_vertices = oracle_sup_measure(model, selector, functional)
            by_program = price_fractional(model, h, weight)
            assert by_vertices == by_program


def test_deflator_measures_lie_inside_the_oracle_polytope():
    """Each martingale measure built from the extracted deflator is strictly
    positive and prices every functional between the vertex-enumeration
    infimum and supremum of its measure set."""
    for seed in (0, 2, 4, 8, 10):
        model = random_model(seed, arbitrage_free=True)
        certificate = check_global_nfl(model).certificate
        rng = random.Random(seed)
        functionals = [
            {a: F(rng.randint(-20, 20), rng.randint(1, 5)) for a in model.tree.leaves}
            for _ in range(3)
        ]
        for label in model.labels:
            q = martingale_measure(model, certificate, label)
            assert all(q[a] > 0 for a in model.tree.leaves)
            selector = global_ratio(model, label)
            for f in functionals:
                value = sum(q[a] * f[a] for a in model.tree.leaves)
                neg = {a: -v for a, v in f.items()}
                assert -oracle_sup_measure(model, selector, neg) <= value
                assert value <= oracle_sup_measure(model, selector, f)


def test_size_caps():
    model = random_model(0, atoms=4, periods=2, submarkets=3, dims=[2, 2, 2])
    with pytest.raises(TooLarge):
        brute_superreplication(model, {a: F(0) for a in model.tree.leaves}, "global")


def test_desk_values(m2):
    h = terminal_asset_claim(m2, "tau1")
    assert brute_superreplication(m2, h, "global").value == F(15, 4)
    assert brute_superreplication(m2, h, "tau1").value == F(4)
    assert brute_superreplication(m2, h, "tau2").value == F(15, 4)
    assert brute_superreplication(m2, h, "lower").value == F(15, 4)
    assert brute_superreplication(m2, h, "upper").value == F(4)
    zero = {a: F(0) for a in m2.tree.leaves}
    assert brute_superreplication(m2, zero, "global").value == 0


def test_oracle_matches_engine_on_random_models():
    from multimarket.arbitrage import scope_basis

    for seed in range(24):
        model = random_model(seed, arbitrage_free=True)
        if len(scope_basis(model, "global")) > 10:
            continue  # outside the oracle caps
        rng = random.Random(900 + seed)
        h = random_claim(rng, model)
        assert brute_superreplication(model, h, "global").value == price_global(model, h).price
        label = model.labels[0]
        assert (
            brute_superreplication(model, h, label).value
            == price_submarket(model, h, label).price
        )
        assert brute_superreplication(model, h, "lower").value == price_lower(model, h).price
        assert brute_superreplication(model, h, "upper").value == price_upper(model, h).price


def _float_twin(model):
    from multimarket.market import MarketModel

    subs = tuple(
        Submarket(
            s.label,
            s.dim,
            {n: tuple(float(v) for v in vals) for n, vals in s.assets.items()},
            {n: float(v) for n, v in s.numeraire.items()},
        )
        for s in model.submarkets
    )
    tree = model.tree
    float_tree = replace(
        tree, atom_probs={a: float(p) for a, p in tree.atom_probs.items()}, exact=False
    )
    return MarketModel(tree=float_tree, submarkets=subs)


def test_nested_line_search_on_hand_made_convex_functions():
    assert abs(_convex_min(lambda t: abs(t - 3) + 5) - 5) < 1e-12  # kink
    assert _convex_min(lambda t: abs(t - 1e6)) < 1e-9  # far minimiser
    assert _convex_min(lambda t: abs(t + 1e6)) < 1e-9
    assert _convex_min(lambda t: max(0.0, t - 4)) == 0.0  # flat bottom
    assert abs(_partial_min(lambda y: abs(y[0] - 0.3) + 2, 1) - 2) < 1e-12
    assert _partial_min(lambda y: 7.0, 0) == 7.0

    def valley(y):  # thin, along y0 = y1: no coordinate direction descends
        return max(1e6 * abs(y[0] - y[1]), abs(y[0] + y[1] - 2))

    assert _partial_min(valley, 2) < 1e-12


def test_grid_search_agrees_with_engine_in_float_mode():
    for seed in (0, 2, 6, 12):
        model = random_model(seed, arbitrage_free=True, submarkets=2, periods=1, dims=[1, 1])
        rng = random.Random(seed)
        h = random_claim(rng, model)
        exact_price = price_global(model, h).price
        twin = _float_twin(model)
        floats = {a: float(v) for a, v in h.items()}
        grid = grid_superreplication(twin, floats, "global")
        assert abs(grid.value - float(exact_price)) < 1e-6
        sub_price = price_submarket(model, h, model.labels[0]).price
        grid_sub = grid_superreplication(twin, floats, model.labels[0])
        assert abs(grid_sub.value - float(sub_price)) < 1e-6
        assert grid.method == "grid_search"
