import hashlib
import json
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from multimarket import arbitrage, cli, pricing
from multimarket import lp as lp_module
from multimarket.errors import MarketError, NumericBreakdown
from multimarket.generate import random_claim, random_model
from multimarket.market import load_market, serialize_market
from multimarket.numbers import from_row, left_sum, tolerances
from multimarket.lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LinearProgram,
    lp,
    solve_lp,
)


def test_bounded_maximum():
    out = solve_lp(lp("max", [1], [([1], LE, 3)]))
    assert out.status == OPTIMAL
    assert out.value == 3
    assert out.x == (F(3),)


def test_unbounded_with_ray():
    out = solve_lp(lp("max", [1], []))
    assert out.status == UNBOUNDED
    assert out.ray == (F(1),)


def test_infeasible_with_farkas():
    out = solve_lp(lp("min", [0], [([1], LE, -1)]))
    assert out.status == INFEASIBLE
    assert out.farkas is not None  # verified internally before return


def test_equality_and_free_variables():
    out = solve_lp(
        lp(
            "min",
            [1, 1],
            [([1, 2], "==", 4), ([1, -1], GE, 0)],
            bounds=[(None, None), (0, None)],
        )
    )
    assert out.status == OPTIMAL
    assert out.value == F(8, 3)


def test_bounds_other_than_nonnegative_or_free_are_rejected():
    for bound in [(None, 4), (1, None)]:
        with pytest.raises(ValueError):
            lp("max", [1, 1], [([1, 1], LE, 10)], bounds=[bound, (0, None)])


def test_degenerate_rows_handled():
    # duplicated equality rows force a redundant artificial
    out = solve_lp(
        lp("min", [1], [([1], "==", 2), ([1], "==", 2), ([2], "==", 4)])
    )
    assert out.status == OPTIMAL
    assert out.x == (F(2),)


@given(st.integers(0, 5000))
def test_strong_duality_on_random_programs(seed):
    rng = random.Random(seed)
    nvars = rng.randint(1, 4)
    nrows = rng.randint(1, 4)
    rows = []
    for _ in range(nrows):
        coeffs = [F(rng.randint(-4, 4)) for _ in range(nvars)]
        rel = rng.choice([LE, GE, "=="])
        rows.append((coeffs, rel, F(rng.randint(-6, 6))))
    objective = [F(rng.randint(-4, 4)) for _ in range(nvars)]
    bounds = [rng.choice([(0, None), (None, None)]) for _ in range(nvars)]
    out = solve_lp(lp("min", objective, rows, bounds))
    if out.status == OPTIMAL:
        # primal value equals the dual bound assembled from row multipliers:
        # verified internally; spot-check complementary slackness here
        for (coeffs, rel, rhs), dual in zip(rows, out.row_duals):
            slack = sum(c * v for c, v in zip(coeffs, out.x)) - rhs
            if rel != "==":
                assert slack * dual == 0
    elif out.status == INFEASIBLE:
        assert out.farkas is not None
    else:
        assert out.ray is not None


def test_row_duals_price_the_rhs():
    out = solve_lp(lp("min", [3, 2], [([1, 1], GE, 4), ([1, 3], GE, 6)]))
    assert out.status == OPTIMAL
    assert out.value == sum(d * r for d, r in zip(out.row_duals, (4, 6)))


def test_fractional_identical_functionals_give_one(m2):
    # E[X Z]/E[X Z] is 1 on every ray of the cone
    ratio2 = m2.numeraire_ratio("tau2")
    for sense in ("max", "min"):
        assert pricing.price_fractional(m2, dict(ratio2), ratio2, sense=sense) == 1


def test_fractional_m2_cross_price(m2):
    h = pricing.terminal_asset_claim(m2, "tau1")
    assert h == {"r.0": F(6), "r.1": F(3)}
    assert pricing.price_fractional(m2, h, m2.numeraire_ratio("tau2")) == F(15, 4)


def test_float_mode_matches_exact_on_small_lp():
    rows = [([1.0, 2.0], LE, 7.0), ([3.0, 1.0], LE, 9.0)]
    out = solve_lp(lp("max", [2.0, 3.0], rows, exact=False))
    exact = solve_lp(lp("max", [F(2), F(3)], [([F(1), F(2)], LE, F(7)), ([F(3), F(1)], LE, F(9))]))
    assert out.status == exact.status == OPTIMAL
    assert abs(out.value - float(exact.value)) < 1e-9


def test_float_and_exact_modes_agree_on_random_programs():
    for seed in range(400):
        rng = random.Random(seed)
        nvars = rng.randint(1, 3)
        nrows = rng.randint(1, 4)
        rows = [
            (
                [rng.randint(-4, 4) for _ in range(nvars)],
                rng.choice([LE, GE, "=="]),
                rng.randint(-6, 6),
            )
            for _ in range(nrows)
        ]
        objective = [rng.randint(-4, 4) for _ in range(nvars)]
        bounds = [rng.choice([(0, None), (None, None)]) for _ in range(nvars)]
        exact = solve_lp(lp("min", [F(c) for c in objective],
                            [([F(v) for v in r], rel, F(b)) for r, rel, b in rows], bounds))
        approx = solve_lp(lp("min", [float(c) for c in objective],
                             [([float(v) for v in r], rel, float(b)) for r, rel, b in rows],
                             bounds, exact=False))
        assert approx.status == exact.status, seed
        if exact.status == OPTIMAL:
            assert abs(approx.value - float(exact.value)) < 1e-7, seed


def test_coprime_denominators_hand_checked():
    # max (x1 + x2)/3 st x1/7 + x2/11 <= 1, x1/11 + x2/3 <= 1: both rows bind
    # at 11 x1 + 7 x2 = 77, 3 x1 + 11 x2 = 33; the duals solve
    # y1/7 + y2/11 = 1/3, y1/11 + y2/3 = 1/3.
    rows = [([F(1, 7), F(1, 11)], LE, 1), ([F(1, 11), F(1, 3)], LE, 1)]
    out = solve_lp(lp("max", [F(1, 3), F(1, 3)], rows))
    assert out.status == OPTIMAL
    assert out.x == (F(154, 25), F(33, 25))
    assert out.value == F(187, 75)
    assert out.row_duals == (F(154, 75), F(11, 25))
    assert sum(d * r for d, r in zip(out.row_duals, (1, 1))) == out.value


def _over_denominators(sense, rows, exact):
    """A program on x >= 0 in two variables whose rows (numerators,
    denominator, rel, rhs) keep denominators other than 1 in both modes."""
    entry, cast = (int, F) if exact else (float, float)
    rows = tuple(([entry(v) for v in nums], entry(den), rel, cast(rhs)) for nums, den, rel, rhs in rows)
    return LinearProgram(sense, (cast(1), cast(1)), rows, ((0, None), (0, None)), exact)


@pytest.mark.parametrize("exact", [True, False])
def test_farkas_check_rejects_a_perturbed_vector(exact):
    # x1/3 + 2 x2/3 <= -1/3 has no point in x >= 0: y = (-1, 0) proves it.
    # Adding the row -x1/7 >= -5/7 with multiplier 1 keeps every sign right
    # but lowers the aggregate's right-hand side below its supremum 0.
    prog = _over_denominators("min", [([1, 2], 3, LE, F(-1, 3)), ([-1, 0], 7, GE, F(-5, 7))], exact)
    t = tolerances(exact).feas
    if exact:
        assert solve_lp(prog).status == INFEASIBLE
    lp_module._verify_farkas(prog, (F(-1), F(0)) if exact else (-1.0, 0.0), t)
    with pytest.raises(NumericBreakdown, match="Farkas aggregate sup"):
        lp_module._verify_farkas(prog, (F(-1), F(1)) if exact else (-1.0, 1.0), t)


@pytest.mark.parametrize("exact", [True, False])
def test_ray_check_rejects_a_perturbed_ray(exact):
    # max x1 + x2 on x1/3 - x2/3 == 0, x1/5 >= 1/5 is unbounded along (1, 1);
    # (1, 2) still improves the objective and keeps x >= 0, but leaves the
    # equality row
    prog = _over_denominators("max", [([1, -1], 3, EQ, 0), ([1, 0], 5, GE, F(1, 5))], exact)
    t = tolerances(exact).feas
    if exact:
        assert solve_lp(prog).status == UNBOUNDED
    lp_module._verify_ray(prog, (F(1), F(1)) if exact else (1.0, 1.0), t)
    with pytest.raises(NumericBreakdown, match="ray escapes an == row"):
        lp_module._verify_ray(prog, (F(1), F(2)) if exact else (1.0, 2.0), t)


def test_exact_pivots_keep_integer_rows_in_lowest_terms(monkeypatch):
    original = lp_module._Tableau._pivot
    states = []

    def checked(self, cost, cost_den, pr, pc):
        original(self, cost, cost_den, pr, pc)
        live = zip(self.rows, self.dens, self.row_alive)
        rows = [(row, den) for row, den, alive in live if alive]
        if cost is not None:
            rows.append((cost, cost_den[0]))
        for row, den in rows:
            states.append(type(den) is int and den > 0 and gcd(den, *row) == 1)
            states.append(all(type(v) is int for v in row))

    monkeypatch.setattr(lp_module._Tableau, "_pivot", checked)
    rows = [([F(1, 7), F(1, 11), 1], "==", F(5, 3)), ([F(1, 11), F(1, 3), F(-2, 9)], GE, F(1, 2))]
    out = solve_lp(lp("min", [F(1, 3), F(1, 7), F(1, 11)], rows))
    assert out.status == OPTIMAL
    assert states and all(states)


def _beale(exact):
    # Beale's example (1955): Dantzig's rule, leaving ties to the smaller
    # basic index, returns to its first basis after six degenerate pivots
    cast = F if exact else float
    rows = [([F(1, 4), -8, -1, 9], LE, 0), ([F(1, 2), -12, F(-1, 2), 3], LE, 0), ([0, 0, 1, 0], LE, 1)]
    objective = [F(-3, 4), 20, F(-1, 2), 6]
    return lp(
        "min",
        [cast(v) for v in objective],
        [([cast(v) for v in r], rel, cast(b)) for r, rel, b in rows],
        exact=exact,
    )


@pytest.mark.parametrize("exact", [True, False])
def test_bland_fallback_breaks_a_dantzig_cycle(monkeypatch, exact):
    original = lp_module._Tableau._pivot
    entered = []  # (entering column, most negative reduced cost's column)

    def recorded(self, cost, cost_den, pr, pc):
        if cost is not None:
            entered.append((pc, min(range(self.n_real), key=cost.__getitem__)))
        original(self, cost, cost_den, pr, pc)

    monkeypatch.setattr(lp_module._Tableau, "_pivot", recorded)
    out = solve_lp(_beale(exact))
    assert out.status == OPTIMAL
    assert out.value == F(-5, 4) if exact else out.value == pytest.approx(-1.25)
    assert lp_module._DEGENERATE_RUN < len(entered) < 2 * lp_module._DEGENERATE_RUN
    # Bland's rule entered a column other than Dantzig's
    assert any(pc != best for pc, best in entered)
    # without the fallback the same program cycles to the pivot limit
    monkeypatch.setattr(lp_module, "_DEGENERATE_RUN", lp_module._MAX_PIVOTS + 1)
    with pytest.raises(NumericBreakdown, match="pivot limit exceeded"):
        solve_lp(_beale(exact))


# SHA-256 of repr(LpOutcome), in call order, over every solve made below, in
# both numeric modes. A different digest means a pivot path or an output
# changed. `price_global` reuses the model's global NFL result from the
# `check_global_nfl` call before it, so its deflator LP is not solved again;
# where that result passed, each `price_submarket` takes its submarket
# certificate from the common deflator and solves only its venue LP.
OUTCOME_DIGEST = "885b0d7f3d507724afef888e1dfeded93cc11e9259af6ea8e6c5cd6153bb6866"


def test_outcome_digest(monkeypatch):
    digest = hashlib.sha256()

    def recorded(solve):
        def wrapper(*args, **kwargs):
            out = solve(*args, **kwargs)
            digest.update(repr(out).encode())
            return out

        return wrapper

    solve = recorded(lp_module.solve_lp)
    for module in (lp_module, arbitrage, pricing):
        monkeypatch.setattr(module, "solve_lp", solve)

    for seed in range(30):
        base = random_model(seed)
        claim = random_claim(random.Random(seed), base)
        document = serialize_market(base)
        document["claims"] = [{"label": "H", "payoff": {a: str(v) for a, v in claim.items()}}]
        for mode in ("rational", "float"):
            model = load_market({**document, "mode": mode})
            h = model.claim("H")
            calls = [
                lambda: arbitrage.check_global_nfl(model),
                lambda: pricing.price_global(model, h),
            ]
            calls += [lambda s=s: pricing.price_submarket(model, h, s) for s in model.labels]
            for call in calls:
                try:
                    call()
                except MarketError as exc:
                    digest.update(type(exc).__name__.encode())
    assert digest.hexdigest() == OUTCOME_DIGEST


# The same pin over seeded random programs in both modes: every status,
# nonnegative and free variables, and coefficients with small denominators.
PROGRAM_DIGEST = "1238512339802720b3e8e9e3d21d2c2566a4e8d4f24bcaf9b185be4d0d1c8b3f"


def test_random_program_digest():
    digest = hashlib.sha256()
    for seed in range(1000):
        rng = random.Random(seed)
        nvars, nrows = rng.randint(1, 6), rng.randint(1, 6)

        def num():
            return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 7)))

        rows = [
            (
                [num() if rng.random() < 0.7 else 0 for _ in range(nvars)],
                rng.choice([LE, GE, "=="]),
                num(),
            )
            for _ in range(nrows)
        ]
        objective = [num() for _ in range(nvars)]
        bounds = [rng.choice([(0, None), (None, None)]) for _ in range(nvars)]
        sense = rng.choice(["min", "max"])
        for exact in (True, False):
            cast = F if exact else float
            prog = lp(
                sense,
                [cast(v) for v in objective],
                [([cast(v) for v in r], rel, cast(b)) for r, rel, b in rows],
                [tuple(None if v is None else cast(v) for v in pair) for pair in bounds],
                exact,
            )
            digest.update(repr(solve_lp(prog)).encode())
    assert digest.hexdigest() == PROGRAM_DIGEST


# The deflator and cone LPs build their programs from the memo's rows; each
# must hold the values of, and have the standard form of, the program `lp`
# builds from the gains, probabilities and budgets themselves.
_STANDARD_FIELDS = (
    "rows", "dens", "flip", "cost", "cost_den", "var_cols", "slack_col",
    "ncols", "nrows", "sense_sign", "feas",
)


def _assert_same_program(received, prog):
    assert received.exact == prog.exact
    assert (received.sense, received.objective, received.bounds) == (prog.sense, prog.objective, prog.bounds)
    # each row entry as a number: numerator over denominator
    assert len(received.rows) == len(prog.rows)
    for (nums, den, rel, rhs), (pnums, pden, prel, prhs) in zip(received.rows, prog.rows):
        got = [from_row(v, den, prog.exact) for v in nums]
        want = [from_row(v, pden, prog.exact) for v in pnums]
        assert (got, rel, rhs) == (want, prel, prhs)
    reference = lp_module._Standardizer(prog)
    standard = lp_module._Standardizer(received)
    for field in _STANDARD_FIELDS:
        got, want = getattr(standard, field), getattr(reference, field)
        # repr as well: float rows keep the sign of each zero
        assert (got, repr(got)) == (want, repr(want)), field


def _recorded(monkeypatch, module):
    received = []
    solve = lp_module.solve_lp

    def recorded(prog):
        received.append(prog)
        return solve(prog)

    monkeypatch.setattr(module, "solve_lp", recorded)
    return received


def test_deflator_lps_hand_the_core_their_standard_form(monkeypatch):
    received = _recorded(monkeypatch, arbitrage)
    for seed in range(60):
        document = serialize_market(random_model(seed))
        for mode in ("rational", "float"):
            model = load_market({**document, "mode": mode})
            tree = model.tree
            probs = [tree.atom_probs[a] for a in tree.leaves]
            n = len(probs)
            for scope in (arbitrage.GLOBAL, *model.labels):
                received.clear()
                try:
                    arbitrage.extract_deflator(model, scope)
                except MarketError:
                    pass
                gains = [[p * v for p, v in zip(probs, g.payoff)] for g in arbitrage.scope_basis(model, scope)]
                rows = [(c + [left_sum(c)], "==", 0) for c in gains] + [(probs + [left_sum(probs)], "==", 1)]
                prog = lp("max", [0] * n + [1], rows, [(0, None)] * n + [(None, None)], model.exact)
                assert len(received) == 1
                _assert_same_program(received[0], prog)


def test_cone_lps_of_verify_hand_the_core_their_standard_form(monkeypatch, m2_path, tmp_path):
    received = _recorded(monkeypatch, pricing)
    programs = []
    cone_lp = pricing._cone_lp

    def written_out(model, h, scope, budgets, sense):
        rows = [(g.payoff, "==", 0) for g in arbitrage.scope_basis(model, scope)]
        cast = F if model.exact else float
        rows += [([cast(v) / wd for v in wn], rel, 1) for (wn, wd), rel in budgets]
        programs.append(lp(sense, h, rows, exact=model.exact))
        return cone_lp(model, h, scope, budgets, sense)

    monkeypatch.setattr(pricing, "_cone_lp", written_out)
    with open(m2_path) as handle:
        document = json.load(handle)
    for mode in ("rational", "float"):
        spec = tmp_path / f"m2-{mode}.json"
        spec.write_text(json.dumps({**document, "mode": mode}))
        received.clear()
        programs.clear()
        assert cli.main(["verify", str(spec)]) == 0
        assert len(received) == len(programs) > 0
        for built, prog in zip(received, programs):
            _assert_same_program(built, prog)
