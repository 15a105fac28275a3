"""No-free-lunch verification and common-deflator extraction.

On a finite tree the attainable-at-zero-cost cone is polyhedral, hence
closed, so no-free-lunch coincides with plain no-arbitrage and both reduce
to linear programming.  The certificate of absence is a strictly positive
deflator orthogonal to every elementary gain of every submarket; it is
built by one max-min LP (raise a common floor t under the deflator as far as
orthogonality and unit mean allow), and a floor that cannot rise above zero,
or an empty feasible set, yields an explicit arbitrage witness through LP
duality.

All martingale measures, state price deflators, and weighted measure sets
are derived from that one common deflator.  So is each submarket's
certificate once the global check has passed: the global gains contain the
submarket's, so the common deflator is checked against them and no
submarket LP is solved.  The deflator and every price witness pass one
orthogonality check, `check_orthogonal`, against the row each gain carries
in the format of `numbers.to_row`: integer numerators over one denominator
in rational mode, so the checks multiply integers only, and the floats
themselves over 1.0 in float mode.  The deflator LP is a `LinearProgram`
of the same rows in the model's mode: the simplex and its Farkas check read
them as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import (
    ArbitrageExists,
    NonPositiveWeight,
    NumericBreakdown,
    certificate_failure,
)
from .gains import (
    GainAtom,
    SimpleStrategy,
    elementary_gains,
    global_gains,
    self_financing,
    strategy_from_coefficients,
)
from .lp import EQ, INFEASIBLE, OPTIMAL, UNBOUNDED, LinearProgram, lp, solve_lp
from .market import MarketModel
from .numbers import Num, dot, from_row, left_sum, to_row, tolerances

GLOBAL = "global"


@dataclass(frozen=True)
class DeflatorCertificate:
    """Strictly positive deflator with unit mean, orthogonal to every gain
    in `basis_checked`.  `verify` raises CertificateViolation (exact mode)
    or NumericBreakdown (float mode) when any of the three fails."""

    scope: str
    xstar: Mapping[str, Num]
    basis_checked: tuple[GainAtom, ...]

    def verify(self, model: MarketModel) -> None:
        exact = model.exact
        for a in model.tree.leaves:
            if not self.xstar[a] > 0:
                value = self.xstar[a]
                raise certificate_failure(exact, value, f"deflator {value} not positive at atom {a!r}")
        w, den = deflator_row(model, self.xstar)
        total = sum(w)
        if abs(total - den) > tolerances(exact).feas:
            mean = from_row(total, den, exact)
            raise certificate_failure(exact, mean, f"deflator mean {mean} != 1")
        check_orthogonal(model, self.basis_checked, w, den, "deflator")


@dataclass(frozen=True)
class ArbitrageWitness:
    """Zero-cost-per-submarket strategy with nonnegative, nonzero payoff."""

    scope: str
    strategy: SimpleStrategy
    payoff: Mapping[str, Num]
    violating_atoms: tuple[str, ...]


@dataclass(frozen=True)
class NflResult:
    ok: bool
    certificate: DeflatorCertificate | None = None
    witness: ArbitrageWitness | None = None


@dataclass(frozen=True)
class MeasureSelector:
    """A weighted measure set: the cone (global or one submarket) carves the
    orthogonality constraints, the strictly positive weight Z reweights the
    deflators into measures."""

    scope: str
    weight: Mapping[str, Num]

    @staticmethod
    def linear_combination(model: MarketModel, lam: Mapping[str, Num]) -> "MeasureSelector":
        """Global cone weighted by a nonnegative mix of numeraire growths;
        the mix must stay positive on every atom."""
        weight = {}
        for atom in model.tree.leaves:
            total = 0
            for label, coeff in lam.items():
                if coeff < 0:
                    raise NonPositiveWeight(f"negative weight for {label!r}")
                total += coeff * model.numeraire_ratio(label)[atom]
            weight[atom] = total
        _require_positive(weight)
        return MeasureSelector(scope=GLOBAL, weight=weight)

    @staticmethod
    def max_ratio(model: MarketModel) -> "MeasureSelector":
        ratios = [model.numeraire_ratio(s.label) for s in model.submarkets]
        return MeasureSelector(
            scope=GLOBAL,
            weight={a: max(r[a] for r in ratios) for a in model.tree.leaves},
        )

    @staticmethod
    def min_ratio(model: MarketModel) -> "MeasureSelector":
        ratios = [model.numeraire_ratio(s.label) for s in model.submarkets]
        return MeasureSelector(
            scope=GLOBAL,
            weight={a: min(r[a] for r in ratios) for a in model.tree.leaves},
        )


def _require_positive(weight: Mapping[str, Num]) -> None:
    for atom, value in weight.items():
        if value <= 0:
            raise NonPositiveWeight(f"weight {value} at atom {atom!r}")


def scope_basis(model: MarketModel, scope: str) -> tuple[GainAtom, ...]:
    if scope == GLOBAL:
        return global_gains(model)
    return elementary_gains(model, scope)


def atom_row(model: MarketModel, key: tuple, values: Mapping[str, Num]):
    """`values` over the atoms as a row of `to_row`, computed once per model
    and kept in the memo under `key`."""
    return model._memoized(key, lambda: to_row([values[a] for a in model.tree.leaves], model.exact))


def deflator_row(model: MarketModel, xstar: Mapping[str, Num]):
    """w = P∘X* as one row of `to_row`: its sum is the mean of X*, its dot
    product with a gain row the residual.  The last row built is kept in the
    memo beside a copy of the X* it came from, so every submarket
    certificate taken from the common deflator reuses the global one's."""
    held = model._memo.get(("deflator_row",))
    if held is None or held[0] != xstar:
        pn, pd = atom_row(model, ("prob_row",), model.tree.atom_probs)
        xn, xd = to_row([xstar[a] for a in model.tree.leaves], model.exact)
        held = model._memo[("deflator_row",)] = (dict(xstar), [p * x for p, x in zip(pn, xn)], pd * xd)
    return held[1], held[2]


def check_orthogonal(model: MarketModel, basis, qn, qd, what: str) -> None:
    """Raise a certificate failure unless the row (qn, qd) is orthogonal to
    every gain of `basis`, within the mode's ``member`` tolerance; `what`
    names q in the message."""
    exact = model.exact
    tol = tolerances(exact).member
    for g in basis:
        gn, gd = g.row
        r = dot(gn, qn)
        if abs(r) > tol:
            r = from_row(r, gd * qd, exact)
            where = f"{g.submarket}/{g.node}/{g.asset}"
            raise certificate_failure(exact, r, f"{what} not orthogonal to gain {where}: {r}")


def _witness_from_coeffs(
    model: MarketModel, basis: Sequence[GainAtom], coeffs: Sequence[Num], scope: str
) -> ArbitrageWitness | None:
    tol = tolerances(model.exact).feas
    strategy, payoff = self_financing(model, {}, strategy_from_coefficients(model, basis, coeffs))
    values = [payoff[a] for a in model.tree.leaves]
    if any(v < -tol for v in values) or not any(v > tol for v in values):
        return None
    return ArbitrageWitness(
        scope=scope,
        strategy=strategy,
        payoff=payoff,
        violating_atoms=tuple(
            a for a in model.tree.leaves if payoff[a] > tol
        ),
    )


def arbitrage_lp(model: MarketModel, scope: str = GLOBAL):
    """The direct check: maximize total payoff mass over the zero-cost cone
    intersected with the nonnegative orthant.  Optimum 0 means no arbitrage;
    an unbounded ray exhibits one."""
    basis = scope_basis(model, scope)
    tree = model.tree
    atoms = tree.leaves
    nb = len(basis)
    na = len(atoms)
    # variables: basis coefficients (free), then payoff values W (>= 0)
    payoffs = [g.payoff for g in basis]
    rows = []
    for k, atom in enumerate(atoms):
        coeffs = [p[k] for p in payoffs] + [0] * na
        coeffs[nb + k] = -1
        rows.append((coeffs, EQ, 0))
    objective = [0] * nb + [tree.atom_probs[a] for a in atoms]
    bounds = [(None, None)] * nb + [(0, None)] * na
    out = solve_lp(lp("max", objective, rows, bounds, model.exact))
    if out.status == OPTIMAL:
        return out.value, None
    if out.status == UNBOUNDED:
        coeffs = out.ray[:nb]
        witness = _witness_from_coeffs(model, basis, coeffs, scope)
        if witness is None:
            raise NumericBreakdown("unbounded ray failed witness verification")
        return None, witness
    raise NumericBreakdown(f"direct arbitrage LP returned {out.status}")


def extract_deflator(model: MarketModel, scope: str = GLOBAL) -> DeflatorCertificate:
    """One max-min LP over the deflator x = t + s with s >= 0 and t free:
    maximize t subject to orthogonality to every gain and unit mean.  An
    optimum t* > 0 makes x strictly positive, hence the certificate.  At
    t* <= 0 the duals of the gain rows are the coefficients of a zero-cost
    strategy paying at least -t* on every atom, with mean 1 - t*; when the
    LP is infeasible the negated Farkas entries on those rows give one
    paying at least the unit-mean row's multiplier (> 0) everywhere.

    Raises ArbitrageExists carrying the witness on failure.
    """
    tree = model.tree
    atoms = tree.leaves
    basis = scope_basis(model, scope)
    # variables: s per atom (>= 0), then the floor t (free); x = t + s, so
    # t's coefficient in each row is that row's sum.  Rows E[x g] = 0 and
    # E[x] = 1 from the gains' rows and the memo's: P∘g is their product
    pn, pd = atom_row(model, ("prob_row",), tree.atom_probs)
    rows = []
    for g in basis:
        gn, gd = g.row
        coeffs = [p * g for p, g in zip(pn, gn)]
        rows.append((coeffs + [left_sum(coeffs)], pd * gd, EQ, 0))
    rows.append((pn + [left_sum(pn)], pd, EQ, 1))
    objective = (0,) * len(atoms) + (1,)
    bounds = ((0, None),) * len(atoms) + ((None, None),)
    out = solve_lp(LinearProgram("max", objective, tuple(rows), bounds, model.exact))
    if out.status == INFEASIBLE:
        coeffs = [-y for y in out.farkas[: len(basis)]]
    elif out.status != OPTIMAL:
        raise NumericBreakdown(f"deflator LP returned {out.status}")
    elif out.value <= tolerances(model.exact).feas:
        coeffs = out.row_duals[: len(basis)]
    else:
        t = out.x[-1]
        certificate = DeflatorCertificate(
            scope=scope,
            xstar={a: t + s if s else t for a, s in zip(atoms, out.x)},
            basis_checked=basis,
        )
        certificate.verify(model)
        return certificate
    witness = _witness_from_coeffs(model, basis, coeffs, scope)
    if witness is None:
        raise NumericBreakdown("arbitrage detected but the witness failed verification")
    raise ArbitrageExists(witness)


def check_global_nfl(model: MarketModel) -> NflResult:
    """No free lunch across all submarkets jointly; on finite trees this is
    the no-arbitrage check, and it is strictly stronger than every
    per-submarket check combined.  Computed once per model."""
    return model._memoized(("nfl", GLOBAL), lambda: _check_nfl(model, GLOBAL))


def check_submarket_nfl(model: MarketModel, label: str) -> NflResult:
    """No free lunch inside one submarket.  Computed once per model.

    When the model already holds a passing global result, the common
    deflator is the submarket's certificate too (the global gains contain
    the submarket's), so it is checked against the submarket's gains and
    returned without an LP.  Otherwise the submarket solves its own LP; it
    never triggers the global check."""
    model.submarket(label)
    return model._memoized(("nfl", label), lambda: _check_nfl(model, label))


def _check_nfl(model: MarketModel, scope: str) -> NflResult:
    common = model._memo.get(("nfl", GLOBAL)) if scope != GLOBAL else None
    if common is not None and common.ok:
        certificate = DeflatorCertificate(
            scope=scope,
            xstar=common.certificate.xstar,
            basis_checked=scope_basis(model, scope),
        )
        certificate.verify(model)
        return NflResult(ok=True, certificate=certificate)
    try:
        return NflResult(ok=True, certificate=extract_deflator(model, scope))
    except ArbitrageExists as exc:
        return NflResult(ok=False, witness=exc.witness)


# --- measures built from a certificate --------------------------------------


def measure_from_weight(
    model: MarketModel, certificate: DeflatorCertificate, weight: Mapping[str, Num]
) -> dict[str, Num]:
    """Reweight the deflator into the measure with density X* Z / E[X* Z]."""
    _require_positive(weight)
    tree = model.tree
    raw = {
        a: tree.atom_probs[a] * certificate.xstar[a] * weight[a] for a in tree.leaves
    }
    total = sum(raw.values())
    return {a: v / total for a, v in raw.items()}


def martingale_measure(
    model: MarketModel, certificate: DeflatorCertificate, label: str
) -> dict[str, Num]:
    """The submarket's risk-neutral measure built from the common deflator."""
    return measure_from_weight(model, certificate, model.numeraire_ratio(label))


def state_price_deflator(
    model: MarketModel, certificate: DeflatorCertificate, label: str
) -> dict[str, Num]:
    """Node process D with D * S a martingale under the atom probabilities."""
    tree = model.tree
    sub = model.submarket(label)
    out = {}
    for node_id in tree.nodes:
        cond = sum(
            tree.atom_probs[a] * certificate.xstar[a] * sub.numeraire[a]
            for a in tree.atoms_under(node_id)
        ) / tree.node_prob(node_id)
        out[node_id] = cond / sub.numeraire[node_id]
    return out
