"""Brute-force cross-checks for tiny instances.

Nothing here touches the simplex: vertex enumeration and active-set
enumeration run on their own Gauss-Jordan elimination, and the grid search
is a nested convex line search over strategy coefficients.  Hard size caps
keep the combinatorics honest; anything larger raises TooLarge.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from multimarket.arbitrage import GLOBAL, MeasureSelector, scope_basis
from multimarket.errors import MarketError
from multimarket.market import Claim, MarketModel
from multimarket.numbers import Num

MAX_ATOMS = 12
MAX_GAINS = 10
GOLDEN_STEPS = 90
INV_PHI = (5**0.5 - 1) / 2  # golden-section ratio


class TooLarge(MarketError):
    """The instance exceeds the oracle's size caps."""


@dataclass(frozen=True)
class OracleResult:
    value: Num
    method: str  # vertex_enumeration | grid_search | exhaustive_system
    instance_size: tuple[int, int]  # atoms x variables


def _check_caps(model: MarketModel, n_gains: int) -> None:
    atoms = len(model.tree.leaves)
    if atoms > MAX_ATOMS or n_gains > MAX_GAINS:
        raise TooLarge(f"{atoms} atoms x {n_gains} gains exceeds oracle caps")


def _rref(matrix: list[list[Num]]):
    """Row-reduce in place with partial pivoting; returns pivot column list.
    Entries below 1e-11 count as zero when the data is float."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    exact = not any(isinstance(v, float) for row in matrix for v in row)
    eps = 0 if exact else 1e-11
    pivots = []
    r = 0
    for c in range(cols):
        piv = max(range(r, rows), key=lambda i: abs(matrix[i][c]), default=None)
        if piv is None or abs(matrix[piv][c]) <= eps:
            continue
        matrix[r], matrix[piv] = matrix[piv], matrix[r]
        inv = 1 / matrix[r][c]
        matrix[r] = [v * inv for v in matrix[r]]
        for i in range(rows):
            if i != r and matrix[i][c] != 0:
                f = matrix[i][c]
                matrix[i] = [a - f * b for a, b in zip(matrix[i], matrix[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return pivots


def _independent_columns(vectors: Sequence[Sequence[Num]]) -> list[int]:
    """Indices of a maximal linearly independent subset, first-come order."""
    if not vectors:
        return []
    matrix = [[vectors[j][i] for j in range(len(vectors))] for i in range(len(vectors[0]))]
    return _rref(matrix)


def _solve_exact(matrix: list[list[Num]], rhs: list[Num]):
    """Unique solution of a square system, or None if singular."""
    n = len(matrix)
    aug = [list(matrix[i]) + [rhs[i]] for i in range(n)]
    pivots = _rref(aug)
    if len(pivots) != n or pivots != list(range(n)):
        return None
    return [aug[i][n] for i in range(n)]


def enumerate_measure_vertices(model: MarketModel, selector: MeasureSelector) -> list[dict[str, Num]]:
    """All vertices of the closed weighted measure set, by basic feasible
    enumeration of {q >= 0, sum q = 1, q orthogonal to gains/Z}."""
    basis = scope_basis(model, selector.scope)
    _check_caps(model, len(basis))
    tree = model.tree
    atoms = tree.leaves
    na = len(atoms)
    one = Fraction(1) if model.exact else 1.0
    rows: list[list[Num]] = []
    rhs: list[Num] = []
    for g in basis:
        rows.append([g.payoff[k] / selector.weight[a] for k, a in enumerate(atoms)])
        rhs.append(one * 0)
    rows.append([one] * na)
    rhs.append(one)

    work = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots = _rref(work)
    rank = len(pivots)
    reduced_rows = work[:rank]

    vertices: list[dict[str, Num]] = []
    seen = set()
    for support in combinations(range(na), rank):
        square = [[reduced_rows[i][j] for j in support] for i in range(rank)]
        sol = _solve_exact(square, [reduced_rows[i][na] for i in range(rank)])
        if sol is None:
            continue
        tol = 0 if model.exact else 1e-9
        if any(v < -tol for v in sol):
            continue
        q = [0] * na
        for pos, j in enumerate(support):
            q[j] = sol[pos]
        # verify against the full system
        ok = True
        for i, row in enumerate(rows):
            resid = sum(row[j] * q[j] for j in range(na)) - rhs[i]
            if (resid != 0) if model.exact else abs(resid) > 1e-9:
                ok = False
                break
        if not ok:
            continue
        key = tuple(q)
        if key not in seen:
            seen.add(key)
            vertices.append(dict(zip(atoms, q)))
    return vertices


def oracle_sup_measure(model: MarketModel, selector: MeasureSelector, functional: Mapping[str, Num]):
    """Max of a linear functional over the measure polytope = max over its
    vertices.  Returns None when the set is empty."""
    vertices = enumerate_measure_vertices(model, selector)
    if not vertices:
        return None
    return max(sum(functional[a] * q[a] for a in q) for q in vertices)


def _venue_columns(model: MarketModel, venue):
    """Funding columns (growth ratios, with sign constraints) and reduced
    gain columns for a venue."""
    tree = model.tree
    atoms = tree.leaves
    if venue == GLOBAL:
        labels = list(model.labels)
        nonneg_funding = True
        gains = scope_basis(model, GLOBAL)
    else:
        labels = [venue]
        nonneg_funding = False
        gains = scope_basis(model, venue)
    _check_caps(model, len(gains))
    funding = [[model.numeraire_ratio(lab)[a] for a in atoms] for lab in labels]
    gain_vecs = [list(g.payoff) for g in gains]
    keep = _independent_columns(gain_vecs) if gain_vecs else []
    gain_vecs = [gain_vecs[i] for i in keep]
    return labels, funding, gain_vecs, nonneg_funding


def brute_superreplication(model: MarketModel, claim, venue) -> OracleResult:
    """Exact superreplication price by active-set enumeration: every vertex
    of the feasible region is the solution of a square subsystem of tight
    constraints; the optimum is the cheapest feasible vertex."""
    if venue in ("lower", "upper"):
        values = [
            brute_superreplication(model, claim, s.label).value for s in model.submarkets
        ]
        pick = min(values) if venue == "lower" else max(values)
        return OracleResult(
            value=pick,
            method="exhaustive_system",
            instance_size=(len(model.tree.leaves), len(values)),
        )
    payoff = claim.payoff if isinstance(claim, Claim) else claim
    tree = model.tree
    atoms = tree.leaves
    h = [payoff[a] for a in atoms]
    labels, funding, gain_vecs, nonneg_funding = _venue_columns(model, venue)
    ns, ng = len(funding), len(gain_vecs)
    nvars = ns + ng

    # constraint rows: atom dominations (>=), plus x >= 0 for the joint venue
    one = Fraction(1) if model.exact else 1.0
    rows: list[list[Num]] = []
    rhs: list[Num] = []
    for k in range(len(atoms)):
        rows.append([funding[j][k] for j in range(ns)] + [g[k] for g in gain_vecs])
        rhs.append(h[k])
    if nonneg_funding:
        for j in range(ns):
            unit = [one * 0] * nvars
            unit[j] = one
            rows.append(unit)
            rhs.append(one * 0)

    tol = 0 if model.exact else 1e-9
    best = None
    for active in combinations(range(len(rows)), nvars):
        square = [rows[i] for i in active]
        sol = _solve_exact([list(r) for r in square], [rhs[i] for i in active])
        if sol is None:
            continue
        feasible = True
        for i, row in enumerate(rows):
            value = sum(row[j] * sol[j] for j in range(nvars))
            if value < rhs[i] - tol:
                feasible = False
                break
        if not feasible:
            continue
        cost = sum(sol[:ns])
        if best is None or cost < best:
            best = cost
    if best is None:
        raise TooLarge("no vertex found; instance outside the oracle's reach")
    return OracleResult(
        value=best, method="exhaustive_system", instance_size=(len(atoms), nvars)
    )


def _convex_min(g) -> float:
    """Minimum of a convex function of one real variable.

    Doubling widens the bracket while g still falls towards either end;
    golden-section steps then shrink it, each reusing one probe of the step
    before (Kiefer 1953).  When the two probes tie, convexity puts a
    minimiser between them, so the bracket keeps only that stretch and
    probes it afresh."""
    lo, hi = -1.0, 1.0
    while hi < 2.0**40 and g(hi) < g(hi / 2):
        hi *= 2
    while lo > -(2.0**40) and g(lo) < g(lo / 2):
        lo *= 2
    m1, m2 = hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo)
    v1, v2 = g(m1), g(m2)
    for _ in range(GOLDEN_STEPS):
        if v1 < v2:
            hi, m2, v2 = m2, m1, v1
            m1 = hi - INV_PHI * (hi - lo)
            v1 = g(m1)
        elif v1 > v2:
            lo, m1, v1 = m1, m2, v2
            m2 = lo + INV_PHI * (hi - lo)
            v2 = g(m2)
        else:
            lo, hi = m1, m2
            m1, m2 = hi - INV_PHI * (hi - lo), lo + INV_PHI * (hi - lo)
            v1, v2 = g(m1), g(m2)
    return g((lo + hi) / 2)


def _partial_min(f, n: int, prefix: tuple[float, ...] = ()) -> float:
    """Minimum of a convex f over R^n, one coordinate at a time: minimising
    a convex function over some of its arguments leaves a convex function
    of the rest, so each level is a one-dimensional convex search."""
    if len(prefix) == n:
        return f(prefix)
    return _convex_min(lambda t: _partial_min(f, n, prefix + (t,)))


def grid_superreplication(model: MarketModel, claim, venue) -> OracleResult:
    """Float second opinion: nested line search over the gain coefficients.

    The funding cost for fixed coefficients is closed-form (single venue) or
    a tiny half-plane intersection (two submarkets), and it is convex in the
    coefficients, so its minimum is reached by one exact convex line search
    per coefficient (`_partial_min`), with no simplex and no direction grid."""
    payoff = claim.payoff if isinstance(claim, Claim) else claim
    tree = model.tree
    atoms = tree.leaves
    h = [float(payoff[a]) for a in atoms]
    labels, funding, gain_vecs, nonneg_funding = _venue_columns(model, venue)
    funding = [[float(v) for v in row] for row in funding]
    gain_vecs = [[float(v) for v in g] for g in gain_vecs]
    ns, ng = len(funding), len(gain_vecs)
    if ng > 2 or ns > 2:
        raise TooLarge("grid search capped at 2 gain coefficients and 2 submarkets")

    def funding_cost(y):
        residual = [
            h[k] - sum(y[j] * gain_vecs[j][k] for j in range(ng))
            for k in range(len(atoms))
        ]
        if ns == 1:
            ratios = [residual[k] / funding[0][k] for k in range(len(atoms))]
            x = max(ratios)
            if nonneg_funding:
                x = max(x, 0.0)
            return x
        # two submarkets: minimize x1 + x2 over half planes, x >= 0
        best = None
        lines = [(funding[0][k], funding[1][k], residual[k]) for k in range(len(atoms))]
        lines += [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
        for (a1, b1, c1), (a2, b2, c2) in combinations(lines, 2):
            det = a1 * b2 - a2 * b1
            if abs(det) < 1e-12:
                continue
            x1 = (c1 * b2 - c2 * b1) / det
            x2 = (a1 * c2 - a2 * c1) / det
            if x1 < -1e-9 or x2 < -1e-9:
                continue
            if all(a * x1 + b * x2 >= c - 1e-9 for a, b, c in lines):
                cost = x1 + x2
                if best is None or cost < best:
                    best = cost
        return best if best is not None else float("inf")

    return OracleResult(
        value=_partial_min(funding_cost, ng),
        method="grid_search",
        instance_size=(len(atoms), ns + ng),
    )
