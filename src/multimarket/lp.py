"""Deterministic linear programming with verified certificates.

A two-phase tableau simplex, run either exactly (reference mode, zero
tolerance) or over floats with explicit tolerances.  The column with the
most negative reduced cost enters (Dantzig); after a run of degenerate
pivots Bland's smallest-index rule takes over until one makes progress, so
the simplex cannot cycle.  In exact mode every row is kept as Python-int
numerators over one positive denominator, in lowest terms, and pivots
fraction-free (Edmonds; Bareiss): Fractions are built only for the values a
solve returns.  Pivots update only the nonzero columns of the pivot row.
The pivot rules see the same exact values as over Fractions, so the pivot
path is the same.
A LinearProgram carries its own numeric mode and holds its rows in the row
format of `numbers.to_row`: `lp` casts plain values into it, while the
deflator and cone LPs build theirs from the rows each gain carries and the
memo's probability and growth rows.  Each variable is of one of the two
kinds those programs use: nonnegative, or free.  Every outcome carries a
certificate that is checked, against the program's own rows, before
returning:

* optimal: primal and dual solutions with complementary slackness and a
  duality gap within the mode's feasibility tolerance (zero when exact),
* infeasible: a Farkas vector over the rows whose aggregate constraint no
  point with its nonnegative variables nonnegative can satisfy,
* unbounded: a feasible improving ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import NumericBreakdown
from .numbers import Num, dot, from_row, lowest, to_row, tolerances

LE, EQ, GE = "<=", "==", ">="

OPTIMAL, INFEASIBLE, UNBOUNDED = "optimal", "infeasible", "unbounded"

_MAX_PIVOTS = 20000

# degenerate pivots in a row after which Bland's rule enters, until progress
_DEGENERATE_RUN = 50


@dataclass(frozen=True)
class LinearProgram:
    """min/max objective.x subject to rows and per-variable bounds, solved
    exactly (``exact``) or over floats.

    Each row is (numerators, denominator, rel, rhs): its coefficients in the
    row format of `numbers.to_row` for the program's mode, its right-hand
    side a number.  Each variable's bounds are (0, None), nonnegative, or
    (None, None), free; state any other bound as a row.
    """

    sense: str
    objective: tuple[Num, ...]
    rows: tuple[tuple[Sequence, Num, str, Num], ...]
    bounds: tuple[tuple[Num | None, Num | None], ...]
    exact: bool

    def __post_init__(self):
        n = len(self.objective)
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be min or max, got {self.sense!r}")
        for nums, _, rel, _ in self.rows:
            if len(nums) != n:
                raise ValueError("row dimension mismatch")
            if rel not in (LE, EQ, GE):
                raise ValueError(f"unknown relation {rel!r}")
        if len(self.bounds) != n:
            raise ValueError("bounds dimension mismatch")
        for bound in self.bounds:
            if tuple(bound) not in ((0, None), (None, None)):
                raise ValueError(f"bounds {bound!r} unsupported: use (0, None) or (None, None) and add a row")


def lp(sense, objective, rows, bounds=None, exact: bool = True) -> LinearProgram:
    """The program of rows given as (coefficients, rel, rhs) in plain
    values, each cast to the mode's numbers and put in the row format of
    `to_row`."""
    cast = Fraction if exact else float
    objective = tuple(objective)
    if bounds is None:
        bounds = tuple((0, None) for _ in objective)
    return LinearProgram(
        sense=sense,
        objective=objective,
        rows=tuple((*to_row([cast(a) for a in c], exact), rel, cast(rhs)) for c, rel, rhs in rows),
        bounds=tuple(bounds),
        exact=exact,
    )


@dataclass(frozen=True)
class LpOutcome:
    status: str
    x: tuple[Num, ...] | None = None
    value: Num | None = None
    row_duals: tuple[Num, ...] | None = None
    farkas: tuple[Num, ...] | None = None
    ray: tuple[Num, ...] | None = None


class _Standardizer:
    """Maps a LinearProgram onto min c.u, A u = b, u >= 0 and back.

    ``rows[i]`` holds [A_i | b_i] and ``cost`` holds [c | 0], stored as the
    tableau stores them: in exact mode Python-int numerators over the
    positive denominators ``dens[i]`` and ``cost_den``, in lowest terms; in
    float mode the values themselves, over 1.0.  ``feas`` scales the
    mode's feasibility tolerance by the largest right-hand side.
    """

    def __init__(self, prog: LinearProgram):
        self.exact = exact = prog.exact
        self.tol = tolerances(exact)
        zero = Fraction(0) if exact else 0.0
        self.zero, self.one = zero, zero + 1
        # the zero of a stored entry: an int numerator or a float
        entry_zero = 0 if exact else 0.0
        cast = Fraction if exact else float

        # user var j -> [(std col, sign)]: x_j = sum(sign * u_col), one
        # column for a nonnegative variable, two for a free one
        self.var_cols: list[list[tuple[int, int]]] = []
        ncols = 0
        for lo, _ in prog.bounds:
            if lo is not None:
                self.var_cols.append([(ncols, 1)])
                ncols += 1
            else:
                self.var_cols.append([(ncols, 1), (ncols + 1, -1)])
                ncols += 2
        # slack columns follow, one per inequality row
        self.slack_col: list[int | None] = []
        for *_, rel, _ in prog.rows:
            if rel == EQ:
                self.slack_col.append(None)
            else:
                self.slack_col.append(ncols)
                ncols += 1
        self.ncols = ncols
        self.nrows = len(prog.rows)
        self.sense_sign = sign = -1 if prog.sense == "max" else 1

        cost = [entry_zero] * ncols + [zero]
        for j, o in enumerate(prog.objective):
            if o:
                cj = cast(o) * sign
                for col, s in self.var_cols[j]:
                    cost[col] = cj if s > 0 else -cj
        self.cost, self.cost_den = to_row(cost, exact)

        # stored column -> (user column, sign); rows sign-normalized to
        # b >= 0, flip records the sign applied
        src = [(j, s) for j, cols in enumerate(self.var_cols) for _, s in cols]
        pad = [entry_zero] * (ncols - len(src))
        self.rows, self.dens, self.flip = [], [], []
        for (nums, den, rel, rhs), slack in zip(prog.rows, self.slack_col):
            # a zero coefficient is stored as the mode's zero, in float
            # mode whatever its sign
            row = [nums[j] * s or entry_zero for j, s in src]
            last = rhs * den
            if exact and last.denominator != 1:
                scale = last.denominator
                row, den, last = [v * scale for v in row], den * scale, last * scale
            row += pad + [int(last) if exact else last]
            if slack is not None:
                row[slack] = den if rel == LE else -den
            if exact:
                den = lowest(row, den)
            self.flip.append(-1 if row[-1] < 0 else 1)
            self.rows.append([-v for v in row] if row[-1] < 0 else row)
            self.dens.append(den)
        self.feas = self.tol.feas * (1 + max((abs(row[-1]) for row in self.rows), default=0))

    def to_user(self, u: Sequence[Num]) -> tuple[Num, ...]:
        """The user variables of the standard point or direction u."""
        out = []
        for cols in self.var_cols:
            v = self.zero
            for col, s in cols:
                if u[col] or not self.exact:  # adding an exact zero changes nothing
                    v = v + s * u[col]
            out.append(v)
        return tuple(out)


def _unit_row(row: list, pc: int, exact: bool) -> tuple[list, Num]:
    """``row`` scaled to 1 at column pc, with its denominator.  The old
    denominator cancels, so exact mode only fixes the sign and reduces."""
    if exact:
        if row[pc] < 0:
            row = [-v for v in row]
        return row, lowest(row, row[pc])
    inv = 1 / row[pc]
    return [v * inv for v in row], 1.0


def _eliminate(row: list, den, nz, pc: int, pden, exact: bool):
    """Subtract row[pc] times the unit row with nonzero entries ``nz`` ((col,
    numerator) pairs over ``pden``) from ``row`` in place; returns the row's
    new denominator.  Exact mode brings ``row`` to the common denominator
    first: fraction-free, reduced to lowest terms after."""
    f = row[pc]
    if not exact:
        for j, p in nz:
            row[j] = row[j] - f * p
        return den
    g = gcd(f, pden)
    if g != pden:
        scale = pden // g
        row[:] = [v * scale for v in row]
        den *= scale
    f //= g
    for j, p in nz:
        row[j] -= f * p
    return lowest(row, den)


class _Tableau:
    """The standard-form rows [A | b] under a basis, stored as
    ``_Standardizer`` stores them: exact-mode pivots do integer arithmetic
    only, and both modes update just the nonzero columns of the pivot row.
    Artificial columns are never stored: no decision reads them, only the
    basis indices at or above ``n_real`` that name them.
    """

    def __init__(self, std: _Standardizer):
        self.std = std
        self.exact = std.exact
        self.tol = std.tol.feas
        self.rows = [row[:] for row in std.rows]
        self.dens = list(std.dens)
        self.basis: list[int] = []
        self.row_alive = [True] * std.nrows
        self.n_real = std.ncols
        self.n_art = 0
        self.pivots = 0

    def value(self, i: int, j: int) -> Num:
        """Entry (i, j) of the tableau; j = -1 is the right-hand side."""
        return from_row(self.rows[i][j], self.dens[i], self.exact)

    def _pivot(self, cost: list | None, cost_den: list | None, pr: int, pc: int) -> None:
        """Make column pc basic in row pr, updating every live row and the
        objective row ``cost`` (its constant last, its denominator held in
        the one-element list ``cost_den``) when one is given."""
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise NumericBreakdown("pivot limit exceeded")
        exact = self.exact
        row, pden = _unit_row(self.rows[pr], pc, exact)
        self.rows[pr], self.dens[pr] = row, pden
        nz = [(j, v) for j, v in enumerate(row) if v]
        for i, other in enumerate(self.rows):
            if i != pr and self.row_alive[i] and other[pc]:
                self.dens[i] = _eliminate(other, self.dens[i], nz, pc, pden, exact)
        if cost is not None and cost[pc]:
            cost_den[0] = _eliminate(cost, cost_den[0], nz, pc, pden, exact)
        self.basis[pr] = pc

    def _leaving_row(self, enter: int) -> int:
        """The row that leaves when column ``enter`` enters, or -1 when no
        row bounds it: min ratio b/a over a > 0, ties to the smaller basic
        index.  A row's denominator cancels from its ratio, so exact mode
        compares numerator cross-products."""
        tol = self.tol
        leave, lead_b, lead_a = -1, None, None
        for i, row in enumerate(self.rows):
            a = row[enter]
            if not (self.row_alive[i] and a > tol):
                continue
            b = row[-1]
            if leave >= 0:
                if self.exact:
                    lhs, rhs = b * lead_a, lead_b * a
                else:
                    lhs, rhs = b / a, lead_b / lead_a
                if lhs > rhs or (lhs == rhs and self.basis[i] > self.basis[leave]):
                    continue
            leave, lead_b, lead_a = i, b, a
        return leave

    def _optimize(self, cost: list, cost_den: list) -> int | None:
        """Pivots on the real columns until optimal (None) or until a column
        enters with no leaving row (returned).

        Dantzig's rule enters the most negative reduced cost, ties to the
        smaller index; the cost row's numerators share one denominator, so
        exact mode compares integers.  After ``_DEGENERATE_RUN`` degenerate
        pivots in a row (the leaving row's b is zero, or within the float
        tolerance) Bland's rule enters the first negative one until a pivot
        makes progress: a cycle pivots only degenerately, and Bland's rule
        cannot cycle."""
        tol, n = self.tol, self.n_real
        run = 0
        while True:
            if run < _DEGENERATE_RUN:
                reduced = cost[:n]
                low = min(reduced, default=0)
                enter = reduced.index(low) if low < -tol else -1
            else:
                enter = next((j for j in range(n) if cost[j] < -tol), -1)
            if enter < 0:
                return None
            leave = self._leaving_row(enter)
            if leave < 0:
                return enter
            run = run + 1 if abs(self.rows[leave][-1]) <= tol else 0
            self._pivot(cost, cost_den, leave, enter)

    def phase1(self) -> Num:
        """Install a basic feasible solution; returns the artificial residue."""
        std = self.std
        need_art = []
        self.basis = [-1] * std.nrows
        for i in range(std.nrows):
            col = std.slack_col[i]
            if col is not None and self.rows[i][col] == self.dens[i]:
                self.basis[i] = col
            else:
                need_art.append(i)
        self.n_art = len(need_art)
        if not self.n_art:
            return std.zero
        for k, i in enumerate(need_art):
            self.basis[i] = self.n_real + k
        # the artificial objective, priced out: minus the sum of their rows
        if self.exact:
            den = lcm(*(self.dens[i] for i in need_art))
            cost = [0] * (self.n_real + 1)
            for i in need_art:
                scale = den // self.dens[i]
                cost = [c - scale * v for c, v in zip(cost, self.rows[i])]
            cost_den = [lowest(cost, den)]
        else:
            cost = [0.0] * (self.n_real + 1)
            for i in need_art:
                cost = [c - v for c, v in zip(cost, self.rows[i])]
            cost_den = [1.0]
        if self._optimize(cost, cost_den) is not None:
            raise NumericBreakdown("phase-1 objective unbounded")
        return from_row(-cost[-1], cost_den[0], self.exact)

    def drive_out_artificials(self) -> None:
        for i in range(len(self.rows)):
            if not self.row_alive[i] or self.basis[i] < self.n_real:
                continue
            pivot_col = -1
            for j in range(self.n_real):
                if abs(self.rows[i][j]) > self.tol:
                    pivot_col = j
                    break
            if pivot_col >= 0:
                self._pivot(None, None, i, pivot_col)
            else:
                self.row_alive[i] = False  # redundant row

    def phase2(self) -> int | None:
        """Optimize the real objective; returns an entering column index if
        unbounded, else None."""
        cost, den = self.std.cost[:], self.std.cost_den
        for i, row in enumerate(self.rows):  # price out the current basis
            if self.row_alive[i] and cost[self.basis[i]]:
                nz = [(j, v) for j, v in enumerate(row) if v]
                den = _eliminate(cost, den, nz, self.basis[i], self.dens[i], self.exact)
        return self._optimize(cost, [den])


def _solve_square(matrix: list[list[Num]], rhs: list[Num], tol, exact: bool) -> list[Num] | None:
    """Gauss-Jordan with partial pivoting; None if singular.  Exact mode
    pivots on integer rows as the tableau does; float mode on full rows."""
    n = len(matrix)
    a = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    dens = [1] * n
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col]))
        if abs(a[piv][col]) <= tol:
            return None
        a[col], a[piv] = a[piv], a[col]
        dens[col], dens[piv] = dens[piv], dens[col]
        a[col], dens[col] = _unit_row(a[col], col, exact)
        # float mode updates every column, zeros too: the duals it returns
        # keep the signs of their zeros
        nz = [(j, v) for j, v in enumerate(a[col]) if v or not exact]
        for r in range(n):
            if r != col and a[r][col] != 0:
                dens[r] = _eliminate(a[r], dens[r], nz, col, dens[col], exact)
    return [from_row(a[i][n], dens[i], exact) for i in range(n)]


def solve_lp(prog: LinearProgram) -> LpOutcome:
    """Solve in the program's own mode with fixed deterministic pivoting;
    certificates verified before return.  Float mode raises
    NumericBreakdown when verification fails."""
    std = _Standardizer(prog)
    zero = std.zero
    tab = _Tableau(std)
    residue = tab.phase1()
    if residue > std.feas:
        y = _dual_from_basis(std, tab, phase1=True)
        if y is None:
            raise NumericBreakdown("cannot recover Farkas certificate")
        farkas = tuple(std.flip[i] * y[i] for i in range(std.nrows))
        _verify_farkas(prog, farkas, std.tol.feas)
        return LpOutcome(status=INFEASIBLE, farkas=farkas)
    if tab.n_art:
        tab.drive_out_artificials()
    unbounded_col = tab.phase2()
    if unbounded_col is not None:
        ray_u = [zero] * std.ncols
        ray_u[unbounded_col] = std.one
        for i in range(len(tab.rows)):
            if tab.row_alive[i] and tab.basis[i] < std.ncols:
                ray_u[tab.basis[i]] = -tab.value(i, unbounded_col)
        ray = std.to_user(ray_u)
        _verify_ray(prog, ray, std.tol.feas)
        return LpOutcome(status=UNBOUNDED, ray=ray)

    u = [zero] * std.ncols
    for i in range(len(tab.rows)):
        if tab.row_alive[i] and tab.basis[i] < std.ncols:
            u[tab.basis[i]] = tab.value(i, -1)
    x = std.to_user(u)
    if std.exact:  # the zero terms of the objective add nothing
        value = sum((c * v for c, v in zip(prog.objective, x) if c), std.zero)
    else:
        value = dot(prog.objective, x)
    y = _dual_from_basis(std, tab, phase1=False)
    if y is None:
        raise NumericBreakdown("cannot recover dual solution")
    _verify_optimal(std, u, y)
    duals = tuple(std.sense_sign * std.flip[i] * y[i] for i in range(std.nrows))
    return LpOutcome(status=OPTIMAL, x=x, value=value, row_duals=duals)


def _dual_from_basis(std: _Standardizer, tab: _Tableau, phase1: bool):
    """Solve B^T y = c_B over the live rows against the original matrix.

    On the stored rows this reads N^T w = C_B, where N holds the rows'
    numerators, C the objective's, and y_i = w_i d_i / d_c for the row
    denominators d_i and the objective's d_c (1 in phase 1, where c_B picks
    the artificials); exact mode solves it in integers.
    """
    live = [i for i in range(std.nrows) if tab.row_alive[i]]
    n = len(live)
    zero, one = (0, 1) if std.exact else (0.0, 1.0)
    bt_rows: list[list[Num]] = []  # one row per basic column: N[live, col]^T
    c_b: list[Num] = []
    for pos, i in enumerate(live):
        col_idx = tab.basis[i]
        if col_idx < std.ncols:
            bt_rows.append([std.rows[r][col_idx] for r in live])
            c_b.append(zero if phase1 else std.cost[col_idx])
        else:
            unit = [zero] * n
            unit[pos] = std.dens[i]
            bt_rows.append(unit)
            c_b.append(one if phase1 else zero)
    w = _solve_square(bt_rows, c_b, tab.tol, std.exact)
    if w is None:
        return None
    d_c = 1 if phase1 else std.cost_den
    y = [std.zero] * std.nrows
    for pos, i in enumerate(live):
        y[i] = w[pos] * std.dens[i] / d_c if std.exact else w[pos]
    return y


def _verify_optimal(std: _Standardizer, u, y) -> None:
    """A u = b, u >= 0, c - A^T y >= 0 and complementary slackness, against
    the standardizer's rows, with u and y_i / d_i in the row format of
    `to_row`: in exact mode integers over common denominators, so each test
    compares the sign of an integer that is a positive multiple of the
    quantity it checks."""
    exact = std.exact
    u_num, u_den = to_row(u, exact)
    z, z_den = to_row([yi / d for yi, d in zip(y, std.dens)], exact)
    for i, row in enumerate(std.rows):
        residual = dot(row, u_num) - row[-1] * u_den
        if abs(residual) > std.feas:
            shown = from_row(residual, std.dens[i] * u_den, exact)
            raise NumericBreakdown(f"primal residual {shown} on row {i}")
    for j in range(std.ncols):
        if u_num[j] < -std.feas:
            raise NumericBreakdown(f"negative basic value u[{j}]={u[j]}")
        cj = std.cost[j]
        reduced = cj * z_den - std.cost_den * dot([row[j] for row in std.rows], z)
        if reduced < -std.tol.feas * (1 + abs(cj)):
            shown = from_row(reduced, std.cost_den * z_den, exact)
            raise NumericBreakdown(f"dual infeasible: reduced cost {shown} at col {j}")
        if exact and u_num[j] > 0 and reduced != 0:
            raise NumericBreakdown("complementary slackness violated")


def _verify_farkas(prog: LinearProgram, farkas, t) -> None:
    """The rows aggregated under ``farkas``, each row's numerators divided
    by its denominator, give a constraint no point within the bounds meets."""
    n = len(prog.objective)
    w = [0] * n
    delta = 0
    for (nums, den, rel, rhs), yi in zip(prog.rows, farkas):
        if rel == GE and yi < -t:
            raise NumericBreakdown("Farkas sign violated on >= row")
        if rel == LE and yi > t:
            raise NumericBreakdown("Farkas sign violated on <= row")
        scaled = yi / den
        for j in range(n):
            w[j] = w[j] + scaled * nums[j]
        delta += yi * rhs
    # sup of w.x over the bounds must fall strictly below delta: every
    # variable can grow and a free one can fall, so the sup is 0 unless w
    # rewards such a move
    for wj, (lo, _) in zip(w, prog.bounds):
        if wj > t or (wj < -t and lo is None):
            raise NumericBreakdown("Farkas aggregate unbounded above")
    if not 0 < delta - t:
        raise NumericBreakdown(f"Farkas aggregate sup 0 !< rhs {delta}")


def _verify_ray(prog: LinearProgram, ray, t) -> None:
    """The ray improves the objective and stays within every row and bound;
    a row's numerators give den times its value along the ray, so it is
    held to t * den."""
    improving = dot(prog.objective, ray)
    ok = improving < -t if prog.sense == "min" else improving > t
    if not ok:
        raise NumericBreakdown(f"ray does not improve objective ({improving})")
    for nums, den, rel, _ in prog.rows:
        d, slack = dot(nums, ray), t * den
        if rel == LE and d > slack:
            raise NumericBreakdown("ray escapes a <= row")
        if rel == GE and d < -slack:
            raise NumericBreakdown("ray escapes a >= row")
        if rel == EQ and abs(d) > slack:
            raise NumericBreakdown("ray escapes an == row")
    for (lo, _), dj in zip(prog.bounds, ray):
        if lo is not None and dj < -t:
            raise NumericBreakdown("ray escapes a lower bound")

