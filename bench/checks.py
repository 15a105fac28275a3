"""Output checks that do not use the program under test.

Every check reads the raw market document (the JSON the program was given),
rebuilds what it needs in its own `Fraction` code, and compares. Venue prices
are re-solved as plain LPs with `scipy.optimize.linprog(method="highs")`.
A failed check raises `CheckFailed`; nothing here uses `assert`, so the
checks also run under `python -O`.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

PRICE_RTOL = 1e-6
FLOAT_TOL = 1e-6  # hedge and witness identities on float-mode outputs


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def num(value) -> Fraction:
    """Exact value of a document or report scalar: "p/q" strings, ints, floats."""
    return Fraction(value)


class Doc:
    """The market document as plain node-value tables."""

    def __init__(self, document: dict):
        tree = document["tree"]
        if "nodes" in tree:
            parent = {e["id"]: e.get("parent") for e in tree["nodes"]}
        else:
            parent = {"r": None}
            level = ["r"]
            for count in tree["branching"]:
                nxt = [f"{n}.{k}" for n in level for k in range(count)]
                parent.update((c, c.rsplit(".", 1)[0]) for c in nxt)
                level = nxt
        self.parent = parent
        self.children = {n: [] for n in parent}
        for n, p in parent.items():
            if p is not None:
                self.children[p].append(n)
        self.root = next(n for n, p in parent.items() if p is None)
        self.leaves = [n for n in parent if not self.children[n]]
        raw = tree["atom_probs"]
        if not isinstance(raw, dict):
            raw = dict(zip(self.leaves, raw))
        self.prob = {a: num(raw[a]) for a in self.leaves}
        self.labels = []
        self.numeraire = {}
        self.assets = {}
        for sub in document["submarkets"]:
            label = sub["label"]
            self.labels.append(label)
            self.numeraire[label] = {n: num(v) for n, v in sub["numeraire"].items()}
            self.assets[label] = {n: tuple(num(v) for v in vals) for n, vals in sub["assets"].items()}
        self.claims = {
            c["label"]: {a: num(v) for a, v in c["payoff"].items()}
            for c in document.get("claims", ())
        }
        self._gains = {}

    def path(self, leaf: str) -> list[str]:
        out = [leaf]
        while self.parent[out[-1]] is not None:
            out.append(self.parent[out[-1]])
        return out[::-1]

    def nonterminal(self) -> list[str]:
        return [n for n in self.parent if self.children[n]]

    def ratio(self, label: str) -> dict[str, Fraction]:
        n = self.numeraire[label]
        return {a: n[a] / n[self.root] for a in self.leaves}

    def terminal(self, label: str, asset: int = 0) -> dict[str, Fraction]:
        return {a: self.assets[label][a][asset] for a in self.leaves}

    def gains(self, label: str) -> list[dict[str, Fraction]]:
        """One-step zero-cost gains: one unit of one asset held over the step
        under one node, financed in the submarket's numeraire."""
        if label not in self._gains:
            num_, assets = self.numeraire[label], self.assets[label]
            paths = {a: self.path(a) for a in self.leaves}
            out = []
            for node in self.nonterminal():
                for i in range(len(assets[node])):
                    here = assets[node][i] / num_[node]
                    g = {}
                    for a in self.leaves:
                        p = paths[a]
                        if node in p:
                            succ = p[p.index(node) + 1]
                            g[a] = num_[a] * (assets[succ][i] / num_[succ] - here)
                        else:
                            g[a] = Fraction(0)
                    out.append(g)
            self._gains[label] = out
        return self._gains[label]

    def scope_labels(self, scope: str) -> list[str]:
        return self.labels if scope == "global" else [scope]


# --- certificates ------------------------------------------------------------


def check_deflator(doc: Doc, xstar, scope: str) -> None:
    """Strictly positive, unit mean, orthogonal to every one-step gain of the
    scope. Any valid deflator passes; no particular one is expected."""
    x = {a: num(xstar[a]) for a in doc.leaves}
    require(all(x[a] > 0 for a in doc.leaves), f"{scope}: deflator not strictly positive")
    require(sum(doc.prob[a] * x[a] for a in doc.leaves) == 1, f"{scope}: deflator mean != 1")
    for label in doc.scope_labels(scope):
        for g in doc.gains(label):
            r = sum(doc.prob[a] * x[a] * g[a] for a in doc.leaves)
            require(r == 0, f"{scope}: deflator not orthogonal to a gain of {label} ({r})")


def _strategy_values(doc: Doc, risky, numeraire, label: str, position_node: str, at: str):
    phi = risky.get(label, {}).get(position_node)
    dim = len(doc.assets[label][at])
    phi = [num(v) for v in phi] if phi is not None else [Fraction(0)] * dim
    psi = num(numeraire[label][position_node])
    return sum(p * s for p, s in zip(phi, doc.assets[label][at])) + psi * doc.numeraire[label][at]


def _close(a: Fraction, b: Fraction, exact: bool) -> bool:
    if exact:
        return a == b
    return abs(a - b) <= FLOAT_TOL * (1 + abs(a) + abs(b))


def strategy_payoff(doc: Doc, risky, numeraire, cost, exact: bool) -> dict[str, Fraction]:
    """Check that a completed strategy costs `cost[label]` in every submarket
    and self-finances at every rebalancing node; return its terminal wealth."""
    for label in doc.labels:
        spent = _strategy_values(doc, risky, numeraire, label, doc.root, doc.root)
        require(_close(spent, num(cost.get(label, 0)), exact),
                f"{label}: strategy costs {spent}, expected {cost.get(label, 0)}")
        for node in doc.nonterminal():
            parent = doc.parent[node]
            if parent is None:
                continue
            before = _strategy_values(doc, risky, numeraire, label, parent, node)
            after = _strategy_values(doc, risky, numeraire, label, node, node)
            require(_close(before, after, exact), f"{label}/{node}: not self-financing")
    return {
        a: sum(_strategy_values(doc, risky, numeraire, label, doc.parent[a], a) for label in doc.labels)
        for a in doc.leaves
    }


def check_hedge(doc: Doc, hedge, allocation, payoff, exact: bool) -> None:
    """The hedge self-finances, costs its allocation and dominates the claim."""
    wealth = strategy_payoff(doc, hedge.risky, hedge.numeraire, allocation, exact)
    for a in doc.leaves:
        slack = wealth[a] - payoff[a]
        ok = slack >= 0 if exact else slack >= -FLOAT_TOL * (1 + abs(payoff[a]))
        require(ok, f"hedge misses the claim at {a} by {slack}")


def check_witness(doc: Doc, witness: dict) -> None:
    """Zero cost in every submarket, nonnegative payoff, positive somewhere,
    recomputed from the reported positions (exact documents only)."""
    strategy = witness["strategy"]
    wealth = strategy_payoff(doc, strategy["risky"], strategy["numeraire"], {}, exact=True)
    require(all(wealth[a] >= 0 for a in doc.leaves), "witness payoff negative somewhere")
    require(any(wealth[a] > 0 for a in doc.leaves), "witness payoff is zero everywhere")
    reported = witness["payoff"]
    require(all(num(reported[a]) == wealth[a] for a in doc.leaves), "witness payoff misreported")


# --- independent LPs ------------------------------------------------------------


def _gain_matrix(doc: Doc, labels) -> np.ndarray:
    cols = [[float(g[a]) for a in doc.leaves] for label in labels for g in doc.gains(label)]
    return np.array(cols, dtype=float).T


def lp_price(doc: Doc, payoff, venue: str) -> float:
    """Superreplication price in one submarket (`venue` is its label) or
    jointly ("global", nonnegative capital per submarket), by HiGHS."""
    labels = doc.labels if venue == "global" else [venue]
    funding = np.array([[float(doc.ratio(lab)[a]) for lab in labels] for a in doc.leaves])
    gains = _gain_matrix(doc, doc.scope_labels(venue))
    h = np.array([float(payoff[a]) for a in doc.leaves])
    nf = len(labels)
    c = np.concatenate([np.ones(nf), np.zeros(gains.shape[1])])
    lo = 0 if venue == "global" else None
    bounds = [(lo, None)] * nf + [(None, None)] * gains.shape[1]
    res = linprog(c, A_ub=-np.hstack([funding, gains]), b_ub=-h, bounds=bounds, method="highs")
    require(res.status == 0, f"reference LP for {venue} ended with status {res.status}")
    return float(res.fun)


def has_arbitrage(doc: Doc) -> bool:
    """Joint no-arbitrage by HiGHS: the largest probability-weighted payoff
    of a zero-cost strategy capped at 1 per atom is positive iff arbitrage."""
    gains = _gain_matrix(doc, doc.labels)
    na, ng = gains.shape
    probs = np.array([float(doc.prob[a]) for a in doc.leaves])
    # variables: gain coefficients (free), then payoffs W in [0, 1]
    c = np.concatenate([np.zeros(ng), -probs])
    a_eq = np.hstack([gains, -np.eye(na)])
    bounds = [(None, None)] * ng + [(0, 1)] * na
    res = linprog(c, A_eq=a_eq, b_eq=np.zeros(na), bounds=bounds, method="highs")
    require(res.status == 0, f"reference arbitrage LP ended with status {res.status}")
    return -res.fun > 1e-7


def require_price(got, want: float, what: str) -> None:
    got = float(num(got))
    require(abs(got - want) <= PRICE_RTOL * max(1.0, abs(got), abs(want)),
            f"{what}: program {got!r}, reference LP {want!r}")


def check_venues(doc: Doc, payoff, global_price, lower, upper, per_submarket) -> None:
    """Joint, cheapest-venue, every-venue and per-submarket prices against
    the reference LPs."""
    own = {lab: lp_price(doc, payoff, lab) for lab in doc.labels}
    require_price(global_price, lp_price(doc, payoff, "global"), "global price")
    require_price(lower, min(own.values()), "lower price")
    require_price(upper, max(own.values()), "upper price")
    for lab, price in per_submarket.items():
        require_price(price, own[lab], f"price in {lab}")


# --- verify reports ----------------------------------------------------------------


def _zero(entry) -> bool:
    return num(entry["residual"]) == 0


def check_verify_report(doc: Doc, report: dict, complete_pair: bool) -> None:
    """Properties every clean `verify` report must have, plus its ordering
    prices against the reference LPs."""
    require(report["no_free_lunch"] is True, "verify: no_free_lunch is not true")
    for name, o in report["ordering"].items():
        g, lo, up = num(o["global"]), num(o["lower"]), num(o["upper"])
        require(g <= lo <= up and o["ordered"] is True, f"verify {name}: ordering broken")
        if name.startswith("terminal:"):
            payoff = doc.terminal(name.split(":", 1)[1])
        else:
            payoff = doc.claims[name]
        check_venues(doc, payoff, g, lo, up, {})
    for name, c in report["certificate"].items():
        require(c["ok"] is True and num(c["value"]) == 0, f"verify {name}: dual certificate fails")
    for name, b in report["bounds"].items():
        lo, price, hi = num(b["lower"]), num(b["price"]), num(b["upper"])
        require(lo <= price <= hi and b["bracketed"] is True, f"verify {name}: bound misses price")
        require(price == num(report["ordering"][name]["global"]), f"verify {name}: bound price differs")
    tm = report["two_market"]
    if tm is not None:
        require(all(_zero(e) for e in tm["min_formula"].values()), "verify: min_formula residual")
        if tm["hypothesis_holds"]:
            require(all(_zero(e) for e in tm["swap_formulas"].values()), "verify: swap residual")
        s1, s2 = (doc.terminal(lab) for lab in doc.labels)
        swap = {a: s1[a] - s2[a] for a in doc.leaves}
        require_price(tm["swap_lp_price"], lp_price(doc, swap, "global"), "verify swap price")
    for label, cr in report["constant_ratio"].items():
        if cr["applicable"]:
            require(num(cr["residual"]) == 0, f"verify {label}: constant-ratio residual")
    if complete_pair:
        for pair, checks in report["one_dim_identities"].items():
            require(all(_zero(e) for e in checks.values()), f"verify {pair}: identity residual")
