"""Seeded random model generation for property tests and the CLI.

Two construction styles alternate: fully random node values (usually
arbitrageable) and backward construction from a planted deflator (always
arbitrage free: terminal discounted prices are drawn, interior prices are
their conditional expectations under the planted measure).  Rejection
through the global checker turns the mix into an arbitrage-free stream when
requested, with bounded retries because the planted style always passes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .arbitrage import check_global_nfl
from .market import MarketModel, Submarket, make_model
from .numbers import Num
from .tree import ScenarioTree, build_tree


def _random_probs(rng: random.Random, count: int) -> list[str]:
    weights = [rng.randint(1, 5) for _ in range(count)]
    total = sum(weights)
    return [f"{w}/{total}" for w in weights]


def random_tree(rng: random.Random, atoms: int, periods: int) -> ScenarioTree:
    """Branching profile of `periods` levels whose leaf count hits `atoms`
    exactly: each level but the last branches by a random divisor (at least
    2) of the atoms still to split, or by 1 once none is left, and the last
    level takes the rest."""
    branching = []
    rest = atoms
    for _ in range(periods - 1):
        split = [d for d in range(2, rest + 1) if rest % d == 0]
        first = rng.choice(split) if split else 1
        branching.append(first)
        rest //= first
    branching.append(rest)
    return build_tree(branching, [Fraction(p) for p in _random_probs(rng, atoms)])


def _random_numeraire(rng: random.Random, tree: ScenarioTree, deterministic: bool) -> dict[str, Num]:
    moves = [Fraction(n, 10) for n in (8, 9, 10, 11, 12, 13)]
    out = {}
    level_move: dict[int, Fraction] = {}
    for node_id in tree.nodes:
        node = tree.nodes[node_id]
        if node.parent is None:
            out[node_id] = Fraction(1)
        elif deterministic:
            move = level_move.setdefault(node.time, rng.choice(moves))
            out[node_id] = out[node.parent] * move
        else:
            out[node_id] = out[node.parent] * rng.choice(moves)
    return out


def _planted_submarket(
    rng: random.Random, tree: ScenarioTree, label: str, dim: int, xstar: dict[str, Num],
    deterministic_numeraire: bool,
) -> Submarket:
    numeraire = _random_numeraire(rng, tree, deterministic_numeraire)
    # measure implied by the planted deflator and this numeraire
    raw = {a: tree.atom_probs[a] * xstar[a] * numeraire[a] for a in tree.leaves}
    total = sum(raw.values())
    q = {a: v / total for a, v in raw.items()}
    assets: dict[str, tuple[Num, ...]] = {}
    terminal = {
        a: tuple(Fraction(rng.randint(1, 40), rng.choice((1, 2, 4, 5))) for _ in range(dim))
        for a in tree.leaves
    }
    for node_id in tree.nodes:
        atoms = tree.atoms_under(node_id)
        if tree.nodes[node_id].is_leaf:
            tilde = terminal[node_id]
        else:
            mass = sum(q[a] for a in atoms)
            tilde = tuple(
                sum(q[a] * terminal[a][i] for a in atoms) / mass for i in range(dim)
            )
        assets[node_id] = tuple(v * numeraire[node_id] for v in tilde)
    return Submarket(label=label, dim=dim, assets=assets, numeraire=numeraire)


def _random_submarket(
    rng: random.Random, tree: ScenarioTree, label: str, dim: int
) -> Submarket:
    numeraire = _random_numeraire(rng, tree, rng.random() < 0.4)
    assets = {
        node_id: tuple(
            Fraction(rng.randint(1, 40), rng.choice((1, 2, 4, 5))) for _ in range(dim)
        )
        for node_id in tree.nodes
    }
    return Submarket(label=label, dim=dim, assets=assets, numeraire=numeraire)


def random_model(
    seed: int,
    atoms: int | None = None,
    periods: int | None = None,
    submarkets: int | None = None,
    dims: Sequence[int] | None = None,
    arbitrage_free: bool = False,
    deterministic_numeraires: bool = False,
) -> MarketModel:
    """Deterministic-by-seed model.  The style alternates by seed parity
    (planted deflator vs. fully random); with ``arbitrage_free`` candidates
    are rejection-filtered through the global check."""
    rng = random.Random(seed)
    atoms = atoms or rng.randint(2, 4)
    periods = periods or rng.randint(1, 2)
    count = submarkets or rng.randint(1, 3)
    if dims is None:
        dims = [1 if rng.random() < 0.8 else 2 for _ in range(count)]
    planted = seed % 2 == 0

    attempts = 0
    while True:
        attempts += 1
        tree = random_tree(rng, atoms, periods)
        labels = [f"tau{i + 1}" for i in range(count)]
        if planted:
            weights = [rng.randint(1, 6) for _ in range(atoms)]
            mean = sum(
                tree.atom_probs[a] * w for a, w in zip(tree.leaves, weights)
            )
            xstar = {a: Fraction(w) / mean for a, w in zip(tree.leaves, weights)}
            subs = [
                _planted_submarket(
                    rng, tree, lab, dims[i], xstar, deterministic_numeraires
                )
                for i, lab in enumerate(labels)
            ]
        else:
            subs = [
                _random_submarket(rng, tree, lab, dims[i]) for i, lab in enumerate(labels)
            ]
        model = make_model(tree, subs)
        if not arbitrage_free:
            return model
        if check_global_nfl(model).ok:
            return model
        planted = planted or attempts >= 2  # planted construction always passes


def random_claim(rng: random.Random, model: MarketModel) -> dict[str, Num]:
    return {
        a: Fraction(rng.randint(0, 40), rng.choice((1, 2, 4)))
        for a in model.tree.leaves
    }


def random_complete_pair(seed: int) -> MarketModel:
    """One-period binary pair with non-degenerate one-dimensional submarkets.

    On two atoms, absence of joint arbitrage pins each submarket's
    uni-market measure set to a single point, which is the regime where the
    factorized one-dimensional pricing identities are exact (a flat asset in
    the hedging venue breaks them: its measure set balloons while the claim
    still moves)."""
    rng = random.Random(seed)
    while True:
        tree = random_tree(rng, 2, 1)
        weights = [rng.randint(1, 6) for _ in range(2)]
        mean = sum(tree.atom_probs[a] * w for a, w in zip(tree.leaves, weights))
        xstar = {a: Fraction(w) / mean for a, w in zip(tree.leaves, weights)}
        subs = [
            _planted_submarket(rng, tree, lab, 1, xstar, rng.random() < 0.5)
            for lab in ("tau1", "tau2")
        ]
        degenerate = False
        for sub in subs:
            tilde = [sub.assets[a][0] / sub.numeraire[a] for a in tree.leaves]
            if tilde[0] == tilde[1]:
                degenerate = True
        if degenerate:
            continue
        return make_model(tree, subs)
