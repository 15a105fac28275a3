"""The global market: one tree, several submarkets, no cross trading.

Each submarket carries its own risky assets and a strictly positive tradable
numeraire, all adapted by construction (one value per node).  Claims are
terminal payoffs given per atom.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Mapping, Sequence, TypeVar

from .errors import (
    DimensionMismatch,
    MissingNodeValue,
    NonPositiveNumeraire,
    SchemaError,
    UnknownSubmarket,
)
from .numbers import Num, parse_scalar, scalar_to_json
from .tree import ScenarioTree, build_tree

T = TypeVar("T")


@dataclass(frozen=True)
class Submarket:
    """One trading segment: d risky assets plus its own numeraire."""

    label: str
    dim: int
    assets: Mapping[str, tuple[Num, ...]]
    numeraire: Mapping[str, Num]


@dataclass(frozen=True)
class Claim:
    label: str
    payoff: Mapping[str, Num]


@dataclass(frozen=True)
class MarketModel:
    """Immutable after construction: every operation in the package treats
    it as read-only, so it is safe to share across threads.

    `_memo` holds only facts derived from the fields above: numeraire
    ratios, discounted prices, gain bases, NFL results per scope, the
    weighted row of the last deflator checked and venue prices, each
    computed on first use and kept for the life of this object (two threads
    may both compute a fact on first use; either equal result is kept).  It
    takes no part in equality, hashing or repr, and `dataclasses.replace`
    gives the new model an empty one.  A value taken from it is shared by
    every caller, so callers never mutate one.
    """

    tree: ScenarioTree
    submarkets: tuple[Submarket, ...]
    bound_constant: Num | None = None
    claims: tuple[Claim, ...] = ()
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _memoized(self, key: Hashable, compute: Callable[[], T]) -> T:
        """The value stored under `key`, computed by `compute()` on first use.
        An exception propagates and stores nothing, so the next call raises
        it again."""
        try:
            return self._memo[key]
        except KeyError:
            value = self._memo[key] = compute()
            return value

    @property
    def exact(self) -> bool:
        """The numeric mode, the tree's."""
        return self.tree.exact

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.submarkets)

    def submarket(self, label: str) -> Submarket:
        for sub in self.submarkets:
            if sub.label == label:
                return sub
        raise UnknownSubmarket(f"no submarket {label!r} (have {self.labels})")

    def claim(self, label: str) -> Claim:
        for claim in self.claims:
            if claim.label == label:
                return claim
        raise SchemaError(f"no claim {label!r} in document")

    def numeraire_ratio(self, label: str) -> dict[str, Num]:
        """Terminal numeraire growth per atom: S0_T(w) / S0_0."""
        return self._memoized(("numeraire_ratio", label), lambda: self._numeraire_ratio(label))

    def _numeraire_ratio(self, label: str) -> dict[str, Num]:
        sub = self.submarket(label)
        initial = sub.numeraire[self.tree.root]
        return {a: sub.numeraire[a] / initial for a in self.tree.leaves}


def make_model(
    tree: ScenarioTree,
    submarkets: Sequence[Submarket],
    bound_constant: Num | None = None,
    claims: Sequence[Claim] = (),
) -> MarketModel:
    """Assemble a model and validate it: raises the first defect that
    `validate_model` finds."""
    model = MarketModel(
        tree=tree,
        submarkets=tuple(submarkets),
        bound_constant=bound_constant,
        claims=tuple(claims),
    )
    validate_model(model)
    return model


def validate_model(model: MarketModel) -> None:
    """Structural audit: raises the first defect found, as "<code> at
    <where>: <detail>".  The order is: an empty market; per submarket a
    reused label, a dim below one, then per node a missing numeraire or
    asset entry, a nonpositive numeraire and a wrong asset count; a
    tightest bound above the declared constant; per claim an atom without a
    payoff.  The code names the exception class, except that EmptyMarket,
    DuplicateLabel and BoundExceeded raise SchemaError."""
    tree = model.tree
    if not model.submarkets:
        raise SchemaError("EmptyMarket at -: no submarkets declared")
    seen = set()
    for sub in model.submarkets:
        if sub.label in seen:
            raise SchemaError(f"DuplicateLabel at {sub.label}: label reused")
        seen.add(sub.label)
        if sub.dim < 1:
            raise DimensionMismatch(f"DimensionMismatch at {sub.label}: dim={sub.dim}")
        for node_id in tree.nodes:
            where = f"{sub.label}/{node_id}"
            if node_id not in sub.numeraire:
                raise MissingNodeValue(f"MissingNodeValue at {where}: numeraire missing")
            if node_id not in sub.assets:
                raise MissingNodeValue(f"MissingNodeValue at {where}: assets missing")
            if sub.numeraire[node_id] <= 0:
                raise NonPositiveNumeraire(
                    f"NonPositiveNumeraire at {where}: numeraire={sub.numeraire[node_id]}"
                )
            if len(sub.assets[node_id]) != sub.dim:
                raise DimensionMismatch(
                    f"DimensionMismatch at {where}: "
                    f"{len(sub.assets[node_id])} values for dim {sub.dim}"
                )
    if model.bound_constant is not None:
        bound = tightest_bound(model)
        if bound > model.bound_constant:
            raise SchemaError(
                f"BoundExceeded at -: tightest bound {bound} "
                f"exceeds declared constant {model.bound_constant}"
            )
    for claim in model.claims:
        for atom in tree.leaves:
            if atom not in claim.payoff:
                raise MissingNodeValue(f"MissingNodeValue at claim {claim.label}/{atom}: payoff missing")


def tightest_bound(model: MarketModel) -> Num:
    """The tightest K of a valid model: the largest numeraire value and
    deflated asset magnitude |S^i / S^0| over every submarket and node."""
    return max(
        value
        for sub in model.submarkets
        for node_id in model.tree.nodes
        for value in (
            sub.numeraire[node_id],
            *(abs(v) / sub.numeraire[node_id] for v in sub.assets[node_id]),
        )
    )


def discounted_prices(model: MarketModel, label: str) -> dict[str, tuple[Num, ...]]:
    """Asset values deflated by the submarket's own numeraire, node by node."""
    return model._memoized(("discounted_prices", label), lambda: _discounted_prices(model, label))


def _discounted_prices(model: MarketModel, label: str) -> dict[str, tuple[Num, ...]]:
    sub = model.submarket(label)
    return {
        node_id: tuple(v / sub.numeraire[node_id] for v in sub.assets[node_id])
        for node_id in model.tree.nodes
    }


# --- document ingestion ----------------------------------------------------
#
# Schema (see README for the full description):
#   {"mode": "rational"|"float",                     -- optional
#    "tree": {"branching": [..] | "nodes": [..],
#             "atom_probs": {leaf: value} | [..]},
#    "submarkets": [{"label", "dim", "numeraire": {node: v},
#                    "assets": {node: [v, ..]}}, ..],
#    "bound_constant": v,                            -- optional
#    "rate_structure": {...}, "zc_quotes": {...},    -- optional (multicurve)
#    "claims": [{"label", "payoff": {atom: v}}, ..]} -- optional
#
# Numbers given as strings ("3/4", "0.75") or ints are exact; JSON floats
# switch the document to float mode unless "mode" overrides.


_MAX_DEPTH = 100  # no section of the schema nests more than a few levels


def walk_document(document) -> bool:
    """Does any value of the document hold a JSON float?  Walks every value
    without recursion; nesting deeper than `_MAX_DEPTH` raises SchemaError.
    `load_market` walks a document only to infer its mode."""
    found = False
    stack = [(document, 0)]
    while stack:
        obj, depth = stack.pop()
        if isinstance(obj, Mapping):
            obj = obj.values()
        elif not isinstance(obj, (list, tuple)):
            found = found or isinstance(obj, float)
            continue
        if depth == _MAX_DEPTH:
            raise SchemaError(f"document nested deeper than {_MAX_DEPTH} levels")
        stack += [(v, depth + 1) for v in obj]
    return found


def load_market(document: Mapping) -> MarketModel:
    """Parse and validate a market-spec document (already JSON-decoded)."""
    if not isinstance(document, Mapping):
        raise SchemaError("document must be a mapping")
    mode = document.get("mode")
    if mode not in (None, "rational", "float"):
        raise SchemaError(f"unknown mode {mode!r}")
    exact = (mode != "float") if mode else not walk_document(document)

    tree_spec = document.get("tree")
    if not isinstance(tree_spec, Mapping):
        raise SchemaError("document lacks a 'tree' section")
    if "branching" in tree_spec:
        shape = tree_spec["branching"]
    elif "nodes" in tree_spec:
        shape = tree_spec["nodes"]
    else:
        raise SchemaError("tree section needs 'branching' or 'nodes'")
    if not isinstance(shape, Sequence) or isinstance(shape, str):
        raise SchemaError(f"tree shape must be a list, got {shape!r}")
    if "atom_probs" not in tree_spec:
        raise SchemaError("tree section lacks 'atom_probs'")
    tree = build_tree(shape, tree_spec["atom_probs"], exact=exact)

    subs_spec = document.get("submarkets")
    if not isinstance(subs_spec, Sequence) or not subs_spec:
        raise SchemaError("document needs a non-empty 'submarkets' list")

    rates = None
    if document.get("rate_structure") is not None:
        # lazy import: multicurve builds on this module
        from .multicurve import RateStructure, numeraire_from_rates

        rates = RateStructure.from_document(tree, document["rate_structure"], exact)
    submarkets = []
    for entry in subs_spec:
        if not isinstance(entry, Mapping):
            raise SchemaError(f"submarket entry {entry!r} is not a mapping")
        label = entry.get("label")
        if not label:
            raise SchemaError("submarket without label")
        if not isinstance(label, str):
            raise SchemaError(f"submarket label {label!r} is not a string")
        dim = entry.get("dim", 1)
        if not isinstance(dim, int):
            raise SchemaError(f"submarket {label!r} has a non-integer dim {dim!r}")
        assets_raw = entry.get("assets")
        if not isinstance(assets_raw, Mapping):
            raise SchemaError(f"submarket {label!r} lacks an 'assets' map")
        assets = {}
        for node_id, values in assets_raw.items():
            if not isinstance(values, Sequence) or isinstance(values, str):
                raise SchemaError(f"asset values at {label}/{node_id} must be a list")
            assets[node_id] = tuple(parse_scalar(v, exact) for v in values)
        numeraire_raw = entry.get("numeraire")
        if isinstance(numeraire_raw, Mapping):
            numeraire = {
                node_id: parse_scalar(v, exact) for node_id, v in numeraire_raw.items()
            }
        elif numeraire_raw is None and rates is not None:
            if label not in rates.spreads:
                raise SchemaError(f"rate_structure lacks a spread entry for {label!r}")
            numeraire = numeraire_from_rates(tree, rates, label)
        else:
            raise SchemaError(f"submarket {label!r} lacks a 'numeraire' map")
        submarkets.append(Submarket(label=label, dim=dim, assets=assets, numeraire=numeraire))

    bound = document.get("bound_constant")
    bound_c = parse_scalar(bound, exact) if bound is not None else None
    claims_spec = document.get("claims", ())
    if not isinstance(claims_spec, Sequence) or isinstance(claims_spec, str):
        raise SchemaError(f"'claims' must be a list, got {claims_spec!r}")
    claims = []
    for c in claims_spec:
        if not (isinstance(c, Mapping) and "label" in c and isinstance(c.get("payoff"), Mapping)):
            raise SchemaError(f"claim {c!r} needs a 'label' and a 'payoff' map")
        if not isinstance(c["label"], str):
            raise SchemaError(f"claim label {c['label']!r} is not a string")
        claims.append(
            Claim(
                label=c["label"],
                payoff={a: parse_scalar(v, exact) for a, v in c["payoff"].items()},
            )
        )
    return make_model(tree, submarkets, bound_constant=bound_c, claims=claims)


def serialize_market(model: MarketModel) -> dict:
    """Canonical document for a model: load(serialize(load(d))) == load(d)."""
    tree = model.tree
    doc: dict = {
        "mode": "rational" if model.exact else "float",
        "tree": {
            "nodes": [
                {"id": n, "parent": tree.nodes[n].parent} for n in tree.nodes
            ],
            "atom_probs": {a: scalar_to_json(tree.atom_probs[a]) for a in tree.leaves},
        },
        "submarkets": [
            {
                "label": sub.label,
                "dim": sub.dim,
                "numeraire": {n: scalar_to_json(sub.numeraire[n]) for n in tree.nodes},
                "assets": {n: [scalar_to_json(v) for v in sub.assets[n]] for n in tree.nodes},
            }
            for sub in model.submarkets
        ],
    }
    if model.bound_constant is not None:
        doc["bound_constant"] = scalar_to_json(model.bound_constant)
    if model.claims:
        doc["claims"] = [
            {"label": c.label, "payoff": {a: scalar_to_json(v) for a, v in c.payoff.items()}}
            for c in model.claims
        ]
    return doc


def scale_submarket(model: MarketModel, label: str, factor: Num) -> MarketModel:
    """Multiply one submarket's assets and numeraire by a common constant."""
    if factor <= 0:
        raise NonPositiveNumeraire(f"scale factor must be positive, got {factor}")
    subs = []
    for sub in model.submarkets:
        if sub.label == label:
            sub = replace(
                sub,
                assets={n: tuple(factor * v for v in vals) for n, vals in sub.assets.items()},
                numeraire={n: factor * v for n, v in sub.numeraire.items()},
            )
        subs.append(sub)
    return replace(model, submarkets=tuple(subs))
