"""Seeded mutations of the three fixtures through every CLI command that
reads a document: each run ends in a documented exit code (0, 2, 3 or 4)
and never in an uncaught exception."""

import contextlib
import copy
import io
import json
import os
import random

import pytest

from multimarket.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
DOCUMENTS = 150  # mutated documents per fixture

# what a slot's value may be replaced with, by kind of mutation
REPLACEMENTS = {
    "swap": [None, True, 0, -1, 7, 1.5, "", "x", "1/0", [], {}, ["1"], {"r": "1"}],
    "non-finite": [float("nan"), float("inf"), float("-inf")],
    "huge": [1e308, -1e308, 10**40, "1e400", "-1e400", "1e-400"],
    "number": ["0", "-1", "1e-30", "7/3", 2.5, "1e30"],  # only where a number was
}
SLOT_KINDS = ["drop", *REPLACEMENTS]
# (id, parent) pairs that break the fixtures' two-atom tree
TOPOLOGY = [
    [("a", "b"), ("b", "a")],  # a parent cycle
    [("a", "a")],  # a self-parent
    [("o", "nowhere")],  # an orphan
    [("r.0.0", "r.0")],  # leaves at mixed depth
    [("r.0", "r")],  # a duplicate id
    [("s", None)],  # a second root
]


def _slots(doc):
    """Every (container, key) pair of the document, in a fixed order."""
    slots, stack = [], [doc]
    while stack:
        obj = stack.pop()
        if isinstance(obj, dict):
            items = list(obj.items())
        elif isinstance(obj, list):
            items = list(enumerate(obj))
        else:
            continue
        for key, value in items:
            slots.append((obj, key))
            stack.append(value)
    return slots


def _mutated(fixture, rng):
    """The fixture with its tree's shape broken or one slot dropped or
    replaced, then up to two more slots dropped or replaced."""
    doc = copy.deepcopy(fixture)
    kind = rng.choice([*SLOT_KINDS, "topology", "branching"])
    if kind == "topology":
        pairs = [("r", None), ("r.0", "r"), ("r.1", "r"), *rng.choice(TOPOLOGY)]
        doc["tree"]["nodes"] = [{"id": n, "parent": p} for n, p in pairs]
        del doc["tree"]["branching"]
    elif kind == "branching":
        doc["tree"]["branching"] = rng.choice([[10**12], [2, 10**12], [3]])
    kinds = [] if kind in ("topology", "branching") else [kind]
    for kind in kinds + rng.choices(SLOT_KINDS, k=rng.randint(0, 2)):
        slots = _slots(doc)
        if kind == "number":
            slots = [(c, k) for c, k in slots if isinstance(c[k], str) and c[k][:1].isdigit()]
        if not slots:
            continue
        container, key = rng.choice(slots)
        if kind == "drop":
            del container[key]
        else:
            container[key] = rng.choice(REPLACEMENTS[kind])
    return doc


def _commands(path, label, claim):
    return [
        ["validate", path],
        ["arb", path],
        ["arb", path, "--submarket", label],
        ["deflator", path],
        ["verify", path],
        ["demo", "cotrade", path],
        ["price", path, "--claim", claim],
        ["price", path, "--claim", claim, "--venue", "lower", "--mode", "float"],
        ["price", path, "--claim", claim, "--venue", "upper", "--mode", "rational"],
        ["price", path, "--claim", claim, "--venue", f"submarket:{label}"],
    ]


@pytest.mark.parametrize("name", ["m1", "m2", "cotrade"])
def test_mutated_fixture_exits_with_a_documented_code(tmp_path, name):
    with open(os.path.join(FIXTURES, f"{name}.json")) as handle:
        fixture = json.load(handle)
    fixture.setdefault("claims", [{"label": "H", "payoff": {"r.0": "2", "r.1": "1"}}])
    label, claim = fixture["submarkets"][0]["label"], fixture["claims"][0]["label"]
    rng = random.Random(f"fuzz-{name}")
    path = str(tmp_path / "mutated.json")
    codes = set()
    for _ in range(DOCUMENTS):
        doc = _mutated(fixture, rng)
        with open(path, "w") as handle:
            json.dump(doc, handle)
        for argv in _commands(path, label, claim):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in (0, 2, 3, 4), (argv, json.dumps(doc))
            codes.add(code)
    # the mutations reach both the error surface and the full computation
    assert {0, 2} <= codes
