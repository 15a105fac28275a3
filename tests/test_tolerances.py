import ast
import glob
import io
import os
import re
import tokenize

from multimarket import numbers

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "multimarket")
# numbers.py holds the tolerance table
OWNERS = {"numbers.py"}
TOLERANCE_NAMES = {"FEAS_TOL", "MEMBER_TOL", "GAP_TOL", "ZERO_TOL"}


def test_float_tolerances_are_the_documented_table():
    assert (numbers.FEAS_TOL, numbers.MEMBER_TOL, numbers.GAP_TOL, numbers.ZERO_TOL) == (
        1e-9,
        1e-8,
        1e-7,
        1e-12,
    )


def test_no_tolerance_literal_outside_the_table():
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        if os.path.basename(path) in OWNERS:
            continue
        with open(path, encoding="utf-8") as handle:
            tokens = tokenize.generate_tokens(io.StringIO(handle.read()).readline)
            for tok in tokens:
                if tok.type == tokenize.NUMBER and re.search(r"[eE]-", tok.string):
                    found.append(f"{os.path.basename(path)}:{tok.start[0]}: {tok.string}")
    assert not found, found


def test_rational_row_is_all_zero_and_float_row_is_the_table():
    assert numbers.tolerances(True) == (0, 0, 0, 0)
    assert numbers.tolerances(False) == (
        numbers.FEAS_TOL,
        numbers.MEMBER_TOL,
        numbers.GAP_TOL,
        numbers.ZERO_TOL,
    )


def _number(node):
    # the value of a number, a Fraction of one or a tuple of them, else None
    if isinstance(node, ast.Tuple):
        values = tuple(_number(e) for e in node.elts)
        return None if None in values else values
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Fraction" and len(node.args) == 1:
        node = node.args[0]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _number(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    return None


def _mentions_exact(node):
    names = (getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(node))
    return "exact" in names


def test_no_module_picks_a_tolerance_outside_the_table():
    # no module names a float tolerance, and none decides by mode between
    # two comparisons or between a number and anything but the same number:
    # `tolerances(exact)` does both.  Picking the type of the mode's zero
    # (`0 if exact else 0.0`) is fine.
    found = []
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        name = os.path.basename(path)
        if name in OWNERS:
            continue
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            where = f"{name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Name) and node.id in TOLERANCE_NAMES:
                found.append(f"{where}: {node.id}")
            elif isinstance(node, ast.alias) and node.name in TOLERANCE_NAMES:
                found.append(f"{where}: imports {node.name}")
            elif isinstance(node, ast.IfExp) and _mentions_exact(node.test):
                branches = (node.body, node.orelse)
                comparisons = any(isinstance(b, (ast.Compare, ast.BoolOp)) for b in branches)
                if comparisons or _number(node.body) != _number(node.orelse):
                    found.append(f"{where}: {ast.unparse(node)}")
    assert not found, found
