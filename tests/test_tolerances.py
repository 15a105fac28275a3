import glob
import io
import os
import re
import tokenize

from multimarket import numbers

PACKAGE = os.path.join(os.path.dirname(__file__), "..", "src", "multimarket")
# numbers.py holds the tolerance table; oracle.py keeps its own literals
# because it is the independent reference
OWNERS = {"numbers.py", "oracle.py"}


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
