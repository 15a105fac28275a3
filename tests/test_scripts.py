import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


@pytest.mark.parametrize(
    "flags, script, args",
    [
        # -O strips asserts: the survey's checks must fail without them
        (["-O"], "random_survey.py", ["--models", "10", "--claims", "1"]),
        ([], "desk_walkthrough.py", []),
        ([], "tenor_spreads.py", ["--seed", "3"]),
    ],
)
def test_script_runs_clean(flags, script, args):
    out = subprocess.run(
        [sys.executable, *flags, os.path.join(SCRIPTS, script), *args],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
