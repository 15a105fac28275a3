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


def _byte_corpus(*args):
    return subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "byte_corpus.py"), *args],
        capture_output=True,
        text=True,
    )


def test_byte_corpus_prints_one_record_per_call():
    out = _byte_corpus("--seeds", "3")
    assert out.returncode == 0, out.stderr
    records = {tuple(line.split("\t")[:3]): line.split("\t")[3:] for line in out.stdout.splitlines()}
    assert {name for name, _, _ in records} == {"m1", "m2", "cotrade", "seed0", "seed1", "seed2"}
    # exit code, two SHA-256 digests, and the price of a price call that exits 0
    assert all(len(fields) in (3, 4) and len(fields[1]) == len(fields[2]) == 64 for fields in records.values())
    assert records["m1", "rational", "arb"][0] == "3"
    assert records["m2", "float", "verify"][0] == "0"
    assert records["m2", "rational", "price --claim Stau1 --venue global"][3] == "15/4"
    assert ("m2", "rational", "arb --submarket tau2") in records


def test_byte_corpus_compares_against_a_revision():
    if subprocess.run(["git", "-C", SCRIPTS, "rev-parse", "HEAD"], capture_output=True).returncode:
        pytest.skip("not a git checkout")
    out = _byte_corpus("--seeds", "1", "--against", "HEAD")
    assert out.returncode == 0, out.stderr
    summary = out.stdout[out.stdout.index("changed records: "):]
    assert "exact prices moved: " in summary
    assert "float prices moved by more than GAP_TOL * (1 + |p|): " in summary
