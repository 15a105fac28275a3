"""Per-record byte account of the command-line interface over a fixed corpus.

The corpus: the three fixtures and `random_model(seed)` for seeds 0 to 119,
each random model with the claim `random_claim(random.Random(seed), model)`
labelled H, every document in rational and in float mode.  On each it runs
`multimarket.cli.main` in-process: `verify`, `arb`, `arb --submarket L` for
every submarket L, `deflator`, and `price --claim C --venue V` for every
claim C at every venue V (global, lower, upper, submarket:L).  It prints one
tab-separated line per call: document, mode, command, exit code, the SHA-256
of stdout and of stderr, and for a price call that exits 0 the price it
printed.

`--against REV` writes the corpus once, with this checkout's generator, runs
it on a temporary `git archive` of REV's `src/` and on this checkout's, and
lists the records that changed.  A changed price record says whether the
price moved or only the rest of the report (hedge, allocation, witness).  A
summary follows: changed records per command, exit-code changes, moved exact
prices, and float prices that moved by more than GAP_TOL * (1 + |p|).

Run:  python scripts/byte_corpus.py [--seeds 120]
      python scripts/byte_corpus.py --against REV
"""

import argparse
import hashlib
import io
import json
import multiprocessing
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FIXTURES = ("m1", "m2", "cotrade")
MODES = ("rational", "float")


def corpus(seeds):
    """[(name, document)] in corpus order, from the imported generator."""
    from multimarket.generate import random_claim, random_model
    from multimarket.market import serialize_market

    documents = []
    for name in FIXTURES:
        with open(os.path.join(ROOT, "fixtures", f"{name}.json")) as handle:
            documents.append((name, json.load(handle)))
    for seed in range(seeds):
        model = random_model(seed)
        claim = random_claim(random.Random(seed), model)
        document = serialize_market(model)
        document["claims"] = [{"label": "H", "payoff": {a: str(v) for a, v in claim.items()}}]
        documents.append((f"seed{seed}", document))
    return documents


def commands(document):
    labels = [s["label"] for s in document["submarkets"]]
    yield ["verify"]
    yield ["arb"]
    for label in labels:
        yield ["arb", "--submarket", label]
    yield ["deflator"]
    venues = ["global", "lower", "upper"] + [f"submarket:{label}" for label in labels]
    for claim in document.get("claims", []):
        for venue in venues:
            yield ["price", "--claim", claim["label"], "--venue", venue]


def call(main, argv):
    """Exit code, stdout and stderr of one in-process CLI call.  An error the
    CLI lets escape ends a real run in a traceback and exit 1; it is recorded
    as exit 1 with its type and message on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = 1
            err.write(f"{type(exc).__name__}: {exc}\n")
    return code, out.getvalue(), err.getvalue()


def records(documents):
    """The record lines of the corpus, run on the `multimarket` that
    imports first from sys.path."""
    from multimarket.cli import main

    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        spec = os.path.join(scratch, "document.json")
        for name, document in documents:
            for mode in MODES:
                with open(spec, "w") as handle:
                    json.dump({**document, "mode": mode}, handle)
                for argv in commands(document):
                    code, out, err = call(main, [argv[0], spec, *argv[1:]])
                    fields = [name, mode, " ".join(argv), str(code), _sha(out), _sha(err)]
                    if argv[0] == "price" and code == 0:
                        fields.append(str(json.loads(out)["price"]))
                    lines.append("\t".join(fields))
    return lines


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _kind(command):
    """The command as counted in the summary: its verb, `arb --submarket`,
    or `price` with its venue kind."""
    words = command.split()
    if words[0] == "price":
        return "price " + words[-1].split(":")[0]
    return " ".join(words[:2]) if words[1:2] == ["--submarket"] else words[0]


def _side(src, documents):
    """`records` on the package under ``src``, in a fresh interpreter."""
    sys.path.insert(0, src)
    return records(documents)


def _parse(lines):
    return {tuple(line.split("\t")[:3]): line.split("\t")[3:] for line in lines}


def against(rev, seeds):
    """Print the records of the corpus that differ between REV and this
    checkout, then the summary; returns the exit code."""
    from multimarket.numbers import GAP_TOL

    documents = corpus(seeds)
    with tempfile.TemporaryDirectory() as scratch:
        archive = subprocess.run(["git", "-C", ROOT, "archive", rev, "src"], capture_output=True, check=True)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(scratch, filter="data")
        # each side imports its own `multimarket`, so each runs in a fresh
        # spawned process that takes no other task
        with multiprocessing.get_context("spawn").Pool(2, maxtasksperchild=1) as pool:
            sides = pool.starmap(_side, [(os.path.join(scratch, "src"), documents), (SRC, documents)])
    old, new = (_parse(lines) for lines in sides)
    changed, exits = Counter(), Counter()
    exact_moved = float_moved = 0
    for key, before in old.items():
        after = new[key]
        if before == after:
            continue
        name, mode, command = key
        changed[_kind(command)] += 1
        notes = []
        if before[0] != after[0]:
            exits[f"{before[0]} -> {after[0]}"] += 1
            notes.append(f"exit {before[0]} -> {after[0]}")
        elif command.startswith("price") and before[0] == "0":
            p, q = before[3], after[3]
            if p == q:
                notes.append("price unchanged, hedge or witness moved")
            elif mode == "rational":
                exact_moved += 1
                notes.append(f"exact price moved {p} -> {q}")
            else:
                drift = abs(float(q) - float(p)) / (1 + abs(float(p)))
                float_moved += drift > GAP_TOL
                notes.append(f"float price moved {p} -> {q}, {drift:.1e} of 1 + |p|")
        else:
            notes.append("stdout changed" if before[1] != after[1] else "stderr changed")
        print("\t".join([name, mode, command, "; ".join(notes)]))
    total = sum(changed.values())
    print(f"changed records: {total} of {len(old)}")
    for kind, count in sorted(changed.items()):
        print(f"  {kind}: {count}")
    for change, count in sorted(exits.items()):
        print(f"  exit {change}: {count}")
    print(f"exact prices moved: {exact_moved}")
    print(f"float prices moved by more than GAP_TOL * (1 + |p|): {float_moved}")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=120, help="random models, seeds 0 to N - 1")
    parser.add_argument("--against", metavar="REV", help="list the records that differ from REV's")
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    if args.against:
        return against(args.against, args.seeds)
    for line in records(corpus(args.seeds)):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
