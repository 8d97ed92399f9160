"""Golden outputs: the exact `--format machine` stdout and the exit code of
every CLI command on a fixed corpus, compared byte for byte.

The corpus lives in tests/golden/ and each command runs from that directory
with relative paths, so that the template name and file hash in `analyze`
reports do not depend on where the checkout is.  The expected outputs are
in tests/golden/expected.json; after a deliberate change of output,
rewrite them with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import io
import json
import os
import sys

import pytest

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EXPECTED = os.path.join(GOLDEN, "expected.json")

CASES = [
    "analyze k2.json",
    "analyze k3.json",
    "analyze c5.json --max-arity 2 --duality-n 2",
    "analyze uv.json",
    # arity 3 overruns the budget: the counts section reports the error, and
    # the unary section answers from the binary polymorphisms
    "analyze uv.json --budget 16",
    "analyze k2.json --budget 1",
    "types k2.json",
    "types k3.json",
    "types c5.json",
    "types nae.json",
    "types uv.json --n 3",
    "types p4e.json",
    "duality uv.json",
    "duality k2.json --max-vertices 3 --max-tuples 4",
    "duality k3.json --max-vertices 3 --max-tuples 4",
    # obstructions that tie on (tuples, vertices) are ordered by their
    # canonical keys, which individualization-refinement decides at 4 and
    # more vertices
    "duality k2.json --max-vertices 5 --max-tuples 5",
    "duality nae.json --n-max 2 --max-vertices 3 --max-tuples 2",
    "ppdef k2.json rel_edge.json",
    "ppdef k2.json rel_arc.json",
    "solve k2.json edge.txt",
    "solve k2.json loop.txt",
    "solve k3.json triangle.txt",
    "solve k2.json triangle.txt",
    "solve k2.json disj.txt",
    "solve k2.json loop_or.txt",
    "solve p4e.json disj.txt",
    "solve p4e.json disj.txt --via-p4",
    "rewrite-ep p4e.json disj.txt",
    "horn classify horn_sat.cnf",
    "horn classify horn_unsat.cnf",
    "horn classify horn_implications.cnf",
    "horn classify nonhorn_pair.cnf",
    "horn classify nonhorn_choice.cnf",
    "horn classify nonhorn_unsat.cnf",
    "horn solve horn_sat.cnf",
    "horn solve horn_unsat.cnf",
    "horn solve horn_implications.cnf",
]


def run_case(case: str) -> dict:
    from cspbench.cli import main

    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["--format", "machine"] + case.split())
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue()}


def _expected() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_cases_are_recorded():
    assert sorted(_expected()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_golden_output(case):
    assert run_case(case) == _expected()[case]


if __name__ == "__main__":
    doc = {case: run_case(case) for case in CASES}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
