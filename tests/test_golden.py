"""Golden outputs: the exact stdout and the exit code of every CLI command
on a fixed corpus, compared byte for byte.  Each case runs under
`--format machine` unless it starts with `--format text` (argparse keeps
the last `--format`), which pins the text report of `analyze`.

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
from fractions import Fraction

import pytest

from cspbench import (
    FiniteStructure,
    Homomorphism,
    Obstruction,
    OperationTable,
    check_mix_preservation,
    operation_preserves,
    parse_cnf,
)
from cspbench.formulas import parse_sentence
from cspbench.galois import PpDefinabilityCertificate, Relation
from cspbench.structures import one_tolerant_power

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
    # the text report, byte for byte: argparse keeps the last --format
    "--format text analyze k2.json",
    "--format text analyze k3.json",
    "--format text analyze c5.json --max-arity 2 --duality-n 2",
    "--format text analyze uv.json",
    "--format text analyze uv.json --budget 16",
    "--format text analyze k2.json --budget 1",
    # templates without a 1-tolerant polymorphism: the fo section only
    # decides, and runs no obstruction sweep
    "analyze nae.json --duality-n 2",
    "analyze p4e.json --max-arity 2 --duality-n 2",
    "--format text analyze nae.json --duality-n 2",
    "--format text analyze p4e.json --max-arity 2 --duality-n 2",
    "types k2.json",
    "types k3.json",
    "types c5.json",
    "types nae.json",
    "types uv.json --n 3",
    "types p4e.json",
    "duality uv.json",
    # default flags: the verdict alone, with no obstruction listing
    "duality nae.json",
    "duality p4e.json",
    "duality k2.json --max-vertices 3 --max-tuples 4",
    "duality k3.json --max-vertices 3 --max-tuples 4",
    # obstructions that tie on (tuples, vertices) are ordered by their
    # canonical keys, which individualization-refinement decides at 4 and
    # more vertices
    "duality k2.json --max-vertices 5 --max-tuples 5",
    "duality nae.json --n-max 2 --max-vertices 3 --max-tuples 2",
    # sweeps over templates with nontrivial automorphisms, whose frontier
    # classes are symmetric too: K2 to six tuples, K2 with U = {1}, which
    # breaks its swap, and NAE to three tuples
    "duality k2.json --max-vertices 6 --max-tuples 6",
    "duality k2u.json --n-max 2 --max-vertices 4 --max-tuples 6",
    "duality nae.json --n-max 2 --max-vertices 3 --max-tuples 3",
    "ppdef k2.json rel_edge.json",
    "ppdef k2.json rel_arc.json",
    # relations whose indicator powers (3**6, 5**20 elements) are far over
    # the cap, decided from generating subsets of one and two tuples
    "ppdef k3.json rel_ne3.json",
    "ppdef c5.json rel_ne5.json",
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


def _read(name: str) -> str:
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return fh.read()


def _check_structure_certificates(a, doc: dict) -> set:
    """Re-verify the certificates of one analyze or duality report on the
    template a; returns the kinds checked."""
    kinds = set()
    obstructions = list(doc.get("obstructions", []))
    fo = doc.get("fo_definability", {})
    obstructions += fo.get("obstructions", [])
    for o in obstructions:
        s = FiniteStructure.from_json_dict(o)
        assert Obstruction(s, s.total_tuples()).verify(a)
        kinds.add("obstruction")
    polymorphisms = [doc.get("essentially_unary", {}).get("certificate", {}).get("operation"),
                     fo.get("polymorphism")]
    for table in filter(None, polymorphisms):
        assert operation_preserves(OperationTable.from_json_dict(table), a)
        kinds.add("polymorphism")
    if "polymorphism" in fo:
        f = OperationTable.from_json_dict(fo["polymorphism"])
        assert Homomorphism(one_tolerant_power(a, f.k), a, f.values).verify()
    endo = doc.get("core", {}).get("certificate", {}).get("non_embedding_endomorphism")
    if endo is not None:
        h = Homomorphism(a, a, tuple(endo))
        assert h.verify() and len(set(h.map)) < a.n  # not injective, so not an embedding
        kinds.add("endomorphism")
    return kinds


def test_golden_certificates_verify():
    """Every certificate in the golden outputs passes the library's own
    checkers: obstructions, polymorphisms (the 1-tolerant one also as a
    homomorphism from the one-tolerant power), non-embedding
    endomorphisms, pp-definability certificates and Horn witness pairs."""
    kinds = set()
    for case, result in _expected().items():
        args = case.split()
        if result["exit"] == 2 or args[0] not in ("analyze", "duality", "ppdef", "horn"):
            continue
        doc = json.loads(result["stdout"])
        if args[0] in ("analyze", "duality"):
            kinds |= _check_structure_certificates(FiniteStructure.from_json(_read(args[1])), doc)
        elif args[0] == "ppdef":
            a = FiniteStructure.from_json(_read(args[1]))
            rel = json.loads(_read(args[2]))
            r = Relation(rel["arity"], rel["tuples"])
            if doc["definable"]:
                cert = PpDefinabilityCertificate(True, formula=parse_sentence(doc["formula"]))
            else:
                cert = PpDefinabilityCertificate(
                    False, violating_operation=OperationTable.from_json_dict(doc["violating_operation"]),
                    input_rows=tuple(map(tuple, doc["input_rows"])),
                    violating_tuple=tuple(doc["violating_tuple"]))
            assert cert.verify(a, r)
            kinds.add("ppdef")
        elif args[:2] == ["horn", "classify"] and not doc["horn"]:
            f = parse_cnf(_read(args[2]))
            irreducible = parse_cnf(doc["irreducible"])
            p, q = ({v: Fraction(x) for v, x in point.items()} for point in doc["witness_pair"])
            assert f.holds(p) and f.holds(q)
            assert not check_mix_preservation(irreducible, p, q)
            (clause,) = parse_cnf(doc["violating_clause"]).clauses
            r1, r2 = [lit for lit in clause if lit.is_eq][:2]
            assert (r1.holds(p), r2.holds(p), r1.holds(q), r2.holds(q)) == (True, False, False, True)
            kinds.add("horn")
    # no golden template is a non-core, so no report carries an endomorphism
    assert kinds == {"obstruction", "polymorphism", "ppdef", "horn"}


if __name__ == "__main__":
    doc = {case: run_case(case) for case in CASES}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
