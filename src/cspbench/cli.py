"""Command-line surface tying the analyses together.

Commands: analyze, solve, ppdef, types, duality, horn (classify|solve),
rewrite-ep.  Every command accepts --format text|machine; machine output
is JSON on stdout.  Exit codes:

    analyze / types / duality / rewrite-ep:  0 ok, 2 error
    solve:          0 satisfied, 1 unsatisfied, 2 error
    ppdef:          0 definable, 1 not definable, 2 error
    horn classify:  0 Horn, 1 non-Horn, 2 error
    horn solve:     0 satisfiable, 1 unsatisfiable, 2 error

Exit 1 is only ever a negative verdict: an input error prints "error: ..."
and an unexpected exception prints "internal error: <type>: <message>" on
stderr, and both exit 2.

All pipelines are deterministic, so a verdict is reproducible bit for bit
from the same input files and flags.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from types import SimpleNamespace

from . import clones, duality, formulas, galois, linear_horn
from .structures import BudgetExceededError, DEFAULT_BUDGET, FiniteStructure


# The sections of an analyze report, in report order: (machine key, text
# title).  Section k is computed by _section_k(inputs, report), which may
# read the sections before it in report.
ANALYZE_SECTIONS = [
    ("core", "core"),
    ("epc", "epc (finite)"),
    ("polymorphism_counts", "polymorphism counts"),
    ("essentially_unary", "essentially unary"),
    ("local_refutability", "locally refutable"),
    ("np_hardness", "NP-hardness flag"),
    ("pp_type_counts", "maximal pp-type counts"),
    ("fo_definability", "fo-definability"),
]


def _verdict_line(doc: dict) -> str:
    if "error" in doc:
        return f"error: {doc['error']}"
    parts = []
    if "verdict" in doc:
        parts.append(str(doc["verdict"]))
    for key in ("note", "bound", "certificate", "sentence"):
        if key in doc and doc[key] is not None:
            parts.append(f"{key}={doc[key]}")
    return "; ".join(parts) if parts else json.dumps(doc)


def _load_structure(path: str) -> FiniteStructure:
    return FiniteStructure.from_json_dict(_read_json(path))


def _file_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_json(path: str):
    """The JSON document in a file; nesting too deep to decode is an input error."""
    try:
        return json.loads(_read_text(path))
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to decode") from None


def _section(fn, *args):
    """Run one analysis section, surfacing budget overruns as data."""
    try:
        return fn(*args)
    except BudgetExceededError as exc:
        return {"error": f"budget exceeded: {exc}"}


def _once(compute):
    """compute(key), run once per key: later calls return the same result,
    or raise the same BudgetExceededError, without computing again."""
    results = {}

    def get(key):
        if key not in results:
            try:
                results[key] = (compute(key), None)
            except BudgetExceededError as exc:
                results[key] = (None, exc)
        value, exc = results[key]
        if exc is not None:
            raise exc
        return value

    return get


# A finite template is its own omega-categorical equivalent.
_OMEGA_CATEGORICAL = "yes (finite)"


def _analyze(a: FiniteStructure, path: str, max_arity: int, types_n: int,
             duality_n: int, budget: int) -> dict:
    """The analyze report of a as a dict: the template's name and file hash,
    then each section of ANALYZE_SECTIONS, computed in report order."""
    # Each polymorphism set is enumerated once and shared by the sections
    # that read it; a section still fails on its own when an arity it asks
    # for overran the budget.  End(A) is the arity-1 set: power(a, 1) has
    # exactly a's tuples and constants.
    polymorphisms = _once(lambda k: clones.enumerate_polymorphisms(a, k, budget=budget))
    inputs = SimpleNamespace(a=a, max_arity=max_arity, types_n=types_n, duality_n=duality_n,
                             budget=budget, polymorphisms=polymorphisms)
    report = {"template_name": path, "file_hash": _file_hash(path)}
    for key, _ in ANALYZE_SECTIONS:
        report[key] = _section(globals()["_section_" + key], inputs, report)
    return report


def _section_core(inputs, report):
    # a core iff every endomorphism is injective (see clones.is_core)
    cert = next((f for f in inputs.polymorphisms(1) if len(set(f.values)) < inputs.a.n), None)
    doc = {"verdict": cert is None}
    if cert is not None:
        doc["certificate"] = {"non_embedding_endomorphism": list(cert.values)}
    return doc


def _section_epc(inputs, report):
    if "error" in report["core"]:
        return {"error": report["core"]["error"]}
    return {"verdict": report["core"]["verdict"],
            "note": "epc coincides with core on finite structures"}


def _section_polymorphism_counts(inputs, report):
    return {"counts": {str(k): len(inputs.polymorphisms(k))
                       for k in range(1, inputs.max_arity + 1)}}


def _section_essentially_unary(inputs, report):
    v = clones.essential_unarity_verdict(inputs.polymorphisms, inputs.max_arity)
    doc = {"verdict": v.all_essentially_unary, "bound": v.max_arity,
           "note": "bounded evidence, not a proof"}
    if v.counterexample is not None:
        doc["certificate"] = {
            "operation": v.counterexample.to_json_dict(),
            "essential_coordinate_sets": [list(v.witness.x_coords), list(v.witness.y_coords)],
        }
    return doc


def _section_local_refutability(inputs, report):
    verdict, cert = formulas.is_locally_refutable(inputs.a)
    return {"verdict": verdict, "certificate": cert if verdict else formulas.render(cert)}


def _section_np_hardness(inputs, report):
    local, unary = report["local_refutability"], report["essentially_unary"]
    if "error" in local or "error" in unary:
        raise BudgetExceededError("depends on a section that exceeded its budget")
    return {"verdict": (not local["verdict"]) and unary["verdict"],
            "note": ("bounded evidence, not a proof: requires essential unarity of "
                     "all polymorphisms of all elementary extensions; checked up to "
                     f"arity {inputs.max_arity} on the template only")}


def _section_pp_type_counts(inputs, report):
    reports = [galois.count_maximal_pp_types(inputs.a, n, budget=inputs.budget)
               for n in range(1, inputs.types_n + 1)]
    return {"counts": {str(r.arity): r.count for r in reports},
            "verdict": _OMEGA_CATEGORICAL}


def _section_fo_definability(inputs, report):
    rep = duality.fo_definability_report(inputs.a, n_max=inputs.duality_n, budget=inputs.budget)
    doc = {"verdict": rep.verdict}
    if rep.fo_definable:
        doc["sentence"] = rep.universal_sentence
        doc["polymorphism"] = rep.polymorphism.to_json_dict()
        doc["obstructions"] = [o.structure.to_json_dict() for o in rep.obstructions]
    return doc


def _render_analysis(report: dict) -> str:
    lines = [f"template {report['template_name']}  (sha256 {report['file_hash'][:16]}...)"]
    for key, title in ANALYZE_SECTIONS:
        doc = report[key]
        # a count section prints its counts, or its error as the whole dict
        body = doc.get("counts", doc) if key.endswith("_counts") else _verdict_line(doc)
        lines.append(f"  {title}: {body}")
    return "\n".join(lines)


def _emit(args, text_fn, machine_doc) -> None:
    if args.format == "machine":
        print(json.dumps(machine_doc, indent=2, sort_keys=True))
    else:
        print(text_fn())


def _cmd_analyze(args) -> int:
    a = _load_structure(args.structure)
    report = _analyze(a, args.structure, args.max_arity, args.types_n,
                      args.duality_n, args.budget)
    _emit(args, lambda: _render_analysis(report), report)
    return 0


def _cmd_solve(args) -> int:
    a = _load_structure(args.structure)
    phi = formulas.parse_sentence(_read_text(args.sentence))
    if args.via_p4:
        phi = formulas.eliminate_disjunctions(phi, "P4", template=a, budget=args.budget)
    free = sorted(formulas.free_variables(phi, a.sig))
    if free:
        raise formulas.FormulaError(f"sentence has free variables: {free}")
    witness = formulas.witness_assignment(a, phi, budget=args.budget)
    sat = witness is not None
    _emit(args,
          lambda: ("satisfied" if sat else "unsatisfied")
          + (f"  witness: {json.dumps(witness, sort_keys=True)}" if witness else ""),
          {"satisfied": sat, "witness": witness})
    return 0 if sat else 1


def _cmd_ppdef(args) -> int:
    a = _load_structure(args.structure)
    doc = _read_json(args.relation)
    if not isinstance(doc, dict) or set(doc) != {"arity", "tuples"}:
        raise ValueError('relation document needs exactly the fields "arity" and "tuples"')
    tuples = doc["tuples"]
    if not isinstance(tuples, list) or not all(isinstance(t, list) for t in tuples):
        raise ValueError('"tuples" must be a list of lists')
    r = galois.Relation(doc["arity"], tuples)
    verdict, cert = galois.is_pp_definable(a, r, budget=args.budget)
    machine = {"definable": verdict}
    if verdict:
        machine["formula"] = formulas.render(cert.formula)
    else:
        machine["violating_operation"] = cert.violating_operation.to_json_dict()
        machine["input_rows"] = [list(t) for t in cert.input_rows]
        machine["violating_tuple"] = list(cert.violating_tuple)
    _emit(args,
          lambda: (f"pp-definable: {formulas.render(cert.formula)}" if verdict else
                   f"not pp-definable: polymorphism {cert.violating_operation.values} maps "
                   f"rows {cert.input_rows} to {cert.violating_tuple}"),
          machine)
    return 0 if verdict else 1


def _cmd_types(args) -> int:
    a = _load_structure(args.structure)
    reports = [galois.count_maximal_pp_types(a, n, budget=args.budget)
               for n in range(1, args.n + 1)]
    counts = [r.count for r in reports]
    machine = {
        "counts": counts,
        "verdict": _OMEGA_CATEGORICAL,
        "reports": [
            {"arity": r.arity,
             "classes": [[list(t) for t in cls] for cls in r.classes],
             "maximal": r.maximal,
             "count": r.count}
            for r in reports
        ],
    }
    _emit(args,
          lambda: "\n".join([f"maximal pp-{n + 1}-types: {c}" for n, c in enumerate(counts)]
                            + [f"omega-categorical equivalent: {_OMEGA_CATEGORICAL}"]),
          machine)
    return 0


def _cmd_duality(args) -> int:
    listing = args.max_vertices is not None
    if listing != (args.max_tuples is not None):
        raise ValueError("--max-vertices and --max-tuples must be given together")
    a = _load_structure(args.structure)
    rep = duality.fo_definability_report(a, n_max=args.n_max, budget=args.budget)
    obstructions = rep.obstructions
    if not rep.fo_definable and listing:  # list the bounded evidence
        obstructions = duality.critical_obstructions(a, args.max_vertices, args.max_tuples,
                                                     budget=args.budget)
    if args.export:
        import os

        os.makedirs(args.export, exist_ok=True)
        manifest = {"template": args.structure, "template_hash": _file_hash(args.structure),
                    "verdict": rep.verdict, "obstructions": []}
        for i, obs in enumerate(obstructions):
            fname = f"obstruction_{i:03d}.json"
            with open(os.path.join(args.export, fname), "w", encoding="utf-8") as fh:
                fh.write(obs.structure.to_json())
            manifest["obstructions"].append(
                {"file": fname, "hyperedges": obs.hyperedges, "critical": True})
        with open(os.path.join(args.export, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)

    def text():
        lines = [rep.verdict]
        if rep.universal_sentence:
            lines.append(f"universal sentence: {rep.universal_sentence}")
        for obs in obstructions:
            lines.append(f"  obstruction ({obs.hyperedges} tuples): {obs.structure.to_json_dict()}")
        return "\n".join(lines)

    machine = {
        "verdict": rep.verdict,
        "fo_definable": rep.fo_definable,
        "polymorphism_arity": rep.polymorphism_arity,
        "universal_sentence": rep.universal_sentence,
        "obstructions": [o.structure.to_json_dict() for o in obstructions],
    }
    _emit(args, text, machine)
    return 0


def _point_doc(point) -> dict:
    return {v: str(c) for v, c in sorted(point.items())}


def _cmd_horn(args) -> int:
    f = linear_horn.parse_cnf(_read_text(args.cnf))
    if args.action == "classify":
        verdict = linear_horn.classify_horn(f, budget=args.budget)
        machine = {"horn": verdict.is_horn, "complexity": verdict.complexity,
                   "irreducible": verdict.irreducible.render()}
        if not verdict.is_horn:
            machine["violating_clause"] = " | ".join(l.render() for l in verdict.violating_clause)
            machine["witness_pair"] = [_point_doc(p) for p in verdict.witness_pair]
        _emit(args, lambda: f"{'Horn' if verdict.is_horn else 'non-Horn'}: {verdict.complexity}",
              machine)
        return 0 if verdict.is_horn else 1
    sat, point = linear_horn.horn_solve(f)
    _emit(args,
          lambda: "satisfiable" + (f"  point: {_point_doc(point)}" if point else "")
          if sat else "unsatisfiable",
          {"satisfiable": sat, "point": _point_doc(point) if point else None})
    return 0 if sat else 1


def _cmd_rewrite_ep(args) -> int:
    a = _load_structure(args.structure)
    phi = formulas.parse_sentence(_read_text(args.sentence))
    out = formulas.eliminate_disjunctions(phi, "P4", template=a, budget=args.budget)
    _emit(args, lambda: formulas.render(out), {"sentence": formulas.render(out)})
    return 0


def _at_least(low: int):
    """The argparse type of an integer of at least low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _budget_flag(p):
    p.add_argument("--budget", type=_at_least(0), default=DEFAULT_BUDGET,
                   help="candidate assignments per search; disjunct branches per ep sentence")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="cspbench",
        description="Analyze finite constraint-satisfaction templates.")
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis report for a template")
    p.add_argument("structure")
    p.add_argument("--max-arity", type=_at_least(2), default=3, dest="max_arity")
    p.add_argument("--types-n", type=_at_least(1), default=1, dest="types_n")
    p.add_argument("--duality-n", type=_at_least(2), default=3, dest="duality_n")
    _budget_flag(p)

    p = sub.add_parser("solve", help="decide a pp/ep sentence on a template")
    p.add_argument("structure")
    p.add_argument("sentence")
    p.add_argument("--via-p4", action="store_true", dest="via_p4",
                   help="route ep sentences through the disjunction rewriter")
    _budget_flag(p)

    p = sub.add_parser("ppdef", help="pp-definability certificate for a relation")
    p.add_argument("structure")
    p.add_argument("relation", help="JSON file with fields arity, tuples")
    _budget_flag(p)

    p = sub.add_parser("types", help="maximal pp-type counts")
    p.add_argument("structure")
    p.add_argument("--n", type=_at_least(1), default=2)
    _budget_flag(p)

    p = sub.add_parser("duality", help="fo-definability and critical obstructions")
    p.add_argument("structure")
    p.add_argument("--n-max", type=_at_least(2), default=3, dest="n_max")
    p.add_argument("--max-vertices", type=_at_least(1), default=None,
                   help="vertex bound of the obstruction listing printed when no "
                        "1-tolerant polymorphism is found, given with --max-tuples; "
                        "an fo-definable verdict lists its complete obstruction set "
                        "regardless")
    p.add_argument("--max-tuples", type=_at_least(1), default=None,
                   help="tuple bound of that listing, given with --max-vertices")
    p.add_argument("--export", default=None, help="directory for the obstruction set")
    _budget_flag(p)

    p = sub.add_parser("horn", help="classify or solve a linear-equality CNF")
    p.add_argument("action", choices=("classify", "solve"))
    p.add_argument("cnf")
    p.add_argument("--budget", type=_at_least(0), default=linear_horn.DEFAULT_BRANCH_BUDGET,
                   help="branch-node budget per satisfiability check of 'horn classify'; "
                        "'horn solve' is polynomial and does not use it")

    p = sub.add_parser("rewrite-ep", help="eliminate disjunctions via a P4 relation")
    p.add_argument("structure")
    p.add_argument("sentence")
    _budget_flag(p)

    return parser


def _fail(message: str) -> int:
    """Print message on stderr and return exit code 2, also when stderr is a
    closed pipe (often stdout's), which would otherwise escape as exit 1."""
    try:
        print(message, file=sys.stderr)
    except OSError:
        pass
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # by name at each call: the parser is built once and holds no command function
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except (OSError, ValueError, BudgetExceededError) as exc:  # JSONDecodeError is a ValueError
        return _fail(f"error: {exc}")
    except Exception as exc:  # a crash must never read as a negative verdict
        return _fail(f"internal error: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
