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
import hashlib
import json
import sys
from dataclasses import dataclass, field

from . import clones, duality, formulas, galois, linear_horn, structures
from .structures import BudgetExceededError, DEFAULT_BUDGET, FiniteStructure


@dataclass
class AnalysisReport:
    """Aggregated verdicts for one template; every boolean verdict carries
    its certificate or an explicit bound, and the machine encoding
    round-trips through from_dict."""

    template_name: str
    file_hash: str
    core: dict = field(default_factory=dict)
    epc: dict = field(default_factory=dict)
    polymorphism_counts: dict = field(default_factory=dict)
    essentially_unary: dict = field(default_factory=dict)
    local_refutability: dict = field(default_factory=dict)
    np_hardness: dict = field(default_factory=dict)
    pp_type_counts: dict = field(default_factory=dict)
    fo_definability: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "template_name": self.template_name,
            "file_hash": self.file_hash,
            "core": self.core,
            "epc": self.epc,
            "polymorphism_counts": self.polymorphism_counts,
            "essentially_unary": self.essentially_unary,
            "local_refutability": self.local_refutability,
            "np_hardness": self.np_hardness,
            "pp_type_counts": self.pp_type_counts,
            "fo_definability": self.fo_definability,
        }

    @staticmethod
    def from_dict(doc: dict) -> "AnalysisReport":
        return AnalysisReport(**doc)

    def render_text(self) -> str:
        lines = [f"template {self.template_name}  (sha256 {self.file_hash[:16]}...)"]

        def section(title, body):
            lines.append(f"  {title}: {body}")

        section("core", _verdict_line(self.core))
        section("epc (finite)", _verdict_line(self.epc))
        section("polymorphism counts", self.polymorphism_counts.get("counts", self.polymorphism_counts))
        section("essentially unary", _verdict_line(self.essentially_unary))
        section("locally refutable", _verdict_line(self.local_refutability))
        section("NP-hardness flag", _verdict_line(self.np_hardness))
        section("maximal pp-type counts", self.pp_type_counts.get("counts", self.pp_type_counts))
        section("fo-definability", _verdict_line(self.fo_definability))
        return "\n".join(lines)


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
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return FiniteStructure.from_json(text, name=path)


def _file_hash(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _section(fn):
    """Run one analysis section, surfacing budget overruns as data."""
    try:
        return fn()
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
             duality_n: int, budget: int) -> AnalysisReport:
    report = AnalysisReport(template_name=path, file_hash=_file_hash(path))

    # Each polymorphism set is enumerated once and shared by the sections
    # that read it; a section still fails on its own when an arity it asks
    # for overran the budget.  End(A) is the arity-1 set: power(a, 1) is a.
    endomorphisms = _once(lambda s: structures.enumerate_homomorphisms(s, s, budget=budget))

    def enumerate_arity(k):
        if k > 1:
            return clones.enumerate_polymorphisms(a, k, budget=budget)
        # End(A), behind the size checks that building power(a, 1) makes
        structures.power(a, 1, budget=budget)
        return [clones.OperationTable(a.n, 1, h.map) for h in endomorphisms(a)]

    polymorphisms = _once(enumerate_arity)

    def core_section():
        cert = clones.first_non_embedding(endomorphisms(a))
        doc = {"verdict": cert is None}
        if cert is not None:
            doc["certificate"] = {"non_embedding_endomorphism": list(cert.map)}
        return doc

    report.core = _section(core_section)

    def epc_section():
        if "error" in report.core:
            raise BudgetExceededError(report.core["error"])
        return {"verdict": report.core["verdict"],
                "note": "epc coincides with core on finite structures"}

    report.epc = _section(epc_section)

    def counts_section():
        return {"counts": {str(k): len(polymorphisms(k)) for k in range(1, max_arity + 1)}}

    report.polymorphism_counts = _section(counts_section)

    def unary_section():
        v = clones.essential_unarity_verdict(polymorphisms, max_arity)
        doc = {"verdict": v.all_essentially_unary, "bound": v.max_arity,
               "note": "bounded evidence, not a proof"}
        if v.counterexample is not None:
            doc["certificate"] = {
                "operation": v.counterexample.to_json_dict(),
                "essential_coordinate_sets": [list(v.witness.x_coords), list(v.witness.y_coords)],
            }
        return doc

    report.essentially_unary = _section(unary_section)

    def local_section():
        verdict, cert = formulas.is_locally_refutable(a)
        doc = {"verdict": verdict}
        doc["certificate"] = cert if verdict else formulas.render(cert)
        return doc

    report.local_refutability = _section(local_section)

    def hardness_section():
        if "error" in report.local_refutability or "error" in report.essentially_unary:
            raise BudgetExceededError("depends on a section that exceeded its budget")
        flag = (not report.local_refutability["verdict"]) and report.essentially_unary["verdict"]
        return {"verdict": flag,
                "note": ("bounded evidence, not a proof: requires essential unarity of "
                         "all polymorphisms of all elementary extensions; checked up to "
                         f"arity {max_arity} on the template only")}

    report.np_hardness = _section(hardness_section)

    def types_section():
        reports = [galois.count_maximal_pp_types(a, n, budget=budget)
                   for n in range(1, types_n + 1)]
        return {"counts": {str(r.arity): r.count for r in reports},
                "verdict": _OMEGA_CATEGORICAL}

    report.pp_type_counts = _section(types_section)

    def fo_section():
        rep = duality.fo_definability_report(a, n_max=duality_n, budget=budget)
        doc = {"verdict": rep.verdict}
        if rep.fo_definable:
            doc["sentence"] = rep.universal_sentence
            doc["polymorphism"] = rep.polymorphism.to_json_dict()
            doc["obstructions"] = [o.structure.to_json_dict() for o in rep.obstructions]
        elif rep.largest_obstruction is not None:
            doc["largest_obstruction"] = rep.largest_obstruction.structure.to_json_dict()
        return doc

    report.fo_definability = _section(fo_section)
    return report


def _emit(args, text_fn, machine_doc) -> None:
    if args.format == "machine":
        print(json.dumps(machine_doc, indent=2, sort_keys=True))
    else:
        print(text_fn())


def _cmd_analyze(args) -> int:
    a = _load_structure(args.structure)
    report = _analyze(a, args.structure, args.max_arity, args.types_n,
                      args.duality_n, args.budget)
    _emit(args, report.render_text, report.to_dict())
    return 0


def _cmd_solve(args) -> int:
    a = _load_structure(args.structure)
    phi = formulas.parse_sentence(_read_text(args.sentence))
    if args.via_p4:
        phi = formulas.eliminate_disjunctions(phi, args.p4_name, template=a, budget=args.budget)
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
    with open(args.relation, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or set(doc) != {"arity", "tuples"}:
        raise ValueError('relation document needs exactly the fields "arity" and "tuples"')
    tuples = doc["tuples"]
    if not isinstance(tuples, list) or not all(isinstance(t, list) for t in tuples):
        raise ValueError('"tuples" must be a list of lists')
    r = galois.Relation.make(doc["arity"], [tuple(t) for t in tuples])
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
    a = _load_structure(args.structure)
    rep = duality.fo_definability_report(a, n_max=args.n_max,
                                         max_vertices=args.max_vertices,
                                         max_tuples=args.max_tuples,
                                         budget=args.budget)
    if args.export:
        import os

        os.makedirs(args.export, exist_ok=True)
        manifest = {"template": args.structure, "template_hash": _file_hash(args.structure),
                    "verdict": rep.verdict, "obstructions": []}
        for i, obs in enumerate(rep.obstructions):
            fname = f"obstruction_{i:03d}.json"
            with open(os.path.join(args.export, fname), "w", encoding="utf-8") as fh:
                fh.write(obs.structure.to_json())
            manifest["obstructions"].append(
                {"file": fname, "hyperedges": obs.hyperedges, "critical": obs.critical})
        with open(os.path.join(args.export, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)

    def text():
        lines = [rep.verdict]
        if rep.universal_sentence:
            lines.append(f"universal sentence: {rep.universal_sentence}")
        for obs in rep.obstructions:
            lines.append(f"  obstruction ({obs.hyperedges} tuples): {obs.structure.to_json_dict()}")
        return "\n".join(lines)

    machine = {
        "verdict": rep.verdict,
        "fo_definable": rep.fo_definable,
        "polymorphism_arity": rep.polymorphism_arity,
        "universal_sentence": rep.universal_sentence,
        "obstructions": [o.structure.to_json_dict() for o in rep.obstructions],
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
    out = formulas.eliminate_disjunctions(phi, args.p4_name, template=a, budget=args.budget)
    _emit(args, lambda: formulas.render(out), {"sentence": formulas.render(out)})
    return 0


def _budget_flag(p):
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="candidate-assignment budget per search")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cspbench",
        description="Analyze finite constraint-satisfaction templates.")
    parser.add_argument("--format", choices=("text", "machine"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full analysis report for a template")
    p.add_argument("structure")
    p.add_argument("--max-arity", type=int, default=3, dest="max_arity")
    p.add_argument("--types-n", type=int, default=1, dest="types_n")
    p.add_argument("--duality-n", type=int, default=3, dest="duality_n")
    _budget_flag(p)
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("solve", help="decide a pp/ep sentence on a template")
    p.add_argument("structure")
    p.add_argument("sentence")
    p.add_argument("--via-p4", action="store_true", dest="via_p4",
                   help="route ep sentences through the disjunction rewriter")
    p.add_argument("--p4-name", default="P4", dest="p4_name")
    _budget_flag(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("ppdef", help="pp-definability certificate for a relation")
    p.add_argument("structure")
    p.add_argument("relation", help="JSON file with fields arity, tuples")
    _budget_flag(p)
    p.set_defaults(fn=_cmd_ppdef)

    p = sub.add_parser("types", help="maximal pp-type counts")
    p.add_argument("structure")
    p.add_argument("--n", type=int, default=2)
    _budget_flag(p)
    p.set_defaults(fn=_cmd_types)

    p = sub.add_parser("duality", help="fo-definability and critical obstructions")
    p.add_argument("structure")
    p.add_argument("--n-max", type=int, default=3, dest="n_max")
    p.add_argument("--max-vertices", type=int, default=None, dest="max_vertices")
    p.add_argument("--max-tuples", type=int, default=None, dest="max_tuples")
    p.add_argument("--export", default=None, help="directory for the obstruction set")
    _budget_flag(p)
    p.set_defaults(fn=_cmd_duality)

    p = sub.add_parser("horn", help="classify or solve a linear-equality CNF")
    p.add_argument("action", choices=("classify", "solve"))
    p.add_argument("cnf")
    p.add_argument("--budget", type=int, default=linear_horn.DEFAULT_BRANCH_BUDGET,
                   help="branch-node budget per satisfiability check of 'horn classify'; "
                        "'horn solve' is polynomial and does not use it")
    p.set_defaults(fn=_cmd_horn)

    p = sub.add_parser("rewrite-ep", help="eliminate disjunctions via a P4 relation")
    p.add_argument("structure")
    p.add_argument("sentence")
    p.add_argument("--p4-name", default="P4", dest="p4_name")
    _budget_flag(p)
    p.set_defaults(fn=_cmd_rewrite_ep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ValueError, BudgetExceededError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must never read as a negative verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
