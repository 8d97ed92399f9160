"""Seeded job corpora for the three benchmark workloads.

A job is one `cspbench` command line plus the data the checker needs to
re-verify its output.  Every job gets its own input files, so no state can
carry from one job to the next.  The same seed always gives the same jobs,
file contents and argument lists.

Structures are kept here as (n, {name: (arity, frozenset of tuples)}) so
that the checker works on plain data and never on cspbench objects.
"""

from __future__ import annotations

import itertools
import json
import os
import random

# One candidate-assignment budget for every structure search; a job that
# overruns it counts as failed and is never resampled.
BUDGET = 200_000

WORKLOADS = ("template", "pp", "horn")

# Each workload is a fixed core, the same for every seed, plus a seeded
# part.  The core carries most of the run time, so that the run-to-run
# spread of the timings stays small; the seeded part varies the inputs.
# Job counts of the seeded families:
TEMPLATE_MIX = {"analyze": 70, "types": 20, "duality": 20}
PP_MIX = {"ppdef_n2": 40, "ppdef_n3": 20, "ep": 30}
HORN_MIX = {"classify": 10, "solve": 110}
# Horn classify jobs in the core, drawn once from a constant seed.
HORN_CORE_CLASSIFY = 45

# Fixed ppdef jobs with indicator powers of 27 to 256 elements, as
# (n, template relations, relation tuples) in the notation of _relations.
# Random jobs of this size run for up to minutes or overrun the budget, so
# large powers enter through this list, drawn by a fixed-seed random search
# and kept when they finish within seconds; random ppdef jobs stay small.
PPDEF_ANCHORS = [
    (2, "R0/1: 0; R1/2: 01 10 11",
     "000 001 010 011 100 101 110 111"),
    (2, "R0/2: 00 01 10",
     "000 001 010 011 100 101 110 111"),
    (3, "R0/2: 01 10 21 22; R1/2: 00 01 10 11 12 20 21 22",
     "00 10 21"),
    (3, "R0/2: 01 10 20 21 22; R1/1: 0",
     "00 02 11"),
    (3, "R0/2: 01 10 20 22; R1/2: 00 02 11 12 22",
     "01 12 20"),
    (2, "R0/2: 00 10; R1/2: 00 11",
     "000 001 010 011 100 101 110 111"),
    (2, "R0/2: 10 11",
     "000 001 010 011 100 101 110 111"),
    (2, "R0/2: 00 10",
     "000 001 010 011 100 101 110 111"),
    (3, "R0/2: 00 01 10 11 12 20 21 22",
     "11 12 21 22"),
    (2, "R0/2: 00 11; R1/2: 10",
     "000 001 010 011 100 101 110 111"),
    (3, "R0/1: 1; R1/2: 01 11 12 20 21 22",
     "00 01 10 22"),
    (3, "R0/1: 0 2; R1/2: 00 01 11 20 21",
     "00 01 10 20"),
    (2, "R0/1: 1; R1/2: 00 10 11",
     "001 010 011 100 101 111"),
    (3, "R0/2: 10 12 20 21 22",
     "01 10 11 21"),
    (3, "R0/2: 01 02 20 21",
     "00 10 21 22"),
    (3, "R0/2: 00 02 11 20 21 22; R1/1: 0 1",
     "11 20 22"),
]


# -- structures --


def _tuples(text):
    """"01 10" -> [(0, 1), (1, 0)]"""
    return [tuple(map(int, t)) for t in text.split()]


def _relations(text):
    """"R0/1: 0 2; R1/2: 01 10" -> {"R0": (1, [(0,), (2,)]), "R1": (2, [(0, 1), (1, 0)])}"""
    out = {}
    for part in text.split(";"):
        head, tuples = part.split(":")
        name, arity = head.strip().split("/")
        out[name] = (int(arity), _tuples(tuples))
    return out


def structure(n, rels):
    return (n, {name: (ar, frozenset(map(tuple, ts))) for name, (ar, ts) in rels.items()})


def structure_doc(s) -> dict:
    n, rels = s
    return {
        "signature": {"relations": {r: ar for r, (ar, _) in sorted(rels.items())}, "constants": []},
        "domain": n,
        "relations": {r: sorted(list(t) for t in ts) for r, (_, ts) in sorted(rels.items())},
        "constants": {},
    }


def graph(n, edges):
    es = set(edges) | {(b, a) for a, b in edges}
    return structure(n, {"E": (2, es)})


K2 = graph(2, [(0, 1)])
K3 = graph(3, [(0, 1), (1, 2), (0, 2)])
P3 = graph(3, [(0, 1), (1, 2)])
C3_DIRECTED = structure(3, {"E": (2, [(0, 1), (1, 2), (2, 0)])})
T3 = structure(3, {"E": (2, [(0, 1), (0, 2), (1, 2)])})
UV = structure(2, {"U": (1, [(1,)]), "V": (1, [(0,)])})
NAE = structure(2, {"R": (3, [t for t in itertools.product(range(2), repeat=3)
                              if t not in {(0, 0, 0), (1, 1, 1)}])})
ONE_IN_THREE = structure(2, {"R": (3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])})


def p4_tuples(n):
    return {t for t in itertools.product(range(n), repeat=4) if t[0] == t[1] or t[2] == t[3]}


def random_structure(rng, n, max_rels=2, max_arity=2):
    rels = {}
    for i in range(rng.randint(1, max_rels)):
        ar = rng.randint(1, max_arity)
        density = rng.uniform(0.2, 0.9)
        rels[f"R{i}"] = (ar, [t for t in itertools.product(range(n), repeat=ar)
                              if rng.random() < density])
    return structure(n, rels)


# -- ep sentences: ("atom", rel, args) | ("eq", x, y) | ("and", parts)
#                  | ("or", parts) | ("exists", vars, body) --


def random_ep_sentence(rng, relation, max_vars):
    """exists v0..vk . a conjunction of 1-3 atoms and 1-2 disjunctions of two
    conjunctions of 1-2 atoms, in random order; atoms are R0 atoms or
    (one time in five) equalities."""
    variables = [f"v{i}" for i in range(rng.randint(2, max_vars))]

    def atom():
        if rng.random() < 0.8:
            return ("atom", relation, (rng.choice(variables), rng.choice(variables)))
        return ("eq", rng.choice(variables), rng.choice(variables))

    def conj():
        parts = tuple(atom() for _ in range(rng.randint(1, 2)))
        return parts[0] if len(parts) == 1 else ("and", parts)

    parts = [atom() for _ in range(rng.randint(1, 3))]
    parts += [("or", (conj(), conj())) for _ in range(rng.randint(1, 2))]
    rng.shuffle(parts)
    return ("exists", tuple(variables), ("and", tuple(parts)))


def render_sentence(phi) -> str:
    kind = phi[0]
    if kind == "atom":
        return f"{phi[1]}({', '.join(phi[2])})"
    if kind == "eq":
        return f"{phi[1]} = {phi[2]}"
    if kind == "exists":
        return f"exists {' '.join(phi[1])} . ({render_sentence(phi[2])})"
    sep = " & " if kind == "and" else " | "
    return sep.join(f"({render_sentence(p)})" for p in phi[1])


# -- linear CNFs: clauses of literals (((var, coeff), ...), const, is_eq) --

MAX_LITERALS = 3  # per clause


def random_literal(rng, variables, is_eq):
    chosen = sorted(rng.sample(variables, rng.randint(1, min(3, len(variables)))))
    return (tuple((v, rng.choice((-2, -1, 1, 2))) for v in chosen), rng.randint(-2, 2), is_eq)


def random_cnf(rng, n_vars, n_clauses):
    variables = [f"x{i}" for i in range(n_vars)]
    return [tuple(random_literal(rng, variables, rng.random() < 0.5)
                  for _ in range(rng.randint(1, MAX_LITERALS)))
            for _ in range(n_clauses)]


def random_horn_cnf(rng, n_vars, n_clauses):
    variables = [f"x{i}" for i in range(n_vars)]
    clauses = []
    for _ in range(n_clauses):
        size = rng.randint(1, MAX_LITERALS)
        n_eq = rng.randint(0, 1)
        clauses.append(tuple(random_literal(rng, variables, i < n_eq) for i in range(size)))
    return clauses


def render_cnf(clauses) -> str:
    def lit(coeffs, const, is_eq):
        expr = " + ".join(f"{c}*{v}" for v, c in coeffs)
        return f"{'' if is_eq else '~'}{expr} = {const}"

    return "".join(" | ".join(lit(*l) for l in clause) + "\n" for clause in clauses)


# -- corpus assembly --


class Builder:
    """Collects jobs and their input files under one workload directory."""

    def __init__(self, root, workload):
        self.dir = os.path.join(root, workload)
        self.jobs = []
        self.files = {}

    def job(self, command, argv_tail, inputs, check, props=None, flags=()):
        """inputs: list of (suffix, text); argv_tail is formatted with their paths."""
        jid = f"{len(self.jobs):04d}"
        paths = []
        for suffix, text in inputs:
            path = os.path.join(self.dir, f"{jid}{suffix}")
            self.files[path] = text
            paths.append(path)
        argv = ["--format", "machine"] + [a.format(*paths) for a in argv_tail] + list(flags)
        self.jobs.append({"id": jid, "command": command, "argv": argv,
                          "check": check, "props": props or {}})


def struct_input(s):
    return (".struct.json", json.dumps(structure_doc(s), indent=2, sort_keys=True))


def small_template(rng):
    """A 2-element template with one binary relation other than K2's edge
    relation and, two times in three, a singleton unary relation.  analyze
    finishes in under 0.04 s on every member of this class of 42 templates;
    the three K2-based members (up to 0.4 s) are in the core instead."""
    pairs = list(itertools.product(range(2), repeat=2))
    relations = [r for k in range(1, 5) for r in itertools.combinations(pairs, k)
                 if set(r) != K2[1]["E"][1]]
    rels = {"R0": (2, rng.choice(relations))}
    if rng.random() < 2 / 3:
        rels["R1"] = (1, [(rng.randint(0, 1),)])
    return structure(2, rels)


def _template_jobs(rng, b):
    budget = ["--budget", str(BUDGET)]

    def analyze(s, max_arity, types_n, duality_n, family):
        b.job("analyze", ["analyze", "{0}", "--max-arity", str(max_arity),
                          "--types-n", str(types_n), "--duality-n", str(duality_n)],
              [struct_input(s)], {"structure": s, "max_arity": max_arity, "types_n": types_n},
              {"family": family}, budget)

    def duality(s, n_max, vertices, tuples, family):
        b.job("duality", ["duality", "{0}", "--n-max", str(n_max), "--max-vertices", str(vertices),
                          "--max-tuples", str(tuples)],
              [struct_input(s)], {"structure": s}, {"family": family}, budget)

    for unary in ((), (0,), (1,)):
        rels = {"R0": (2, K2[1]["E"][1])}
        if unary:
            rels["R1"] = (1, [unary])
        analyze(structure(2, rels), 3, 2, 3, "fixed")
    analyze(UV, 3, 2, 3, "fixed")
    for s in (K3, P3, C3_DIRECTED, T3):
        analyze(s, 2, 1, 2, "fixed")
    for s in (NAE, ONE_IN_THREE):
        duality(s, 2, 3, 3, "fixed")
    for s in (K3, P3):
        duality(s, 2, 4, 4, "fixed")
    for s in (K2, K3, P3, C3_DIRECTED, T3):
        duality(s, 2, 5, 5, "fixed")
    duality(K2, 2, 5, 6, "fixed")
    for _ in range(TEMPLATE_MIX["analyze"]):
        analyze(small_template(rng), 3, 2, 3, "analyze")
    for _ in range(TEMPLATE_MIX["types"]):
        s = random_structure(rng, rng.choice((2, 3)))
        b.job("types", ["types", "{0}", "--n", "2"], [struct_input(s)],
              {"structure": s}, {"family": "types"}, budget)
    # 2-element templates only: on a random 3-element template the search for
    # a ternary 1-tolerant polymorphism can exhaust the budget.
    for _ in range(TEMPLATE_MIX["duality"]):
        duality(random_structure(rng, 2), 2, 3, 3, "duality")


def _pp_jobs(rng, b):
    budget = ["--budget", str(BUDGET)]

    def ppdef(s, arity, rel, family):
        doc = json.dumps({"arity": arity, "tuples": [list(t) for t in rel]})
        b.job("ppdef", ["ppdef", "{0}", "{1}"], [struct_input(s), (".rel.json", doc)],
              {"structure": s, "arity": arity, "tuples": rel},
              {"family": family, "power_size": s[0] ** len(rel)}, budget)

    def random_ppdef(n, arity, max_tuples):
        pool = list(itertools.product(range(n), repeat=arity))
        rel = sorted(rng.sample(pool, rng.randint(1, min(max_tuples, len(pool)))))
        ppdef(random_structure(rng, n), arity, rel, "random")

    for n, rels, rel in PPDEF_ANCHORS:
        rel = _tuples(rel)
        ppdef(structure(n, _relations(rels)), len(rel[0]), rel, "fixed")
    # The full ternary relation over the 18 templates with a singleton unary
    # relation plus at most one singleton unary or binary relation, or with
    # one binary tuple: 256-element powers decided in 10-25 ms each.
    singles = [f"R1/1: {c}" for c in (0, 1)] + [f"R1/2: {t}" for t in ("00", "01", "10", "11")]
    plateau = [f"R0/1: {a}" + extra for a in (0, 1) for extra in [""] + [f"; {x}" for x in singles]]
    plateau += [f"R0/2: {t}" for t in ("00", "01", "10", "11")]
    full = list(itertools.product(range(2), repeat=3))
    for rels in plateau:
        ppdef(structure(2, _relations(rels)), 3, full, "fixed")
    for _ in range(PP_MIX["ppdef_n2"]):
        random_ppdef(2, rng.choice((2, 3)), 3)
    for _ in range(PP_MIX["ppdef_n3"]):
        random_ppdef(3, rng.choice((1, 2)), 2)
    for _ in range(PP_MIX["ep"]):
        n = rng.choice((2, 2, 3))
        # A sparse binary relation, so that a fair share of sentences is false.
        density = rng.uniform(0.15, 0.5)
        rels = {"R0": (2, frozenset(t for t in itertools.product(range(n), repeat=2)
                                    if rng.random() < density)),
                "P4": (4, frozenset(p4_tuples(n)))}
        s = (n, rels)
        phi = random_ep_sentence(rng, "R0", max_vars=5 if n == 3 else 6)
        inputs = [struct_input(s), (".sentence.txt", render_sentence(phi) + "\n")]
        check = {"structure": s, "sentence": phi}
        props = {"family": "ep", "n": n}
        b.job("solve", ["solve", "{0}", "{1}"], inputs, check, props, budget)
        b.job("solve", ["solve", "{0}", "{1}", "--via-p4"], inputs, dict(check, via_p4=True),
              props, budget)
        b.job("rewrite-ep", ["rewrite-ep", "{0}", "{1}"], inputs, check, props, budget)


def _horn_jobs(rng, b):
    def classify(r, family):
        cnf = random_cnf(r, 5, 5)
        b.job("horn_classify", ["horn", "classify", "{0}"], [(".cnf", render_cnf(cnf))],
              {"cnf": cnf}, {"family": family, "clauses": len(cnf)})

    core = random.Random("horn:core")
    for _ in range(HORN_CORE_CLASSIFY):
        classify(core, "fixed")
    for _ in range(HORN_MIX["classify"]):
        classify(rng, "classify")
    for _ in range(HORN_MIX["solve"]):
        cnf = random_horn_cnf(rng, 8, rng.randint(8, 10))
        b.job("horn_solve", ["horn", "solve", "{0}"], [(".cnf", render_cnf(cnf))],
              {"cnf": cnf}, {"family": "solve", "clauses": len(cnf)})


_GENERATORS = {"template": _template_jobs, "pp": _pp_jobs, "horn": _horn_jobs}


def build(workload: str, seed: int, root: str):
    """Generate the corpus of one workload: (jobs, {path: file text}).

    The random stream is derived from the workload name and the seed only.
    """
    rng = random.Random(f"{workload}:{seed}")
    b = Builder(root, workload)
    _GENERATORS[workload](rng, b)
    return b.jobs, b.files


def write_files(files: dict) -> None:
    for path, text in files.items():
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
