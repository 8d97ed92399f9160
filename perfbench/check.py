"""Independent re-checking of every job's machine output.

The checks are written against the definitions, by brute force over small
domains, and share no code with cspbench's searches.  The one exception is
`horn solve`, whose unsatisfiable verdicts are cross-checked against
cspbench's complete solver `cnf_sat`, a second path through the program.

Each check function returns a list of problems; an empty list means the
output is correct.  Jobs that failed (see run.py) are not checked.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction


# -- structures as plain data: (n, {name: (arity, frozenset of tuples)}) --


def _parse_structure_doc(doc):
    rels = {name: (ar, frozenset(tuple(t) for t in doc["relations"][name]))
            for name, ar in doc["signature"]["relations"].items()}
    return doc["domain"], rels


def is_hom(h, src_rels, tgt_rels) -> bool:
    return all(tuple(h[x] for x in t) in tgt_rels[r][1]
               for r, (_, ts) in src_rels.items() for t in ts)


def homomorphism_exists(src, tgt) -> bool:
    n_src, src_rels = src
    return any(is_hom(h, src_rels, tgt[1])
               for h in itertools.product(range(tgt[0]), repeat=n_src))


def endomorphisms(s):
    n, rels = s
    return [h for h in itertools.product(range(n), repeat=n) if is_hom(h, rels, rels)]


def is_embedding(h, s) -> bool:
    n, rels = s
    if len(set(h)) != n:
        return False
    return all((tuple(h[x] for x in t) in ts) == (t in ts)
               for _, (ar, ts) in rels.items()
               for t in itertools.product(range(n), repeat=ar))


def apply(values, n, args) -> int:
    idx = 0
    for v in args:
        idx = idx * n + v
    return values[idx]


def preserves(values, n, k, tuples, arity) -> bool:
    """Does the k-ary operation (row-major table) preserve the tuple set?"""
    rows = sorted(tuples)
    return all(tuple(apply(values, n, [row[p] for row in choice]) for p in range(arity)) in tuples
               for choice in itertools.product(rows, repeat=k))


def is_polymorphism(values, n, k, s) -> bool:
    return len(values) == n ** k and all(0 <= v < n for v in values) and all(
        preserves(values, n, k, ts, ar) for ar, ts in s[1].values())


def is_one_tolerant_polymorphism(values, n, k, s) -> bool:
    """Rows may fail their relation in at most one of the k coordinates."""
    for ar, ts in s[1].values():
        rows = sorted(ts)
        every = list(itertools.product(range(n), repeat=ar))
        for j in range(k):
            for ok_rows in itertools.product(rows, repeat=k - 1):
                for free in every:
                    choice = ok_rows[:j] + (free,) + ok_rows[j:]
                    image = tuple(apply(values, n, [row[p] for row in choice]) for p in range(ar))
                    if image not in ts:
                        return False
    return True


def essential_coordinates(values, n, k):
    out = set()
    for i in range(k):
        for t in itertools.product(range(n), repeat=k):
            if any(apply(values, n, t[:i] + (v,) + t[i + 1:]) != apply(values, n, t)
                   for v in range(n)):
                out.add(i)
                break
    return out


def brute_polymorphisms(s, k):
    n = s[0]
    return [v for v in itertools.product(range(n), repeat=n ** k) if is_polymorphism(v, n, k, s)]


# Brute-force polymorphism enumeration is exhaustive over all n**(n**k)
# tables; beyond this many it is skipped.
MAX_BRUTE_TABLES = 1 << 16


def pp_type_report(s, arity, endos):
    """(classes as frozensets, maximal classes) of arity-tuples under
    mutual pp-type containment; s <= t iff an endomorphism maps s to t."""
    n = s[0]
    tuples = list(itertools.product(range(n), repeat=arity))
    leq = {(x, y): any(tuple(h[v] for v in x) == y for h in endos) for x in tuples for y in tuples}
    classes = []
    for x in tuples:
        for cls in classes:
            if leq[x, cls[0]] and leq[cls[0], x]:
                cls.append(x)
                break
        else:
            classes.append([x])
    maximal = [c for c in classes
               if not any(leq[c[0], d[0]] and not leq[d[0], c[0]] for d in classes if d is not c)]
    return {frozenset(c) for c in classes}, {frozenset(c) for c in maximal}


def iso_key(s):
    """Canonical key under every relabelling of the domain."""
    n, rels = s
    return min(tuple((r, tuple(sorted(tuple(perm[x] for x in t) for t in ts)))
                     for r, (_, ts) in sorted(rels.items()))
               for perm in itertools.permutations(range(n))) + (n,)


def check_obstruction_set(docs, template) -> list:
    """Each obstruction is one, is critical, and no two are isomorphic."""
    problems = [p for doc in docs for p in check_obstruction(doc, template)]
    keys = [iso_key(_parse_structure_doc(doc)) for doc in docs]
    if len(set(keys)) != len(keys):
        problems.append("two obstructions in the set are isomorphic")
    return problems


def check_obstruction(doc, template) -> list:
    obs = _parse_structure_doc(doc)
    target = (template[0], {r: template[1][r] for r in obs[1]})
    if set(obs[1]) != set(template[1]):
        return [f"obstruction signature {sorted(obs[1])} differs from the template's"]
    if homomorphism_exists(obs, target):
        return [f"obstruction {doc['relations']} maps to the template"]
    for r, (ar, ts) in obs[1].items():
        for t in ts:
            weakened = (obs[0], dict(obs[1], **{r: (ar, ts - {t})}))
            if not homomorphism_exists(weakened, target):
                return [f"obstruction {doc['relations']} is not critical: deleting {r}{t} still fails"]
    return []


# -- analyze / types / duality --


def _check_core(s, sec, endos) -> list:
    verdict = all(is_embedding(h, s) for h in endos)
    if sec["verdict"] != verdict:
        return [f"core verdict {sec['verdict']} but brute force says {verdict}"]
    if not verdict:
        h = tuple(sec["certificate"]["non_embedding_endomorphism"])
        if h not in endos or is_embedding(h, s):
            return [f"core certificate {h} is not a non-embedding endomorphism"]
    return []


def _check_unary(s, sec, max_arity, polys) -> list:
    n = s[0]
    if sec["verdict"] is False:
        cert = sec["certificate"]
        op = cert["operation"]
        k, values = op["arity"], tuple(op["values"])
        if op["domain"] != n or not is_polymorphism(values, n, k, s):
            return ["essential-unarity counterexample is not a polymorphism"]
        xs, ys = (set(c) for c in cert["essential_coordinate_sets"])
        essential = essential_coordinates(values, n, k)
        if len(essential) < 2 or xs & ys or not (xs & essential and ys & essential):
            return [f"counterexample essential coordinates {sorted(essential)} do not match "
                    f"the witness sets {sorted(xs)}, {sorted(ys)}"]
        return []
    for k, tables in polys.items():
        if k >= 2 and any(len(essential_coordinates(v, n, k)) > 1 for v in tables):
            return [f"verdict says essentially unary, but a {k}-ary polymorphism is not"]
    return []


def _check_local(s, sec) -> list:
    n, rels = s
    loops = [d for d in range(n) if all((d,) * ar in ts for ar, ts in rels.values() if ts)]
    if sec["verdict"] != bool(loops):
        return [f"local refutability {sec['verdict']} but brute force says {bool(loops)}"]
    if loops and sec["certificate"] not in loops:
        return [f"local refutability certificate {sec['certificate']} is not a common loop"]
    return []


def _check_fo(s, sec) -> list:
    problems = []
    if "sentence" in sec:
        op = sec["polymorphism"]
        if not is_one_tolerant_polymorphism(tuple(op["values"]), s[0], op["arity"], s):
            problems.append("fo-definability certificate is not a 1-tolerant polymorphism")
        problems += check_obstruction_set(sec["obstructions"], s)
    elif "largest_obstruction" in sec:
        problems += check_obstruction(sec["largest_obstruction"], s)
    return problems


def check_analyze(job, doc) -> list:
    c = job["check"]
    s, max_arity = c["structure"], c["max_arity"]
    n = s[0]
    endos = endomorphisms(s)
    problems = _check_core(s, doc["core"], endos)
    if doc["epc"]["verdict"] != doc["core"]["verdict"]:
        problems.append("epc verdict differs from the core verdict")
    polys = {k: brute_polymorphisms(s, k) for k in range(1, max_arity + 1)
             if n ** (n ** k) <= MAX_BRUTE_TABLES}
    counts = doc["polymorphism_counts"]["counts"]
    for k, tables in polys.items():
        if counts[str(k)] != len(tables):
            problems.append(f"{counts[str(k)]} {k}-ary polymorphisms, brute force finds {len(tables)}")
    problems += _check_unary(s, doc["essentially_unary"], max_arity, polys)
    problems += _check_local(s, doc["local_refutability"])
    hard = (not doc["local_refutability"]["verdict"]) and doc["essentially_unary"]["verdict"]
    if doc["np_hardness"]["verdict"] != hard:
        problems.append("NP-hardness flag disagrees with its two inputs")
    for m in range(1, c["types_n"] + 1):
        _, maximal = pp_type_report(s, m, endos)
        if doc["pp_type_counts"]["counts"][str(m)] != len(maximal):
            problems.append(f"maximal pp-{m}-type count differs from brute force ({len(maximal)})")
    return problems + _check_fo(s, doc["fo_definability"])


def check_types(job, doc) -> list:
    s = job["check"]["structure"]
    endos = endomorphisms(s)
    problems = []
    for rep in doc["reports"]:
        classes, maximal = pp_type_report(s, rep["arity"], endos)
        got = [frozenset(map(tuple, cls)) for cls in rep["classes"]]
        if set(got) != classes or {got[i] for i in rep["maximal"]} != maximal:
            problems.append(f"pp-{rep['arity']}-type classes differ from brute force")
        if rep["count"] != len(maximal) or doc["counts"][rep["arity"] - 1] != len(maximal):
            problems.append(f"maximal pp-{rep['arity']}-type count differs from brute force")
    return problems


def check_duality(job, doc) -> list:
    s = job["check"]["structure"]
    problems = check_obstruction_set(doc["obstructions"], s)
    if doc["fo_definable"] and not doc["universal_sentence"]:
        problems.append("fo-definable verdict without a universal sentence")
    return problems


# -- ppdef --

# Definitions over powers up to this size are re-evaluated exactly.
MAX_EXACT_POWER = 16


def check_ppdef(job, doc) -> list:
    c = job["check"]
    s, arity, rel = c["structure"], c["arity"], frozenset(map(tuple, c["tuples"]))
    n = s[0]
    if not doc["definable"]:
        op = doc["violating_operation"]
        k, values = op["arity"], tuple(op["values"])
        rows = [tuple(r) for r in doc["input_rows"]]
        bad = tuple(doc["violating_tuple"])
        image = tuple(apply(values, n, [row[p] for row in rows]) for p in range(arity))
        if sorted(rows) != sorted(rel) or k != len(rows):
            return ["violating operation is not applied to the relation's rows"]
        if image != bad or bad in rel:
            return [f"violating operation maps the rows to {image}, claimed {bad}"]
        if not is_polymorphism(values, n, k, s):
            return ["violating operation is not a polymorphism of the template"]
        return []
    # A pp-definable relation is preserved by every polymorphism; check the
    # unary ones, and the binary ones on 2-element domains.
    for k in (1, 2) if n == 2 else (1,):
        for values in brute_polymorphisms(s, k):
            if not preserves(values, n, k, rel, arity):
                return [f"definable verdict, but a {k}-ary polymorphism breaks the relation"]
    formula = parse_sentence(doc["formula"])
    free = sorted(_free_names(formula), key=lambda v: (len(v), v))
    if _has_or(formula) or len(free) != arity:
        return ["definition is not a pp formula with one free variable per column"]
    # On small indicator powers, re-evaluate the definition exactly.
    if n ** len(rel) <= MAX_EXACT_POWER:
        closed = ("exists", tuple(free), formula)
        extension = {t for t in itertools.product(range(n), repeat=arity)
                     if pp_truth(s, closed, t)}
        if extension != rel:
            return ["the definition's extension differs from the relation"]
    return []


# -- sentences: own parser and evaluators for the sentence grammar --


def _tokens(text):
    out, i = [], 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "()&|=.,":
            out.append(ch)
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise ValueError(f"unexpected character {ch!r}")
    return out + [None]


def parse_sentence(text):
    """Parse the sentence grammar into ("atom"|"eq"|"and"|"or"|"exists"|"false") tuples."""
    toks, pos = _tokens(text), [0]

    def peek():
        return toks[pos[0]]

    def take(want=None):
        tok = toks[pos[0]]
        if want is not None and tok != want:
            raise ValueError(f"expected {want!r}, found {tok!r}")
        pos[0] += 1
        return tok

    def formula():
        if peek() == "exists":
            take()
            names = []
            while peek() != ".":
                names.append(take())
            take(".")
            return ("exists", tuple(names), formula())
        parts = [conj()]
        while peek() == "|":
            take()
            parts.append(conj())
        return parts[0] if len(parts) == 1 else ("or", tuple(parts))

    def conj():
        parts = [atom()]
        while peek() == "&":
            take()
            parts.append(atom())
        return parts[0] if len(parts) == 1 else ("and", tuple(parts))

    def atom():
        if peek() == "(":
            take()
            inner = formula()
            take(")")
            return inner
        name = take()
        if name == "false":
            return ("false",)
        if peek() == "(":
            take()
            args = [take()]
            while peek() == ",":
                take()
                args.append(take())
            take(")")
            return ("atom", name, tuple(args))
        take("=")
        return ("eq", name, take())

    phi = formula()
    take(None)
    return phi


def _has_or(phi) -> bool:
    if phi[0] == "or":
        return True
    if phi[0] == "and":
        return any(_has_or(p) for p in phi[1])
    return phi[0] == "exists" and _has_or(phi[2])


def _free_names(phi, bound=frozenset()) -> set:
    kind = phi[0]
    if kind == "atom":
        return set(phi[2]) - bound
    if kind == "eq":
        return {phi[1], phi[2]} - bound
    if kind in ("and", "or"):
        return set().union(*(_free_names(p, bound) for p in phi[1]))
    if kind == "exists":
        return _free_names(phi[2], bound | set(phi[1]))
    return set()


def holds(phi, rels, env) -> bool:
    """Truth of a quantifier-free formula under a total assignment."""
    kind = phi[0]
    if kind == "atom":
        return tuple(env[x] for x in phi[2]) in rels[phi[1]][1]
    if kind == "eq":
        return env[phi[1]] == env[phi[2]]
    if kind == "and":
        return all(holds(p, rels, env) for p in phi[1])
    if kind == "or":
        return any(holds(p, rels, env) for p in phi[1])
    return False


def ep_truth(s, phi) -> bool:
    """Truth of a generated sentence: one existential block over a
    quantifier-free body, decided by trying every assignment."""
    n, rels = s
    _, names, body = phi
    return any(holds(body, rels, dict(zip(names, values)))
               for values in itertools.product(range(n), repeat=len(names)))


def pp_truth(s, phi, fixed=()) -> bool:
    """Truth of a pp sentence with nested quantifiers, by backtracking
    over its variables with every bound name made unique.  `fixed` gives
    the values of the outermost block's variables, in order."""
    n, rels = s
    atoms, eqs, names = [], [], []

    def flatten(node, env):
        kind = node[0]
        if kind == "exists":
            inner = dict(env)
            for v in node[1]:
                inner[v] = len(names)
                names.append(v)
            flatten(node[2], inner)
        elif kind == "and":
            for p in node[1]:
                flatten(p, env)
        elif kind == "atom":
            atoms.append((node[1], tuple(env[x] for x in node[2])))
        elif kind == "eq":
            eqs.append((env[node[1]], env[node[2]]))
        else:
            atoms.append(None)  # false

    flatten(phi, {})
    if None in atoms:
        return False
    constraints = [[] for _ in names]
    for r, args in atoms:
        constraints[max(args)].append(("atom", r, args))
    for x, y in eqs:
        constraints[max(x, y)].append(("eq", x, y))
    value = [0] * len(names)

    def ok(i):
        for con in constraints[i]:
            if con[0] == "atom":
                if tuple(value[x] for x in con[2]) not in rels[con[1]][1]:
                    return False
            elif value[con[1]] != value[con[2]]:
                return False
        return True

    def search(i):
        if i == len(names):
            return True
        for v in (fixed[i],) if i < len(fixed) else range(n):
            value[i] = v
            if ok(i) and search(i + 1):
                return True
        return False

    return search(0)


def check_solve(job, doc) -> list:
    c = job["check"]
    s, phi = c["structure"], c["sentence"]
    truth = ep_truth(s, phi)
    if doc["satisfied"] != truth:
        return [f"solve says {doc['satisfied']}, brute force says {truth}"]
    witness = doc["witness"]
    if truth and not c.get("via_p4"):
        names = phi[1]
        if any(not isinstance(witness.get(v), int) for v in names) or not holds(
                phi[2], s[1], {v: witness[v] for v in names}):
            return [f"witness {witness} does not satisfy the sentence"]
    if truth and c.get("via_p4") and not all(0 <= v < s[0] for v in witness.values()):
        return [f"witness {witness} leaves the domain"]
    return []


def check_rewrite(job, doc) -> list:
    c = job["check"]
    s, phi = c["structure"], c["sentence"]
    out = parse_sentence(doc["sentence"])
    if _has_or(out) or _free_names(out):
        return ["rewriting is not a pp sentence"]
    # The rewriting keeps the outermost block (renamed), and its body must
    # agree with the original body under every assignment of that block.
    _, names, body = phi
    if out[0] == "false":
        if ep_truth(s, phi):
            return ["rewriting is false, the sentence is true"]
        return []
    if out[0] != "exists" or len(out[1]) != len(names):
        return ["rewriting does not keep the sentence's outermost block"]
    for values in itertools.product(range(s[0]), repeat=len(names)):
        if pp_truth(s, out, values) != holds(body, s[1], dict(zip(names, values))):
            return [f"rewriting differs from the sentence at {dict(zip(names, values))}"]
    return []


# -- linear CNFs, with exact arithmetic in Q and Q(sqrt2) --


def _lit_value(coeffs, point):
    return sum((Fraction(c) * point[v] for v, c in coeffs), Fraction(0))


def cnf_holds(cnf, point) -> bool:
    return all(any((_lit_value(coeffs, point) == const) == is_eq for coeffs, const, is_eq in clause)
               for clause in cnf)


def cnf_holds_at_mix(cnf, p, q) -> bool:
    """Does (1 - sqrt2)*p + sqrt2*q satisfy the CNF?  A linear form at the
    mix is s(p) + sqrt2*(s(q) - s(p)), equal to a rational d iff s(p) = d
    and s(q) = s(p)."""
    def lit_holds(coeffs, const, is_eq):
        sp, sq = _lit_value(coeffs, p), _lit_value(coeffs, q)
        return (sp == const and sq == sp) == is_eq

    return all(any(lit_holds(*lit) for lit in clause) for clause in cnf)


def _point(doc):
    return {v: Fraction(x) for v, x in doc.items()}


def check_horn_classify(job, doc, rc) -> list:
    cnf = job["check"]["cnf"]
    if rc == 0:
        for line in doc["irreducible"].splitlines():
            if sum(not lit.strip().startswith("~") for lit in line.split("|")) > 1:
                return [f"Horn verdict, but irreducible clause {line!r} has two equalities"]
        return []
    if sum(not lit.strip().startswith("~") for lit in doc["violating_clause"].split("|")) < 2:
        return ["non-Horn violating clause has fewer than two equalities"]
    p, q = (_point(x) for x in doc["witness_pair"])
    variables = {v for clause in cnf for coeffs, _, _ in clause for v, _ in coeffs}
    if not variables <= set(p) or not variables <= set(q):
        return ["witness points do not assign every variable"]
    if not (cnf_holds(cnf, p) and cnf_holds(cnf, q)):
        return ["a witness point does not satisfy the CNF"]
    if cnf_holds_at_mix(cnf, p, q):
        return ["the sqrt2-mix of the witness pair still satisfies the CNF"]
    return []


def check_horn_solve(job, doc, rc, cnf_sat_fn) -> list:
    cnf = job["check"]["cnf"]
    if rc == 0:
        point = _point(doc["point"])
        variables = {v for clause in cnf for coeffs, _, _ in clause for v, _ in coeffs}
        if not variables <= set(point) or not cnf_holds(cnf, point):
            return [f"point {doc['point']} does not satisfy the CNF"]
        return []
    if cnf_sat_fn(job) is not None:
        return ["horn solve says unsatisfiable, cnf_sat finds a point"]
    return []


def check_job(job, rc, stdout, cnf_sat_fn) -> list:
    """Problems with one successful job's output (empty when correct)."""
    doc = json.loads(stdout)
    command = job["command"]
    if command == "analyze":
        return check_analyze(job, doc)
    if command == "types":
        return check_types(job, doc)
    if command == "duality":
        return check_duality(job, doc)
    if command == "ppdef":
        if (rc == 0) != doc["definable"]:
            return [f"exit code {rc} disagrees with definable={doc['definable']}"]
        return check_ppdef(job, doc)
    if command == "solve":
        if (rc == 0) != doc["satisfied"]:
            return [f"exit code {rc} disagrees with satisfied={doc['satisfied']}"]
        return check_solve(job, doc)
    if command == "rewrite-ep":
        return check_rewrite(job, doc)
    if command == "horn_classify":
        if (rc == 0) != doc["horn"]:
            return [f"exit code {rc} disagrees with horn={doc['horn']}"]
        return check_horn_classify(job, doc, rc)
    if command == "horn_solve":
        if (rc == 0) != doc["satisfiable"]:
            return [f"exit code {rc} disagrees with satisfiable={doc['satisfiable']}"]
        return check_horn_solve(job, doc, rc, cnf_sat_fn)
    return [f"no checker for command {command!r}"]
