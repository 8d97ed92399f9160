"""Formula ASTs for the pp/ep fragments and their evaluation.

A formula is built from relational atoms R(t1,...,tk), equality atoms
t1 = t2, conjunction, disjunction, existential quantification and the
constant false.  Terms are names; a name that the ambient signature
declares as a constant symbol denotes that constant, every other name is
a variable.  A formula with no disjunction is primitive positive (pp);
with disjunction it is existential positive (ep).  No negation and no
universal quantification exist in this AST.

A formula is read in one walk: _walk collects, in one iterative preorder
pass, its atoms and equalities, its names and free names, whether a
disjunction or false occurs, and its first symbol fault.  Every caller
reads each formula once and asks the walk, never a walker of its own, so
a certificate with thousands of atoms is traversed once per use.

Evaluation of a pp formula reduces to homomorphism search from its
canonical database (equalities merged by union-find); ep formulas are
evaluated by structural recursion with quantifiers ranging over the
domain, each assignment of a quantifier block counted against the
budget.  One renaming walk, _rename, serves disjunction elimination both
for replacing free names and for giving every quantifier fresh variables,
and separates the variables of a pp formula that quantifies a name twice
before its canonical database is built.

Sentence text grammar (used by the CLI; '#' starts a comment)::

    formula  :=  'exists' name+ '.' formula  |  disj
    disj     :=  conj ('|' conj)*
    conj     :=  atom ('&' atom)*
    atom     :=  '(' formula ')'  |  'false'
              |  name '(' name (',' name)* ')'  |  name '=' name
    name     :=  a letter or '_', then letters, digits or '_'

Letters and digits are Unicode ones (str.isalpha, str.isalnum), so 'é'
is a name and '²' may follow its first character but not start it.

'&' binds tighter than '|'; 'exists' extends as far right as possible.
Universal quantifiers and negation are rejected, and so are parentheses
nested more than MAX_NESTING deep.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .structures import (
    DEFAULT_BUDGET,
    FiniteStructure,
    Signature,
    budget_meter,
    find_homomorphism,
    is_int,
)


class FormulaError(ValueError):
    """Malformed formula, unknown symbol, arity mismatch or unbound variable."""


class TriviallyFalseError(FormulaError):
    """Raised when a canonical database is requested for a false instance."""


@dataclass(frozen=True)
class Atom:
    rel: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Eq:
    left: str
    right: str


@dataclass(frozen=True)
class And:
    parts: tuple


@dataclass(frozen=True)
class Or:
    parts: tuple


@dataclass(frozen=True)
class Exists:
    vars: tuple[str, ...]
    body: object


@dataclass(frozen=True)
class Falsum:
    pass


FALSE = Falsum()


def conj(parts):
    parts = tuple(parts)
    if len(parts) == 1:
        return parts[0]
    return And(parts)


@dataclass(frozen=True)
class _Walk:
    """What one preorder walk reads off a formula.

    atoms and equalities are listed in preorder; names holds every name in
    a term position or a quantifier prefix, free those not bound by an
    enclosing quantifier (constants not yet separated out).  symbol_error
    is the message of the first symbol fault in preorder (an unknown
    relation, an arity mismatch or a quantified constant) when the walk
    was given a signature, else None.  clean means that every name is
    quantified by at most one block and none is both quantified and free,
    so that each name stands for one variable throughout.  depth is the
    most parentheses that render(phi) nests.
    """

    atoms: list
    equalities: list
    names: set
    free: set
    disjunctive: bool
    false: bool
    symbol_error: str | None
    clean: bool
    depth: int


# The parts of a conjunction or a disjunction that render puts in parentheses.
_BRACKETED = {And: frozenset((And, Or, Exists)), Or: frozenset((Or, Exists))}


def _walk(phi, sig: Signature | None = None) -> _Walk:
    """Read a formula in one iterative left-to-right preorder walk."""
    arity = None if sig is None else dict(sig.relations)
    atoms, equalities, quantified = [], [], set()
    disjunctive = false = rebound = False
    error = None
    # scopes[i]: (names bound there, names in the atoms and equalities there)
    scopes = [(frozenset(), set())]
    # stack: (node, its scope, outer), outer being (the parentheses around
    # its parent, the part types the parent brackets)
    depth = 0
    stack = [(phi, 0, (0, ()))]
    while stack:
        node, scope, outer = stack.pop()
        if isinstance(node, Atom):
            atoms.append(node)
            scopes[scope][1].update(node.args)
            if arity is not None and error is None:
                ar = arity.get(node.rel)
                if ar is None:
                    error = f"unknown relation symbol {node.rel!r}"
                elif len(node.args) != ar:
                    error = f"arity mismatch: {node.rel} expects {ar} arguments, got {len(node.args)}"
        elif isinstance(node, Eq):
            equalities.append(node)
            scopes[scope][1].update((node.left, node.right))
        elif isinstance(node, (And, Or)):
            disjunctive = disjunctive or isinstance(node, Or)
            parens = outer[0] + (type(node) in outer[1])
            depth = max(depth, parens)
            inner = (parens, _BRACKETED[type(node)])
            stack.extend([(part, scope, inner) for part in reversed(node.parts)])
        elif isinstance(node, Exists):
            parens = outer[0] + (type(node) in outer[1])
            depth = max(depth, parens)
            rebound = rebound or not quantified.isdisjoint(node.vars)
            quantified.update(node.vars)
            if arity is not None and error is None:
                for v in node.vars:
                    if v in sig.constants:
                        error = f"cannot quantify over constant symbol {v!r}"
                        break
            scopes.append((scopes[scope][0].union(node.vars), set()))
            stack.append((node.body, len(scopes) - 1, (parens, ())))
        elif isinstance(node, Falsum):
            false = True
        else:
            raise FormulaError(f"not a formula node: {node!r}")
    names = quantified.union(*[leaf for _, leaf in scopes])
    free = set().union(*[leaf - bound for bound, leaf in scopes])
    clean = not rebound and quantified.isdisjoint(free)
    return _Walk(atoms, equalities, names, free, disjunctive, false, error, clean, depth)


def _apart_names(walk: _Walk, avoid):
    """A namer for _rename that separates the variables of an unclean
    formula: a quantified name keeps its first binding in preorder unless
    it also occurs free, and every other binding gets a fresh name outside
    the formula's names and avoid."""
    fresh = _FreshNames(walk.names | set(avoid))
    used = set(walk.free)

    def name(v):
        if v in used:
            return fresh()
        used.add(v)
        return v

    return name


def _check_symbols(walk: _Walk):
    if walk.symbol_error is not None:
        raise FormulaError(walk.symbol_error)


def is_pp(phi) -> bool:
    """True iff the formula contains no disjunction."""
    return not _walk(phi).disjunctive


def free_variables(phi, sig: Signature) -> set:
    """Free variables relative to a signature (its constants are not variables)."""
    return _walk(phi).free.difference(sig.constants)


class _FreshNames:
    def __init__(self, taken, prefix="_v"):
        self.taken = set(taken)
        self.prefix = prefix
        self.counter = 0

    def __call__(self, _name=None):
        while True:
            name = f"{self.prefix}{self.counter}"
            self.counter += 1
            if name not in self.taken:
                self.taken.add(name)
                return name


def _rename(phi, env: dict, fresh=None):
    """Replace names through env, which maps a name to its new name.

    Without fresh, only free occurrences are replaced: a quantifier keeps
    its variables and shadows their entries of env.  With fresh, every
    quantified variable v is also renamed to fresh(v), one call per
    variable in preorder.
    """
    if isinstance(phi, Atom):
        return Atom(phi.rel, tuple(env.get(x, x) for x in phi.args))
    if isinstance(phi, Eq):
        return Eq(env.get(phi.left, phi.left), env.get(phi.right, phi.right))
    if isinstance(phi, (And, Or)):
        return type(phi)(tuple(_rename(p, env, fresh) for p in phi.parts))
    if isinstance(phi, Exists):
        if fresh is None:
            bound = phi.vars
            inner = {k: v for k, v in env.items() if k not in bound}
        else:
            bound = tuple(fresh(v) for v in phi.vars)
            inner = {**env, **dict(zip(phi.vars, bound))}
        return Exists(bound, _rename(phi.body, inner, fresh))
    if isinstance(phi, Falsum):
        return phi
    raise FormulaError(f"not a formula node: {phi!r}")


# -- canonical queries and canonical databases --


def _numbered_names(count: int, avoid, prefixes=("x", "y", "v", "w", "_x")) -> tuple:
    """count distinct names p0, p1, ... for the first prefix p that avoids
    a name set.  Past the given prefixes come the last one with one, two,
    ... more leading underscores, so the search always ends: a prefix
    longer than every avoided name avoids them all."""
    avoid = set(avoid)
    longer = ("_" * k + prefixes[-1] for k in itertools.count(1))
    for prefix in itertools.chain(prefixes, longer):
        names = tuple(f"{prefix}{i}" for i in range(count))
        if avoid.isdisjoint(names):
            return names


def _fact_formula(a: FiniteStructure, variables: tuple, extra=()) -> Exists:
    """exists variables . (every fact of a) & (constant equalities) & extra.

    variables[e] names element e.  Facts come relation by relation in
    signature order, tuples sorted; each constant c of the signature adds
    the equality variables[e] = c pinning its element e.  An empty
    conjunction becomes the trivial equality variables[0] = variables[0],
    so the rendered sentence stays inside the grammar.
    """
    atoms = [Atom(rname, tuple(variables[v] for v in t))
             for rname, _ in a.sig.relations for t in sorted(a.rel[rname])]
    atoms += [Eq(variables[a.const[cname]], cname) for cname in a.sig.constants]
    atoms += extra
    return Exists(variables, conj(atoms or [Eq(variables[0], variables[0])]))


def canonical_query(a: FiniteStructure) -> Exists:
    """The pp sentence listing all positive facts of a, one variable per
    element; constants are folded in as equalities x_i = c."""
    return _fact_formula(a, _numbered_names(a.n, a.sig.constants))


def canonical_structure(phi, sig: Signature, walk: _Walk | None = None):
    """Canonical database of a pp formula: (structure, name -> element map).

    Equality atoms are merged by union-find; every variable (bound, free or
    merely quantified) contributes an element, as does every constant
    symbol of the signature.  A formula that is not clean (see _Walk) is
    first renamed apart by _apart_names, so that each binding is its own
    variable; the map then also holds the fresh names.  Raises
    FormulaError on a disjunction, then TriviallyFalseError on formulas
    containing the constant false, then FormulaError on a symbol fault.  A
    caller that has read the formula already passes walk, _walk(phi, sig).
    """
    walk = walk or _walk(phi, sig)
    if walk.disjunctive:
        raise FormulaError("canonical database is defined for pp formulas only")
    if walk.false:
        raise TriviallyFalseError("formula contains false: trivially false instance")
    _check_symbols(walk)
    if not walk.clean:
        walk = _walk(_rename(phi, {}, _apart_names(walk, sig.constants)))

    nodes = sorted(walk.names.difference(sig.constants)) + list(sig.constants)
    if not nodes:
        raise FormulaError("a formula without names or constants has no canonical database")
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for eq in walk.equalities:
        rx, ry = find(eq.left), find(eq.right)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    rank = {r: i for i, r in enumerate(sorted({find(x) for x in nodes}))}
    elem = {x: rank[find(x)] for x in nodes}
    relations = {rname: set() for rname, _ in sig.relations}
    for atom in walk.atoms:
        relations[atom.rel].add(tuple([elem[x] for x in atom.args]))
    db = FiniteStructure._from_checked(
        sig, len(rank), {rname: frozenset(ts) for rname, ts in relations.items()},
        {c: elem[c] for c in sig.constants})
    return db, elem


# -- evaluation --


def _resolve(name, a, env):
    if name in a.const:
        return a.const[name]
    if name in env:
        return env[name]
    raise FormulaError(f"unbound free variable {name!r}")


def _assignment_meter(budget: int):
    return budget_meter(budget, f"ep evaluation exceeded budget of {budget} quantifier assignments")


def _eval_rec(phi, a, env, step):
    """Truth of phi in a under env by structural recursion; step (see
    budget_meter) is called once per quantifier assignment tried."""
    if isinstance(phi, Atom):
        return tuple(_resolve(x, a, env) for x in phi.args) in a.rel[phi.rel]
    if isinstance(phi, Eq):
        return _resolve(phi.left, a, env) == _resolve(phi.right, a, env)
    if isinstance(phi, And):
        return all(_eval_rec(p, a, env, step) for p in phi.parts)
    if isinstance(phi, Or):
        return any(_eval_rec(p, a, env, step) for p in phi.parts)
    if isinstance(phi, Falsum):
        return False
    if isinstance(phi, Exists):
        for values in itertools.product(range(a.n), repeat=len(phi.vars)):
            step()
            inner = dict(env)
            inner.update(zip(phi.vars, values))
            if _eval_rec(phi.body, a, inner, step):
                return True
        return False
    raise FormulaError(f"not a formula node: {phi!r}")


def _checked_env(a: FiniteStructure, free: set, assignment) -> dict:
    env = dict(assignment or {})
    missing = free - set(env)
    if missing:
        raise FormulaError(f"unbound free variables: {sorted(missing)}")
    for v, value in env.items():
        if not (is_int(value) and 0 <= value < a.n):
            raise FormulaError(f"assignment value {v}={value!r} outside the domain")
    return env


def _pp_search(a: FiniteStructure, phi, budget: int, walk: _Walk, assignment=None):
    """Canonical database of a pp formula without false and one search over
    it: (elem, h), with h the lexicographically least homomorphism from the
    database to a sending each free variable's element to its value under
    assignment (checked once the database is built), or None."""
    db, elem = canonical_structure(phi, a.sig, walk)
    free = walk.free.difference(a.sig.constants)
    env = _checked_env(a, free, assignment)
    pinned = {}
    for v in free:
        if pinned.setdefault(elem[v], env[v]) != env[v]:
            return elem, None  # two merged free variables assigned differently
    return elem, find_homomorphism(db, a, pinned=pinned, budget=budget)


def evaluate(a: FiniteStructure, phi, assignment=None, budget: int = DEFAULT_BUDGET) -> bool:
    """Tarskian truth of phi in a under an assignment of its free variables.

    For sentences this is the CSP decision.  The pp fragment is decided by
    one homomorphism search from the canonical database, with free
    variables pinned through the assignment; a formula containing false is
    false; ep formulas are evaluated recursively.  Faults are reported in
    the order: symbol fault, canonical-database fault, assignment fault.
    """
    walk = _walk(phi, a.sig)
    _check_symbols(walk)
    if walk.disjunctive or walk.false:
        env = _checked_env(a, walk.free.difference(a.sig.constants), assignment)
        return walk.disjunctive and _eval_rec(phi, a, env, _assignment_meter(budget))
    return _pp_search(a, phi, budget, walk, assignment)[1] is not None


def witness_assignment(a: FiniteStructure, phi, budget: int = DEFAULT_BUDGET):
    """A satisfying assignment for a true sentence, or None.

    pp sentences report values for all their variables, read off the
    homomorphism from the canonical database that decided truth (a name
    quantified more than once reports its first binding in preorder); ep
    sentences report the first assignment, in lexicographic order, of the
    outermost existential block under which the body holds, found by the
    one scan of that block that decides truth.
    """
    walk = _walk(phi, a.sig)
    _check_symbols(walk)
    _checked_env(a, walk.free.difference(a.sig.constants), None)
    if not walk.disjunctive:
        if walk.false:
            return None
        elem, h = _pp_search(a, phi, budget, walk)
        if h is None:
            return None
        return {v: h.map[e] for v, e in elem.items() if v in walk.names and v not in a.sig.constants}
    block, body = (phi.vars, phi.body) if isinstance(phi, Exists) else ((), phi)
    step = _assignment_meter(budget)
    for values in itertools.product(range(a.n), repeat=len(block)):
        step()
        env = dict(zip(block, values))
        if _eval_rec(body, a, env, step):
            return env
    return None


# -- local refutability --


def local_refutation_value(a: FiniteStructure, phi) -> bool:
    """Boolean value of the sentence after replacing atoms over empty
    relations by false and every other atom (equalities included) by true;
    quantifiers are dropped.  This is the truth of phi in the one-element
    structure whose relations are full exactly where those of a are
    nonempty."""
    point = FiniteStructure(a.sig, 1,
                            {rname: [(0,) * ar] for rname, ar in a.sig.relations if a.rel[rname]},
                            dict.fromkeys(a.sig.constants, 0))
    return evaluate(point, phi, dict.fromkeys(free_variables(phi, a.sig), 0))


def is_locally_refutable(a: FiniteStructure):
    """Decide local refutability; returns (verdict, certificate).

    On a finite structure, truth of every ep sentence with true atom-
    emptiness value is equivalent to the existence of a diagonal element d
    carrying every nonempty relation as a loop and equal to every constant.
    One pass over the relations reads off each loop set; the certificate
    is the least d in all of them, or, when the verdict is false, the
    smallest combination of atoms R(x0, ..., x0) and x0 = c, in signature
    order, whose sets share no element, as an ep sentence whose emptiness
    value is true but which is false in a.
    """
    (var,) = _numbered_names(1, a.sig.constants)
    atoms = [Atom(rname, (var,) * ar) for rname, ar in a.sig.relations if a.rel[rname]]
    holds = [a._projection(atom.rel, tuple(range(len(atom.args))))[1] for atom in atoms]
    atoms += [Eq(var, cname) for cname in a.sig.constants]
    holds += [{a.const[cname]} for cname in a.sig.constants]

    def shared(indices):
        first, *rest = indices
        return holds[first].intersection(*[holds[i] for i in rest])

    common = shared(range(len(atoms))) if atoms else {0}
    if common:
        return True, min(common)
    for size in range(1, len(atoms) + 1):
        for combo in itertools.combinations(range(len(atoms)), size):
            if not shared(combo):
                return False, Exists((var,), conj([atoms[i] for i in combo]))
    raise AssertionError("unreachable: full atom set must fail when no diagonal exists")


# -- disjunction elimination --


def _is_p4_interpretation(a: FiniteStructure, p4: str) -> bool:
    """Whether p4 holds all (u, v, x, y) with u = v or x = y, 2n**3 - n**2
    of them, and no other tuple."""
    if p4 not in a.sig.relation_names or a.sig.arity(p4) != 4:
        return False
    tuples = a.rel[p4]
    return (len(tuples) == 2 * a.n ** 3 - a.n ** 2
            and all(u == v or x == y for u, v, x, y in tuples))


def _check_nesting(depth: int):
    if depth > MAX_NESTING:
        raise FormulaError(f"the rewriting would nest parentheses {depth} deep, "
                           f"over the limit of {MAX_NESTING}")


def eliminate_disjunctions(phi, p4: str, template: FiniteStructure, budget: int = DEFAULT_BUDGET):
    """Rewrite an ep formula into a pp formula equivalent to it on template,
    using a 4-ary relation p4 that template interprets as (u = v or x = y).

    Each disjunction psi1 | psi2 is replaced, innermost first, by fresh
    copies of both disjuncts together with the selector

        AND over v in vars(psi1), w in vars(psi2) of
            p4(copy1[v], v, copy2[w], w)

    which is equivalent to (copy1 = originals) or (copy2 = originals) by
    distributivity.  A disjunct of the gadget must be independently
    satisfiable, so disjuncts unsatisfiable on the template are detected
    by evaluation and dropped (this mirrors the underlying rewriting
    argument, which is relative to a fixed template), and the template's
    interpretation of p4 is verified first.  A disjunct that is itself a
    disjunction (under any quantifiers) is not evaluated: its rewriting is
    FALSE or built from satisfiable disjuncts, so satisfiable by
    construction.  A rewriting contains FALSE only when it is FALSE.  A
    satisfiable disjunct without variables is true on the template, and
    the disjunction is rewritten to it.  Each gadget nests its first
    disjunct one level deeper, so a FormulaError is raised before a
    rewriting whose rendering would nest parentheses deeper than
    MAX_NESTING is built: every rewriting re-parses.
    """
    if not _is_p4_interpretation(template, p4):
        raise FormulaError(f"template does not interpret {p4!r} as (u=v or x=y)")
    walk = _walk(phi)
    if not walk.disjunctive:
        return phi

    constants = set(template.sig.constants)
    fresh = _FreshNames(walk.names | constants)
    phi = _rename(phi, {}, fresh)

    def branch_satisfiable(psi):
        fv = sorted(free_variables(psi, template.sig))
        closed = Exists(tuple(fv), psi) if fv else psi
        return evaluate(template, closed, budget=budget)

    def is_disjunction(node):
        while isinstance(node, Exists):
            node = node.body
        return isinstance(node, Or)

    def conjunct(psi):
        # psi's variables, and how deep it nests parentheses as a conjunct
        branch = _walk(psi)
        return sorted(branch.free - constants), branch.depth + isinstance(psi, (And, Or, Exists))

    def gadget(psi1, psi2):
        (vars1, depth1), (vars2, depth2) = conjunct(psi1), conjunct(psi2)
        if not vars1 or not vars2:
            # a satisfiable disjunct without variables holds on the
            # template, and so does the disjunction
            return psi2 if vars1 else psi1
        _check_nesting(max(depth1, depth2))
        copy1 = {v: fresh() for v in vars1}
        copy2 = {w: fresh() for w in vars2}
        selector = [Atom(p4, (copy1[v], v, copy2[w], w)) for v in vars1 for w in vars2]
        body = conj([_rename(psi1, copy1), _rename(psi2, copy2)] + selector)
        return Exists(tuple(copy1[v] for v in vars1) + tuple(copy2[w] for w in vars2), body)

    def rewrite(node):
        if isinstance(node, (Atom, Eq, Falsum)):
            return node
        if isinstance(node, And):
            parts = [rewrite(p) for p in node.parts]
            if any(isinstance(p, Falsum) for p in parts):
                return FALSE
            return conj(parts)
        if isinstance(node, Exists):
            body = rewrite(node.body)
            return FALSE if isinstance(body, Falsum) else Exists(node.vars, body)
        if isinstance(node, Or):
            branches = [(p, rewrite(p)) for p in node.parts]
            live = [b for p, b in branches
                    if (not isinstance(b, Falsum) if is_disjunction(p) else branch_satisfiable(b))]
            if not live:
                return FALSE
            result = live[0]
            for nxt in live[1:]:
                result = gadget(result, nxt)
            return result
        raise FormulaError(f"not a formula node: {node!r}")

    out = rewrite(phi)
    _check_nesting(_walk(out).depth)
    return out


# -- sentence text grammar --

_KEYWORDS = {"exists", "false"}
_REJECTED = {"forall", "not"}
# The parser recurses through four calls per parenthesis level, and the
# walkers that render, rename or evaluate a formula through at most four,
# so this depth keeps every accepted sentence inside the interpreter's
# default recursion limit of 1000 with room left for the caller's frames.
MAX_NESTING = 200
# The search skips blanks (" \t\r"), and a comment yields no token; a
# newline starts the next line.  A word that starts with a digit, like any
# other character outside the grammar, is reported at its first character.
_TOKEN = re.compile(r"#[^\n]*|(?P<newline>\n)|(?P<punct>[()&|=.,])|(?P<word>\w+)|(?P<other>[^ \t\r])")


def _tokenize(text: str):
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind, lexeme, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "punct":
            tokens.append((lexeme, lexeme, line, col))
        elif kind == "word" and (lexeme[0].isalpha() or lexeme[0] == "_"):
            if lexeme in _REJECTED:
                raise FormulaError(f"line {line} col {col}: {lexeme!r} is not part of the ep fragment")
            tokens.append((lexeme if lexeme in _KEYWORDS else "name", lexeme, line, col))
        elif kind is not None:
            raise FormulaError(f"line {line} col {col}: unexpected character {lexeme[0]!r}")
    # The end of input is placed where a trailing comment starts.
    tokens.append(("end", "", line, len(text[line_start:].partition("#")[0]) + 1))
    return tokens


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise FormulaError(f"line {tok[2]} col {tok[3]}: expected {kind!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def formula(self):
        # one loop for a run of quantifier blocks: they add no recursion
        blocks = []
        while self.peek()[0] == "exists":
            self.take("exists")
            names = []
            while self.peek()[0] == "name":
                names.append(self.take("name")[1])
            if not names:
                tok = self.peek()
                raise FormulaError(f"line {tok[2]} col {tok[3]}: 'exists' needs at least one variable")
            self.take(".")
            blocks.append(tuple(names))
        phi = self.disj()
        for names in reversed(blocks):
            phi = Exists(names, phi)
        return phi

    def disj(self):
        parts = [self.conj()]
        while self.peek()[0] == "|":
            self.take("|")
            parts.append(self.conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conj(self):
        parts = [self.atom()]
        while self.peek()[0] == "&":
            self.take("&")
            parts.append(self.atom())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def atom(self):
        tok = self.peek()
        if tok[0] == "(":
            self.take("(")
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise FormulaError(f"line {tok[2]} col {tok[3]}: parentheses nested "
                                   f"more than {MAX_NESTING} deep")
            inner = self.formula()
            self.take(")")
            self.depth -= 1
            return inner
        if tok[0] == "false":
            self.take("false")
            return FALSE
        name = self.take("name")[1]
        if self.peek()[0] == "(":
            self.take("(")
            args = [self.take("name")[1]]
            while self.peek()[0] == ",":
                self.take(",")
                args.append(self.take("name")[1])
            self.take(")")
            return Atom(name, tuple(args))
        self.take("=")
        other = self.take("name")[1]
        return Eq(name, other)


def parse_sentence(text: str):
    parser = _Parser(_tokenize(text))
    phi = parser.formula()
    parser.take("end")
    return phi


def render(phi) -> str:
    """Formula to sentence-grammar text; parse_sentence(render(phi)) == phi."""
    if isinstance(phi, Atom):
        return f"{phi.rel}({', '.join(phi.args)})"
    if isinstance(phi, Eq):
        return f"{phi.left} = {phi.right}"
    if isinstance(phi, Falsum):
        return "false"
    if isinstance(phi, (And, Or)):
        nested = _BRACKETED[type(phi)]
        parts = [f"({render(p)})" if type(p) in nested else render(p) for p in phi.parts]
        return (" | " if isinstance(phi, Or) else " & ").join(parts)
    if isinstance(phi, Exists):
        body = render(phi.body)
        return f"exists {' '.join(phi.vars)} . {body}"
    raise FormulaError(f"not a formula node: {phi!r}")
