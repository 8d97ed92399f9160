"""Formula ASTs for the pp/ep fragments and their evaluation.

A formula is built from relational atoms R(t1,...,tk), equality atoms
t1 = t2, conjunction, disjunction, existential quantification and the
constant false.  Terms are names; a name that the ambient signature
declares as a constant symbol denotes that constant, every other name is
a variable.  A formula with no disjunction is primitive positive (pp);
with disjunction it is existential positive (ep).  No negation and no
universal quantification exist in this AST.

Evaluation of a pp formula reduces to homomorphism search from its
canonical database (equalities merged by union-find); ep formulas are
evaluated by structural recursion with quantifiers ranging over the
domain.  One renaming walk, _rename, serves disjunction elimination both
for replacing free names and for giving every quantifier fresh variables.

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
Universal quantifiers and negation are rejected.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .structures import (
    DEFAULT_BUDGET,
    FiniteStructure,
    Signature,
    find_homomorphism,
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


_LEAVES = (Atom, Eq, Falsum)


def _children(phi) -> tuple:
    """The direct subformulas of a formula node."""
    if isinstance(phi, _LEAVES):
        return ()
    if isinstance(phi, (And, Or)):
        return phi.parts
    if isinstance(phi, Exists):
        return (phi.body,)
    raise FormulaError(f"not a formula node: {phi!r}")


def _subformulas(phi):
    """phi and all its subformulas, in left-to-right preorder."""
    yield phi
    for child in _children(phi):
        if isinstance(child, _LEAVES):
            yield child
        else:
            yield from _subformulas(child)


def _terms(node) -> tuple:
    """The names in the term positions of an atom or an equality."""
    if isinstance(node, Atom):
        return node.args
    if isinstance(node, Eq):
        return (node.left, node.right)
    return ()


def is_pp(phi) -> bool:
    """True iff the formula contains no disjunction."""
    return not any(isinstance(node, Or) for node in _subformulas(phi))


def _contains_falsum(phi) -> bool:
    return any(isinstance(node, Falsum) for node in _subformulas(phi))


def names_in(phi) -> set:
    """All names occurring in term positions or quantifier prefixes."""
    out = set()
    for node in _subformulas(phi):
        out.update(node.vars if isinstance(node, Exists) else _terms(node))
    return out


def free_names(phi) -> set:
    """Names not bound by any quantifier (constants not yet separated out)."""
    if isinstance(phi, Exists):
        return free_names(phi.body).difference(phi.vars)
    out = set(_terms(phi))
    for child in _children(phi):
        out.update(_terms(child) if isinstance(child, _LEAVES) else free_names(child))
    return out


def free_variables(phi, sig: Signature) -> set:
    """Free variables relative to a signature (its constants are not variables)."""
    return free_names(phi) - set(sig.constants)


class _FreshNames:
    def __init__(self, taken, prefix="_v"):
        self.taken = set(taken)
        self.prefix = prefix
        self.counter = 0

    def __call__(self):
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
    quantified variable is also renamed to fresh(), one call per variable
    in preorder, so that no two quantifiers share a name.
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
            bound = tuple(fresh() for _ in phi.vars)
            inner = {**env, **dict(zip(phi.vars, bound))}
        return Exists(bound, _rename(phi.body, inner, fresh))
    if isinstance(phi, Falsum):
        return phi
    raise FormulaError(f"not a formula node: {phi!r}")


def _validate_symbols(phi, sig: Signature):
    for node in _subformulas(phi):
        if isinstance(node, Atom):
            try:
                ar = sig.arity(node.rel)
            except KeyError:
                raise FormulaError(f"unknown relation symbol {node.rel!r}") from None
            if len(node.args) != ar:
                raise FormulaError(f"arity mismatch: {node.rel} expects {ar} arguments, got {len(node.args)}")
        elif isinstance(node, Exists):
            for v in node.vars:
                if v in sig.constants:
                    raise FormulaError(f"cannot quantify over constant symbol {v!r}")


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


def canonical_structure(phi, sig: Signature):
    """Canonical database of a pp formula: (structure, name -> element map).

    Equality atoms are merged by union-find; every variable (bound, free or
    merely quantified) contributes an element, as does every constant
    symbol of the signature.  Raises TriviallyFalseError on formulas
    containing the constant false.
    """
    if not is_pp(phi):
        raise FormulaError("canonical database is defined for pp formulas only")
    if _contains_falsum(phi):
        raise TriviallyFalseError("formula contains false: trivially false instance")
    _validate_symbols(phi, sig)

    consts = set(sig.constants)
    nodes = sorted((names_in(phi) - consts)) + sorted(consts)
    parent = {x: x for x in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    atoms = []
    for node in _subformulas(phi):
        if isinstance(node, Atom):
            atoms.append(node)
        elif isinstance(node, Eq):
            union(node.left, node.right)

    rank = {r: i for i, r in enumerate(sorted({find(x) for x in nodes}))}
    elem = {x: rank[find(x)] for x in nodes}
    relations = {}
    for atom in atoms:
        relations.setdefault(atom.rel, set()).add(tuple(elem[x] for x in atom.args))
    constants = {c: elem[c] for c in consts}
    db = FiniteStructure(sig, len(rank), relations, constants)
    return db, elem


# -- evaluation --


def _resolve(name, a, env):
    if name in a.const:
        return a.const[name]
    if name in env:
        return env[name]
    raise FormulaError(f"unbound free variable {name!r}")


def _eval_rec(phi, a, env):
    if isinstance(phi, Atom):
        return tuple(_resolve(x, a, env) for x in phi.args) in a.rel[phi.rel]
    if isinstance(phi, Eq):
        return _resolve(phi.left, a, env) == _resolve(phi.right, a, env)
    if isinstance(phi, And):
        return all(_eval_rec(p, a, env) for p in phi.parts)
    if isinstance(phi, Or):
        return any(_eval_rec(p, a, env) for p in phi.parts)
    if isinstance(phi, Falsum):
        return False
    if isinstance(phi, Exists):
        for values in itertools.product(range(a.n), repeat=len(phi.vars)):
            inner = dict(env)
            inner.update(zip(phi.vars, values))
            if _eval_rec(phi.body, a, inner):
                return True
        return False
    raise FormulaError(f"not a formula node: {phi!r}")


def _checked_env(a: FiniteStructure, free: set, assignment) -> dict:
    env = dict(assignment or {})
    missing = free - set(env)
    if missing:
        raise FormulaError(f"unbound free variables: {sorted(missing)}")
    for v, value in env.items():
        if not (isinstance(value, int) and 0 <= value < a.n):
            raise FormulaError(f"assignment value {v}={value!r} outside the domain")
    return env


def _pp_search(a: FiniteStructure, phi, budget: int):
    """Canonical database of a pp formula without false, built once, and a
    search over it: (elem, search), where search(env) is the lexicographically
    least homomorphism from the database to a sending each free variable's
    element to its value under env, or None."""
    db, elem = canonical_structure(phi, a.sig)
    free = sorted(free_variables(phi, a.sig))

    def search(env):
        pinned = {}
        for v in free:
            if pinned.setdefault(elem[v], env[v]) != env[v]:
                return None  # two merged free variables assigned differently
        return find_homomorphism(db, a, pinned=pinned, budget=budget)

    return elem, search


def evaluator(a: FiniteStructure, phi, budget: int = DEFAULT_BUDGET):
    """Truth of phi in a as a function of an assignment of its free variables.

    The formula is checked once and, when it is pp, its canonical database
    is built once; each call then runs one pinned homomorphism search.  ep
    formulas are evaluated recursively.
    """
    _validate_symbols(phi, a.sig)
    free = free_variables(phi, a.sig)
    if not is_pp(phi):
        def decide(env):
            return _eval_rec(phi, a, env)
    elif _contains_falsum(phi):
        def decide(env):
            return False
    else:
        search = _pp_search(a, phi, budget)[1]

        def decide(env):
            return search(env) is not None

    def holds(assignment=None) -> bool:
        return decide(_checked_env(a, free, assignment))

    return holds


def evaluate(a: FiniteStructure, phi, assignment=None, budget: int = DEFAULT_BUDGET) -> bool:
    """Tarskian truth of phi in a under an assignment of its free variables.

    For sentences this is the CSP decision.  The pp fragment is decided by
    homomorphism search from the canonical database, with free variables
    pinned through the assignment; ep formulas are evaluated recursively.
    """
    return evaluator(a, phi, budget)(assignment)


def witness_assignment(a: FiniteStructure, phi, budget: int = DEFAULT_BUDGET):
    """A satisfying assignment for a true sentence, or None.

    pp sentences report values for all their variables, read off the
    homomorphism from the canonical database that decided truth; ep
    sentences report the first assignment, in lexicographic order, of the
    outermost existential block under which the body holds, found by the
    one scan of that block that decides truth.
    """
    _validate_symbols(phi, a.sig)
    _checked_env(a, free_variables(phi, a.sig), None)
    if is_pp(phi):
        if _contains_falsum(phi):
            return None
        elem, search = _pp_search(a, phi, budget)
        h = search({})
        if h is None:
            return None
        return {v: h.map[e] for v, e in elem.items() if v not in a.sig.constants}
    block, body = (phi.vars, phi.body) if isinstance(phi, Exists) else ((), phi)
    for values in itertools.product(range(a.n), repeat=len(block)):
        env = dict(zip(block, values))
        if _eval_rec(body, a, env):
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


def is_locally_refutable(a: FiniteStructure, include_constants: bool = True):
    """Decide local refutability; returns (verdict, certificate).

    On a finite structure, truth of every ep sentence with true atom-
    emptiness value is equivalent to the existence of a diagonal element d
    carrying every nonempty relation as a loop (and equal to every
    constant, unless include_constants is False).  The certificate is such
    a d, or, when the verdict is false, an ep sentence whose emptiness
    value is true but which is false in a.
    """
    (var,) = _numbered_names(1, a.sig.constants)
    atoms = []
    for rname, ar in a.sig.relations:
        if a.rel[rname]:
            atoms.append(Atom(rname, (var,) * ar))
    if include_constants:
        for cname in a.sig.constants:
            atoms.append(Eq(var, cname))

    def holds(d, pool):
        env = {var: d}
        return all(_eval_rec(atm, a, env) for atm in pool)

    for d in range(a.n):
        if holds(d, atoms):
            return True, d
    # Smallest failing atom combination, as a one-variable ep sentence.
    for size in range(1, len(atoms) + 1):
        for combo in itertools.combinations(atoms, size):
            if not any(holds(d, combo) for d in range(a.n)):
                return False, Exists((var,), conj(combo))
    raise AssertionError("unreachable: full atom set must fail when no diagonal exists")


# -- disjunction elimination --


def _is_p4_interpretation(a: FiniteStructure, p4: str) -> bool:
    if p4 not in a.sig.relation_names or a.sig.arity(p4) != 4:
        return False
    want = {
        (u, v, x, y)
        for u, v, x, y in itertools.product(range(a.n), repeat=4)
        if u == v or x == y
    }
    return a.rel[p4] == want


def eliminate_disjunctions(phi, p4: str, template: FiniteStructure | None = None,
                           budget: int = DEFAULT_BUDGET):
    """Rewrite an ep formula into a pp formula using a 4-ary relation p4
    interpreted as (u = v or x = y).

    Each disjunction psi1 | psi2 is replaced, innermost first, by fresh
    copies of both disjuncts together with the selector

        AND over v in vars(psi1), w in vars(psi2) of
            p4(copy1[v], v, copy2[w], w)

    which is equivalent to (copy1 = originals) or (copy2 = originals) by
    distributivity.  A disjunct of the gadget must be independently
    satisfiable; when a template is supplied, unsatisfiable disjuncts are
    detected by evaluation and dropped (this mirrors the underlying
    rewriting argument, which is relative to a fixed template), and the
    template's interpretation of p4 is verified.  Without a template the
    output is equivalent on every structure interpreting p4 correctly in
    which each disjunct is satisfiable.
    """
    if template is not None:
        if not _is_p4_interpretation(template, p4):
            raise FormulaError(f"template does not interpret {p4!r} as (u=v or x=y)")
        constants = set(template.sig.constants)
    else:
        # In a sentence, any name never bound is a constant symbol.
        constants = free_names(phi)

    if is_pp(phi):
        return phi

    fresh = _FreshNames(names_in(phi) | constants)
    phi = _rename(phi, {}, fresh)

    def branch_satisfiable(psi):
        if _contains_falsum(psi):
            return False
        if template is None:
            return True
        fv = sorted(free_names(psi) - constants)
        closed = Exists(tuple(fv), psi) if fv else psi
        return evaluate(template, closed, budget=budget)

    def pad(psi):
        # Every gadget branch needs at least one variable to hang the
        # selector equalities on.
        if free_names(psi) - constants:
            return psi
        t = fresh()
        return And((psi, Eq(t, t)))

    def gadget(psi1, psi2):
        psi1, psi2 = pad(psi1), pad(psi2)
        vars1 = sorted(free_names(psi1) - constants)
        vars2 = sorted(free_names(psi2) - constants)
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
            branches = [rewrite(p) for p in node.parts]
            live = [b for b in branches if branch_satisfiable(b)]
            if not live:
                return FALSE
            result = live[0]
            for nxt in live[1:]:
                result = gadget(result, nxt)
            return result
        raise FormulaError(f"not a formula node: {node!r}")

    return rewrite(phi)


# -- sentence text grammar --

_KEYWORDS = {"exists", "false"}
_REJECTED = {"forall", "not"}
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

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise FormulaError(f"line {tok[2]} col {tok[3]}: expected {kind!r}, found {tok[1]!r}")
        self.pos += 1
        return tok

    def formula(self):
        if self.peek()[0] == "exists":
            self.take("exists")
            names = []
            while self.peek()[0] == "name":
                names.append(self.take("name")[1])
            if not names:
                tok = self.peek()
                raise FormulaError(f"line {tok[2]} col {tok[3]}: 'exists' needs at least one variable")
            self.take(".")
            return Exists(tuple(names), self.formula())
        return self.disj()

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
            inner = self.formula()
            self.take(")")
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

    def bracket(node):
        text = render(node)
        return f"({text})" if isinstance(node, (And, Or, Exists)) else text

    if isinstance(phi, Atom):
        return f"{phi.rel}({', '.join(phi.args)})"
    if isinstance(phi, Eq):
        return f"{phi.left} = {phi.right}"
    if isinstance(phi, Falsum):
        return "false"
    if isinstance(phi, And):
        return " & ".join(bracket(p) for p in phi.parts)
    if isinstance(phi, Or):
        return " | ".join(bracket(p) if isinstance(p, (Or, Exists)) else render(p) for p in phi.parts)
    if isinstance(phi, Exists):
        body = render(phi.body)
        return f"exists {' '.join(phi.vars)} . {body}"
    raise FormulaError(f"not a formula node: {phi!r}")
