"""Independent brute-force oracles.

Everything here is deliberately written against the definitions, not
against the library's search machinery: maps are enumerated exhaustively
with itertools.product and checked by direct preservation tests, truth is
decided by assignment enumeration, and pp-definable relation families are
generated by closing under the relational constructions (permutation,
identification, projection, product, intersection) rather than by the
indicator construction the library uses.  Eight sections are different:
they keep earlier library code verbatim as a reference: the Fraction
linear-algebra kernel of linear_horn, the Q(sqrt2) field and mixing map
with which linear_horn once decided mix preservation, the formula-layer
code (renaming, tokenizing, local refutability, the P4 check and the
separate walkers over a formula), the tuple-by-tuple powers and plan
compiler of structures, the pairwise pp-type classes of galois,
galois's one-search pp-definability decision on the indicator power of
all of a relation's tuples, the formula layer's separate pp path,
one pinned search from the canonical database, and canonical_form's walk
over every leaf of individualization-refinement.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter

from cspbench import formulas
from cspbench.duality import _all_tuples
from cspbench.formulas import (And, Atom, Eq, Exists, Falsum, FormulaError, Or,
                               TriviallyFalseError, _FreshNames, _numbered_names, conj)
from cspbench.clones import OperationTable
from cspbench.galois import PpDefinabilityCertificate
from cspbench.linear_horn import LinearLiteral
from cspbench.structures import (DEFAULT_BUDGET, BudgetExceededError, FiniteStructure,
                                 Signature, _images, encode_tuple, find_homomorphism)


def all_maps(n_source, n_target):
    return itertools.product(range(n_target), repeat=n_source)


def is_hom_map(a, b, h):
    for rname, _ in a.sig.relations:
        for t in a.rel[rname]:
            if tuple(h[x] for x in t) not in b.rel[rname]:
                return False
    return all(h[a.const[c]] == b.const[c] for c in a.const)


def brute_homs(a, b):
    """All homomorphism maps a -> b by filtering every function."""
    return [h for h in all_maps(a.n, b.n) if is_hom_map(a, b, h)]


def op_preserves(table, k, a):
    """Does the k-ary operation given by a flat row-major table preserve a?
    Direct column-wise check over all combinations of relation rows."""
    n = a.n

    def apply(args):
        idx = 0
        for v in args:
            idx = idx * n + v
        return table[idx]

    for rname, ar in a.sig.relations:
        rows = sorted(a.rel[rname])
        for choice in itertools.product(rows, repeat=k):
            image = tuple(apply(tuple(choice[j][p] for j in range(k))) for p in range(ar))
            if image not in a.rel[rname]:
                return False
    return all(apply((v,) * k) == v for v in a.const.values())


def brute_polymorphisms(a, k):
    """All k-ary polymorphism tables by filtering all n**(n**k) tables."""
    n = a.n
    out = []
    for table in itertools.product(range(n), repeat=n ** k):
        if op_preserves(table, k, a):
            out.append(table)
    return out


def brute_evaluate(a, phi, env=None):
    """Tarskian truth by direct recursion and assignment enumeration."""
    env = dict(env or {})

    def term(name, e):
        if name in a.const:
            return a.const[name]
        return e[name]

    def rec(node, e):
        if isinstance(node, Atom):
            return tuple(term(x, e) for x in node.args) in a.rel[node.rel]
        if isinstance(node, Eq):
            return term(node.left, e) == term(node.right, e)
        if isinstance(node, And):
            return all(rec(p, e) for p in node.parts)
        if isinstance(node, Or):
            return any(rec(p, e) for p in node.parts)
        if isinstance(node, Falsum):
            return False
        if isinstance(node, Exists):
            return any(
                rec(node.body, {**e, **dict(zip(node.vars, vals))})
                for vals in itertools.product(range(a.n), repeat=len(node.vars))
            )
        raise TypeError(node)

    return rec(phi, env)


def brute_witness(a, phi):
    """The least assignment, in lexicographic order, of the outermost
    existential block under which the body holds by brute_evaluate, or
    None; a name the block lists twice takes its value at its last place."""
    block, body = (phi.vars, phi.body) if isinstance(phi, Exists) else ((), phi)
    for values in itertools.product(range(a.n), repeat=len(block)):
        env = dict(zip(block, values))
        if brute_evaluate(a, body, env):
            return env
    return None


def essential_coordinate_count(table, n, k):
    """Number of coordinates the operation really depends on."""

    def apply(args):
        idx = 0
        for v in args:
            idx = idx * n + v
        return table[idx]

    essential = 0
    for i in range(k):
        depends = False
        for t in itertools.product(range(n), repeat=k):
            for v in range(n):
                if v != t[i] and apply(t[:i] + (v,) + t[i + 1:]) != apply(t):
                    depends = True
                    break
            if depends:
                break
        essential += depends
    return essential


def brute_pointed_hom(a, s, t):
    """Is there an endomorphism of a sending the tuple s to the tuple t?"""
    for h in all_maps(a.n, a.n):
        if all(h[x] == y for x, y in zip(s, t)) and is_hom_map(a, a, h):
            return True
    return False


def pp_type_classes(a, n):
    """(classes, maximal) of the n-tuples of a under mutual pp-type
    containment, decided pair by pair with brute_pointed_hom; the two loops
    are galois.count_maximal_pp_types as it was before it read both off
    up-sets, kept verbatim."""
    tuples = list(itertools.product(range(a.n), repeat=n))
    leq = {}
    for s in tuples:
        for t in tuples:
            leq[s, t] = brute_pointed_hom(a, s, t)

    classes = []
    assigned = {}
    for s in tuples:
        for idx, cls in enumerate(classes):
            rep = cls[0]
            if leq[s, rep] and leq[rep, s]:
                cls.append(s)
                assigned[s] = idx
                break
        else:
            assigned[s] = len(classes)
            classes.append([s])

    maximal = []
    for idx, cls in enumerate(classes):
        rep = cls[0]
        dominated = any(
            leq[rep, other[0]] and not leq[other[0], rep]
            for j, other in enumerate(classes) if j != idx
        )
        if not dominated:
            maximal.append(idx)
    return classes, maximal


def reference_is_pp_definable(a, r, budget=DEFAULT_BUDGET):
    """(verdict, certificate) for the relation r of a, decided by one image
    search on the indicator power(a, t) of all t tuples of r: r is
    pp-definable iff every image of r's columns under the homomorphisms
    power(a, t) -> a lies in r.  On a negative the certificate holds the
    least t-ary polymorphism with the first image outside r; a positive
    has none.  This is galois.is_pp_definable as it was before it grew a
    generating subset, kept verbatim without the definition it
    synthesized; the power comes from the reference power below."""
    if not r.tuples:
        return True, None
    rows = tuple(sorted(r.tuples))
    pw = power(a, len(rows), budget)
    columns = [encode_tuple(tuple(row[i] for row in rows), a.n) for i in range(r.arity)]
    for image, least in _images(pw, a, columns, budget):
        if image not in r.tuples:
            f = OperationTable(a.n, len(rows), least())
            return False, PpDefinabilityCertificate(
                False, violating_operation=f, input_rows=rows, violating_tuple=image)
    return True, None


# -- pp-definable relation generation on the 2-element domain --
#
# Relations of arity m over {0, 1} are bitmasks over 2**m row-major tuple
# indices.  The family generated from the structure's relations and the
# equality relation by column permutation, column identification,
# projection, product and intersection, together with the empty relation
# (definable by the pp formula false), is exactly the pp-definable family;
# arities are capped, which can only under-generate, and the acceptance
# cross-check against the library guards the cap.


def _encode(t):
    idx = 0
    for v in t:
        idx = idx * 2 + v
    return idx


def _tuples(m):
    return list(itertools.product(range(2), repeat=m))


def _mask(m, tuples):
    out = 0
    for t in tuples:
        out |= 1 << _encode(t)
    return out


def _mask_tuples(m, mask):
    return [t for t in _tuples(m) if mask >> _encode(t) & 1]


def generate_pp_definable(a, max_arity=4):
    """All pp-definable relations of arity <= max_arity over a 2-element
    structure, as {arity: set of bitmasks}; closure to a fixed point."""
    assert a.n == 2 and not a.const
    families = {m: set() for m in range(1, max_arity + 1)}
    work = []

    def add(m, mask):
        if m <= max_arity and mask not in families[m]:
            families[m].add(mask)
            work.append((m, mask))

    for m in range(1, max_arity + 1):
        add(m, 0)  # the pp formula false
    add(2, _mask(2, [(0, 0), (1, 1)]))  # equality
    for rname, ar in a.sig.relations:
        add(ar, _mask(ar, a.rel[rname]))

    while work:
        m, mask = work.pop()
        tuples = _mask_tuples(m, mask)
        # column permutations
        for perm in itertools.permutations(range(m)):
            add(m, _mask(m, [tuple(t[p] for p in perm) for t in tuples]))
        if m > 1:
            # identification of two columns, dropping the second
            for i, j in itertools.combinations(range(m), 2):
                kept = [t[:j] + t[j + 1:] for t in tuples if t[i] == t[j]]
                add(m - 1, _mask(m - 1, kept))
            # projection (drop a column)
            for j in range(m):
                add(m - 1, _mask(m - 1, [t[:j] + t[j + 1:] for t in tuples]))
        # intersections with everything of the same arity
        for other in list(families[m]):
            add(m, mask & other)
        # products with everything small enough
        for m2 in range(1, max_arity - m + 1):
            for other in list(families[m2]):
                prod = 0
                for idx2 in range(1 << m2):
                    if other >> idx2 & 1:
                        for idx1 in range(1 << m):
                            if mask >> idx1 & 1:
                                prod |= 1 << (idx1 << m2 | idx2)
                add(m + m2, prod)
    return families


def pp_definable_masks(a, arity, max_arity=4):
    return generate_pp_definable(a, max_arity)[arity]


def relation_mask(tuples):
    m = len(next(iter(tuples))) if tuples else None
    assert m is not None
    return _mask(m, tuples)


# -- complete satisfiability of linear CNFs --

# The Fraction kernel that linear_horn used before its rows became
# integer vectors, kept verbatim: _EqSystem, _assume and conj_sat.


class _EqSystem:
    """Row-reduced system of linear equalities over Q."""

    def __init__(self, variables):
        self.vars = sorted(variables)
        self.index = {v: i for i, v in enumerate(self.vars)}
        self.rows = []  # each row: (coeff vector over self.vars, rhs, pivot index)
        self.inconsistent = False

    def copy(self) -> "_EqSystem":
        """A copy that add() can extend without changing this system: the
        row list is new, the row vectors are shared."""
        other = _EqSystem.__new__(_EqSystem)
        other.vars, other.index = self.vars, self.index
        other.rows = list(self.rows)
        other.inconsistent = self.inconsistent
        return other

    def _vector(self, lit: LinearLiteral):
        vec = [Fraction(0)] * len(self.vars)
        for v, c in lit.coeffs:
            vec[self.index[v]] = c
        return vec, lit.const

    def reduce(self, vec, rhs):
        vec = list(vec)
        for rvec, rrhs, pivot in self.rows:
            factor = vec[pivot]
            if factor:
                for j in range(pivot, len(vec)):
                    if rvec[j]:
                        vec[j] -= factor * rvec[j]
                rhs = rhs - factor * rrhs
        return vec, rhs

    def add(self, lit: LinearLiteral) -> bool:
        """Add an equality; returns False when it makes the system inconsistent."""
        vec, rhs = self.reduce(*self._vector(lit))
        if all(c == 0 for c in vec):
            if rhs != 0:
                self.inconsistent = True
                return False
            return True
        pivot = next(i for i, c in enumerate(vec) if c != 0)
        lead = vec[pivot]
        vec = [c / lead if c else c for c in vec]
        rhs = rhs / lead
        # back-substitute into existing rows to keep reduced form; rows are
        # replaced, never changed in place, so copies may share them.  A
        # changed row keeps its pivot: vec is zero before its own pivot,
        # which lies past the pivot of every row nonzero there
        new_rows = []
        for rvec, rrhs, rpivot in self.rows:
            if rvec[pivot] != 0:
                f = rvec[pivot]
                rvec = [c - f * nc if nc else c for c, nc in zip(rvec, vec)]
                rrhs = rrhs - f * rhs
            new_rows.append((rvec, rrhs, rpivot))
        new_rows.append((vec, rhs, pivot))
        self.rows = new_rows
        return True

    def entails(self, lit: LinearLiteral) -> bool:
        """Is the equality a linear consequence of the system?"""
        if self.inconsistent:
            return True
        vec, rhs = self.reduce(*self._vector(lit))
        return all(c == 0 for c in vec) and rhs == 0

    def point_avoiding(self, avoid_eqs) -> dict:
        """A solution of the system violating every given equality, found by
        scanning moment-curve values of the free parameters.  Each equality
        must not be entailed; then it excludes at most len(free) parameter
        values, so the scan is guaranteed to stop."""
        assert not self.inconsistent
        pivots = {pivot: (rvec, rrhs) for rvec, rrhs, pivot in self.rows}
        free = [i for i in range(len(self.vars)) if i not in pivots]
        last = len(avoid_eqs) * max(1, len(free)) + 1
        for t in range(last + 1):
            values = [Fraction(0)] * len(self.vars)
            for pos, i in enumerate(free):
                values[i] = Fraction(t) ** (pos + 1)
            for i, (rvec, rrhs) in pivots.items():
                values[i] = rrhs - sum(rvec[j] * values[j] for j in free if rvec[j] != 0)
            point = dict(zip(self.vars, values))
            if all(not eq.holds(point) for eq in avoid_eqs):
                return point
        raise AssertionError("point_avoiding called with an entailed equality")


def _assume(state, lit: LinearLiteral, positive: bool):
    """One theory step: the state (system, avoid) extended by lit read as
    an equality (positive) or as a disequality, or None when the extended
    conjunction is unsatisfiable.

    The system is row-reduced and consistent; avoid lists, in the order
    they were assumed, the underlying equalities of the non-trivial
    disequalities, none of which the system entails.  The given state is
    never changed: an equality is added to a copy of the system, which
    shares the row vectors, because _EqSystem.add builds new vectors
    instead of changing a row in place.
    """
    system, avoid = state
    eq = LinearLiteral(lit.coeffs, lit.const, True)
    if eq.is_trivial:  # 0 = d holds iff d = 0, and 0 != d iff d != 0
        return state if (eq.const == 0) == positive else None
    if positive:
        system = system.copy()
        if not system.add(eq) or any(system.entails(a) for a in avoid):
            return None
        return system, avoid
    if system.entails(eq):
        return None
    return system, avoid + [eq]


def conj_sat(eqs, neqs, extra_vars=()):
    """Satisfiability of a conjunction of equality and disequality literals
    over Q; returns a witness point (dict var -> Fraction) or None.

    Satisfiable iff the equalities are consistent and entail none of the
    disequalities' underlying equalities (finitely many proper affine
    subspaces cannot cover the solution space over Q).  Literals are used
    by position: each member of eqs is read as an equality and each member
    of neqs as a disequality, whatever its polarity flag says.
    """
    variables = set(extra_vars)
    for lit in itertools.chain(eqs, neqs):
        variables |= lit.variables()
    state = (_EqSystem(variables), [])
    for lit, positive in [(lit, True) for lit in eqs] + [(lit, False) for lit in neqs]:
        state = _assume(state, lit, positive)
        if state is None:
            return None
    system, avoid = state
    return system.point_avoiding(avoid)


def branching_cnf_sat(f, extra_vars=()):
    """Reference for linear_horn.cnf_sat: the same search tree (clauses
    shortest first, literals in clause order), with every node decided
    from scratch by the Fraction conj_sat above on the literals of its
    whole path.  Returns (witness point or None, number of nodes visited);
    a search with budget b raises exactly when b is less than that
    number."""
    clauses = sorted(f.clauses, key=len)
    variables = set(f.variables()) | set(extra_vars)
    steps = 0

    def branch(i, eqs, neqs):
        nonlocal steps
        steps += 1
        point = conj_sat(eqs, neqs, extra_vars=variables)
        if point is None or i == len(clauses):
            return point
        for lit in clauses[i]:
            if lit.is_eq:
                chosen = branch(i + 1, eqs + [lit], neqs)
            else:
                chosen = branch(i + 1, eqs, neqs + [lit])
            if chosen is not None:
                return chosen
        return None

    return branch(0, [], []), steps



# -- the sqrt2 mixing embedding --

# The Q(sqrt2) field and the mixing map that linear_horn used to decide
# mix preservation before it did so over Q, kept verbatim: QuadExtNumber,
# SQRT2, ONE_MINUS_SQRT2 and mix.  holds_in_quadext evaluates a CNF at a
# mixed point in that field, literal by literal.


@dataclass(frozen=True)
class QuadExtNumber:
    """An element p + q*sqrt2 of the field Q(sqrt2), with exact arithmetic."""

    p: Fraction
    q: Fraction

    @staticmethod
    def of(value) -> "QuadExtNumber":
        if isinstance(value, QuadExtNumber):
            return value
        return QuadExtNumber(Fraction(value), Fraction(0))

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def __add__(self, other):
        o = QuadExtNumber.of(other)
        return QuadExtNumber(self.p + o.p, self.q + o.q)

    __radd__ = __add__

    def __neg__(self):
        return QuadExtNumber(-self.p, -self.q)

    def __sub__(self, other):
        return self + (-QuadExtNumber.of(other))

    def __rsub__(self, other):
        return QuadExtNumber.of(other) + (-self)

    def __mul__(self, other):
        o = QuadExtNumber.of(other)
        return QuadExtNumber(self.p * o.p + 2 * self.q * o.q, self.p * o.q + self.q * o.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = QuadExtNumber.of(other)
        norm = o.p * o.p - 2 * o.q * o.q
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        return self * QuadExtNumber(o.p / norm, -o.q / norm)

    def __rtruediv__(self, other):
        return QuadExtNumber.of(other) / self

    def __eq__(self, other):
        if isinstance(other, (QuadExtNumber, int, Fraction)):
            o = QuadExtNumber.of(other)
            return self.p == o.p and self.q == o.q
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return f"({self.p} + {self.q}*sqrt2)"


SQRT2 = QuadExtNumber(Fraction(0), Fraction(1))
ONE_MINUS_SQRT2 = QuadExtNumber(Fraction(1), Fraction(-1))


def mix(p: dict, q: dict):
    """Coordinate-wise (1 - sqrt2)*p + sqrt2*q in Q(sqrt2)."""
    if set(p) != set(q):
        raise ValueError("mix requires points over the same variables")
    return {
        v: ONE_MINUS_SQRT2 * QuadExtNumber.of(p[v]) + SQRT2 * QuadExtNumber.of(q[v])
        for v in p
    }


def literal_holds_in_quadext(lit: LinearLiteral, point: dict) -> bool:
    """Truth of a literal at a point with QuadExtNumber coordinates."""
    total = QuadExtNumber.of(0)
    for v, c in lit.coeffs:
        total = total + c * point[v]
    return (total == lit.const) == lit.is_eq


def holds_in_quadext(f, point: dict) -> bool:
    """Truth of a LinearCnf at a point with QuadExtNumber coordinates."""
    return all(any(literal_holds_in_quadext(lit, point) for lit in clause)
               for clause in f.clauses)

# -- canonical forms and obstruction sweeps --


def exhaustive_canonical_key(a):
    """Reference for structures.canonical_form: the lex-least (relation
    bitmasks over row-major tuple indices, constant elements) tuple over
    all n! relabellings of the domain, as (signature, n, that tuple)."""
    n = a.n
    best = None
    for perm in itertools.permutations(range(n)):
        key = []
        for rname, _ in a.sig.relations:
            mask = 0
            for t in a.rel[rname]:
                idx = 0
                for v in t:
                    idx = idx * n + perm[v]
                mask |= 1 << idx
            key.append(mask)
        key.append(tuple(perm[a.const[c]] for c in a.sig.constants))
        key = tuple(key)
        if best is None or key < best:
            best = key
    return (a.sig, a.n, best)


def brute_automorphisms(a):
    """Aut(a) by trying all n! permutations g, each as the tuple
    (g(0), ..., g(n-1)): g must map every relation onto itself and fix
    every constant."""
    return {g for g in itertools.permutations(range(a.n))
            if all(g[x] == x for x in a.const.values())
            and all({tuple(g[v] for v in t) for t in ts} == ts for ts in a.rel.values())}


# -- reference canonical form, kept verbatim but for the names: it walks
# every leaf of the individualization-refinement tree, refines with tuples
# of (position, relation, pattern, colours) and keeps the automorphisms
# that tie with the first least leaf.  A differential test holds
# structures.canonical_form to it. --
_REFERENCE_EXHAUSTIVE_DOMAIN = 3
_REFERENCE_MAX_LEAVES = 40_320
_REFERENCE_MAX_AUTOMORPHISMS = 24


def reference_canonical_form(a):
    """(canonical key, automorphisms kept) as the unpruned walk gives them,
    computed on a copy of a, so that a's own caches stay untouched."""
    copy = FiniteStructure(a.sig, a.n, a.rel, a.const)
    key = _reference_canonical_form(copy)
    return key, copy._automorphisms


def _reference_refine(occurrences, colour, k):
    """Colour refinement to stability.  colour is a dense ranking 0..k-1 of
    the elements; an element's next colour ranks (its colour, the sorted
    list of (position, relation, equality pattern, colours of the tuple)
    over the tuples it occurs in).  Returns the stable (colour, k)."""
    n = len(colour)
    while k < n:
        signatures = [
            (colour[v], tuple(sorted([(p, r, pattern, tuple([colour[u] for u in t]))
                                      for p, r, pattern, t in occ])))
            for v, occ in enumerate(occurrences)
        ]
        ranks = {s: i for i, s in enumerate(sorted(set(signatures)))}
        if len(ranks) == k:
            break
        colour = [ranks[s] for s in signatures]
        k = len(ranks)
    return colour, k


def _reference_refinement_leaves(a: FiniteStructure):
    """The labellings at the leaves of the individualization-refinement
    tree of a: refine the colouring by constants to stability, then
    individualize each member of the first cell of two or more elements
    in turn (it takes the cell's least colour, the rest of the cell the
    next) and refine again, until every cell is a singleton.  Every step
    depends on a only up to isomorphism, so isomorphic structures have
    the same set of relabelled structures at their leaves."""
    n = a.n
    occurrences = [[] for _ in range(n)]
    for r, (rname, _) in enumerate(a.sig.relations):
        for t in a.rel[rname]:
            pattern = tuple([t.index(u) for u in t])
            for p, v in enumerate(t):
                occurrences[v].append((p, r, pattern, t))
    names = [tuple([i for i, c in enumerate(a.sig.constants) if a.const[c] == v])
             for v in range(n)] if a.const else [()] * n
    ranks = {s: i for i, s in enumerate(sorted(set(names)))}
    stack = [([ranks[s] for s in names], len(ranks))]
    leaves = 0
    while stack:
        colour, k = _reference_refine(occurrences, *stack.pop())
        if k == n:
            leaves += 1
            if leaves > _REFERENCE_MAX_LEAVES:
                raise BudgetExceededError(
                    f"canonical form exceeds {_REFERENCE_MAX_LEAVES} leaves of individualization-refinement")
            yield colour
            continue
        cell = min(c for c in range(k) if colour.count(c) > 1)
        for v in reversed([v for v in range(n) if colour[v] == cell]):
            child = [c + (c >= cell) for c in colour]
            child[v] = cell
            stack.append((child, k + 1))


def _reference_canonical_form(a: FiniteStructure):
    """Canonical key; equal iff isomorphic.

    (signature, n, the lex-least tuple of relation bitmasks over row-major
    tuple indices and constant elements over the relabellings): every
    permutation up to _REFERENCE_EXHAUSTIVE_DOMAIN elements, beyond that the leaves
    of individualization-refinement (McKay and Piperno, "Practical graph
    isomorphism, II", J. Symb. Comp. 2014) without automorphism pruning;
    more than _REFERENCE_MAX_LEAVES leaves raise BudgetExceededError.  Every
    relabelling that ties with the first least one, p0, gives the
    automorphism p0^-1 . p; up to _REFERENCE_MAX_AUTOMORPHISMS of them other than the
    identity are kept in a._automorphisms.
    """
    if a._canon is not None:
        return a._canon
    n = a.n
    rel_tuples = [tuple(a.rel[r]) for r, _ in a.sig.relations]
    const_elems = tuple(a.const[c] for c in a.sig.constants)
    if n <= _REFERENCE_EXHAUSTIVE_DOMAIN:
        labellings = itertools.permutations(range(n))
    else:
        labellings = _reference_refinement_leaves(a)
    best = ties = None
    for perm in labellings:
        key = []
        for tuples in rel_tuples:
            mask = 0
            for t in tuples:
                idx = 0
                for v in t:
                    idx = idx * n + perm[v]
                mask |= 1 << idx
            key.append(mask)
        key.append(tuple(perm[v] for v in const_elems))
        key = tuple(key)
        if best is None or key < best:
            best, ties = key, [perm]
        elif key == best and len(ties) <= _REFERENCE_MAX_AUTOMORPHISMS:
            ties.append(perm)
    inverse = sorted(range(n), key=ties[0].__getitem__)
    a._automorphisms = tuple([tuple([inverse[p[v]] for v in range(n)]) for p in ties[1:]])
    a._canon = (a.sig, a.n, best)
    return a._canon


def _seed_structures(sig):
    """Single-tuple structures up to isomorphism: one per pattern of
    repeated positions (restricted-growth tuples)."""
    out = []
    for rname, ar in sig.relations:
        for pattern in itertools.product(range(ar), repeat=ar):
            # entries must appear as 0, 1, 2, ... in order of first occurrence
            seen = []
            ok = True
            for v in pattern:
                if v == len(seen):
                    seen.append(v)
                elif v > len(seen):
                    ok = False
                    break
            if ok:
                out.append(FiniteStructure(sig, len(seen), {rname: {pattern}}, {}))
    return out


def _add_tuple(s: FiniteStructure, rname: str, tup, n: int) -> FiniteStructure:
    rels = {r: set(ts) for r, ts in s.rel.items()}
    rels[rname].add(tuple(tup))
    return FiniteStructure(s.sig, n, rels, s.const)


def _extensions(s: FiniteStructure, max_vertices: int):
    """All structures obtained by adding one new tuple, possibly introducing
    new vertices (which must all occur in the added tuple)."""
    for rname, ar in s.sig.relations:
        room = min(ar, max_vertices - s.n)
        for fresh in range(room + 1):
            n = s.n + fresh
            for tup in itertools.product(range(n), repeat=ar):
                if fresh and set(range(s.n, n)) - set(tup):
                    continue  # an introduced vertex must be used
                if tup in s.rel[rname]:
                    continue
                yield _add_tuple(s, rname, tup, n)


def _is_connected(s: FiniteStructure) -> bool:
    if s.n == 1:
        return True
    adj = {v: set() for v in range(s.n)}
    for _, tup in _all_tuples(s):
        for x in tup:
            adj[x].update(tup)
    seen = {0}
    stack = [0]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == s.n


def reference_critical_obstructions(a, max_vertices, max_tuples, budget=5_000_000):
    """Reference for duality.critical_obstructions: the sweep that seeds
    with every single-tuple structure, grows disconnected structures too
    and keeps only connected critical ones, without the per-level memo of
    classes that neither map nor are critical, with isomorphism classes
    told apart by exhaustive_canonical_key.  The seed, extension and
    connectivity helpers above are this module's own; the criticality
    check and the homomorphism search are the library's."""
    from cspbench.duality import Obstruction, _weakenings_map
    from cspbench.structures import find_homomorphism

    template = a.relational_reduct()

    def maps(s):
        return find_homomorphism(s, template, budget=budget) is not None

    found = {}
    frontier = {}
    for s in _seed_structures(template.sig):
        if s.n > max_vertices:
            continue
        key = exhaustive_canonical_key(s)
        if maps(s):
            frontier[key] = s
        else:
            found.setdefault(key, Obstruction(s, 1))
    tuples_used = 1
    while frontier and tuples_used < max_tuples:
        tuples_used += 1
        next_frontier = {}
        for s in frontier.values():
            for ext in _extensions(s, max_vertices):
                key = exhaustive_canonical_key(ext)
                if key in found or key in next_frontier:
                    continue
                if maps(ext):
                    next_frontier[key] = ext
                elif _is_connected(ext) and _weakenings_map(ext, template, budget):
                    found[key] = Obstruction(ext, ext.total_tuples())
        frontier = next_frontier
    return sorted(found.values(),
                  key=lambda o: (o.hyperedges, o.structure.n, exhaustive_canonical_key(o.structure)))

# -- reference formula-layer code, kept verbatim: two renaming walks, a
# recursive local refutation, local refutability decided element by
# element (atoms now evaluated by brute_evaluate), the P4 check that builds
# every 4-tuple, and a character-loop tokenizer.  Differential tests hold
# cspbench.formulas._rename, local_refutation_value, is_locally_refutable,
# _is_p4_interpretation and _tokenize to them. --


def substitute(phi, mapping: dict):
    """Replace free occurrences of names; bound names are left alone."""
    if isinstance(phi, Atom):
        return Atom(phi.rel, tuple(mapping.get(x, x) for x in phi.args))
    if isinstance(phi, Eq):
        return Eq(mapping.get(phi.left, phi.left), mapping.get(phi.right, phi.right))
    if isinstance(phi, And):
        return And(tuple(substitute(p, mapping) for p in phi.parts))
    if isinstance(phi, Or):
        return Or(tuple(substitute(p, mapping) for p in phi.parts))
    if isinstance(phi, Exists):
        inner = {k: v for k, v in mapping.items() if k not in phi.vars}
        return Exists(phi.vars, substitute(phi.body, inner))
    if isinstance(phi, Falsum):
        return phi
    raise FormulaError(f"not a formula node: {phi!r}")


def rename_bound_apart(phi, fresh=None):
    """Give every quantifier its own fresh variable name."""
    if fresh is None:
        fresh = _FreshNames(names_in(phi), prefix="_q")

    def walk(node, env):
        if isinstance(node, Atom):
            return Atom(node.rel, tuple(env.get(x, x) for x in node.args))
        if isinstance(node, Eq):
            return Eq(env.get(node.left, node.left), env.get(node.right, node.right))
        if isinstance(node, And):
            return And(tuple(walk(p, env) for p in node.parts))
        if isinstance(node, Or):
            return Or(tuple(walk(p, env) for p in node.parts))
        if isinstance(node, Exists):
            new_env = dict(env)
            new_vars = []
            for v in node.vars:
                nv = fresh()
                new_env[v] = nv
                new_vars.append(nv)
            return Exists(tuple(new_vars), walk(node.body, new_env))
        if isinstance(node, Falsum):
            return node
        raise FormulaError(f"not a formula node: {node!r}")

    return walk(phi, {})


def local_refutation_value(a: FiniteStructure, phi) -> bool:
    """Boolean value of the sentence after replacing atoms over empty
    relations by false and every other atom (equalities included) by true;
    quantifiers are dropped."""
    _validate_symbols(phi, a.sig)
    if isinstance(phi, Atom):
        return bool(a.rel[phi.rel])
    if isinstance(phi, Eq):
        return True
    if isinstance(phi, And):
        return all(local_refutation_value(a, p) for p in phi.parts)
    if isinstance(phi, Or):
        return any(local_refutation_value(a, p) for p in phi.parts)
    if isinstance(phi, Exists):
        return local_refutation_value(a, phi.body)
    if isinstance(phi, Falsum):
        return False
    raise FormulaError(f"not a formula node: {phi!r}")


def is_locally_refutable(a: FiniteStructure):
    """(verdict, certificate): the least element carrying every nonempty
    relation as a loop and equal to every constant, or the first failing
    atom combination, smallest first, as a one-variable ep sentence."""
    (var,) = _numbered_names(1, a.sig.constants)
    atoms = []
    for rname, ar in a.sig.relations:
        if a.rel[rname]:
            atoms.append(Atom(rname, (var,) * ar))
    for cname in a.sig.constants:
        atoms.append(Eq(var, cname))

    def holds(d, pool):
        env = {var: d}
        return all(brute_evaluate(a, atm, env) for atm in pool)

    for d in range(a.n):
        if holds(d, atoms):
            return True, d
    # Smallest failing atom combination, as a one-variable ep sentence.
    for size in range(1, len(atoms) + 1):
        for combo in itertools.combinations(atoms, size):
            if not any(holds(d, combo) for d in range(a.n)):
                return False, Exists((var,), conj(combo))
    raise AssertionError("unreachable: full atom set must fail when no diagonal exists")


def is_p4_interpretation(a: FiniteStructure, p4: str) -> bool:
    if p4 not in a.sig.relation_names or a.sig.arity(p4) != 4:
        return False
    want = {
        (u, v, x, y)
        for u, v, x, y in itertools.product(range(a.n), repeat=4)
        if u == v or x == y
    }
    return a.rel[p4] == want


# Word classes of the character-loop tokenizer below.
_KEYWORDS = {"exists", "false"}
_REJECTED = {"forall", "not", "~", "!"}


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch in "()&|=.,":
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in _REJECTED:
                raise FormulaError(f"line {line} col {col}: {word!r} is not part of the ep fragment")
            kind = word if word in _KEYWORDS else "name"
            tokens.append((kind, word, line, col))
            col += j - i
            i = j
            continue
        raise FormulaError(f"line {line} col {col}: unexpected character {ch!r}")
    tokens.append(("end", "", line, col))
    return tokens


# -- reference formula walkers, kept verbatim: one generator walk per
# question.  Differential tests hold cspbench.formulas' single walk, and
# the error precedence of its callers, to them. --

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


# -- reference powers and plan compiler, kept verbatim: each power tuple
# encoded from its k rows, and the plan's checks found element by element
# of each source tuple.  Differential tests hold cspbench.structures'
# arithmetic powers and one-pass compiler to them. --


def power(a: FiniteStructure, k: int, budget: int = DEFAULT_BUDGET) -> FiniteStructure:
    """k-fold power with row-major tuple encoding; power(a, 1) equals a."""
    if not isinstance(k, int) or k < 1:
        raise ValueError("power exponent must be a positive integer")
    if a.n ** k > budget:
        raise BudgetExceededError(f"power domain size {a.n}^{k} exceeds budget {budget}")
    rels = {}
    for rname, ar in a.sig.relations:
        base = sorted(a.rel[rname])
        if len(base) ** k > budget:
            raise BudgetExceededError(f"power relation {rname} of {len(base)}^{k} tuples "
                                      f"exceeds budget {budget}")
        out = set()
        for rows in itertools.product(base, repeat=k):
            out.add(tuple(encode_tuple(tuple(rows[j][p] for j in range(k)), a.n) for p in range(ar)))
        rels[rname] = out
    consts = {c: encode_tuple((v,) * k, a.n) for c, v in a.const.items()}
    return FiniteStructure(a.sig, a.n ** k, rels, consts)


def one_tolerant_power(a: FiniteStructure, k: int, budget: int = DEFAULT_BUDGET) -> FiniteStructure:
    """k-th power where a relation tuple may fail in at most one coordinate.

    A tuple of encoded elements is in R iff its coordinate projections lie
    in R^a for at least k-1 of the k coordinates.  Constants (when present)
    are interpreted as diagonal tuples, matching power().
    """
    if not isinstance(k, int) or k < 3:
        raise ValueError("one-tolerant power requires exponent >= 3")
    if a.n ** k > budget:
        raise BudgetExceededError(f"one-tolerant power domain size {a.n}^{k} exceeds budget")
    rels = {}
    for rname, ar in a.sig.relations:
        base = sorted(a.rel[rname])
        work = len(base) ** k + k * (len(base) ** (k - 1)) * (a.n ** ar)
        if work > budget:
            raise BudgetExceededError(f"one-tolerant power relation {rname}: work {work} "
                                      f"exceeds budget {budget}")
        out = set()

        def add(rows):
            out.add(tuple(encode_tuple(tuple(rows[j][p] for j in range(k)), a.n) for p in range(ar)))

        for rows in itertools.product(base, repeat=k):
            add(rows)
        for j in range(k):
            for ok_rows in itertools.product(base, repeat=k - 1):
                for free_row in itertools.product(range(a.n), repeat=ar):
                    add(ok_rows[:j] + (free_row,) + ok_rows[j:])
        rels[rname] = out
    consts = {c: encode_tuple((v,) * k, a.n) for c, v in a.const.items()}
    return FiniteStructure(a.sig, a.n ** k, rels, consts)


def _compile_plan(a, b):
    """Per source element x, as three lists: the values x may take, in
    ascending order; after each of them, the count of values that plain
    backtracking, which tries every value, has tried; and the (getter,
    support) checks, which pass when getter(h) is in support.

    A source tuple t is checked once per distinct element x in it, when x is
    assigned, on the positions p with t[p] <= x.  Checks that every target
    assignment passes are left out.  Returns None when some relation is
    nonempty in a but empty in b, so that no homomorphism exists.
    """
    allowed = [None] * a.n
    checks = [{} for _ in range(a.n)]
    for rname, ar in a.sig.relations:
        tuples = a.rel[rname]
        if tuples and not b.rel[rname]:
            return None
        for t in tuples:
            top = max(t)
            for x in set(t):
                # t with its not yet assigned entries masked names the check
                masked = t if x == top else tuple([e if e <= x else -1 for e in t])
                known = checks[x]
                if (rname, masked) in known:
                    continue
                positions = tuple([p for p in range(ar) if masked[p] >= 0])
                elems = tuple([t[p] for p in positions])
                support, diagonal = b._projection(rname, positions)
                check = None
                if elems.count(x) == len(elems):
                    if len(diagonal) < b.n:
                        allowed[x] = diagonal if allowed[x] is None else allowed[x] & diagonal
                elif len(support) < b.n ** len(elems):
                    check = (itemgetter(*elems), support)
                known[rname, masked] = check
    values = [tuple(range(b.n)) if ok is None else tuple(sorted(ok)) for ok in allowed]
    counts = [tuple(v + 1 for v in vs) for vs in values]
    return values, counts, [tuple(c for c in known.values() if c is not None) for known in checks]


# -- the formulas pp path, kept verbatim: one pinned search from the
# canonical database that formulas.canonical_structure builds, the formula
# renamed apart first when it is not clean.  A differential test holds
# evaluate and witness_assignment, which decide a pp formula as the one
# branch of the ep search, to it. --


def _pinned_search(a: FiniteStructure, db, elem, env: dict, budget: int):
    """The lexicographically least homomorphism db -> a sending each name of
    env to its value, or None (also when two merged names differ)."""
    pinned = {}
    for v, value in env.items():
        if pinned.setdefault(elem[v], value) != value:
            return None
    return find_homomorphism(db, a, pinned=pinned, budget=budget)


def _pp_search(a: FiniteStructure, phi, budget: int, walk, assignment=None):
    """(elem, h) for a pp formula without false: its canonical database's
    element map, and _pinned_search's h under assignment (checked then)."""
    db, elem = formulas.canonical_structure(phi, a.sig, walk)
    env = formulas._checked_env(a, walk.free.difference(a.sig.constants), assignment)
    return elem, _pinned_search(a, db, elem, env, budget)


def pp_evaluate(a: FiniteStructure, phi, assignment=None, budget: int = DEFAULT_BUDGET) -> bool:
    """Truth of a pp formula under an assignment of its free variables."""
    walk = formulas._walk(phi, a.sig)
    formulas._check_symbols(walk)
    if not walk.false:
        return _pp_search(a, phi, budget, walk, assignment)[1] is not None
    formulas._checked_env(a, walk.free.difference(a.sig.constants), assignment)
    return False


def pp_witness(a: FiniteStructure, phi, budget: int = DEFAULT_BUDGET):
    """Values for all variables of a true pp sentence, read off the least
    homomorphism from its canonical database (a name quantified more than
    once reports its first binding in preorder), or None."""
    walk = formulas._walk(phi, a.sig)
    formulas._check_symbols(walk)
    formulas._checked_env(a, walk.free.difference(a.sig.constants), None)
    if walk.false:
        return None
    elem, h = _pp_search(a, phi, budget, walk)
    if h is None:
        return None
    return {v: h.map[e] for v, e in elem.items() if v in walk.names and v not in a.sig.constants}
