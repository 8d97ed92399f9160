"""Quantifier-free CNF constraint languages over linear rational equalities.

Literals are (in)equations  c_1*x_1 + ... + c_k*x_k  =  d  (or != d) with
exact rational coefficients; clauses are disjunctions of literals and a
CNF is a conjunction of clauses.  A clause is Horn when it carries at most
one equality literal.  Satisfiability over the rationals is decided
exactly: Gaussian elimination handles conjunctions of equalities, and a
system of disequalities is satisfiable alongside them iff none of the
underlying equalities is entailed, because finitely many proper affine
subspaces never cover the solution space of an affine system over an
infinite field.  Witness points are drawn deterministically from the
moment curve: free parameters take values (t, t**2, t**3, ...) for
t = 0, 1, 2, ..., and since a nontrivial affine condition restricted to
the moment curve is a nonzero polynomial of degree at most f (the number
of free parameters), at most f values of t can violate it, so the scan
terminates after at most (#disequalities) * f + 1 steps.

The complete solver cnf_sat branches on one literal per clause and keeps
the theory state of the current path incrementally, as a DPLL(T)-style
solver does: each branch node extends its parent's row-reduced system
and list of equalities to avoid by its one literal, testing only what
that literal can change, and only a leaf builds a witness point.  The
search tree, its node count (the budget) and the rows at every leaf are
those of deciding each node's whole path from scratch with conj_sat, so
the witnesses are the same.

The mixing embedding sends a pair of rational points to the point
e(x, y) = (1 - sqrt2)*x + sqrt2*y computed coordinate-wise in the field
Q(sqrt2) of numbers p + q*sqrt2.  Then e(1, 1) = 1, e is injective on
rational pairs (the sqrt2 component of e(x, y) - e(x', y') separates
them), and for a rational linear form s with values s_p, s_q at p, q:

    s(e(p, q)) = s_p + sqrt2 * (s_q - s_p)

equals a rational d iff s_p = d and s_q = d.  Hence an equality literal
satisfied by both points is satisfied by the mix, one satisfied by
exactly one of them is falsified, and a disequality satisfied by both is
preserved.  This yields the Horn solver's dichotomy behaviour: every
clause with at most one equality literal is preserved under mixing of
satisfying points, while an irreducible non-Horn clause admits a pair of
satisfying points whose mix falsifies the whole CNF.

Why the Horn propagation solver is complete over Q: let S be the set of
equality literals fired at fixpoint.  If firing never produced an
inconsistent system and no all-negative clause has all its equalities
entailed by S, pick a point satisfying S and avoiding every non-entailed
equality that occurs negated in some clause (possible over an infinite
field).  Every clause is then satisfied: either some negated equality is
non-entailed (hence false at the point), or all are entailed and the
clause's positive literal was fired into S.

CNF text format, one clause per line, '#' starts a comment::

    clause  :=  lit ('|' lit)*
    lit     :=  ['~'] linexpr '=' rational
    linexpr :=  rational '*' var ('+' rational '*' var)*
    rational:=  ['-'] digits ['/' digits]

~ negates the literal (making it a disequality).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .structures import BudgetExceededError

DEFAULT_BRANCH_BUDGET = 200_000


class CnfError(ValueError):
    """Malformed CNF input."""


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


@dataclass(frozen=True)
class LinearLiteral:
    """sum(c_i * x_i) = d (is_eq) or != d, normalized: zero coefficients are
    dropped and the leading coefficient (first variable in sorted order) is
    scaled to 1, so equivalent literals compare equal."""

    coeffs: tuple  # ((var, Fraction), ...) sorted by var, all nonzero
    const: Fraction
    is_eq: bool

    @staticmethod
    def make(coeffs: dict, const, is_eq: bool = True) -> "LinearLiteral":
        items = sorted((v, Fraction(c)) for v, c in coeffs.items() if Fraction(c) != 0)
        const = Fraction(const)
        if items:
            lead = items[0][1]
            items = [(v, c / lead) for v, c in items]
            const = const / lead
        return LinearLiteral(tuple(items), const, is_eq)

    @staticmethod
    def eq(coeffs: dict, const) -> "LinearLiteral":
        return LinearLiteral.make(coeffs, const, True)

    @staticmethod
    def neq(coeffs: dict, const) -> "LinearLiteral":
        return LinearLiteral.make(coeffs, const, False)

    @property
    def is_trivial(self) -> bool:
        return not self.coeffs

    @property
    def trivially_true(self) -> bool:
        return self.is_trivial and ((self.const == 0) == self.is_eq)

    def negate(self) -> "LinearLiteral":
        return LinearLiteral(self.coeffs, self.const, not self.is_eq)

    def variables(self):
        return {v for v, _ in self.coeffs}

    def as_equality(self) -> "LinearLiteral":
        return LinearLiteral(self.coeffs, self.const, True)

    def holds(self, point: dict) -> bool:
        """Evaluate at a point with Fraction or QuadExtNumber coordinates."""
        total = sum((c * point[v] for v, c in self.coeffs), start=Fraction(0))
        return (total == self.const) == self.is_eq

    def render(self) -> str:
        if not self.coeffs:
            expr = "0*_"  # only produced for degenerate literals; kept parseable
        else:
            expr = " + ".join(f"{c}*{v}" for v, c in self.coeffs)
        return f"{'' if self.is_eq else '~'}{expr} = {self.const}"


class LinearCnf:
    """A conjunction of clauses, each a disjunction of LinearLiterals.

    Duplicate literals inside a clause are dropped (literals are
    normalized, so syntactic duplicates include rescaled copies).
    """

    def __init__(self, clauses):
        out = []
        for clause in clauses:
            seen = []
            for lit in clause:
                if not isinstance(lit, LinearLiteral):
                    raise CnfError(f"not a literal: {lit!r}")
                if lit not in seen:
                    seen.append(lit)
            out.append(tuple(seen))
        self.clauses = tuple(out)

    def variables(self):
        out = set()
        for clause in self.clauses:
            for lit in clause:
                out |= lit.variables()
        return out

    def is_horn(self) -> bool:
        return all(sum(lit.is_eq for lit in clause) <= 1 for clause in self.clauses)

    def holds(self, point: dict) -> bool:
        return all(any(lit.holds(point) for lit in clause) for clause in self.clauses)

    def __eq__(self, other):
        return isinstance(other, LinearCnf) and self.clauses == other.clauses

    def __repr__(self):
        return f"<LinearCnf: {len(self.clauses)} clauses over {sorted(self.variables())}>"

    def render(self) -> str:
        return "\n".join(" | ".join(lit.render() for lit in clause) for clause in self.clauses)


# -- exact linear algebra over Q --


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
    eq = lit.as_equality()
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


def cnf_sat(f: LinearCnf, extra_vars=(), budget: int = DEFAULT_BRANCH_BUDGET):
    """Complete satisfiability over Q by branching on clause literals;
    returns a witness point or None.

    Clauses are taken shortest first and literals in clause order.  A
    branch node holds the theory state of its path (see _assume): a child
    extends its parent's row-reduced system and avoid list by its one
    literal, and is pruned when that makes the path unsatisfiable.  Only a
    leaf, where every clause has a chosen literal, builds a witness point.
    Every node, pruned children included, costs one step of the budget;
    BudgetExceededError is raised at the first node beyond it.  The tree
    is walked with an explicit stack, so the clause count is not bounded
    by the interpreter's recursion limit.
    """
    clauses = sorted(f.clauses, key=len)
    variables = set(f.variables()) | set(extra_vars)
    steps = 0

    def step():
        nonlocal steps
        steps += 1
        if steps > budget:
            raise BudgetExceededError(f"cnf_sat exceeded branching budget {budget}")

    step()  # the root
    state = (_EqSystem(variables), [])
    if not clauses:
        return state[0].point_avoiding(state[1])
    # stack[i]: the state of the path through clauses[:i] and an iterator
    # over the literals of clauses[i] not tried yet
    stack = [(state, iter(clauses[0]))]
    while stack:
        state, untried = stack[-1]
        lit = next(untried, None)
        if lit is None:
            stack.pop()
            continue
        step()
        child = _assume(state, lit, lit.is_eq)
        if child is None:
            continue
        if len(stack) == len(clauses):
            system, avoid = child
            return system.point_avoiding(avoid)
        stack.append((child, iter(clauses[len(stack)])))
    return None


def make_irreducible(f: LinearCnf, budget: int = DEFAULT_BRANCH_BUDGET) -> LinearCnf:
    """Remove entailed clauses and redundant literals until a fixpoint.

    A clause C is removed when the remaining clauses entail it; a literal L
    in C is removed when (F minus C) and L and not(C minus L) is
    unsatisfiable.  The scan is clause-major, literal-minor, restarted
    after every change; the output is equivalent to the input, which is
    re-verified by mutual entailment before returning.
    """
    clauses = [list(c) for c in f.clauses]
    changed = True
    while changed:
        changed = False
        for i in range(len(clauses)):
            others = clauses[:i] + clauses[i + 1:]
            if _entails(others, clauses[i], budget):
                del clauses[i]
                changed = True
                break
            for j in range(len(clauses[i])):
                # not(not L) is L: this probes (F minus C) and L and not(C minus L)
                rest = clauses[i][:j] + clauses[i][j + 1:]
                if _entails(others, [clauses[i][j].negate()] + rest, budget):
                    del clauses[i][j]
                    changed = True
                    break
            if changed:
                break

    out = LinearCnf([tuple(c) for c in clauses])
    for src, dst in ((f, out), (out, f)):
        if not all(_entails(src.clauses, clause, budget) for clause in dst.clauses):
            raise AssertionError("irreducibility transform changed the CNF's meaning")
    return out


def _entails(clauses, clause, budget: int) -> bool:
    """Whether the clauses entail clause: clauses and not(clause) is unsatisfiable."""
    probe = [tuple(c) for c in clauses] + [(lit.negate(),) for lit in clause]
    return cnf_sat(LinearCnf(probe), budget=budget) is None


@dataclass
class HornVerdict:
    is_horn: bool
    complexity: str  # "CSP in P" or "CSP NP-complete"
    irreducible: LinearCnf
    violating_clause: tuple | None = None
    witness_pair: tuple | None = None  # two points, each satisfying exactly one
    #   of the clause's two chosen equality literals (and the whole CNF)


def classify_horn(f: LinearCnf, budget: int = DEFAULT_BRANCH_BUDGET) -> HornVerdict:
    """Horn / non-Horn classification of the irreducible form.

    Horn means every clause of the irreducible form has at most one
    equality literal, and the CSP of the defined language is in P;
    otherwise it is NP-complete, witnessed by a clause with two equality
    literals and two satisfying points of the CNF, each of which satisfies
    exactly one of those literals (their existence is exactly the
    irreducibility of the two literals).
    """
    irr = make_irreducible(f, budget=budget)
    for clause in irr.clauses:
        positives = [lit for lit in clause if lit.is_eq]
        if len(positives) <= 1:
            continue
        r1, r2 = positives[0], positives[1]
        rest = [lit for lit in clause if lit not in (r1, r2)]
        others = [c for c in irr.clauses if c != clause]

        def witness(keep, drop):
            probe = others + [(keep,)] + [(drop.negate(),)] + [(lit.negate(),) for lit in rest]
            return cnf_sat(LinearCnf(probe), budget=budget)

        p = witness(r1, r2)
        q = witness(r2, r1)
        if p is None or q is None:
            raise AssertionError("irreducible clause literals must be independently satisfiable")
        # align both points on the full variable set
        variables = irr.variables() | f.variables()
        for point in (p, q):
            for v in variables:
                point.setdefault(v, Fraction(0))
        return HornVerdict(False, "CSP NP-complete", irr, clause, (p, q))
    return HornVerdict(True, "CSP in P", irr)


def horn_solve(f: LinearCnf):
    """Propagation solver for Horn CNF over Q; returns (sat, point).

    Maintains a Gaussian basis S of fired equalities.  A clause with
    positive literal e0 and negated equalities e1..ek fires e0 once every
    ei is entailed by S; an all-negative clause with every ei entailed is
    a conflict, as is an inconsistent S.  At fixpoint a witness avoiding
    all non-entailed negated equalities exists over Q.
    """
    if not f.is_horn():
        raise CnfError("horn_solve requires a Horn CNF")
    variables = f.variables()
    system = _EqSystem(variables)

    def entailed(lit):
        return system.entails(lit.as_equality())

    pending = True
    while pending:
        pending = False
        for clause in f.clauses:
            positives = [lit for lit in clause if lit.is_eq]
            negatives = [lit for lit in clause if not lit.is_eq]
            if positives and any(lit.trivially_true for lit in positives):
                continue
            if not all(entailed(lit) for lit in negatives):
                continue
            if not positives:
                return False, None
            e0 = positives[0]
            if e0.is_trivial:  # 0 = d with d != 0: clause cannot be satisfied
                return False, None
            if entailed(e0):
                continue
            if not system.add(e0):
                return False, None
            pending = True

    avoid = []
    for clause in f.clauses:
        for lit in clause:
            if not lit.is_eq and not lit.is_trivial and not entailed(lit):
                avoid.append(lit.as_equality())
    # dedupe; point_avoiding is linear in the number of equalities to dodge
    avoid = list(dict.fromkeys(avoid))
    point = system.point_avoiding(avoid)
    for v in variables:
        point.setdefault(v, Fraction(0))
    assert f.holds(point)
    return True, point


def mix(p: dict, q: dict):
    """Coordinate-wise (1 - sqrt2)*p + sqrt2*q in Q(sqrt2)."""
    if set(p) != set(q):
        raise ValueError("mix requires points over the same variables")
    return {
        v: ONE_MINUS_SQRT2 * QuadExtNumber.of(p[v]) + SQRT2 * QuadExtNumber.of(q[v])
        for v in p
    }


def check_mix_preservation(f: LinearCnf, p: dict, q: dict) -> bool:
    """Does the mix of two satisfying points still satisfy f (evaluated
    exactly in Q(sqrt2))?  Raises when p or q does not satisfy f."""
    for name, point in (("first", p), ("second", q)):
        missing = f.variables() - set(point)
        if missing:
            raise ValueError(f"the {name} point does not assign {sorted(missing)}")
        if not f.holds(point):
            raise ValueError(f"the {name} point does not satisfy the CNF")
    return f.holds(mix(p, q))


# -- CNF text format --


def _parse_rational(token: str, lineno: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise CnfError(f"line {lineno}: bad rational {token!r}: {exc}") from None


def _parse_literal(text: str, lineno: int) -> LinearLiteral:
    text = text.strip()
    is_eq = True
    if text.startswith("~"):
        is_eq = False
        text = text[1:].strip()
    if "=" not in text:
        raise CnfError(f"line {lineno}: literal needs '=': {text!r}")
    lhs, rhs = text.split("=", 1)
    const = _parse_rational(rhs.strip(), lineno)
    coeffs = {}
    for term in lhs.split("+"):
        term = term.strip()
        if "*" not in term:
            raise CnfError(f"line {lineno}: term needs 'rational*var': {term!r}")
        coef, var = term.split("*", 1)
        var = var.strip()
        if not var or not (var[0].isalpha() or var[0] == "_") or not all(
                ch.isalnum() or ch == "_" for ch in var):
            raise CnfError(f"line {lineno}: bad variable name {var!r}")
        c = _parse_rational(coef.strip(), lineno)
        coeffs[var] = coeffs.get(var, Fraction(0)) + c
    return LinearLiteral.make(coeffs, const, is_eq)


def parse_cnf(text: str) -> LinearCnf:
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        clauses.append(tuple(_parse_literal(part, lineno) for part in line.split("|")))
    return LinearCnf(clauses)
