"""Quantifier-free CNF constraint languages over linear rational equalities.

Literals are (in)equations  c_1*x_1 + ... + c_k*x_k  =  d  (or != d) with
exact rational coefficients; clauses are disjunctions of literals and a
CNF is a conjunction of clauses.  A clause is Horn when it carries at most
one equality literal.  Satisfiability over the rationals is decided
exactly: fraction-free row reduction handles conjunctions of equalities
(each row a primitive integer vector, each literal scaled to integers
where it enters; see _EqSystem), and a system of disequalities is
satisfiable alongside them iff none of the underlying equalities is
entailed, because finitely many proper affine subspaces never cover the
solution space of an affine system over an infinite field.  Witness
points have Fraction coordinates and are drawn deterministically from the
moment curve: free parameters take values (t, t**2, t**3, ...) for
t = 0, 1, 2, ..., and since a nontrivial affine condition restricted to
the moment curve is a nonzero polynomial of degree at most f (the number
of free parameters), at most f values of t can violate it, so the scan
terminates after at most (#disequalities) * f + 1 steps.

The complete solver cnf_sat branches on one literal per clause and keeps
the theory state of the current path incrementally, as a DPLL(T)-style
solver does: each branch node extends its parent's row-reduced system
and its list of equalities to avoid, kept reduced against that system,
by its one literal, testing only what that literal can change, and only
a leaf builds a witness point.  The search tree, its node count (the
budget) and the rows at every leaf are those of deciding each node's
whole path from scratch as one conjunction, so the witnesses are the same.

A CNF is preserved by the mixing map e(x, y) = (1 - sqrt2)*x + sqrt2*y
when e(p, q), taken coordinate-wise, satisfies it for every two
satisfying points p, q.  e(1, 1) = 1 and e is injective on rational
pairs.  A rational linear form s with values s_p, s_q at p, q has

    s(e(p, q)) = s_p + sqrt2 * (s_q - s_p),

a rational d iff s_p = d and s_q = d, since sqrt2 is irrational.  So
preservation is decided over Q: an equality holds at the mix iff it
holds at p and at q, a disequality iff it holds at p or at q.  Hence a
clause with at most one equality is preserved (a disequality true at p
or q stays true; else both points satisfy the equality), while an
irreducible non-Horn clause has equalities r1, r2 and satisfying points,
one with r1 but not r2, one with r2 but not r1, both falsifying the rest
of the clause, whose mix falsifies every literal of the clause.

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

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .structures import BudgetExceededError

DEFAULT_BRANCH_BUDGET = 200_000


class CnfError(ValueError):
    """Malformed CNF input."""


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
        items = sorted([(v, f) for v, c in coeffs.items()
                        if (f := c if isinstance(c, Fraction) else Fraction(c)) != 0])
        if not isinstance(const, Fraction):
            const = Fraction(const)
        if items and (lead := items[0][1]) != 1:
            items = [(v, c / lead) for v, c in items]
            const = const / lead
        return LinearLiteral(tuple(items), const, is_eq)

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

    def holds(self, point: dict) -> bool:
        """Evaluate at a point with Fraction coordinates."""
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
    """Row-reduced system of linear equalities over Q, kept in integers.

    Each row is (vec, rhs, pivot): an integer coefficient vector over
    self.vars and a right-hand side whose gcd is 1, zero before the pivot
    column, positive at it, and zero at the pivot column of every other
    row.  Dividing a row by its pivot entry gives the row of the reduced
    row echelon form over Q, so the rows determine that form and the
    solution set exactly.  As in fraction-free elimination (Bareiss,
    "Sylvester's identity and multistep integer-preserving Gaussian
    elimination", Math. Comp. 1968), no step forms a fraction; entries
    are kept small by dividing each new or changed row by its gcd.
    Literals keep their Fraction coefficients; each is scaled to an
    integer vector where it enters the system.
    """

    def __init__(self, variables):
        self.vars = sorted(variables)
        self.index = {v: i for i, v in enumerate(self.vars)}
        self.rows = []

    def copy(self) -> "_EqSystem":
        """A copy that add() can extend without changing this system: the
        row list is new, the row vectors are shared."""
        other = _EqSystem.__new__(_EqSystem)
        other.vars, other.index = self.vars, self.index
        other.rows = list(self.rows)
        return other

    def _vector(self, lit: LinearLiteral):
        """The literal's equality as an integer vector and right-hand side:
        its coefficients and constant times the lcm of their denominators."""
        const = lit.const
        den = lcm(const.denominator, *[c.denominator for _, c in lit.coeffs])
        vec = [0] * len(self.vars)
        for v, c in lit.coeffs:
            vec[self.index[v]] = c.numerator * (den // c.denominator)
        return vec, const.numerator * (den // const.denominator)

    def residual(self, lit: LinearLiteral):
        """The literal's equality reduced against the system: a positive
        multiple of it minus the combination of rows that clears every pivot
        column, so zero exactly when the system entails it, and at a solution
        a positive multiple of the equality's defect.  The rows are reduced,
        so each factor is read off the input vector, and the combination is
        taken over the lcm of the pivot entries it uses, which keeps it
        integral without cross-multiplying row by row."""
        vec, rhs = self._vector(lit)
        used = [row for row in self.rows if vec[row[2]]]
        if not used:
            return vec, rhs
        scale = lcm(*[rvec[pivot] for rvec, _, pivot in used])
        out = [scale * c for c in vec]
        rhs *= scale
        for rvec, rrhs, pivot in used:
            k = vec[pivot] * (scale // rvec[pivot])
            out = [c - k * r for c, r in zip(out, rvec)]
            rhs -= k * rrhs
        return out, rhs

    def add(self, lit: LinearLiteral) -> bool:
        """Add the literal read as an equality; returns False, and leaves the
        system as it was, when the equality contradicts it."""
        vec, rhs = self.residual(lit)
        pivot = next((i for i, c in enumerate(vec) if c), None)
        if pivot is None:
            return rhs == 0
        g = gcd(*vec, rhs)
        if vec[pivot] < 0:
            g = -g
        if g != 1:
            vec = [c // g for c in vec]
            rhs //= g
        new = (vec, rhs, pivot)
        # back-substitute into existing rows to keep reduced form; rows are
        # replaced, never changed in place, so copies may share them.  A
        # changed row keeps its pivot and its sign there: vec is zero at
        # that pivot and before its own, which lies past the pivot of every
        # row nonzero there
        new_rows = []
        for rvec, rrhs, rpivot in self.rows:
            if rvec[pivot]:
                rvec, rrhs = _eliminate(rvec, rrhs, new)
            new_rows.append((rvec, rrhs, rpivot))
        new_rows.append(new)
        self.rows = new_rows
        return True

    def entails(self, lit: LinearLiteral) -> bool:
        """Is the literal's equality a linear consequence of the system?"""
        vec, rhs = self.residual(lit)
        return _is_zero(vec, rhs)

    def point_avoiding(self, residuals) -> dict:
        """A solution of the system at which no given residual (see
        residual) vanishes, found by scanning moment-curve values of the
        free parameters.  No residual may be zero; then it excludes at most
        len(free) parameter values, so the scan is guaranteed to stop.

        A residual is zero at every pivot column, so it is evaluated on the
        integer parameter values alone; each pivot variable is then
        (rhs - sum of the row over the free columns) / pivot entry.
        """
        pivots = {pivot for _, _, pivot in self.rows}
        free = [i for i in range(len(self.vars)) if i not in pivots]
        last = len(residuals) * max(1, len(free)) + 1
        for t in range(last + 1):
            values = [t ** (pos + 1) for pos in range(len(free))]
            if all(sum(vec[i] * x for i, x in zip(free, values)) != rhs
                   for vec, rhs in residuals):
                break
        else:
            raise AssertionError("point_avoiding called with an entailed equality")
        point = [Fraction(0)] * len(self.vars)
        for i, x in zip(free, values):
            point[i] = Fraction(x)
        for rvec, rrhs, pivot in self.rows:
            total = sum(rvec[i] * x for i, x in zip(free, values))
            point[pivot] = Fraction(rrhs - total, rvec[pivot])
        return dict(zip(self.vars, point))


def _is_zero(vec, rhs) -> bool:
    return rhs == 0 and not any(vec)


def _eliminate(vec, rhs, row):
    """The primitive positive multiple of (vec, rhs) minus the multiple of
    row that clears vec at row's pivot column."""
    rvec, rrhs, pivot = row
    a, f = rvec[pivot], vec[pivot]
    g = gcd(a, f)
    a, f = a // g, f // g
    vec = [a * c - f * r for c, r in zip(vec, rvec)]
    rhs = a * rhs - f * rrhs
    g = gcd(*vec, rhs)
    if g > 1:
        vec = [c // g for c in vec]
        rhs //= g
    return vec, rhs


def _assume(state, lit: LinearLiteral, positive: bool):
    """One theory step: the state (system, avoid) extended by lit read as
    an equality (positive) or as a disequality, or None when the extended
    conjunction is unsatisfiable.

    The system is row-reduced and consistent; avoid lists, in the order
    they were assumed, the residuals (see _EqSystem.residual) of the
    non-trivial disequalities' equalities against the system, none of
    them zero: the system entails none of those equalities.  An equality
    adds at most one row, and the residuals are kept reduced by
    eliminating that row's pivot from each, so no residual is reduced
    against the whole system again.  The given state is never changed: an
    equality is added to a copy of the system, which shares the row
    vectors, because _EqSystem.add builds new vectors instead of changing
    a row in place.
    """
    system, avoid = state
    if lit.is_trivial:  # 0 = d holds iff d = 0, and 0 != d iff d != 0
        return state if (lit.const == 0) == positive else None
    if positive:
        before = len(system.rows)
        system = system.copy()
        if not system.add(lit):
            return None
        if len(system.rows) > before:
            new = system.rows[-1]
            pivot = new[2]
            reduced = []
            for vec, rhs in avoid:
                if vec[pivot]:
                    vec, rhs = _eliminate(vec, rhs, new)
                    if _is_zero(vec, rhs):
                        return None
                reduced.append((vec, rhs))
            avoid = reduced
        return system, avoid
    vec, rhs = system.residual(lit)
    if _is_zero(vec, rhs):
        return None
    return system, avoid + [(vec, rhs)]


def conj_sat(eqs, neqs, extra_vars=()):
    """Satisfiability of a conjunction of equality and disequality literals
    over Q; returns a witness point (dict var -> Fraction) or None.

    Satisfiable iff the equalities are consistent and entail none of the
    disequalities' underlying equalities (finitely many proper affine
    subspaces cannot cover the solution space over Q).  Literals are used
    by position: each member of eqs is read as an equality and each member
    of neqs as a disequality, whatever its polarity flag says.  Decided by
    cnf_sat over one unit clause per literal, in that order: a search that
    never branches visits the root and at most one node per literal.
    """
    units = [(LinearLiteral(lit.coeffs, lit.const, True),) for lit in eqs]
    units += [(LinearLiteral(lit.coeffs, lit.const, False),) for lit in neqs]
    return cnf_sat(LinearCnf(units), extra_vars, budget=len(units) + 1)


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
    if budget < 1:  # the root is the first node
        raise BudgetExceededError(f"cnf_sat exceeded branching budget {budget}")
    nodes = 1
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
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(f"cnf_sat exceeded branching budget {budget}")
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
    re-verified by mutual entailment before returning.  A clause that
    contains every literal of some clause on the other side is entailed
    by it (literals are normalized, so they compare exactly), so an
    _entails search proves only a clause with no such subset: at most
    the clauses the transform changed.
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
        subsumers = [frozenset(c) for c in src.clauses]
        for clause in dst.clauses:
            lits = frozenset(clause)
            if not (any(s <= lits for s in subsumers) or _entails(src.clauses, clause, budget)):
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
        for point in (p, q):
            for v in f.variables():
                point.setdefault(v, Fraction(0))
        if not (f.holds(p) and f.holds(q)) or check_mix_preservation(irr, p, q):
            raise AssertionError("the witness pair does not certify that the CNF is non-Horn")
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
    system = _EqSystem(f.variables())

    pending = True
    while pending:
        pending = False
        for clause in f.clauses:
            positives = [lit for lit in clause if lit.is_eq]
            negatives = [lit for lit in clause if not lit.is_eq]
            if positives and any(lit.trivially_true for lit in positives):
                continue
            if not all(system.entails(lit) for lit in negatives):
                continue
            if not positives:
                return False, None
            e0 = positives[0]
            if e0.is_trivial:  # 0 = d with d != 0: clause cannot be satisfied
                return False, None
            if system.entails(e0):
                continue
            if not system.add(e0):
                return False, None
            pending = True

    # the negated equalities to dodge, deduped: point_avoiding is linear in
    # their number; _assume adds nothing for a trivial one and refuses an
    # entailed one
    state = (system, [])
    for lit in dict.fromkeys(lit for clause in f.clauses for lit in clause if not lit.is_eq):
        state = _assume(state, lit, False) or state
    point = system.point_avoiding(state[1])
    assert f.holds(point)
    return True, point


def check_mix_preservation(f: LinearCnf, p: dict, q: dict) -> bool:
    """Does the mix e(p, q) of two satisfying points still satisfy f?
    Decided over Q by the two-point rule of the module docstring; raises
    ValueError when p or q misses a variable, when they assign different
    variables, or when one does not satisfy f."""
    for name, point in (("first", p), ("second", q)):
        missing = f.variables() - set(point)
        if missing:
            raise ValueError(f"the {name} point does not assign {sorted(missing)}")
        if not f.holds(point):
            raise ValueError(f"the {name} point does not satisfy the CNF")
    if set(p) != set(q):
        raise ValueError("mix requires points over the same variables")

    def holds_at_mix(lit):
        if lit.is_eq:
            return lit.holds(p) and lit.holds(q)
        return lit.holds(p) or lit.holds(q)

    return all(any(holds_at_mix(lit) for lit in clause) for clause in f.clauses)


# -- CNF text format --


def _bad_rational(token: str, lineno: int, reason: str) -> CnfError:
    """The error for a rejected token, echoing at most its first 40
    characters and then its length."""
    shown = repr(token) if len(token) <= 40 else f"{token[:40]!r}... ({len(token)} characters)"
    return CnfError(f"line {lineno}: bad rational {shown}: {reason}")


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _parse_rational(token: str, lineno: int) -> Fraction:
    """['-'] digits ['/' digits]; Fraction(token) would also expand 1e5000000."""
    m = _RATIONAL.fullmatch(token)
    if m is None:
        raise _bad_rational(token, lineno, "expected ['-'] digits ['/' digits]")
    try:
        return Fraction(int(m[1])) if m[2] is None else Fraction(int(m[1]), int(m[2]))
    except ValueError:  # int() refuses more digits than the interpreter's limit
        raise _bad_rational(token, lineno, f"more than {sys.get_int_max_str_digits()} "
                                           "digits") from None
    except ZeroDivisionError as exc:
        raise _bad_rational(token, lineno, str(exc)) from None


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
        coeffs[var] = coeffs[var] + c if var in coeffs else c
    return LinearLiteral.make(coeffs, const, is_eq)


def parse_cnf(text: str) -> LinearCnf:
    clauses = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        clauses.append(tuple(_parse_literal(part, lineno) for part in line.split("|")))
    return LinearCnf(clauses)
