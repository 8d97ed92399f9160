"""The finite Inv-Pol Galois connection.

pp_closure computes the least pp-definable relation containing a given
relation r via the indicator construction: with t = |r| tuples, the i-th
column of r's tuple list is an element of power(a, t), and the closure is
the set of images of those columns under all homomorphisms
power(a, t) -> a, read off one projected search (structures._images) that
finds each image once, so closures never materialize the (possibly
enormous) polymorphism set.  The same image search gives pp-types: the
pp-type of s is contained in that of t iff an endomorphism sends s to t.

Certificates are two-sided: a pp formula that re-evaluates to exactly r,
or a t-ary polymorphism mapping r's tuple rows to a tuple outside r.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

from .structures import (
    BudgetExceededError,
    DEFAULT_BUDGET,
    FiniteStructure,
    _images,
    encode_tuple,
    find_homomorphism,
    is_int,
    power,
)
from .formulas import (Eq, FALSE, FormulaError, _check_symbols, _fact_formula, _numbered_names,
                       _walk, canonical_structure)
from .clones import OperationTable, operation_preserves

# Indicator powers: t tuples mean a power with |A|**t elements.  These caps
# keep the construction at desk scale (2**8 = 256, 3**5 = 243).
MAX_POWER_DOMAIN = 260


class EmptyRelationClosure(UserWarning):
    """Closure of the empty relation is the empty relation by convention."""


@dataclass(frozen=True)
class Relation:
    """An m-ary relation over the domain of an associated structure."""

    arity: int
    tuples: frozenset

    def __post_init__(self):
        if not is_int(self.arity) or self.arity < 0:
            raise ValueError(f"relation arity must be a non-negative integer, got {self.arity!r}")
        object.__setattr__(self, "tuples", frozenset(tuple(t) for t in self.tuples))
        for t in self.tuples:
            if len(t) != self.arity:
                raise ValueError(f"tuple {t} does not have arity {self.arity}")

    @staticmethod
    def make(arity, tuples) -> "Relation":
        return Relation(arity, frozenset(tuple(t) for t in tuples))

    def check_domain(self, a: FiniteStructure):
        for t in self.tuples:
            if not all(is_int(v) and 0 <= v < a.n for v in t):
                raise ValueError(f"tuple {t} outside domain of size {a.n}")


@dataclass
class PpDefinabilityCertificate:
    """Either a defining pp formula or a violating polymorphism.

    For a negative answer, applying the operation column-wise to
    input_rows (the tuples of r) yields violating_tuple, which is outside
    r even though every row is inside.
    """

    definable: bool
    formula: object | None = None
    violating_operation: OperationTable | None = None
    input_rows: tuple | None = None
    violating_tuple: tuple | None = None

    def verify(self, a: FiniteStructure, r: Relation) -> bool:
        if self.definable:
            return relation_of_formula(a, self.formula, r.arity) == r.tuples
        f = self.violating_operation
        if f is None or self.violating_tuple in r.tuples:
            return False
        if any(row not in r.tuples for row in self.input_rows):
            return False
        image = tuple(
            f.apply(tuple(row[p] for row in self.input_rows)) for p in range(r.arity)
        )
        return image == self.violating_tuple and operation_preserves(f, a)


def relation_of_formula(a: FiniteStructure, phi, arity: int, budget: int = DEFAULT_BUDGET) -> frozenset:
    """Extension of a pp formula over a; free variables are taken in
    length-then-lexicographic order (so x2 precedes x10), and positions
    beyond them range over the domain.

    The extension is the set of images of the free variables under the
    homomorphisms from the formula's canonical database (Chandra and
    Merlin), built once and read off one image search under budget; with
    false it is empty.  A formula with a disjunction raises FormulaError."""
    walk = _walk(phi, a.sig)
    var_order = sorted(walk.free.difference(a.sig.constants), key=lambda v: (len(v), v))
    if len(var_order) > arity:
        raise ValueError(f"formula has {len(var_order)} free variables, expected <= {arity}")
    _check_symbols(walk)
    if walk.disjunctive:
        raise FormulaError("relation_of_formula takes pp formulas only")
    if walk.false:
        return frozenset()
    db, elem = canonical_structure(phi, a.sig, walk)
    rest = list(itertools.product(range(a.n), repeat=arity - len(var_order)))
    return frozenset(image + tail
                     for image, _ in _images(db, a, [elem[v] for v in var_order], budget)
                     for tail in rest)


def _max_exponent(n: int) -> int:
    """The largest e with n**e within MAX_POWER_DOMAIN, for n >= 2."""
    e = 0
    while n ** (e + 1) <= MAX_POWER_DOMAIN:
        e += 1
    return e


def _over_cap(n: int, power: str, at_most: str, nothing: str) -> BudgetExceededError:
    """The error for a power of the n-element domain over MAX_POWER_DOMAIN:
    its advice is at_most with the largest exponent that fits in place of
    {}, or, when not even exponent 1 fits, that no nothing fits."""
    e = _max_exponent(n)
    advice = at_most.format(e) if e else f"no {nothing} fits under the cap on {n} elements"
    return BudgetExceededError(f"{power}, over the configured cap of {MAX_POWER_DOMAIN}: {advice}")


def _indicator_power(a: FiniteStructure, t: int, budget: int) -> FiniteStructure:
    if a.n ** t > MAX_POWER_DOMAIN:
        raise _over_cap(a.n, f"the relation has {t} tuples, so its indicator power has "
                        f"{a.n}**{t} elements",
                        f"a relation over {a.n} elements may have at most {{}} tuples",
                        "relation with a tuple")
    return power(a, t, budget=budget)


def _columns(a: FiniteStructure, rows, arity: int) -> list:
    """The i-th column of the tuple list rows, for each i < arity, as an
    element of power(a, len(rows))."""
    return [encode_tuple(tuple(row[i] for row in rows), a.n) for i in range(arity)]


def pp_closure(a: FiniteStructure, r: Relation, budget: int = DEFAULT_BUDGET) -> Relation:
    """Smallest pp-definable relation of a containing r, one image search.

    The closure of the empty relation is empty (pp-definable by false);
    callers who care can catch the EmptyRelationClosure warning.
    """
    r.check_domain(a)
    if not r.tuples:
        warnings.warn("closure of the empty relation is empty by convention",
                      EmptyRelationClosure, stacklevel=2)
        return Relation(r.arity, frozenset())
    pw = _indicator_power(a, len(r.tuples), budget)
    columns = _columns(a, sorted(r.tuples), r.arity)
    return Relation(r.arity, frozenset(image for image, _ in _images(pw, a, columns, budget)))


def is_pp_definable(a: FiniteStructure, r: Relation, budget: int = DEFAULT_BUDGET):
    """Decide pp-definability of r in a; returns (verdict, certificate)."""
    r.check_domain(a)
    if not r.tuples:
        return True, PpDefinabilityCertificate(True, formula=FALSE)
    rows = tuple(sorted(r.tuples))
    pw = _indicator_power(a, len(rows), budget)
    for image, least in _images(pw, a, _columns(a, rows, r.arity), budget):
        if image not in r.tuples:
            f = OperationTable(a.n, len(rows), least())
            return False, PpDefinabilityCertificate(
                False, violating_operation=f, input_rows=rows, violating_tuple=image)
    return True, PpDefinabilityCertificate(
        True, formula=synthesize_pp_definition(a, r, budget, indicator_power=pw))


def synthesize_pp_definition(a: FiniteStructure, r: Relation,
                             budget: int = DEFAULT_BUDGET,
                             indicator_power: FiniteStructure | None = None):
    """A pp formula whose extension over a is exactly r.

    The formula is the canonical query of power(a, t) with the column
    positions of r left free: element variables are all existentially
    quantified, and fresh free variables y_i are pinned to the column
    elements by equalities.  The postcondition (extension == r) is verified
    by re-evaluation before returning.  Raises ValueError when r is not
    pp-definable.  A caller that has built power(a, t) already passes it as
    indicator_power.
    """
    r.check_domain(a)
    if not r.tuples:
        return FALSE
    rows = sorted(r.tuples)
    pw = indicator_power or _indicator_power(a, len(rows), budget)

    outer = _numbered_names(r.arity, a.sig.constants)
    inner = _numbered_names(pw.n, set(a.sig.constants) | set(outer), prefixes=("_e",))

    columns = _columns(a, rows, r.arity)
    phi = _fact_formula(pw, inner, [Eq(y, inner[col]) for y, col in zip(outer, columns)])
    extension = relation_of_formula(a, phi, r.arity, budget)
    if extension != r.tuples:
        raise ValueError("relation is not pp-definable; synthesize_pp_definition "
                         "requires is_pp_definable(a, r) to hold")
    return phi


def pp_type_leq(a: FiniteStructure, s: tuple, t: tuple, budget: int = DEFAULT_BUDGET) -> bool:
    """Containment of pp-types of tuples: every pp formula satisfied by s is
    satisfied by t.  On a finite structure this holds iff a homomorphism of
    pointed structures (a, s) -> (a, t) exists."""
    if len(s) != len(t):
        raise ValueError("tuples must have equal length")
    pinned = {}
    for x, y in zip(s, t):
        if pinned.setdefault(x, y) != y:
            return False
    return find_homomorphism(a, a, pinned=pinned, budget=budget) is not None


@dataclass
class PpTypeReport:
    """Equivalence classes of n-tuples under mutual pp-type containment,
    with the subset maximal in the containment preorder."""

    arity: int
    classes: list
    maximal: list
    count: int = field(init=False)

    def __post_init__(self):
        self.count = len(self.maximal)


def count_maximal_pp_types(a: FiniteStructure, n: int, budget: int = DEFAULT_BUDGET) -> PpTypeReport:
    """Quotient all n-tuples by mutual pp-type containment and count the
    classes that no other class strictly dominates.  The up-set of s (the t
    with s <= t) is its image set under End(a), one search per s; classes
    come in lex order of their least member, maximal when equal to its up-set."""
    if n < 1:
        raise ValueError("type arity must be >= 1")
    if a.n ** n > MAX_POWER_DOMAIN:
        raise _over_cap(a.n, f"pp-types of {n}-tuples range over {a.n}**{n} tuples",
                        f"--n (--types-n of analyze) may be at most {{}} over {a.n} elements",
                        "tuple length")
    tuples = list(itertools.product(range(a.n), repeat=n))
    up = {s: {t for t, _ in _images(a, a, s, budget)} for s in tuples}
    classes = []
    seen = set()
    for s in tuples:
        if s not in seen:
            cls = sorted(t for t in up[s] if s in up[t])
            seen.update(cls)
            classes.append(cls)
    maximal = [i for i, cls in enumerate(classes) if up[cls[0]].issubset(cls)]
    return PpTypeReport(n, classes, maximal)
