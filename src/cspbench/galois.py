"""The finite Inv-Pol Galois connection.

pp_closure computes the least pp-definable relation containing a given
relation r via the indicator construction: the closure <G> of m tuples is
the set of images of their columns, elements of power(a, m), under all
homomorphisms power(a, m) -> a, read off one projected search
(structures._images) that finds each image once, so closures never
materialize the (possibly enormous) polymorphism set.  <r> = <G> for
every G with G <= r <= <G>, so only the powers of a generating subset G,
grown greedily from r's sorted tuples (_grow), are built and searched.
The same image search gives pp-types: the pp-type of s is contained in
that of t iff an endomorphism sends s to t.

Certificates are two-sided: a pp formula that re-evaluates to exactly r,
or a t-ary polymorphism, a minor of a map from G's power, mapping r's t
tuple rows to a tuple outside r.
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
    find_homomorphism,
    is_int,
    power,
    product,
)
from .formulas import (Eq, FALSE, FormulaError, _check_symbols, _fact_formula, _numbered_names,
                       _walk, canonical_structure)
from .clones import OperationTable, operation_preserves

# t tuples mean a power and a t-ary operation table of |A|**t elements each.
# This cap keeps both at desk scale (2**8 = 256, 3**5 = 243).
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
        tuples = [tuple(t) for t in self.tuples]
        for t in tuples:  # checked before a set hashes them
            if len(t) != self.arity:
                raise ValueError(f"tuple {t} does not have arity {self.arity}")
            if not all(is_int(v) for v in t):
                raise ValueError(f"tuple {t} holds a value that is not an integer")
        object.__setattr__(self, "tuples", frozenset(tuples))

    def check_domain(self, a: FiniteStructure):
        for t in self.tuples:
            if not all(0 <= v < a.n for v in t):
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


def _check_cap(n: int, t: int, what: str):
    """Refuse the indicator power of the t tuples of a what over n elements."""
    if n ** t > MAX_POWER_DOMAIN:
        raise _over_cap(n, f"the {what} has {t} tuples, so its indicator power has {n}**{t} elements",
                        f"a {what} over {n} elements may have at most {{}} tuples",
                        "relation with a tuple")


def _grow(a: FiniteStructure, rows: tuple, arity: int, budget: int, inside=None):
    """Greedy generating subset gen of the sorted tuples rows: a row joins
    gen when <gen> misses it, and <gen> is then one image search on
    power(a, len(gen)), built from the previous power by one more factor;
    the growth stops at the first image outside inside, when given.
    Returns (gen, columns, power, closure, outside), outside None or the
    (image, least) pair of _images for that image."""
    gen, columns, closure = [], [0] * arity, set()
    for row in rows:
        if row in closure:
            continue
        gen.append(row)
        _check_cap(a.n, len(gen), "generating subset")
        pw = product(pw, a, budget) if len(gen) > 1 else power(a, 1, budget)
        columns, closure = [c * a.n + x for c, x in zip(columns, row)], set()
        for image, least in _images(pw, a, columns, budget):
            if inside is not None and image not in inside:
                return gen, columns, pw, closure, (image, least)
            closure.add(image)
    return gen, columns, pw, closure, None


def pp_closure(a: FiniteStructure, r: Relation, budget: int = DEFAULT_BUDGET) -> Relation:
    """Smallest pp-definable relation of a containing r: the closure of a
    generating subset grown greedily from r's tuples (_grow), one image
    search per tuple of the subset.

    The closure of the empty relation is empty (pp-definable by false);
    callers who care can catch the EmptyRelationClosure warning.
    """
    r.check_domain(a)
    if not r.tuples:
        warnings.warn("closure of the empty relation is empty by convention",
                      EmptyRelationClosure, stacklevel=2)
        return Relation(r.arity, frozenset())
    return Relation(r.arity, frozenset(_grow(a, tuple(sorted(r.tuples)), r.arity, budget)[3]))


def is_pp_definable(a: FiniteStructure, r: Relation, budget: int = DEFAULT_BUDGET):
    """Decide pp-definability of r in a; returns (verdict, certificate).

    r is pp-definable iff <G> stays inside r, G the generating subset of
    _grow.  A negative lifts the least map g from G's power with an image
    outside r to the minor F(x_1..x_t) = g(x_{i_1}..x_{i_m}), i_j the index
    of G's j-th tuple among r's t sorted tuples."""
    r.check_domain(a)
    if not r.tuples:
        return True, PpDefinabilityCertificate(True, formula=FALSE)
    rows = tuple(sorted(r.tuples))
    gen, _, _, _, outside = growth = _grow(a, rows, r.arity, budget, inside=r.tuples)
    if outside is None:
        return True, PpDefinabilityCertificate(
            True, formula=synthesize_pp_definition(a, r, budget, growth=growth))
    image, least = outside
    _check_cap(a.n, len(rows), "relation")
    at = [0]  # per element of power(a, t), the element of power(a, |G|) F reads g at
    for row in rows:
        at = ([e * a.n + x for e in at for x in range(a.n)] if row in gen
              else [e for e in at for _ in range(a.n)])
    g = least()
    f = OperationTable._from_checked(a.n, len(rows), tuple([g[e] for e in at]))
    return False, PpDefinabilityCertificate(
        False, violating_operation=f, input_rows=rows, violating_tuple=image)


def synthesize_pp_definition(a: FiniteStructure, r: Relation,
                             budget: int = DEFAULT_BUDGET, growth=None):
    """A pp formula whose extension over a is exactly r.

    The formula is the canonical query of power(a, |G|), G the generating
    subset of _grow, with G's column positions left free: element
    variables are all existentially quantified, and fresh free variables
    y_i are pinned to the column elements by equalities.  The
    postcondition (extension == r) is verified by re-evaluation before
    returning.  Raises ValueError when r is not pp-definable.  A caller
    that has run _grow on r already passes its result as growth.
    """
    r.check_domain(a)
    if not r.tuples:
        return FALSE
    _, columns, pw, _, outside = growth or _grow(a, tuple(sorted(r.tuples)), r.arity,
                                                 budget, inside=r.tuples)
    if outside is None:
        outer = _numbered_names(r.arity, a.sig.constants)
        inner = _numbered_names(pw.n, set(a.sig.constants) | set(outer), prefixes=("_e",))
        phi = _fact_formula(pw, inner, [Eq(y, inner[col]) for y, col in zip(outer, columns)])
        if relation_of_formula(a, phi, r.arity, budget) == r.tuples:
            return phi
    raise ValueError("relation is not pp-definable; synthesize_pp_definition "
                     "requires is_pp_definable(a, r) to hold")


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
