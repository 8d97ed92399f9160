"""Finite-arity polymorphisms, operation predicates, and cores.

A k-ary operation on domain 0..n-1 is a flat value table of length n**k in
row-major order, so the table of a k-ary polymorphism is literally the map
array of a homomorphism from power(a, k) to a under the shared tuple
encoding.  Enumeration therefore runs the backtracking homomorphism search
over the value table with incremental constraint checks instead of
filtering all n**(n**k) tables; results come out in canonical
(lexicographic) order.

Operation table serialization (JSON)::

    {"domain": n, "arity": k, "values": [v_0, ..., v_{n**k - 1}]}
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .structures import (
    DEFAULT_BUDGET,
    FiniteStructure,
    Homomorphism,
    _hom_maps,
    encode_tuple,
    enumerate_homomorphisms,
    is_int,
    power,
)


@dataclass(frozen=True)
class OperationTable:
    """An explicit k-ary operation f: {0..n-1}^k -> {0..n-1}."""

    n: int
    k: int
    values: tuple[int, ...]

    def __post_init__(self):
        if not (is_int(self.n) and is_int(self.k)) or self.n < 1 or self.k < 1:
            raise ValueError("operation table needs integers n >= 1 and k >= 1")
        if len(self.values) != self.n ** self.k:
            raise ValueError(f"value table must have length {self.n ** self.k}")
        if not all(is_int(v) and 0 <= v < self.n for v in self.values):
            raise ValueError("table values must lie in the domain")

    @classmethod
    def _from_checked(cls, n: int, k: int, values: tuple) -> "OperationTable":
        """An unchecked table, read off a search from n**k into n elements."""
        f = cls.__new__(cls)
        f.__dict__.update(n=n, k=k, values=values)
        return f

    def apply(self, args) -> int:
        return self.values[encode_tuple(args, self.n)]

    def to_json_dict(self) -> dict:
        return {"domain": self.n, "arity": self.k, "values": list(self.values)}

    @staticmethod
    def from_json_dict(doc: dict) -> "OperationTable":
        if not isinstance(doc, dict) or set(doc) != {"domain", "arity", "values"}:
            raise ValueError("operation table document needs exactly domain, arity, values")
        if not isinstance(doc["values"], list):
            raise ValueError('"values" must be a list of table values')
        return OperationTable(doc["domain"], doc["arity"], tuple(doc["values"]))

    @staticmethod
    def projection(n: int, k: int, coord: int) -> "OperationTable":
        values = tuple(t[coord] for t in itertools.product(range(n), repeat=k))
        return OperationTable(n, k, values)

    @staticmethod
    def from_function(n: int, k: int, fn) -> "OperationTable":
        values = tuple(fn(*t) for t in itertools.product(range(n), repeat=k))
        return OperationTable(n, k, values)


@dataclass(frozen=True)
class EssentialityWitness:
    """Witness that an operation depends on two disjoint coordinate sets.

    The operation depends on X: its values at base and at base[X := other]
    differ, and likewise for the Y pair.
    """

    x_coords: tuple[int, ...]
    y_coords: tuple[int, ...]
    x_base: tuple[int, ...]
    x_other: tuple[int, ...]
    y_base: tuple[int, ...]
    y_other: tuple[int, ...]

    def verify(self, f: OperationTable) -> bool:
        if set(self.x_coords) & set(self.y_coords):
            return False

        def subst(base, coords, repl):
            t = list(base)
            for c in coords:
                t[c] = repl[c]
            return tuple(t)

        x_ok = f.apply(self.x_base) != f.apply(subst(self.x_base, self.x_coords, self.x_other))
        y_ok = f.apply(self.y_base) != f.apply(subst(self.y_base, self.y_coords, self.y_other))
        return x_ok and y_ok


def preserves_relation(f: OperationTable, tuples, arity: int) -> bool:
    """Does f preserve the given set of tuples, applied column-wise?"""
    rows = sorted(tuples)
    tset = set(rows)
    for choice in itertools.product(rows, repeat=f.k):
        image = tuple(f.apply(tuple(choice[j][p] for j in range(f.k))) for p in range(arity))
        if image not in tset:
            return False
    return True


def operation_preserves(f: OperationTable, a: FiniteStructure) -> bool:
    """Exhaustive check that f is a polymorphism of a."""
    if f.n != a.n:
        return False
    return (all(preserves_relation(f, a.rel[rname], ar) for rname, ar in a.sig.relations)
            and all(f.apply((v,) * f.k) == v for v in a.const.values()))


def enumerate_polymorphisms(a: FiniteStructure, k: int, budget: int = DEFAULT_BUDGET):
    """All k-ary polymorphisms of a, i.e. Hom(power(a, k), a), in canonical order."""
    pw = power(a, k, budget=budget)
    return [OperationTable._from_checked(a.n, k, h.map)
            for h in enumerate_homomorphisms(pw, a, budget=budget)]


def _essential_coordinates(f: OperationTable):
    """Coordinates i such that changing only argument i can change the value,
    with a witness pair of argument tuples for each."""
    witnesses = {}
    for i in range(f.k):
        found = None
        for t in itertools.product(range(f.n), repeat=f.k):
            base = f.apply(t)
            for v in range(f.n):
                if v == t[i]:
                    continue
                s = t[:i] + (v,) + t[i + 1:]
                if f.apply(s) != base:
                    found = (t, s)
                    break
            if found:
                break
        if found:
            witnesses[i] = found
    return witnesses


def is_essentially_unary(f: OperationTable):
    """Decide whether f(x) = g(x_beta) for some coordinate beta and unary g.

    Returns (True, (beta, g_values)) or (False, EssentialityWitness); the
    witness consists of two singleton coordinate sets with their two
    substitution pairs.
    """
    essential = _essential_coordinates(f)
    if len(essential) <= 1:
        beta = next(iter(essential), 0)
        g = tuple(f.apply((d,) * f.k) for d in range(f.n))
        return True, (beta, g)
    (i, (ti, si)), (j, (tj, sj)) = sorted(essential.items())[:2]
    witness = EssentialityWitness(
        x_coords=(i,), y_coords=(j,),
        x_base=ti, x_other=si,
        y_base=tj, y_other=sj,
    )
    assert witness.verify(f)
    return False, witness


@dataclass
class EssentialUnarityVerdict:
    """Arity-bounded verdict: finite enumeration cannot certify the
    property for all (in particular infinitary) polymorphisms."""

    all_essentially_unary: bool
    max_arity: int
    counterexample: OperationTable | None = None
    witness: EssentialityWitness | None = None


def essential_unarity_verdict(polymorphisms, max_arity: int) -> EssentialUnarityVerdict:
    """The verdict of all_polymorphisms_essentially_unary read off
    polymorphisms(k), the k-ary polymorphisms in canonical order.  Arities
    are asked for in turn from 1 and only up to the first counterexample,
    so a budget overrun at a higher arity does not hide it."""
    if max_arity < 2:
        raise ValueError("max_arity must be at least 2")
    for k in range(1, max_arity + 1):
        polys = polymorphisms(k)
        if k == 1:
            continue  # unary operations are essentially unary by definition
        for f in polys:
            ok, info = is_essentially_unary(f)
            if not ok:
                return EssentialUnarityVerdict(False, max_arity, f, info)
    return EssentialUnarityVerdict(True, max_arity)


def all_polymorphisms_essentially_unary(a: FiniteStructure, max_arity: int,
                                        budget: int = DEFAULT_BUDGET) -> EssentialUnarityVerdict:
    """Check every polymorphism of arity 2..max_arity for essential unarity."""
    return essential_unarity_verdict(
        lambda k: enumerate_polymorphisms(a, k, budget=budget), max_arity)


def is_core(a: FiniteStructure, budget: int = DEFAULT_BUDGET):
    """True iff every endomorphism is an embedding (injective and reflecting
    every relation); returns (verdict, certificate) where the certificate is
    the lex-least non-embedding endomorphism when the verdict is false.

    On a finite structure an endomorphism is an embedding iff it is
    injective: an injective endomorphism is a bijection that maps each
    relation R injectively into R, so onto R, and hence reflects it.  The
    scan keeps no endomorphism and stops at the first non-injective one.
    """
    m = next((m for m in _hom_maps(a, a, budget=budget) if len(set(m)) < a.n), None)
    return m is None, None if m is None else Homomorphism(a, a, m)


def is_epc_finite(a: FiniteStructure, budget: int = DEFAULT_BUDGET) -> bool:
    """Existential positive closedness for a finite structure.

    For finite structures this coincides with being a core: endomorphisms
    automatically preserve every pp-definable relation, so expanding the
    structure by all pp-definable relations leaves the endomorphism set
    unchanged, and the epc criterion collapses to the core property.
    """
    return is_core(a, budget=budget)[0]
