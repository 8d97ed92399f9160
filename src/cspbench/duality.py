"""First-order definability of CSPs via one-tolerant polymorphisms and
critical obstructions.

An obstruction for a template is a finite structure with no homomorphism
to it; it is critical when deleting any single relation tuple (keeping the
domain) yields a structure that does map.  A critical obstruction never
properly contains another obstruction, and its tuples all live in one
connected component, so enumeration grows candidate structures tuple by
tuple through the homomorphic ones only: a state is an isomorphism class
of structures mapping to the template, and every one-tuple extension that
stops mapping is tested for criticality.

A homomorphism from the one-tolerant k-th power to the template is a
k-ary 1-tolerant polymorphism.  Finding one of arity n+1 certifies that
the CSP is first-order definable and that all critical obstructions have
at most n tuples, which makes the set of critical obstructions within
that bound a complete obstruction set; the corresponding universal
sentence is emitted as text (one negated canonical query per
obstruction).  Failure to find one up to a bound certifies nothing and
is always reported as bounded evidence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .structures import (
    DEFAULT_BUDGET,
    FiniteStructure,
    canonical_form,
    find_homomorphism,
    one_tolerant_power,
)
from .formulas import canonical_query, render
from .clones import OperationTable

# Default bounds for negative-evidence enumeration; deep sweeps (e.g. all
# obstructions of K2 up to C5) should pass explicit bounds.
DEFAULT_MAX_VERTICES = 4
DEFAULT_MAX_TUPLES = 6


@dataclass
class Obstruction:
    structure: FiniteStructure
    critical: bool
    hyperedges: int  # total number of relation tuples

    def verify(self, template: FiniteStructure, budget: int = DEFAULT_BUDGET) -> bool:
        t = template.relational_reduct()
        if find_homomorphism(self.structure, t, budget=budget) is not None:
            return False
        return not self.critical or _weakenings_map(self.structure, t, budget)


def _all_tuples(s: FiniteStructure):
    for rname, _ in s.sig.relations:
        for tup in sorted(s.rel[rname]):
            yield rname, tup


def _delete_tuple(s: FiniteStructure, rname: str, tup) -> FiniteStructure:
    rels = {r: set(ts) for r, ts in s.rel.items()}
    rels[rname].discard(tuple(tup))
    return FiniteStructure(s.sig, s.n, rels, s.const)


def _weakenings_map(s: FiniteStructure, template: FiniteStructure, budget: int) -> bool:
    """Criticality of an obstruction s: does every structure obtained by
    deleting one tuple of s map to the template?"""
    return all(find_homomorphism(_delete_tuple(s, rname, tup), template, budget=budget) is not None
               for rname, tup in _all_tuples(s))


def _add_tuple(s: FiniteStructure, rname: str, tup, n: int) -> FiniteStructure:
    rels = {r: set(ts) for r, ts in s.rel.items()}
    rels[rname].add(tuple(tup))
    return FiniteStructure(s.sig, n, rels, s.const)


def has_one_tolerant_polymorphism(a: FiniteStructure, k: int,
                                  budget: int = DEFAULT_BUDGET):
    """A homomorphism from the one-tolerant k-th power to a, as a k-ary
    operation table, or None (the search is exhaustive)."""
    otp = one_tolerant_power(a, k, budget=budget)
    h = find_homomorphism(otp, a, budget=budget)
    return OperationTable(a.n, k, h.map) if h is not None else None


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


def critical_obstructions(a: FiniteStructure,
                          max_vertices: int = DEFAULT_MAX_VERTICES,
                          max_tuples: int = DEFAULT_MAX_TUPLES,
                          budget: int = DEFAULT_BUDGET):
    """All critical obstructions with at most max_vertices vertices and
    max_tuples tuples, up to isomorphism, each verified critical.

    Constants are not allowed in obstructions; the search runs against the
    relational reduct of the template.
    """
    template = a.relational_reduct()
    sig = template.sig
    if max_vertices < 1 or max_tuples < 1:
        raise ValueError("enumeration bounds must be positive")

    def maps(s):
        return find_homomorphism(s, template, budget=budget) is not None

    found = {}
    frontier = {}
    for s in _seed_structures(sig):
        if s.n > max_vertices:
            continue
        key = canonical_form(s)
        if maps(s):
            frontier[key] = s
        else:
            # a single-tuple obstruction is critical iff its tupleless
            # weakening maps, which it always does for a nonempty template
            found.setdefault(key, Obstruction(s, True, 1))

    tuples_used = 1
    while frontier and tuples_used < max_tuples:
        tuples_used += 1
        next_frontier = {}
        for s in frontier.values():
            for ext in _extensions(s, max_vertices):
                key = canonical_form(ext)
                if key in found or key in next_frontier:
                    continue
                if maps(ext):
                    next_frontier[key] = ext
                elif _is_connected(ext) and _weakenings_map(ext, template, budget):
                    found[key] = Obstruction(ext, True, ext.total_tuples())
        frontier = next_frontier

    out = sorted(found.values(), key=lambda o: (o.hyperedges, o.structure.n, canonical_form(o.structure)))
    return out


def obstruction_set_decides(obstructions, instance: FiniteStructure,
                            budget: int = DEFAULT_BUDGET) -> bool:
    """CSP decision through a complete obstruction set: the instance is a
    yes-instance iff no obstruction maps into it."""
    return all(
        find_homomorphism(o.structure, instance, budget=budget) is None
        for o in obstructions
    )


def universal_sentence_text(obstructions) -> str:
    """Universal first-order definition synthesized from an obstruction set:
    the conjunction of the negated canonical queries.  Emitted as text only;
    negation is not part of the evaluable fragment."""
    if not obstructions:
        return "true  # no obstructions: every instance is a yes-instance"
    clauses = [f"not ({render(canonical_query(o.structure))})" for o in obstructions]
    return " & ".join(clauses)


@dataclass
class FoDefinabilityReport:
    fo_definable: bool | None  # None means: unknown, bounded negative evidence
    verdict: str
    polymorphism_arity: int | None = None
    polymorphism: OperationTable | None = None
    obstructions: tuple = ()
    universal_sentence: str | None = None
    largest_obstruction: Obstruction | None = None


def fo_definability_report(a: FiniteStructure, n_max: int = 3,
                           max_vertices: int | None = None,
                           max_tuples: int | None = None,
                           budget: int = DEFAULT_BUDGET) -> FoDefinabilityReport:
    """Search for a 1-tolerant polymorphism of arity 3..n_max+1.

    On success the CSP is first-order definable; every critical obstruction
    then has at most n = arity-1 tuples, so enumerating critical
    obstructions with that many tuples (and n * max-arity vertices, the
    most a connected n-tuple structure can use) yields a complete
    obstruction set, from which the universal sentence is synthesized.  On
    failure the verdict is explicitly arity-bounded and proves nothing; the
    largest critical obstruction found within the requested bounds is
    reported as evidence.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2 (1-tolerant polymorphisms are at least ternary)")
    max_rel_arity = max((ar for _, ar in a.sig.relations), default=1)
    for k in range(3, n_max + 2):
        f = has_one_tolerant_polymorphism(a, k, budget=budget)
        if f is None:
            continue
        n = k - 1
        vbound = min(max_vertices or n * max_rel_arity, n * max_rel_arity)
        obs = critical_obstructions(a, max_vertices=vbound, max_tuples=n, budget=budget)
        return FoDefinabilityReport(
            fo_definable=True,
            verdict=f"fo-definable (finite-template certificate: 1-tolerant polymorphism of arity {k})",
            polymorphism_arity=k,
            polymorphism=f,
            obstructions=tuple(obs),
            universal_sentence=universal_sentence_text(obs),
        )
    obs = critical_obstructions(
        a,
        max_vertices=max_vertices or DEFAULT_MAX_VERTICES,
        max_tuples=max_tuples or DEFAULT_MAX_TUPLES,
        budget=budget,
    )
    largest = max(obs, key=lambda o: o.hyperedges, default=None)
    return FoDefinabilityReport(
        fo_definable=None,
        verdict=(f"no 1-tolerant polymorphism up to arity {n_max + 1} "
                 "(bounded evidence; certifies nothing beyond the bound)"),
        obstructions=tuple(obs),
        largest_obstruction=largest,
    )
