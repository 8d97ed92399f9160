"""First-order definability of CSPs via one-tolerant polymorphisms and
critical obstructions.

An obstruction for a template is a finite structure with no homomorphism
to it; it is critical when deleting any single relation tuple (keeping the
domain) yields a structure that does map.  A critical obstruction never
properly contains another obstruction, and its tuples all live in one
connected component, so enumeration grows connected structures only,
through the homomorphic ones: it starts from one vertex and no tuples,
and each step adds one tuple that contains an existing vertex (its other
entries may be new vertices).  A state is an isomorphism class of
connected structures mapping to the template, and every extension that
stops mapping is tested for criticality.  The growth is complete: in a
spanning tree of a connected structure's tuples (two tuples adjacent when
they share a vertex), deleting a leaf tuple and the vertices only it uses
leaves a connected structure that the leaf touches, and that structure
maps to the template whenever the whole one maps or is critical.  Each
isomorphism class is decided once per level: the level remembers every
class key it decided, so a repeat skips both its homomorphism search and
its criticality check.  Two prunings also skip canonical forms.  An
extension by a tuple that an automorphism of the parent, fixing the new
vertices, maps to a lexicographically smaller tuple repeats the class of
that earlier extension (McKay, "Isomorph-free exhaustive generation",
J. Algorithms 1998).  At the last level, an extension whose carried maps
are nonempty maps, and no frontier follows, so its class is not needed.

Each frontier class carries homomorphisms to the template, in
lexicographic order and at most _MAX_CARRIED_MAPS of them; the root
carries every template element.  The maps of an extension are its
parent's, each extended by every assignment of the new vertices and kept
when they send the added tuple into the template.  When the parent's
list is complete (no map was ever cut off at the cap), the result is all
of them, so an empty result means the extension does not map, without a
search.  Only an empty result from an incomplete list runs a first-only
homomorphism search; a map it finds starts a new, incomplete list.  The
cap keeps memory and filtering time bounded: Hom(s, T) grows
exponentially with the vertices of s on templates with many tuples.  A
criticality check skips the newest tuple, because deleting it leaves the
parent with isolated vertices, which maps.  The budget bounds each
search the sweep runs, fallbacks and criticality checks alike; filtering
carried maps runs no search and is not counted.  Since the sweep runs a
subset of the searches and canonical forms it would run without carried
maps and prunings, they can remove a budget or leaf-cap overrun but
never add one.

A homomorphism from the one-tolerant k-th power to the template is a
k-ary 1-tolerant polymorphism.  Finding one of arity n+1 certifies that
the CSP is first-order definable and that all critical obstructions have
at most n tuples, which makes the set of critical obstructions within
that bound a complete obstruction set; the corresponding universal
sentence is emitted as text (one negated canonical query per
obstruction).  Failure to find one up to a bound certifies nothing and
is always reported as bounded.  The report decides and runs no other
sweep; a caller that wants bounded evidence lists the critical
obstructions within its own bounds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter

from .structures import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    FiniteStructure,
    canonical_form,
    find_homomorphism,
    one_tolerant_power,
)
from .formulas import canonical_query, render
from .clones import OperationTable

# Each frontier class of the obstruction sweep carries at most this many
# homomorphisms to the template; beyond it, extensions whose carried maps
# all fail fall back to a search.
_MAX_CARRIED_MAPS = 16


@dataclass
class Obstruction:
    """A critical obstruction: no homomorphism to the template, and one
    from each structure left after deleting a single tuple."""

    structure: FiniteStructure
    hyperedges: int  # total number of relation tuples

    def verify(self, template: FiniteStructure, budget: int = DEFAULT_BUDGET) -> bool:
        t = template.relational_reduct()
        if find_homomorphism(self.structure, t, budget=budget) is not None:
            return False
        return _weakenings_map(self.structure, t, budget)


def _all_tuples(s: FiniteStructure):
    for rname, _ in s.sig.relations:
        for tup in sorted(s.rel[rname]):
            yield rname, tup


def _delete_tuple(s: FiniteStructure, rname: str, tup) -> FiniteStructure:
    rel = dict(s.rel)
    rel[rname] = rel[rname] - {tuple(tup)}
    return FiniteStructure._from_checked(s.sig, s.n, rel, s.const)


def _weakenings_map(s: FiniteStructure, template: FiniteStructure, budget: int,
                    newest=None) -> bool:
    """Criticality of an obstruction s: does every structure obtained by
    deleting one tuple of s map to the template?  The sweep passes the
    (rname, tup) it added last as newest, which is not deleted: what
    deleting it leaves is the parent with isolated vertices, which maps."""
    return all(find_homomorphism(_delete_tuple(s, rname, tup), template, budget=budget) is not None
               for rname, tup in _all_tuples(s) if (rname, tup) != newest)


def _add_tuple(s: FiniteStructure, rname: str, tup, n: int) -> FiniteStructure:
    """s with one more tuple, over n >= s.n elements; tup must lie in
    range(n) and have rname's arity, which the sweep guarantees."""
    rel = dict(s.rel)
    rel[rname] = rel[rname] | {tuple(tup)}
    return FiniteStructure._from_checked(s.sig, n, rel, s.const)


def has_one_tolerant_polymorphism(a: FiniteStructure, k: int,
                                  budget: int = DEFAULT_BUDGET):
    """A homomorphism from the one-tolerant k-th power to a, as a k-ary
    operation table, or None (the search is exhaustive)."""
    otp = one_tolerant_power(a, k, budget=budget)
    h = find_homomorphism(otp, a, budget=budget)
    return OperationTable(a.n, k, h.map) if h is not None else None


def _extensions(s: FiniteStructure, max_vertices: int):
    """(rname, tup, n) for each new tuple that contains an existing vertex
    of s; its other entries may be new vertices, each used, and n counts
    the vertices with them.  A tuple that an automorphism of s, fixing the
    new vertices, maps to a lexicographically smaller one is left out: that
    one came earlier and gives an isomorphic extension."""
    fixed = tuple(range(s.n, max_vertices))
    automorphisms = [g + fixed for g in s._automorphisms or ()]
    for rname, ar in s.sig.relations:
        room = min(ar - 1, max_vertices - s.n)
        for fresh in range(room + 1):
            n = s.n + fresh
            for tup in itertools.product(range(n), repeat=ar):
                if min(tup) >= s.n or set(range(s.n, n)) - set(tup):
                    continue  # touch the structure and use every new vertex
                if tup in s.rel[rname] or any(tuple([g[v] for v in tup]) < tup
                                              for g in automorphisms):
                    continue
                yield rname, tup, n


def _carried_maps(maps, complete: bool, fresh: int, template: FiniteStructure, rname, tup):
    """The maps carried by the extension of a frontier class by tup, which
    uses fresh new vertices, from the class's maps and their completeness:
    each map extended by every assignment of the new vertices in ascending
    order, kept when it sends tup into the template relation, at most
    _MAX_CARRIED_MAPS of them.  Returns (maps, complete); the result is
    incomplete when the parent's was or a map was cut off."""
    allowed = template.rel[rname]
    if len(tup) == 1:
        allowed = {t[0] for t in allowed}
    image = itemgetter(*tup)
    tails = list(itertools.product(range(template.n), repeat=fresh))
    out = []
    for h in maps:
        for tail in tails:
            g = h + tail
            if image(g) in allowed:
                if len(out) == _MAX_CARRIED_MAPS:
                    return out, False
                out.append(g)
    return out, complete


def critical_obstructions(a: FiniteStructure, max_vertices: int, max_tuples: int,
                          budget: int = DEFAULT_BUDGET):
    """All critical obstructions with at most max_vertices vertices and
    max_tuples tuples, up to isomorphism, each verified critical, in order
    of tuple count, vertex count and canonical form.

    Constants are not allowed in obstructions; the search runs against the
    relational reduct of the template.
    """
    template = a.relational_reduct()
    if max_vertices < 1 or max_tuples < 1:
        raise ValueError("enumeration bounds must be positive")

    found = []
    # (structure, carried maps, complete); the root maps to every element
    frontier = [(FiniteStructure(template.sig, 1),
                 [(v,) for v in range(min(template.n, _MAX_CARRIED_MAPS))],
                 template.n <= _MAX_CARRIED_MAPS)]
    for level in range(1, max_tuples + 1):
        next_frontier = []
        seen = set()  # keys decided at this level; a key fixes its tuple count
        for s, maps, complete in frontier:
            for rname, tup, n in _extensions(s, max_vertices):
                ext_maps, ext_complete = _carried_maps(maps, complete, n - s.n,
                                                       template, rname, tup)
                if ext_maps and level == max_tuples:
                    continue  # it maps, and no frontier follows
                ext = _add_tuple(s, rname, tup, n)
                key = canonical_form(ext)
                if key in seen:
                    continue
                seen.add(key)
                if not ext_maps and not ext_complete:
                    h = find_homomorphism(ext, template, budget=budget)
                    if h is not None:
                        ext_maps = [h.map]
                if ext_maps:
                    next_frontier.append((ext, ext_maps, ext_complete))
                elif _weakenings_map(ext, template, budget, (rname, tup)):
                    found.append(Obstruction(ext, ext.total_tuples()))
        frontier = next_frontier

    out = sorted(found, key=lambda o: (o.hyperedges, o.structure.n, canonical_form(o.structure)))
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
    fo_definable: bool | None  # None means: unknown within the arity bound
    verdict: str
    polymorphism_arity: int | None = None
    polymorphism: OperationTable | None = None
    obstructions: tuple = ()
    universal_sentence: str | None = None


def fo_definability_report(a: FiniteStructure, n_max: int = 3,
                           budget: int = DEFAULT_BUDGET) -> FoDefinabilityReport:
    """Search for a 1-tolerant polymorphism of arity 3..n_max+1.

    On success the CSP is first-order definable; every critical obstruction
    then has at most n = arity-1 tuples, so enumerating critical
    obstructions with that many tuples (and n * max-arity vertices, at
    least as many as a connected n-tuple structure can use) yields a
    complete obstruction set, from which the universal sentence is
    synthesized.  On failure the verdict is explicitly arity-bounded and
    proves nothing, and the report holds no obstructions: the report only
    decides, and a caller that wants bounded evidence runs
    critical_obstructions within its own bounds.  A budget overrun at an
    arity k > 3 ends the search there: the verdict is bounded by arity k-1
    and names the overrun.  An overrun at arity 3 leaves no verdict and
    raises.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2 (1-tolerant polymorphisms are at least ternary)")
    max_rel_arity = max((ar for _, ar in a.sig.relations), default=1)
    bound = f"up to arity {n_max + 1}"
    for k in range(3, n_max + 2):
        try:
            f = has_one_tolerant_polymorphism(a, k, budget=budget)
        except BudgetExceededError:
            if k == 3:
                raise
            bound = f"up to arity {k - 1}; arity {k} exceeded the budget"
            break
        if f is None:
            continue
        n = k - 1
        obs = critical_obstructions(a, max_vertices=n * max_rel_arity, max_tuples=n,
                                    budget=budget)
        return FoDefinabilityReport(
            fo_definable=True,
            verdict=f"fo-definable (finite-template certificate: 1-tolerant polymorphism of arity {k})",
            polymorphism_arity=k,
            polymorphism=f,
            obstructions=tuple(obs),
            universal_sentence=universal_sentence_text(obs),
        )
    return FoDefinabilityReport(
        fo_definable=None,
        verdict=(f"no 1-tolerant polymorphism {bound} "
                 "(bounded evidence; certifies nothing beyond the bound)"),
    )
