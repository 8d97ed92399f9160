"""First-order definability of CSPs via one-tolerant polymorphisms and
critical obstructions.

An obstruction for a template is a finite structure with no homomorphism
to it; it is critical when deleting any single relation tuple (keeping the
domain) yields a structure that does map.  A critical obstruction never
properly contains another obstruction, and its tuples all live in one
connected component, so enumeration grows connected structures only,
through the homomorphic ones: it starts from one vertex and no tuples,
and each step adds one tuple that contains an existing vertex (its other
entries may be new vertices).  The growth is complete: in a spanning
tree of a connected structure's tuples (two tuples adjacent when they
share a vertex), deleting a leaf tuple and the vertices only it uses
leaves a connected structure that the leaf touches, and that structure
maps to the template whenever the whole one maps or is critical.

Each frontier class carries homomorphisms to the template, in
lexicographic order and at most _MAX_CARRIED_MAPS of them; the root
carries every template element.  The maps of an extension are its
parent's, each extended by every assignment of the new vertices and kept
when they send the added tuple into the template.  When the parent's
list is complete (no map was ever cut off at the cap), the result is all
of them, so an empty result means the extension does not map, without a
search.  The cap keeps memory and filtering time bounded: Hom(s, T)
grows exponentially with the vertices of s on templates with many tuples.

Each extension is decided cheapest first.  At the last level, one with
carried maps is dropped: it maps, and no frontier follows.  One with
carried maps or an empty cut-off list is canonized and deduplicated in the
level's set of class keys, and a cut-off list runs a first-only search,
whose map starts a new, incomplete list; so each frontier class is
canonized once and keeps its automorphisms.  An extension that a
complete list shows not to map is canonized and deduplicated only when
it is critical: criticality is an isomorphism invariant, so each class
keeps its first critical extension in generation order.  An extension by
a tuple that an automorphism of the parent, fixing the new vertices, maps
to a lexicographically smaller tuple repeats that earlier class and is
not generated (McKay, "Isomorph-free exhaustive generation", J.
Algorithms 1998).

Criticality is decided from extras: for each tuple u of a frontier
class, the maps of the class without u that send u outside the template
(at most _MAX_CARRIED_MAPS, with a completeness flag).  Deleting u from an
extension that does not map leaves a structure whose maps are u's extras
extended over the added tuple, and deleting the added tuple leaves the
class, which maps; so the extension is critical iff some extra of every
tuple extends.  A search settles a tuple only when its list was cut off
and no carried extra extends, in tuple order up to the first deletion
with no map.  Extras are filtered down the tree as carried maps are; the
added tuple's are the class's maps, extended over the new vertices, that
send it outside.  A class keeps only the entry of a tuple whose extras
come out complete and empty: no extension below it that does not map is
critical.  A class builds its extras when taken from the frontier, so
only classes with children waiting hold them.

The budget bounds each search, fallbacks and deletions alike; filtering
maps runs none.  The plain sweep, with no carried maps, extras, prunings
or class keys, searches and canonizes every extension and checks each
that does not map, deletion by deletion in tuple order up to the first
with no map; this one runs a subset of its searches and canonical
forms, so it can remove a budget or leaf-cap overrun but never add one.

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
# homomorphisms to the template, and as many extras per tuple; beyond it,
# what the carried ones leave open falls back to a search.
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


def _weakenings_map(s: FiniteStructure, template: FiniteStructure, budget: int) -> bool:
    """Criticality of an obstruction s: does every structure obtained by
    deleting one tuple of s map to the template?"""
    return all(find_homomorphism(_delete_tuple(s, rname, tup), template, budget=budget) is not None
               for rname, tup in _all_tuples(s))


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
    return OperationTable._from_checked(a.n, k, h.map) if h is not None else None


def _extensions(s: FiniteStructure, max_vertices: int, candidates: dict):
    """(rname, tup, n) for each new tuple that contains an existing vertex
    of s; its other entries may be new vertices, each used, and n counts
    the vertices with them.  candidates keeps those tuples per vertex count
    of s.  A tuple that an automorphism of s, fixing the new vertices, maps
    to a lexicographically smaller one is left out: that one came earlier
    and gives an isomorphic extension."""
    if s.n not in candidates:
        candidates[s.n] = [(rname, tup, n) for rname, ar in s.sig.relations
                           for n in range(s.n, min(s.n + ar - 1, max_vertices) + 1)
                           for tup in itertools.product(range(n), repeat=ar)
                           if min(tup) < s.n and set(range(s.n, n)) <= set(tup)]
    fixed = tuple(range(s.n, max_vertices))
    automorphisms = [g + fixed for g in s._automorphisms or ()]
    for rname, tup, n in candidates[s.n]:
        if tup in s.rel[rname] or any(tuple([g[v] for v in tup]) < tup for g in automorphisms):
            continue
        yield rname, tup, n


def _carried_maps(maps, complete: bool, tails, allowed, image, inside: bool = True):
    """Each of maps extended by every tail in turn, kept when image sends
    it into allowed (outside it when not inside), at most _MAX_CARRIED_MAPS
    of them.  Returns (maps, complete); the result is incomplete when maps
    were or a map was cut off."""
    out = []
    for h in maps:
        for tail in tails:
            g = h + tail
            if (image(g) in allowed) is inside:
                if len(out) == _MAX_CARRIED_MAPS:
                    return out, False
                out.append(g)
    return out, complete


def _extends(maps, tails, allowed, image) -> bool:
    """Does one of maps, extended by some tail, send image into allowed?"""
    return any(image(h + tail) in allowed for h in maps for tail in tails)


def _unsettled(extras, tails, allowed, image):
    """For a class's extension by a tuple, given as in _carried_maps, that
    does not map: (u, []) for a tuple u whose extras are complete and none
    extends, so deleting u leaves no map; else (None, the tuples whose
    extras were cut off and none extends, for a search to settle)."""
    unsettled = []
    for u, (maps, complete) in extras.items():
        if not _extends(maps, tails, allowed, image):
            if complete:
                return u, []
            unsettled.append(u)
    return None, unsettled


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
    allowed = {rname: {t[0] for t in template.rel[rname]} if ar == 1 else template.rel[rname]
               for rname, ar in template.sig.relations}
    tails = [list(itertools.product(range(template.n), repeat=fresh))
             for fresh in range(max((ar for _, ar in template.sig.relations), default=1))]
    candidates = {}  # per vertex count, for _extensions

    def extras_of(parent, rname, tup, fresh):
        """The extras of the extension of a parent class, given as (maps,
        complete, extras), by tup; only {u: ([], True)} for a redundant u."""
        maps, complete, extras = parent
        image, out = itemgetter(*tup), {}
        for u, (kept, kept_complete) in [*extras.items(), ((rname, tup), (maps, complete))]:
            # the added tuple's extras are the class's maps that send it outside
            out[u] = _carried_maps(kept, kept_complete, tails[fresh], allowed[rname], image,
                                   u != (rname, tup))
            if out[u] == ([], True):
                return {u: out[u]}
        return out

    def critical_extension(s, extras, rname, tup, n, ext=None):
        """The extension of s by tup, which does not map, when it is
        critical, else None; ext is that extension when already built."""
        refuted, unsettled = _unsettled(extras, tails[n - s.n], allowed[rname], itemgetter(*tup))
        if refuted is not None:
            return None
        if ext is None:
            ext = _add_tuple(s, rname, tup, n)
        unsettled.sort()  # in _all_tuples order, as relations are sorted by name
        return ext if all(find_homomorphism(_delete_tuple(ext, *u), template, budget=budget)
                          is not None for u in unsettled) else None

    found = []
    # (structure, carried maps, complete, parent's (maps, complete, extras),
    # added tuple, new vertices); the root has no parent and no extras
    frontier = [(FiniteStructure(template.sig, 1),
                 [(v,) for v in range(min(template.n, _MAX_CARRIED_MAPS))],
                 template.n <= _MAX_CARRIED_MAPS, None, None, None, None)]
    for level in range(1, max_tuples + 1):
        next_frontier = []
        seen = set()  # keys canonized at this level; a key fixes its tuple count
        frontier.reverse()  # popped in order, so what a class holds goes once it is used
        while frontier:
            s, maps, complete, parent, rname, tup, fresh = frontier.pop()
            extras = {} if parent is None else extras_of(parent, rname, tup, fresh)
            parent = (maps, complete, extras)
            for rname, tup, n in _extensions(s, max_vertices, candidates):
                fresh = n - s.n
                image = itemgetter(*tup)
                if level < max_tuples:
                    ext_maps, ext_complete = _carried_maps(maps, complete, tails[fresh],
                                                           allowed[rname], image)
                elif _extends(maps, tails[fresh], allowed[rname], image):
                    continue  # it maps, and no frontier follows
                else:
                    ext_maps, ext_complete = [], complete
                if ext_maps or not ext_complete:
                    ext = _add_tuple(s, rname, tup, n)
                else:
                    ext = critical_extension(s, extras, rname, tup, n)
                    if ext is None:
                        continue  # it does not map, and it is not critical
                key = canonical_form(ext)
                if key in seen:
                    continue
                seen.add(key)
                if not ext_maps and not ext_complete:
                    h = find_homomorphism(ext, template, budget=budget)
                    if h is not None:
                        ext_maps = [h.map]
                if ext_maps:
                    next_frontier.append((ext, ext_maps, ext_complete, parent, rname, tup, fresh))
                elif ext_complete or critical_extension(s, extras, rname, tup, n, ext):
                    found.append(Obstruction(ext, ext.total_tuples()))  # complete: checked above
        frontier = next_frontier

    return sorted(found, key=lambda o: (o.hyperedges, o.structure.n, canonical_form(o.structure)))


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
