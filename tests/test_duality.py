import itertools
import random
from operator import itemgetter
from types import SimpleNamespace

import pytest

import helpers
import oracles
from cspbench import (
    FiniteStructure,
    Signature,
    critical_obstructions,
    find_homomorphism,
    fo_definability_report,
    has_one_tolerant_polymorphism,
    is_isomorphic,
    obstruction_set_decides,
)
from cspbench import cli, duality
from cspbench.structures import DEFAULT_BUDGET, BudgetExceededError, canonical_form
from cspbench.duality import universal_sentence_text


def test_one_tolerant_u1_found():
    f = has_one_tolerant_polymorphism(helpers.u1(), 3)
    assert f is not None
    assert f.values == (0, 0, 0, 1, 0, 1, 1, 1)  # ternary majority, least table


def test_one_tolerant_k2_absent():
    assert has_one_tolerant_polymorphism(helpers.k2(), 3) is None
    assert has_one_tolerant_polymorphism(helpers.k2(), 4) is None


def test_one_tolerant_diagonal_is_endomorphism():
    for a in (helpers.u1(), helpers.uv(), helpers.loop()):
        f = has_one_tolerant_polymorphism(a, 3)
        if f is None:
            continue
        endo = tuple(f.apply((d,) * 3) for d in range(a.n))
        from cspbench.structures import Homomorphism

        assert Homomorphism(a, a, endo).verify()


def test_critical_obstructions_uv():
    obs = critical_obstructions(helpers.uv(), max_vertices=2, max_tuples=2)
    assert len(obs) == 1
    o = obs[0]
    assert o.structure.n == 1 and o.hyperedges == 2
    assert o.structure.rel["U"] == frozenset({(0,)})
    assert o.structure.rel["V"] == frozenset({(0,)})
    assert o.verify(helpers.uv())


def test_critical_obstructions_total_loop():
    sig = Signature.make({"E": 2, "U": 1})
    total = FiniteStructure(sig, 1, {"E": [(0, 0)], "U": [(0,)]})
    assert critical_obstructions(total, max_vertices=3, max_tuples=3) == []


def test_critical_obstructions_k2():
    obs = critical_obstructions(helpers.k2(), max_vertices=5, max_tuples=10)
    keys = {canonical_form(o.structure) for o in obs}
    assert canonical_form(helpers.loop()) in keys
    assert canonical_form(helpers.cycle(3, symmetric=False)) in keys
    assert canonical_form(helpers.cycle(5, symmetric=False)) in keys
    # symmetric odd cycles are obstructions but not critical: dropping one
    # orientation of an edge leaves the other
    assert canonical_form(helpers.cycle(3, symmetric=True)) not in keys
    for o in obs:
        assert o.verify(helpers.k2())


def test_obstructions_all_verified():
    rng = random.Random(97)
    for _ in range(8):
        a = helpers.random_structure(rng, max_n=2)
        for o in critical_obstructions(a, max_vertices=3, max_tuples=4):
            assert find_homomorphism(o.structure, a.relational_reduct()) is None
            assert o.verify(a)


def test_fo_report_uv():
    rep = fo_definability_report(helpers.uv(), n_max=3)
    assert rep.fo_definable
    assert rep.polymorphism_arity == 3
    assert len(rep.obstructions) == 1
    assert "not (exists x0 . U(x0) & V(x0))" == rep.universal_sentence


def test_fo_report_uv_decides_csp():
    rep = fo_definability_report(helpers.uv(), n_max=3)
    uv = helpers.uv()
    # exhaustive over instances with <= 3 elements (the acceptance suite
    # pushes this to 4)
    sig = uv.sig
    for n in (1, 2, 3):
        for u_bits in range(1 << n):
            for v_bits in range(1 << n):
                inst = FiniteStructure(sig, n, {
                    "U": {(i,) for i in range(n) if u_bits >> i & 1},
                    "V": {(i,) for i in range(n) if v_bits >> i & 1}})
                direct = find_homomorphism(inst, uv) is not None
                assert obstruction_set_decides(rep.obstructions, inst) == direct


def test_fo_report_k2_bounded_negative():
    k2 = helpers.k2()
    rep = fo_definability_report(k2, n_max=3)
    assert rep.fo_definable is None
    assert "bounded" in rep.verdict
    assert rep.obstructions == ()
    largest = max(critical_obstructions(k2, 5, 10), key=lambda o: o.hyperedges)
    assert largest.hyperedges == 5  # an orientation of C5
    assert largest.structure.n == 5


def test_fo_report_total_loop():
    sig = Signature.make({"E": 2})
    total = FiniteStructure(sig, 1, {"E": [(0, 0)]})
    rep = fo_definability_report(total, n_max=2)
    assert rep.fo_definable
    assert rep.obstructions == ()
    assert universal_sentence_text(rep.obstructions).startswith("true")


def test_one_tolerant_bound_vs_obstruction_size():
    # forward direction of the hyperedge-count claim on fixed templates
    for a in (helpers.u1(), helpers.uv(), helpers.loop()):
        for k in (3, 4):
            if has_one_tolerant_polymorphism(a, k) is None:
                continue
            n = k - 1
            obs = critical_obstructions(a, max_vertices=4, max_tuples=n + 2)
            assert all(o.hyperedges <= n for o in obs)


def _by_oracle_key(obstructions):
    return {oracles.exhaustive_canonical_key(o.structure): o.structure for o in obstructions}


def test_sweep_matches_reference():
    rng = random.Random(1977)
    cases = [(helpers.random_structure(rng, min_n=2, max_n=2), 3, 4) for _ in range(10)]
    cases += [(helpers.k2(), 5, 5), (helpers.k3(), 5, 5), (helpers.cycle(5), 5, 5)]
    for a, max_vertices, max_tuples in cases:
        got = critical_obstructions(a, max_vertices=max_vertices, max_tuples=max_tuples)
        want = oracles.reference_critical_obstructions(a, max_vertices, max_tuples)
        assert len(got) == len(want)
        # same classes, each with the identical representative structure
        assert _by_oracle_key(got) == _by_oracle_key(want)
        assert [(o.hyperedges, o.structure.n) for o in got] == \
            [(o.hyperedges, o.structure.n) for o in want]


def test_sweep_differential_on_more_templates():
    """The connected sweep finds the reference's classes in the reference's
    order, each represented by an isomorphic structure."""
    rng = random.Random(2009)
    cases = []
    while len(cases) < 12:
        a = helpers.random_structure(rng, min_n=2, max_n=2, max_rels=3)
        if len(a.sig.relations) >= 2:
            cases.append((a, 3, 4))
    cases += [(helpers.nae(), 3, 3), (helpers.p4_structure(), 4, 2)]
    # more elements than the root carries maps
    cases += [(helpers.graph(17, [(0, 1), (1, 0)]), 4, 4)]
    # templates with nontrivial automorphisms, whose frontier classes the
    # sweep extends once per orbit, each under a seeded relabelling
    k2u = FiniteStructure(Signature.make({"E": 2, "U": 1}), 2,
                          {"E": [(0, 1), (1, 0)], "U": [(1,)]})
    for a, max_vertices, max_tuples in [(helpers.k2(), 5, 6), (helpers.k3(), 4, 5),
                                        (helpers.cycle(5), 5, 5), (helpers.nae(), 3, 3),
                                        (k2u, 4, 5)]:
        perm = list(range(a.n))
        rng.shuffle(perm)
        cases.append((FiniteStructure(a.sig, a.n, {r: {tuple(perm[v] for v in t) for t in ts}
                                                   for r, ts in a.rel.items()}),
                      max_vertices, max_tuples))
    for a, max_vertices, max_tuples in cases:
        got = critical_obstructions(a, max_vertices=max_vertices, max_tuples=max_tuples)
        want = oracles.reference_critical_obstructions(a, max_vertices, max_tuples)
        assert [oracles.exhaustive_canonical_key(o.structure) for o in got] == \
            [oracles.exhaustive_canonical_key(o.structure) for o in want]
        assert all(is_isomorphic(g.structure, w.structure) for g, w in zip(got, want))


def _spy_on_sweep(monkeypatch):
    """Record what the sweep does: searched, the searches of extensions as
    (structure, result) pairs; canonized, the structures it canonizes;
    built, id(ext) -> (parent, rname, tup, ext) for each extension it
    builds; decided, [parent, rname, tup, n, refuted, unsettled, searches]
    for each criticality decision, refuted and unsettled as _unsettled
    returns them and searches the (deleted tuple, found) of each deletion
    search that follows; and checked, (ext, deleted tuple, found) for each
    of those searches."""
    spy = SimpleNamespace(searched=[], canonized=[], built={}, decided=[], checked=[])
    deletions, current = {}, []
    search, canonize, add_tuple, delete_tuple, extensions, unsettled = (
        duality.find_homomorphism, duality.canonical_form, duality._add_tuple,
        duality._delete_tuple, duality._extensions, duality._unsettled)

    def spying_search(s, t, **kw):
        h = search(s, t, **kw)
        if id(s) in deletions:
            _, ext, u = deletions[id(s)]
            spy.checked.append((ext, u, h is not None))
            spy.decided[-1][-1].append((u, h is not None))
        else:
            spy.searched.append((s, h))
        return h

    def spying_canonize(s):
        spy.canonized.append(s)
        return canonize(s)

    def spying_add_tuple(s, rname, tup, n):
        ext = add_tuple(s, rname, tup, n)
        spy.built[id(ext)] = (s, rname, tup, ext)
        return ext

    def spying_delete_tuple(s, rname, tup):
        weakening = delete_tuple(s, rname, tup)
        deletions[id(weakening)] = (weakening, s, (rname, tup))
        return weakening

    def spying_extensions(s, *args):
        for rname, tup, n in extensions(s, *args):
            current[:] = [s, rname, tup, n]
            yield rname, tup, n

    def spying_unsettled(*args):
        refuted, pending = unsettled(*args)
        spy.decided.append([*current, refuted, list(pending), []])
        return refuted, pending

    for name, spying in [("find_homomorphism", spying_search), ("canonical_form", spying_canonize),
                         ("_add_tuple", spying_add_tuple), ("_delete_tuple", spying_delete_tuple),
                         ("_extensions", spying_extensions), ("_unsettled", spying_unsettled)]:
        monkeypatch.setattr(duality, name, spying)
    return spy


def _is_critical(s, template):
    return not oracles.brute_homs(s, template) and all(
        oracles.brute_homs(duality._delete_tuple(s, rname, tup), template)
        for rname, tup in duality._all_tuples(s))


def _verdict(decision) -> bool:
    """The criticality verdict of a decision recorded by _spy_on_sweep."""
    _, _, _, _, refuted, _, searches = decision
    return refuted is None and all(found for _, found in searches)


def _decided_extension(decision):
    parent, rname, tup, n = decision[:4]
    return oracles._add_tuple(parent, rname, tup, n)


def test_sweep_canonizes_only_what_it_keeps(monkeypatch):
    """On K2 a connected structure has at most two maps and the deletion of
    one of its tuples at most four, so the carried maps and extras decide
    every extension: the sweep runs no search.  It canonizes an extension
    only when it maps or is critical, and it reports each class once."""
    spy = _spy_on_sweep(monkeypatch)
    obs = critical_obstructions(helpers.k2(), max_vertices=5, max_tuples=5)
    monkeypatch.undo()
    assert len(obs) == 7
    assert spy.searched == [] and spy.checked == []
    k2 = helpers.k2()
    swept = [s for s in spy.canonized if id(s) in spy.built]  # not the final sort
    assert swept
    for s in swept:
        assert oracles.brute_homs(s, k2) or _is_critical(s, k2)
    keys = [canonical_form(o.structure) for o in obs]
    assert len(set(keys)) == len(keys)


def _k2u_relabelled(seed=26):
    """K2 with U = {1}, its elements relabelled by a seeded permutation."""
    perm = [0, 1]
    random.Random(seed).shuffle(perm)
    return FiniteStructure(Signature.make({"E": 2, "U": 1}), 2,
                           {"E": [(0, 1), (1, 0)], "U": [(perm[1],)]})


@pytest.mark.parametrize("make, max_vertices, max_tuples", [
    (helpers.k2, 6, 6),
    (helpers.nae, 4, 4),
    (_k2u_relabelled, 4, 5),
    (helpers.k3, 5, 5),
    (lambda: helpers.cycle(5), 5, 5),
], ids=["K2", "NAE", "K2 and U relabelled", "K3", "C5"])
def test_grandparent_refutations_are_sound(monkeypatch, make, max_vertices, max_tuples):
    """Every criticality verdict reached without a search is sound, the
    refutations that the grandparent's maps once made among them: a tuple
    named as refuting has a deletion with no map, and an extension found
    critical is critical, both by brute force."""
    a = make()
    template = a.relational_reduct()
    spy = _spy_on_sweep(monkeypatch)
    critical_obstructions(a, max_vertices=max_vertices, max_tuples=max_tuples)
    monkeypatch.undo()
    refuted = [d for d in spy.decided if d[4] is not None]
    critical = [d for d in spy.decided if d[4] is None and not d[5]]
    assert refuted and critical
    for decision in refuted:
        assert decision[6] == []
        ext = _decided_extension(decision)
        assert not oracles.brute_homs(duality._delete_tuple(ext, *decision[4]), template)
    for decision in critical:
        assert decision[6] == [] and _is_critical(_decided_extension(decision), template)


def test_sweep_checks_criticality_below_cut_off_lists(monkeypatch):
    """On K3 and C5 at 5/5 some extras are cut off at _MAX_CARRIED_MAPS
    and none of those carried extends over the added tuple: a search
    decides that deletion, in order, up to the first one with no map."""
    for a in (helpers.k3(), helpers.cycle(5)):
        spy = _spy_on_sweep(monkeypatch)
        critical_obstructions(a, max_vertices=5, max_tuples=5)
        monkeypatch.undo()
        cut_off = [d for d in spy.decided if d[4] is None and d[5]]
        assert cut_off
        for _, _, _, _, _, unsettled, searches in cut_off:
            assert searches and all(u in unsettled for u, _ in searches)
            assert all(found for _, found in searches[:-1])
            assert len(searches) == len(unsettled) or not searches[-1][1]


def test_sweep_counts_on_k2(monkeypatch):
    """K2 at 6/6: the sweep's canonical forms, criticality searches (one
    per deletion searched) and homomorphism searches, those of criticality
    checks included, each no more than with a search for every criticality
    check (532 checks and 843 searches), and no more than before the
    grandparent filter (3,099 canonical forms, 1,574 checks and 2,046
    searches)."""
    counts = dict.fromkeys(["canonical_form", "_delete_tuple", "find_homomorphism"], 0)
    for name in counts:
        def counting(*args, _call=getattr(duality, name), _name=name, **kw):
            counts[_name] += 1
            return _call(*args, **kw)
        monkeypatch.setattr(duality, name, counting)
    assert len(critical_obstructions(helpers.k2(), max_vertices=6, max_tuples=6)) == 7
    assert counts == {"canonical_form": 633, "_delete_tuple": 0, "find_homomorphism": 0}


def test_sweep_searches_connected_structures_only(monkeypatch):
    """Every structure the sweep canonizes, searches or checks for
    criticality by search is connected; K2 and NAE canonize, K3 and C5
    search as well."""
    spy = _spy_on_sweep(monkeypatch)
    critical_obstructions(helpers.k2(), max_vertices=5, max_tuples=5)
    critical_obstructions(helpers.nae(), max_vertices=3, max_tuples=3)
    critical_obstructions(helpers.k3(), max_vertices=5, max_tuples=5)
    critical_obstructions(helpers.cycle(5), max_vertices=5, max_tuples=5)
    monkeypatch.undo()
    assert len(spy.canonized) > 100 and spy.searched and spy.checked
    checked = [ext for ext, _, _ in spy.checked]
    assert all(oracles._is_connected(s)
               for s in spy.canonized + [s for s, _ in spy.searched] + checked)


def _loopless_template(rng):
    """A random digraph on 2 or 3 elements with no loop, so that the loop
    is an obstruction, and at even odds a unary relation as well."""
    n = rng.randint(2, 3)
    rels = {"E": [p for p in itertools.product(range(n), repeat=2)
                  if p[0] != p[1] and rng.random() < 0.8]}
    if rng.random() < 0.5:
        rels["U"] = [(x,) for x in range(n) if rng.random() < 0.6]
    return FiniteStructure(Signature.make({"E": 2, "U": 1} if "U" in rels else {"E": 2}), n, rels)


def test_sweep_differential_where_extras_are_cut_off(monkeypatch):
    """Seeded templates on 2 or 3 elements, kept when their 5/5 sweep cuts
    off extras that a search must then settle: the sweep equals the
    reference, and every criticality verdict, with a search or without,
    equals brute-force criticality."""
    rng = random.Random(29)
    kept = 0
    for _ in range(40):
        a = _loopless_template(rng)
        spy = _spy_on_sweep(monkeypatch)
        got = critical_obstructions(a, max_vertices=5, max_tuples=5)
        monkeypatch.undo()
        if not any(d[4] is None and d[5] for d in spy.decided):
            continue
        want = oracles.reference_critical_obstructions(a, 5, 5)
        assert [oracles.exhaustive_canonical_key(o.structure) for o in got] == \
            [oracles.exhaustive_canonical_key(o.structure) for o in want]
        assert all(is_isomorphic(g.structure, w.structure) for g, w in zip(got, want))
        for decision in spy.decided:
            assert _verdict(decision) == _is_critical(_decided_extension(decision), a)
        kept += 1
        if kept == 4:
            break
    assert kept == 4


def test_sweep_capped_maps_match_reference(monkeypatch):
    """Templates whose frontier classes have more maps than the sweep
    carries.  On K3 and C5 a cut-off list filters to empty and the search
    that follows finds nothing; on the full edge relation with U = {(2,)},
    the carried maps send the new tuple outside U and the search finds a
    map.  The obstructions match the reference either way."""
    cases = [(helpers.k3(), 5, 5, False), (helpers.cycle(5), 5, 5, False),
             (_full_edge_with_u(), 4, 4, True)]
    wants = [oracles.reference_critical_obstructions(a, v, t) for a, v, t, _ in cases]
    spy = _spy_on_sweep(monkeypatch)
    for (a, max_vertices, max_tuples, finds), want in zip(cases, wants):
        del spy.searched[:]
        got = critical_obstructions(a, max_vertices=max_vertices, max_tuples=max_tuples)
        assert [oracles.exhaustive_canonical_key(o.structure) for o in got] == \
            [oracles.exhaustive_canonical_key(o.structure) for o in want]
        assert all(is_isomorphic(g.structure, w.structure) for g, w in zip(got, want))
        assert spy.searched
        assert all((h is not None) == finds for _, h in spy.searched)


def _full_edge_with_u():
    return FiniteStructure(Signature.make({"E": 2, "U": 1}), 3,
                           {"E": itertools.product(range(3), repeat=2), "U": [(2,)]})


@pytest.mark.parametrize("make, max_vertices, max_tuples, finds, calls, before, parent_calls", [
    (helpers.k2, 5, 5, False, 147, 549, 1112),
    (helpers.k3, 5, 5, False, 346, 403, 1323),
    (_full_edge_with_u, 4, 4, True, 129, 129, 571),
], ids=["K2", "K3", "full edge and U"])
def test_sweep_canonizes_one_extension_per_orbit(monkeypatch, make, max_vertices, max_tuples,
                                                 finds, calls, before, parent_calls):
    """The sweep canonizes no last-level extension whose carried maps show
    that it maps, and no two extensions of one parent that an automorphism
    of the parent, fixing the new vertices, carries onto each other.  A
    canonized last-level extension maps only where a cut-off list of
    carried maps came out empty and a search found a map for its class
    (finds, on the full edge relation with U).  calls counts every
    canonical_form call of the sweep, the final sort's included; before is
    the count when every extension not pruned was canonized before its
    criticality check, and parent_calls the count before either pruning."""
    a = make()
    template = a.relational_reduct()
    spy = _spy_on_sweep(monkeypatch)
    obs = critical_obstructions(a, max_vertices=max_vertices, max_tuples=max_tuples)
    monkeypatch.undo()
    assert len(spy.canonized) == calls <= before < parent_calls
    fallbacks = {canonical_form(x) for x, h in spy.searched
                 if h is not None and x.total_tuples() == max_tuples}
    by_parent = {}
    for s in spy.canonized:
        if id(s) not in spy.built:
            assert any(s is o.structure for o in obs)  # the final sort
            continue
        parent, rname, tup, ext = spy.built[id(s)]
        if ext.total_tuples() == max_tuples and find_homomorphism(ext, template) is not None:
            assert canonical_form(ext) in fallbacks
        by_parent.setdefault(id(parent), (parent, []))[1].append((rname, tup, ext.n))
    for parent, added in by_parent.values():
        for g in oracles.brute_automorphisms(parent):
            for rname, tup, n in added:
                moved = tuple(g[v] if v < parent.n else v for v in tup)
                assert moved == tup or (rname, moved, n) not in added
    assert bool(fallbacks) == finds


def test_carried_maps_are_capped_and_lexicographic():
    k3 = helpers.k3()
    path = helpers.graph(3, [(0, 1), (1, 2)])
    parent = oracles.brute_homs(path, k3)  # 12 maps, all of them
    # a new edge to a fresh vertex doubles them past the cap
    ext = helpers.graph(4, [(0, 1), (1, 2), (2, 3)])
    tails = [(v,) for v in range(3)]
    maps, complete = duality._carried_maps(parent, True, tails, k3.rel["E"], itemgetter(2, 3))
    assert not complete
    assert len(maps) == duality._MAX_CARRIED_MAPS
    assert maps == oracles.brute_homs(ext, k3)[:duality._MAX_CARRIED_MAPS]
    # closing the path into a triangle keeps 6 of the 12, all of them
    triangle = helpers.graph(3, [(0, 1), (1, 2), (2, 0)])
    maps, complete = duality._carried_maps(parent, True, [()], k3.rel["E"], itemgetter(2, 0))
    assert complete and maps == oracles.brute_homs(triangle, k3)
    # from an incomplete parent nothing is complete
    assert duality._carried_maps(parent, False, [()], k3.rel["E"], itemgetter(2, 0)) == \
        (maps, False)


def test_critical_obstructions_rejects_bounds_below_one():
    for max_vertices, max_tuples in ((0, 3), (3, 0), (-1, 3)):
        for a in (helpers.k2(), helpers.uv()):
            with pytest.raises(ValueError, match="bounds must be positive"):
                critical_obstructions(a, max_vertices, max_tuples)


def test_fo_report_t3_sweeps_past_max_vertices():
    """The fo-definable branch enumerates every obstruction within its
    tuple bound, with as many vertices as they need: here a path on 4
    vertices over a 3-element template."""
    t3 = helpers.graph(3, [(0, 1), (0, 2), (1, 2)])
    rep = fo_definability_report(t3, n_max=3)
    assert rep.fo_definable
    path = helpers.graph(4, [(0, 1), (1, 2), (2, 3)])
    assert find_homomorphism(path, t3) is None
    assert canonical_form(path) in {canonical_form(o.structure) for o in rep.obstructions}
    assert not obstruction_set_decides(rep.obstructions, path)


def test_fo_report_overrun_beyond_arity_3():
    k2 = helpers.k2()
    # at budget 100 the arity-3 search finishes and the arity-4 power does not
    rep = fo_definability_report(k2, n_max=3, budget=100)
    assert rep.fo_definable is None
    assert rep.verdict.startswith("no 1-tolerant polymorphism up to arity 3; "
                                  "arity 4 exceeded the budget")
    with pytest.raises(BudgetExceededError):
        fo_definability_report(k2, n_max=3, budget=50)


@pytest.mark.parametrize("make, sweeps", [
    (helpers.k2, []),
    (helpers.nae, []),
    # a ternary 1-tolerant polymorphism: every obstruction has at most
    # 2 tuples, on at most 2 * 1 vertices
    (helpers.uv, [(2, 2)]),
])
def test_analyze_sweeps_only_complete_obstruction_sets(monkeypatch, tmp_path, make, sweeps):
    """The fo section of analyze runs the obstruction sweep only for a
    complete set, never as bounded evidence."""
    calls = []
    sweep = duality.critical_obstructions

    def spy(a, max_vertices, max_tuples, budget):
        calls.append((max_vertices, max_tuples))
        return sweep(a, max_vertices, max_tuples, budget)

    monkeypatch.setattr(duality, "critical_obstructions", spy)
    path = tmp_path / "template.json"
    path.write_text(make().to_json())
    report = cli._analyze(make(), str(path), 2, 1, 3, DEFAULT_BUDGET)
    assert "error" not in report["fo_definability"]
    assert calls == sweeps
