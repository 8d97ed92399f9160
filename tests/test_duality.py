import itertools
import random

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
    """Record the searches the sweep runs outside criticality checks, as
    (structure, result) pairs, the structures it checks for criticality
    and the ones it canonizes."""
    searched, checked, canonized = [], [], []
    weakening = []
    search = duality.find_homomorphism
    criticality = duality._weakenings_map
    canonize = duality.canonical_form

    def counting_search(s, t, **kw):
        h = search(s, t, **kw)
        if not weakening:
            searched.append((s, h))
        return h

    def counting_criticality(s, t, budget, newest=None):
        checked.append(s)
        weakening.append(s)
        try:
            return criticality(s, t, budget, newest)
        finally:
            weakening.pop()

    def counting_canonize(s):
        canonized.append(s)
        return canonize(s)

    monkeypatch.setattr(duality, "find_homomorphism", counting_search)
    monkeypatch.setattr(duality, "_weakenings_map", counting_criticality)
    monkeypatch.setattr(duality, "canonical_form", counting_canonize)
    return searched, checked, canonized


def _spy_on_decisions(monkeypatch):
    """Record what the sweep builds and how it decides criticality: built
    maps id(ext) to (parent, rname, tup, ext, (carried maps, complete)) for
    each extension, decided lists (ext, the maps handed down from its
    parent's parent or None, the verdict) for each criticality decision,
    and refuted the extensions among them whose grandparent filter found no
    map."""
    built, decided, refuted, carried, deciding = {}, [], [], [], []
    add_tuple, carry, critical = duality._add_tuple, duality._carried_maps, duality._critical

    def spying_carry(*args):
        result = carry(*args)
        if not deciding:
            carried.append(result)
        elif result == ([], True):
            refuted.append(deciding[-1])
        return result

    def spying_add_tuple(s, rname, tup, n):
        ext = add_tuple(s, rname, tup, n)
        built[id(ext)] = (s, rname, tup, ext, carried[-1])
        return ext

    def spying_critical(ext, template, budget, rname, tup, up_maps):
        deciding.append(ext)
        try:
            verdict = critical(ext, template, budget, rname, tup, up_maps)
        finally:
            deciding.pop()
        decided.append((ext, up_maps, verdict))
        return verdict

    monkeypatch.setattr(duality, "_carried_maps", spying_carry)
    monkeypatch.setattr(duality, "_add_tuple", spying_add_tuple)
    monkeypatch.setattr(duality, "_critical", spying_critical)
    return built, decided, refuted


def _is_critical(s, template):
    return not oracles.brute_homs(s, template) and all(
        oracles.brute_homs(duality._delete_tuple(s, rname, tup), template)
        for rname, tup in duality._all_tuples(s))


def test_sweep_canonizes_only_what_it_keeps(monkeypatch):
    """On K2 every connected structure that maps has at most two maps, so
    the carried maps decide every extension: the sweep runs no search
    outside criticality checks.  It canonizes an extension only when it
    maps, when its carried maps were cut off, or when it is critical; it
    reports each class once; and it checks no extension for criticality
    that the grandparent filter refuted."""
    searched, checked, canonized = _spy_on_sweep(monkeypatch)
    built, _, refuted = _spy_on_decisions(monkeypatch)
    obs = critical_obstructions(helpers.k2(), max_vertices=5, max_tuples=5)
    monkeypatch.undo()
    assert len(obs) == 7
    assert searched == []
    k2 = helpers.k2()
    swept = [s for s in canonized if id(s) in built]  # not the final sort
    assert swept
    for s in swept:
        _, _, _, _, (_, complete) = built[id(s)]
        assert oracles.brute_homs(s, k2) or not complete or _is_critical(s, k2)
    keys = [canonical_form(o.structure) for o in obs]
    assert len(set(keys)) == len(keys)
    assert refuted
    assert not {id(s) for s in refuted} & {id(s) for s in checked}


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
], ids=["K2", "NAE", "K2 and U relabelled"])
def test_grandparent_refutations_are_sound(monkeypatch, make, max_vertices, max_tuples):
    """Every extension that the grandparent filter refutes stops mapping
    when its parent's newest tuple is deleted, so it is not critical, and
    no criticality check runs on it."""
    a = make()
    template = a.relational_reduct()
    _, checked, _ = _spy_on_sweep(monkeypatch)
    built, decided, refuted = _spy_on_decisions(monkeypatch)
    critical_obstructions(a, max_vertices=max_vertices, max_tuples=max_tuples)
    monkeypatch.undo()
    checked = {id(s) for s in checked}
    skipped = [ext for ext, _, verdict in decided if not verdict and id(ext) not in checked]
    assert skipped
    assert [id(s) for s in skipped] == [id(s) for s in refuted]
    for ext in skipped:
        parent = built[id(ext)][0]
        _, rname, tup, _, _ = built[id(parent)]
        assert find_homomorphism(duality._delete_tuple(ext, rname, tup), template) is None


def test_sweep_checks_criticality_below_cut_off_lists(monkeypatch):
    """On K3 and C5 at 5/5 some frontier lists are cut off at
    _MAX_CARRIED_MAPS, and an extension whose grandparent's list was cut
    off is not refuted by it: the criticality check still runs."""
    for a in (helpers.k3(), helpers.cycle(5)):
        _, checked, _ = _spy_on_sweep(monkeypatch)
        built, decided, refuted = _spy_on_decisions(monkeypatch)
        critical_obstructions(a, max_vertices=5, max_tuples=5)
        monkeypatch.undo()
        blind = [ext for ext, up_maps, _ in decided
                 if up_maps is None and id(built[id(ext)][0]) in built]
        assert blind
        checked = {id(s) for s in checked}
        assert all(id(ext) in checked for ext in blind)
        assert not {id(s) for s in refuted} & checked


def test_sweep_counts_on_k2(monkeypatch):
    """K2 at 6/6: the sweep's canonical forms, criticality checks and
    homomorphism searches (those inside criticality checks included), each
    no more than before the grandparent filter: 3,099, 1,574 and 2,046."""
    counts = dict.fromkeys(["canonical_form", "_weakenings_map", "find_homomorphism"], 0)
    for name in counts:
        def counting(*args, _call=getattr(duality, name), _name=name, **kw):
            counts[_name] += 1
            return _call(*args, **kw)
        monkeypatch.setattr(duality, name, counting)
    assert len(critical_obstructions(helpers.k2(), max_vertices=6, max_tuples=6)) == 7
    assert counts == {"canonical_form": 633, "_weakenings_map": 532, "find_homomorphism": 843}


def test_sweep_searches_connected_structures_only(monkeypatch):
    _, checked, canonized = _spy_on_sweep(monkeypatch)
    critical_obstructions(helpers.k2(), max_vertices=5, max_tuples=5)
    critical_obstructions(helpers.nae(), max_vertices=3, max_tuples=3)
    assert len(canonized) > 100 and checked
    assert all(oracles._is_connected(s) for s in canonized + checked)


def test_sweep_capped_maps_match_reference(monkeypatch):
    """Templates whose frontier classes have more maps than the sweep
    carries.  On K3 and C5 a cut-off list filters to empty and the search
    that follows finds nothing; on the full edge relation with U = {(2,)},
    the carried maps send the new tuple outside U and the search finds a
    map.  The obstructions match the reference either way."""
    cases = [(helpers.k3(), 5, 5, False), (helpers.cycle(5), 5, 5, False),
             (_full_edge_with_u(), 4, 4, True)]
    wants = [oracles.reference_critical_obstructions(a, v, t) for a, v, t, _ in cases]
    searched, _, _ = _spy_on_sweep(monkeypatch)
    for (a, max_vertices, max_tuples, finds), want in zip(cases, wants):
        del searched[:]
        got = critical_obstructions(a, max_vertices=max_vertices, max_tuples=max_tuples)
        assert [oracles.exhaustive_canonical_key(o.structure) for o in got] == \
            [oracles.exhaustive_canonical_key(o.structure) for o in want]
        assert all(is_isomorphic(g.structure, w.structure) for g, w in zip(got, want))
        assert searched
        assert all((h is not None) == finds for _, h in searched)


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
    carried maps came out empty (finds, on the full edge relation with U).  calls
    counts every canonical_form call of the sweep, the final sort's
    included; before is the count when every extension not pruned was
    canonized before its criticality check, and parent_calls the count
    before either pruning."""
    a = make()
    template = a.relational_reduct()
    built, _, _ = _spy_on_decisions(monkeypatch)
    _, _, canonized = _spy_on_sweep(monkeypatch)
    obs = critical_obstructions(a, max_vertices=max_vertices, max_tuples=max_tuples)
    monkeypatch.undo()
    assert len(canonized) == calls <= before < parent_calls
    by_parent, fallbacks = {}, 0
    for s in canonized:
        if id(s) not in built:
            assert any(s is o.structure for o in obs)  # the final sort
            continue
        parent, rname, tup, ext, (maps, _) = built[id(s)]
        if ext.total_tuples() == max_tuples:
            assert maps == []
            fallbacks += find_homomorphism(ext, template) is not None
        by_parent.setdefault(id(parent), (parent, []))[1].append((rname, tup, ext.n))
    for parent, added in by_parent.values():
        for g in oracles.brute_automorphisms(parent):
            for rname, tup, n in added:
                moved = tuple(g[v] if v < parent.n else v for v in tup)
                assert moved == tup or (rname, moved, n) not in added
    assert (fallbacks > 0) == finds


def test_carried_maps_are_capped_and_lexicographic():
    k3 = helpers.k3()
    path = helpers.graph(3, [(0, 1), (1, 2)])
    parent = oracles.brute_homs(path, k3)  # 12 maps, all of them
    # a new edge to a fresh vertex doubles them past the cap
    ext = helpers.graph(4, [(0, 1), (1, 2), (2, 3)])
    maps, complete = duality._carried_maps(parent, True, 1, k3, "E", (2, 3))
    assert not complete
    assert len(maps) == duality._MAX_CARRIED_MAPS
    assert maps == oracles.brute_homs(ext, k3)[:duality._MAX_CARRIED_MAPS]
    # closing the path into a triangle keeps 6 of the 12, all of them
    triangle = helpers.graph(3, [(0, 1), (1, 2), (2, 0)])
    maps, complete = duality._carried_maps(parent, True, 0, k3, "E", (2, 0))
    assert complete and maps == oracles.brute_homs(triangle, k3)
    # from an incomplete parent nothing is complete
    assert duality._carried_maps(parent, False, 0, k3, "E", (2, 0)) == (maps, False)


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
