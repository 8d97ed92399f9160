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
from cspbench import duality
from cspbench.structures import BudgetExceededError, canonical_form
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
    rep = fo_definability_report(helpers.k2(), n_max=3, max_vertices=5, max_tuples=10)
    assert rep.fo_definable is None
    assert "bounded" in rep.verdict
    assert rep.largest_obstruction is not None
    assert rep.largest_obstruction.hyperedges == 5  # an orientation of C5
    assert rep.largest_obstruction.structure.n == 5


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
    for a, max_vertices, max_tuples in cases:
        got = critical_obstructions(a, max_vertices=max_vertices, max_tuples=max_tuples)
        want = oracles.reference_critical_obstructions(a, max_vertices, max_tuples)
        assert [oracles.exhaustive_canonical_key(o.structure) for o in got] == \
            [oracles.exhaustive_canonical_key(o.structure) for o in want]
        assert all(is_isomorphic(g.structure, w.structure) for g, w in zip(got, want))


def _spy_on_sweep(monkeypatch):
    """Record the structures the sweep searches outside criticality checks
    and the ones it checks for criticality."""
    searched, checked = [], []
    weakening = []
    search = duality.find_homomorphism
    criticality = duality._weakenings_map

    def counting_search(s, t, **kw):
        if not weakening:
            searched.append(s)
        return search(s, t, **kw)

    def counting_criticality(s, t, budget):
        checked.append(s)
        weakening.append(s)
        try:
            return criticality(s, t, budget)
        finally:
            weakening.pop()

    monkeypatch.setattr(duality, "find_homomorphism", counting_search)
    monkeypatch.setattr(duality, "_weakenings_map", counting_criticality)
    return searched, checked


def test_sweep_decides_each_class_once(monkeypatch):
    """Every isomorphism class of extensions is searched for a map to the
    template, and checked for criticality, at most once."""
    searched, checked = _spy_on_sweep(monkeypatch)
    obs = critical_obstructions(helpers.k2(), max_vertices=5, max_tuples=5)
    assert len(obs) == 7
    searched = [canonical_form(s) for s in searched]
    checked = [canonical_form(s) for s in checked]
    assert len(searched) > 100 and checked
    assert len(set(searched)) == len(searched)
    assert len(set(checked)) == len(checked)


def test_sweep_searches_connected_structures_only(monkeypatch):
    searched, checked = _spy_on_sweep(monkeypatch)
    critical_obstructions(helpers.k2(), max_vertices=5, max_tuples=5)
    critical_obstructions(helpers.nae(), max_vertices=3, max_tuples=3)
    assert len(searched) > 100 and checked
    assert all(oracles._is_connected(s) for s in searched + checked)


def test_fo_report_t3_sweeps_past_max_vertices():
    """The fo-definable branch enumerates every obstruction within its
    tuple bound, whatever the evidence bounds say."""
    t3 = helpers.graph(3, [(0, 1), (0, 2), (1, 2)])
    rep = fo_definability_report(t3, n_max=3, max_vertices=3)
    assert rep.fo_definable
    path = helpers.graph(4, [(0, 1), (1, 2), (2, 3)])
    assert find_homomorphism(path, t3) is None
    assert canonical_form(path) in {canonical_form(o.structure) for o in rep.obstructions}
    assert not obstruction_set_decides(rep.obstructions, path)


def test_fo_report_overrun_beyond_arity_3():
    k2 = helpers.k2()
    # at budget 100 the arity-3 search finishes and the arity-4 power does not
    rep = fo_definability_report(k2, n_max=3, max_vertices=3, max_tuples=3, budget=100)
    assert rep.fo_definable is None
    assert rep.verdict.startswith("no 1-tolerant polymorphism up to arity 3; "
                                  "arity 4 exceeded the budget")
    assert _by_oracle_key(rep.obstructions) == _by_oracle_key(
        critical_obstructions(k2, max_vertices=3, max_tuples=3))
    with pytest.raises(BudgetExceededError):
        fo_definability_report(k2, n_max=3, max_vertices=3, max_tuples=3, budget=50)
