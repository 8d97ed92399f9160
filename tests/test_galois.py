import itertools
import random
import warnings

import pytest

import helpers
import oracles
from cspbench import (
    FiniteStructure,
    Relation,
    Signature,
    count_maximal_pp_types,
    enumerate_polymorphisms,
    is_pp_definable,
    pp_closure,
    pp_type_leq,
    synthesize_pp_definition,
)
from cspbench.clones import preserves_relation
from cspbench.formulas import FALSE, And, Exists, FormulaError, free_variables, parse_sentence
from cspbench.galois import EmptyRelationClosure, relation_of_formula


def edge01():
    return helpers.graph(2, [(0, 1)])


def test_pp_closure_worked_examples():
    a = edge01()
    assert pp_closure(a, Relation(2, [(1, 0)])).tuples == frozenset({(1, 0)})
    assert pp_closure(a, Relation(2, [(0, 0)])).tuples == frozenset({(0, 0)})


def test_pp_closure_idempotent():
    rng = random.Random(61)
    for _ in range(15):
        a = helpers.random_structure(rng, max_n=2)
        arity = rng.randint(1, 2)
        r = Relation(arity, helpers.random_nonempty_relation(rng, a.n, arity))
        closed = pp_closure(a, r)
        assert r.tuples <= closed.tuples
        assert pp_closure(a, closed).tuples == closed.tuples


def test_pp_closure_empty_convention():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = pp_closure(edge01(), Relation(2, []))
    assert out.tuples == frozenset()
    assert any(issubclass(w.category, EmptyRelationClosure) for w in caught)


def test_pp_closure_preserved_by_polymorphisms():
    rng = random.Random(67)
    for _ in range(10):
        a = helpers.random_structure(rng, max_n=2)
        arity = rng.randint(1, 2)
        r = Relation(arity, helpers.random_nonempty_relation(rng, a.n, arity))
        closed = pp_closure(a, r)
        for k in (1, 2, 3):
            for f in enumerate_polymorphisms(a, k):
                assert preserves_relation(f, closed.tuples, arity)


def test_is_pp_definable_or_example():
    le = FiniteStructure(
        Signature.make({"LE": 2, "C0": 1, "C1": 1}), 2,
        {"LE": [(0, 0), (0, 1), (1, 1)], "C0": [(0,)], "C1": [(1,)]})
    orr = Relation(2, [(0, 1), (1, 0), (1, 1)])
    verdict, cert = is_pp_definable(le, orr)
    assert not verdict
    assert cert.violating_tuple == (0, 0)
    assert cert.verify(le, orr)


def test_is_pp_definable_trivial_cases():
    a = edge01()
    full = Relation(2, list(itertools.product(range(2), repeat=2)))
    verdict, cert = is_pp_definable(a, full)
    assert verdict and cert.verify(a, full)
    own = Relation(2, a.rel["E"])
    verdict, cert = is_pp_definable(a, own)
    assert verdict and cert.verify(a, own)
    empty = Relation(2, [])
    verdict, cert = is_pp_definable(a, empty)
    assert verdict


def test_synthesize_pp_definition_examples():
    a = edge01()
    r = Relation(2, [(1, 0)])
    phi = synthesize_pp_definition(a, r)
    assert relation_of_formula(a, phi, 2) == r.tuples
    own = Relation(2, a.rel["E"])
    assert relation_of_formula(a, synthesize_pp_definition(a, own), 2) == own.tuples
    unary = Relation(1, [(0,), (1,)])
    assert relation_of_formula(a, synthesize_pp_definition(a, unary), 1) == unary.tuples


def test_synthesize_rejects_undefinable():
    a = helpers.k2()
    r = Relation(2, [(1, 0)])  # closes to the symmetric pair under the swap
    with pytest.raises(ValueError):
        synthesize_pp_definition(a, r)


def test_synthesize_extension_equals_relation():
    rng = random.Random(71)
    done = 0
    while done < 10:
        a = helpers.random_structure(rng, max_n=2)
        arity = rng.randint(1, 2)
        r = pp_closure(a, Relation(arity, helpers.random_nonempty_relation(rng, a.n, arity)))
        if not r.tuples:
            continue
        phi = synthesize_pp_definition(a, r)
        assert relation_of_formula(a, phi, arity) == r.tuples
        done += 1


def test_relation_of_formula_matches_brute_force():
    # pp extensions come from one image search; positions beyond the free
    # variables range over the domain
    rng = random.Random(613)
    for i in range(80):
        a = helpers.random_structure(rng, max_n=3, max_arity=3)
        sentence = helpers.random_pp_sentence(rng, a.sig)
        body = sentence.body if i % 7 else And((sentence.body, FALSE))
        k = rng.randint(0, len(sentence.vars))
        phi = Exists(sentence.vars[k:], body) if k < len(sentence.vars) else body
        free = sorted(free_variables(phi, a.sig), key=lambda v: (len(v), v))
        arity = len(free) + rng.randint(0, 2)
        expected = {values for values in itertools.product(range(a.n), repeat=arity)
                    if oracles.brute_evaluate(a, phi, dict(zip(free, values)))}
        assert relation_of_formula(a, phi, arity) == expected


def test_relation_of_formula_rejects_ep():
    a = helpers.k2()
    for text in ("exists x y . E(x,y) | x = y", "E(x,y) | x = y & false"):
        with pytest.raises(FormulaError, match="pp formulas only"):
            relation_of_formula(a, parse_sentence(text), 2)


def test_pp_type_leq_worked_examples():
    u = helpers.u1()
    assert pp_type_leq(u, (0,), (1,))
    assert not pp_type_leq(u, (1,), (0,))
    rng = random.Random(73)
    for _ in range(10):
        a = helpers.random_structure(rng, max_n=3)
        t = tuple(rng.randrange(a.n) for _ in range(2))
        assert pp_type_leq(a, t, t)


def test_pp_type_leq_matches_pointed_hom_oracle():
    rng = random.Random(79)
    for _ in range(12):
        a = helpers.random_structure(rng, max_n=3)
        for _ in range(8):
            n = rng.randint(1, 2)
            s = tuple(rng.randrange(a.n) for _ in range(n))
            t = tuple(rng.randrange(a.n) for _ in range(n))
            assert pp_type_leq(a, s, t) == oracles.brute_pointed_hom(a, s, t)


def test_pp_type_leq_is_preorder():
    rng = random.Random(83)
    for _ in range(6):
        a = helpers.random_structure(rng, max_n=2)
        tuples = list(itertools.product(range(a.n), repeat=2))
        leq = {(s, t): pp_type_leq(a, s, t) for s in tuples for t in tuples}
        for s in tuples:
            assert leq[s, s]
        for s in tuples:
            for t in tuples:
                for u in tuples:
                    if leq[s, t] and leq[t, u]:
                        assert leq[s, u]


def test_count_maximal_pp_types_worked_examples():
    rep = count_maximal_pp_types(helpers.u1(), 1)
    assert rep.count == 1
    assert sorted(map(sorted, rep.classes)) == [[(0,)], [(1,)]]
    assert rep.classes[rep.maximal[0]] == [(1,)]

    rep_k2 = count_maximal_pp_types(helpers.k2(), 1)
    assert rep_k2.count == 1 and len(rep_k2.classes) == 1

    rep_loop = count_maximal_pp_types(helpers.loop(), 2)
    assert rep_loop.count == 1


def test_classes_partition_all_tuples():
    rng = random.Random(89)
    for _ in range(8):
        a = helpers.random_structure(rng, max_n=3)
        rep = count_maximal_pp_types(a, 2)
        seen = [t for cls in rep.classes for t in cls]
        assert sorted(seen) == sorted(itertools.product(range(a.n), repeat=2))
        assert rep.count >= 1


def test_automorphic_tuples_share_class():
    k2 = helpers.k2()
    rep = count_maximal_pp_types(k2, 2)
    # the swap automorphism puts (0, 1) and (1, 0) in one class
    for cls in rep.classes:
        if (0, 1) in cls:
            assert (1, 0) in cls


def test_orbit_mates_share_class_random():
    from cspbench import enumerate_homomorphisms

    rng = random.Random(91)
    for _ in range(6):
        a = helpers.random_structure(rng, max_n=3)
        autos = [h.map for h in enumerate_homomorphisms(a, a) if len(set(h.map)) == a.n]
        rep = count_maximal_pp_types(a, 2)
        cls_of = {t: i for i, cls in enumerate(rep.classes) for t in cls}
        for g in autos:
            for t in itertools.product(range(a.n), repeat=2):
                assert cls_of[t] == cls_of[tuple(g[x] for x in t)]


def test_maximal_pp_type_counts_u1():
    reports = [count_maximal_pp_types(helpers.u1(), n) for n in (1, 2)]
    # U = {1}: (1) and (1, 1) carry the largest pp-types, and no two
    # distinct tuples have the same one
    assert [r.arity for r in reports] == [1, 2]
    assert [r.classes for r in reports] == [[[(0,)], [(1,)]],
                                            [[(0, 0)], [(0, 1)], [(1, 0)], [(1, 1)]]]
    assert [r.maximal for r in reports] == [[1], [3]]
    assert [r.count for r in reports] == [1, 1]


def test_pp_type_classes_match_pairwise_oracle():
    # 40 templates of 2 and 3 elements: 40 of the 80 reports have a class
    # of two or more tuples and 58 a class that is not maximal
    rng = random.Random(97)
    for _ in range(40):
        a = helpers.random_structure(rng, min_n=2, max_n=3)
        for n in (1, 2):
            rep = count_maximal_pp_types(a, n)
            assert (rep.classes, rep.maximal) == oracles.pp_type_classes(a, n)


def test_completeness_against_coclone_oracle_sample():
    # spot-check three structures here; the full 256-case sweep is in the
    # acceptance suite
    for edges in [{(0, 1)}, {(0, 1), (1, 0)}, {(0, 0), (0, 1), (1, 1)}]:
        a = helpers.graph(2, edges)
        definable_masks = oracles.pp_definable_masks(a, 2)
        for tuples in itertools.chain.from_iterable(
                itertools.combinations(list(itertools.product(range(2), repeat=2)), sz)
                for sz in range(5)):
            r = Relation(2, tuples)
            verdict, _ = is_pp_definable(a, r)
            mask = sum(1 << (t[0] * 2 + t[1]) for t in r.tuples)
            assert verdict == (mask in definable_masks), (edges, tuples)


def test_is_pp_definable_builds_one_indicator_power(monkeypatch):
    import cspbench.galois as galois

    sizes = []
    real = galois.power

    def counting(a, k, *args, **kwargs):
        sizes.append(k)
        return real(a, k, *args, **kwargs)

    monkeypatch.setattr(galois, "power", counting)
    a = helpers.k2()
    verdict, cert = is_pp_definable(a, Relation(2, [(0, 1), (1, 0)]))
    assert verdict and cert.verify(a, Relation(2, [(0, 1), (1, 0)]))
    assert sizes == [2]


def test_relation_rejects_booleans():
    with pytest.raises(ValueError):
        Relation(True, [(1,)])
    with pytest.raises(ValueError):
        Relation(1, [(True,)]).check_domain(helpers.u1())
