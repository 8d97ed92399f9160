import itertools
import random

import pytest

import helpers
import oracles
from cspbench import (
    BudgetExceededError,
    FiniteStructure,
    Signature,
    SignatureMismatchError,
    enumerate_homomorphisms,
    find_homomorphism,
    is_isomorphic,
    one_tolerant_power,
    power,
    product,
)
from cspbench import structures
from cspbench.galois import Relation, pp_closure
from cspbench.structures import (
    Homomorphism,
    _compile_plan,
    _hom_maps,
    _images,
    canonical_form,
    encode_tuple,
)


def test_signature_validation():
    with pytest.raises(ValueError):
        Signature.make({"E": 0})
    with pytest.raises(ValueError):
        Signature.make({"E": 2}, constants=["E"])
    sig = Signature.make({"B": 2, "A": 1}, constants=["c"])
    assert sig.relation_names == ("A", "B")
    assert sig.arity("B") == 2


def test_structure_validation():
    sig = Signature.make({"E": 2}, constants=["c"])
    with pytest.raises(ValueError):
        FiniteStructure(sig, 2, {"E": [(0, 2)]}, {"c": 0})
    with pytest.raises(ValueError):
        FiniteStructure(sig, 2, {"E": [(0, 1, 0)]}, {"c": 0})
    with pytest.raises(ValueError):
        FiniteStructure(sig, 2, {"E": []}, {"c": 2})
    with pytest.raises(ValueError):
        FiniteStructure(sig, 2, {"E": [], "F": []}, {"c": 0})
    s = FiniteStructure(sig, 2, {"E": [(0, 1)]}, {"c": 1})
    assert s.total_tuples() == 1


def test_encoding_round_trip():
    # the product in lexicographic order is encoded as 0, 1, ..., n**k - 1
    for n, k in [(2, 3), (3, 2), (5, 1)]:
        codes = [encode_tuple(t, n) for t in itertools.product(range(n), repeat=k)]
        assert codes == list(range(n ** k))


def test_product_k2_with_loop_is_k2():
    k2 = helpers.k2()
    lp = helpers.loop()
    assert is_isomorphic(product(k2, lp), k2)
    assert is_isomorphic(product(lp, k2), k2)


def test_product_k2_k2():
    p = product(helpers.k2(), helpers.k2())
    assert p.n == 4
    # pairs encoded i*2+j: the two symmetric edges (0,0)-(1,1) and (0,1)-(1,0)
    assert p.rel["E"] == frozenset({(0, 3), (3, 0), (1, 2), (2, 1)})


def test_product_requires_same_signature():
    with pytest.raises(SignatureMismatchError):
        product(helpers.k2(), helpers.u1())


def _relabel(s, perm, n):
    rels = {r: {tuple(perm[v] for v in t) for t in s.rel[r]} for r, _ in s.sig.relations}
    consts = {c: perm[v] for c, v in s.const.items()}
    return FiniteStructure(s.sig, n, rels, consts)


def test_product_commutative_associative_up_to_reencoding():
    rng = random.Random(2)
    made = 0
    while made < 6:
        a = helpers.random_structure(rng, max_n=3, max_rels=1)
        b = helpers.random_structure(rng, max_n=3, max_rels=1)
        c = helpers.random_structure(rng, max_n=3, max_rels=1)
        if not (a.sig == b.sig == c.sig):
            continue
        # row-major encoding is associative on the nose
        assert product(product(a, b), c) == product(a, product(b, c))
        # commutativity holds up to the transposition (i, j) -> (j, i)
        transpose = [0] * (a.n * b.n)
        for i in range(a.n):
            for j in range(b.n):
                transpose[i * b.n + j] = j * a.n + i
        assert _relabel(product(a, b), transpose, a.n * b.n) == product(b, a)
        made += 1
    # and the generic iso test agrees at small size
    small_a, small_b = helpers.k2(), helpers.graph(2, [(0, 0), (0, 1)])
    assert is_isomorphic(product(small_a, small_b), product(small_b, small_a))


def test_product_constants():
    sig = Signature.make({"E": 2}, constants=["c"])
    a = FiniteStructure(sig, 2, {"E": [(0, 1)]}, {"c": 1})
    p = product(a, a)
    assert p.const["c"] == 1 * 2 + 1


def test_power_one_identical():
    for s in (helpers.k2(), helpers.u1(), helpers.nae()):
        assert power(s, 1) == s


def test_power_two_equals_product():
    k2 = helpers.k2()
    assert power(k2, 2) == product(k2, k2)
    u = helpers.u1()
    assert power(u, 3) == product(product(u, u), u)


def test_power_domain_size():
    rng = random.Random(5)
    for _ in range(5):
        s = helpers.random_structure(rng, max_n=3)
        for k in (1, 2, 3):
            assert power(s, k).n == s.n ** k


def test_power_budget():
    with pytest.raises(BudgetExceededError):
        power(helpers.k3(), 20)


def test_one_tolerant_u1():
    otp = one_tolerant_power(helpers.u1(), 3)
    # encoded triples with at least two 1-coordinates
    assert otp.rel["U"] == frozenset({(0b011,), (0b101,), (0b110,), (0b111,)})


def test_one_tolerant_contains_power():
    for s in (helpers.k2(), helpers.u1(), helpers.uv()):
        for k in (3, 4):
            pw, ot = power(s, k), one_tolerant_power(s, k)
            for rname, _ in s.sig.relations:
                assert pw.rel[rname] <= ot.rel[rname]


def test_one_tolerant_empty_relation_stays_empty():
    sig = Signature.make({"E": 2, "R": 1})
    s = FiniteStructure(sig, 2, {"E": [(0, 1)], "R": []})
    assert one_tolerant_power(s, 3).rel["R"] == frozenset()


def test_one_tolerant_requires_three():
    with pytest.raises(ValueError):
        one_tolerant_power(helpers.k2(), 2)


def test_power_exponents_reject_booleans():
    k2 = helpers.k2()
    with pytest.raises(ValueError):
        power(k2, True)
    with pytest.raises(ValueError):
        one_tolerant_power(k2, True)


# K3 has 6 edges; each budget below admits the domain but not the relation.
def test_power_relation_budget_message():
    with pytest.raises(BudgetExceededError) as err:
        power(helpers.k3(), 2, budget=20)
    assert str(err.value) == "power relation E of 6^2 tuples exceeds budget 20"


def test_one_tolerant_power_relation_budget_message():
    with pytest.raises(BudgetExceededError) as err:
        one_tolerant_power(helpers.k3(), 3, budget=200)
    # 6**3 tuples with every coordinate in E, and 3 * 6**2 * 3**2 with one free
    assert str(err.value) == "one-tolerant power relation E: work 1188 exceeds budget 200"


def test_product_relation_budget_message():
    with pytest.raises(BudgetExceededError) as err:
        product(helpers.k3(), helpers.k3(), budget=10)
    assert str(err.value) == "product relation E of 36 tuples exceeds budget 10"


def _small_structure(rng, max_n=3):
    """Relations of arity 1-3, some of them empty, and up to two constants."""
    n = rng.randint(1, max_n)
    relations, data = {}, {}
    for i in range(rng.randint(1, 3)):
        ar = rng.randint(1, 3)
        pool = list(itertools.product(range(n), repeat=ar))
        relations[f"R{i}"] = ar
        data[f"R{i}"] = [] if rng.random() < 0.2 else rng.sample(pool, rng.randint(1, min(len(pool), 4)))
    consts = {c: rng.randrange(n) for c in rng.sample(["c", "d"], rng.randint(0, 2))}
    return FiniteStructure(Signature.make(relations, list(consts)), n, data, consts)


def _result(fn, *args):
    """fn's result, or the type and text of the error it raised."""
    try:
        return "ok", fn(*args)
    except (ValueError, BudgetExceededError) as exc:
        return type(exc).__name__, str(exc)


def test_powers_match_reference():
    rng = random.Random(61)
    for _ in range(300):
        a = _small_structure(rng)
        for k in (1, 2, 3, 4):
            got, want = power(a, k), oracles.power(a, k)
            assert got == want and got.n == want.n
        for k in (3, 4):
            got = _result(one_tolerant_power, a, k, 20_000)
            assert got == _result(oracles.one_tolerant_power, a, k, 20_000)
            if got[0] == "ok":
                assert got[1].n == a.n ** k
    assert _result(power, helpers.k3(), 20) == _result(oracles.power, helpers.k3(), 20)


def _plan_summary(plan, a):
    """values and, per element, the multiset of (what each check reads
    from the identity assignment, its support).  The reference plan also
    lists plain-backtracking counts, which are not compared."""
    if plan is None:
        return None
    values, checks = plan[0], plan[-1]
    identity = list(range(a.n))
    reads = [sorted((getter(identity), sorted(support)) for getter, support in chk) for chk in checks]
    return values, reads


def test_plans_match_reference():
    rng = random.Random(67)
    compiled = 0
    for _ in range(1000):
        b = _small_structure(rng)
        b = FiniteStructure(b.sig.relational_part(), b.n, b.rel)
        sources = [power(b, rng.randint(1, 3))]
        sig = b.sig
        data = {r: rng.sample(list(itertools.product(range(4), repeat=ar)), rng.randint(0, 4))
                for r, ar in sig.relations}
        sources.append(FiniteStructure(sig, 4, data))
        for a in sources:
            plan = _compile_plan(a, b)
            assert _plan_summary(plan, a) == _plan_summary(oracles._compile_plan(a, b), a)
            compiled += plan is not None
    assert compiled > 1000


def test_find_homomorphism_examples():
    k2 = helpers.k2()
    h = find_homomorphism(helpers.path(3), k2)
    assert h is not None and h.verify()
    assert h.map == (0, 1, 0)  # lexicographically least
    assert find_homomorphism(helpers.cycle(3), k2) is None
    for s in (k2, helpers.k3(), helpers.u1()):
        ident = find_homomorphism(s, s)
        assert ident is not None and ident.verify()
    with pytest.raises(SignatureMismatchError, match="requires equal signatures"):
        find_homomorphism(k2, helpers.u1())


def test_hom_search_matches_brute_force():
    rng = random.Random(11)
    for _ in range(25):
        a = helpers.random_structure(rng, max_n=3)
        b = helpers.random_structure(rng, max_n=3)
        if a.sig != b.sig:
            continue
        maps = [h.map for h in enumerate_homomorphisms(a, b)]
        assert maps == sorted(maps)
        assert set(maps) == set(oracles.brute_homs(a, b))
        found = find_homomorphism(a, b)
        assert (found is not None) == bool(maps)
        if found:
            assert found.map == maps[0] and found.verify()


def test_hom_count_from_relationless_vertex():
    single = FiniteStructure(helpers.GRAPH, 1, {"E": []})
    assert len(enumerate_homomorphisms(single, helpers.k2())) == 2


def test_hom_counts_multiply_over_products():
    rng = random.Random(13)
    sig = helpers.GRAPH
    pool = [helpers.k2(), helpers.loop(), helpers.path(2), helpers.graph(2, [(0, 0), (0, 1)])]
    for _ in range(6):
        a, b, c = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        lhs = len(enumerate_homomorphisms(a, product(b, c)))
        rhs = len(enumerate_homomorphisms(a, b)) * len(enumerate_homomorphisms(a, c))
        assert lhs == rhs


def test_hom_with_constants():
    sig = Signature.make({"E": 2}, constants=["c"])
    a = FiniteStructure(sig, 2, {"E": [(0, 1)]}, {"c": 0})
    b = FiniteStructure(sig, 2, {"E": [(0, 1), (1, 0)]}, {"c": 1})
    homs = enumerate_homomorphisms(a, b)
    assert all(h.map[0] == 1 for h in homs)
    assert all(h.verify() for h in homs)


def test_pinned_search():
    k2 = helpers.k2()
    h = find_homomorphism(k2, k2, pinned={0: 1})
    assert h.map == (1, 0)
    assert find_homomorphism(helpers.u1(), helpers.u1(), pinned={1: 0}) is None
    for pin in ({2: 0}, {0: 2}, {-1: 0}):
        (x, v), = pin.items()
        with pytest.raises(ValueError, match=f"^pin {x}->{v} out of range$"):
            find_homomorphism(k2, k2, pinned=pin)


def test_budget_exceeded_search():
    sig = Signature.make({"R": 1})
    a = FiniteStructure(sig, 8, {"R": []})
    b = FiniteStructure(sig, 8, {"R": []})
    with pytest.raises(BudgetExceededError):
        enumerate_homomorphisms(a, b, budget=1000)


def test_enumeration_is_bounded_by_the_entries_it_keeps():
    # the 1,024 maps from 10 isolated elements into K2 cost 2,046 candidate
    # assignments but hold 10,240 entries; the last one is found while the
    # others hold 10,230
    k2 = helpers.k2()
    a = FiniteStructure(k2.sig, 10, {"E": []})
    assert len(enumerate_homomorphisms(a, k2, budget=10_230)) == 1024
    with pytest.raises(BudgetExceededError, match="holds 1023 maps of 10 entries each"):
        enumerate_homomorphisms(a, k2, budget=10_229)
    with pytest.raises(BudgetExceededError, match="holds 501 maps of 10 entries each"):
        enumerate_homomorphisms(a, k2, budget=5000)
    # a first-only search spends a.n steps on its one leaf
    assert find_homomorphism(a, k2, budget=10).map == (0,) * 10


# The least budget under which each search completes, that is the number
# of values it assigns, and the number of maps it finds.  A value the plan
# rules out is not counted: the plan restricts the least element of U/V**k
# to V and the greatest to U, so the first map costs 2**k values where
# plain backtracking, which tries every value, counted 2**k + 1.
BUDGET_THRESHOLDS = [
    ("K3^3 -> K3, enumerate", lambda: (power(helpers.k3(), 3), helpers.k3()),
     None, None, 264_342, 18),
    ("K3^3 -> K3, first, pinned 0 -> 1", lambda: (power(helpers.k3(), 3), helpers.k3()),
     {0: 1}, 0, 22_028, 1),
    ("K3^2 -> K3, enumerate", lambda: (power(helpers.k3(), 2), helpers.k3()),
     None, None, 696, 12),
    ("C5 -> K2, first", lambda: (helpers.cycle(5), helpers.k2()), None, 0, 18, 0),
    ("U/V^2 -> U/V, first", lambda: (power(helpers.uv(), 2), helpers.uv()), None, 0, 4, 1),
    ("U/V^3 -> U/V, first", lambda: (power(helpers.uv(), 3), helpers.uv()), None, 0, 8, 1),
]


@pytest.mark.parametrize("name,make,pinned,prefix,threshold,count", BUDGET_THRESHOLDS,
                         ids=[case[0] for case in BUDGET_THRESHOLDS])
def test_budget_threshold_is_exact(name, make, pinned, prefix, threshold, count):
    a, b = make()
    with pytest.raises(BudgetExceededError):
        list(_hom_maps(a, b, pinned, threshold - 1, prefix))
    maps = list(_hom_maps(a, b, pinned, threshold, prefix))
    assert len(maps) == count and maps == sorted(maps)
    assert all(Homomorphism(a, b, m).verify() for m in maps)


# An image question is one search under one budget, and a pp-closure asks
# one per tuple of its generating subset: the least budget under which each
# pp-closure completes is that of its largest search, and the size of the
# closure.  The path's and the triples' generating subsets are (0, 1) and
# (0, 0, 1), (0, 1, 2): (1, 2) and (1, 2, 0) lie in their closures.
CLOSURE_THRESHOLDS = [
    ("K3, one edge", helpers.k3, [(0, 1)], 24, 6),
    ("K3, path of two edges", helpers.k3, [(0, 1), (1, 2)], 24, 6),
    ("K3, three triples", helpers.k3, [(0, 1, 2), (1, 2, 0), (0, 0, 1)], 381, 12),
    ("K2, edges and a loop pair", helpers.k2, [(0, 1), (1, 0), (0, 0)], 18, 4),
]


@pytest.mark.parametrize("name,make,tuples,threshold,count", CLOSURE_THRESHOLDS,
                         ids=[case[0] for case in CLOSURE_THRESHOLDS])
def test_image_question_budget_threshold_is_exact(name, make, tuples, threshold, count):
    a, r = make(), Relation(len(tuples[0]), tuples)
    with pytest.raises(BudgetExceededError):
        pp_closure(a, r, budget=threshold - 1)
    assert len(pp_closure(a, r, budget=threshold).tuples) == count


def _random_with_constants(rng, sig, n):
    rels = {}
    for rname, ar in sig.relations:
        density = rng.uniform(0.1, 0.9)
        rels[rname] = [t for t in itertools.product(range(n), repeat=ar) if rng.random() < density]
    return FiniteStructure(sig, n, rels, {c: rng.randrange(n) for c in sig.constants})


def test_hom_search_order_matches_brute_force_with_constants_and_pins():
    rng = random.Random(23)
    for _ in range(150):
        sig = Signature.make({f"R{i}": rng.randint(1, 3) for i in range(rng.randint(1, 2))},
                             [f"c{i}" for i in range(rng.choice([0, 0, 1, 2]))])
        a = _random_with_constants(rng, sig, rng.randint(1, 5))
        b = _random_with_constants(rng, sig, rng.randint(1, 3))
        brute = oracles.brute_homs(a, b)
        # several pinned searches on the same pair, each compiled afresh
        for _ in range(3):
            pins = {rng.randrange(a.n): rng.randrange(b.n) for _ in range(rng.randint(0, 2))}
            want = [h for h in brute if all(h[x] == v for x, v in pins.items())]
            assert [h.map for h in enumerate_homomorphisms(a, b, pinned=pins)] == want
            found = find_homomorphism(a, b, pinned=pins)
            assert (found.map if found else None) == (want[0] if want else None)


def test_deep_search_does_not_recurse():
    n = 3000
    h = find_homomorphism(helpers.path(n), helpers.k2())
    assert h is not None and h.map == tuple(i % 2 for i in range(n))
    assert find_homomorphism(helpers.cycle(n + 1), helpers.k2()) is None


def test_images_match_brute_force():
    # one projected search per question gives the image set of the elements
    # in lexicographic order, each with the least map that has it
    rng = random.Random(71)
    with_images = 0
    for case in range(1000):
        sig = Signature.make({f"R{i}": rng.randint(1, 3) for i in range(rng.randint(1, 2))},
                             [f"c{i}" for i in range(rng.choice([0, 0, 1, 2]))])
        n = rng.randint(1, 6)
        # a sparse source, so that an image often has several completions
        rels = {r: rng.sample(list(itertools.product(range(n), repeat=ar)),
                              rng.randint(0, min(n ** ar, 3)))
                for r, ar in sig.relations}
        a = FiniteStructure(sig, n, rels, {c: rng.randrange(n) for c in sig.constants})
        b = _random_with_constants(rng, sig, rng.randint(1, 3))
        if case % 5 == 0:  # a projected element that a constant names
            elements = [a.const[c] for c in sig.constants] + [rng.randrange(a.n)]
        else:  # repeats, and the empty list
            elements = [rng.randrange(a.n) for _ in range(rng.randint(0, 4))]
        least = {}
        for h in oracles.brute_homs(a, b):
            least.setdefault(tuple(h[x] for x in elements), h)
        got = list(_images(a, b, elements))
        assert [image for image, _ in got] == sorted(least)
        assert all(h() == least[image] for image, h in got)
        with_images += bool(got)
    assert with_images > 500


def test_homomorphism_preserves_ep_sentences():
    # an ep sentence true in a structure is true in every homomorphic image
    from cspbench import evaluate
    from cspbench.formulas import parse_sentence

    p3, k2 = helpers.path(3), helpers.k2()
    assert find_homomorphism(p3, k2) is not None
    for text in ("exists x y . E(x,y)", "exists x y . E(x,y) & E(y,x)",
                 "exists x . x = x", "exists x y z . E(x,y) & (E(y,z) | x = z)"):
        phi = parse_sentence(text)
        assert evaluate(p3, phi)
        assert evaluate(k2, phi)


def test_homomorphism_verify_rejects_collapsed_edge():
    assert not Homomorphism(helpers.k2(), helpers.k3(), (0, 0)).verify()


def test_json_round_trip():
    sig = Signature.make({"E": 2, "U": 1}, constants=["c"])
    s = FiniteStructure(sig, 3, {"E": [(0, 1), (2, 2)], "U": [(1,)]}, {"c": 2})
    assert FiniteStructure.from_json(s.to_json()) == s


def test_equal_structures_hash_equal():
    sig = Signature.make({"E": 2, "U": 1}, constants=["c"])
    edges = [(0, 1), (1, 2), (2, 0), (1, 1)]
    a = FiniteStructure(sig, 3, {"E": edges, "U": [(2,), (0,)]}, {"c": 1})
    b = FiniteStructure(sig, 3, {"U": [(0,), (2,)], "E": edges[::-1]}, {"c": 1})
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    for other in (FiniteStructure(sig, 3, {"E": edges[1:], "U": [(2,), (0,)]}, {"c": 1}),
                  FiniteStructure(sig, 3, {"E": edges, "U": [(2,), (0,)]}, {"c": 0}),
                  FiniteStructure(sig, 4, {"E": edges, "U": [(2,), (0,)]}, {"c": 1}),
                  a.relational_reduct()):
        assert other != a and len({a, other}) == 2
    # the caches a canonical form fills take no part
    canonical_form(a)
    copy = FiniteStructure.from_json(a.to_json())
    assert copy == a and hash(copy) == hash(a) and copy._canon is None


def test_json_rejects_unknown_fields():
    doc = helpers.k2().to_json_dict()
    doc["comment"] = "nope"
    with pytest.raises(ValueError):
        FiniteStructure.from_json_dict(doc)
    bad_sig = helpers.k2().to_json_dict()
    bad_sig["signature"]["extras"] = []
    with pytest.raises(ValueError):
        FiniteStructure.from_json_dict(bad_sig)


def test_json_rejects_missing_fields():
    doc = helpers.k2().to_json_dict()
    del doc["constants"]
    with pytest.raises(ValueError):
        FiniteStructure.from_json_dict(doc)


def test_isomorphism_detects_relabelling():
    a = helpers.graph(3, [(0, 1)], symmetric=True)
    b = helpers.graph(3, [(1, 2)], symmetric=True)
    assert is_isomorphic(a, b)
    assert not is_isomorphic(a, helpers.graph(3, [(0, 1), (1, 2)], symmetric=True))
    assert canonical_form(a) == canonical_form(b)


def test_json_rejects_booleans_for_integers():
    def doc(**changes):
        d = {"signature": {"relations": {"E": 2}, "constants": ["c"]}, "domain": 2,
             "relations": {"E": [[0, 1]]}, "constants": {"c": 0}}
        d.update(changes)
        return d

    FiniteStructure.from_json_dict(doc())
    for bad in (doc(domain=True, relations={"E": [[0, 0]]}),
                doc(relations={"E": [[0, True]]}),
                doc(relations={"E": [[False, 1]]}),
                doc(constants={"c": False}),
                doc(signature={"relations": {"E": True}, "constants": ["c"]},
                    relations={"E": [[0]]})):
        with pytest.raises(ValueError):
            FiniteStructure.from_json_dict(bad)


def _random_structure_with_constants(rng):
    n = rng.randint(1, 6)
    rels, data = {}, {}
    for i in range(rng.randint(1, 3)):
        arity = rng.randint(1, 3)
        rels[f"R{i}"] = arity
        density = rng.uniform(0.05, 0.5) / arity
        data[f"R{i}"] = {t for t in itertools.product(range(n), repeat=arity)
                         if rng.random() < density}
    consts = {}
    if rng.random() < 0.5:
        consts = {f"c{j}": rng.randrange(n) for j in range(rng.randint(1, 2))}
    return FiniteStructure(Signature.make(rels, consts), n, data, consts)


def _relabelled(a, rng):
    perm = list(range(a.n))
    rng.shuffle(perm)
    return FiniteStructure(a.sig, a.n,
                           {r: {tuple(perm[v] for v in t) for t in ts} for r, ts in a.rel.items()},
                           {c: perm[v] for c, v in a.const.items()})


def test_canonical_form_matches_exhaustive_oracle():
    rng = random.Random(2014)
    pool = []
    for _ in range(120):
        a = _random_structure_with_constants(rng)
        pool += [a, _relabelled(a, rng), _relabelled(a, rng)]
    # 2-regular graphs on 6 vertices that colour refinement alone cannot
    # tell apart: C6 against two triangles, undirected and directed
    for symmetric in (True, False):
        c6 = helpers.cycle(6, symmetric=symmetric)
        triangles = helpers.graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
                                  symmetric=symmetric)
        pool += [c6, _relabelled(c6, rng), triangles, _relabelled(triangles, rng)]
    keys = [canonical_form(a) for a in pool]
    reference = [oracles.exhaustive_canonical_key(a) for a in pool]
    for a, key, ref in zip(pool, keys, reference):
        if a.n <= 3:
            assert key == ref  # exhaustive relabelling, as before
    classes = {}
    for key, ref in zip(keys, reference):
        classes.setdefault(key, set()).add(ref)
    assert all(len(refs) == 1 for refs in classes.values())
    assert len(classes) == len(set(reference))
    assert len(classes) < len(pool)  # the pool does hold isomorphic pairs


def _automorphism_pool(rng):
    """Random structures with constants of 1 to 6 elements, both sides of
    _EXHAUSTIVE_DOMAIN, plus C6 and two triangles, undirected and directed,
    whose automorphism groups have 6 to 72 elements."""
    pool = [_random_structure_with_constants(rng) for _ in range(150)]
    for symmetric in (True, False):
        pool += [helpers.cycle(6, symmetric=symmetric),
                 helpers.graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)],
                               symmetric=symmetric)]
    return pool


def _recorded_automorphisms(a):
    canonical_form(a)
    return a._automorphisms


def test_canonical_form_records_every_automorphism(monkeypatch):
    """With room for all of them, the automorphisms canonical_form keeps,
    plus the identity, are Aut(a)."""
    monkeypatch.setattr(structures, "_MAX_AUTOMORPHISMS", 40_320)
    pool = _automorphism_pool(random.Random(1998))
    assert {a.n for a in pool} == set(range(1, 7))
    sizes = set()
    for a in pool:
        recorded = _recorded_automorphisms(a)
        aut = oracles.brute_automorphisms(a)
        assert len(recorded) == len(set(recorded)) == len(aut) - 1
        assert set(recorded) | {tuple(range(a.n))} == aut
        sizes.add(len(aut))
    assert {6, 12, 18, 72} <= sizes


def test_canonical_form_keeps_a_bounded_subset_of_automorphisms():
    pool = _automorphism_pool(random.Random(1998))
    bounded = 0
    for a in pool:
        recorded = _recorded_automorphisms(a)
        aut = oracles.brute_automorphisms(a)
        assert len(set(recorded)) == min(len(aut) - 1, structures._MAX_AUTOMORPHISMS)
        assert set(recorded) <= aut - {tuple(range(a.n))}
        bounded += len(aut) - 1 > structures._MAX_AUTOMORPHISMS
    assert bounded
    # an empty 8-element structure has 8! automorphisms, all of them leaves
    assert len(_recorded_automorphisms(FiniteStructure(helpers.GRAPH, 8, {"E": []}))) == \
        structures._MAX_AUTOMORPHISMS


def test_canonical_form_beyond_eight_elements():
    directed_path = helpers.graph(12, [(i, i + 1) for i in range(11)])
    key = canonical_form(directed_path)
    rng = random.Random(12)
    assert canonical_form(_relabelled(directed_path, rng)) == key
    assert is_isomorphic(directed_path, _relabelled(directed_path, rng))


def test_canonical_form_leaf_cap():
    # every relabelling of an empty structure is a leaf: 12! > 8!
    with pytest.raises(BudgetExceededError):
        canonical_form(FiniteStructure(helpers.GRAPH, 12, {"E": []}))
