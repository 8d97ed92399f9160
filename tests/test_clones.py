import itertools
import random
from dataclasses import replace

import pytest

import helpers
import oracles
from cspbench import (
    FiniteStructure,
    OperationTable,
    Relation,
    Signature,
    all_polymorphisms_essentially_unary,
    enumerate_homomorphisms,
    enumerate_polymorphisms,
    is_core,
    is_epc_finite,
    is_essentially_unary,
    is_pp_definable,
    operation_preserves,
)
from cspbench.clones import EssentialityWitness, preserves_relation
from cspbench.duality import critical_obstructions
from cspbench.structures import Homomorphism


def op(n, k, fn):
    return OperationTable.from_function(n, k, fn)


MIN2 = op(2, 2, min)
MAJ3 = op(2, 3, lambda a, b, c: (a + b + c) // 2 if a + b + c != 1 else 0)
XOR3 = op(2, 3, lambda a, b, c: a ^ b ^ c)
PROJ1 = OperationTable.projection(2, 2, 0)


def test_operation_table_validation():
    with pytest.raises(ValueError):
        OperationTable(2, 2, (0, 1, 0))
    with pytest.raises(ValueError):
        OperationTable(2, 1, (0, 2))
    assert MIN2.apply((0, 1)) == 0 and MIN2.apply((1, 1)) == 1


def test_operation_table_json_round_trip():
    assert OperationTable.from_json_dict(MAJ3.to_json_dict()) == MAJ3


@pytest.mark.parametrize("doc", [
    {"domain": True, "arity": 1, "values": [False]},
    {"domain": 1, "arity": True, "values": [0]},
    {"domain": 2, "arity": 1, "values": [0, True]},
    {"domain": "2", "arity": 1, "values": [0, 1]},
    {"domain": 2, "arity": 1, "values": 5},
], ids=["bool-domain", "bool-arity", "bool-value", "string-domain", "scalar-values"])
def test_operation_table_json_rejects_non_integers(doc):
    with pytest.raises(ValueError):
        OperationTable.from_json_dict(doc)


def test_enumerate_polymorphisms_k2_unary():
    polys = enumerate_polymorphisms(helpers.k2(), 1)
    assert [f.values for f in polys] == [(0, 1), (1, 0)]


def test_enumerate_polymorphisms_matches_brute_force():
    rng = random.Random(41)
    cases = 0
    while cases < 20:
        a = helpers.random_structure(rng, max_n=2)
        for k in (1, 2, 3):
            search = [f.values for f in enumerate_polymorphisms(a, k)]
            assert search == sorted(search)
            assert set(search) == set(oracles.brute_polymorphisms(a, k))
        cases += 1


def test_nae_polymorphisms():
    nae = helpers.nae()
    binary = enumerate_polymorphisms(nae, 2)
    # exactly the two projections and their negations
    expected = {
        OperationTable.projection(2, 2, 0).values,
        OperationTable.projection(2, 2, 1).values,
        op(2, 2, lambda a, b: 1 - a).values,
        op(2, 2, lambda a, b: 1 - b).values,
    }
    assert {f.values for f in binary} == expected
    assert set(expected) == set(oracles.brute_polymorphisms(nae, 2))


def test_polymorphisms_preserve_constants():
    sig = Signature.make({"E": 2}, constants=["zero", "one"])
    a = FiniteStructure(sig, 2, {"E": [(0, 1)]}, {"zero": 0, "one": 1})
    for k in (1, 2):
        for f in enumerate_polymorphisms(a, k):
            assert f.apply((0,) * k) == 0 and f.apply((1,) * k) == 1


def test_polymorphisms_pass_exhaustive_preservation():
    rng = random.Random(43)
    for _ in range(10):
        a = helpers.random_structure(rng, max_n=2)
        for k in (1, 2):
            for f in enumerate_polymorphisms(a, k):
                assert operation_preserves(f, a)


def test_unary_polymorphisms_are_endomorphisms():
    for a in (helpers.k2(), helpers.k3(), helpers.u1(), helpers.nae()):
        polys = {f.values for f in enumerate_polymorphisms(a, 1)}
        endos = {h.map for h in enumerate_homomorphisms(a, a)}
        assert polys == endos


def test_is_essentially_unary_projection():
    ok, (beta, g) = is_essentially_unary(PROJ1)
    assert ok and beta == 0 and g == (0, 1)


def test_is_essentially_unary_min():
    ok, witness = is_essentially_unary(MIN2)
    assert not ok
    assert isinstance(witness, EssentialityWitness)
    assert witness.x_coords == (0,) and witness.y_coords == (1,)
    assert witness.verify(MIN2)


def test_is_essentially_unary_xor3():
    ok, witness = is_essentially_unary(XOR3)
    assert not ok and witness.verify(XOR3)
    assert oracles.essential_coordinate_count(XOR3.values, 2, 3) == 3


def test_is_essentially_unary_constant():
    const = op(2, 2, lambda a, b: 1)
    ok, (beta, g) = is_essentially_unary(const)
    assert ok and g == (1, 1)


def test_is_essentially_unary_matches_direct_check():
    for k in (1, 2, 3):
        for values in itertools.product(range(2), repeat=2 ** k):
            f = OperationTable(2, k, values)
            ok, info = is_essentially_unary(f)
            assert ok == (oracles.essential_coordinate_count(values, 2, k) <= 1)
            if ok:
                beta, g = info
                assert all(f.apply(t) == g[t[beta]]
                           for t in itertools.product(range(2), repeat=k))
            else:
                assert info.verify(f)


def test_all_polymorphisms_essentially_unary_p4():
    verdict = all_polymorphisms_essentially_unary(helpers.p4_structure(), 3)
    assert verdict.all_essentially_unary
    assert verdict.max_arity == 3


def test_all_polymorphisms_essentially_unary_le():
    le = FiniteStructure(Signature.make({"LE": 2}), 2, {"LE": [(0, 0), (0, 1), (1, 1)]})
    verdict = all_polymorphisms_essentially_unary(le, 2)
    assert not verdict.all_essentially_unary
    assert verdict.counterexample is not None
    assert verdict.witness.verify(verdict.counterexample)
    assert operation_preserves(verdict.counterexample, le)
    # min is among the binary polymorphisms witnessing essentiality
    assert MIN2.values in {f.values for f in enumerate_polymorphisms(le, 2)}


def test_verdict_returns_first_essential_counterexample():
    rng = random.Random(47)
    for _ in range(10):
        a = helpers.random_structure(rng, max_n=2)
        verdict = all_polymorphisms_essentially_unary(a, 2)
        binary = enumerate_polymorphisms(a, 2)
        has_essential = any(
            oracles.essential_coordinate_count(f.values, a.n, 2) > 1 for f in binary)
        assert verdict.all_essentially_unary == (not has_essential)


def test_is_core_k2():
    verdict, cert = is_core(helpers.k2())
    assert verdict and cert is None


def test_is_core_k2_plus_isolated_vertex():
    s = helpers.graph(3, [(0, 1)], symmetric=True)
    verdict, cert = is_core(s)
    assert not verdict
    assert cert.verify()  # it is a homomorphism...
    assert len(set(cert.map)) < 3 or any(
        tuple(cert.map[x] for x in t) in s.rel["E"]
        for t in itertools.product(range(3), repeat=2) if t not in s.rel["E"]
    )  # ...but not an embedding


def test_is_core_single_loop():
    verdict, cert = is_core(helpers.loop())
    assert verdict and cert is None


def test_is_core_matches_the_embedding_definition():
    # is_core only tests endomorphisms for injectivity; by definition an
    # embedding must also reflect every relation, which is implied on a
    # finite structure
    rng = random.Random(59)
    for _ in range(60):
        a = helpers.random_structure(rng, max_n=4, max_arity=3)

        def embeds(h):
            return len(set(h)) == a.n and all(
                tuple(h[x] for x in t) not in a.rel[rname]
                for rname, ar in a.sig.relations
                for t in itertools.product(range(a.n), repeat=ar) if t not in a.rel[rname])

        assert is_core(a)[0] == all(embeds(h) for h in oracles.brute_homs(a, a))


def test_is_core_stops_at_the_first_non_injective_endomorphism():
    # End(A) of nine isolated points has 9**9 maps, far more than the budget
    # lets an enumeration keep, but the first, everything to 0, collapses
    a = FiniteStructure(Signature.make({"E": 2}), 9)
    verdict, cert = is_core(a)
    assert verdict is False and cert.map == (0,) * 9 and cert.verify()
    assert not is_epc_finite(a)


def test_is_epc_equals_is_core():
    assert is_epc_finite(helpers.k2())
    assert not is_epc_finite(helpers.graph(3, [(0, 1)], symmetric=True))
    assert is_epc_finite(helpers.loop())
    rng = random.Random(53)
    for _ in range(20):
        a = helpers.random_structure(rng, max_n=3)
        assert is_epc_finite(a) == is_core(a)[0]


def _edge_plus_point_to_k2(**changes):
    # the isolated point 2 is in no tuple, so only the range checks see it
    a = helpers.graph(3, [(0, 1)], symmetric=True)
    return replace(Homomorphism(a, helpers.k2(), (1, 0, 0)), **changes).verify()


def _xor_witness(**changes):
    xor = op(2, 2, lambda x, y: x ^ y)
    witness = is_essentially_unary(xor)[1]  # coordinates 0 and 1
    return replace(witness, **changes).verify(xor)


def _k2_one_not_pp(**changes):
    # {1} is not pp-definable in K2: the swap sends the row (1,) to (0,);
    # a corruption that puts the identity in its place is consistent but
    # for the one part changed
    k2, r = helpers.k2(), Relation(1, [(1,)])
    verdict, cert = is_pp_definable(k2, r)
    return not verdict and replace(cert, **changes).verify(k2, r)


def _k2_loop_obstruction(**changes):
    k2 = helpers.k2()
    return replace(critical_obstructions(k2, 1, 1)[0], **changes).verify(k2)


K2_EDGES = {(0, 1), (1, 0)}
IDENTITY = op(2, 1, lambda x: x)
# each certificate checker: (a valid certificate's check, the same check on
# a corrupted certificate that only the branch named rejects)
CORRUPTIONS = {
    "homomorphism-wrong-length": (_edge_plus_point_to_k2,
                                  lambda: _edge_plus_point_to_k2(map=(1, 0))),
    "homomorphism-value-out-of-range": (_edge_plus_point_to_k2,
                                        lambda: _edge_plus_point_to_k2(map=(1, 0, 2))),
    "relation-not-preserved": (lambda: preserves_relation(op(2, 1, lambda x: 1 - x), K2_EDGES, 2),
                               lambda: preserves_relation(op(2, 1, lambda x: 0), K2_EDGES, 2)),
    "operation-wrong-domain": (lambda: operation_preserves(op(2, 1, lambda x: 1 - x), helpers.k2()),
                               lambda: operation_preserves(op(3, 1, lambda x: x), helpers.k2())),
    # an empty coordinate set leaves its base as it is, so the values agree
    "witness-empty-coordinates": (_xor_witness, lambda: _xor_witness(x_coords=())),
    "witness-empty-y-coordinates": (_xor_witness, lambda: _xor_witness(y_coords=())),
    # the y pair changes coordinate 0 as the x pair does, and coordinate 1 not at all
    "witness-overlapping-coordinates": (_xor_witness, lambda: _xor_witness(
        y_coords=(0, 1), y_base=(0, 0), y_other=(1, 0))),
    "pp-violating-tuple-in-relation": (_k2_one_not_pp, lambda: _k2_one_not_pp(
        violating_operation=IDENTITY, violating_tuple=(1,))),
    "pp-input-row-outside-relation": (_k2_one_not_pp, lambda: _k2_one_not_pp(
        violating_operation=IDENTITY, input_rows=((0,),))),
    "obstruction-that-maps": (_k2_loop_obstruction,
                              lambda: _k2_loop_obstruction(structure=helpers.graph(2, [(0, 1)]))),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_certificate_checkers_reject_corruptions(name):
    valid, corrupt = CORRUPTIONS[name]
    assert valid() and not corrupt()
