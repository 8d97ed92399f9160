import math
import random
from fractions import Fraction as Fr

import pytest

import helpers
import oracles
from oracles import SQRT2, QuadExtNumber, mix
from cspbench import (
    LinearCnf,
    check_mix_preservation,
    classify_horn,
    cnf_sat,
    conj_sat,
    horn_solve,
    linear_horn,
    make_irreducible,
    parse_cnf,
)
from cspbench.linear_horn import CnfError, LinearLiteral as L
from cspbench.structures import BudgetExceededError


def test_quadext_field_laws_random():
    rng = random.Random(101)

    def rand():
        return QuadExtNumber(Fr(rng.randint(-9, 9), rng.randint(1, 5)),
                             Fr(rng.randint(-9, 9), rng.randint(1, 5)))

    one = QuadExtNumber.of(1)
    for _ in range(1000):
        a, b, c = rand(), rand(), rand()
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        assert a - a == QuadExtNumber.of(0)
        if a != QuadExtNumber.of(0):
            assert a * (one / a) == one


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == QuadExtNumber.of(2)
    assert not SQRT2.is_rational


def test_literal_normalization():
    assert L.make({"x": 2, "y": -2}, 4) == L.make({"x": 1, "y": -1}, 2)
    assert L.make({"x": 0}, 0).is_trivial
    assert L.make({}, 0).trivially_true
    assert not L.make({}, 1).trivially_true
    assert L.make({}, 1, False).trivially_true


def test_cnf_deduplicates_clause_literals():
    f = LinearCnf([(L.make({"x": 1}, 0), L.make({"x": 2}, 0))])
    assert len(f.clauses[0]) == 1


def test_conj_sat_worked_examples():
    p = conj_sat([L.make({"x": 1, "y": 1}, 1), L.make({"x": 1, "y": -1}, 0)], [])
    assert p == {"x": Fr(1, 2), "y": Fr(1, 2)}
    assert conj_sat([L.make({"x": 1}, 1), L.make({"x": 1}, 0)], []) is None
    p2 = conj_sat([L.make({"x": 1, "y": 1}, 1)], [L.make({"x": 1, "y": -1}, 0, False)])
    assert p2 is not None and p2["x"] + p2["y"] == 1 and p2["x"] != p2["y"]


def test_conj_sat_entailed_disequality():
    assert conj_sat([L.make({"x": 1, "y": 1}, 2), L.make({"x": 1, "y": -1}, 0)],
                    [L.make({"x": 1}, 1, False)]) is None


def test_conj_sat_many_disequalities():
    neqs = [L.make({"x": 1}, k, False) for k in range(10)] + [L.make({"x": 1, "y": -1}, 0, False)]
    p = conj_sat([], neqs)
    assert p is not None
    for lit in neqs:
        assert lit.holds(p)


def test_cnf_sat_worked_examples():
    f = LinearCnf([(L.make({"x": 1, "y": -1}, 0), L.make({"u": 1, "v": -1}, 0))])
    p = cnf_sat(f)
    assert p is not None and f.holds(p)
    assert cnf_sat(LinearCnf([(L.make({"x": 1}, 0),), (L.make({"x": 1}, 0, False),)])) is None
    f3 = LinearCnf([(L.make({"x": 1}, 1), L.make({"y": 1}, 1)),
                    (L.make({"x": 1}, 1, False),), (L.make({"y": 1}, 1, False),)])
    assert cnf_sat(f3) is None


def _least_budget_is(f, n):
    """cnf_sat succeeds with budget n and raises with n - 1; returns its result."""
    with pytest.raises(BudgetExceededError):
        cnf_sat(f, budget=n - 1)
    return cnf_sat(f, budget=n)


def test_cnf_sat_budget_thresholds():
    f = parse_cnf("1*x + -1*y = 0 | 1*u + -1*v = 0\n~1*x + -1*y = 0\n~1*u + -1*v = 0")
    assert _least_budget_is(f, 5) is None
    bits = "\n".join(f"1*{v} = 0 | 1*{v} = 1" for v in "xyz")
    g = parse_cnf(bits + "\n~1*x + 1*y + 1*z = 1\n~1*x + 1*y + 1*z = 2")
    assert _least_budget_is(g, 6) == {"x": 0, "y": 0, "z": 0}
    h = parse_cnf("""
        ~2*x0 + -2*x1 = -1 | ~2*x0 + -2*x1 = 2 | -2*x1 = 0
        ~-2*x0 + 1*x1 = -1 | ~1*x0 + 2*x1 = 1 | ~-1*x0 + -2*x1 = -1
        ~1*x0 + -1*x1 = 2 | ~-1*x0 + 1*x1 = -1
        1*x1 = 0
        2*x0 + 1*x1 = 1 | 2*x0 = 2 | 2*x1 = 1
        -2*x0 + 1*x1 = 0 | -2*x0 + -2*x1 = 0
        ~-1*x0 + 2*x1 = -1 | ~-2*x0 + -2*x1 = 1 | 2*x0 = -1
    """)
    assert _least_budget_is(h, 112) is None


def test_cnf_sat_deeper_than_recursion_limit():
    # one branch level per clause, and more clauses than the interpreter's
    # recursion limit: the first literal of every clause holds at the leaf
    n = 1100
    f = parse_cnf("\n".join(f"1*x{i} = 0 | 1*x{i} = 1" for i in range(n)))
    assert cnf_sat(f, budget=n + 1) == {f"x{i}": 0 for i in range(n)}


def test_cnf_sat_matches_branching_reference_random():
    rng = random.Random(127)
    unsatisfiable = 0
    for _ in range(500):
        f = helpers.random_cnf(rng, max_vars=6, max_clauses=8)
        extra = ["w"] if rng.random() < 0.2 else []
        expected, nodes = oracles.branching_cnf_sat(f, extra_vars=extra)
        with pytest.raises(BudgetExceededError):
            cnf_sat(f, extra_vars=extra, budget=nodes - 1)
        assert cnf_sat(f, extra_vars=extra, budget=nodes) == expected
        unsatisfiable += expected is None
    assert unsatisfiable >= 25  # 32 with this seed


def _dense_rational(rng):
    return Fr(rng.randint(-9, 9), rng.randint(1, 9))


def _dense_equalities(rng, names, count):
    return [L.make({v: _dense_rational(rng) for v in names}, _dense_rational(rng))
            for _ in range(count)]


def _combination(rng, lits, shift=0, is_eq=True):
    """A rational combination of up to three of lits, its constant moved
    by shift: entailed by them when shift is 0, contradicting them when
    not (unless the coefficients cancel)."""
    coeffs, const = {}, Fr(shift)
    for lit in rng.sample(lits, min(3, len(lits))):
        k = _dense_rational(rng) or Fr(1)
        for v, c in lit.coeffs:
            coeffs[v] = coeffs.get(v, 0) + k * c
        const += k * lit.const
    return L.make(coeffs, const, is_eq)


def _assert_rows_match_reference(system, reference):
    """Every integer row is primitive with a positive pivot entry, and
    divided by that entry it is the reference's Fraction row."""
    assert len(system.rows) == len(reference.rows)
    for (vec, rhs, pivot), (fvec, frhs, fpivot) in zip(system.rows, reference.rows):
        assert pivot == fpivot and vec[pivot] > 0
        assert math.gcd(*vec, rhs) == 1
        assert [Fr(c, vec[pivot]) for c in vec] == fvec and Fr(rhs, vec[pivot]) == frhs


def test_dense_systems_match_fraction_reference():
    rng = random.Random(131)
    for n in (20, 40, 60):
        names = [f"x{i}" for i in range(n)]
        base = _dense_equalities(rng, names, rng.randint(n - 6, n - 2))
        eqs = base + [_combination(rng, base) for _ in range(3)]
        rng.shuffle(eqs)
        neqs = [L.make({v: _dense_rational(rng) for v in names}, _dense_rational(rng), False)
                for _ in range(4)]
        system, reference = linear_horn._EqSystem(names), oracles._EqSystem(names)
        for lit in eqs:
            assert system.add(lit) == reference.add(lit)
        assert not system.inconsistent and not reference.inconsistent
        _assert_rows_match_reference(system, reference)
        queries = [_combination(rng, base) for _ in range(3)]
        queries += [_combination(rng, base, shift=1) for _ in range(3)] + neqs
        assert [system.entails(q) for q in queries] == [reference.entails(q) for q in queries]
        assert all(system.entails(q) for q in queries[:3])

        point = conj_sat(eqs, neqs)
        assert point is not None and point == oracles.conj_sat(eqs, neqs)
        entailed = _combination(rng, base, is_eq=False)
        assert conj_sat(eqs, neqs + [entailed]) is None
        clash = _combination(rng, base, shift=Fr(1, 3))
        assert system.add(clash) == reference.add(clash) is False
        assert system.inconsistent and reference.inconsistent
        assert conj_sat(eqs + [clash], neqs) is None


def test_dense_cnf_budgets_match_fraction_reference():
    rng = random.Random(137)
    unsatisfiable = 0
    for _ in range(16):
        names = [f"x{i}" for i in range(rng.randint(20, 30))]
        base = _dense_equalities(rng, names, 6)
        pool = base + [_combination(rng, base, shift=rng.choice([0, 0, 1])) for _ in range(6)]
        f = LinearCnf([tuple(rng.choice(pool) if rng.random() < 0.5 else rng.choice(pool).negate()
                             for _ in range(rng.randint(1, 3)))
                       for _ in range(rng.randint(5, 9))])
        expected, nodes = oracles.branching_cnf_sat(f)
        with pytest.raises(BudgetExceededError):
            cnf_sat(f, budget=nodes - 1)
        assert cnf_sat(f, budget=nodes) == expected
        unsatisfiable += expected is None
    assert 0 < unsatisfiable < 16


def test_make_irreducible_worked_examples():
    assert make_irreducible(parse_cnf("1*x + -1*x = 0 | 1*y + -1*z = 0")).clauses == ()
    f = parse_cnf("1*x + -1*y = 0 | 1*u + -1*v = 0")
    assert make_irreducible(f) == f
    g = parse_cnf("1*x = 0\n1*x = 0 | 1*y = 0")
    assert make_irreducible(g).render() == "1*x = 0"


def test_make_irreducible_equivalence_random():
    rng = random.Random(103)
    for _ in range(30):
        f = helpers.random_cnf(rng)
        irr = make_irreducible(f)  # internal mutual-entailment check must pass
        # spot check: satisfying points transfer both ways
        p = cnf_sat(f)
        if p is not None:
            for v in irr.variables() - set(p):
                p[v] = Fr(0)
            assert irr.holds(p)


def test_classify_horn_p4_clause():
    v = classify_horn(parse_cnf("1*x + -1*y = 0 | 1*u + -1*v = 0"))
    assert not v.is_horn and v.complexity == "CSP NP-complete"
    p, q = v.witness_pair
    r1, r2 = [lit for lit in v.violating_clause if lit.is_eq][:2]
    assert r1.holds(p) and not r2.holds(p)
    assert r2.holds(q) and not r1.holds(q)
    assert v.irreducible.holds(p) and v.irreducible.holds(q)
    assert check_mix_preservation(v.irreducible, p, q) is False


def test_classify_horn_horn_examples():
    assert classify_horn(parse_cnf("~1*x = 1 | 1*y = 0")).complexity == "CSP in P"
    assert classify_horn(parse_cnf("1*x + -1*x = 0 | 1*y + -1*z = 0")).is_horn


def test_horn_solve_worked_examples():
    sat, p = horn_solve(parse_cnf("1*x = 1\n~1*x = 1 | 1*y = 2"))
    assert sat and p["x"] == 1 and p["y"] == 2
    sat2, _ = horn_solve(parse_cnf("1*x = 1\n~1*x = 1"))
    assert not sat2
    sat3, _ = horn_solve(parse_cnf("1*x + 1*y = 2\n1*x + -1*y = 0\n~1*x = 1"))
    assert not sat3


def test_horn_solve_rejects_non_horn():
    with pytest.raises(CnfError):
        horn_solve(parse_cnf("1*x = 0 | 1*y = 0"))


def test_horn_solve_agrees_with_cnf_sat():
    rng = random.Random(107)
    for _ in range(80):
        f = helpers.random_horn_cnf(rng, max_vars=5, max_clauses=5)
        sat, point = horn_solve(f)
        assert sat == (cnf_sat(f) is not None)
        if sat:
            assert f.holds(point)


def test_mix_worked_examples():
    assert mix({"a": 0, "b": 0}, {"a": 1, "b": 1}) == {"a": SQRT2, "b": SQRT2}
    p = {"x": Fr(3), "y": Fr(-2, 7)}
    assert mix(p, p) == {k: QuadExtNumber.of(v) for k, v in p.items()}
    mixed = mix({"x": Fr(0), "y": Fr(1)}, {"x": Fr(2), "y": Fr(0)})
    assert mixed["x"] == QuadExtNumber(Fr(0), Fr(2))      # 2*sqrt2
    assert mixed["y"] == QuadExtNumber(Fr(1), Fr(-1))     # 1 - sqrt2
    f = parse_cnf("1*x = 0 | 1*y = 0")
    assert check_mix_preservation(f, {"x": Fr(0), "y": Fr(1)}, {"x": Fr(2), "y": Fr(0)}) is False


def test_mix_requires_satisfying_points():
    f = parse_cnf("1*x = 0")
    with pytest.raises(ValueError):
        check_mix_preservation(f, {"x": Fr(1)}, {"x": Fr(0)})
    with pytest.raises(ValueError):
        check_mix_preservation(f, {}, {})


def test_mix_requires_points_over_the_same_variables():
    f = parse_cnf("1*x = 0")
    with pytest.raises(ValueError, match="mix requires points over the same variables"):
        check_mix_preservation(f, {"x": Fr(0)}, {"x": Fr(0), "y": Fr(1)})


def test_mix_preservation_matches_quadext_oracle():
    # check_mix_preservation decides over Q; the oracle evaluates f at the
    # mix in Q(sqrt2)
    rng = random.Random(127)
    preserved = broken = 0
    for _ in range(300):
        f = helpers.random_cnf(rng, max_vars=4, max_clauses=4, max_literals=3)
        points = [p for p in (helpers.random_satisfying_point(rng, f) for _ in range(6))
                  if p is not None]
        if not points:
            continue
        for _ in range(4):
            p, q = rng.choice(points), rng.choice(points)
            expected = oracles.holds_in_quadext(f, oracles.mix(p, q))
            assert check_mix_preservation(f, p, q) is expected
            preserved += expected
            broken += not expected
    assert preserved > 50 and broken > 50


def test_equality_literal_mixing_directions():
    rng = random.Random(109)
    tested_both = tested_one = 0
    while tested_both < 60 or tested_one < 60:
        variables = ["x", "y", "z"]
        lit = helpers.random_literal(rng, variables, force_eq=True)
        if lit.is_trivial:
            continue
        p = {v: Fr(rng.randint(-3, 3)) for v in variables}
        q = {v: Fr(rng.randint(-3, 3)) for v in variables}
        mixed = mix(p, q)
        if lit.holds(p) and lit.holds(q):
            assert oracles.literal_holds_in_quadext(lit, mixed)
            tested_both += 1
        elif lit.holds(p) != lit.holds(q):
            assert not oracles.literal_holds_in_quadext(lit, mixed)
            tested_one += 1


def test_horn_preservation_random():
    rng = random.Random(113)
    done = 0
    while done < 25:
        f = helpers.random_horn_cnf(rng, max_vars=4, max_clauses=4)
        if not classify_horn(f).is_horn:
            continue
        p = cnf_sat(f)
        if p is None:
            continue
        q = cnf_sat(f, extra_vars=p.keys())
        for point in (p, q):
            for v in set(p) | set(q) | f.variables():
                point.setdefault(v, Fr(0))
        assert check_mix_preservation(f, p, q)
        done += 1


def test_parse_cnf_round_trip_and_errors():
    f = parse_cnf("# comment\n1*x + -1/2*y = 3/4 | ~2*z = 1\n\n1*x = 0")
    assert len(f.clauses) == 2
    assert parse_cnf(f.render()) == f
    for bad in ("x = 1", "1*x == 1", "1*x = 1 | ", "1*x + = 1", "1*1x = 0",
                # rationals are ['-'] digits ['/' digits] only, within the
                # interpreter's integer-conversion digit limit
                "0.5*x = 1", "2e1*x = 1", "1_0*x = 1", "1e5000000*x = 1", "1*x = 1/0",
                "1*x = " + "7" * 5000):
        with pytest.raises(CnfError):
            parse_cnf(bad)
