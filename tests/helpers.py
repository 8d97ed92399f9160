"""Shared structure builders and seeded random generators for the tests."""

import itertools
from fractions import Fraction

from cspbench import FiniteStructure, Signature
from cspbench.formulas import And, Atom, Eq, Exists, Or
from cspbench.linear_horn import LinearCnf, LinearLiteral

GRAPH = Signature.make({"E": 2})


def graph(n, edges, symmetric=False):
    es = set(map(tuple, edges))
    if symmetric:
        es |= {(b, a) for a, b in es}
    return FiniteStructure(GRAPH, n, {"E": es})


def k2():
    return graph(2, [(0, 1)], symmetric=True)


def k3():
    return graph(3, [(0, 1), (1, 2), (0, 2)], symmetric=True)


def cycle(n, symmetric=True):
    return graph(n, [(i, (i + 1) % n) for i in range(n)], symmetric=symmetric)


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)], symmetric=True)


def loop():
    return graph(1, [(0, 0)])


def u1():
    """({0,1}; U={1})"""
    return FiniteStructure(Signature.make({"U": 1}), 2, {"U": [(1,)]})


def uv():
    """({0,1}; U={1}, V={0})"""
    return FiniteStructure(Signature.make({"U": 1, "V": 1}), 2, {"U": [(1,)], "V": [(0,)]})


def nae():
    tuples = [t for t in itertools.product(range(2), repeat=3) if t not in {(0, 0, 0), (1, 1, 1)}]
    return FiniteStructure(Signature.make({"R": 3}), 2, {"R": tuples})


def p4_tuples(n):
    return {(u, v, x, y) for u, v, x, y in itertools.product(range(n), repeat=4) if u == v or x == y}


def p4_structure(n=2, extra=None):
    """({0..n-1}; P4) optionally expanded by extra relations {name: (arity, tuples)}."""
    rels = {"P4": 4}
    data = {"P4": p4_tuples(n)}
    for name, (arity, tuples) in (extra or {}).items():
        rels[name] = arity
        data[name] = set(map(tuple, tuples))
    return FiniteStructure(Signature.make(rels), n, data)


def nested_disjunction(depth: int) -> str:
    """exists x y . E(y,x) | (E(x,y) | (...)): depth disjunctions nested
    one inside the next, and depth + 1 atom disjuncts."""
    atoms = ("E(y,x)", "E(x,y)")
    text = atoms[depth % 2]
    for i in reversed(range(depth)):
        text = f"{atoms[i % 2]} | ({text})"
    return "exists x y . " + text


def random_structure(rng, max_n=3, max_rels=2, max_arity=2, min_n=1):
    n = rng.randint(min_n, max_n)
    rels = {}
    data = {}
    for i in range(rng.randint(1, max_rels)):
        arity = rng.randint(1, max_arity)
        name = f"R{i}"
        rels[name] = arity
        density = rng.uniform(0.2, 0.9)
        data[name] = {t for t in itertools.product(range(n), repeat=arity) if rng.random() < density}
    return FiniteStructure(Signature.make(rels), n, data)


def random_nonempty_relation(rng, n, arity, max_size=None):
    pool = list(itertools.product(range(n), repeat=arity))
    size = rng.randint(1, min(len(pool), max_size or len(pool)))
    return rng.sample(pool, size)


def random_ep_sentence(rng, sig, max_vars=6, max_disjunctions=3):
    """A random ep sentence over sig with a bounded disjunction count."""
    variables = [f"v{i}" for i in range(rng.randint(2, max_vars))]
    budget = [rng.randint(0, max_disjunctions)]
    relations = list(sig.relations)

    def atom():
        if relations and rng.random() < 0.8:
            rname, ar = rng.choice(relations)
            return Atom(rname, tuple(rng.choice(variables) for _ in range(ar)))
        return Eq(rng.choice(variables), rng.choice(variables))

    def formula(depth):
        roll = rng.random()
        if depth >= 3 or roll < 0.45:
            return atom()
        if budget[0] > 0 and roll < 0.70:
            budget[0] -= 1
            return Or(tuple(formula(depth + 1) for _ in range(2)))
        return And(tuple(formula(depth + 1) for _ in range(rng.randint(2, 3))))

    parts = [formula(0) for _ in range(rng.randint(1, 3))]
    body = parts[0] if len(parts) == 1 else And(tuple(parts))
    return Exists(tuple(variables), body)


def random_pp_sentence(rng, sig, max_vars=4):
    return random_ep_sentence(rng, sig, max_vars=max_vars, max_disjunctions=0)


# -- linear CNF generators --


def random_literal(rng, variables, force_eq=None):
    coeffs = {}
    for v in rng.sample(variables, rng.randint(1, min(3, len(variables)))):
        c = rng.choice([-2, -1, 1, 2])
        coeffs[v] = Fraction(c)
    const = Fraction(rng.randint(-2, 2))
    is_eq = rng.random() < 0.5 if force_eq is None else force_eq
    return LinearLiteral.make(coeffs, const, is_eq)


def random_cnf(rng, max_vars=5, max_clauses=4, max_literals=3):
    variables = [f"x{i}" for i in range(rng.randint(2, max_vars))]
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        clauses.append(tuple(random_literal(rng, variables)
                             for _ in range(rng.randint(1, max_literals))))
    return LinearCnf(clauses)


def random_horn_cnf(rng, max_vars=6, max_clauses=8, max_literals=3):
    variables = [f"x{i}" for i in range(rng.randint(2, max_vars))]
    clauses = []
    for _ in range(rng.randint(1, max_clauses)):
        size = rng.randint(1, max_literals)
        n_eq = rng.choice([0, 1]) if size > 1 else rng.choice([0, 1])
        lits = [random_literal(rng, variables, force_eq=True) for _ in range(n_eq)]
        lits += [random_literal(rng, variables, force_eq=False) for _ in range(size - n_eq)]
        clauses.append(tuple(lits))
    return LinearCnf(clauses)


def random_satisfying_point(rng, f, tries=40):
    """A satisfying rational point of a CNF, varied by pinning variables to
    random small values; None when the sampler gives up."""
    from cspbench.linear_horn import conj_sat

    variables = sorted(f.variables())
    if any(not clause for clause in f.clauses):
        return None  # an empty clause is unsatisfiable
    for _ in range(tries):
        eqs, neqs = [], []
        for clause in f.clauses:
            lit = rng.choice(clause)
            (eqs if lit.is_eq else neqs).append(lit)
        pins = [LinearLiteral.make({v: 1}, Fraction(rng.randint(-4, 4)))
                for v in variables if rng.random() < 0.6]
        for attempt in (eqs + pins, eqs):
            point = conj_sat(attempt, neqs, extra_vars=variables)
            if point is not None and f.holds(point):
                return point
    return None
