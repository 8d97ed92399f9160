"""Independent brute-force oracles.

Everything here is deliberately written against the definitions, not
against the library's search machinery: maps are enumerated exhaustively
with itertools.product and checked by direct preservation tests, truth is
decided by assignment enumeration, and pp-definable relation families are
generated by closing under the relational constructions (permutation,
identification, projection, product, intersection) rather than by the
indicator construction the library uses.
"""

import itertools

from cspbench.formulas import And, Atom, Eq, Exists, Falsum, Or


def all_maps(n_source, n_target):
    return itertools.product(range(n_target), repeat=n_source)


def is_hom_map(a, b, h):
    for rname, _ in a.sig.relations:
        for t in a.rel[rname]:
            if tuple(h[x] for x in t) not in b.rel[rname]:
                return False
    return all(h[a.const[c]] == b.const[c] for c in a.const)


def brute_homs(a, b):
    """All homomorphism maps a -> b by filtering every function."""
    return [h for h in all_maps(a.n, b.n) if is_hom_map(a, b, h)]


def op_preserves(table, k, a):
    """Does the k-ary operation given by a flat row-major table preserve a?
    Direct column-wise check over all combinations of relation rows."""
    n = a.n

    def apply(args):
        idx = 0
        for v in args:
            idx = idx * n + v
        return table[idx]

    for rname, ar in a.sig.relations:
        rows = sorted(a.rel[rname])
        for choice in itertools.product(rows, repeat=k):
            image = tuple(apply(tuple(choice[j][p] for j in range(k))) for p in range(ar))
            if image not in a.rel[rname]:
                return False
    return all(apply((v,) * k) == v for v in a.const.values())


def brute_polymorphisms(a, k):
    """All k-ary polymorphism tables by filtering all n**(n**k) tables."""
    n = a.n
    out = []
    for table in itertools.product(range(n), repeat=n ** k):
        if op_preserves(table, k, a):
            out.append(table)
    return out


def brute_evaluate(a, phi, env=None):
    """Tarskian truth by direct recursion and assignment enumeration."""
    env = dict(env or {})

    def term(name, e):
        if name in a.const:
            return a.const[name]
        return e[name]

    def rec(node, e):
        if isinstance(node, Atom):
            return tuple(term(x, e) for x in node.args) in a.rel[node.rel]
        if isinstance(node, Eq):
            return term(node.left, e) == term(node.right, e)
        if isinstance(node, And):
            return all(rec(p, e) for p in node.parts)
        if isinstance(node, Or):
            return any(rec(p, e) for p in node.parts)
        if isinstance(node, Falsum):
            return False
        if isinstance(node, Exists):
            return any(
                rec(node.body, {**e, **dict(zip(node.vars, vals))})
                for vals in itertools.product(range(a.n), repeat=len(node.vars))
            )
        raise TypeError(node)

    return rec(phi, env)


def essential_coordinate_count(table, n, k):
    """Number of coordinates the operation really depends on."""

    def apply(args):
        idx = 0
        for v in args:
            idx = idx * n + v
        return table[idx]

    essential = 0
    for i in range(k):
        depends = False
        for t in itertools.product(range(n), repeat=k):
            for v in range(n):
                if v != t[i] and apply(t[:i] + (v,) + t[i + 1:]) != apply(t):
                    depends = True
                    break
            if depends:
                break
        essential += depends
    return essential


def brute_pointed_hom(a, s, t):
    """Is there an endomorphism of a sending the tuple s to the tuple t?"""
    for h in all_maps(a.n, a.n):
        if all(h[x] == y for x, y in zip(s, t)) and is_hom_map(a, a, h):
            return True
    return False


# -- pp-definable relation generation on the 2-element domain --
#
# Relations of arity m over {0, 1} are bitmasks over 2**m row-major tuple
# indices.  The family generated from the structure's relations and the
# equality relation by column permutation, column identification,
# projection, product and intersection, together with the empty relation
# (definable by the pp formula false), is exactly the pp-definable family;
# arities are capped, which can only under-generate, and the acceptance
# cross-check against the library guards the cap.


def _encode(t):
    idx = 0
    for v in t:
        idx = idx * 2 + v
    return idx


def _tuples(m):
    return list(itertools.product(range(2), repeat=m))


def _mask(m, tuples):
    out = 0
    for t in tuples:
        out |= 1 << _encode(t)
    return out


def _mask_tuples(m, mask):
    return [t for t in _tuples(m) if mask >> _encode(t) & 1]


def generate_pp_definable(a, max_arity=4):
    """All pp-definable relations of arity <= max_arity over a 2-element
    structure, as {arity: set of bitmasks}; closure to a fixed point."""
    assert a.n == 2 and not a.const
    families = {m: set() for m in range(1, max_arity + 1)}
    work = []

    def add(m, mask):
        if m <= max_arity and mask not in families[m]:
            families[m].add(mask)
            work.append((m, mask))

    for m in range(1, max_arity + 1):
        add(m, 0)  # the pp formula false
    add(2, _mask(2, [(0, 0), (1, 1)]))  # equality
    for rname, ar in a.sig.relations:
        add(ar, _mask(ar, a.rel[rname]))

    while work:
        m, mask = work.pop()
        tuples = _mask_tuples(m, mask)
        # column permutations
        for perm in itertools.permutations(range(m)):
            add(m, _mask(m, [tuple(t[p] for p in perm) for t in tuples]))
        if m > 1:
            # identification of two columns, dropping the second
            for i, j in itertools.combinations(range(m), 2):
                kept = [t[:j] + t[j + 1:] for t in tuples if t[i] == t[j]]
                add(m - 1, _mask(m - 1, kept))
            # projection (drop a column)
            for j in range(m):
                add(m - 1, _mask(m - 1, [t[:j] + t[j + 1:] for t in tuples]))
        # intersections with everything of the same arity
        for other in list(families[m]):
            add(m, mask & other)
        # products with everything small enough
        for m2 in range(1, max_arity - m + 1):
            for other in list(families[m2]):
                prod = 0
                for idx2 in range(1 << m2):
                    if other >> idx2 & 1:
                        for idx1 in range(1 << m):
                            if mask >> idx1 & 1:
                                prod |= 1 << (idx1 << m2 | idx2)
                add(m + m2, prod)
    return families


def pp_definable_masks(a, arity, max_arity=4):
    return generate_pp_definable(a, max_arity)[arity]


def relation_mask(tuples):
    m = len(next(iter(tuples))) if tuples else None
    assert m is not None
    return _mask(m, tuples)


# -- complete satisfiability of linear CNFs --


def branching_cnf_sat(f, extra_vars=()):
    """Reference for linear_horn.cnf_sat: the same search tree (clauses
    shortest first, literals in clause order), with every node decided
    from scratch by conj_sat on the literals of its whole path.  Returns
    (witness point or None, number of nodes visited); a search with budget
    b raises exactly when b is less than that number."""
    from cspbench.linear_horn import conj_sat

    clauses = sorted(f.clauses, key=len)
    variables = set(f.variables()) | set(extra_vars)
    steps = 0

    def branch(i, eqs, neqs):
        nonlocal steps
        steps += 1
        point = conj_sat(eqs, neqs, extra_vars=variables)
        if point is None or i == len(clauses):
            return point
        for lit in clauses[i]:
            if lit.is_eq:
                chosen = branch(i + 1, eqs + [lit], neqs)
            else:
                chosen = branch(i + 1, eqs, neqs + [lit])
            if chosen is not None:
                return chosen
        return None

    return branch(0, [], []), steps
