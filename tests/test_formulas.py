import itertools
import pathlib
import random

import pytest

import helpers
import oracles
from cspbench import BudgetExceededError, FiniteStructure, Signature, find_homomorphism, is_isomorphic
from cspbench.formulas import (
    FALSE,
    And,
    Atom,
    Eq,
    Exists,
    FormulaError,
    Or,
    TriviallyFalseError,
    MAX_NESTING,
    _FreshNames,
    _is_p4_interpretation,
    _rename,
    _tokenize,
    _walk,
    canonical_query,
    canonical_structure,
    eliminate_disjunctions,
    evaluate,
    free_variables,
    is_locally_refutable,
    is_pp,
    local_refutation_value,
    parse_sentence,
    render,
    witness_assignment,
)


def test_parse_examples():
    phi = parse_sentence("exists x y . E(x,y) & (x=y | u=v)")
    assert phi == Exists(("x", "y"), And((Atom("E", ("x", "y")),
                                          Or((Eq("x", "y"), Eq("u", "v"))))))
    assert parse_sentence("false") == FALSE
    assert parse_sentence("exists x . x = x # trailing comment") == Exists(("x",), Eq("x", "x"))


def test_parse_precedence():
    phi = parse_sentence("exists x y z . E(x,y) & E(y,z) | x = z")
    assert isinstance(phi.body, Or)
    assert isinstance(phi.body.parts[0], And)


def test_parse_rejects_universals_and_negation():
    for bad in ("forall x . E(x,x)", "exists x . not E(x,x)", "exists x . !E(x,x)",
                "exists x . ~E(x,x)", "exists . E(x,x)", "exists x , E(x,x)"):
        with pytest.raises(FormulaError):
            parse_sentence(bad)


def _outcome(fn, *args):
    """fn's result, or the text of the FormulaError it raised."""
    try:
        return "ok", fn(*args)
    except FormulaError as exc:
        return "error", str(exc)


# Pieces of random tokenizer input.  A bad piece is an error unless a comment
# hides it or a word before it absorbs it.
_BAD_PIECES = ("~", "!", "\v", "-", ";", "0", "²", "forall", "not")
_GOOD_PIECES = ("exists", "false", "x", "E", "v1", "_", "é", "#", " ", "\t", "\n", "\r",
                "(", ")", "&", "|", "=", ".", ",")


def test_tokenizer_matches_reference():
    rng = random.Random(41)
    pieces = _BAD_PIECES + _GOOD_PIECES
    weights = [1] * len(_BAD_PIECES) + [4] * len(_GOOD_PIECES)
    outcomes = set()
    for _ in range(100_000):
        text = "".join(rng.choices(pieces, weights, k=rng.randint(0, 12)))
        got = _outcome(_tokenize, text)
        assert got == _outcome(oracles._tokenize, text), text
        outcomes.add(got[0])
    assert outcomes == {"ok", "error"}


def _structure_with_constants(rng):
    """A random structure with up to two constants and some relations emptied."""
    a = helpers.random_structure(rng, max_n=3, max_rels=3, max_arity=3)
    consts = rng.sample(["c", "d"], rng.randint(0, 2))
    relations = {r: () if rng.random() < 0.3 else a.rel[r] for r, _ in a.sig.relations}
    return FiniteStructure(Signature.make(dict(a.sig.relations), constants=consts), a.n,
                           relations, {c: rng.randrange(a.n) for c in consts})


def _decorated_sentence(rng, sig):
    """A random ep sentence with constants in term positions, false
    branches, nested (shadowing) quantifiers and, rarely, a quantified
    constant, which is an error."""
    phi = helpers.random_ep_sentence(rng, sig, max_vars=5)
    constants = list(sig.constants)

    def term(x):
        return rng.choice(constants) if constants and rng.random() < 0.2 else x

    def walk(node):
        if isinstance(node, Atom):
            node = Atom(node.rel, tuple(term(x) for x in node.args))
        elif isinstance(node, Eq):
            node = Eq(term(node.left), term(node.right))
        else:
            node = type(node)(tuple(walk(p) for p in node.parts))
        roll = rng.random()
        if roll < 0.1:
            return Or((node, FALSE))
        if roll < 0.3:
            return Exists(tuple(rng.sample(phi.vars, rng.randint(1, 2))), node)
        if roll < 0.31 and constants:
            return Exists((constants[0],), node)
        return node

    return Exists(phi.vars, walk(phi.body))


def test_renaming_and_local_refutation_match_reference():
    rng = random.Random(43)
    values = set()
    for _ in range(2000):
        a = _structure_with_constants(rng)
        phi = _decorated_sentence(rng, a.sig)
        for psi in (phi, phi.body):
            got = _outcome(local_refutation_value, a, psi)
            assert got == _outcome(oracles.local_refutation_value, a, psi)
            values.add(got)
            names = sorted(_walk(psi).names)
            mapping = {x: rng.choice(["u", "w", x + "_"])
                       for x in rng.sample(names, rng.randint(0, len(names)))}
            assert _rename(psi, mapping) == oracles.substitute(psi, mapping)
        taken = _walk(phi).names | set(a.sig.constants)
        new, old = _FreshNames(taken), _FreshNames(taken)
        assert _rename(phi, {}, new) == oracles.rename_bound_apart(phi, old)
        assert new.counter == old.counter
    assert {("ok", True), ("ok", False)} <= values
    assert any(kind == "error" for kind, _ in values)


def _faulty_sentence(rng, sig):
    """A decorated sentence into which, now and then, an atom over an
    unknown relation or with the wrong arity is spliced, before or after
    the rest, so that many sentences carry two faults."""
    phi = _decorated_sentence(rng, sig)
    roll = rng.random()
    if roll < 0.4:
        rname, ar = rng.choice(sig.relations)
        bad = rng.choice([Atom("Z", phi.vars[:1]), Atom(rname, (phi.vars[0],) * (ar + 1))])
        parts = (bad, phi.body) if roll < 0.2 else (phi.body, bad)
        phi = Exists(phi.vars, And(parts))
    return phi


def _reference_symbol_error(phi, sig):
    return _outcome(oracles._validate_symbols, phi, sig)[1]


def _reference_clean(phi):
    """No name quantified by two blocks, none both quantified and free."""
    blocks = [set(node.vars) for node in oracles._subformulas(phi) if isinstance(node, Exists)]
    quantified = set().union(*blocks)
    return sum(map(len, blocks)) == len(quantified) and not quantified & oracles.free_names(phi)


def test_single_walk_matches_reference_walkers():
    rng = random.Random(47)
    canonical = set()
    for _ in range(1500):
        a = _structure_with_constants(rng)
        phi = _faulty_sentence(rng, a.sig)
        for psi in (phi, phi.body):
            walk = _walk(psi, a.sig)
            preorder = list(oracles._subformulas(psi))
            assert walk.atoms == [node for node in preorder if isinstance(node, Atom)]
            assert walk.equalities == [node for node in preorder if isinstance(node, Eq)]
            assert walk.names == oracles.names_in(psi)
            assert walk.free == oracles.free_names(psi)
            assert free_variables(psi, a.sig) == oracles.free_variables(psi, a.sig)
            assert walk.disjunctive == (not is_pp(psi)) == (not oracles.is_pp(psi))
            assert walk.false == oracles._contains_falsum(psi)
            assert walk.symbol_error == _reference_symbol_error(psi, a.sig)
            assert _walk(psi).symbol_error is None
            assert walk.clean == _reference_clean(psi)
            got = _outcome(canonical_structure, psi, a.sig)
            if walk.clean:
                # the reference identifies every binding of a name
                assert got == _outcome(oracles.canonical_structure, psi, a.sig)
            else:
                assert _outcome(oracles.canonical_structure, psi, a.sig)[0] == got[0]
            canonical.add((walk.clean, got[0] if got[0] == "ok" else got[1].split(":")[0]))
    assert {(True, "ok"), (False, "ok"), (True, "unknown relation symbol 'Z'"),
            (True, "arity mismatch"),
            (True, "canonical database is defined for pp formulas only")} <= canonical


def test_evaluation_error_precedence_matches_reference():
    """evaluate and witness_assignment raise a symbol fault first, then an
    unbound free variable; canonical_structure raises a disjunction, then
    false, then a symbol fault."""
    rng = random.Random(53)
    kinds = set()
    for _ in range(600):
        a = _structure_with_constants(rng)
        phi = _faulty_sentence(rng, a.sig)
        for psi in (phi, phi.body):
            want = _reference_symbol_error(psi, a.sig)
            free = oracles.free_variables(psi, a.sig)
            if want is None and free:
                want = f"unbound free variables: {sorted(free)}"
            truth = oracles.brute_evaluate(a, psi) if want is None else None
            assert _outcome(evaluate, a, psi) == (("error", want) if want else ("ok", truth))
            witness = _outcome(witness_assignment, a, psi)
            assert witness[0] == ("error" if want else "ok")
            assert witness[1] == want if want else (witness[1] is not None) == truth
            kinds.add(want.split(":")[0] if want else (_walk(psi).clean, truth))
    assert {(True, True), (True, False), (False, True), (False, False),
            "unknown relation symbol 'Z'", "arity mismatch", "unbound free variables"} <= kinds
    graph = helpers.GRAPH
    two_faults = {
        Or((Atom("Z", ("x",)), FALSE)): "canonical database is defined for pp formulas only",
        And((FALSE, Atom("E", ("x",)))): "formula contains false: trivially false instance",
        Exists(("x",), And((Atom("E", ("x", "x", "x")), Atom("Z", ("x",))))):
            "arity mismatch: E expects 2 arguments, got 3",
    }
    for psi, message in two_faults.items():
        assert _outcome(canonical_structure, psi, graph) == ("error", message)
        assert _outcome(oracles.canonical_structure, psi, graph) == ("error", message)
        assert _outcome(evaluate, helpers.k2(), psi)[1] == _reference_symbol_error(psi, graph)


def test_ep_decisions_match_brute_force():
    """evaluate, witness_assignment and local_refutation_value against the
    brute-force oracles on decorated ep sentences, some listing a name
    twice in their outermost block or conjoining false to a disjunct, and
    evaluate on their bodies under random assignments."""
    rng = random.Random(61)
    kinds = set()
    for _ in range(500):
        a = _structure_with_constants(rng)
        phi = _decorated_sentence(rng, a.sig)
        block, body = list(phi.vars), phi.body
        if rng.random() < 0.3:
            block.insert(rng.randrange(len(block) + 1), rng.choice(block))
        if rng.random() < 0.1:
            body = Or((And((body, FALSE)), body))
        phi = Exists(tuple(block), body)
        fault = _reference_symbol_error(phi, a.sig)
        truth = None if fault else oracles.brute_evaluate(a, phi)
        assert _outcome(evaluate, a, phi) == (("error", fault) if fault else ("ok", truth))
        witness = _outcome(witness_assignment, a, phi)
        if fault or not is_pp(phi):
            assert witness == (("error", fault) if fault else ("ok", oracles.brute_witness(a, phi)))
        else:  # a pp witness reports every variable
            assert (witness[1] is not None) == truth
        assert _outcome(local_refutation_value, a, phi) == \
            _outcome(oracles.local_refutation_value, a, phi)
        env = {v: rng.randrange(a.n) for v in block}
        fault = _reference_symbol_error(body, a.sig)
        assert _outcome(evaluate, a, body, env) == \
            (("error", fault) if fault else ("ok", oracles.brute_evaluate(a, body, env)))
        kinds.add((is_pp(phi), len(set(block)) < len(block), truth))
    assert {(p, r, t) for p in (True, False) for r in (True, False) for t in (True, False)} <= kinds


def _pp_formula(rng, sig):
    """A random pp formula with constants in term positions, false
    conjoined now and then, nested (shadowing) quantifiers, and some
    variables left free."""
    phi = helpers.random_pp_sentence(rng, sig, max_vars=5)
    constants = list(sig.constants)

    def term(x):
        return rng.choice(constants) if constants and rng.random() < 0.2 else x

    def walk(node):
        if isinstance(node, Atom):
            node = Atom(node.rel, tuple(term(x) for x in node.args))
        elif isinstance(node, Eq):
            node = Eq(term(node.left), term(node.right))
        else:
            node = And(tuple(walk(p) for p in node.parts))
        roll = rng.random()
        if roll < 0.04:
            return And((node, FALSE))
        if roll < 0.25:
            return Exists(tuple(rng.sample(phi.vars, rng.randint(1, 2))), node)
        return node

    bound = tuple(v for v in phi.vars if rng.random() < 0.8)
    body = walk(phi.body)
    return Exists(bound, body) if bound else body


def _by_budget(fn, *args):
    """fn(*args, budget) as a function of budget: ("ok", its result) or
    ("overrun", the message)."""
    def run(budget):
        try:
            return "ok", fn(*args, budget)
        except BudgetExceededError as exc:
            return "overrun", str(exc)

    return run


def _least_budget(run):
    """The least budget of at least 1 under which run does not overrun.
    A search overruns exactly the budgets below the steps it takes, so the
    overruns are the budgets below this one, found by bisection."""
    high = 1
    while run(high)[0] == "overrun":
        high *= 2
    low = high // 2  # overruns, unless 0
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if run(mid)[0] == "overrun" else (low, mid)
    return high


def test_pp_decisions_match_the_separate_pp_path():
    """A pp formula is the one branch of the ep search: evaluate and
    witness_assignment give the value, the witness and the budget overruns
    of the separate pp path they replaced (oracles.pp_evaluate and
    oracles.pp_witness), on clean and unclean formulas with constants,
    false and free variables under random assignments."""
    rng = random.Random(67)
    kinds, decorations = set(), set()
    for _ in range(300):
        a = _structure_with_constants(rng)
        phi = _pp_formula(rng, a.sig)
        free = sorted(free_variables(phi, a.sig))
        env = {v: rng.randrange(a.n) for v in free}
        sentence = Exists(tuple(free), phi) if free else phi
        thresholds = []
        for new, old, args in [(evaluate, oracles.pp_evaluate, (a, phi, env)),
                               (witness_assignment, oracles.pp_witness, (a, sentence))]:
            new, old = _by_budget(new, *args), _by_budget(old, *args)
            budget = _least_budget(old)
            assert new(budget) == old(budget)
            if budget > 1:
                assert new(budget - 1) == old(budget - 1)
            thresholds.append(budget)
        walk = _walk(phi)
        kinds.add((walk.clean, evaluate(a, phi, env)))
        decorations.update(name for name, seen in [("false", walk.false), ("free", free),
                                                   ("constant", walk.names & set(a.sig.constants)),
                                                   ("overrun", max(thresholds) > 1)] if seen)
    assert kinds == set(itertools.product((True, False), repeat=2))
    assert decorations == {"false", "free", "constant", "overrun"}


def test_ep_witness_takes_the_last_place_of_a_repeated_block_name():
    # the block (z, y, z) binds the body's z at its last place, so the
    # least assignment orders y before z: y = 0, z = 1, not z = 0, y = 1
    k2, uv = helpers.k2(), helpers.uv()
    cases = [(k2, "exists z y z . E(y, z) & (E(z, y) | y = z)", {"z": 1, "y": 0}),
             (uv, "exists y y . U(y) | U(y) & V(y)", {"y": 1}),
             (uv, "exists y y . V(y) & U(y) | false", None)]
    for a, text, want in cases:
        phi = parse_sentence(text)
        assert witness_assignment(a, phi) == oracles.brute_witness(a, phi) == want
        assert evaluate(a, phi) == (want is not None)


def test_rebound_names_are_separate_variables():
    uv, k2 = helpers.uv(), helpers.k2()
    siblings = parse_sentence("(exists x . U(x)) & (exists x . V(x))")
    assert evaluate(uv, siblings) and witness_assignment(uv, siblings) == {"x": 1}
    shadowed = parse_sentence("exists x y . E(x, y) & (exists y . x = y)")
    assert evaluate(k2, shadowed)
    assert witness_assignment(k2, shadowed) == {"x": 0, "y": 1}
    bound_and_free = parse_sentence("U(x) & (exists x . V(x))")
    assert [evaluate(uv, bound_and_free, {"x": v}) for v in (0, 1)] == [False, True]
    db, elem = canonical_structure(shadowed, k2.sig)
    # the inner y is a variable of its own, merged with x
    assert db.n == 2 and len(elem) == 3 and elem["x"] != elem["y"]


def test_render_round_trip():
    rng = random.Random(3)
    sig = helpers.GRAPH
    for _ in range(40):
        phi = helpers.random_ep_sentence(rng, sig)
        assert parse_sentence(render(phi)) == phi
    assert render(FALSE) == "false"


def test_walk_depth_is_the_parenthesis_depth_of_render():
    # grouping parentheses are those that do not open an atom's arguments
    rng = random.Random(1603)
    for _ in range(200):
        phi = helpers.random_ep_sentence(rng, helpers.GRAPH, max_vars=3)
        for _ in range(rng.randint(0, 3)):
            other = helpers.random_ep_sentence(rng, helpers.GRAPH, max_vars=3)
            phi = rng.choice([And, Or])(rng.sample([phi, other.body, other], 2))
        tokens = [("start",)] + _tokenize(render(phi))
        groups, deepest = [], 0  # groups: for each open parenthesis, whether it groups
        for prev, tok in zip(tokens, tokens[1:]):
            if tok[0] == "(":
                groups.append(prev[0] != "name")
                deepest = max(deepest, sum(groups))
            elif tok[0] == ")":
                groups.pop()
        assert _walk(phi).depth == deepest


def test_evaluate_trivial_examples():
    k2 = helpers.k2()
    assert evaluate(k2, parse_sentence("exists x y . E(x,y)"))
    assert not evaluate(k2, parse_sentence("exists x . E(x,x)"))
    u = helpers.u1()
    assert evaluate(u, parse_sentence("exists x y . U(x) & x = y"))


def test_evaluate_matches_brute_force():
    rng = random.Random(7)
    checked = 0
    while checked < 120:
        a = helpers.random_structure(rng, max_n=3)
        phi = helpers.random_ep_sentence(rng, a.sig, max_vars=4)
        assert evaluate(a, phi) == oracles.brute_evaluate(a, phi)
        checked += 1


def test_evaluate_pp_matches_brute_force():
    rng = random.Random(9)
    for _ in range(60):
        a = helpers.random_structure(rng, max_n=3)
        phi = helpers.random_pp_sentence(rng, a.sig)
        assert is_pp(phi)
        assert evaluate(a, phi) == oracles.brute_evaluate(a, phi)


def test_evaluate_free_variables():
    u = helpers.u1()
    phi = Atom("U", ("x",))
    assert evaluate(u, phi, {"x": 1})
    assert not evaluate(u, phi, {"x": 0})
    with pytest.raises(FormulaError):
        evaluate(u, phi)
    with pytest.raises(FormulaError):
        evaluate(u, phi, {"x": 5})
    # x = y merges two free variables into one element: unequal values fail
    merged = parse_sentence("exists z . E(x, z) & x = y")
    k3 = helpers.k3()
    assert evaluate(k3, merged, {"x": 1, "y": 1})
    assert not evaluate(k3, merged, {"x": 0, "y": 1})


def test_assignment_values_reject_booleans():
    with pytest.raises(FormulaError, match="outside the domain"):
        evaluate(helpers.u1(), Atom("U", ("x",)), {"x": True})


def test_evaluate_errors():
    k2 = helpers.k2()
    with pytest.raises(FormulaError):
        evaluate(k2, Atom("F", ("x", "y")), {"x": 0, "y": 0})
    with pytest.raises(FormulaError):
        evaluate(k2, Atom("E", ("x",)), {"x": 0})


def test_evaluate_with_constants():
    sig = Signature.make({"E": 2}, constants=["c"])
    a = FiniteStructure(sig, 2, {"E": [(0, 1)]}, {"c": 1})
    assert evaluate(a, parse_sentence("exists x . E(x, c)"))
    assert not evaluate(a, parse_sentence("exists x . E(c, x)"))
    assert evaluate(a, parse_sentence("exists x . x = c & x = x"))


def test_pp_sentences_transfer_to_products():
    # a pp sentence holds in a product iff it holds in both factors
    from cspbench import product

    rng = random.Random(19)
    checked = 0
    while checked < 40:
        a = helpers.random_structure(rng, max_n=3, max_rels=1)
        b = helpers.random_structure(rng, max_n=3, max_rels=1)
        if a.sig != b.sig:
            continue
        phi = helpers.random_pp_sentence(rng, a.sig)
        both = evaluate(a, phi) and evaluate(b, phi)
        assert both == evaluate(product(a, b), phi)
        checked += 1


def test_canonical_query_single_edge():
    e = helpers.graph(2, [(0, 1)])
    assert render(canonical_query(e)) == "exists x0 x1 . E(x0, x1)"


def test_canonical_query_isolated_element():
    s = FiniteStructure(helpers.GRAPH, 1, {"E": []})
    assert render(canonical_query(s)) == "exists x0 . x0 = x0"


def test_canonical_query_decides_hom():
    rng = random.Random(21)
    pairs = 0
    while pairs < 30:
        a = helpers.random_structure(rng, max_n=3)
        b = helpers.random_structure(rng, max_n=3)
        if a.sig != b.sig:
            continue
        assert evaluate(b, canonical_query(a)) == (find_homomorphism(a, b) is not None)
        pairs += 1


def test_canonical_query_constants():
    sig = Signature.make({"E": 2}, constants=["c"])
    a = FiniteStructure(sig, 2, {"E": [(0, 1)]}, {"c": 0})
    b_good = FiniteStructure(sig, 2, {"E": [(0, 1)]}, {"c": 0})
    b_bad = FiniteStructure(sig, 2, {"E": [(0, 1)]}, {"c": 1})
    assert evaluate(b_good, canonical_query(a))
    assert not evaluate(b_bad, canonical_query(a))


def test_canonical_structure_examples():
    sig = helpers.GRAPH
    db, elem = canonical_structure(parse_sentence("exists x y . E(x,y) & x = y"), sig)
    assert db.n == 1 and db.rel["E"] == frozenset({(0, 0)})
    db2, elem2 = canonical_structure(parse_sentence("exists x y z . E(x,y) & E(y,z)"), sig)
    assert db2.n == 3 and len(db2.rel["E"]) == 2
    assert elem2["x"] != elem2["z"]


def test_canonical_structure_round_trip():
    rng = random.Random(23)
    count = 0
    while count < 20:
        a = helpers.random_structure(rng, max_n=3)
        # loop-free in the general sense: skip structures with repeated
        # entries in some tuple, which the canonical query cannot separate
        if any(len(set(t)) < len(t) for r, _ in a.sig.relations for t in a.rel[r]):
            continue
        db, _ = canonical_structure(canonical_query(a), a.sig)
        assert is_isomorphic(db, a)
        count += 1


def test_canonical_structure_rejects_falsum_and_or():
    with pytest.raises(TriviallyFalseError):
        canonical_structure(FALSE, helpers.GRAPH)
    with pytest.raises(FormulaError):
        canonical_structure(parse_sentence("exists x y . E(x,y) | x = y"), helpers.GRAPH)


def test_local_refutation_value_examples():
    empty = FiniteStructure(helpers.GRAPH, 2, {"E": []})
    assert not local_refutation_value(empty, parse_sentence("exists x y . E(x,y)"))
    k3 = helpers.k3()
    phi = parse_sentence("exists x . E(x,x)")
    assert local_refutation_value(k3, phi) and not evaluate(k3, phi)
    assert local_refutation_value(empty, parse_sentence("exists x . x = x"))


def test_ep_truth_implies_emptiness_value():
    rng = random.Random(29)
    for _ in range(60):
        a = helpers.random_structure(rng, max_n=3)
        phi = helpers.random_ep_sentence(rng, a.sig, max_vars=4)
        if evaluate(a, phi):
            assert local_refutation_value(a, phi)


def test_is_locally_refutable_examples():
    full_u = FiniteStructure(Signature.make({"U": 1}), 2, {"U": [(0,), (1,)]})
    verdict, cert = is_locally_refutable(full_u)
    assert verdict and cert == 0

    verdict, cert = is_locally_refutable(helpers.k3())
    assert not verdict
    assert render(cert) == "exists x0 . E(x0, x0)"
    assert local_refutation_value(helpers.k3(), cert) and not evaluate(helpers.k3(), cert)

    all_empty = FiniteStructure(Signature.make({"E": 2, "U": 1}), 3, {})
    verdict, cert = is_locally_refutable(all_empty)
    assert verdict and cert == 0


def test_is_locally_refutable_agrees_with_sentence_oracle():
    # every ep sentence with a true emptiness value must hold; probe with
    # random sentences on random structures
    rng = random.Random(31)
    for _ in range(25):
        a = helpers.random_structure(rng, max_n=3)
        verdict, _ = is_locally_refutable(a)
        if not verdict:
            continue
        for _ in range(20):
            phi = helpers.random_ep_sentence(rng, a.sig, max_vars=3)
            if local_refutation_value(a, phi):
                assert evaluate(a, phi)


def test_is_locally_refutable_constants():
    sig = Signature.make({"U": 1}, constants=["c"])
    good = FiniteStructure(sig, 2, {"U": [(0,), (1,)]}, {"c": 0})
    assert is_locally_refutable(good)[0]
    # the diagonal element must equal the constant
    u_only_1 = FiniteStructure(sig, 2, {"U": [(1,)]}, {"c": 0})
    assert not is_locally_refutable(u_only_1)[0]


def _refutability_case(rng):
    """A random structure with 0-3 relations of arity 1-3, some of them
    empty, and 0-2 constants."""
    n = rng.randint(1, 4)
    arities = {f"R{i}": rng.randint(1, 3) for i in range(rng.randint(0, 3))}
    constants = [f"c{i}" for i in range(rng.randint(0, 2))]
    relations = {}
    for rname, ar in arities.items():
        density = rng.choice([0.0, 0.1, 0.5, 0.9])
        relations[rname] = [t for t in itertools.product(range(n), repeat=ar)
                            if rng.random() < density]
    return FiniteStructure(Signature.make(arities, constants=constants), n, relations,
                           {c: rng.randrange(n) for c in constants})


def test_is_locally_refutable_matches_reference():
    # the loop sets of one pass over the relations give the element-by-element
    # verdict and the same certificate, rendered
    rng = random.Random(1601)
    negative = 0
    for _ in range(4000):
        a = _refutability_case(rng)
        verdict, cert = is_locally_refutable(a)
        want_verdict, want_cert = oracles.is_locally_refutable(a)
        assert verdict == want_verdict
        if verdict:
            assert cert == want_cert
        else:
            assert render(cert) == render(want_cert)
            negative += 1
    assert 1000 < negative < 3000


def test_is_locally_refutable_at_scale():
    # one edge over 10**6 elements: the loop set is read off the one tuple
    import time

    a = FiniteStructure(helpers.GRAPH, 10 ** 6, {"E": [(0, 1)]})
    start = time.perf_counter()
    verdict, cert = is_locally_refutable(a)
    assert time.perf_counter() - start < 1.0
    assert (verdict, render(cert)) == (False, "exists x0 . E(x0, x0)")


def test_p4_check_matches_reference():
    # the exact P4 relation, one tuple missing, one extra, or one swapped for
    # a tuple outside it (the count stays right), and misnamed or misshapen
    rng = random.Random(1602)
    positive = 0
    for _ in range(3000):
        n = rng.randint(1, 3)
        good = sorted(helpers.p4_tuples(n))
        bad = sorted(set(itertools.product(range(n), repeat=4)).difference(good))
        tuples = set(good)
        roll = rng.randrange(6)
        if roll in (1, 3):
            tuples.remove(rng.choice(good))
        if roll in (2, 3) and bad:
            tuples.add(rng.choice(bad))
        name, arity = ("Q", 4) if roll == 4 else ("P4", 2 if roll == 5 else 4)
        tuples = {t[:arity] for t in tuples}
        a = FiniteStructure(Signature.make({name: arity}), n, {name: tuples})
        got = _is_p4_interpretation(a, "P4")
        assert got == oracles.is_p4_interpretation(a, "P4")
        positive += got
    assert 300 < positive < 1500


def test_eliminate_disjunctions_noop_on_pp():
    t = helpers.p4_structure(extra={"E": (2, {(0, 1), (1, 0)})})
    phi = parse_sentence("exists x y . E(x,y) & x = x")
    assert eliminate_disjunctions(phi, "P4", template=t) == phi


def test_eliminate_disjunctions_requires_correct_p4():
    bad = FiniteStructure(Signature.make({"P4": 4}), 2, {"P4": [(0, 0, 0, 0)]})
    with pytest.raises(FormulaError):
        eliminate_disjunctions(parse_sentence("exists x . x = x | false"), "P4", template=bad)


def test_eliminate_disjunctions_basic_equivalence():
    phi = parse_sentence("exists x y u v . (x = y | u = v)")
    # all 2-element structures interpreting P4 correctly, with an extra
    # binary relation ranging over all 16 possibilities
    pairs = list(itertools.product(range(2), repeat=2))
    for extra in range(16):
        e_tuples = {pairs[i] for i in range(4) if extra >> i & 1}
        t = helpers.p4_structure(extra={"E": (2, e_tuples)})
        out = eliminate_disjunctions(phi, "P4", template=t)
        assert is_pp(out)
        assert evaluate(t, out) == evaluate(t, phi)


def test_eliminate_disjunctions_random_equivalence():
    rng = random.Random(37)
    cases = 0
    while cases < 40:
        n = rng.randint(1, 3)
        extra_arity = rng.randint(1, 2)
        tuples = {t for t in itertools.product(range(n), repeat=extra_arity)
                  if rng.random() < 0.6}
        t = helpers.p4_structure(n=n, extra={"E": (extra_arity, tuples)})
        phi = helpers.random_ep_sentence(rng, t.sig, max_vars=5, max_disjunctions=2)
        out = eliminate_disjunctions(phi, "P4", template=t)
        assert is_pp(out)
        assert evaluate(t, out) == evaluate(t, phi)
        cases += 1


def test_eliminate_disjunctions_drops_dead_branches():
    t = helpers.p4_structure(extra={"E": (2, set())})
    phi = parse_sentence("exists x y . E(x,y) | x = y")
    out = eliminate_disjunctions(phi, "P4", template=t)
    assert is_pp(out) and evaluate(t, out) == evaluate(t, phi) is True
    all_dead = parse_sentence("exists x y . E(x,y) | false")
    assert eliminate_disjunctions(all_dead, "P4", template=t) == FALSE


P4E = FiniteStructure.from_json((pathlib.Path(__file__).parent / "golden" / "p4e.json").read_text())


def _counting_evaluate(monkeypatch):
    """The formulas the rewriter evaluates, recorded as it goes."""
    import cspbench.formulas as formulas

    calls = []
    real = formulas.evaluate

    def counting(a, phi, *args, **kwargs):
        calls.append(phi)
        return real(a, phi, *args, **kwargs)

    monkeypatch.setattr(formulas, "evaluate", counting)
    return calls


def test_rewriter_searches_each_atom_disjunct_once(monkeypatch):
    # a rewritten disjunction is FALSE or satisfiable by construction, so
    # only the 13 atoms are evaluated, never a gadget built from them
    calls = _counting_evaluate(monkeypatch)
    out = eliminate_disjunctions(parse_sentence(helpers.nested_disjunction(12)), "P4", template=P4E)
    assert is_pp(out) and not _walk(out).free
    assert len(calls) == 13
    assert all(isinstance(phi, Exists) and isinstance(phi.body, Atom) for phi in calls)


def test_rewriter_skips_disjunctions_and_stays_equivalent(monkeypatch):
    cycle = helpers.p4_structure(n=3, extra={"E": (2, {(0, 1), (1, 2), (2, 0)})})
    # (sentence, number of disjuncts that are not disjunctions)
    cases = [(helpers.nested_disjunction(depth), depth + 1) for depth in range(1, 7)]
    cases += [("exists x y . E(y,x) | (exists z . E(x,z) | E(z,y))", 3),
              ("exists x y . x = y | (exists z . (exists w . E(z,w) | E(w,w)) | E(z,z))", 4),
              ("exists x . E(x,x) | (exists z . E(z,z) | false)", 3)]
    calls = _counting_evaluate(monkeypatch)
    for template in (P4E, cycle):
        for text, leaves in cases:
            phi = parse_sentence(text)
            calls.clear()
            out = eliminate_disjunctions(phi, "P4", template=template)
            assert len(calls) == leaves, text
            assert is_pp(out)
            assert evaluate(template, out) == evaluate(template, phi), text
    assert eliminate_disjunctions(parse_sentence(cases[-1][0]), "P4", template=P4E) == FALSE


def test_rewriter_binds_every_variable_beside_a_closed_disjunct():
    # a satisfiable disjunct without variables is true on the template, and
    # so is the disjunction; no variable of the rewriting is left free
    for text in ("exists x y . E(x,y) | (exists z . z = z)",
                 "exists x y . (exists z . z = z) | E(x,y)",
                 "exists x y . E(x,y) | (exists z . z = z) | x = y"):
        out = eliminate_disjunctions(parse_sentence(text), "P4", template=P4E)
        assert is_pp(out) and not _walk(out).free, text
        assert evaluate(P4E, out) and witness_assignment(P4E, out) is not None


def test_free_variables_ignores_constants():
    sig = Signature.make({"E": 2}, constants=["c"])
    phi = parse_sentence("exists x . E(x, c) & y = c")
    assert free_variables(phi, sig) == {"y"}


def test_witness_runs_one_search(monkeypatch):
    import cspbench.structures as structures

    calls = []
    real = structures._hom_maps

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(structures, "_hom_maps", counting)
    phi = parse_sentence("exists x y z . E(x,y) & E(y,z)")
    assert witness_assignment(helpers.k2(), phi) == {"x": 0, "y": 1, "z": 0}
    assert len(calls) == 1
    assert witness_assignment(helpers.k2(), parse_sentence("exists x . E(x,x)")) is None
    assert len(calls) == 2


def test_evaluator_builds_one_canonical_database(monkeypatch):
    import cspbench.formulas as formulas
    import cspbench.galois as galois

    calls = []
    real = formulas._database

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(formulas, "_database", counting)
    k3 = helpers.k3()
    phi = parse_sentence("exists z . E(x,z) & E(z,y)")
    ext = galois.relation_of_formula(k3, phi, 2)
    assert ext == {(x, y) for x in range(3) for y in range(3)}
    assert len(calls) == 1
    # evaluate builds one canonical database per call
    edge = parse_sentence("E(x,y)")
    assert [evaluate(k3, edge, {"x": 0, "y": v}) for v in range(3)] == [False, True, True]
    assert len(calls) == 4
    with pytest.raises(FormulaError):
        evaluate(k3, edge, {"x": 0})
