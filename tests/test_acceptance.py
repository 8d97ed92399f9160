"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
for every criterion as it completes.
"""

import itertools
import random
import time

import helpers
import oracles
from cspbench import (
    BudgetExceededError,
    FiniteStructure,
    Relation,
    Signature,
    all_polymorphisms_essentially_unary,
    check_mix_preservation,
    classify_horn,
    cnf_sat,
    count_maximal_pp_types,
    critical_obstructions,
    enumerate_polymorphisms,
    find_homomorphism,
    fo_definability_report,
    has_one_tolerant_polymorphism,
    horn_solve,
    is_core,
    is_epc_finite,
    is_locally_refutable,
    is_pp_definable,
    obstruction_set_decides,
    pp_closure,
    pp_type_leq,
)
from cspbench.clones import preserves_relation
from cspbench.formulas import evaluate, eliminate_disjunctions, is_pp
from cspbench.linear_horn import parse_cnf
from cspbench.structures import canonical_form


def _verdict(num, name, ok, detail=""):
    tail = f" — {detail}" if detail else ""
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {name}{tail}")
    assert ok, f"criterion {num} failed: {name}{tail}"


def test_criterion_01_galois_completeness():
    t0 = time.perf_counter()
    sig = Signature.make({"E": 2})
    pairs = list(itertools.product(range(2), repeat=2))
    agree = total = 0
    for bits in range(16):
        a = FiniteStructure(sig, 2, {"E": {pairs[i] for i in range(4) if bits >> i & 1}})
        definable = oracles.pp_definable_masks(a, 2)
        for target_bits in range(16):
            tuples = {pairs[i] for i in range(4) if target_bits >> i & 1}
            verdict, cert = is_pp_definable(a, Relation.make(2, tuples))
            oracle = oracles.relation_mask(tuples) in definable if tuples else 0 in definable
            total += 1
            agree += verdict == oracle
    elapsed = time.perf_counter() - t0
    _verdict(1, "Galois completeness vs closure-generation oracle",
             agree == total == 256 and elapsed < 10.0,
             f"{agree}/256 agree in {elapsed:.2f}s")


def test_criterion_02_galois_soundness():
    rng = random.Random(20100817)
    structures = violations = 0
    attempts = 0
    while structures < 50:
        attempts += 1
        a = helpers.random_structure(rng, max_n=3, max_rels=2, max_arity=2)
        try:
            polys = [f for k in (1, 2, 3)
                     for f in enumerate_polymorphisms(a, k, budget=200_000)]
            closures = []
            for _ in range(3):
                arity = rng.randint(1, 2)
                r = Relation.make(arity,
                                  helpers.random_nonempty_relation(rng, a.n, arity, max_size=5))
                closures.append((arity, pp_closure(a, r, budget=200_000)))
        except BudgetExceededError:
            continue  # a search blew the step budget on this sample; resample
        for arity, closed in closures:
            for f in polys:
                if not preserves_relation(f, closed.tuples, arity):
                    violations += 1
        structures += 1
    _verdict(2, "Galois soundness: closures preserved by all enumerated polymorphisms",
             structures == 50 and violations == 0,
             f"{structures} structures ({attempts} sampled), {violations} violations")


def test_criterion_03_p4_forces_essentially_unary():
    rng = random.Random(31415)
    templates = [helpers.p4_structure()]
    for _ in range(5):
        arity = rng.randint(1, 2)
        tuples = {t for t in itertools.product(range(2), repeat=arity) if rng.random() < 0.6}
        templates.append(helpers.p4_structure(extra={"E": (arity, tuples)}))
    counterexamples = 0
    for a in templates:
        verdict = all_polymorphisms_essentially_unary(a, 3)
        if not verdict.all_essentially_unary:
            counterexamples += 1
    _verdict(3, "P4-bearing templates have only essentially unary polymorphisms (arity <= 3)",
             counterexamples == 0, f"{len(templates)} templates, {counterexamples} counterexamples")


def test_criterion_04_nae_polymorphism_counts():
    nae = helpers.nae()
    oracle_binary = oracles.brute_polymorphisms(nae, 2)
    oracle_ternary = oracles.brute_polymorphisms(nae, 3)
    search_binary = {f.values for f in enumerate_polymorphisms(nae, 2)}
    search_ternary = {f.values for f in enumerate_polymorphisms(nae, 3)}
    ok = (len(oracle_binary) == 4
          and search_binary == set(oracle_binary)
          and search_ternary == set(oracle_ternary)
          and len(search_ternary) == 6)
    _verdict(4, "NAE polymorphism counts: oracle-vs-search exact match",
             ok, f"binary {len(search_binary)} (oracle {len(oracle_binary)}), "
                 f"ternary {len(search_ternary)} (oracle {len(oracle_ternary)})")


def test_criterion_05_rewriter_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(2718281)
    checks = agreements = 0
    for _ in range(10):
        n = rng.randint(2, 3)
        arity = rng.randint(1, 2)
        tuples = {t for t in itertools.product(range(n), repeat=arity) if rng.random() < 0.6}
        template = helpers.p4_structure(n=n, extra={"E": (arity, tuples)})
        for _ in range(10):
            phi = helpers.random_ep_sentence(rng, template.sig, max_vars=6, max_disjunctions=3)
            rewritten = eliminate_disjunctions(phi, "P4", template=template)
            assert is_pp(rewritten)
            checks += 1
            agreements += evaluate(template, phi) == evaluate(template, rewritten)
    elapsed = time.perf_counter() - t0
    _verdict(5, "disjunction rewriter preserves truth on P4-bearing templates",
             checks == 100 and agreements == checks and elapsed < 30.0,
             f"{agreements}/{checks} agree in {elapsed:.2f}s")


def test_criterion_06_fo_definability():
    uv = helpers.uv()
    rep = fo_definability_report(uv, n_max=3)
    found = rep.fo_definable and rep.polymorphism_arity == 3
    single = (len(rep.obstructions) == 1
              and rep.obstructions[0].structure.n == 1
              and rep.obstructions[0].structure.rel["U"] == frozenset({(0,)})
              and rep.obstructions[0].structure.rel["V"] == frozenset({(0,)}))
    exhaustive = True
    for n in (1, 2, 3, 4):
        for u_bits in range(1 << n):
            for v_bits in range(1 << n):
                inst = FiniteStructure(uv.sig, n, {
                    "U": {(i,) for i in range(n) if u_bits >> i & 1},
                    "V": {(i,) for i in range(n) if v_bits >> i & 1}})
                direct = find_homomorphism(inst, uv) is not None
                if obstruction_set_decides(rep.obstructions, inst) != direct:
                    exhaustive = False

    k2 = helpers.k2()
    no_poly = (has_one_tolerant_polymorphism(k2, 3) is None
               and has_one_tolerant_polymorphism(k2, 4) is None)
    keys = {canonical_form(o.structure)
            for o in critical_obstructions(k2, max_vertices=5, max_tuples=10)}
    cycles = (canonical_form(helpers.cycle(3, symmetric=False)) in keys
              and canonical_form(helpers.cycle(5, symmetric=False)) in keys)
    _verdict(6, "fo-definability: U/V certificate + sentence; K2 bounded negative",
             found and single and exhaustive and no_poly and cycles,
             f"poly={found}, obstruction set exact={single}, sentence agrees on <=4: {exhaustive}, "
             f"K2 no poly<=4: {no_poly}, C3/C5 found: {cycles}")


def test_criterion_07_hyperedge_bound_forward():
    rng = random.Random(1618)
    templates = violations = with_poly = 0
    while templates < 20:
        a = helpers.random_structure(rng, max_n=2, max_rels=2, max_arity=2)
        templates += 1
        for k_ar in (3, 4):
            if has_one_tolerant_polymorphism(a, k_ar) is None:
                continue
            k = k_ar - 1
            with_poly += 1
            obs = critical_obstructions(a, max_vertices=5, max_tuples=min(k + 2, 5))
            violations += sum(o.hyperedges > k for o in obs)
            break
    _verdict(7, "1-tolerant (k+1)-ary polymorphism bounds critical obstructions to k tuples",
             violations == 0,
             f"{templates} templates ({with_poly} with a polymorphism), {violations} violations")


def test_criterion_08_pp_type_counts():
    u1, k2 = helpers.u1(), helpers.k2()
    ok = (count_maximal_pp_types(u1, 1).count == 1
          and count_maximal_pp_types(k2, 1).count == 1)
    # pointed-hom brute-force oracle and preorder laws, exhaustive at n <= 2
    for a in (u1, k2):
        for n in (1, 2):
            tuples = list(itertools.product(range(a.n), repeat=n))
            leq = {}
            for s in tuples:
                for t in tuples:
                    leq[s, t] = pp_type_leq(a, s, t)
                    ok = ok and leq[s, t] == oracles.brute_pointed_hom(a, s, t)
            for s in tuples:
                ok = ok and leq[s, s]
            for s in tuples:
                for t in tuples:
                    for u in tuples:
                        if leq[s, t] and leq[t, u]:
                            ok = ok and leq[s, u]
    _verdict(8, "maximal pp-type counts match the pointed-hom oracle; preorder laws hold",
             ok, "counts 1/1 at n=1; reflexive+transitive at n <= 2")


def test_criterion_09_horn_dichotomy_coherence():
    t0 = time.perf_counter()
    rng = random.Random(6022140)
    horn = nonhorn = unsat_horn = incoherent = 0
    for _ in range(200):
        f = helpers.random_cnf(rng, max_vars=5, max_clauses=4, max_literals=3)
        verdict = classify_horn(f)
        if verdict.is_horn:
            horn += 1
            points = []
            for _ in range(24):
                p = helpers.random_satisfying_point(rng, f)
                if p is not None:
                    points.append(p)
            if not points:
                fallback = cnf_sat(f)
                if fallback is None:
                    unsat_horn += 1
                    continue
                points = [fallback]
            for _ in range(500):
                p, q = rng.choice(points), rng.choice(points)
                if not check_mix_preservation(f, p, q):
                    incoherent += 1
                    break
        else:
            nonhorn += 1
            p, q = verdict.witness_pair
            if check_mix_preservation(verdict.irreducible, p, q):
                incoherent += 1
    elapsed = time.perf_counter() - t0
    _verdict(9, "Horn dichotomy coherence under the sqrt2 mixing embedding",
             incoherent == 0 and elapsed < 60.0,
             f"{horn} Horn ({unsat_horn} with no satisfying point), {nonhorn} non-Horn, "
             f"{incoherent} incoherent, {elapsed:.1f}s")


def test_criterion_10_horn_solver_vs_complete_solver():
    rng = random.Random(141421356)
    agree = 0
    for _ in range(500):
        f = helpers.random_horn_cnf(rng, max_vars=6, max_clauses=8)
        sat, point = horn_solve(f)
        agree += sat == (cnf_sat(f) is not None)
        if sat:
            assert f.holds(point)
    named = classify_horn(parse_cnf("1*x + -1*y = 0 | 1*u + -1*v = 0"))
    ok = agree == 500 and not named.is_horn and named.complexity == "CSP NP-complete"
    _verdict(10, "horn_solve agrees with cnf_sat; (x=y | u=v) is NP-complete",
             ok, f"{agree}/500 agree; named relation: {named.complexity}")


def test_criterion_11_core_epc():
    k2 = helpers.k2()
    k2_iso = helpers.graph(3, [(0, 1)], symmetric=True)
    core_k2, _ = is_core(k2)
    core_iso, cert = is_core(k2_iso)
    cert_ok = (not core_iso and cert is not None and cert.verify()
               and len(set(cert.map)) < 3)
    rng = random.Random(577215)
    regress = all(is_epc_finite(a) == is_core(a)[0]
                  for a in (helpers.random_structure(rng, max_n=3) for _ in range(50)))
    _verdict(11, "cores: K2 core, K2+isolated not core with certificate; epc == core",
             core_k2 and cert_ok and regress,
             f"K2 core={core_k2}, certificate map={cert.map}, 50-structure regression={regress}")


def test_criterion_12_hardness_flag_sanity(tmp_path):
    from cspbench.cli import _analyze

    k3 = helpers.k3()
    path = tmp_path / "k3.json"
    path.write_text(k3.to_json())
    report = _analyze(k3, str(path), max_arity=3, types_n=1, duality_n=2, budget=5_000_000)
    flag = report["np_hardness"]["verdict"]

    # independent sub-verdicts, recomputed outside the pipeline
    locally_refutable, _ = is_locally_refutable(k3)
    unary_verdict = all_polymorphisms_essentially_unary(k3, 3)
    consistent = flag == ((not locally_refutable) and unary_verdict.all_essentially_unary)
    # if the enumerator finds an essential polymorphism the flag must be down
    if not unary_verdict.all_essentially_unary:
        consistent = consistent and not flag
    bounded_note = "not a proof" in report["np_hardness"]["note"]
    _verdict(12, "NP-hardness flag consistent with its sub-verdicts on K3",
             consistent and bounded_note,
             f"locally_refutable={locally_refutable}, "
             f"essentially_unary<=3={unary_verdict.all_essentially_unary}, flag={flag}")
