import itertools
import json
import random

import pytest

import helpers
from cspbench import FiniteStructure, Signature, cli, structures
from cspbench.cli import ANALYZE_SECTIONS, main
from cspbench.formulas import MAX_NESTING, is_pp, parse_sentence
from cspbench.galois import PpDefinabilityCertificate, Relation
from cspbench.structures import DEFAULT_BUDGET


@pytest.fixture
def files(tmp_path):
    paths = {}

    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
        return str(p)

    write("k2.json", helpers.k2().to_json())
    write("uv.json", helpers.uv().to_json())
    write("u1.json", helpers.u1().to_json())
    write("p4.json", helpers.p4_structure(extra={"E": (2, {(0, 1), (1, 0)})}).to_json())
    write("edge.txt", "exists x y . E(x,y)")
    write("loop.txt", "exists x . E(x,x)")
    write("disj.txt", "exists x y . E(x,y) | x = y")
    write("rel.json", json.dumps({"arity": 1, "tuples": [[1]]}))
    write("horn.cnf", "1*x = 1\n~1*x = 1 | 1*y = 2")
    write("nonhorn.cnf", "1*x + -1*y = 0 | 1*u + -1*v = 0")
    paths["dir"] = str(tmp_path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_text_and_machine(files, capsys):
    code, out, _ = run(capsys, "analyze", files["uv.json"], "--types-n", "1", "--duality-n", "2")
    assert code == 0
    assert "core" in out and "fo-definable" in out

    code, out, _ = run(capsys, "--format", "machine", "analyze", files["uv.json"],
                       "--types-n", "1", "--duality-n", "2")
    assert code == 0
    doc = json.loads(out)
    # the machine report holds the name, the file hash and every section
    assert set(doc) == {"template_name", "file_hash"} | {key for key, _ in ANALYZE_SECTIONS}
    assert doc["template_name"] == files["uv.json"] and len(doc["file_hash"]) == 64
    assert doc["core"]["verdict"] is True
    assert doc["fo_definability"]["sentence"] == "not (exists x0 . U(x0) & V(x0))"


def test_analyze_deterministic(files, capsys):
    args = ("--format", "machine", "analyze", files["k2.json"],
            "--types-n", "1", "--duality-n", "2", "--max-arity", "2")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_solve(files, capsys):
    code, out, _ = run(capsys, "solve", files["k2.json"], files["edge.txt"])
    assert code == 0 and "satisfied" in out and '"x": 0' in out
    code, out, _ = run(capsys, "solve", files["k2.json"], files["loop.txt"])
    assert code == 1 and "unsatisfied" in out


def test_solve_via_p4_agrees(files, capsys, tmp_path):
    rng = random.Random(127)
    t = helpers.p4_structure(extra={"E": (2, {(0, 1), (1, 0)})})
    agreements = 0
    for i in range(50):
        phi = helpers.random_ep_sentence(rng, t.sig, max_vars=4, max_disjunctions=2)
        from cspbench.formulas import render

        sent = tmp_path / f"s{i}.txt"
        sent.write_text(render(phi))
        plain = main(["solve", files["p4.json"], str(sent)])
        routed = main(["solve", files["p4.json"], str(sent), "--via-p4"])
        capsys.readouterr()
        assert plain == routed
        agreements += 1
    assert agreements == 50


def test_ppdef_exit_codes(files, capsys, tmp_path):
    code, out, _ = run(capsys, "ppdef", files["u1.json"], files["rel.json"])
    assert code == 0 and "pp-definable" in out
    bad = tmp_path / "bad_rel.json"
    bad.write_text(json.dumps({"arity": 1, "tuples": [[0]]}))
    code, out, _ = run(capsys, "ppdef", files["u1.json"], str(bad))
    assert code == 1
    code, _, err = run(capsys, "ppdef", files["u1.json"], files["k2.json"])
    assert code == 2 and "error" in err


def test_ppdef_over_the_power_cap_is_an_error(files, capsys, tmp_path):
    # 2**9 = 512 elements exceed the cap of 260; 2**8 = 256 would not
    rel = tmp_path / "nine.json"
    rows = sorted(itertools.product(range(2), repeat=4))[:9]
    rel.write_text(json.dumps({"arity": 4, "tuples": [list(t) for t in rows]}))
    code, out, err = run(capsys, "ppdef", files["k2.json"], str(rel))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "9 tuples" in err and "cap of 260" in err
    assert "at most 8 tuples" in err
    code, _, err = run(capsys, "types", files["u1.json"], "--n", "9")
    assert code == 2 and "--n" in err and "cap of 260" in err and "at most 8" in err
    # over 300 elements not even a 1-tuple relation fits: no "at most 0" advice
    big = tmp_path / "t300.json"
    big.write_text(FiniteStructure(Signature.make({"E": 2}), 300, {"E": [(0, 1)]}).to_json())
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"arity": 1, "tuples": [[0]]}))
    code, out, err = run(capsys, "ppdef", str(big), str(one))
    assert code == 2 and out == ""
    assert "1 tuples" in err and "300**1 elements" in err and "cap of 260" in err
    assert "no relation with a tuple fits under the cap on 300 elements" in err
    assert "at most 0" not in err


def test_ppdef_certificate_with_empty_body_reparses(files, capsys, tmp_path):
    # no relations or constants: the defining formula has no fact to list
    a = FiniteStructure(Signature.make({}), 2)
    template, rel = tmp_path / "bare.json", tmp_path / "rel0.json"
    template.write_text(a.to_json())
    rel.write_text(json.dumps({"arity": 0, "tuples": [[]]}))
    code, out, err = run(capsys, "--format", "machine", "ppdef", str(template), str(rel))
    assert code == 0, err
    formula = json.loads(out)["formula"]
    assert formula == "exists _e0 _e1 . _e0 = _e0"
    cert = PpDefinabilityCertificate(True, formula=parse_sentence(formula))
    assert cert.verify(a, Relation(0, [()]))


@pytest.mark.parametrize("constants", [["_e0"], ["x0", "y0", "v0", "w0", "_x0"]],
                         ids=["element-name", "every-variable-prefix"])
def test_ppdef_names_avoid_constants(constants, capsys, tmp_path):
    # the constants take the names the certificate would give its element
    # and free variables
    a = FiniteStructure(Signature.make({"U": 1}, constants), 2, {"U": [(1,)]},
                        {c: 0 for c in constants})
    template, rel = tmp_path / "t.json", tmp_path / "r.json"
    template.write_text(a.to_json())
    rel.write_text(json.dumps({"arity": 1, "tuples": [[1]]}))
    code, out, err = run(capsys, "--format", "machine", "ppdef", str(template), str(rel))
    assert code == 0, err
    formula = parse_sentence(json.loads(out)["formula"])
    cert = PpDefinabilityCertificate(True, formula=formula)
    assert cert.verify(a, Relation(1, [(1,)]))


def test_consecutive_main_calls_share_no_state(files, capsys):
    argvs = [
        ("--format", "machine", "solve", files["k2.json"], files["edge.txt"], "--budget", "50"),
        ("solve", files["k2.json"], files["loop.txt"]),
        ("--format", "machine", "horn", "classify", files["nonhorn.cnf"]),
        ("ppdef", files["u1.json"], files["rel.json"]),
        ("--format", "machine", "rewrite-ep", files["p4.json"], files["disj.txt"]),
        ("types", files["u1.json"], "--n", "1"),
    ]
    forward = [run(capsys, *argv) for argv in argvs]
    backward = [run(capsys, *argv) for argv in reversed(argvs)]
    assert forward == backward[::-1]
    assert [code for code, _, _ in forward] == [0, 1, 1, 0, 0, 0]
    assert json.loads(forward[0][1])["satisfied"] is True
    assert not forward[1][1].startswith("{")
    assert cli.build_parser() is cli.build_parser()
    args = cli.build_parser().parse_args(["solve", "k2.json", "edge.txt"])
    assert (args.format, args.budget, args.via_p4) == ("text", DEFAULT_BUDGET, False)


def test_types(files, capsys):
    code, out, _ = run(capsys, "--format", "machine", "types", files["u1.json"], "--n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["counts"][0] == 1
    assert doc["reports"][0]["classes"] == [[[0]], [[1]]]
    assert doc["reports"][0]["maximal"] == [1]


def test_analyze_u1_fo_definable(files, capsys):
    code, out, _ = run(capsys, "--format", "machine", "analyze", files["u1.json"],
                       "--types-n", "1", "--duality-n", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["fo_definability"]["verdict"].startswith("fo-definable")
    assert doc["pp_type_counts"]["counts"]["1"] == 1


def test_duality_export(files, capsys, tmp_path):
    exp = tmp_path / "obs"
    code, out, _ = run(capsys, "duality", files["uv.json"], "--n-max", "2",
                       "--export", str(exp))
    assert code == 0
    manifest = json.loads((exp / "manifest.json").read_text())
    assert len(manifest["obstructions"]) == 1
    from cspbench import FiniteStructure

    obs = FiniteStructure.from_json((exp / "obstruction_000.json").read_text())
    assert obs.n == 1


def test_duality_one_tolerant_overrun_reports_bounded_evidence(files, capsys):
    # at budget 100 the arity-3 search on K2 finishes and the arity-4
    # one-tolerant power overruns: the report stops at arity 3
    bounds = ("--max-vertices", "3", "--max-tuples", "3")
    code, out, _ = run(capsys, "--format", "machine", "duality", files["k2.json"],
                       *bounds, "--budget", "100")
    assert code == 0
    doc = json.loads(out)
    assert doc["fo_definable"] is None
    assert doc["verdict"].startswith(
        "no 1-tolerant polymorphism up to arity 3; arity 4 exceeded the budget")
    # the loop, the transitive triangle and the directed triangle
    assert [o["domain"] for o in doc["obstructions"]] == [1, 3, 3]
    # an overrun at arity 3 leaves no evidence: still an error
    code, _, err = run(capsys, "duality", files["k2.json"], *bounds, "--budget", "50")
    assert code == 2 and "budget" in err


def test_duality_rejects_bounds_below_one(files, capsys):
    for flag in ("--max-vertices", "--max-tuples"):
        for template in ("k2.json", "uv.json"):
            code, out, err = run(capsys, "duality", files[template], "--n-max", "2", flag, "0")
            assert code == 2 and out == ""
            assert "bounds must be positive" in err


def test_horn_commands(files, capsys):
    code, out, _ = run(capsys, "horn", "classify", files["horn.cnf"])
    assert code == 0 and "Horn" in out
    code, out, _ = run(capsys, "--format", "machine", "horn", "classify", files["nonhorn.cnf"])
    assert code == 1
    doc = json.loads(out)
    assert doc["complexity"] == "CSP NP-complete" and len(doc["witness_pair"]) == 2
    code, out, _ = run(capsys, "horn", "solve", files["horn.cnf"])
    assert code == 0 and "satisfiable" in out


def test_horn_rejects_rationals_outside_the_grammar(capsys, tmp_path):
    # an exponent would expand to five million digits before failing
    cnf = tmp_path / "exp.cnf"
    cnf.write_text("1*x = 1\n1e5000000*x = 1\n")
    code, out, err = run(capsys, "horn", "classify", str(cnf))
    assert code == 2 and out == ""
    assert err.startswith("error: line 2: bad rational '1e5000000': ")


def test_horn_cuts_long_rationals_in_errors(capsys, tmp_path):
    # a 5,000-digit coefficient is echoed by its first 40 digits and its length
    for text in ("1*x = " + "7" * 5000, "1*x = " + "7" * 5000 + "e1"):
        cnf = tmp_path / "long.cnf"
        cnf.write_text(text + "\n")
        code, out, err = run(capsys, "horn", "classify", str(cnf))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and len(err) < 200
        assert err.startswith(f"error: line 1: bad rational '{'7' * 40}'... (")


def test_ppdef_searches_under_the_given_budget(files, capsys, monkeypatch, tmp_path):
    # the re-evaluation of the synthesized formula uses --budget as well
    budgets = []
    search = structures._hom_maps

    def spy(a, b, pinned=None, budget=DEFAULT_BUDGET, prefix=None):
        budgets.append(budget)
        return search(a, b, pinned, budget, prefix)

    monkeypatch.setattr(structures, "_hom_maps", spy)
    rel = tmp_path / "rel_edge.json"
    rel.write_text(json.dumps({"arity": 2, "tuples": [[0, 1], [1, 0]]}))
    code, out, err = run(capsys, "ppdef", files["k2.json"], str(rel), "--budget", "1000")
    assert code == 0 and "pp-definable" in out, err
    assert len(budgets) >= 2 and set(budgets) == {1000}


def test_rewrite_ep(files, capsys):
    code, out, _ = run(capsys, "rewrite-ep", files["p4.json"], files["disj.txt"])
    assert code == 0
    from cspbench.formulas import is_pp, parse_sentence

    assert is_pp(parse_sentence(out))


def test_parse_error_exit_code(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "error" in err
    missing = tmp_path / "missing.json"
    code, _, err = run(capsys, "analyze", str(missing))
    assert code == 2
    badsent = tmp_path / "bad.txt"
    badsent.write_text("forall x . E(x,x)")
    code, _, err = run(capsys, "solve", files["k2.json"], str(badsent))
    assert code == 2 and "forall" in err


def test_solve_deep_chain_is_satisfied(files, capsys, tmp_path):
    # one search level per variable: deeper than the interpreter's recursion limit
    n = 1200
    chain = tmp_path / "chain.txt"
    chain.write_text(f"exists {' '.join(f'x{i}' for i in range(n))} . "
                     + " & ".join(f"E(x{i},x{i + 1})" for i in range(n - 1)))
    code, out, err = run(capsys, "--format", "machine", "solve", files["k2.json"], str(chain))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["satisfied"] is True
    assert doc["witness"] == {f"x{i}": i % 2 for i in range(n)}


@pytest.mark.parametrize("command", [["solve"], ["solve", "--via-p4"], ["rewrite-ep"]],
                         ids=["solve", "via-p4", "rewrite-ep"])
def test_parentheses_nested_to_the_limit(files, capsys, tmp_path, command):
    # the parser takes four calls per parenthesis level and refuses one more
    # level than MAX_NESTING, so no command reaches the recursion limit
    deep = tmp_path / "deep.txt"
    for depth in (MAX_NESTING, MAX_NESTING + 1):
        inner = "E(x,x)"
        for _ in range(depth):
            inner = f"E(x,x) | ({inner})"
        deep.write_text(f"exists x y . {inner}")
        code, out, err = run(capsys, command[0], files["p4.json"], str(deep), *command[1:])
        if depth == MAX_NESTING:
            assert (code, err) == ((0, "") if command == ["rewrite-ep"] else (1, ""))
            assert command != ["rewrite-ep"] or is_pp(parse_sentence(out))
        else:
            assert code == 2 and out == ""
            # the refused parenthesis ends the prefix and MAX_NESTING + 1 levels
            col = len("exists x y . ") + len("E(x,x) | (") * (MAX_NESTING + 1)
            assert err == f"error: line 1 col {col}: parentheses nested more than {MAX_NESTING} deep\n"


def test_rewrite_ep_refuses_rewritings_past_the_limit(files, capsys, tmp_path):
    # each P4 gadget of a flat disjunction nests the previous one a level
    # deeper: k disjuncts nest k - 2 deep, and every output re-parses
    flat = tmp_path / "flat.txt"
    for k in (MAX_NESTING + 2, MAX_NESTING + 3):
        flat.write_text("exists x y . " + " | ".join(["E(y, x)", "E(x, y)"][i % 2] for i in range(k)))
        code, out, err = run(capsys, "rewrite-ep", files["p4.json"], str(flat))
        if k == MAX_NESTING + 2:
            assert code == 0 and err == ""
            assert is_pp(parse_sentence(out))
        else:
            assert code == 2 and out == ""
            assert err == (f"error: the rewriting would nest parentheses {MAX_NESTING + 1} "
                           f"deep, over the limit of {MAX_NESTING}\n")


def test_rewrite_ep_of_a_disjunction_nested_198_deep(files, capsys, tmp_path):
    # only the 199 atom disjuncts are evaluated, not the gadgets built from them
    deep = tmp_path / "deep.txt"
    deep.write_text(helpers.nested_disjunction(198))
    code, out, err = run(capsys, "rewrite-ep", files["p4.json"], str(deep))
    assert (code, err) == (0, "")
    assert is_pp(parse_sentence(out))


@pytest.mark.parametrize("argv", [["analyze", "k2.json"], ["solve", "k2.json", "edge.txt"],
                                  ["ppdef", "k2.json", "rel.json"], ["types", "k2.json"],
                                  ["duality", "k2.json"], ["horn", "classify", "horn.cnf"],
                                  ["horn", "solve", "horn.cnf"],
                                  ["rewrite-ep", "p4.json", "disj.txt"]],
                         ids=lambda argv: "-".join(arg for arg in argv if "." not in arg))
def test_negative_budget_is_an_argument_error(files, capsys, argv):
    argv = [files.get(arg, arg) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", "-1"])
    assert exc.value.code == 2
    assert "error: argument --budget: must be at least 0, got -1" in capsys.readouterr().err
    assert cli.build_parser().parse_args(argv + ["--budget", "0"]).budget == 0


def test_analyze_large_sparse_template_reports_budget_errors(capsys, tmp_path):
    # End(A) of 3,000 elements, 2,998 of them isolated, is far too large to
    # list: the enumeration stops once the maps it keeps hold more than the
    # budget in entries, instead of keeping millions of 3,000-entry maps
    big = tmp_path / "big.json"
    big.write_text(FiniteStructure(Signature.make({"E": 2}), 3000, {"E": [(0, 1), (1, 0)]}).to_json())
    code, out, err = run(capsys, "--format", "machine", "analyze", str(big))
    assert code == 0, err
    doc = json.loads(out)
    for section in ("core", "epc", "polymorphism_counts", "essentially_unary"):
        assert doc[section]["error"].startswith(
            "budget exceeded: homomorphism search holds 1667 maps of 3000 entries each")
    # no tuple length keeps 3000**n tuples under the pp-type cap
    assert doc["pp_type_counts"]["error"].endswith(
        "no tuple length fits under the cap on 3000 elements")


def test_ep_solve_is_bounded_by_the_budget(files, capsys, tmp_path):
    # a false ep sentence over 200 elements has 200**3 assignments to scan
    template = tmp_path / "t200.json"
    template.write_text(FiniteStructure(Signature.make({"E": 2}), 200, {"E": [(0, 1), (1, 0)]}).to_json())
    sentence = tmp_path / "ep.txt"
    sentence.write_text("exists x y z . E(x, x) | E(y, z) & E(z, z)")
    code, out, err = run(capsys, "solve", str(template), str(sentence), "--budget", "1000")
    assert code == 2 and out == ""
    assert "ep evaluation exceeded budget of 1000 quantifier assignments" in err
    # over K2 the scan takes 2**3 = 8 assignments
    code, out, _ = run(capsys, "solve", files["k2.json"], str(sentence), "--budget", "8")
    assert code == 1 and "unsatisfied" in out


def test_large_domain_pp_solve(capsys, tmp_path):
    # 3,000 elements, one edge: pp solve pins no variable and searches the
    # canonical database of the sentence against the template
    template = tmp_path / "t3000.json"
    template.write_text(FiniteStructure(Signature.make({"E": 2}), 3000, {"E": [(0, 2999)]}).to_json())
    edge, triangle = tmp_path / "edge.txt", tmp_path / "triangle.txt"
    edge.write_text("exists x y . E(x, y)")
    triangle.write_text("exists x y z . E(x, y) & E(y, z) & E(z, x)")
    code, out, _ = run(capsys, "--format", "machine", "solve", str(template), str(edge))
    assert code == 0 and json.loads(out) == {"satisfied": True, "witness": {"x": 0, "y": 2999}}
    code, out, err = run(capsys, "solve", str(template), str(edge), "--budget", "1000")
    assert code == 2 and out == ""
    assert "homomorphism search exceeded budget of 1000 candidate assignments" in err
    code, out, _ = run(capsys, "solve", str(template), str(triangle))
    assert code == 1 and out == "unsatisfied\n"


@pytest.mark.parametrize("exc", [AssertionError("postcondition violated"),
                                 RecursionError("maximum recursion depth exceeded")],
                         ids=["AssertionError", "RecursionError"])
def test_unexpected_exception_exits_2(files, capsys, monkeypatch, exc):
    def crash(args):
        raise exc

    monkeypatch.setattr(cli, "_cmd_solve", crash)
    code, out, err = run(capsys, "solve", files["k2.json"], files["edge.txt"])
    assert code == 2 and out == ""
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


def test_json_booleans_rejected(files, capsys, tmp_path):
    def write(name, doc):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    def structure(**changes):
        doc = {"signature": {"relations": {"U": 1}, "constants": ["c"]}, "domain": 2,
               "relations": {"U": [[1]]}, "constants": {"c": 0}}
        doc.update(changes)
        return doc

    for i, bad in enumerate([structure(domain=True, relations={"U": [[0]]}),
                             structure(relations={"U": [[True]]}),
                             structure(constants={"c": True})]):
        code, _, err = run(capsys, "solve", write(f"s{i}.json", bad), files["edge.txt"])
        assert code == 2 and err.startswith("error: ") and "internal" not in err

    for i, bad in enumerate([{"arity": 1, "tuples": [[True]]},
                             {"arity": True, "tuples": [[1]]},
                             {"arity": 1, "tuples": [1]}]):
        code, _, err = run(capsys, "ppdef", files["u1.json"], write(f"r{i}.json", bad))
        assert code == 2 and err.startswith("error: ") and "internal" not in err


@pytest.mark.parametrize("changes, field", [
    ({"relations": {"U": [1]}}, '"relations"."U"'),
    ({"relations": {"U": 1}}, '"relations"."U"'),
    ({"relations": [["U", [1]]]}, '"relations"'),
    ({"signature": {"relations": [["U", 1]], "constants": ["c"]}}, '"signature"."relations"'),
    ({"signature": {"relations": {"U": 1}, "constants": "c"}}, '"signature"."constants"'),
    ({"constants": [["c", 0]]}, '"constants"'),
], ids=["tuple-not-list", "relation-not-list", "relations-not-object",
        "signature-relations-not-object", "signature-constants-not-list",
        "constants-not-object"])
def test_malformed_structure_file_rejected(files, capsys, tmp_path, changes, field):
    doc = {"signature": {"relations": {"U": 1}, "constants": ["c"]}, "domain": 2,
           "relations": {"U": [[1]]}, "constants": {"c": 0}}
    doc.update(changes)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "solve", str(path), files["edge.txt"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err, err
