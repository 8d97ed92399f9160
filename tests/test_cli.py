import json
import random

import pytest

import helpers
from cspbench import FiniteStructure, Signature, cli
from cspbench.cli import AnalysisReport, main
from cspbench.formulas import parse_sentence
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
    report = AnalysisReport.from_dict(doc)
    assert report.to_dict() == doc  # machine encoding round-trips
    assert report.core["verdict"] is True
    assert report.fo_definability["sentence"] == "not (exists x0 . U(x0) & V(x0))"


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
    assert cert.verify(a, Relation.make(0, [()]))


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
    assert cert.verify(a, Relation.make(1, [(1,)]))


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
