"""A seeded fuzz of every command on mutated golden inputs.

Each call runs a command on golden files, one of which is mutated: in a
structure or relation file a JSON value is replaced by one of another
type or size, or a key or entry is deleted or added; in a sentence or a
CNF a few characters are inserted, deleted or replaced.  Whatever the
input, the exit code is 0, 1 or 2, stderr never reports an internal
error, and exit 1 comes only with a verdict on stdout.
"""

import json
import pathlib
import random

from cspbench.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
STRUCTURES = ("c5.json", "k2.json", "k2u.json", "k3.json", "nae.json", "p4e.json", "uv.json")
GRAPHS = ("c5.json", "k2.json", "k2u.json", "k3.json", "p4e.json")
SENTENCES = ("disj.txt", "edge.txt", "loop.txt", "loop_or.txt", "triangle.txt")
CNFS = ("horn_implications.cnf", "horn_sat.cnf", "horn_unsat.cnf",
        "nonhorn_choice.cnf", "nonhorn_pair.cnf", "nonhorn_unsat.cnf")
# the golden calls: command words, then the files each input is drawn from
CALLS = [
    (["analyze"], [STRUCTURES]),
    (["types"], [STRUCTURES]),
    (["duality"], [STRUCTURES]),
    (["solve"], [GRAPHS, SENTENCES]),
    (["solve", "--via-p4"], [("p4e.json",), SENTENCES]),
    (["rewrite-ep"], [("p4e.json",), SENTENCES]),
    (["ppdef"], [("k2.json", "k3.json"), ("rel_arc.json", "rel_edge.json", "rel_ne3.json")]),
    (["horn", "classify"], [CNFS]),
    (["horn", "solve"], [CNFS]),
]
N_CALLS = 1200
VALUES = (-1, 3, 300, True, None, 1.5, "x", "E", [], [0], [1, [0]], [[0, 1]], {}, {"E": 2})
CHARACTERS = "()&|=.,#~*+-_ \n0123xyzEUVP4"


def _paths(doc, path=()):
    """Every position in a JSON document: (path to a container, key or index)."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path, key
        yield from _paths(value, path + (key,))


def _value(rng):
    """A small domain element half the time, else a value of another type or size."""
    return rng.randrange(3) if rng.random() < 0.5 else rng.choice(VALUES)


def _mutate_json(rng, doc):
    container_path, key = rng.choice(list(_paths(doc)))
    container = doc
    for step in container_path:
        container = container[step]
    roll = rng.random()
    if roll < 0.15:
        del container[key]
    elif roll < 0.3 and isinstance(container, dict):
        container[rng.choice(["extra", "E", "c", "0"])] = _value(rng)
    elif roll < 0.3:
        container.insert(key, _value(rng))
    else:
        container[key] = _value(rng)
    return json.dumps(doc)


def _mutate_text(rng, text):
    chars = list(text)
    for _ in range(rng.choice([1, 1, 2, 3])):
        at = rng.randrange(len(chars) + 1)
        roll = rng.random()
        if roll < 0.4 or at == len(chars):
            chars.insert(at, rng.choice(CHARACTERS))
        elif roll < 0.7:
            del chars[at]
        else:
            chars[at] = rng.choice(CHARACTERS)
    return "".join(chars)


def test_no_input_reaches_an_internal_error(capsys, tmp_path):
    rng = random.Random(2027)
    codes = set()
    for i in range(N_CALLS):
        words, choices = rng.choice(CALLS)
        names = [rng.choice(files) for files in choices]
        mutated = rng.randrange(len(names))
        paths = []
        for j, name in enumerate(names):
            text = (GOLDEN / name).read_text()
            if j == mutated:
                text = (_mutate_json(rng, json.loads(text)) if name.endswith(".json")
                        else _mutate_text(rng, text))
            path = tmp_path / f"{i}_{j}_{name}"
            path.write_text(text)
            paths.append(str(path))
        fmt = rng.choice(["text", "machine"])
        argv = ["--format", fmt, *words, *paths, "--budget", "20000"]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "internal error" not in err, (argv, err)
        if code == 1:  # a negative verdict
            assert out.strip() and not err, argv
            if fmt == "machine":
                assert json.loads(out)
        codes.add(code)
    assert codes == {0, 1, 2}
