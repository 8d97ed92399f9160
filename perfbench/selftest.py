"""Self-test of the benchmark's own checking, run before every measurement.

1. A correct certificate passes the checker, and every copy of it with one
   operation-table entry changed is rejected.
2. An exception escaping cli.main is a failed job with its type recorded,
   never a negative verdict.
"""

from __future__ import annotations

import json
import os

import corpus


def run(main, run_job, failure, check):
    root = os.path.join(".perfbench_work", "selftest")
    b = corpus.Builder(root, "ppdef")
    relation = [(0, 1)]
    b.job("ppdef", ["ppdef", "{0}", "{1}"],
          [corpus.struct_input(corpus.K2),
           (".rel.json", json.dumps({"arity": 2, "tuples": [list(t) for t in relation]}))],
          {"structure": corpus.K2, "arity": 2, "tuples": relation})
    corpus.write_files(b.files)
    (job,) = b.jobs

    _, rc, stdout, _, error = run_job(main, job)
    if failure(job, rc, stdout, error) is not None or rc != 1:
        raise SystemExit(f"self-test: K2 ppdef {relation} should be a clean negative verdict, "
                         f"got exit {rc} ({error})")
    if check.check_job(job, rc, stdout, None):
        raise SystemExit("self-test: the checker rejects a correct violating operation")
    doc = json.loads(stdout)
    values = doc["violating_operation"]["values"]
    for i, v in enumerate(values):
        for other in range(corpus.K2[0]):
            if other == v:
                continue
            doc["violating_operation"]["values"] = values[:i] + [other] + values[i + 1:]
            if not check.check_job(job, rc, json.dumps(doc), None):
                raise SystemExit(f"self-test: the checker accepts a violating operation with "
                                 f"entry {i} changed from {v} to {other}")

    def crashing_main(argv):
        raise RuntimeError("injected by the benchmark self-test")

    _, rc, stdout, _, error = run_job(crashing_main, job)
    if failure(job, rc, stdout, error) != "exception RuntimeError":
        raise SystemExit("self-test: an exception escaping cli.main is not counted as a failure")
