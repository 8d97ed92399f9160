"""cspbench benchmark: seeded CLI job corpora, checked outputs, end-to-end
and per-layer metrics.

    python3 perfbench/run.py --workload template|pp|horn --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`, nothing is installed.  Load model: closed loop, one client, one
process, no threads.  Each run builds its corpus from the seed, then runs
every job once per pass, in a seeded order drawn afresh for each pass,
through `cspbench.cli.main(argv)` with stdout/stderr captured: an untimed
warm-up pass, then timed passes, as many as fit in `--seconds` together
with the warm-up (at least one).
Every output of the warm-up pass is re-checked by perfbench/check.py, and
every later pass must reproduce it byte for byte.

With `--trace 0` the last line of stdout is the result with the end-to-end
metrics; with `--trace 1` one pass runs each job to warm up, untraced and
traced, and the result carries the per-layer metrics.  A wrong output makes the
run exit 1 with "correct": false.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 5

sys.path.insert(0, HERE)
import corpus  # noqa: E402

WHY = {
    "template": "analyze/types/duality on small templates: polymorphism enumeration, cores, "
                "pp-types and obstruction sweeps of many tiny searches plus canonical forms",
    "pp": "ppdef on indicator powers up to 256 elements, plus solve, solve --via-p4 and "
          "rewrite-ep on ep sentences: few large pinned searches, no canonical forms",
    "horn": "horn classify and horn solve on seeded linear CNFs: the only workload for "
            "linear_horn; it runs no structure code at all",
}

KNOWN_LIMITS = [
    "analyze has no flag bounding its obstruction sweep; random n=2 templates with two binary "
    "relations, random n=3 templates and NAE or P4-bearing templates ran for seconds to over 15 "
    "minutes on the seed commit, so random analyze jobs draw from the 42 n=2 templates with one "
    "binary relation other than K2's and at most one singleton unary relation, each of which "
    "finishes in under 0.04 s; the K2-based members are in the fixed core",
    "arity >= 3 templates enter through duality with explicit bounds and through solve/rewrite-ep",
    "duality on a random 3-element template searched the 27-element one-tolerant cube for 80 s "
    "and exhausted the budget (R0 full, R1 = {(1,2),(2,1)}), so random duality jobs use "
    "2-element templates",
    "random ppdef jobs with indicator powers of 64 to 256 elements ran for up to minutes and some "
    "overran the budget; they enter as a fixed list of (template, relation) pairs, and random "
    "ppdef jobs keep powers of at most 9 elements",
    "K3 analyze --max-arity 3 needs about 300 000 candidate assignments per ternary enumeration, "
    "so it fails at this budget; at a larger one it takes 6 s, most of a template pass, so K3 "
    "runs with --max-arity 2",
]

COMMANDS = ("analyze", "solve", "ppdef", "types", "duality", "horn_classify", "horn_solve",
            "rewrite-ep")


def _import_program():
    """Import cspbench from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import cspbench
        from cspbench import cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import cspbench from {SRC}: {exc}")
    if not os.path.abspath(cspbench.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: cspbench was imported from {cspbench.__file__}, not {SRC}")
    return cli


def run_job(main, job):
    """Run one job; returns (seconds, exit code or None, stdout, stderr, error type)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(job["argv"])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed job, never a verdict
        rc, error = None, type(exc).__name__
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue(), error


# Commands for which exit 1 is a negative verdict; the others only exit 0 or 2.
VERDICT_COMMANDS = {"solve", "ppdef", "horn_classify", "horn_solve"}


def failure(job, rc, stdout, error):
    """Why a job failed, or None.  Exit 1 on a verdict command is a
    negative verdict, not a failure."""
    if error is not None:
        return f"exception {error}"
    if rc == 2:
        return "exit 2"
    if rc not in (0, 1) or (rc == 1 and job["command"] not in VERDICT_COMMANDS):
        return f"exit {rc}"
    if job["command"] == "analyze":
        doc = json.loads(stdout)
        errors = sorted(k for k, v in doc.items() if isinstance(v, dict) and "error" in v)
        if errors:
            return "analyze section error: " + ",".join(errors)
    return None


def run_pass(main, jobs, rng):
    """One pass over the corpus in an order drawn from rng; returns (wall
    seconds, per-job results in corpus order).

    A fresh order in every pass spreads each job's runs over the whole run,
    so that the light jobs, which set job_p50_ms, do not all meet the
    machine at the same few moments of each pass."""
    order = list(range(len(jobs)))
    rng.shuffle(order)
    results = [None] * len(jobs)
    t0 = time.perf_counter()
    for i in order:
        results[i] = run_job(main, jobs[i])
    return time.perf_counter() - t0, results


def run_traced_pass(cli, jobs, tracer):
    """Each job once to warm up, then untraced and traced back to back, so
    that both runs see the same machine speed, in alternating order so that
    neither is favoured; returns (untraced results, traced results)."""
    plain, traced = [], []

    def run_traced(i, job):
        tracer.job = i
        tracer.install()
        try:
            traced.append(run_job(cli.main, job))  # the wrapper, once installed
        finally:
            tracer.uninstall()

    for i, job in enumerate(jobs):
        run_job(cli.main, job)
        if i % 2:
            run_traced(i, job)
        plain.append(run_job(cli.main, job))
        if not i % 2:
            run_traced(i, job)
    return plain, traced


def setup(workload, seed):
    """Interpreter start plus import of cspbench, then corpus generation and
    writing, with the working directory at ROOT; repeated, and the median
    reported as setup_s."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import cspbench.cli"], env=env, check=True,
                       cwd=ROOT)
        shutil.rmtree(os.path.join(WORK, workload), ignore_errors=True)
        jobs, files = corpus.build(workload, seed, os.path.relpath(WORK, ROOT))
        corpus.write_files(files)
        times.append(time.perf_counter() - t0)
    return jobs, statistics.median(times)


def percentile_ms(values, q):
    """q-th percentile (1..99) of seconds, in ms; statistics.quantiles, exclusive method."""
    return statistics.quantiles(values, n=100)[q - 1] * 1000.0


def digest(jobs, results) -> str:
    h = hashlib.sha256()
    for job, (_, rc, stdout, _, error) in zip(jobs, results):
        h.update(json.dumps([job["id"], rc, error, stdout]).encode())
    return h.hexdigest()


def check_outputs(jobs, results, check, cnf_sat_fn):
    """(failures by job id, wrong outputs as messages)."""
    failures, wrong = {}, []
    for job, (_, rc, stdout, _, error) in zip(jobs, results):
        why = failure(job, rc, stdout, error)
        if why is not None:
            failures[job["id"]] = why
            continue
        for problem in check.check_job(job, rc, stdout, cnf_sat_fn):
            wrong.append(f"job {job['id']} ({' '.join(job['argv'])}): {problem}")
    return failures, wrong


def run_record(workload, seed, jobs, results, failures, passes, dig) -> dict:
    by_command = collections.Counter(j["command"] for j in jobs)
    shares = {}
    if workload == "pp":
        sizes = [j["props"]["power_size"] for j in jobs if j["command"] == "ppdef"]
        for lo, hi in ((1, 16), (17, 64), (65, 256)):
            shares[f"ppdef power size {lo}-{hi}"] = sum(lo <= s <= hi for s in sizes) / len(sizes)
    if workload == "template":
        analyze = [json.loads(out) for j, (_, rc, out, _, _) in zip(jobs, results)
                   if j["command"] == "analyze" and rc == 0]
        swept = sum(d["fo_definability"].get("verdict", "").startswith("no 1-tolerant")
                    for d in analyze)
        shares["analyze jobs with the bounded obstruction sweep"] = swept / len(analyze)
    if workload == "horn":
        sizes = [j["props"]["clauses"] for j in jobs]
        for lo, hi in ((1, 6), (7, 8), (9, 10)):
            shares[f"CNFs with {lo}-{hi} clauses"] = sum(lo <= s <= hi for s in sizes) / len(sizes)
    return {
        "workload": workload, "why": WHY[workload], "seed": seed, "budget": corpus.BUDGET,
        "python": platform.python_version(), "cores": os.cpu_count(), "passes": passes,
        "jobs": len(jobs), "jobs_by_command": dict(sorted(by_command.items())),
        "property_shares": shares, "output_sha256": dig,
        "failures": dict(sorted(collections.Counter(failures.values()).items())),
        "known_limits": KNOWN_LIMITS,
    }


def end_to_end(job_times, pass_walls, setup_s) -> dict:
    n = len(job_times)
    return {
        "wall_s": (statistics.median(pass_walls), "s"),
        "job_p50_ms": (statistics.median(job_times) * 1000.0, "ms"),
        "job_p90_ms": (percentile_ms(job_times, 90), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, f"{n} jobs, {n - int(0.9 * n)} beyond p90"


def per_command(jobs, results, failures) -> dict:
    out = {}
    for command in COMMANDS:
        idx = [i for i, j in enumerate(jobs) if j["command"] == command]
        times = [results[i][0] for i in idx]
        out[f"cli.{command}.jobs"] = (len(idx), "count")
        out[f"cli.{command}.p50_ms"] = (statistics.median(times) * 1000.0 if times else 0.0, "ms")
        failed = sum(jobs[i]["id"] in failures for i in idx)
        out[f"cli.{command}.fail_frac"] = (failed / len(idx) if idx else 0.0, "ratio")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cli = _import_program()
    import check
    import selftest
    from cspbench.linear_horn import cnf_sat, parse_cnf

    def cnf_sat_fn(job):
        return cnf_sat(parse_cnf(corpus.render_cnf(job["check"]["cnf"])))

    os.chdir(ROOT)
    jobs, setup_s = setup(args.workload, args.seed)
    selftest.run(cli.main, run_job, failure, check)

    # First pass: every output checked.  Later passes must reproduce it.
    warm = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        first, traced = run_traced_pass(cli, jobs, tracer)
        wall = sum(r[0] for r in first)
    else:
        order_rng = random.Random(f"order:{args.seed}")
        warm, first = run_pass(cli.main, jobs, order_rng)
    failures, wrong = check_outputs(jobs, first, check, cnf_sat_fn)
    dig = digest(jobs, first)
    if args.trace:
        walls, times = [wall], [[r[0] for r in first]]
        if digest(jobs, traced) != dig:
            wrong.append("traced output differs from untraced output (nondeterministic output)")
    else:
        # The first pass is a warm-up and is not timed: on `template` it ran
        # up to a quarter slower than the passes after it.  Everything alive
        # now (corpus, first outputs, the benchmark's own modules) is moved
        # out of the collector's sight, so that, as in a fresh CLI process,
        # a job's garbage collections traverse little more than the job's
        # own objects.
        gc.collect()
        gc.freeze()
        # Timed passes, while the next one, judged by the mean so far, ends
        # within --seconds of the start of the warm-up pass; at least one.
        # They keep only their job times, so that memory does not grow with
        # the number of passes.
        walls, times = [], []
        while not walls or warm + sum(walls) + statistics.mean(walls) <= args.seconds:
            w, again = run_pass(cli.main, jobs, order_rng)
            if digest(jobs, again) != dig:
                wrong.append(f"pass {len(walls) + 2} output differs from the warm-up pass "
                             "(nondeterministic output)")
            walls.append(w)
            times.append([r[0] for r in again])
    passes = len(times) + 1

    # The machine's speed drifts over seconds, so each job's time is its
    # median over all timed passes, which are spread over the whole run.
    job_times = [statistics.median(t[i] for t in times) for i in range(len(jobs))]
    record = run_record(args.workload, args.seed, jobs, first, failures, passes, dig)
    print(json.dumps(record, indent=1))
    record["warmup_wall_s"] = warm
    record["pass_walls_s"] = walls
    record["job_seconds"] = {j["id"]: [t[i] for t in times] for i, j in enumerate(jobs)}
    with open(os.path.join(WORK, f"{args.workload}.record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    e2e, sample_note = end_to_end(job_times, walls, setup_s)
    if args.trace:
        metrics = per_command(jobs, first, failures)
        metrics.update(tracer.layer_metrics())
        metrics["trace.overhead_frac"] = (sum(r[0] for r in traced) / wall - 1.0, "ratio")
        spans = os.path.join(WORK, f"{args.workload}.spans.tsv")
        tracer.write_spans(spans)
        print(f"spans: {len(tracer.span_name)} written to {os.path.relpath(spans, ROOT)}")
    else:
        metrics = e2e
    for name, (value, unit) in metrics.items():
        note = f"  ({sample_note})" if name == "job_p90_ms" else ""
        print(f"{name:58s} {value:14.6f} {unit}{note}")
    for line in wrong:
        print(f"WRONG: {line}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": len(jobs) * passes,
        "failed": len(failures) * passes,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
