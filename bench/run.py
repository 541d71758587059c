"""Benchmark of the weakcp engine, end to end and per layer.

Usage, from the repository root::

    python3 bench/run.py --workload {fixtures,scale,mine} --seed N \\
        --seconds S --trace {0,1}

Each workload runs as a closed loop in one process and one thread: a job
is one in-process ``weakcp.cli.main([...])`` call, and the next job starts
when the previous one returns.  A pass runs the workload's fixed job list
once.  A run makes the workload's ``TAIL_PASSES`` passes, and more until
``--seconds`` have gone by.  Every job's exit code, stdout and stderr are
checked, against ``bench/golden.json`` or against invariants where the
input depends on the seed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` they
are its per-layer metrics, taken from one traced pass run after the
untraced ones (see ``bench/tracer.py``).  A line before it records the
environment.  The same record, with per-pass figures, is written to
``.bench_out/``.  The command exits 1 when any output is wrong.

Workloads (why each was chosen is in ``BENCHMARK.json`` and README.md):

* ``fixtures``: every subcommand of ``cli._HANDLERS`` on every committed
  ``fixtures/*.json``, every other one with ``--json``, in an order
  shuffled by the seed;
* ``scale``: eleven subcommands on two quantum-plane law triples with
  one 3-dimensional factor, over GF(5) and Q, with twists picked by the
  seed;
* ``mine``: random ``mine-wdl`` searches over GF(3), with search seeds
  that the seed draws from a fixed pool, then the exhaustive search over
  GF(2).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
GOLDEN = os.path.join(BENCH, "golden.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

for _p in (os.path.join(ROOT, "scripts"), os.path.join(ROOT, "src"), BENCH):
    if _p not in sys.path:
        sys.path.insert(0, _p)

from tracer import Tracer  # noqa: E402  (needs BENCH on sys.path)

SETUP_REPEATS = 16
TAIL_SAMPLES = 10  # samples that must lie above the reported tail
# Passes whose latencies make up the tail sample, and the fewest passes a
# run makes.  A fixed sample keeps job_tail_ms on the same job however
# fast the engine is.  Seven passes put the tail in the middle of the
# second-slowest job's seven samples, not at the edge of a group, where it
# would follow the host's fastest or slowest moment: on fixtures the
# flip_triple iso job, below the seven flip_triple_q ones; on scale the
# GF(5) iso job, below the seven over Q.  mine: 2 exhaustive samples, the
# tail the ninth-slowest of the 40 random searches.
TAIL_PASSES = {"fixtures": 7, "scale": 7, "mine": 2}

SCALE_COMMANDS = (
    "check-quadruple", "build-wcp", "check-preunit", "check-link",
    "check-twisting", "iterate", "iterated-preunit", "iso",
    "check-wreath", "check-dl", "check-wdl",
)
# (label, field, dimensions of A, B, C, twists q outside {0, 1} to pick
# from).  The seed only picks among twists that cost the same: where the
# 3-dimensional factor sits moves the latency of the mid-sized jobs by up
# to 70 %, and over Q so does the size of q (iterate takes 160 ms with
# q = 1/2, 195 ms with q = 2 and 207 ms with q = 3), while the sign of q
# and every twist over GF(5) leave the costs as they are.
SCALE_TRIPLES = (
    ("gf5", 5, (3, 2, 2), (2, 3, 4)),
    ("q", 0, (2, 2, 3), (2, -2)),
)
MINE_RANDOM_JOBS = 20
MINE_RANDOM_BUDGET = 1000
# Search seeds with a golden each.  Over GF(3) a law is so rare that these
# searches report none; they measure the candidates the predicate
# rejects, and the exhaustive job checks the laws it accepts.
MINE_SEED_POOL = range(1, 49)
MINE_EXHAUSTIVE = ["mine-wdl", "--field", "2", "--dims", "2,2",
                   "--exhaustive", "--json"]


# ---------------------------------------------------------------------------
# Jobs and workloads
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Job:
    """One ``cli.main`` call.

    ``key`` is the argument list with paths relative to the root; jobs
    without their own ``check`` are compared with the golden under it.
    """

    key: str
    argv: list
    check: object = None  # callable(exit code, stdout, stderr) -> error or None


def import_engine():
    """Import the engine afresh, so that each set-up pays for the import."""
    for name in list(sys.modules):
        if name in ("weakcp", "generate_workspaces") or name.startswith("weakcp."):
            del sys.modules[name]
    return {
        name: importlib.import_module(name)
        for name in ("weakcp.cli", "weakcp.fields", "weakcp.fixtures",
                     "weakcp.kernel", "weakcp.mine", "generate_workspaces")
    }


def _rel(path):
    return os.path.relpath(path, ROOT)


def fixture_jobs(eng, seed):
    """(warm-up job, shuffled job list) of the ``fixtures`` workload."""
    files = sorted(
        os.path.join(ROOT, "fixtures", f)
        for f in os.listdir(os.path.join(ROOT, "fixtures"))
        if f.endswith(".json")
    )
    jobs = []
    for fi, path in enumerate(files):
        for ci, cmd in enumerate(eng["weakcp.cli"]._HANDLERS):
            flags = ["--json"] if (fi + ci) % 2 else []
            jobs.append(Job(" ".join([cmd, _rel(path)] + flags),
                            [cmd, path] + flags))
    warmup = jobs[0]
    random.Random(seed).shuffle(jobs)
    return warmup, jobs


def _scale_check(cmd, rank, first_digest):
    """Invariants of a ``scale`` job, whose input depends on the seed."""
    def check(code, out, err):
        if code != 0:
            return f"exit {code}, expected 0"
        if err:
            return "stderr is not empty"
        digest = _sha256(out)
        if first_digest.setdefault(cmd, digest) != digest:
            return "output differs from the first pass"
        doc = json.loads(out)
        if doc.get("ok") is not True:
            return '"ok" is not true'
        if cmd == "iso":
            ranks = [s.get("rank") for s in doc["sections"]]
            if not ranks or any(r != rank for r in ranks):
                return f"iso ranks {ranks}, expected {rank}"
        return None
    return check


def scale_jobs(eng, seed):
    """(warm-up job, job list) of the ``scale`` workload.

    Builds the two law triples from the public builders, with twists
    picked by the seed, and writes them as workspaces under
    ``.bench_out/work``.
    """
    fields, fx = eng["weakcp.fields"], eng["weakcp.fixtures"]
    gen = eng["generate_workspaces"]
    rng = random.Random(seed)
    work = os.path.join(OUT, "work")
    os.makedirs(work, exist_ok=True)
    jobs = []
    for label, p, dims, twists in SCALE_TRIPLES:
        field = fields.GF(p) if p else fields.QQ
        q = rng.choice(twists)
        a, b, c = (fx.truncated_polynomial_algebra(n, d, field)
                   for n, d in zip("ABC", dims))
        t = fx.LawTriple(a, b, c, l1=fx.q_twist(b, a, q),
                         l2=fx.q_twist(c, b, q), l3=fx.q_twist(c, a, q),
                         weak=False)
        ws = gen.add_wreath(gen.triple_workspace(t, f"plane-{label}"), t)
        path = os.path.join(work, f"scale-{label}.json")
        with open(path, "w") as fh:
            json.dump(ws, fh, indent=2, sort_keys=True)
        digests = {}
        for cmd in SCALE_COMMANDS:
            jobs.append(Job(f"{cmd} {_rel(path)} --json",
                            [cmd, path, "--json"],
                            _scale_check(cmd, math.prod(dims), digests)))
    return jobs[0], jobs


def _mine_random_check(eng):
    """Invariants of a random ``mine`` job, checked after its golden."""
    fields, fx, mine = eng["weakcp.fields"], eng["weakcp.fixtures"], eng["weakcp.mine"]
    field = fields.GF(3)
    a = fx.diagonal_algebra("S", 2, field)
    b = fx.diagonal_algebra("T", 2, field)

    def check(code, out, err):
        doc = json.loads(out)
        if doc["total"] != len(doc["laws"]):
            return "total does not match the laws listed"
        for law in doc["laws"]:
            lam = mine.law_from_code(a, b, law["code"])
            if not fx.check_wdl(a, b, lam).ok:
                return f"law {law['code']} fails check_wdl"
        return None
    return check


def mine_random_argv(k):
    return ["mine-wdl", "--field", "3", "--dims", "2,2", "--seed", str(k),
            "--budget", str(MINE_RANDOM_BUDGET), "--json"]


def mine_jobs(eng, seed):
    """(warm-up job, job list) of the ``mine`` workload."""
    check = _mine_random_check(eng)
    jobs = []
    for k in random.Random(seed).sample(MINE_SEED_POOL, MINE_RANDOM_JOBS):
        argv = mine_random_argv(k)
        jobs.append(Job(" ".join(argv), argv, check))
    jobs.append(Job(" ".join(MINE_EXHAUSTIVE), list(MINE_EXHAUSTIVE)))
    return jobs[0], jobs


WORKLOADS = {"fixtures": fixture_jobs, "scale": scale_jobs, "mine": mine_jobs}


# ---------------------------------------------------------------------------
# Running and checking
# ---------------------------------------------------------------------------


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def run_job(cli, job):
    """(exit code, stdout, stderr) of one in-process ``cli.main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a wrong output, not a crash
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check_output(job, code, out, err, golden):
    """An error message when the job's output is wrong, else None.

    A job is compared with its golden if it has one, then with its own
    invariants if it has them; it needs one or the other.
    """
    want = golden.get(job.key)
    if want is None and job.check is None:
        return "no golden output"
    if want is not None:
        if code != want["exit"]:
            return f"exit {code}, expected {want['exit']}"
        if _sha256(out) != want["sha256"]:
            return "stdout differs from the golden"
        if _sha256(err) != want["stderr_sha256"]:
            return "stderr differs from the golden"
    return job.check(code, out, err) if job.check is not None else None


@dataclasses.dataclass
class Pass:
    wall: float
    cpu: float
    latencies: list
    outputs: list  # (exit code, stdout, stderr) per job


def run_pass(cli, jobs, tracer=None):
    latencies, outputs = [], []
    clock = time.perf_counter
    w0, c0 = clock(), time.process_time()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t0 = clock()
        outputs.append(run_job(cli, job))
        latencies.append(clock() - t0)
    return Pass(clock() - w0, time.process_time() - c0, latencies, outputs)


def check_pass(jobs, p, golden):
    return [
        f"{job.key}: {msg}"
        for job, (code, out, err) in zip(jobs, p.outputs)
        if (msg := check_output(job, code, out, err, golden)) is not None
    ]


def tail(latencies):
    """(value, percentile, sample count) of the highest percentile that
    still has TAIL_SAMPLES samples above it (the maximum if too few)."""
    xs = sorted(latencies)
    k = len(xs) - 1 - (TAIL_SAMPLES if len(xs) > TAIL_SAMPLES else 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def environment(seed):
    commit = None  # outside a git checkout
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "backend": sys.modules["weakcp.kernel"].BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "git_commit": commit,
    }


def measure(workload, seed, seconds, trace, limit=None):
    """Run one benchmark and return its full record.

    ``limit`` keeps only the first jobs of the list; the smoke test uses
    it for a tiny run.
    """
    setup_times, failures = [], []

    def set_up():
        """One timed set-up: imports, inputs, goldens and a warm-up job."""
        t0 = time.perf_counter()
        eng = import_engine()
        golden = load_golden()
        warmup, jobs = WORKLOADS[workload](eng, seed)
        code, out, err = run_job(eng["weakcp.cli"], warmup)
        setup_times.append(time.perf_counter() - t0)
        msg = check_output(warmup, code, out, err, golden)
        if msg is not None:
            failures.append(f"warm-up {warmup.key}: {msg}")
        return eng["weakcp.cli"], golden, jobs

    # Half the set-ups run before the passes and half after them, so that
    # setup_s samples the host's speed at both ends of the run.
    for _ in range(SETUP_REPEATS // 2):
        cli, golden, jobs = set_up()
    if limit is not None:
        jobs = jobs[:limit]
    attempted = SETUP_REPEATS

    passes = []
    start = time.perf_counter()
    while (len(passes) < TAIL_PASSES[workload]
           or time.perf_counter() - start < seconds):
        p = run_pass(cli, jobs)
        failures += check_pass(jobs, p, golden)
        attempted += len(jobs)
        passes.append(p)
    for _ in range(SETUP_REPEATS - SETUP_REPEATS // 2):
        # The traced pass runs on the engine now in sys.modules, which the
        # tracer wraps.  The job list stays, with its checks' state.
        cli, _, _ = set_up()

    record = {
        "workload": workload,
        "trace": trace,
        "env": environment(seed),
        "jobs_per_pass": len(jobs),
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
    }
    latencies = [x for p in passes for x in p.latencies]
    t_value, t_pct, t_n = tail(
        [x for p in passes[:TAIL_PASSES[workload]] for x in p.latencies])
    pass_s = statistics.median(p.wall for p in passes)
    if trace:
        tracer = Tracer()
        tracer.install()
        try:
            tp = run_pass(cli, jobs, tracer)
        finally:
            tracer.uninstall()
        failures += check_pass(jobs, tp, golden)
        attempted += len(jobs)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = tp.wall - pass_s
        record["traced_pass_wall_s"] = tp.wall
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"spans-{workload}")  # replaces the last one
        tracer.write_spans(stem, [job.key for job in jobs])
        record["spans"] = _rel(stem) + ".bin"
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pass_s": pass_s,
            "pass_cpu_s": statistics.median(p.cpu for p in passes),
            "job_p50_ms": 1e3 * statistics.median(latencies),
            "job_tail_ms": 1e3 * t_value,
            "ok_ratio": (attempted - len(failures)) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    record.update({
        "setup_s": setup_times,
        "job_tail": {"percentile": t_pct, "samples": t_n,
                     "above": TAIL_SAMPLES if t_n > TAIL_SAMPLES else 0},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
    })
    return record


def result_line(record, spec):
    """The final JSON line: every metric of the run's kind, with its unit."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    values = record["metrics"]
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {kind}: "
            f"missing {sorted(set(units) - set(values))}, "
            f"extra {sorted(set(values) - set(units))}"
        )
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    })


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    with open(SPEC) as fh:
        spec = json.load(fh)
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(OUT, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1)
    for msg in record["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"{args.workload}: {record['passes']} passes of "
          f"{record['jobs_per_pass']} jobs, tail at "
          f"p{record['job_tail']['percentile']:.1f} of "
          f"{record['job_tail']['samples']} samples")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(result_line(record, spec))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
