"""Benchmark of walkcomplement: one command, three workloads, each in its own child process.

    python3 perfbench/run.py --workload dense_n5 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

With ``--trace 0`` it prints the end-to-end metrics (set-up time, wall time,
median job latency, peak RSS) and with ``--trace 1`` the per-layer metrics of
a traced run; both after a provenance line, and last one JSON result line
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 means the
benchmark ran, even if some job failed its output check (``correct`` is then
false); any other code means it could not run, and no result is printed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(ROOT, "perfbench", "child.py")
WORKLOADS = ("dense_n5", "statevector_n12", "verify_sweep")
SPANS = os.path.join(ROOT, "perfbench", ".work", "spans-{}.jsonl")
# Each session is a fresh child process that runs the job list once, as a CLI
# user's session would.  Rounds repeated in one process get faster after the
# first (the allocator keeps the freed operator buffers), so a run that fit one
# more round would read lower.  Sessions also average out how a job's speed
# differs from one process to the next (memory layout, hash seed), by up to
# 10% for the small jobs.  An untraced run makes at least MIN_SESSIONS.
MIN_SESSIONS = 3
# Set-up is timed in every session and in extra set-up-only children up to
# this many, and reported as the median: a single start-up reads anywhere
# from 0.2 to 0.35 s.
SETUP_REPEATS = 5
# A run must end within 180 s; a child still running at this point is killed.
TIME_LIMIT_S = 170


class BenchError(Exception):
    """The benchmark itself could not run."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _child_env() -> dict:
    """Environment for the children, with BLAS threads capped at the CPU count."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, _nproc()))
        except ValueError:
            wanted = _nproc()
        env[var] = str(max(1, min(wanted, _nproc())))
    return env


def _child(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Start one child; return the monotonic time it was started and its JSON report."""
    started = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, CHILD, *argv], stdout=subprocess.PIPE,
                              text=True, env=_child_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv} ran past the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"child {argv} exited with code {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def _mem_total_kb() -> int | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """Run sessions of one workload until ``seconds`` of rounds are measured;
    return its metrics, counts, failures and provenance.

    A traced run alternates untraced and traced sessions, at least one each."""
    argv = ["--workload", name, "--seed", str(seed)]
    setups, plain, traced = [], [], []

    def session(extra: list[str]) -> dict:
        started, report = _child(argv + extra, deadline)
        setups.append(report["ready"] - started)
        return report

    while (len(plain) < (1 if trace else MIN_SESSIONS)
           or sum(r["round_s"] for r in plain + traced) < seconds):
        plain.append(session([]))
        if trace:
            traced.append(session(["--trace", SPANS.format(name)]))
    while not trace and len(setups) < SETUP_REPEATS:
        session(["--setup-only"])

    plain_wall = statistics.median(r["round_s"] for r in plain)
    if trace:
        # median_low keeps a count a whole number when the sessions are even in number
        metrics = {k: (statistics.median_low(r["layers"][k] for r in traced), _layer_unit(k))
                   for k in traced[0]["layers"]}
        traced_wall = statistics.median(r["round_s"] for r in traced)
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1, "ratio")
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (plain_wall, "s"),
            "job_p50_s": (statistics.median(j for r in plain for j in r["job_s"]), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
    sessions = plain + traced
    return {"metrics": metrics, "sessions": len(sessions),
            "attempted": sum(len(r["job_s"]) for r in sessions),
            "failures": [f for r in sessions for f in r["failures"]],
            "functions": traced[-1]["functions"] if trace else None,
            "provenance": plain[0]["provenance"]}


def _layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_frac"):
        return "ratio"
    if metric.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25,
                        help="measure sessions until their rounds add up to this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S * (1 if args.workload != "all" else len(WORKLOADS))
    if not os.path.isfile(os.path.join(ROOT, "src", "walkcomplement", "__init__.py")):
        print("error: no walkcomplement sources under src/ to benchmark", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(len(r["failures"]) for r in results.values())
    metrics = {}
    for name, r in results.items():
        n_fail = len(r["failures"])
        print(f"== {name}: {r['attempted']} jobs in {r['sessions']} sessions, "
              f"fail_ratio {n_fail / r['attempted']:.4g} ({n_fail}/{r['attempted']})")
        for failure in r["failures"][:10]:
            print(f"   FAILED {failure}")
        for metric, (value, unit) in r["metrics"].items():
            print(f"   {metric:32s} {value:14.6g} {unit}")
            key = metric if len(names) == 1 else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        if r["functions"]:
            print(f"   slowest functions of the last traced round (inclusive), spans in "
                  f"{SPANS.format(name)}:")
            for fn, row in list(r["functions"].items())[:8]:
                print(f"     {fn:44s} {row['s']:10.4f} s {row['calls']:8d} calls")
    provenance = dict(next(iter(results.values()))["provenance"], nproc=_nproc(),
                      mem_total_kb=_mem_total_kb(), python=platform.python_version(),
                      commit=_git_commit(), seed=args.seed)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
