"""One session of a workload in a fresh process; reports one JSON line.

Started by ``run.py``.  The child imports numpy and walkcomplement from the
checkout's ``src/`` and generates the workload's seeded inputs; it reports
``time.monotonic()`` at that point, so the parent can time set-up from the
moment it started the process.  Unless ``--setup-only`` is given it then runs
the workload's job list once (one round), with every call into
walkcomplement's modules traced if ``--trace`` names a spans file.
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def run_round(jobs, tracer=None) -> dict:
    """Run the job list once; time each job's run, not its check."""
    job_s, failures = [], []
    for job in jobs:
        if tracer is not None:
            tracer.job_id += 1
            tracer.active = True
        start = time.perf_counter()
        try:
            result, error = job.run(), None
        except Exception as exc:  # a failing job is counted, never fatal
            result, error = None, exc
        job_s.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
            tracer.counts["cli.bytes_written"] += _bytes_written(job, result)
        if error is None:
            try:
                job.check(result)
            except Exception as exc:  # a failed check is counted, never fatal
                error = exc
        if error is not None:
            failures.append(f"{job.name}: {type(error).__name__}: {error}")
    return {"round_s": sum(job_s), "job_s": job_s, "failures": failures}


def _bytes_written(job, result) -> int:
    printed = len(result.stdout.encode()) if hasattr(result, "stdout") else 0
    return printed + sum(os.path.getsize(p) for p in job.outputs if os.path.exists(p))


def _provenance() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="SPANS_PATH",
                        help="trace the round and write its spans to this file")
    args = parser.parse_args()

    import numpy  # noqa: F401  (set-up includes importing numpy and walkcomplement)
    import workloads

    workdir = os.path.join(ROOT, "perfbench", ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        jobs = workloads.WORKLOADS[args.workload](args.seed, workdir)
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        out = run_round(jobs, tracer)
        out.update(ready=ready, provenance=_provenance(),
                   peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
        if tracer is not None:
            layers, functions = tracer.layer_metrics()
            layers["trace.attributed_frac"] = sum(
                layers[f"{layer}.self_s"] for layer in tracing.LAYERS) / out["round_s"]
            tracer.dump(args.trace)
            out.update(layers=layers, functions=functions)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
