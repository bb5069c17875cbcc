"""Planning benchmark: session latency of fresh and incremental planners.

    python3 perfbench/run.py --workload bench-ml --seed 0 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all --seed 0

``--trace 0`` measures the end-to-end metrics: the median set-up time of
several cold starts, then ``--seconds`` of paired rollouts, untraced.
``--trace 1`` measures the per-layer metrics: a fixed number of driver
sessions (sized from ``--seconds``) runs untraced and then again traced; the
two must reach identical decisions, and their wall times give the tracing
overhead.  ``--workload all`` runs the workloads of BENCHMARK.json untraced,
then traced.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run's record (sample counts, decision digest, failures, provenance).
The exit code is 1 when any output check failed.  See README.md.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy is imported, here and in the
# cold-start children, which inherit the environment.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5


def _git_commit() -> str:
    """Commit of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "seed": seed,
    }


def measure_setup(workload: str, seed: int, runs: int = SETUP_RUNS) -> float:
    """Median wall time of ``runs`` cold starts up to the first planning call."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"cold-start probe failed (exit code {code})")
        times.append(elapsed)
    return statistics.median(times)


def run_untraced(workload, seed: int, seconds: float) -> dict:
    from loop import run_pass
    from summary import decision_digest, end_to_end

    setup_s = measure_setup(workload.name, seed)
    p = run_pass(workload, seed, seconds=seconds)
    if not p.sessions:
        raise RuntimeError("no session completed inside the window")
    metrics, counts = end_to_end(p.sessions, p.wall_s, p.attempted,
                                 p.failed_rollouts, setup_s)
    k = min(workload.trace_sessions(seconds), len(p.sessions))
    return {"metrics": metrics, "counts": counts,
            "digest": decision_digest(p.sessions[:k]), "digest_sessions": k,
            "attempted": p.attempted, "failed": p.failed_rollouts,
            "failures": p.failures}


def run_traced(workload, seed: int, seconds: float) -> dict:
    from loop import run_pass
    from spans import Tracer
    from summary import decision_digest, per_layer

    k = workload.trace_sessions(seconds)
    plain = run_pass(workload, seed, max_sessions=k)
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(workload, seed, max_sessions=k, tracer=tracer)
    digest = decision_digest(plain.sessions)
    failures = plain.failures + traced.failures
    failed = plain.failed_rollouts + traced.failed_rollouts
    if decision_digest(traced.sessions) != digest:
        failures.append("traced and untraced runs decided differently")
        failed += 1
    metrics = per_layer(tracer.sums, traced.sessions, plain.sessions,
                        traced.snapshot_s, traced.snapshot_bytes,
                        traced.wall_s / plain.wall_s - 1.0)
    return {"metrics": metrics, "counts": {"sessions": 2 * len(traced.sessions),
                                           "rollouts": traced.attempted},
            "digest": digest, "digest_sessions": len(plain.sessions),
            "attempted": plain.attempted + traced.attempted, "failed": failed,
            "failures": failures}


def _print_metrics(label: str, run: dict, spec: dict) -> None:
    for name, (value, unit) in run["metrics"].items():
        better = spec.get(name, "")
        print(f"{label:9s} {name:42s} {value:14.6g} {unit:10s} {better}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=56.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ixbsp").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import GATED, WORKLOADS

    if args.workload == "all":
        plan = [(WORKLOADS[name], t) for t in (0, 1) for name in GATED]
    elif args.workload in WORKLOADS:
        plan = [(WORKLOADS[args.workload], args.trace)]
    else:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {list(WORKLOADS)} or 'all'")
    spec = {}
    bench_json = ROOT / "BENCHMARK.json"
    if bench_json.is_file():
        raw = json.loads(bench_json.read_text())
        spec = {m["name"]: f"({m['better']} is better)"
                for m in raw["end_to_end"] + raw["per_layer"]}

    runs = []
    for workload, trace in plan:
        run = (run_traced if trace else run_untraced)(
            workload, args.seed, args.seconds)
        run.update(workload=workload.name, trace=trace)
        runs.append(run)
        _print_metrics(workload.name, run, spec)
        for failure in run["failures"]:
            print(f"check failed: {workload.name}: {failure}", file=sys.stderr)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if args.workload == "all":
        # the untraced window's first sessions are the traced run's sessions
        for plain, traced in zip(runs[:len(GATED)], runs[len(GATED):]):
            k = plain["digest_sessions"]
            if k == traced["digest_sessions"] and plain["digest"] != traced["digest"]:
                print(f"check failed: {plain['workload']}: untraced and traced "
                      "runs decided differently", file=sys.stderr)
                failed += 1
        metrics = {f"{r['workload']}/{name}": {"value": v, "unit": u}
                   for r in runs for name, (v, u) in r["metrics"].items()}
    else:
        metrics = {name: {"value": v, "unit": u}
                   for name, (v, u) in runs[0]["metrics"].items()}

    record = {
        "seconds": args.seconds,
        "runs": [{key: r[key] for key in ("workload", "trace", "counts",
                                          "digest", "digest_sessions",
                                          "failures")} for r in runs],
        "provenance": provenance(args.seed),
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
