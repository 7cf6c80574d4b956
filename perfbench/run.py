"""Cold-process benchmark of supertriplet.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {closure,mde,tables} --seed N \\
        --seconds S --trace {0,1}

Every repetition of a workload is a fresh, single-threaded Python process
(``worker.py``), because every CLI call and every pytest run meets the
package with cold caches.  With ``--trace 0`` the run first starts a few
import-only processes for ``setup_s``, then repeats the workload while the
next repetition still fits in ``--seconds``, and reports the end-to-end
medians.  With ``--trace 1`` it runs the workload once untraced and twice
with the span tracer installed, reports the per-layer metrics, checks that
the exact work counts of the two traced runs agree and runs the tracer's
self-test.

The second-to-last line of output holds the samples and machine details;
the last line is the result: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SELFTEST = os.path.join(HERE, "selftest.py")

WORKLOADS = ("closure", "mde", "tables")
# On tables a request is one cli.main call.  closure and mde make only two
# to four calls of very different cost per process, so there a request is
# one cold workload process, from spawn to exit: one scripted gate check.
PROCESS_REQUESTS = ("closure", "mde")
SETUP_PROCESSES = 5
TRACED_RUNS = 2
DEADLINE_S = 170.0  # every run ends well inside the 180 s a caller allows

THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


class BenchRun:
    def __init__(self, workload: str, seed: int, scratch: str):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.env = dict(os.environ, **THREAD_ENV)
        self.started = time.monotonic()

    def spawn(self, kind: str, trace: int = 0) -> dict:
        """Start one worker process, wait for it and return its JSON line."""
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before the run finished")
        spawned_at = time.monotonic()
        argv = [sys.executable, WORKER, kind, str(self.seed), str(trace), repr(spawned_at), self.scratch]
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{kind} worker exceeded the run deadline") from exc
        wall = time.monotonic() - spawned_at
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{kind} worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        try:
            result = json.loads(lines[-1])
        except ValueError as exc:
            raise BenchError(f"{kind} worker printed no result: {lines[-1][:200]!r}") from exc
        result["wall_s"] = wall
        return result

    def selftest(self) -> bool:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        proc = subprocess.run(
            [sys.executable, SELFTEST], cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=max(remaining, 1.0),
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
        return proc.returncode == 0


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def machine_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy prints its config instead
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": THREAD_ENV,
    }


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def process_checks(reps):
    """(failed, attempted) pairs and failure messages of worker processes."""
    checks = [(len(r["failures"]), r["checks"]) for r in reps]
    failures = [f for r in reps for f in r["failures"]]
    for r in reps:
        if "wrappers" in r:  # an untraced process must carry no tracer wrapper
            checks.append((1 if r["wrappers"] else 0, 1))
            if r["wrappers"]:
                failures.append(f"untraced process has wrappers: {r['wrappers'][:5]}")
    return checks, failures


def untraced(bench: BenchRun, seconds: float):
    setups = [bench.spawn("setup")["setup_s"] for _ in range(SETUP_PROCESSES)]
    reps, longest = [], 0.0
    while True:
        rep = bench.spawn(bench.workload)
        reps.append(rep)
        longest = max(longest, rep["wall_s"])
        if time.monotonic() - bench.started + longest > seconds:
            break
    if bench.workload in PROCESS_REQUESTS:
        latencies = [rep["wall_s"] * 1e3 for rep in reps]
    else:
        latencies = [x for rep in reps for x in rep["latencies_ms"]]
    checks, failures = process_checks(reps)
    metrics = {
        "setup_s": (statistics.median(setups + [rep["setup_s"] for rep in reps]), "s"),
        "run_s": (statistics.median(rep["run_s"] for rep in reps), "s"),
        "cpu_s": (statistics.median(rep["cpu_s"] for rep in reps), "s"),
        "peak_rss_mib": (statistics.median(rep["peak_rss_mib"] for rep in reps), "MiB"),
        "request_p50_ms": (statistics.median(latencies), "ms"),
        "request_p90_ms": (p90(latencies), "ms"),
    }
    samples = {"setup": len(setups) + len(reps), "runs": len(reps), "requests": len(latencies)}
    return metrics, checks, failures, samples, reps


def traced(bench: BenchRun):
    plain = bench.spawn(bench.workload)
    runs = [bench.spawn(bench.workload, trace=1) for _ in range(TRACED_RUNS)]
    checks, failures = process_checks([plain] + runs)
    same_counts = all(r["counts"] == runs[0]["counts"] for r in runs)
    checks.append((0 if same_counts else 1, 1))
    if not same_counts:
        failures.append(f"exact work counts differ between traced runs: {[r['counts'] for r in runs]}")
    selftest_ok = bench.selftest()
    checks.append((0 if selftest_ok else 1, 1))
    if not selftest_ok:
        failures.append("tracer self-test failed")
    metrics = {}
    for name, (_, unit) in runs[0]["layers"].items():
        metrics[name] = (statistics.median(r["layers"][name][0] for r in runs), unit)
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["run_s"] for r in runs) / plain["run_s"],
        "ratio",
    )
    samples = {"untraced_runs": 1, "traced_runs": len(runs), "counts": runs[0]["counts"]}
    return metrics, checks, failures, samples, [plain] + runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "supertriplet", "__init__.py")):
        print("perfbench: no supertriplet sources under src/ in this checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    # the build step: byte-compile once, so that setup_s measures an installed package
    if not compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1):
        print("perfbench: byte-compiling src/ failed", file=sys.stderr)
        return 2

    bench = BenchRun(args.workload, args.seed, scratch)
    load_start = os.getloadavg()
    try:
        if args.trace:
            metrics, checks, failures, samples, reps = traced(bench)
        else:
            metrics, checks, failures, samples, reps = untraced(bench, args.seconds)
        failed, attempted = (sum(c[i] for c in checks) for i in (0, 1))
        if args.trace:
            metrics["failed_ratio"] = (failed / attempted, "ratio")
        reported = {name: unit for name, (_, unit) in metrics.items()}
        if reported != declared_metrics(args.trace):
            raise BenchError(f"reported metrics differ from BENCHMARK.json: {sorted(reported)}")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    machine = dict(machine_info(), loadavg_start=load_start, loadavg_end=os.getloadavg())
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": samples,
        "runs": [
            {k: rep[k] for k in ("setup_s", "run_s", "cpu_s", "peak_rss_mib", "wall_s")} for rep in reps
        ],
        "failures": failures[:20],
        "machine": machine,
    }
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
