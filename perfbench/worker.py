"""One cold benchmark process.

Usage: python3 perfbench/worker.py KIND SEED TRACE SPAWNED_AT SCRATCH

KIND is ``setup`` (import only) or a workload name.  SPAWNED_AT is the
parent's ``time.monotonic()`` just before it started this process, so
``setup_s`` covers interpreter start and the imports of numpy and the
package.  Before that clock is read the process imports nothing the
package itself does not need.  The last line of standard output is one
JSON object.
"""

import os
import sys
import time


def main() -> None:
    kind, seed, trace, spawned_at, scratch = sys.argv[1:6]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(1, os.path.join(root, "src"))

    import numpy  # noqa: F401
    import supertriplet  # noqa: F401
    import supertriplet.cli  # noqa: F401  (imports every layer module)

    setup_s = time.monotonic() - float(spawned_at)

    import json
    import resource

    result = {"setup_s": setup_s}
    if kind != "setup":
        import workloads

        tracer = None
        if trace == "1":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        make_inputs, execute = workloads.WORKLOADS[kind]
        inputs = make_inputs(int(seed))
        cpu0, t0 = os.times(), time.perf_counter()
        run = execute(inputs, scratch)
        t1, cpu1 = time.perf_counter(), os.times()
        result.update(
            run_s=t1 - t0,
            cpu_s=(cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
            peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            latencies_ms=run.latencies_ms,
            checks=len(run.checks),
            failures=[f"{name}: {detail}" for name, ok, detail in run.checks if not ok],
        )
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["counts"] = dict(tracer.counts, lru=tracing.cache_counts())
            tracer.uninstall()
        else:
            import tracer as tracing

            result["wrappers"] = tracing.installed_spans()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
