"""One fresh workload process: set up, run the gate, run jobs, report.

Started by run.py with the program's ``src`` on PYTHONPATH and BLAS and
OpenMP limited to one thread.  It prints ``ready`` once imports and inputs
are done, so the parent can time set-up, and prints its result as one JSON
line at the end.

Without tracing it runs jobs until its time slice is used up, and runs
the calibration kernel after set-up and after every job.  With tracing it
runs a fixed number of job pairs, each input once untraced and once
traced, alternating which goes first; the spans of the traced jobs are
written to a file of their own.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    import numpy as np
    import scipy

    import trumpbench
    import workloads
    from calibrate import calibration_seconds

    src = Path(__file__).resolve().parents[1] / "src"
    if not Path(trumpbench.__file__).resolve().is_relative_to(src):
        print(f"trumpbench imported from {trumpbench.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    rng = np.random.default_rng([args.seed, args.index])
    inputs = workload.make_inputs(rng)
    gate_inputs = workloads.gate_inputs(rng)
    print("ready", flush=True)
    calibrations = [calibration_seconds()]

    try:
        attempted, failed, failures = workloads.run_gate(gate_inputs)
    except Exception as exc:  # the program raised inside a gate check
        attempted, failed, failures = 1, 1, [f"gate: {type(exc).__name__}: {exc}"]
    jobs = []

    def run_checked(inp, tracer=None):
        nonlocal attempted, failed
        attempted += 1
        try:
            job = workload.run(inp, tracer)
            errors = workload.check(inp, job)
        except Exception as exc:  # a failed job is counted, not fatal
            job, errors = None, [f"{args.workload}: {type(exc).__name__}: {exc}"]
        failed += bool(errors)
        failures.extend(errors)
        return job

    result = {}
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer(layers.STEP_NAMES)
        counters = {"stop_converged": 0, "stop_budget": 0, "warnings": 0, "grid_cells": 0}
        pairs = max(1, round(args.seconds / (2 * workload.nominal_job_s)))
        untraced_wall = 0.0
        missing: list[str] = []
        for k in range(pairs):
            inp = inputs[k % len(inputs)]
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                installed = layers.Installed(tracer) if traced else None
                try:
                    job = run_checked(inp, tracer if traced else None)
                finally:
                    if installed is not None:
                        installed.remove()
                        missing = installed.missing
                if job is None:
                    continue
                if traced:
                    if "stop" in job.info:
                        counters[f"stop_{job.info['stop']}"] += 1
                    counters["warnings"] += job.warnings
                    counters["grid_cells"] = max(counters["grid_cells"], job.info.get("grid_cells", 0))
                else:
                    untraced_wall += job.wall
        counters["untraced_wall_s"] = untraced_wall
        spans = tracer.spans()
        if args.spans_out is not None:
            tracer.save(args.spans_out)
        result["layers"] = layers.layer_metrics(spans, tracer.names, counters)
        result["missing_sites"] = missing
    else:
        deadline = time.perf_counter() + args.seconds
        k = 0
        while True:
            job = run_checked(inputs[k % len(inputs)])
            k += 1
            calibrations.append(calibration_seconds())
            if job is not None:
                jobs.append(
                    {
                        "wall": job.wall,
                        "evals": job.evals,
                        "cal": 0.5 * (calibrations[-2] + calibrations[-1]),
                        "warnings": job.warnings,
                        **job.info,
                    }
                )
            # Start another job while at least half a typical job fits.
            walls = [j["wall"] for j in jobs] or [workload.nominal_job_s]
            if failed > 3 or time.perf_counter() + 0.5 * float(np.median(walls)) > deadline:
                break

    result.update(
        {
            "jobs": jobs,
            "calibrations": calibrations,
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "versions": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        }
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
