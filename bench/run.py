"""Benchmark command: run one workload of trumpbench and print its metrics.

    python3 bench/run.py --workload surrogate --seed 1 --seconds 15 --trace 0

Run it from the root of a source checkout.  Each workload runs in fresh
interpreter processes (bench/worker.py) with BLAS and OpenMP limited to
one thread, one process at a time: a closed loop with one client.

Without tracing, the time is split over several fresh processes; set-up
time is their median, throughput and job wall time are taken over all
their jobs, and peak RSS is their median.  With tracing, one process runs
job pairs (untraced and traced) and reports the per-layer metrics.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with the environment and every failure message, is
written to .bench_out/, and the spans of a traced run go to a file of
their own there.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
PROCESSES = 3
# End-to-end times are reported at the speed where the calibration kernel
# (bench/calibrate.py) takes this long; raw figures go to the record.
CALIBRATION_REF_S = 0.15
READY_TIMEOUT_S = 60.0
RUN_TIMEOUT_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class WorkerError(RuntimeError):
    """A workload process failed to start, crashed or timed out."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_worker(args: list[str], deadline: float) -> tuple[float, dict]:
    """Start one workload process; return (set-up seconds, its result)."""
    cmd = [sys.executable, str(WORKER), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            wait = min(READY_TIMEOUT_S, deadline - time.perf_counter())
            ready = sel.select(timeout=max(0.1, wait)) and proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready != b"ready\n":
            raise WorkerError(f"workload process did not get ready (exit code {proc.poll()})")
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise WorkerError("workload process timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"workload process exited with code {proc.returncode}")
    return setup_s, json.loads(lines[-1])


def environment(versions: dict) -> dict:
    try:
        # Look for a repository at the checkout root only, not above it.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        **versions,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def end_to_end(setups: list[float], results: list[dict], calibrated: bool = True) -> dict[str, float]:
    """End-to-end metrics, with times scaled to the reference box speed.

    Each time is multiplied by CALIBRATION_REF_S over the calibration time
    measured next to it: for a job, the mean of the calibrations just
    before and after it; for set-up, the median calibration of its
    process.  With ``calibrated=False`` they are the raw times.
    """
    jobs = [job for r in results for job in r["jobs"]]
    if not jobs:
        raise WorkerError("no job completed")

    def scale(cal: float) -> float:
        return CALIBRATION_REF_S / cal if calibrated else 1.0

    walls = [j["wall"] * scale(j["cal"]) for j in jobs]
    return {
        "setup_s": statistics.median(
            s * scale(statistics.median(r["calibrations"])) for s, r in zip(setups, results)
        ),
        "evals_per_s": sum(j["evals"] for j in jobs) / sum(walls),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "trumpbench" / "__init__.py").is_file():
        print(f"no trumpbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    deadline = time.perf_counter() + RUN_TIMEOUT_S

    try:
        if args.trace:
            spans_out = out_dir / f"spans-{tag}.npz"
            extra = ["--seconds", str(args.seconds), "--trace", "1", "--spans-out", str(spans_out)]
            setup, result = run_worker(common + extra, deadline)
            setups, results = [setup], [result]
            values, raw = result["layers"], {}
        else:
            setups, results = [], []
            for index in range(PROCESSES):
                extra = ["--index", str(index), "--seconds", str(args.seconds / PROCESSES)]
                setup, result = run_worker(common + extra, deadline)
                setups.append(setup)
                results.append(result)
            values = end_to_end(setups, results)
            raw = end_to_end(setups, results, calibrated=False)
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    failures = [f for r in results for f in r["failures"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    missing = sorted({m["name"] for m in declared} - set(values))
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    warnings_seen = sum(j["warnings"] for r in results for j in r["jobs"])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(results[0]["versions"]),
        "setup_s": setups,
        "failed_share": failed / attempted,
        "warnings": warnings_seen,
        "raw_end_to_end": raw,
        "calibrations_s": [r["calibrations"] for r in results],
        "failures": failures,
        "missing_sites": results[0].get("missing_sites", []),
        "jobs": [r["jobs"] for r in results],
        "metrics": metrics,
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for failure in failures[:20]:
        print(f"FAILED CHECK: {failure}")
    for name, m in metrics.items():
        print(f"{args.workload:<11} {name:<40} {m['value']:>14.6g} {m['unit']}")
    for name, value in raw.items():
        print(f"{args.workload:<11} {'raw_' + name:<40} {value:>14.6g} {metrics[name]['unit']}")
    print(f"{args.workload:<11} {'failed_share':<40} {record['failed_share']:>14.6g} ratio")
    print(f"{args.workload:<11} {'warnings':<40} {warnings_seen:>14d} count")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
