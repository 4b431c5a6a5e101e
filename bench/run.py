#!/usr/bin/env python3
"""entroscope CLI benchmark: one workload, one seed, one JSON line.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload finite-analyze --seed 1 --seconds 50 --trace 0

Workloads: lazy-schreier, finite-analyze, harmonic-rho (see bench/README.md).
With ``--trace 0`` the last line of stdout carries the end-to-end metrics
job_p50_s, jobs_per_s, peak_rss_mb and setup_s; with ``--trace 1`` it
carries the per-layer metrics of a traced run, and the spans go to
bench/out/trace-<workload>-<seed>.json.  Full per-job results go to
bench/out/result-<workload>-<seed>[-trace].json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import jobs as jobs_mod  # noqa: E402
from tracer import UNITS  # noqa: E402

SETUP_SAMPLES = 5
DEADLINE_S = 170  # a run must end within 180 s
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
    " import entroscope.cli; print(time.perf_counter() - t)"
)


def measure_setup(src: str) -> list[float]:
    """Import time of entroscope.cli (numpy and scipy included) in fresh
    interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, src],
            capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_worker(spec: dict, workdir: str, timeout: float) -> dict:
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
        capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs_mod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "entroscope", "cli.py")):
        print(f"no entroscope source tree under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    out_dir = os.path.join(HERE, "out")
    suffix = f"{args.workload}-{args.seed}" + ("-trace" if args.trace else "")
    workdir = os.path.join(out_dir, f"work-{suffix}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        job_list = jobs_mod.make_jobs(args.workload, args.seed, os.path.relpath(workdir, root))
        setup = [] if args.trace else measure_setup(src)
        spec = {
            "src": src,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "trace_out": os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json"),
            "jobs": [{"name": j.name, "argv": j.argv, "csv": j.csv} for j in job_list],
        }
        remaining = DEADLINE_S - (time.perf_counter() - started)
        result = run_worker(spec, workdir, timeout=remaining)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = result["rounds"]
    failed_jobs = 0
    wrong = False
    per_job = []
    for job, run in zip(job_list, result["runs"]):
        findings = checks.check_job(args.workload, job, run)
        failed_jobs += bool(findings)
        wrong |= any(f.kind == "wrong" for f in findings)
        per_job.append({
            "name": job.name,
            "argv": job.argv,
            "times_s": run["times"],
            "mean_s": statistics.fmean(run["times"]),
            "best_s": min(run["times"]),
            "exit": run["codes"][0],
            "findings": [f"{f.kind}: {f.message}" for f in findings],
        })

    means = [j["mean_s"] for j in per_job]
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in UNITS.items()}
    else:
        metrics = {
            "job_p50_s": {"value": statistics.median(means), "unit": "s"},
            "jobs_per_s": {"value": len(means) / sum(means), "unit": "1/s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    summary = {
        "correct": not wrong,
        "attempted": len(job_list) * rounds,
        "failed": failed_jobs * rounds,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, f"result-{suffix}.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(summary, workload=args.workload, seed=args.seed, rounds=rounds,
                       measured_s=result["measured_s"], setup_samples_s=setup, jobs=per_job),
                  fh, indent=1)
    for j in per_job:
        print(f"{j['name']}: mean {j['mean_s']:.3f} s of {len(j['times_s'])}, exit {j['exit']}"
              + "".join(f"; {f}" for f in j["findings"]))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
