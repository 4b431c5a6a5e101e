"""Job runner: one fresh interpreter that runs a workload's jobs.

Usage: python3 bench/worker.py SPEC.json RESULT.json

The spec names the source tree, the job argvs, the run length and whether
to trace.  Each job goes through ``entroscope.cli.main(argv)`` in-process
with stdout captured, exactly as a user's command line would reach it.
Jobs repeat round-robin so that a slow phase of the host falls on every job
alike.  Only the call itself is timed; the report is hashed afterwards for
the byte-reproducibility check.  The result file holds per-repeat times,
exit codes, hashes, the first report of each job, the process's peak
resident memory and, when tracing, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import re
import resource
import sys
import time
import traceback

MIN_ROUNDS = 2
_GENERATED_AT = re.compile(r'^\s*"generated_at": .*$', re.MULTILINE)


def _digest(report: str, csv_path) -> str:
    h = hashlib.sha256(_GENERATED_AT.sub("", report).encode())
    if csv_path and os.path.exists(csv_path):
        with open(csv_path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _import_cli(src: str):
    sys.path.insert(0, src)
    import entroscope
    from entroscope import cli

    origin = os.path.realpath(entroscope.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"entroscope imported from {origin}, not from {src}")
    return cli


def run_jobs(spec: dict, cli, tracer=None) -> dict:
    jobs = spec["jobs"]
    runs = [
        {"name": j["name"], "times": [], "codes": [], "digests": [],
         "report": None, "error": None}
        for j in jobs
    ]
    start = time.perf_counter()
    rounds = 0
    last_round = 0.0
    while rounds < MIN_ROUNDS or (
        time.perf_counter() - start + last_round <= spec["seconds"]
    ):
        round_start = time.perf_counter()
        for job, run in zip(jobs, runs):
            if job.get("csv") and os.path.exists(job["csv"]):
                os.remove(job["csv"])
            gc.collect()
            buf = io.StringIO()
            if tracer is not None:
                tracer.begin_job(job["name"])
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = cli.main(job["argv"])
            except Exception:  # a traceback out of main() is a failed job
                code = None
                run["error"] = traceback.format_exc(limit=-3)
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_job(elapsed)
            text = buf.getvalue()
            run["times"].append(elapsed)
            run["codes"].append(code)
            run["digests"].append(_digest(text, job.get("csv")))
            if run["report"] is None:
                run["report"] = text
                if job.get("csv") and os.path.exists(job["csv"]):
                    with open(job["csv"], encoding="utf-8") as fh:
                        run["csv"] = fh.read()
        rounds += 1
        last_round = time.perf_counter() - round_start
    return {
        "runs": runs,
        "rounds": rounds,
        "measured_s": time.perf_counter() - start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv) -> int:
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    cli = _import_cli(spec["src"])
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    result = run_jobs(spec, cli, tracer)
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write(spec["trace_out"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
