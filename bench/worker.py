"""One workload in one process: set-up, timed passes, inline checks.

Started by run.py, which reads the JSON object this prints last.  Job
times are process CPU seconds around each job's calls into bracelab;
checks run outside the timed region.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("build", "count", "census")


def calibration_loop() -> float:
    """CPU seconds of a fixed pure-Python loop that calls no bracelab code."""
    start = time.process_time()
    acc = 0
    for i in range(2_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.process_time() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--quick", action="store_true", help="tiny inputs")
    parser.add_argument("--trace", metavar="FILE", help="trace the passes, spans to FILE")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    module = importlib.import_module(f"workload_{args.workload}")
    workdir = BENCH / "out" / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs = module.make_jobs(args.seed, args.passes, args.quick, workdir)
        # process_time counts from process start, so this includes
        # interpreter start-up and imports.
        setup_s = time.process_time()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        result = run_passes(jobs, args.passes, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


def run_passes(jobs: list, passes: int, trace_path: str | None) -> dict:
    tracer = None
    if trace_path:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    calibration = [calibration_loop()]
    times: dict[str, list[float]] = {job.name: [] for job in jobs}
    attempted = failed = 0
    errors: list[str] = []
    for pass_index in range(passes):
        for job in jobs:
            span = tracer.open("job:" + job.name) if tracer else None
            start = time.process_time()
            try:
                outcome = job.run(pass_index)
            except Exception as exc:  # recorded and judged by job.verify
                outcome = exc
            times[job.name].append(time.process_time() - start)
            if tracer:
                tracer.close(span, "job:" + job.name)
            attempted += 1
            failed += isinstance(outcome, Exception)
            try:
                errors += job.verify(pass_index, outcome)
            except Exception as exc:  # a check that cannot read the output rejects it
                errors.append(f"{job.name}: check raised {exc!r}")
            del outcome  # large outputs must not raise the next job's peak memory
    calibration.append(calibration_loop())
    result = {
        "job_times": times,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:50],
        "calibration_s": calibration,
    }
    if tracer:
        tracer.write(Path(trace_path))
        result["layers"] = {
            "inclusive": dict(tracer.inclusive),
            "self": dict(tracer.self_time),
            "calls": dict(tracer.calls),
            "perms": dict(tracer.perms),
            "module_self": tracer.module_self(),
        }
    return result


if __name__ == "__main__":
    sys.exit(main())
