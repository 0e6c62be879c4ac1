"""bracelab benchmark: one workload per call, every output checked.

    python3 bench/run.py --workload build|count|census --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; bracelab is imported from
``src/``.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Full results go to ``bench/out/``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# CPU seconds of one pass on the reference host (see README).  A run makes
# seconds // PASS_SECONDS passes, at least one, so the work in a run is
# fixed by --seconds alone and never by how fast the host happens to be.
PASS_SECONDS = {"build": 33.0, "count": 14.0, "census": 20.0}
SETUP_RUNS = 5
RUN_LIMIT_S = 170.0

# In BENCHMARK.json order.  ".s" is inclusive CPU seconds per pass, ".calls"
# calls per pass, ".perms" the summed orders of the returned permutation
# groups per pass, "<module>.self_s" the module's self time per pass.
PER_LAYER = (
    "groups.make_group.s", "groups.make_group.calls", "algebras.circle_group.s",
    "braces.validate_direct.s", "braces.validate_direct.calls", "braces.validate_via_holomorph.s",
    "braces.is_two_sided.s", "formats.read_brace.s", "groups.automorphism_group.s",
    "groups.automorphism_group.calls", "groups.automorphism_group.perms",
    "groups.generating_sequence.s", "groups.are_isomorphic.s", "braces.brace_automorphism_group.s",
    "hgs.count_hgs.s", "cli.main.s", "groups.holomorph.s", "groups.holomorph.perms",
    "perms.compose.calls", "census.regular_subgroups_of_holomorph.s", "census.classify_braces.s",
    "groups.self_s", "perms.self_s", "braces.self_s", "algebras.self_s", "factorizations.self_s",
    "census.self_s", "hgs.self_s", "formats.self_s", "cli.self_s", "trace.overhead_s",
)


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env.pop("BRACELAB_BUDGET", None)
    return env


def run_worker(args: list[str], deadline: float) -> dict:
    """Run worker.py to completion and return the JSON object it printed last."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker {' '.join(args)} overran the run limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def host_steal_s() -> float | None:
    """Machine-wide steal time so far, from /proc/stat, in seconds."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def end_to_end(result: dict, setups: list[float]) -> dict[str, float]:
    per_job = [statistics.median(t) for t in result["job_times"].values()]
    return {
        "cpu_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }


def per_layer(traced: dict, passes: int, overhead_s: float) -> dict[str, float]:
    layers = traced["layers"]
    out = {}
    for metric in PER_LAYER:
        name, kind = metric.rsplit(".", 1)
        if metric == "trace.overhead_s":
            value = overhead_s
        elif kind == "self_s":
            value = layers["module_self"][name] / passes
        else:
            table = {"s": "inclusive", "calls": "calls", "perms": "perms"}[kind]
            value = layers[table].get(name, 0) / passes
        out[metric] = value
    return out


UNITS = {"s": "s", "calls": "count", "perms": "count", "self_s": "s", "overhead_s": "s",
         "cpu_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[-1]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=tuple(PASS_SECONDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one pass on tiny inputs, to try the checks")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bracelab" / "__init__.py").is_file():
        print(f"error: no bracelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    passes = 1 if args.quick else max(1, int(args.seconds // PASS_SECONDS[args.workload]))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--passes", str(passes)]
    if args.quick:
        common.append("--quick")
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-quick" if args.quick else "")

    try:
        setups = [run_worker(common + ["--setup-only"], deadline)["setup_s"]
                  for _ in range(SETUP_RUNS - 1)]
        steal0, wall0 = host_steal_s(), time.perf_counter()
        result = run_worker(common, deadline)
        wall_s = time.perf_counter() - wall0
        steal1 = host_steal_s()
        setups.append(result["setup_s"])
        metrics = end_to_end(result, setups)
        record = {"workload": args.workload, "seed": args.seed, "passes": passes,
                  "wall_s": wall_s, "setups_s": setups, "untraced": result,
                  "host_steal_s": None if steal0 is None else steal1 - steal0}
        errors = list(result["errors"])
        steal = "unknown" if steal0 is None else f"{steal1 - steal0:.2f} s"
        calibration = ", ".join(f"{c:.3f}" for c in result["calibration_s"])
        print(f"{args.workload}: seed {args.seed}, {passes} pass(es), worker wall {wall_s:.2f} s, "
              f"host steal {steal}, calibration loop {calibration} s CPU")
        if args.trace:
            wall0 = time.perf_counter()
            traced = run_worker(common + ["--trace", str(OUT / f"spans-{tag}.jsonl")], deadline)
            record["traced_wall_s"] = time.perf_counter() - wall0
            overhead = end_to_end(traced, setups)["cpu_s"] - metrics["cpu_s"]
            record["traced"] = traced
            metrics = per_layer(traced, passes, overhead)
            errors += traced["errors"]
            result = traced
            print(f"traced worker wall {record['traced_wall_s']:.2f} s, tracing overhead {overhead:.2f} s CPU")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["metrics"] = metrics
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1))

    for msg in errors:
        print(f"check failed: {msg}")
    print(json.dumps({
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
