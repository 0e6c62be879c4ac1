"""Run one ``bracelab`` command in a child process and check how it ended.

    python scripts/run_cli.py [--out FILE] [--exit CODE] [--max-rss-mb MB]
                              [--address-space-gb GB] -- ARG...

runs ``python -m bracelab.cli ARG...``, echoes its standard output and
error, writes the output to FILE when given, and prints one line with
the exit code, the child's peak resident memory, its wall time and its
CPU time (user plus system).
The runner exits 1 when the child's exit code differs from CODE
(default 0), when either stream holds a ``Traceback`` or when the peak
passes MB; otherwise 0.  ``--address-space-gb`` caps the child's
address space, so that an allocation past it fails as MemoryError in
the child instead of being made.
"""
from __future__ import annotations

import argparse
import resource
import subprocess
import sys
import time


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="file for the command's standard output")
    parser.add_argument("--exit", type=int, default=0, help="expected exit code (default 0)")
    parser.add_argument("--max-rss-mb", type=float, help="largest allowed peak RSS of the child")
    parser.add_argument("--address-space-gb", type=float, help="address-space limit of the child")
    parser.add_argument("args", nargs="+", help="the bracelab command line, after --")
    opts = parser.parse_args(argv)

    def limit() -> None:
        size = int(opts.address_space_gb * 2**30)
        resource.setrlimit(resource.RLIMIT_AS, (size, size))

    start = time.perf_counter()
    child = subprocess.run(
        [sys.executable, "-m", "bracelab.cli", *opts.args],
        capture_output=True,
        text=True,
        preexec_fn=limit if opts.address_space_gb else None,
    )
    seconds = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_mb, cpu = usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime
    if opts.out:
        with open(opts.out, "w") as out:
            out.write(child.stdout)
    sys.stdout.write(child.stdout + child.stderr)
    print(f"exit {child.returncode}, peak RSS {peak_mb:.0f} MB, {seconds:.1f} s, {cpu:.2f} s CPU")
    failures = []
    if child.returncode != opts.exit:
        failures.append(f"expected exit {opts.exit}")
    if "Traceback" in child.stdout + child.stderr:
        failures.append("the command printed a Traceback")
    if opts.max_rss_mb is not None and peak_mb > opts.max_rss_mb:
        failures.append(f"peak RSS above {opts.max_rss_mb:g} MB")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
