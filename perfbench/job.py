"""One cycle of one workload, in a fresh process: set up, run, check, report.

Started by ``run.py``; prints one JSON line on stdout with CLOCK_MONOTONIC
stamps (shared with the parent process, which recorded the spawn time), the
checks, the output digest, own-process CPU time and peak RSS, and, when
traced, the per-layer metrics.  Exits non-zero only when the program cannot
be imported from the checkout's ``src/``; failed checks and engine errors
are reported as failed operations.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    import nlsgrowth

    if Path(nlsgrowth.__file__).resolve().parent != ROOT / "src" / "nlsgrowth":
        raise ImportError(f"nlsgrowth imported from {nlsgrowth.__file__}, not from {ROOT / 'src'}")


def cycle(workload: str, seed: int, out: Path, traced: bool, small: bool = False) -> dict:
    """Run one cycle in this process; tracing wrappers are removed afterwards."""
    import spans
    import workloads

    tracer = spans.Tracer() if traced else None
    undo = spans.install(tracer) if traced else None
    try:
        wl = workloads.WORKLOADS[workload](seed, small=small)
        t_setup = None
        try:
            prepared = wl.prepare()
            t_setup = time.monotonic()
            result = wl.execute(prepared, out)
            checks = [(c.name, c.ok, c.detail) for c in wl.check(result)]
            digest = wl.digest(result)
        except Exception:  # a program error is a failed operation, not a crash
            checks = [("program_error", False, traceback.format_exc(limit=4))]
            digest = None
        t_done = time.monotonic()
        if t_setup is None:
            t_setup = t_done
    finally:
        if undo is not None:
            undo()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "t_setup": t_setup,
        "t_done": t_done,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
        "work": wl.work(),
        "checks": checks,
        "digest": digest,
        "traced": traced,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics()
        report["covered_s"] = tracer.covered_s()
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--import-only", action="store_true")
    args = ap.parse_args(argv)
    try:
        _import_program()
        import workloads  # noqa: F401  (imports the whole public API)
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if not args.import_only:
        print(json.dumps(cycle(args.workload, args.seed, Path(args.out), bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
