"""nlsgrowth benchmark: one command, three workloads, every metric by name.

    python3 perfbench/run.py --workload lattice_long --seed 1 --seconds 38 --trace 0

Runs cycles of one workload back to back, each in a fresh process started
from the checkout's ``src/`` (so lazy caches are paid as ``nlsgrowth run``
users pay them), for about ``--seconds`` seconds, and prints as its last
stdout line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it records the environment.

``--trace 0`` reports the end-to-end metrics over the cycles: means of the
reference-unit timings, medians of set-up time and memory.
Timings other than set-up are given in units of a reference kernel
(``ref``) that this process times right before and right after every cycle:
a fixed numpy/scipy.fft and pure-Python loop that shares no code with the
program.  A shared host's CPU speed drifts by tens of percent within
minutes and slows every kernel alike; dividing each cycle's times by the
mean of its two reference times takes most of that drift out.  The metrics:
``wall_ref`` (process start to verified result), ``setup_s`` (process start
to the first engine call, in seconds as measured), ``point_steps_per_ref``
(integrator steps x points stepped, from the benchmark's own inputs, per
reference unit of ``wall - setup``), ``cpu_ref`` (user+sys of the cycle's
process) and ``peak_rss_mib``.  The line before the result also gives the
medians in seconds.

``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics of the traced ones (see ``spans.py``), the tracing overhead
(traced minus untraced ``wall_s``) and the share of traced wall time that no
span accounts for.

Every check of a cycle is one operation; the repeats of a seed must also
produce byte-identical outputs, one more operation per repeat.  Exits
non-zero without printing a result when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy.fft as sfft

import spans

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("lattice_long", "lattice_ensemble", "grid_engines")  # see workloads.py
WORK = ROOT / ".perfbench"
MIN_CYCLES = 3
CYCLE_TIMEOUT_S = 120.0
RUN_LIMIT_S = 150.0  # start no cycle that could end past this; the hard cap is 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {
    "wall_ref": "ref",
    "setup_s": "s",
    "point_steps_per_ref": "1/ref",
    "cpu_ref": "ref",
    "peak_rss_mib": "MiB",
}
# the rings of lattice_long (a non-fast FFT length) and lattice_ensemble
_REF_LONG = np.exp(1j * np.linspace(0.0, 40.0, 8193))
_REF_SHORT = np.exp(1j * np.linspace(0.0, 4.0, 385))


class BenchError(RuntimeError):
    """The program could not be run; no result is printed."""


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # The engines compute on one thread; an idle BLAS/OpenMP pool would only
    # spin on the other cores and add CPU time and noise to what is measured.
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def environment() -> dict:
    probe = subprocess.run(
        [sys.executable, "-c",
         "import numpy, scipy, scipy.fft; "
         "print(numpy.__version__, scipy.__version__, scipy.fft.get_workers())"],
        env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    numpy_v, scipy_v, workers = probe.stdout.split()
    sha = "unknown"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        if git.returncode == 0:
            sha = git.stdout.strip()
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": numpy_v,
        "scipy": scipy_v,
        "scipy_fft_workers": int(workers),
        "threads": {var: child_env()[var] for var in THREAD_VARS},
        "git_sha": sha,
    }


def out_dir(workload: str, index: int) -> Path:
    return WORK / "work" / f"{workload}-{index}"


def run_cycle(workload: str, seed: int, trace: bool, index: int) -> dict:
    """One cycle in a fresh process; its outputs stay in `out_dir` until
    `run_cycles` has compared them with the first cycle's."""
    out = out_dir(workload, index)
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "job.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace)), "--out", str(out)]
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=CYCLE_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"cycle {index} exceeded {CYCLE_TIMEOUT_S:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"cycle {index} exited with code {proc.returncode}")
    try:
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"cycle {index} printed no report") from exc
    return timed(rep, t_spawn)


def timed(rep: dict, t_spawn: float) -> dict:
    """Add wall and set-up time, both counted from the process spawn."""
    rep["wall_s"] = rep["t_done"] - t_spawn
    rep["setup_s"] = rep["t_setup"] - t_spawn
    return rep


def reference_s() -> float:
    """Wall time of one pass of the reference kernel, about 0.3 s on a
    2-vCPU Xeon VM.  Each of its 30 rounds spends about a third of its time
    on each kind of work the workloads do: FFT pairs and a complex phase
    rotation at a long non-fast length, the same on a short ring where numpy
    call overhead dominates, and a pure-Python loop for interpreter-bound
    set-up and glue."""
    t0 = time.perf_counter()
    for _ in range(30):
        for _ in range(2):
            y = sfft.ifft(sfft.fft(_REF_LONG))
            np.exp(1j * np.abs(y) ** 2) * y
        for _ in range(60):
            y = sfft.ifft(sfft.fft(_REF_SHORT))
            float(np.sum(np.abs(np.exp(1j * np.abs(y) ** 2) * y) ** 2))
        acc = 0
        for i in range(40_000):
            acc += i * i
    return time.perf_counter() - t0


def warm_up() -> None:
    """Import once, untimed, so every timed cycle finds compiled bytecode."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "job.py"), "--workload", "none",
           "--seed", "0", "--out", str(WORK), "--import-only"]
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=CYCLE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("the program cannot be imported from src/")


def run_cycles(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Cycles back to back until the next would end past `seconds` (but at
    least MIN_CYCLES); with tracing, untraced and traced cycles alternate so
    both see the same host conditions.  The reference kernel runs before the
    first cycle and after each; a cycle's `ref_s` is the mean of the two
    around it."""
    reference_s()  # untimed: FFT plans and bytecode
    start = time.monotonic()
    cycles = []
    ref = reference_s()
    min_cycles = 2 * MIN_CYCLES if trace else MIN_CYCLES
    while True:
        traced = trace and len(cycles) % 2 == 1
        cyc = run_cycle(workload, seed, traced, len(cycles))
        ref_after = reference_s()
        cyc["ref_s"] = 0.5 * (ref + ref_after)
        ref = ref_after
        cycles.append(cyc)
        keep_if_changed(workload, seed, cycles)
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / len(cycles)
        if next_end > RUN_LIMIT_S or (len(cycles) >= min_cycles and next_end > seconds):
            break
    return cycles


def keep_if_changed(workload: str, seed: int, cycles: list[dict]) -> None:
    """Delete the last cycle's outputs if they match the first cycle's;
    otherwise copy both to .perfbench/mismatch/ to show what changed."""
    i = len(cycles) - 1
    if i == 0:
        return
    if cycles[i]["digest"] == cycles[0]["digest"]:
        shutil.rmtree(out_dir(workload, i), ignore_errors=True)
        return
    keep = WORK / "mismatch" / f"{workload}-seed{seed}"
    for j in (0, i):
        if out_dir(workload, j).exists():
            shutil.copytree(out_dir(workload, j), keep / f"cycle{j}", dirs_exist_ok=True)
    print(f"perfbench: cycle {i} changed its outputs; both kept in {keep}", file=sys.stderr)


def checks_of(cycles: list[dict]) -> list[tuple]:
    """Every cycle's checks plus one byte-identity check per repeat (c14)."""
    out = []
    first = cycles[0]["digest"]
    for i, cyc in enumerate(cycles):
        out.extend(cyc["checks"])
        if i:
            same = first is not None and cyc["digest"] == first
            out.append(("c14_byte_identical", same, f"cycle {i} vs cycle 0"))
    return out


def end_to_end(cycles: list[dict]) -> dict:
    """Reference-unit timings are means over the cycles: a grid_engines run
    has only five or six, and over ten runs the median of so few spread
    about twice as wide as the mean.  Set-up time and memory are medians."""
    def mean(f):
        return statistics.fmean(f(c) for c in cycles)

    def med(f):
        return statistics.median(f(c) for c in cycles)

    values = {
        "wall_ref": mean(lambda c: c["wall_s"] / c["ref_s"]),
        "setup_s": med(lambda c: c["setup_s"]),
        "point_steps_per_ref": mean(lambda c: c["work"] * c["ref_s"] / (c["wall_s"] - c["setup_s"])),
        "cpu_ref": mean(lambda c: c["cpu_s"] / c["ref_s"]),
        "peak_rss_mib": med(lambda c: c["peak_rss_mib"]),
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def in_seconds(cycles: list[dict]) -> dict:
    """Medians over the cycles in seconds, as measured on this host."""
    return {k: statistics.median(c[k] for c in cycles)
            for k in ("wall_s", "setup_s", "cpu_s", "ref_s")}


def per_layer(cycles: list[dict]) -> dict:
    traced = [c for c in cycles if c["traced"]]
    plain = [c for c in cycles if not c["traced"]]
    values = {k: statistics.median(c["layers"][k] for c in traced) for k in traced[0]["layers"]}
    wall_traced = statistics.median(c["wall_s"] for c in traced)
    wall_plain = statistics.median(c["wall_s"] for c in plain)
    values["trace.overhead_s"] = wall_traced - wall_plain
    values["trace.overhead_share"] = (wall_traced - wall_plain) / wall_plain
    values["trace.unaccounted_share"] = statistics.median(
        (c["wall_s"] - c["covered_s"]) / c["wall_s"] for c in traced
    )
    return {k: {"value": values[k], "unit": spans.UNITS[k]} for k in spans.metric_names()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "nlsgrowth" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        WORK.mkdir(exist_ok=True)
        env = environment()
        warm_up()
        cycles = run_cycles(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / "work", ignore_errors=True)
    checks = checks_of(cycles)
    failed = [c for c in checks if not c[1]]
    for name, _, detail in failed:
        print(f"perfbench: FAILED {name}: {detail}", file=sys.stderr)
    metrics = per_layer(cycles) if args.trace else end_to_end(cycles)
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "cycles": cycles}
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"env": env, "cycles": len(cycles), "seconds": in_seconds(cycles)}))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
