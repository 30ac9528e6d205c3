"""Tests of the benchmark itself, at a reduced size.

    python3 -m pytest perfbench

Every metric named in BENCHMARK.json must be emitted with its unit, a
corrupted result fed to a workload's checks must count as a failed
operation, and without the program's source the benchmark must exit
non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import job  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def small_cycles(name: str, tmp_path: Path, trace: bool) -> list[dict]:
    """Two cycles in this process, the second traced when `trace` is set."""
    out = []
    for i in range(2):
        t_spawn = time.monotonic()
        rep = job.cycle(name, 5, tmp_path / f"{name}-{i}", traced=trace and i == 1, small=True)
        out.append(dict(run.timed(rep, t_spawn), ref_s=run.reference_s()))
    return out


def test_workload_names_match():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_metric_emitted_with_unit(name, tmp_path):
    cycles = small_cycles(name, tmp_path, trace=True)
    checks = run.checks_of(cycles)
    assert checks and all(ok for _, ok, _ in checks), [c for c in checks if not c[1]]
    emitted = {**run.end_to_end(cycles), **run.per_layer(cycles)}
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert metric["name"] in emitted, metric["name"]
        assert emitted[metric["name"]]["unit"] == metric["unit"], metric["name"]
        assert np.isfinite(emitted[metric["name"]]["value"]), metric["name"]
    for metric in BENCH["end_to_end"]:
        assert emitted[metric["name"]]["value"] > 0, metric["name"]


def test_times_are_in_reference_units():
    cycle = {"wall_s": 3.0, "setup_s": 1.0, "cpu_s": 2.5, "peak_rss_mib": 80.0, "work": 1000}
    slow_host = [dict(cycle, ref_s=0.5)]
    fast_host = [{**{k: v / 2 for k, v in cycle.items() if k.endswith("_s")},
                  "peak_rss_mib": 80.0, "work": 1000, "ref_s": 0.25}]
    slow, fast = run.end_to_end(slow_host), run.end_to_end(fast_host)
    for name in ("wall_ref", "cpu_ref", "point_steps_per_ref", "peak_rss_mib"):
        assert slow[name]["value"] == pytest.approx(fast[name]["value"]), name
    assert slow["wall_ref"]["value"] == pytest.approx(6.0)
    assert slow["point_steps_per_ref"]["value"] == pytest.approx(250.0)
    assert slow["setup_s"]["value"] == 2 * fast["setup_s"]["value"]


def _corrupt(name: str, result: dict) -> dict:
    bad = dict(result)
    if name == "lattice_long":
        bad["global_mass"] = result["global_mass"] * (1.0 + 1e-9 * np.arange(len(result["global_mass"])))
    elif name == "lattice_ensemble":
        bad["gronwall_ratio"] = result["gronwall_ratio"].copy()
        bad["gronwall_ratio"][0] = 9.0
    else:
        bad["c10_picard_diff"] = 1e-3
    return bad


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_corrupted_result_is_a_failed_operation(name, tmp_path):
    wl = workloads.WORKLOADS[name](5, small=True)
    result = wl.execute(wl.prepare(), tmp_path)
    clean = wl.check(result)
    assert all(c.ok for c in clean)
    corrupted = wl.check(_corrupt(name, result))
    assert len(corrupted) == len(clean)
    assert sum(not c.ok for c in corrupted) == 1


def test_program_error_is_a_failed_operation(tmp_path, monkeypatch):
    def broken(self):
        raise ValueError("corrupted initial data")

    monkeypatch.setattr(workloads.LatticeLong, "prepare", broken)
    rep = job.cycle("lattice_long", 5, tmp_path, traced=False, small=True)
    assert [(name, ok) for name, ok, _ in rep["checks"]] == [("program_error", False)]


def test_changed_output_fails_byte_identity():
    rep = {"checks": [("c", True, "")], "digest": "a"}
    checks = run.checks_of([rep, dict(rep), dict(rep, digest="b")])
    assert [ok for name, ok, _ in checks if name == "c14_byte_identical"] == [True, False]


def test_changed_outputs_are_kept(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    for i in range(3):
        run.out_dir("w", i).mkdir(parents=True)
        (run.out_dir("w", i) / "series.csv").write_text(f"{i}\n")
    cycles = [{"digest": "a"}]
    for digest in ("a", "b"):
        cycles.append({"digest": digest})
        run.keep_if_changed("w", 7, cycles)
    assert not run.out_dir("w", 1).exists()
    kept = tmp_path / "mismatch" / "w-seed7"
    assert sorted(p.name for p in kept.iterdir()) == ["cycle0", "cycle2"]
    assert (kept / "cycle2" / "series.csv").read_text() == "2\n"


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice_long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_seed_makes_the_inputs():
    a, b, c = (workloads.GridEngines(s) for s in (1, 1, 2))
    assert a.seeds == b.seeds != c.seeds
    assert np.array_equal(a.newton_phases, b.newton_phases)
