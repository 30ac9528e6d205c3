"""Experiment execution: engine dispatch, run directories, parallel sweeps.

Each run writes ``series.csv`` (columns fixed per engine), a
``metadata.json`` sidecar (config echo, code version, wall time, warnings;
for lattice runs also ``batch``: rows in the batch, step count, stepping
wall time), and optionally an SVG plot with its ``.dat`` companion, log-log
when the first column is ``t``.
Identical (config, seed) pairs produce byte-identical CSVs regardless of the
sweep worker count: cases are keyed and written in sorted order.  A sweep's
numerical abort or invalid input names its case, and the aborted sweep
removes the directories it made, its cases' and the sweep directory's, and
nothing else.

A lattice sweep steps its cases as one batch (``run_lattice_batch``), split
into at most ``workers`` contiguous chunks that run concurrently; a batched
case's ``wall_time_s`` is its chunk's.  Other engines run one case per task.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import __version__
from ..fields import GridField, InitialData, WeightProfile, _extent, make_initial_grid, make_initial_lattice
from ..lattice import LatticeModel, LatticeRunRecord, run_lattice_batch
from ..lattice_linear import (
    adversarial_data,
    default_half_width,
    kernel_table,
    linear_evolve,
    pairing_check,
    random_ensemble_second_moment,
)
from ..continuum import (
    ContinuumModel,
    LocalEnergyProbe,
    _record_pass,
    run_continuum,
)
from ..newton import newton_iterate
from ..errors import NumericsError
from ..timegrid import _check_row, time_grid
from ..wave import WaveState, run_nlw
from .config import _SWEEP_TARGETS, DATA_KINDS, MOLLIFIER_KINDS, ConfigError, ExperimentConfig
from .csvio import write_csv
from .svgplot import write_line_plot

__all__ = ["EngineResult", "execute", "run_experiment", "sweep_experiment"]

# seed offset for the independent velocity stream of wave data
_NLW_VELOCITY_SEED_OFFSET = 1000003


@dataclass
class EngineResult:
    columns: list[str]
    rows: list[tuple]
    warnings: list[str] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    # lattice runs: rows in the batch, steps, wall time of the batch's stepping
    batch: dict = field(default_factory=dict)


def _build(table: dict, kind_key: str, params: dict):
    """The object of kind ``params[kind_key]``, made from its config keys."""
    make, keys = table[params[kind_key]]
    return make(*(params[key] for key in keys))


def _nlw_velocity(params: dict) -> InitialData:
    """Wave velocity: an independent draw for random_band data, else rest."""
    if params["data.kind"] == "random_band":
        seed = params["data.seed"] + _NLW_VELOCITY_SEED_OFFSET
        return _build(DATA_KINDS, "data.kind", dict(params, **{"data.seed": seed}))
    return InitialData.constant(0.0)


def _section(params: dict, section: str) -> dict:
    """The ``section.*`` entries of ``params``, keyed by the name after the dot."""
    prefix = section + "."
    return {key[len(prefix):]: val for key, val in params.items() if key.startswith(prefix)}


def _wrap_warnings(spec: InitialData, extent: int, t_final: float) -> list[str]:
    if spec.ring_exact:
        return []
    # reach of the lattice kernel over [0, T] (group speed <= 2), tail mass < TAIL_MASS_TOL
    needed = spec.support_radius + default_half_width(t_final)
    if extent >= needed:
        return []
    return [
        f"wrap-margin check: extent {extent} < support + default_half_width(T) = "
        f"{needed:.0f}; wrap-around may contaminate the light cone of the origin"
    ]


def _run_lattice_rows(cases: list[dict], labels: list[str] | None = None) -> list[EngineResult]:
    """Run lattice cases as one batch: one row per case, one Strang loop.

    The cases share model, lattice.extent, run.t_final and run.record_dt; each
    row keeps its own initial data and weight, and its own records and warnings.
    """
    shared = set()
    for p in cases:
        lattice = _section(p, "lattice")
        del lattice["extent"]  # it makes the data
        shared.add((LatticeModel(**lattice), p["lattice.extent"], p["run.t_final"], p["run.record_dt"]))
    if len(shared) != 1:
        raise ValueError("a lattice batch needs one model, lattice.extent, run.t_final and run.record_dt")
    ((model, extent, t_final, record_dt),) = shared
    specs = [_build(DATA_KINDS, "data.kind", params) for params in cases]
    values = np.stack([make_initial_lattice(spec, extent) for spec in specs])
    weights = []
    for params in cases:
        weight = _section(params, "weight")
        if weight["t0"] is None:
            weight["t0"] = t_final
        weights.append(WeightProfile(**weight))
    start = time.perf_counter()
    records, _ = run_lattice_batch(model, values, t_final, record_dt, weights, labels)
    batch = {
        "rows": len(cases),
        "steps": time_grid(t_final, model.dt),
        "stepping_wall_s": time.perf_counter() - start,
    }
    results = []
    for spec, rows in zip(specs, records):
        # the last record holds the diagnostics of the final values
        results.append(EngineResult(
            columns=list(LatticeRunRecord._fields),
            rows=rows,
            warnings=_wrap_warnings(spec, extent, t_final),
            summary={"final_sup_abs": rows[-1].sup_abs, "final_mass": rows[-1].global_mass},
            batch=batch,
        ))
    return results


def _run_lattice_engine(params: dict) -> EngineResult:
    return _run_lattice_rows([params])[0]


def _run_lattice_linear_engine(params: dict) -> EngineResult:
    t0s = params["run.t0_values"]
    kernels = [kernel_table(t0) for t0 in t0s]
    m2s = random_ensemble_second_moment(
        kernels, params["ensemble.amplitude"], params["ensemble.samples"], params["ensemble.seed"]
    )
    rows = []
    for t0, kern, m2 in zip(t0s, kernels, m2s):
        evolved = linear_evolve(adversarial_data(kern), kern)
        ratio = abs(evolved[_extent(kern)]) / np.sqrt(t0)  # site 0
        rows.append((float(t0), float(ratio), bool(pairing_check(t0)), float(m2)))
    columns = ["t0", "adversarial_ratio", "pairing_ok", "ensemble_m2"]
    return EngineResult(columns=columns, rows=rows)


def _run_continuum_engine(params: dict) -> EngineResult:
    phi = _build(MOLLIFIER_KINDS, "mollifier.kind", params)
    model = ContinuumModel(phi, **_section(params, "continuum"))
    spec = _build(DATA_KINDS, "data.kind", params)
    u0 = make_initial_grid(spec, model.box_length, model.grid_size)
    probes = [LocalEnergyProbe(x0=x0, R=params["probe.R"]) for x0 in params["probe.x0_values"]]
    for probe in probes:
        probe.check_inside(model.box_length)
    traj = run_continuum(u0, model, params["run.t_final"], params["run.record_dt"])
    columns = ["t", "sup_abs", "mass", "energy"] + [f"local_energy_{i}" for i in range(len(probes))]
    rows = []
    # an overflowed diagnostic is reported by _check_row, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        table = _record_pass(traj.values, traj.box_length, phi, probes).tolist()
        for t, u, diagnostics in zip(traj.times, traj.values, table):
            row = [float(t), float(np.max(np.abs(u))), *diagnostics]
            _check_row(row, columns, "continuum run")
            rows.append(tuple(row))
    return EngineResult(columns=columns, rows=rows)


def _run_nlw_engine(params: dict) -> EngineResult:
    box = params["nlw.box_length"]
    size = params["nlw.grid_size"]
    specs = (_build(DATA_KINDS, "data.kind", params), _nlw_velocity(params))
    u, v = (make_initial_grid(spec, box, size).values for spec in specs)
    dropped = max(np.max(np.abs(u.imag)), np.max(np.abs(v.imag)))
    warnings = [f"nlw evolves the real part of the data: dropped |Im| up to {dropped:.3g}"] if dropped else []
    state = WaveState(GridField(u.real, box), GridField(v.real, box))
    records, _final = run_nlw(
        state, params["run.t_final"], params["nlw.dt"], params["run.record_dt"], params["nlw.p"]
    )
    return EngineResult(["t", "sup_abs", "energy"], [tuple(r) for r in records], warnings)


def _run_newton_engine(params: dict) -> EngineResult:
    spec = _build(DATA_KINDS, "data.kind", params)
    newton = _section(params, "newton")
    psi0 = make_initial_grid(spec, newton.pop("box_length"), newton.pop("grid_size"))
    result = newton_iterate(psi0, **newton)
    rows = [(r.n, r.eps, r.sup_residual, r.ratio) for r in result.rows]
    warnings = [] if result.converged else [
        f"newton did not converge: sup_residual {rows[-1][2]:.3e} > newton.tol after "
        f"{result.iterations} iterations (newton.max_iter = {params['newton.max_iter']})"]
    return EngineResult(
        columns=["n", "eps_n", "sup_residual", "ratio"],
        rows=rows,
        warnings=warnings,
        summary={
            "converged": result.converged,
            "iterations": result.iterations,
            "amplitude_scale": result.amplitude_scale,
        },
    )


_ENGINE_RUNNERS = {
    "lattice": _run_lattice_engine,
    "lattice-linear": _run_lattice_linear_engine,
    "continuum": _run_continuum_engine,
    "nlw": _run_nlw_engine,
    "newton": _run_newton_engine,
}


def execute(config: ExperimentConfig) -> EngineResult:
    """Run an engine in memory (no files)."""
    return _ENGINE_RUNNERS[config.engine](config.params)


def _write_metadata(out_dir: Path, meta: dict) -> None:
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    (out_dir / "metadata.json").write_text(text, encoding="utf-8")


def _write_outputs(config: ExperimentConfig, result: EngineResult, out_dir: Path, wall: float) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "series.csv", result.columns, result.rows)
    meta = {
        "config": config.echo(),
        "code_version": __version__,
        "wall_time_s": wall,
        "warnings": result.warnings,
        "summary": result.summary,
    }
    if result.batch:
        meta["batch"] = result.batch
    _write_metadata(out_dir, meta)
    if config.params.get("output.svg"):
        data = np.array([[float(v) for v in row] for row in result.rows])
        if len(data):
            x = data[:, 0]
            ys = {result.columns[1]: data[:, 1]}
            loglog = result.columns[0] == "t" and np.all(x[1:] > 0)
            write_line_plot(
                out_dir / "plot.svg",
                x[1:] if loglog else x,
                {k: v[1:] if loglog else v for k, v in ys.items()},
                title=config.engine,
                xlabel=result.columns[0],
                ylabel=result.columns[1],
                loglog=bool(loglog),
            )


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> Path:
    """Execute one run and write its directory; returns the directory path."""
    out = Path(out_dir)
    start = time.perf_counter()
    result = execute(config)
    _write_outputs(config, result, out, time.perf_counter() - start)
    return out


def _case_key(assignment: dict) -> str:
    return "_".join(f"{k.split('.')[-1]}={v}" for k, v in sorted(assignment.items()))


def sweep_experiment(config: ExperimentConfig, out_dir: str | Path, workers: int = 1) -> Path:
    """Expand sweep lists into a deterministic case grid and run them all.

    Cases execute concurrently over immutable configs, lattice cases as
    batched chunks; the summary is keyed and sorted before writing, and a
    batch is bitwise equal to its rows run alone, so the output is
    independent of worker count.  Raises ValueError for workers < 1, and
    ConfigError, before any case runs, for a sweep list that repeats a value
    (two cases would write one directory) or a case value out of range.  A
    case that raises ends the sweep, which then removes the directories this
    call created.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    axes = []
    for sweep_key, targets in _SWEEP_TARGETS.items():
        values = config.params.get(sweep_key) or ()
        if values:
            if len(set(values)) != len(values):
                raise ConfigError(f"{sweep_key} repeats a value: {', '.join(map(str, values))}")
            (target,) = (key for key in targets if key in config.params)
            axes.append((target, list(values)))
    if not axes:
        raise ConfigError("sweep requested but no sweep.* lists are set")
    cases: list[dict] = [{}]
    for key, values in axes:
        cases = [dict(c, **{key: v}) for c in cases for v in values]
    out = Path(out_dir)
    keyed = [(_case_key(a), a) for a in cases]
    # every case's values are parsed and range-checked before any case runs
    configs = {key: config.with_overrides(**a) for key, a in keyed}

    def run_chunk(chunk: list) -> None:
        # lattice cases share model, t_final and record_dt (no sweep axis
        # touches them), so a chunk is stepped as one batch
        start = time.perf_counter()
        keys = [key for key, _ in chunk]
        try:
            results = _run_lattice_rows(
                [configs[key].params for key in keys], [f"case {key}" for key in keys]
            )
        except ValueError as exc:
            raise ValueError(f"{exc} (case{'s' * (len(keys) > 1)} {', '.join(keys)})") from exc
        wall = time.perf_counter() - start
        for (key, _), result in zip(chunk, results):
            _write_outputs(configs[key], result, out / key, wall)

    def run_case(case: tuple) -> None:
        key, _ = case
        try:
            run_experiment(configs[key], out / key)
        except NumericsError as exc:
            raise NumericsError(f"{exc} (case {key})") from exc
        except ValueError as exc:
            raise ValueError(f"{exc} (case {key})") from exc

    if config.engine == "lattice":
        # at most `workers` contiguous chunks, sizes differing by at most one
        n_chunks = min(workers, len(keyed))
        size, extra = divmod(len(keyed), n_chunks)
        bounds = [i * size + min(i, extra) for i in range(n_chunks + 1)]
        jobs = [keyed[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        run = run_chunk
    else:
        jobs = keyed
        run = run_case
    # what this call creates: the missing ancestors of out, deepest first,
    # and the case directories; a failed case removes them, and only them
    made = list(itertools.takewhile(lambda p: not p.exists(), (out, *out.parents)))
    fresh = [out / key for key, _ in keyed if not (out / key).exists()]
    start = time.perf_counter()
    finished = False
    try:
        # the pool's exit waits for running cases, so cleanup follows them
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, jobs))
        finished = True
    finally:
        if not finished:
            for path in fresh:
                shutil.rmtree(path, ignore_errors=True)
            for path in made:
                with contextlib.suppress(OSError):
                    path.rmdir()  # only while empty
    done = sorted(keyed, key=lambda kv: kv[0])
    axis_names = sorted({k for _, a in done for k in a})
    rows = [tuple([key] + [a[name] for name in axis_names]) for key, a in done]
    write_csv(out / "sweep_index.csv", ["case"] + axis_names, rows)
    meta = {
        "config": config.echo(),
        "code_version": __version__,
        "wall_time_s": time.perf_counter() - start,
        "cases": [key for key, _ in done],
    }
    _write_metadata(out, meta)
    return out
