"""Experiment execution: engine dispatch, run directories, parallel sweeps.

Each run writes ``series.csv`` (schema fixed per engine, see ENGINE_COLUMNS),
a ``metadata.json`` sidecar (config echo, code version, wall time, warnings;
for lattice runs also ``batch``: rows in the batch, step count, stepping
wall time), and optionally an SVG plot with its ``.dat`` companion.
Identical (config, seed) pairs produce byte-identical CSVs regardless of the
sweep worker count: cases are keyed and written in sorted order.  A sweep's
numerical abort names its case; the sweep directory is made by its cases'
runs, so an aborted sweep leaves no empty one.

A lattice sweep steps its cases as one batch (``run_lattice_batch``), split
into at most ``workers`` contiguous chunks that run concurrently; a batched
case's ``wall_time_s`` is its chunk's.  Other engines run one case per task.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import __version__
from ..fields import (
    InitialData,
    Mollifier,
    WeightProfile,
    make_initial_grid,
    make_initial_lattice,
)
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
    global_energy,
    global_mass,
    local_energy_probe,
    run_continuum,
)
from ..newton import newton_iterate
from ..errors import NumericsError
from ..timegrid import _check_row, time_grid
from ..wave import WaveState, run_nlw
from .config import ConfigError, ExperimentConfig
from .csvio import write_csv
from .svgplot import write_line_plot

__all__ = ["ENGINE_COLUMNS", "EngineResult", "execute", "run_experiment", "sweep_experiment"]

ENGINE_COLUMNS = {
    "lattice": list(LatticeRunRecord._fields),
    "lattice-linear": ["t0", "adversarial_ratio", "pairing_ok", "ensemble_m2"],
    # continuum appends one local_energy_<i> column per probe
    "continuum": ["t", "sup_abs", "mass", "energy"],
    "nlw": ["t", "sup_abs", "energy"],
    "newton": ["n", "eps_n", "sup_residual", "ratio"],
}

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


def _initial_data(params: dict) -> InitialData:
    kind = params["data.kind"]
    amp = params["data.amplitude"]
    seed = params["data.seed"]
    if kind == "constant":
        return InitialData.constant(amp)
    if kind == "delta":
        return InitialData.delta(amp)
    if kind == "random_phase":
        return InitialData.random_phase(amp, seed)
    if kind == "random_gaussian":
        return InitialData.random_gaussian(amp, seed)
    if kind == "gaussian_comb":
        return InitialData.random_comb(amp, params["data.comb_half_extent"], seed)
    if kind == "periodic":
        return InitialData.periodic(params["data.amplitudes"], params["data.frequencies"])
    if kind == "random_band":
        return InitialData.random_band(amp, params["data.k_band"], seed)
    raise ConfigError(f"invalid value for field 'data.kind': {kind!r}")


def _nlw_velocity(params: dict) -> InitialData:
    """Wave velocity: an independent draw for random_band data, else rest."""
    if params["data.kind"] == "random_band":
        return _initial_data(
            dict(params, **{"data.seed": params["data.seed"] + _NLW_VELOCITY_SEED_OFFSET})
        )
    return InitialData.constant(0.0)


def _lattice_model(params: dict) -> LatticeModel:
    return LatticeModel(
        sign=params["lattice.sign"],
        p=params["lattice.p"],
        extent=params["lattice.extent"],
        dt=params["lattice.dt"],
        coupling=params["lattice.coupling"],
    )


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

    The cases share model, run.t_final and run.record_dt; each row keeps its
    own initial data and weight, and its own records and warnings.
    """
    shared = {(_lattice_model(p), p["run.t_final"], p["run.record_dt"]) for p in cases}
    if len(shared) != 1:
        raise ValueError("a lattice batch needs one model, run.t_final and run.record_dt")
    ((model, t_final, record_dt),) = shared
    specs = [_initial_data(params) for params in cases]
    values = np.stack([make_initial_lattice(spec, model.extent).values for spec in specs])
    weights = [
        WeightProfile(
            x0=params["weight.x0"],
            R=params["weight.R"],
            t0=params["weight.t0"] if params["weight.t0"] is not None else t_final,
        )
        for params in cases
    ]
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
            columns=list(ENGINE_COLUMNS["lattice"]),
            rows=rows,
            warnings=_wrap_warnings(spec, model.extent, t_final),
            summary={"final_sup_abs": rows[-1].sup_abs, "final_mass": rows[-1].global_mass},
            batch=batch,
        ))
    return results


def _run_lattice_engine(params: dict) -> EngineResult:
    return _run_lattice_rows([params])[0]


def _run_lattice_linear_engine(params: dict) -> EngineResult:
    rows = []
    for t0 in params["run.t0_values"]:
        if t0 < 20.0:
            raise ConfigError("run.t0_values entries must be >= 20 (stationary-phase regime)")
        kern = kernel_table(t0)
        extent = max(params["run.extent"], kern.half_width)
        data = adversarial_data(t0, extent, kern)
        evolved = linear_evolve(data, t0)  # builds kernel_table(t0, extent)
        ratio = abs(evolved.at(0)) / np.sqrt(t0)
        ok = pairing_check(t0)
        m2 = random_ensemble_second_moment(
            t0,
            params["ensemble.amplitude"],
            params["ensemble.samples"],
            params["ensemble.seed"],
            kern,
        )
        rows.append((float(t0), float(ratio), bool(ok), float(m2)))
    return EngineResult(columns=list(ENGINE_COLUMNS["lattice-linear"]), rows=rows)


def _mollifier(params: dict) -> Mollifier:
    kind = params["mollifier.kind"]
    if kind == "gaussian":
        return Mollifier.gaussian(params["mollifier.sigma"])
    if kind == "fourier_cutoff":
        return Mollifier.fourier_cutoff(params["mollifier.cutoff"])
    raise ConfigError(f"invalid value for field 'mollifier.kind': {kind!r}")


def _run_continuum_engine(params: dict) -> EngineResult:
    phi = _mollifier(params)
    model = ContinuumModel(
        mollifier=phi,
        box_length=params["continuum.box_length"],
        grid_size=params["continuum.grid_size"],
        dt=params["continuum.dt"],
        sign=params["continuum.sign"],
        coupling=params["continuum.coupling"],
        dealias=params["continuum.dealias"],
    )
    spec = _initial_data(params)
    u0 = make_initial_grid(spec, model.box_length, model.grid_size)
    probes = [LocalEnergyProbe(x0=x0, R=params["probe.R"]) for x0 in params["probe.x0_values"]]
    for probe in probes:
        probe.check_inside(model.box_length)
    traj = run_continuum(u0, model, params["run.t_final"], params["run.record_dt"])
    columns = list(ENGINE_COLUMNS["continuum"]) + [
        f"local_energy_{i}" for i in range(len(probes))
    ]
    rows = []
    # an overflowed diagnostic is reported by _check_row, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i, t in enumerate(traj.times):
            fld = traj.field(i)
            row = [float(t), fld.sup_abs(), global_mass(fld), global_energy(fld, phi)]
            row.extend(local_energy_probe(fld, probe, phi) for probe in probes)
            _check_row(row, columns, "continuum run")
            rows.append(tuple(row))
    return EngineResult(columns=columns, rows=rows)


def _run_nlw_engine(params: dict) -> EngineResult:
    box = params["nlw.box_length"]
    size = params["nlw.grid_size"]
    state = WaveState(
        u=make_initial_grid(_initial_data(params), box, size),
        v=make_initial_grid(_nlw_velocity(params), box, size),
    )
    records, _final = run_nlw(
        state, params["run.t_final"], params["nlw.dt"], params["run.record_dt"], params["nlw.p"]
    )
    return EngineResult(
        columns=list(ENGINE_COLUMNS["nlw"]),
        rows=[tuple(r) for r in records],
    )


def _run_newton_engine(params: dict) -> EngineResult:
    spec = _initial_data(params)
    psi0 = make_initial_grid(spec, params["newton.box_length"], params["newton.grid_size"])
    result = newton_iterate(
        psi0,
        params["newton.t_final"],
        params["newton.dt"],
        r1=params["newton.r1"],
        max_iter=params["newton.max_iter"],
        tol=params["newton.tol"],
    )
    rows = [(r.n, r.eps, r.sup_residual, r.ratio) for r in result.rows]
    warnings = [] if result.converged else [
        f"newton did not converge: sup_residual {rows[-1][2]:.3e} > newton.tol after "
        f"{result.iterations} iterations (newton.max_iter = {params['newton.max_iter']})"]
    return EngineResult(
        columns=list(ENGINE_COLUMNS["newton"]),
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
    (out_dir / "metadata.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    if config.params.get("output.svg"):
        data = np.array([[float(v) for v in row] for row in result.rows])
        if len(data):
            x = data[:, 0]
            ys = {result.columns[1]: data[:, 1]}
            loglog = config.engine in ("lattice", "continuum", "nlw") and np.all(x[1:] > 0)
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


# sweep key -> (target config key per engine)
_SWEEP_TARGETS = {
    "sweep.seeds": {"lattice": "data.seed", "continuum": "data.seed", "nlw": "data.seed",
                    "lattice-linear": "ensemble.seed"},
    "sweep.R": {"lattice": "weight.R", "continuum": "probe.R"},
    "sweep.x0": {"lattice": "weight.x0"},
}


def _case_key(assignment: dict) -> str:
    return "_".join(f"{k.split('.')[-1]}={v}" for k, v in sorted(assignment.items()))


def sweep_experiment(config: ExperimentConfig, out_dir: str | Path, workers: int = 1) -> Path:
    """Expand sweep lists into a deterministic case grid and run them all.

    Cases execute concurrently over immutable configs, lattice cases as
    batched chunks; the summary is keyed and sorted before writing, and a
    batch is bitwise equal to its rows run alone, so the output is
    independent of worker count.  Raises ValueError for workers < 1.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    axes = []
    for sweep_key, targets in _SWEEP_TARGETS.items():
        values = config.params.get(sweep_key) or ()
        if values:
            if config.engine not in targets:
                raise ConfigError(f"{sweep_key} is not applicable to engine {config.engine!r}")
            axes.append((targets[config.engine], list(values)))
    if not axes:
        raise ConfigError("sweep requested but no sweep.* lists are set")
    cases: list[dict] = [{}]
    for key, values in axes:
        cases = [dict(c, **{key: v}) for c in cases for v in values]
    out = Path(out_dir)
    keyed = [(_case_key(a), a) for a in cases]

    def run_chunk(chunk: list) -> None:
        # lattice cases share model, t_final and record_dt (no sweep axis
        # touches them), so a chunk is stepped as one batch
        configs = [config.with_overrides(**a) for _, a in chunk]
        start = time.perf_counter()
        results = _run_lattice_rows(
            [cfg.params for cfg in configs], [f"case {key}" for key, _ in chunk]
        )
        wall = time.perf_counter() - start
        for (key, _), cfg, result in zip(chunk, configs, results):
            _write_outputs(cfg, result, out / key, wall)

    def run_case(case: tuple) -> None:
        key, assignment = case
        try:
            run_experiment(config.with_overrides(**assignment), out / key)
        except NumericsError as exc:
            raise type(exc)(f"{exc} (case {key})") from exc

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
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(run, jobs))
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
    (out / "metadata.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return out
