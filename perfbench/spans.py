"""Outside-in tracing: wrap public functions of nlsgrowth and scipy.fft.

Nothing under ``src/`` knows about this module.  ``install`` replaces each
traced function by a timing wrapper in every module that looks it up: the
defining module (whose globals serve internal calls, e.g. ``run_lattice``
calling its diagnostics) and every module that bound it by ``from``-import
(``harness.runner`` binds ``run_lattice``, ``write_csv``, ...).  The four
``scipy.fft`` transforms are patched on the ``scipy.fft`` module, which every
engine reaches as ``_fft.<name>`` at call time.

A span's self time is its duration minus the time covered by the traced
spans it called.  Work counts (steps, samples, points) are computed from the
call arguments; iteration counts and CSV sizes are read from the results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np
import scipy.fft as sfft


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _steps(t_final: float, dt: float) -> int:
    # the drivers step int(round(t_final / dt)) times
    return int(round(t_final / dt))


def _count_lattice(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    model = a["model"]
    n = _steps(a["t_final"], model.dt)
    tr.counts["lattice.steps"] += n
    tr.counts["lattice.site_steps"] += n * (2 * model.extent + 1)


def _count_continuum(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    model = a["model"]
    n = _steps(a["t_final"], model.dt)
    tr.counts["continuum.steps"] += n
    tr.counts["continuum.point_steps"] += n * model.grid_size


def _count_picard(tr, fn, args, kwargs, result):
    tr.counts["continuum.picard_sweeps"] += result.iterations


def _count_nlw(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n = _steps(a["t_final"], a["dt"])
    tr.counts["wave.steps"] += n
    tr.counts["wave.point_steps"] += n * a["state"].u.size


def _count_cone(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    n = _steps(a["t_final"], a["dt"])
    tr.counts["wave.steps"] += n
    tr.counts["wave.point_steps"] += n * 2 * a["u0"].size  # full and truncated rows


def _count_newton(tr, fn, args, kwargs, result):
    tr.counts["newton.iterations"] += result.iterations


def _count_samples(tr, fn, args, kwargs, result):
    tr.counts["lattice_linear.samples"] += _bound(fn, args, kwargs)["num_samples"]


def _count_csv(tr, fn, args, kwargs, result):
    tr.counts["harness.csv_bytes"] += os.path.getsize(result)


# (span name, defining module, function name, count hook)
TARGETS = [
    ("lattice.run_lattice", "nlsgrowth.lattice", "run_lattice", _count_lattice),
    ("lattice.diag.global_energy", "nlsgrowth.lattice", "global_energy", None),
    ("lattice.diag.local_mass", "nlsgrowth.lattice", "local_mass", None),
    ("lattice.diag.local_energy", "nlsgrowth.lattice", "local_energy", None),
    ("lattice.diag.sup_time_derivative", "nlsgrowth.lattice", "sup_time_derivative", None),
    ("lattice_linear.kernel_table", "nlsgrowth.lattice_linear", "kernel_table", None),
    ("lattice_linear.linear_evolve", "nlsgrowth.lattice_linear", "linear_evolve", None),
    ("lattice_linear.random_ensemble_second_moment", "nlsgrowth.lattice_linear",
     "random_ensemble_second_moment", _count_samples),
    ("lattice_linear.pairing_check", "nlsgrowth.lattice_linear", "pairing_check", None),
    ("fields.make_initial_lattice", "nlsgrowth.fields", "make_initial_lattice", None),
    ("fields.make_initial_grid", "nlsgrowth.fields", "make_initial_grid", None),
    ("continuum.run_continuum", "nlsgrowth.continuum", "run_continuum", _count_continuum),
    ("continuum.picard_solve", "nlsgrowth.continuum", "picard_solve", _count_picard),
    ("continuum.diag.global_mass", "nlsgrowth.continuum", "global_mass", None),
    ("continuum.diag.global_energy", "nlsgrowth.continuum", "global_energy", None),
    ("continuum.diag.local_energy_probe", "nlsgrowth.continuum", "local_energy_probe", None),
    ("continuum.diag.bootstrap_monitor", "nlsgrowth.continuum", "bootstrap_monitor", None),
    ("wave.run_nlw", "nlsgrowth.wave", "run_nlw", _count_nlw),
    ("wave.nlw_cone_test", "nlsgrowth.wave", "nlw_cone_test", _count_cone),
    ("wave.nlw_energy", "nlsgrowth.wave", "nlw_energy", None),
    ("newton.newton_iterate", "nlsgrowth.newton", "newton_iterate", _count_newton),
    ("newton.solve_linearized", "nlsgrowth.newton", "solve_linearized", None),
    ("newton.majorant_norm", "nlsgrowth.newton", "majorant_norm", None),
    ("harness.run_experiment", "nlsgrowth.harness.runner", "run_experiment", None),
    ("harness.sweep_experiment", "nlsgrowth.harness.runner", "sweep_experiment", None),
    ("harness.write_csv", "nlsgrowth.harness.csvio", "write_csv", _count_csv),
    ("harness.parse_config_text", "nlsgrowth.harness.config", "parse_config_text", None),
]

FFT_NAMES = ("fft", "ifft", "rfft", "irfft")

# counts reported as they are; the site/point-step totals only feed the rates
REPORTED_COUNTS = [
    "lattice.steps",
    "continuum.steps",
    "continuum.picard_sweeps",
    "wave.steps",
    "newton.iterations",
    "harness.csv_bytes",
]

LATTICE_DIAG = [n for n, *_ in TARGETS if n.startswith("lattice.diag.")]


class Tracer:
    """In-memory span accounting: calls, inclusive and self time per name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.nested = defaultdict(float)  # (parent, child) -> child inclusive time
        self.counts = defaultdict(float)
        self._stack = []  # [name, time covered by child spans]

    def _enter(self, name):
        self._stack.append([name, 0.0])
        return perf_counter()

    def _leave(self, name, start):
        dur = perf_counter() - start
        _, child = self._stack.pop()
        self.calls[name] += 1
        self.incl[name] += dur
        self.self_time[name] += dur - child
        if self._stack:
            parent = self._stack[-1]
            parent[1] += dur
            self.nested[(parent[0], name)] += dur

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, start)
            if count is not None:
                count(self, fn, args, kwargs, result)
            return result

        return traced

    def wrap_fft(self, fn, real_input: bool, real_output: bool):
        fast = {}
        counts = self.counts

        @functools.wraps(fn)
        def traced(x, n=None, axis=-1, *args, **kwargs):
            start = self._enter("fft")
            try:
                result = fn(x, n, axis, *args, **kwargs)
            finally:
                self._leave("fft", start)
            shape = np.shape(x)
            m = shape[axis]
            length = n if n is not None else (2 * (m - 1) if real_output else m)
            counts["fft.points"] += length * (math.prod(shape) // m if m else 0)
            ok = fast.get(length)
            if ok is None:
                ok = fast[length] = sfft.next_fast_len(length, real=real_input or real_output) == length
            if not ok:
                counts["fft.nonfast_calls"] += 1
            return result

        return traced

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced so far (units in UNITS)."""
        out = {}
        for name, *_ in TARGETS:
            out[f"{name}.calls"] = float(self.calls[name])
            out[f"{name}.self_s"] = self.self_time[name]
        for key in REPORTED_COUNTS:
            out[key] = float(self.counts[key])
        out["fft.calls"] = float(self.calls["fft"])
        out["fft.points"] = float(self.counts["fft.points"])
        out["fft.self_s"] = self.self_time["fft"]
        out["fft.nonfast_calls"] = float(self.counts["fft.nonfast_calls"])

        def per(seconds, work, scale):
            return seconds / work * scale if work else 0.0

        stepping = self.incl["lattice.run_lattice"] - sum(
            self.nested[("lattice.run_lattice", d)] for d in LATTICE_DIAG
        )
        out["lattice.ns_per_site_step"] = per(stepping, self.counts["lattice.site_steps"], 1e9)
        out["continuum.ns_per_point_step"] = per(
            self.incl["continuum.run_continuum"], self.counts["continuum.point_steps"], 1e9
        )
        wave_stepping = (
            self.incl["wave.run_nlw"]
            - self.nested[("wave.run_nlw", "wave.nlw_energy")]
            + self.incl["wave.nlw_cone_test"]
        )
        out["wave.ns_per_point_step"] = per(wave_stepping, self.counts["wave.point_steps"], 1e9)
        out["lattice_linear.us_per_sample"] = per(
            self.incl["lattice_linear.random_ensemble_second_moment"],
            self.counts["lattice_linear.samples"],
            1e6,
        )
        return out

    def covered_s(self) -> float:
        """Total self time of all spans: the part of the run the trace explains."""
        return sum(self.self_time.values())


def _unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith("_calls") or name.endswith(".points"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".ns_per_site_step") or name.endswith(".ns_per_point_step"):
        return "ns"
    if name.endswith(".us_per_sample"):
        return "us"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_share"):
        return "fraction"
    return "count"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    return list(Tracer().metrics()) + ["trace.overhead_s", "trace.overhead_share",
                                       "trace.unaccounted_share"]


UNITS = {name: _unit(name) for name in metric_names()}


def install(tracer: Tracer):
    """Patch every traced name where it is looked up; returns an undo callable."""
    import nlsgrowth.harness  # noqa: F401  (loads every module that binds a target)

    patched = []  # (module, attribute, original)
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "nlsgrowth" or n.startswith("nlsgrowth."))]
    for name, modname, attr, count in TARGETS:
        original = getattr(importlib.import_module(modname), attr)
        wrapped = tracer.wrap(name, original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patched.append((mod, key, original))
                    setattr(mod, key, wrapped)
    for attr in FFT_NAMES:
        original = getattr(sfft, attr)
        patched.append((sfft, attr, original))
        setattr(sfft, attr, tracer.wrap_fft(
            original, real_input=attr == "rfft", real_output=attr == "irfft"
        ))

    def undo():
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)

    return undo
