"""The one time grid and run loop of the lattice, continuum, wave and
Newton engines: every run takes whole steps and ends exactly at t_final,
and every stepped state and recorded diagnostics row is finite."""

import math

import numpy as np

from .errors import NumericsError

__all__ = ["time_grid", "drive"]


def time_grid(t_final: float, dt: float, whole: bool = True) -> int:
    """Number of steps dt from 0 to t_final, where t_final / dt must lie
    within 1e-6 of a whole number (else no last step lands on t_final:
    ValueError).  With whole=False t_final only bounds the run, which takes
    the whole steps with t <= t_final.  ValueError unless dt > 0 and t_final >= 0 are finite."""
    if not (math.isfinite(t_final) and math.isfinite(dt) and dt > 0 and t_final >= 0):
        raise ValueError(f"t_final = {t_final} and dt = {dt} must be finite, dt > 0 and t_final >= 0")
    ratio = t_final / dt
    n_steps = math.floor(ratio + 1e-6)
    if whole and ratio - n_steps > 1e-6:
        raise ValueError(f"t_final = {t_final} is not a whole number of steps dt = {dt} "
                         f"({ratio:.6g} steps): no last step lands on t_final")
    return n_steps


def drive(states, t_final, dt, record_dt, what, labels=None):
    """Run a stepper to t_final; yields (t, state) at the record steps.

    ``states`` yields the state after each step, without end.  The run takes
    time_grid(t_final, dt) of them and records after every
    max(1, round(record_dt / dt))-th step and after the last.  A recorded
    state (an array, or a tuple of same-shape arrays; one run per row when
    2-D) must be finite, else NumericsError names the run ``what`` and its
    first overflowed row by its label (default ``row <b>``)."""
    n_steps = time_grid(t_final, dt)
    every = max(1, int(round(record_dt / dt)))
    for n, state in zip(range(1, n_steps + 1), states):
        if n % every == 0 or n == n_steps:
            finite = np.isfinite(state).all(axis=-1)
            if not finite.all():
                row = int(np.argmin(finite))
                where = f" ({labels[row] if labels else f'row {row}'})" if finite.ndim else ""
                raise NumericsError(f"{what} overflowed near t={n * dt:.3f}{where}")
            yield n * dt, state


def _check_row(row, columns, what, label=None):
    """Raise NumericsError naming the first non-finite entry of a recorded
    diagnostics row (entries named by ``columns``; the first is t), the run
    ``what`` and the row's label."""
    if all(map(math.isfinite, row)):
        return
    name, value = next((c, v) for c, v in zip(columns, row) if not math.isfinite(v))
    where = f" ({label})" if label else ""
    raise NumericsError(f"{what} recorded {name} = {value} at t={row[0]:.3f}{where}")
