"""Cubic nonlinear wave equation demo: finite speed of propagation.

u_tt - u_xx + u^(2p+1) = 0 with real data (u0, u1); p = 1 is the cubic case.
Time stepping is Stormer-Verlet (velocity form) with the spatial derivative
taken spectrally on the periodic grid (real FFT).  One Verlet loop serves
``run_nlw`` (one field) and ``nlw_cone_test`` (a two-row batch of the full
and the truncated data, along the last axis); it copies u and v once, steps
them in place and yields the same two arrays after every step (the stepper
contract of the continuum module).  ``run_nlw`` records sup|u| and the
energy from those live arrays; ``WaveState`` is its input and final output.
The conserved energy is

    E = 1/2 int u_x^2 + 1/2 int u_t^2 + 1/(2p+2) int u^(2p+2).

The cone test, for the cubic equation, truncates the data outside the
backward light cone of (T, 0) with the chi cutoff and checks that the
solution sampled at the origin is unchanged for t <= T.  ``coupling`` scales
the nonlinear force; 0 gives the free wave equation for linear cross-checks.

The contract rejects dt > h; the sharp spectral stability bound is the
slightly stricter dt <= 2h/pi, and shipped runs stay at dt <= h/4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _fft
from .fields import GridField, chi_eval
from .errors import NumericsError
from .timegrid import _check_row, drive, time_grid

__all__ = [
    "WaveState",
    "nlw_energy",
    "run_nlw",
    "nlw_cone_test",
]


@dataclass(frozen=True)
class WaveState:
    """Real displacement u and velocity v = u_t on a shared grid."""

    u: GridField
    v: GridField

    def __post_init__(self):
        if self.u.size != self.v.size or self.u.box_length != self.v.box_length:
            raise ValueError("u and v must share one grid")
        if np.any(self.u.values.imag) or np.any(self.v.values.imag):
            raise ValueError("u and v must be real: pass the real part of complex data")


@lru_cache(maxsize=32)
def _wavenumbers(box_length: float, size: int) -> np.ndarray:
    """2 pi rfftfreq of the grid, once per (box, size) for Verlet and nlw_energy."""
    k = 2.0 * np.pi * np.fft.rfftfreq(size, d=box_length / size)
    k.flags.writeable = False
    return k


def _accel(u: np.ndarray, neg_k2: np.ndarray, p: int, coupling: float, out: np.ndarray, work) -> None:
    """out = u_xx - (coupling*u) * (u*u)**p along the last axis, work = (two arrays
    like rfft(u), two like u), neg_k2 complex; u**(2p+1) would take numpy's slow float power."""
    u_hat, lap_hat, lap, r = work
    _fft.irfft(np.multiply(neg_k2, _fft.rfft(u, out=u_hat), out=lap_hat), u.shape[-1], out=lap)
    np.multiply(u, u, out=r)
    if p != 1 or coupling != 1:  # the cubic case skips these identity operations
        r **= p
        u = np.multiply(coupling, u, out=out)
    np.multiply(u, r, out=out)
    np.subtract(lap, out, out=out)


def _verlet(u: np.ndarray, v: np.ndarray, k: np.ndarray, dt: float, p: int, coupling: float):
    """Stormer-Verlet (velocity form) with force reuse; yields (u, v) after each step.

    The half kick 0.5 dt a ends one step and starts the next from one product."""
    u, v = u.copy(), v.copy()
    neg_k2, kick, tmp = (-k ** 2).astype(complex), np.empty_like(u), np.empty_like(u)
    u_hat = np.empty(u.shape[:-1] + k.shape, dtype=complex)
    work = (u_hat, np.empty_like(u_hat), np.empty_like(u), np.empty_like(u))
    _accel(u, neg_k2, p, coupling, kick, work)
    kick *= 0.5 * dt
    while True:
        v += kick  # v at the half step
        u += np.multiply(dt, v, out=tmp)
        _accel(u, neg_k2, p, coupling, kick, work)
        kick *= 0.5 * dt
        v += kick
        yield u, v


def _check_cfl(dt: float, grid: GridField) -> None:
    if dt > grid.spacing:
        raise ValueError(f"CFL violation: dt={dt} > h={grid.spacing}")


def nlw_energy(u: np.ndarray, v: np.ndarray, box_length: float, p: int, coupling: float) -> float:
    """1/2 int u_x^2 + 1/2 int u_t^2 + coupling/(2p+2) int u^(2p+2) of real
    displacement u and velocity v on the periodic grid over box_length."""
    k = _wavenumbers(box_length, u.shape[0])
    ux = _fft.irfft(1j * k * _fft.rfft(u), n=u.shape[0])
    h = box_length / u.shape[0]
    return float(
        0.5 * h * np.sum(ux ** 2)
        + 0.5 * h * np.sum(v ** 2)
        + coupling * h * np.sum(u ** (2 * p + 2)) / (2.0 * p + 2.0)
    )


def run_nlw(
    state: WaveState,
    t_final: float,
    dt: float,
    record_dt: float,
    p: int = 1,
    coupling: float = 1.0,
) -> tuple[list[tuple[float, float, float]], WaveState]:
    """Leapfrog to t_final with force reuse; records (t, sup|u|, energy).

    An overflow of u, u_t or a recorded value raises NumericsError."""
    _check_cfl(dt, state.u)
    k = _wavenumbers(state.u.box_length, state.u.size)
    u, v = state.u.values.real, state.v.values.real
    box = state.u.box_length

    def record(t, u, v):
        rec = (t, float(np.max(np.abs(u))), nlw_energy(u, v, box, p, coupling))
        _check_row(rec, ("t", "sup_abs", "energy"), "wave run")
        return rec

    with np.errstate(over="ignore", invalid="ignore"):  # drive() reports an overflowed state
        records = [record(0.0, u, v)]
        verlet = _verlet(u, v, k, dt, p, coupling)
        for t, (u, v) in drive(verlet, t_final, dt, record_dt, "wave run", ["u", "u_t"]):
            records.append(record(t, u, v))
    return records, WaveState(GridField(u, box), GridField(v, box))


def nlw_cone_test(u0: GridField, u1: GridField, t_final: float, dt: float) -> float:
    """Finite-propagation-speed check of the cubic equation at the origin.

    Runs the full data and the chi(x/T)-truncated data side by side and
    returns sup over t <= T of |u(t,0) - v(t,0)|, sampled every step at the
    grid point nearest the origin.  u0 and u1 must be real; an overflow
    raises NumericsError.
    """
    WaveState(u0, u1)  # one real grid
    _check_cfl(dt, u0)
    if not t_final > 0:
        raise ValueError(f"cone radius T = {t_final} must be > 0")
    k = _wavenumbers(u0.box_length, u0.size)
    x = u0.x
    cut = chi_eval(x / t_final)
    # run both fields as one two-row batch: identical per-row operations keep
    # the truncated run bitwise equal to the full one wherever the data agree
    u = np.vstack([u0.values.real, cut * u0.values.real])
    v = np.vstack([u1.values.real, cut * u1.values.real])
    i0 = int(np.argmin(np.abs(x)))
    # T is the cone's radius, not a run length: take the whole steps t <= T
    n_steps = time_grid(t_final, dt, whole=False)

    worst = abs(u[0, i0] - u[1, i0])
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for u, _ in itertools.islice(_verlet(u, v, k, dt, 1, 1.0), n_steps):
            worst = max(worst, abs(u[0, i0] - u[1, i0]))
    if not np.all(np.isfinite(u)):
        raise NumericsError("cone test run overflowed")
    return float(worst)
