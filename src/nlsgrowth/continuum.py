"""Regularized continuum NLS on a periodic spectral grid.

The equation is i u_t + u_xx = coupling * N(u) with the mollified cubic
N(u) = phi * (|phi * u|^2 (phi * u)); convolution with phi acts by spectral
multiplication with the mollifier transfer function.  The linear flow is exact
in Fourier (mode k picks up e^{-i k^2 t}); the nonlinear term is advanced by
an integrating-factor (Lawson) RK4.  The Lawson stage and each Picard sweep
compose N(u) through the one ``_cubic_stage``, whose cubic products are
dealiased with the 2/3 rule so spectral blocking does not pollute the
conservation diagnostics.

The periodic box stands in for the real line: boxes are sized so that no
signal wraps into a probe window during a run, monitored via the closed-form
Gaussian-comb oracle.

Stepper contract (``_lawson_rk4``, here and in Newton): the stepper copies
its initial state once, steps its own buffers in place and yields the same
array after every step; a stage f(v, s, out) writes into out (README).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _fft
from .fields import GridField, Mollifier, chi_eval, grid_wavenumbers
from .errors import NumericsError
from .timegrid import drive, time_grid

__all__ = [
    "ContinuumModel",
    "Trajectory",
    "LocalEnergyProbe",
    "BootstrapReport",
    "linear_propagate",
    "comb_oracle",
    "run_continuum",
    "picard_solve",
    "PicardResult",
    "global_mass",
    "global_energy",
    "local_energy_probe",
    "bootstrap_monitor",
]


@dataclass(frozen=True)
class ContinuumModel:
    """Mollifier, grid, and time step for the regularized NLS."""

    mollifier: Mollifier
    box_length: float
    grid_size: int
    dt: float
    sign: int = +1
    coupling: float = 1.0
    dealias: bool = True

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 (defocusing) or -1 (focusing)")
        if not self.dt > 0:
            raise ValueError("dt must be positive")


@dataclass(frozen=True)
class Trajectory:
    """Field snapshots on a shared uniform time grid (rows = times)."""

    times: np.ndarray
    values: np.ndarray  # shape (n_times, grid_size)
    box_length: float

    def field(self, i: int) -> GridField:
        return GridField(values=self.values[i], box_length=self.box_length)


def _cubic_filter(phi: Mollifier, box_length: float, size: int, dealias: bool) -> np.ndarray:
    """Mollifier transfer on the grid, 2/3-rule masked when dealiasing."""
    k = grid_wavenumbers(box_length, size)
    g = phi.transfer(k)
    if not dealias:
        return g
    k_max = np.pi * size / box_length
    return g * (np.abs(k) <= (2.0 / 3.0) * k_max).astype(float)


def _cubic_stage(filt: np.ndarray, factor: complex, shape: tuple[int, ...]):
    """The one mollified cubic f(v, s, out): out = factor * filt * fft(|w|^2 w), w = ifft(filt * v),
    for v shaped ``shape`` (a Lawson row, Picard's [n_times, M]) in buffers made once; out is
    scratch, never v.  Complex filt and |w|^2 + 0j are numpy's own mixed-product casts: same bits."""
    filt_c, nl_filt = filt.astype(complex), factor * filt
    sq, r, prod = np.zeros(shape, complex), np.empty(shape), np.empty(shape, complex)

    def stage(v_hat, _s, out):
        w = _fft.ifft(np.multiply(filt_c, v_hat, out=out), overwrite_x=True)
        np.square(w.real, out=sq.real)
        sq.real += np.square(w.imag, out=r)
        np.multiply(nl_filt, _fft.fft(np.multiply(sq, w, out=prod), overwrite_x=True), out=out)

    return stage


def _check_grid(u: GridField, model: ContinuumModel) -> None:
    if u.size != model.grid_size or u.box_length != model.box_length:
        raise ValueError(
            f"field grid (box {u.box_length}, size {u.size}) does not match "
            f"model grid (box {model.box_length}, size {model.grid_size})"
        )


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def linear_propagate(u0: GridField, t: float) -> GridField:
    """e^{i t d_xx} u0: multiply mode k by e^{-i k^2 t}."""
    k = grid_wavenumbers(u0.box_length, u0.size)
    vals = _fft.ifft(np.exp(-1j * k ** 2 * t) * _fft.fft(u0.values))
    return GridField(values=vals, box_length=u0.box_length)


def comb_oracle(coeffs: Sequence[complex], t: float, x, comb_origin: int):
    """Closed-form free evolution of the Gaussian comb.

    sum_j a_j exp(-(x-j)^2 / (4it+1)) / (4it+1)^(1/2), principal branch root;
    the overall constant is 1, fixed by matching the t -> 0 limit.
    """
    a = np.asarray(coeffs, dtype=complex)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    j = comb_origin + np.arange(len(a), dtype=float)
    z = 4j * t + 1.0
    root = np.sqrt(z)  # numpy principal branch
    out = np.zeros(xv.shape, dtype=complex)
    # chunk over x to bound the (n_x, n_j) workspace
    step = max(1, int(2e6 // max(len(a), 1)))
    for lo in range(0, xv.shape[0], step):
        xs = xv[lo:lo + step, None]
        out[lo:lo + step] = np.sum(a[None, :] * np.exp(-(xs - j[None, :]) ** 2 / z), axis=1) / root
    if np.ndim(x) == 0:
        return complex(out[0])
    return out


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def _lawson_ctx(box_length: float, size: int, dt: float):
    k = grid_wavenumbers(box_length, size)
    return np.exp(-1j * k ** 2 * dt), np.exp(-1j * k ** 2 * dt / 2.0)  # e1, eh


def _lawson_rk4(v: np.ndarray, f, e1: np.ndarray, eh: np.ndarray, dt: float):
    """Integrating-factor (Lawson) RK4 steps of v' = L v + f(v, s) in Fourier;
    yields v after each step.

    e1 = e^{L dt} and eh = e^{L dt/2} carry the linear part exactly; f(v, s,
    out) writes into out, given the stage time s in steps (n, n + 1/2, n + 1
    in the step from n to n + 1).  With f = 0 this is the exact linear
    propagator.  The stiff linear phase is integrated exactly, so the step
    constraint comes from f alone (for the mollified cubic, dt * coupling *
    sup|phi*u|^2 well below 1).
    """
    v = v.copy()
    a1, a2, a3, a4, ehv, e1v, arg, tmp = (np.empty_like(v) for _ in range(8))
    half_eh, dt_eh, two_eh = (dt / 2.0) * eh, dt * eh, 2.0 * eh
    for n in itertools.count():
        np.multiply(eh, v, out=ehv)
        np.multiply(e1, v, out=e1v)
        f(v, n, a1)
        f(np.add(ehv, np.multiply(half_eh, a1, out=arg), out=arg), n + 0.5, a2)
        f(np.add(ehv, np.multiply(dt / 2.0, a2, out=arg), out=arg), n + 0.5, a3)
        f(np.add(e1v, np.multiply(dt_eh, a3, out=arg), out=arg), n + 1.0, a4)
        # v = e1 v + (dt/6) (e1 a1 + 2 eh a2 + 2 eh a3 + a4), summed in that order
        np.multiply(e1, a1, out=arg)
        arg += np.multiply(two_eh, a2, out=tmp)
        arg += np.multiply(two_eh, a3, out=tmp)
        arg += a4
        np.add(e1v, np.multiply(dt / 6.0, arg, out=v), out=v)
        yield v


def run_continuum(
    u0: GridField,
    model: ContinuumModel,
    t_final: float,
    record_dt: float,
) -> Trajectory:
    """Evolve u0 to t_final by Lawson-RK4, storing snapshots every record_dt."""
    _check_grid(u0, model)
    filt = _cubic_filter(model.mollifier, model.box_length, model.grid_size, model.dealias)
    e1, eh = _lawson_ctx(model.box_length, model.grid_size, model.dt)
    stage = _cubic_stage(filt, -1j * model.sign * model.coupling, filt.shape)
    times = [0.0]
    snaps = [u0.values.copy()]
    lawson = _lawson_rk4(_fft.fft(u0.values), stage, e1, eh, model.dt)
    with np.errstate(over="ignore", invalid="ignore"):  # drive() reports an overflow
        for t, v in drive(lawson, t_final, model.dt, record_dt, "continuum run"):
            times.append(t)
            snaps.append(_fft.ifft(v))
    return Trajectory(times=np.array(times), values=np.array(snaps), box_length=u0.box_length)


def _free_phases(box_length: float, size: int, t_final: float, dt: float):
    """Time grid 0, dt, ..., t_final and the free-flow factors e^{-i k^2 t}
    on it, one row per time (the linear trajectory of Picard and Newton)."""
    k = grid_wavenumbers(box_length, size)
    times = dt * np.arange(time_grid(t_final, dt) + 1)
    return times, np.exp(-1j * np.outer(times, k ** 2))


# ---------------------------------------------------------------------------
# Picard fixed point (Duhamel oracle)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PicardResult:
    trajectory: Trajectory
    iterations: int


def picard_solve(
    u0: GridField,
    t_final: float,
    model: ContinuumModel,
    tol: float,
    max_iter: int = 30,
) -> PicardResult:
    """Fixed-point iteration of the Duhamel map on a sampled trajectory.

    u <- e^{it Dxx} u0 - i int_0^t e^{i(t-s) Dxx} N(u(s)) ds, the time integral
    by trapezoid on the model's dt grid, iterated until successive sweep
    differences fall below tol in sup norm.  Diverging iterates raise
    NumericsError (choose a smaller horizon).
    """
    _check_grid(u0, model)
    filt = _cubic_filter(model.mollifier, model.box_length, model.grid_size, model.dealias)
    sc = model.sign * model.coupling
    times, phases = _free_phases(u0.box_length, u0.size, t_final, model.dt)
    u0_hat = _fft.fft(u0.values)
    # the linear trajectory is the initial guess
    current_hat = phases * u0_hat[None, :]
    cubic, nl_hat = _cubic_stage(filt, 1, current_hat.shape), np.empty_like(current_hat)
    prev_diff = np.inf
    grow_count = 0
    for iteration in range(1, max_iter + 1):
        # cumulative trapezoid of e^{+is Dxx} N(u(s)), then propagate forward
        cubic(current_hat, 0, nl_hat)
        integrand = phases.conj() * nl_hat
        acc = np.cumsum((model.dt / 2.0) * (integrand[:-1] + integrand[1:]), axis=0)
        new_hat = np.empty_like(current_hat)
        new_hat[0] = u0_hat
        # out= stops numpy from reusing the large temporary for an in-place
        # complex multiply, which rounds differently from the out-of-place one
        np.multiply(phases[1:], u0_hat - 1j * sc * acc, out=new_hat[1:])
        diff = float(np.max(np.abs(_fft.ifft(new_hat - current_hat, axis=1))))
        current_hat = new_hat
        if diff <= tol:
            vals = _fft.ifft(current_hat, axis=1)
            return PicardResult(
                trajectory=Trajectory(times=times, values=vals, box_length=u0.box_length),
                iterations=iteration,
            )
        if diff > prev_diff:
            grow_count += 1
            if grow_count >= 2 or not np.isfinite(diff):
                raise NumericsError(
                    f"Picard iterates diverging (sweep diff {diff:.3e}); "
                    f"reduce the horizon below T={t_final}"
                )
        else:
            grow_count = 0
        prev_diff = diff
    raise NumericsError(
        f"Picard did not reach tol={tol} within {max_iter} sweeps (last diff {prev_diff:.3e})"
    )


# ---------------------------------------------------------------------------
# conserved quantities and local energy probes
# ---------------------------------------------------------------------------

def global_mass(u: GridField) -> float:
    """int |u|^2 dx by the trapezoid rule (exact for band-limited fields)."""
    return float(u.spacing * np.sum(u.values.real ** 2 + u.values.imag ** 2))


def global_energy(u: GridField, phi: Mollifier) -> float:
    """(1/2) int |u_x|^2 + (1/4) int |phi*u|^4, derivative taken spectrally."""
    return float(_record_pass(u.values[None, :], u.box_length, phi)[0, 1])


@dataclass(frozen=True)
class LocalEnergyProbe:
    """chi^2-weighted local energy window centered at x0 with scale R >= 1."""

    x0: float
    R: float

    def __post_init__(self):
        if not self.R >= 1.0:
            raise ValueError("probe scale R must be >= 1")

    def check_inside(self, box_length: float) -> None:
        # support [x0-2R, x0+2R] must sit in the box with margin >= L/8
        lo, hi = self.x0 - 2.0 * self.R, self.x0 + 2.0 * self.R
        margin = box_length / 8.0
        if not (lo >= -box_length / 2.0 + margin and hi <= box_length / 2.0 - margin):
            raise ValueError(
                f"probe window [{lo}, {hi}] too close to the box edge "
                f"(need margin {margin})"
            )


def local_energy_probe(u: GridField, probe: LocalEnergyProbe, phi: Mollifier) -> float:
    """int chi((x-x0)/R)^2 [ 1/2 |u_x|^2 + 1/4 |phi*u|^4 + 1/2 |u|^2 ] dx."""
    return float(_record_pass(u.values[None, :], u.box_length, phi, [probe])[0, 2])


def _record_pass(values: np.ndarray, box_length: float, phi: Mollifier, probes=()) -> np.ndarray:
    """[global_mass, global_energy, local_energy_probe of each probe] of each
    grid field values[i]: fft(u), u_x, phi*u once per field, chi^2 once per probe."""
    for probe in probes:
        probe.check_inside(box_length)
    grid = GridField(values[0], box_length)
    k = grid_wavenumbers(box_length, grid.size)
    ik, transfer, h = 1j * k, phi.transfer(k), grid.spacing
    cut2 = [chi_eval((grid.x - probe.x0) / probe.R) ** 2 for probe in probes]
    table = np.empty((len(values), 2 + len(probes)))
    for u, row in zip(values, table):
        u = GridField(u, box_length).values  # a finite grid field, or ValueError
        v = _fft.fft(u)
        ux, w = _fft.ifft(ik * v), _fft.ifft(transfer * v)
        mass, kin = u.real ** 2 + u.imag ** 2, ux.real ** 2 + ux.imag ** 2
        quart = (w.real ** 2 + w.imag ** 2) ** 2
        row[0] = h * np.sum(mass)
        row[1] = 0.5 * h * float(np.sum(kin)) + 0.25 * h * float(np.sum(quart))
        dens = 0.5 * kin + 0.25 * quart + 0.5 * mass
        row[2:] = [h * np.sum(c * dens) for c in cut2]
    return table


@dataclass(frozen=True)
class BootstrapReport:
    """Local-energy excursion summary over a bootstrap window."""

    max_ratio: float
    flagged: bool


def bootstrap_monitor(
    trajectory: Trajectory,
    probes: Sequence[LocalEnergyProbe],
    phi: Mollifier,
    flag_factor: float = 2.0,
) -> BootstrapReport:
    """Track sup over probes and times of E(x0, t) / max_x0 E(x0, 0).

    Flags any excursion above flag_factor.  Zero initial local energy (or no
    probe) leaves the ratio undefined: ValueError.
    """
    energies = _record_pass(trajectory.values, trajectory.box_length, phi, probes)[:, 2:]
    ref = max(energies[0].tolist(), default=0.0)
    if ref == 0.0:
        raise ValueError("zero initial local energy in every probe: bootstrap ratio undefined")
    # builtin max keeps the running maximum unless a ratio is strictly larger
    max_ratio = max([0.0] + (energies / ref).ravel().tolist())
    return BootstrapReport(max_ratio=max_ratio, flagged=max_ratio > flag_factor)
