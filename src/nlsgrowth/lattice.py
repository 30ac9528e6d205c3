"""Lattice NLS time evolution and weighted local mass/energy diagnostics.

The equation is i d/dt psi = -Delta psi + sign * |psi|^p * psi on the
truncated lattice with periodic wrap, Delta psi(x) = psi(x+1) + psi(x-1)
- 2 psi(x).  Time stepping is Strang splitting with the linear substep exact
in the DFT basis (symbol -4 sin^2(kappa/2)); both substeps are l2 isometries,
so global mass is conserved to roundoff.

One Strang step (``_step_values``) serves every run: ``run_lattice_batch``
drives it (``timegrid.drive``) on the rows of a values[B, M] array together,
each row with its own initial data and weight and recorded with the per-row
diagnostics below.  ``run_lattice`` is its one-row call.  A batch is bitwise
equal to its rows run alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from scipy import fft as _fft

from .fields import LatticeField, WeightProfile
from .timegrid import drive

__all__ = [
    "LatticeModel",
    "LatticeRunRecord",
    "local_mass",
    "local_energy",
    "windowed_mass_avg",
    "windowed_quartic_avg",
    "sup_time_derivative",
    "global_energy",
    "run_lattice",
    "run_lattice_batch",
]


@dataclass(frozen=True)
class LatticeModel:
    """Lattice NLS parameters.

    sign +1 is defocusing, -1 focusing; p is the exponent in |psi|^p psi
    (the cubic equation is p = 2).  coupling scales the nonlinear term and
    coupling = 0 turns it off for linear cross-checks.
    """

    sign: int = +1
    p: float = 2.0
    extent: int = 512
    dt: float = 0.01
    coupling: float = 1.0

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 (defocusing) or -1 (focusing)")
        if self.p < 1.0:
            raise ValueError("nonlinearity exponent p must be >= 1")
        if not 0.0 < self.dt <= 0.1:
            raise ValueError("dt must lie in (0, 0.1] (split-step accuracy regime)")
        if self.extent < 1:
            raise ValueError("extent must be >= 1")


class LatticeRunRecord(NamedTuple):
    """Per-time diagnostics of a lattice run; a record is a row of the lattice
    ``series.csv``, whose columns are its fields."""

    t: float
    sup_abs: float
    global_mass: float
    global_energy: float
    local_mass: float
    local_energy: float
    sup_dt: float


# ---------------------------------------------------------------------------
# split-step propagation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _fft_pair_scale(period: int) -> float:
    """Deterministic amplitude scale of ifft(fft(.)) at this transform size.

    The double-precision FFT round trip is a fixed scale away from the
    identity (a few 1e-16, size dependent); left uncompensated it turns the
    exactly-unitary linear substep into a systematic mass drift that grows
    linearly with the step count.  The scale is measured once per size on
    fixed probe vectors with 48 amplifying round trips.
    """
    rng = np.random.default_rng(0xC0FFEE ^ period)
    rounds = 48
    estimates = []
    for _ in range(4):
        v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, period))
        m0 = float(np.sum(v.real ** 2 + v.imag ** 2))
        for _ in range(rounds):
            v = _fft.ifft(_fft.fft(v))
        m1 = float(np.sum(v.real ** 2 + v.imag ** 2))
        estimates.append((m1 / m0) ** (1.0 / (2.0 * rounds)))
    return float(np.mean(estimates))


@lru_cache(maxsize=32)
def _linear_symbol(period: int, dt: float) -> np.ndarray:
    """exp(i dt Delta) in the DFT basis of the ring Z/(period).

    The symbol absorbs the inverse of the measured FFT pair scale so the
    realized substep is unitary to the roundoff noise floor.
    """
    kappa = 2.0 * np.pi * np.arange(period) / period
    return np.exp(-4j * dt * np.sin(kappa / 2.0) ** 2) / _fft_pair_scale(period)


def _abs_pow(values: np.ndarray, p: float, out=None, scratch=None) -> np.ndarray:
    """|values|^p, into out if given (scratch: a second real array for p = 2)."""
    if p == 2.0:
        out = np.square(values.real, out=out)
        return np.add(out, np.square(values.imag, out=scratch), out=out)
    out = np.abs(values, out=out)
    return np.power(out, p, out=out)


def _step_values(v: np.ndarray, model: LatticeModel, symbol: np.ndarray, work) -> np.ndarray:
    """One Strang step of every row of v[B, M], written back into v and
    returned: half nonlinear phase, exact DFT linear step, half phase.

    ``work`` holds scratch arrays shaped like v (two complex, two real), so a
    step allocates no array.  Every complex multiply writes to an array that
    is none of its operands: numpy's in-place complex multiply rounds
    differently from the out-of-place one, and only out-of-place multiplies
    keep a batch bitwise equal to its rows stepped one at a time.
    """
    phase, rot, r, r2 = work
    half = -1j * model.sign * model.coupling * (model.dt / 2.0)
    np.exp(np.multiply(half, _abs_pow(v, model.p, r, r2), out=phase), out=phase)
    v_hat = _fft.fft(np.multiply(v, phase, out=rot), overwrite_x=True)
    w = _fft.ifft(np.multiply(symbol, v_hat, out=phase), overwrite_x=True)
    np.exp(np.multiply(half, _abs_pow(w, model.p, r, r2), out=rot), out=rot)
    return np.multiply(w, rot, out=v)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def local_mass(psi: LatticeField, w: WeightProfile, t: float) -> float:
    """M(t) = sum_x |psi(x)|^2 exp(-F(t,x)) over the truncated lattice."""
    weights = np.exp(-w.evaluate(t, psi.sites))
    return float(np.sum((psi.values.real ** 2 + psi.values.imag ** 2) * weights))


def local_energy(psi: LatticeField, w: WeightProfile, t: float) -> float:
    """E(t) = 1/2 sum |psi(x+1)-psi(x)|^2 e^{-F} + 1/4 sum |psi(x)|^4 e^{-F}.

    Positive definite; its Proposition-2.2 interpretation applies only to
    defocusing runs.
    """
    weights = np.exp(-w.evaluate(t, psi.sites))
    grad = np.roll(psi.values, -1) - psi.values
    abs2 = psi.values.real ** 2 + psi.values.imag ** 2
    grad2 = grad.real ** 2 + grad.imag ** 2
    return float(np.sum((0.5 * grad2 + 0.25 * abs2 ** 2) * weights))


def _window_slice(psi: LatticeField, x0: int, t0: float) -> np.ndarray:
    if t0 < 1.0:
        raise ValueError("window requires t0 >= 1")
    half = int(np.floor(t0))
    if abs(x0) + half > psi.extent:
        raise ValueError(
            f"window |x-{x0}| <= {t0} exceeds lattice extent {psi.extent}"
        )
    center = x0 + psi.extent
    return psi.values[center - half: center + half + 1]


def windowed_mass_avg(psi: LatticeField, x0: int, t0: float) -> float:
    """(1/t0) sum_{|x-x0| <= t0} |psi(x)|^2."""
    window = _window_slice(psi, x0, t0)
    return float(np.sum(window.real ** 2 + window.imag ** 2) / t0)


def windowed_quartic_avg(psi: LatticeField, x0: int, t0: float) -> float:
    """(1/t0) sum_{|x-x0| <= t0} |psi(x)|^4."""
    window = _window_slice(psi, x0, t0)
    return float(np.sum((window.real ** 2 + window.imag ** 2) ** 2) / t0)


def sup_time_derivative(psi: LatticeField, model: LatticeModel) -> float:
    """sup_x |Delta psi - sign*coupling*|psi|^p psi| = sup_x |d psi / dt|."""
    lap = np.roll(psi.values, -1) + np.roll(psi.values, 1) - 2.0 * psi.values
    nl = model.sign * model.coupling * _abs_pow(psi.values, model.p) * psi.values
    return float(np.max(np.abs(lap - nl)))


def global_energy(psi: LatticeField, model: LatticeModel) -> float:
    """1/2 sum |psi(x+1)-psi(x)|^2 + sign/(p+2) sum |psi|^{p+2} (conserved)."""
    grad = np.roll(psi.values, -1) - psi.values
    abs2 = psi.values.real ** 2 + psi.values.imag ** 2
    kinetic = 0.5 * float(np.sum(grad.real ** 2 + grad.imag ** 2))
    potential = model.sign * model.coupling / (model.p + 2.0) * float(
        np.sum(abs2 ** (model.p / 2.0 + 1.0))
    )
    return kinetic + potential


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

def run_lattice(
    model: LatticeModel,
    psi0: LatticeField,
    t_final: float,
    record_dt: float,
    weight: WeightProfile | None = None,
) -> tuple[list[LatticeRunRecord], LatticeField]:
    """Evolve psi0 to t_final, recording diagnostics every record_dt.

    The one-row call of ``run_lattice_batch``.  Returns the records and the
    final field.  The weight defaults to x0 = 0, R = 1, t0 = t_final.
    """
    if weight is None:
        weight = WeightProfile(x0=0, R=1.0, t0=t_final)
    records, final = run_lattice_batch(model, psi0.values[None, :], t_final, record_dt, [weight])
    return records[0], LatticeField(values=final[0], extent=model.extent)


def run_lattice_batch(
    model: LatticeModel,
    values: np.ndarray,
    t_final: float,
    record_dt: float,
    weights: Sequence[WeightProfile],
    labels: Sequence[str] | None = None,
) -> tuple[list[list[LatticeRunRecord]], np.ndarray]:
    """Evolve every row of values[B, 2*extent+1] to t_final with one Strang loop.

    Rows share the model, the time grid (``time_grid``) and the record
    cadence; row b records its local diagnostics with weights[b].  A batch
    is bitwise equal to its rows run one at a time.  Returns one record list
    per row and the final values [B, 2*extent+1].

    A weight is defined only up to its t0, so a weight with t0 < t_final is
    rejected (ValueError), as is a t_final that is not a whole number of
    steps.  An overflow raises NumericsError naming the first overflowed row
    by its label (default ``row <b>``).
    """
    period = 2 * model.extent + 1
    values = np.asarray(values, dtype=complex)
    if values.ndim != 2 or values.shape[1] != period:
        raise ValueError(
            f"batch shape {values.shape} is not [B, 2*extent+1 = {period}]"
        )
    rows = values.shape[0]
    if len(weights) != rows:
        raise ValueError(f"{len(weights)} weights for {rows} rows")
    for weight in weights:
        if weight.t0 < t_final:
            raise ValueError(
                f"weight t0 = {weight.t0} < t_final = {t_final}: "
                "the weight is defined only up to t0"
            )
    symbol = _linear_symbol(period, model.dt)
    records: list[list[LatticeRunRecord]] = [[] for _ in range(rows)]
    vals = values.copy()
    work = (np.empty_like(vals), np.empty_like(vals), np.empty(vals.shape), np.empty(vals.shape))

    def record_all(t: float) -> None:
        for row, weight, out in zip(vals, weights, records):
            field = LatticeField(values=row, extent=model.extent)
            t_w = min(t, weight.t0)  # step * dt may overshoot t0 by roundoff
            out.append(LatticeRunRecord(
                t=t,
                sup_abs=field.sup_abs(),
                global_mass=field.mass(),
                global_energy=global_energy(field, model),
                local_mass=local_mass(field, weight, t_w),
                local_energy=local_energy(field, weight, t_w),
                sup_dt=sup_time_derivative(field, model),
            ))

    with np.errstate(over="ignore", invalid="ignore"):  # drive() reports an overflow
        record_all(0.0)
        strang = (_step_values(vals, model, symbol, work) for _ in itertools.count())
        for t, _ in drive(strang, t_final, model.dt, record_dt, "lattice run", labels):
            record_all(t)
    return records, vals
