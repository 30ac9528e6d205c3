"""Lattice NLS time evolution and weighted local mass/energy diagnostics.

The equation is i d/dt psi = -Delta psi + sign * |psi|^p * psi on the
truncated lattice with periodic wrap, Delta psi(x) = psi(x+1) + psi(x-1)
- 2 psi(x).  Time stepping is Strang splitting with the linear substep exact
in the DFT basis (symbol -4 sin^2(kappa/2)); both substeps are l2 isometries,
so global mass is conserved to roundoff.

One Strang step (``_step_values``) serves every run: ``lattice_states``
drives it (``timegrid.drive``) on the rows of a values[B, M] array together
and yields the live state at each record step, for callers to read once.
``run_lattice_batch`` records the diagnostics below off it for all rows in one
array pass (``_record_columns``); ``run_lattice`` is its one-row call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from . import _fft
from .fields import WeightProfile, _extent
from .timegrid import _check_row, drive

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
    "lattice_states",
]


@dataclass(frozen=True, kw_only=True)
class LatticeModel:
    """Lattice NLS parameters, by keyword; the time step dt is required.

    sign +1 is defocusing, -1 focusing; p is the exponent in |psi|^p psi
    (the cubic equation is p = 2).  coupling scales the nonlinear term and
    coupling = 0 turns it off for linear cross-checks.
    """

    sign: int = +1
    p: float = 2.0
    dt: float
    coupling: float = 1.0

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 (defocusing) or -1 (focusing)")
        if not self.p >= 1.0:
            raise ValueError("nonlinearity exponent p must be >= 1")
        if not 0.0 < self.dt <= 0.1:
            raise ValueError("dt must lie in (0, 0.1] (split-step accuracy regime)")


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
    four fixed probe vectors, the rows of one batch, with 48 amplifying round trips.
    """
    rng = np.random.default_rng(0xC0FFEE ^ period)
    rounds = 48
    v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (4, period)))
    m0 = np.sum(v.real ** 2 + v.imag ** 2, axis=-1)
    for _ in range(rounds):
        _fft.ifft(_fft.fft(v, overwrite_x=True), overwrite_x=True)
    m1 = np.sum(v.real ** 2 + v.imag ** 2, axis=-1)
    # Python's float power per probe: numpy's array power can round differently
    return float(np.mean([(a / b) ** (1.0 / (2.0 * rounds)) for a, b in zip(m1.tolist(), m0.tolist())]))


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


def _half_phase(x: np.ndarray, model: LatticeModel, out: np.ndarray, r, r2) -> np.ndarray:
    """exp(i theta), theta = -sign*coupling*(dt/2)*|x|^p, into out as cos theta +
    i sin theta (r, r2: real scratch).  Bitwise equal to the tests' oracle
    np.exp(-1j*sign*coupling*(dt/2)*|x|^p), whose argument is 0 + i(theta + 0)."""
    theta = np.multiply(_abs_pow(x, model.p, r, r2), -model.sign * model.coupling * (model.dt / 2.0), out=r)
    np.cos(np.add(theta, 0.0, out=theta), out=out.real)  # + 0: -0 to +0, as in the product
    np.sin(theta, out=out.imag)
    return out


def _step_values(v: np.ndarray, model: LatticeModel, symbol: np.ndarray, work) -> np.ndarray:
    """One Strang step of every row of v[B, M], written back into v and
    returned: half nonlinear phase (``_half_phase``), exact DFT linear step,
    half phase.

    ``work`` holds scratch arrays shaped like v (two complex, two real), so a
    step allocates no array.  Every complex multiply writes to an array that
    is none of its operands: numpy's in-place complex multiply rounds
    differently from the out-of-place one, and only out-of-place multiplies
    keep a batch bitwise equal to its rows stepped one at a time.
    """
    phase, rot, r, r2 = work
    v_hat = _fft.fft(np.multiply(v, _half_phase(v, model, phase, r, r2), out=rot), overwrite_x=True)
    w = _fft.ifft(np.multiply(symbol, v_hat, out=phase), overwrite_x=True)
    return np.multiply(w, _half_phase(w, model, rot, r, r2), out=v)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def _weight(w: WeightProfile, t: float, sites: np.ndarray) -> np.ndarray:
    return np.exp(-w.evaluate(t, sites))


def _sites(values: np.ndarray) -> np.ndarray:
    """Sites -N..N of lattice values[..., 2N+1]."""
    n = _extent(values)
    return np.arange(-n, n + 1)


def _grad2(v: np.ndarray) -> np.ndarray:
    """|v(x+1) - v(x)|^2 along the last axis, with the periodic wrap."""
    return _abs_pow(np.roll(v, -1, axis=-1) - v, 2.0)


def _local_mass(abs2: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return np.sum(abs2 * weights, axis=-1)


def _local_energy(abs2: np.ndarray, grad2: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return np.sum((0.5 * grad2 + 0.25 * abs2 ** 2) * weights, axis=-1)


def _global_energy(abs2: np.ndarray, grad2: np.ndarray, model: LatticeModel) -> np.ndarray:
    potential = np.sum(abs2 ** (model.p / 2.0 + 1.0), axis=-1)
    return 0.5 * np.sum(grad2, axis=-1) + model.sign * model.coupling / (model.p + 2.0) * potential


def _sup_dt(v: np.ndarray, model: LatticeModel) -> np.ndarray:
    lap = np.roll(v, -1, axis=-1) + np.roll(v, 1, axis=-1) - 2.0 * v
    nl = model.sign * model.coupling * _abs_pow(v, model.p) * v
    return np.max(np.abs(lap - nl), axis=-1)


def local_mass(psi: np.ndarray, w: WeightProfile, t: float) -> float:
    """M(t) = sum_x |psi(x)|^2 exp(-F(t,x)) over the truncated lattice."""
    return float(_local_mass(_abs_pow(psi, 2.0), _weight(w, t, _sites(psi))))


def local_energy(psi: np.ndarray, w: WeightProfile, t: float) -> float:
    """E(t) = 1/2 sum |psi(x+1)-psi(x)|^2 e^{-F} + 1/4 sum |psi(x)|^4 e^{-F}.

    Positive definite; its Proposition-2.2 interpretation applies only to
    defocusing runs.
    """
    return float(_local_energy(_abs_pow(psi, 2.0), _grad2(psi), _weight(w, t, _sites(psi))))


def _window_slice(psi: np.ndarray, x0: int, t0: float) -> np.ndarray:
    n = _extent(psi)
    if t0 < 1.0:
        raise ValueError("window requires t0 >= 1")
    half = int(np.floor(t0))
    if abs(x0) + half > n:
        raise ValueError(f"window |x-{x0}| <= {t0} exceeds lattice extent {n}")
    center = x0 + n
    return psi[center - half: center + half + 1]


def windowed_mass_avg(psi: np.ndarray, x0: int, t0: float) -> float:
    """(1/t0) sum_{|x-x0| <= t0} |psi(x)|^2."""
    window = _window_slice(psi, x0, t0)
    return float(np.sum(window.real ** 2 + window.imag ** 2) / t0)


def windowed_quartic_avg(psi: np.ndarray, x0: int, t0: float) -> float:
    """(1/t0) sum_{|x-x0| <= t0} |psi(x)|^4."""
    window = _window_slice(psi, x0, t0)
    return float(np.sum((window.real ** 2 + window.imag ** 2) ** 2) / t0)


def sup_time_derivative(psi: np.ndarray, model: LatticeModel) -> float:
    """sup_x |Delta psi - sign*coupling*|psi|^p psi| = sup_x |d psi / dt|."""
    _extent(psi)
    return float(_sup_dt(psi, model))


def global_energy(psi: np.ndarray, model: LatticeModel) -> float:
    """1/2 sum |psi(x+1)-psi(x)|^2 + sign/(p+2) sum |psi|^{p+2} (conserved)."""
    _extent(psi)
    return float(_global_energy(_abs_pow(psi, 2.0), _grad2(psi), model))


def _record_columns(vals: np.ndarray, model: LatticeModel, weights: Sequence[WeightProfile], t: float):
    """Each ``LatticeRunRecord`` field after t for the rows of vals[B, M], by the
    one-field diagnostics' last-axis kernels.  Row b's weight is evaluated at
    min(t, its t0) (step * dt may overshoot t0 by roundoff), once per distinct weight."""
    sites = _sites(vals)
    at = {w: _weight(w, min(t, w.t0), sites) for w in set(weights)}
    row_weights = np.array([at[w] for w in weights])
    abs_v, abs2, grad2 = np.abs(vals), _abs_pow(vals, 2.0), _grad2(vals)
    return (
        np.max(abs_v, axis=-1),
        np.sum(abs_v ** 2, axis=-1),
        _global_energy(abs2, grad2, model),
        _local_mass(abs2, row_weights),
        _local_energy(abs2, grad2, row_weights),
        _sup_dt(vals, model),
    )


# ---------------------------------------------------------------------------
# run driver
# ---------------------------------------------------------------------------

def run_lattice(
    model: LatticeModel,
    psi0: np.ndarray,
    t_final: float,
    record_dt: float,
) -> tuple[list[LatticeRunRecord], np.ndarray]:
    """Evolve psi0 to t_final, recording diagnostics every record_dt.

    The one-row call of ``run_lattice_batch``, with the weight x0 = 0, R = 1,
    t0 = t_final.  Returns the records and the final values.
    """
    weight = WeightProfile(x0=0, R=1.0, t0=t_final)
    records, final = run_lattice_batch(model, psi0[None, :], t_final, record_dt, [weight])
    return records[0], final[0]


def lattice_states(model: LatticeModel, values: np.ndarray, t_final: float, record_dt: float,
                   labels: Sequence[str] | None = None):
    """Evolve every row of values[B, 2N+1] (the ring of sites -N..N) to t_final
    with one Strang loop, yielding (t, vals) at t = 0 and at the record steps of
    ``drive``.  vals is the live state, stepped in place after the yield in the
    caller's error state.
    """
    vals = np.array(values, dtype=complex, order="C")
    if vals.ndim != 2:
        raise ValueError(f"batch shape {vals.shape} is not [B, 2N+1]")
    period = 2 * _extent(vals) + 1
    if labels is not None and len(labels) != len(vals):
        raise ValueError(f"{len(labels)} labels for {len(vals)} rows")
    symbol = _linear_symbol(period, model.dt)
    work = (np.empty_like(vals), np.empty_like(vals), np.empty(vals.shape), np.empty(vals.shape))
    yield 0.0, vals
    strang = (_step_values(vals, model, symbol, work) for _ in itertools.count())
    yield from drive(strang, t_final, model.dt, record_dt, "lattice run", labels)


def run_lattice_batch(
    model: LatticeModel,
    values: np.ndarray,
    t_final: float,
    record_dt: float,
    weights: Sequence[WeightProfile],
    labels: Sequence[str] | None = None,
) -> tuple[list[list[LatticeRunRecord]], np.ndarray]:
    """Records of every row of ``lattice_states(model, values, t_final,
    record_dt, labels)``, row b's local diagnostics with weights[b]; returns
    one record list per row and the final values [B, 2N+1].  A batch
    is bitwise equal to its rows run one at a time.

    A weight is defined only up to its t0, so a weight with t0 < t_final is
    rejected (ValueError).  An overflowed diagnostic raises NumericsError
    naming the first overflowed row by its label (default ``row <b>``).
    """
    states = lattice_states(model, values, t_final, record_dt, labels)
    t, vals = next(states)  # checks the batch; no step taken yet
    rows = len(vals)
    if len(weights) != rows:
        raise ValueError(f"{len(weights)} weights for {rows} rows")
    for weight in weights:
        if weight.t0 < t_final:
            raise ValueError(
                f"weight t0 = {weight.t0} < t_final = {t_final}: "
                "the weight is defined only up to t0"
            )
    records: list[list[LatticeRunRecord]] = [[] for _ in range(rows)]
    # the stream reports an overflowed state, _check_row an overflowed diagnostic
    with np.errstate(over="ignore", invalid="ignore"):
        for t, vals in itertools.chain([(t, vals)], states):
            columns = zip(*(c.tolist() for c in _record_columns(vals, model, weights, t)))
            for b, (row, out) in enumerate(zip(columns, records)):
                record = LatticeRunRecord(t, *row)
                _check_row(record, record._fields, "lattice run", labels[b] if labels else f"row {b}")
                out.append(record)
    return records, vals
