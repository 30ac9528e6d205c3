"""Lattice NLS time evolution and weighted local mass/energy diagnostics.

The equation is i d/dt psi = -Delta psi + sign * |psi|^p * psi on the
truncated lattice with periodic wrap, Delta psi(x) = psi(x+1) + psi(x-1)
- 2 psi(x).  Time stepping is Strang splitting with the linear substep exact
in the DFT basis (symbol -4 sin^2(kappa/2)); both substeps are l2 isometries,
so global mass is conserved to roundoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import fft as _fft

from .errors import NumericsError
from .fields import LatticeField, WeightProfile

__all__ = [
    "LatticeModel",
    "LatticeRunRecord",
    "local_mass",
    "local_energy",
    "windowed_mass_avg",
    "windowed_quartic_avg",
    "sup_time_derivative",
    "global_energy",
    "require_defocusing",
    "run_lattice",
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


@dataclass(frozen=True)
class LatticeRunRecord:
    """Per-time diagnostics of a lattice run."""

    t: float
    sup_abs: float
    global_mass: float
    global_energy: float
    local_mass: float
    local_energy: float
    sup_dt: float


def require_defocusing(model: LatticeModel, what: str) -> None:
    """Guard for diagnostics whose interpretation needs the defocusing sign."""
    if model.sign != +1:
        raise ValueError(f"{what} requires the defocusing sign (+1)")


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


def _abs_pow(values: np.ndarray, p: float) -> np.ndarray:
    if p == 2.0:
        return values.real ** 2 + values.imag ** 2
    return np.abs(values) ** p


def _step_values(values: np.ndarray, model: LatticeModel, symbol: np.ndarray) -> np.ndarray:
    """One Strang step: half nonlinear phase, exact DFT linear step, half phase."""
    half = -1j * model.sign * model.coupling * (model.dt / 2.0)
    v = values * np.exp(half * _abs_pow(values, model.p))
    v = _fft.ifft(symbol * _fft.fft(v))
    v = v * np.exp(half * _abs_pow(v, model.p))
    return v


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
    defocusing runs (see require_defocusing at the diagnostic call sites).
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

    One simulation is one sequential state machine; concurrency happens only
    across independent runs.  Returns the records and the final field.  The
    weight defaults to t0 = t_final; a weight with t0 < t_final is rejected
    (ValueError), since F(t,x) is undefined after t0.
    """
    if psi0.extent != model.extent:
        raise ValueError(
            f"field extent {psi0.extent} does not match model extent {model.extent}"
        )
    if weight is None:
        weight = WeightProfile(x0=0, R=1.0, t0=t_final)
    if weight.t0 < t_final:
        raise ValueError(
            f"weight t0 = {weight.t0} < t_final = {t_final}: the weight is defined only up to t0"
        )
    n_steps = int(round(t_final / model.dt))
    every = max(1, int(round(record_dt / model.dt)))
    period = 2 * model.extent + 1
    symbol = _linear_symbol(period, model.dt)

    def make_record(t: float, field: LatticeField) -> LatticeRunRecord:
        t_w = min(t, weight.t0)  # step * dt may overshoot t_final by roundoff
        return LatticeRunRecord(
            t=t,
            sup_abs=field.sup_abs(),
            global_mass=field.mass(),
            global_energy=global_energy(field, model),
            local_mass=local_mass(field, weight, t_w),
            local_energy=local_energy(field, weight, t_w),
            sup_dt=sup_time_derivative(field, model),
        )

    psi = psi0
    records = [make_record(0.0, psi)]
    vals = psi.values
    for step in range(1, n_steps + 1):
        vals = _step_values(vals, model, symbol)
        if step % every == 0 or step == n_steps:
            if not np.all(np.isfinite(vals.view(float))):
                raise NumericsError(
                    f"lattice run overflowed near t={step * model.dt:.3f}"
                )
            psi = LatticeField(values=vals, extent=model.extent)
            records.append(make_record(step * model.dt, psi))
    return records, psi
