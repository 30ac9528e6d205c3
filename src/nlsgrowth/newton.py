"""Newton iteration for the cubic NLS with real-analytic bounded data.

The iterates psi_{n+1} = psi_n + xi_{n+1} solve linearized equations

    i d/dt xi_{n+1} = -Dxx xi_{n+1} + 2|psi_n|^2 xi_{n+1}
                      + psi_n^2 conj(xi_{n+1}) + R_n,      xi_{n+1}(0) = 0,

with the quadratic remainder R_n = 2|xi_n|^2 psi_{n-1} + xi_n^2
conj(psi_{n-1}) + |xi_n|^2 xi_n (R_1 = |psi_1|^2 psi_1), which drives
quadratic convergence.  The linearized flow is realized by direct Lawson-RK4
integration of xi alone rather than a time-ordered exponential: the
conjugate component is conj(xi) by construction, so the right-hand side is
R-linear in xi and each stage costs one FFT pair.  Iterates, residuals and
corrections are [n_times, M] arrays whose row n holds t = n dt.  The solve
keeps the stepper contract of ``continuum._lawson_rk4``.

Convergence is tracked in a computable Fourier majorant of the analytic
derivative-series norm: for band-limited f with coefficients c_k,

    maj(f; r, p) = sum_k |c_k| (sum_{q<=p} |k|^q) e^{|k| r},

which dominates sup_x sum_{n,q} |f^(n+q)(x)| r^n / n! and obeys the same
radius-shrinking calculus (sup_k |k|^q e^{-|k| d} = (q/(e d))^q).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _fft
from .continuum import Trajectory, _free_phases, _lawson_ctx, _lawson_rk4
from .errors import NumericsError
from .fields import GridField, grid_wavenumbers
from .timegrid import drive

__all__ = [
    "AnalyticNormParams",
    "NewtonIterationRow",
    "NewtonResult",
    "majorant_norm",
    "residual",
    "solve_linearized",
    "newton_iterate",
]

MAX_RADIUS_EXPONENT = 700.0  # exp overflow guard for e^{|k| r}


@dataclass(frozen=True)
class AnalyticNormParams:
    """Radius r > 0 and derivative count p >= 0 of the majorant norm."""

    radius: float
    derivative_count: int = 0

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.derivative_count < 0:
            raise ValueError("derivative count must be >= 0")


def _radius(r1: float, n: int) -> float:
    """r_n = r1 - sum_{m<n} delta_m with delta_m = c m^-2, where c = 3 r1 / pi^2
    makes sum_m delta_m = r1/2: the radii stay above r1/2."""
    m = np.arange(1, n)
    return float(r1 - 3.0 * r1 / np.pi ** 2 * np.sum(1.0 / m ** 2))


def _majorant_rows(values: np.ndarray, box_length: float, params: AnalyticNormParams) -> np.ndarray:
    """majorant_norm of each row of values[B, M] on a box of box_length."""
    size = values.shape[-1]
    k = grid_wavenumbers(box_length, size)
    k_max = float(np.max(np.abs(k)))
    if params.radius * k_max > MAX_RADIUS_EXPONENT:
        raise ValueError(
            f"r*k_max = {params.radius * k_max:.1f} overflows the exponential "
            "weight; use a smaller radius"
        )
    c_abs = np.abs(_fft.fft(values, axis=-1)) / size
    # modes at the sampling roundoff floor are artifacts, not content; the
    # e^{|k| r} weight would amplify that noise past the genuine terms
    floor = 32.0 * np.finfo(float).eps * np.max(c_abs, axis=-1, initial=0.0, keepdims=True)
    c_abs = np.where(c_abs > floor, c_abs, 0.0)
    ka = np.abs(k)
    poly, term = np.ones_like(ka), np.ones_like(ka)
    for _ in range(params.derivative_count):
        term = term * ka
        poly = poly + term
    return np.sum(c_abs * poly * np.exp(ka * params.radius), axis=-1)


def majorant_norm(f: GridField, params: AnalyticNormParams) -> float:
    """Fourier majorant sum_k |c_k| (sum_{q<=p} |k|^q) e^{|k| r}; raises
    ValueError when r * k_max would overflow the exponential weight."""
    return float(_majorant_rows(f.values[None, :], f.box_length, params)[0])


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def residual(psi_prev: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """R = 2|xi|^2 psi_prev + xi^2 conj(psi_prev) + |xi|^2 xi (quadratic in xi)."""
    xi2 = xi.real ** 2 + xi.imag ** 2
    return 2.0 * xi2 * psi_prev + xi ** 2 * np.conj(psi_prev) + xi2 * xi


# ---------------------------------------------------------------------------
# linearized flow
# ---------------------------------------------------------------------------

def solve_linearized(
    psi: np.ndarray, forcing: np.ndarray, box_length: float, dt: float
) -> np.ndarray:
    """Rows of xi, from zero data, for the potential of psi and the forcing
    R, both [n_times, M] arrays with row n at t = n dt.

    xi solves i xi_t = -Dxx xi + 2|psi|^2 xi + psi^2 conj(xi) + R by
    Lawson-RK4: the free part -Dxx is exact through the integrating factors
    e^{-i k^2 dt}; the potential and forcing are applied pointwise, at the
    half-step times as the mean of their two neighbouring rows.  This
    realizes the fundamental-solution action without materializing a
    time-ordered exponential.  Raises NumericsError when sup|xi|
    passes its a-priori growth bound.
    """
    if forcing.shape != psi.shape:
        raise ValueError(f"forcing shape {forcing.shape} is not the potential's {psi.shape}")
    t_final = (psi.shape[0] - 1) * dt
    e1, eh = _lawson_ctx(box_length, psi.shape[1], dt)

    sup_v = 3.0 * float(np.max(np.abs(psi)) ** 2)  # max row sum of |V|: 2|psi|^2 + |psi|^2
    growth_bound = (1.0 + float(np.max(np.abs(forcing))) * t_final) * np.exp(
        min(10.0 * t_final * sup_v, 500.0)
    )

    # rows at t = n dt, and their means at the half steps (n + 1/2) dt, as complex
    tables = (2.0 * (psi.real ** 2 + psi.imag ** 2), psi ** 2, forcing)
    halves = [np.asarray(0.5 * a[:-1] + 0.5 * a[1:], dtype=complex) for a in tables]
    tables = [np.asarray(a, dtype=complex) for a in tables]
    g, tmp = np.empty(psi.shape[1], dtype=complex), np.empty(psi.shape[1], dtype=complex)

    def rhs(xi_hat: np.ndarray, s: float, out: np.ndarray) -> None:
        # fft of -i (2|psi|^2 xi + psi^2 conj(xi) + R) at t = s * dt
        i = int(s)
        pot, sq, force = tables if s == i else halves
        out[...] = xi_hat
        x = _fft.ifft(out, overwrite_x=True)  # x lives in out until sq * conj(x)
        np.multiply(pot[i], x, out=g)
        np.add(g, np.multiply(sq[i], np.conj(x, out=tmp), out=out), out=g)
        np.add(g, force[i], out=g)
        _fft.fft(np.multiply(-1j, g, out=out), overwrite_x=True)

    xi_out = [np.zeros(psi.shape[1], dtype=complex)]
    lawson = _lawson_rk4(xi_out[0], rhs, e1, eh, dt)
    # overflow is caught by the finiteness and bound checks, not reported as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _, xi_hat in drive(lawson, t_final, dt, dt, "linearized solve"):
            xi_out.append(_fft.ifft(xi_hat))
            sup = float(np.max(np.abs(xi_out[-1])))
            if not sup <= growth_bound:
                raise NumericsError(
                    f"linearized solve unstable at step {len(xi_out) - 1}: sup={sup:.3e} "
                    f"exceeds bound {growth_bound:.3e}"
                )
    return np.array(xi_out)


# ---------------------------------------------------------------------------
# the Newton loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NewtonIterationRow:
    n: int
    eps: float                 # majorant norm of the n-th correction at r_n
    sup_residual: float        # sup |R_n| over the trajectory
    ratio: float               # eps_{n+1} / eps_n^2, nan on the last row


@dataclass(frozen=True)
class NewtonResult:
    trajectory: Trajectory     # converged psi on [0, T] (for the scaled data)
    rows: tuple
    amplitude_scale: float     # data was scaled by this factor before iterating
    converged: bool
    iterations: int


def newton_iterate(
    psi0: GridField,
    t_final: float,
    dt: float,
    r1: float = 1.0,
    max_iter: int = 12,
    tol: float = 1e-12,
    smallness: float = 0.5,
) -> NewtonResult:
    """Run the Newton scheme from psi_1 = e^{it Dxx} psi0.

    The n-th correction is measured at the radius r_n, which shrinks from r1
    and stays above r1/2.  If the initial majorant norm exceeds ``smallness``
    the data is multiplied by a recorded amplitude scale first (the returned
    trajectory then solves the problem for the scaled data).  Stops when
    sup|R_n| <= tol or after max_iter corrections; raises
    NumericsError when the correction norms grow twice in a row.
    """
    times, phases = _free_phases(psi0.box_length, psi0.size, t_final, dt)
    eps1_raw = majorant_norm(psi0, AnalyticNormParams(r1, 0))
    scale = 1.0 if eps1_raw <= smallness else smallness / eps1_raw
    data_hat = _fft.fft(scale * psi0.values)
    psi = _fft.ifft(phases * data_hat[None, :], axis=1)
    r = (psi.real ** 2 + psi.imag ** 2) * psi  # R_1 = |psi_1|^2 psi_1

    eps_prev = eps1_raw * scale  # linear evolution preserves |c_k|
    rows: list[NewtonIterationRow] = []
    grow_count = 0
    n = 1
    while True:
        sup_r = float(np.max(np.abs(r)))
        converged = sup_r <= tol
        if converged or n >= max_iter:
            rows.append(NewtonIterationRow(n=n, eps=eps_prev, sup_residual=sup_r, ratio=np.nan))
            break
        xi = solve_linearized(psi, r, psi0.box_length, dt)
        r = residual(psi, xi)
        # sup over the rows of the order-0 majorant at r_{n+1}
        params = AnalyticNormParams(_radius(r1, n + 1), 0)
        eps_next = float(np.max(_majorant_rows(xi, psi0.box_length, params)))
        square = eps_prev ** 2  # 0 where it underflows: the ratio is then undefined
        ratio = eps_next / square if square > 0 else np.nan
        rows.append(NewtonIterationRow(n=n, eps=eps_prev, sup_residual=sup_r, ratio=ratio))
        grow_count = grow_count + 1 if eps_next > eps_prev else 0
        if grow_count >= 2:
            raise NumericsError(
                f"correction norms grew twice in a row (eps={eps_next:.3e}); "
                "reduce T or the data amplitude"
            )
        psi = psi + xi
        eps_prev = eps_next
        n += 1

    return NewtonResult(
        trajectory=Trajectory(times=times, values=psi, box_length=psi0.box_length),
        rows=tuple(rows),
        amplitude_scale=scale,
        converged=converged,
        iterations=n,
    )
