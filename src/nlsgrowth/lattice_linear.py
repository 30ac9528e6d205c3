"""Exact linear lattice propagator and its stationary-phase companions.

Two kernel normalizations appear side by side.  The oscillatory integral

    F_n(t) = (2 pi)^-1 \\int_0^{2 pi} exp(i t cos(theta) + i n theta) dtheta
           = i^n J_n(t)

corresponds to the pure-hopping generator psi(x+1) + psi(x-1).  The canonical
discrete Laplacian Delta psi = psi(x+1) + psi(x-1) - 2 psi(x) used by the
dynamics module differs by the on-site -2, so the propagator e^{i t Delta}
has kernel

    K_n(t) = e^{-2it} i^n J_n(2t) = e^{-2it} F_n(2t).

Bessel values for tables come from backward (Miller) recurrence with sum
normalization; the adaptive quadrature of F_n serves as the slow independent
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _fft
from .errors import NumericsError
from .fields import LatticeField

__all__ = [
    "KernelTable",
    "kernel_integral",
    "kernel_table",
    "default_half_width",
    "linear_evolve",
    "stationary_phase_eval",
    "adversarial_data",
    "pairing_check",
    "random_ensemble_second_moment",
]

# kernel amplitudes below this are treated as exactly 0 when extracting phases
PHASE_FLOOR = 1e-300

# tolerated unitarity deficit of a truncated kernel table
TAIL_MASS_TOL = 1e-14


def kernel_integral(t: float, n: int, tol: float = 1e-13) -> complex:
    """F_n(t) by adaptive quadrature of the oscillatory integral.

    The integrand is smooth and 2 pi periodic, so the equally weighted
    trapezoid mean converges geometrically; the point count doubles until two
    successive levels agree within ``tol``.  The start resolution already
    covers the integrand's spectral width ~ |n| + t: starting below it can
    trap the doubling on aliased coefficients that agree between levels.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    need = 2 * (int(np.ceil(t)) + abs(n)) + 64
    m = 64
    while m < need:
        m *= 2
    prev = None
    while m <= 2 ** 22:
        theta = 2.0 * np.pi * np.arange(m) / m
        val = complex(np.mean(np.exp(1j * (t * np.cos(theta) + n * theta))))
        if prev is not None and abs(val - prev) <= tol:
            return val
        prev = val
        m *= 2
    raise NumericsError(
        f"kernel_integral(t={t}, n={n}) did not converge to {tol}"
    )


def _bessel_jn_table(x: float, nmax: int) -> np.ndarray:
    """J_n(x) for n = 0..nmax by Miller backward recurrence.

    Starts the downward recurrence well past the turning point and normalizes
    with J_0 + 2 sum_{k>=1} J_{2k} = 1.
    """
    if x == 0.0:
        out = np.zeros(nmax + 1)
        out[0] = 1.0
        return out
    start = max(nmax, int(np.ceil(x))) + 72 + int(np.ceil(12.0 * x ** (1.0 / 3.0)))
    vals = np.zeros(start + 2)
    vals[start] = 1e-300
    for k in range(start, 0, -1):
        vals[k - 1] = (2.0 * k / x) * vals[k] - vals[k + 1]
        if abs(vals[k - 1]) > 1e250:
            vals[k - 1:] *= 1e-250
    norm = vals[0] + 2.0 * np.sum(vals[2::2])
    return vals[: nmax + 1] / norm


def default_half_width(t: float) -> int:
    """Half-width keeping the truncated tail mass of K(t) below TAIL_MASS_TOL.

    The kernel argument is 2t; the support edge at |n| ~ 2t broadens over an
    Airy region of width (2t)^(1/3).
    """
    if not np.isfinite(t):
        raise ValueError(f"t = {t} is not finite")
    x = 2.0 * abs(t)
    return int(np.ceil(x)) + 72 + int(np.ceil(12.0 * max(x, 1.0) ** (1.0 / 3.0)))


@dataclass(frozen=True)
class KernelTable:
    """K_n(t) for |n| <= half_width, with K_{-n} = K_n and sum |K_n|^2 = 1."""

    t: float
    half_width: int
    values: np.ndarray  # index n + half_width

    def value(self, n: int) -> complex:
        if abs(n) > self.half_width:
            return 0.0 + 0.0j
        return complex(self.values[n + self.half_width])

    @property
    def ns(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + 1)

    def unitarity_deficit(self) -> float:
        return abs(1.0 - float(np.sum(np.abs(self.values) ** 2)))


def kernel_table(t: float, half_width: int | None = None) -> KernelTable:
    """Tabulate K_n(t) = e^{-2it} i^n J_n(2t) by backward recurrence.

    Raises ValueError when the requested half-width truncates more than
    TAIL_MASS_TOL of the kernel's l2 mass.
    """
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"t = {t} must be finite and >= 0")
    if half_width is None:
        half_width = default_half_width(t)
    if half_width < 1:
        raise ValueError("half_width must be >= 1")
    x = 2.0 * t
    # the table runs default_half_width's margin past the larger of half_width and x
    j_top = default_half_width(t) + max(half_width - int(np.ceil(x)), 0)
    jn = _bessel_jn_table(x, j_top)
    tail = 2.0 * float(np.sum(jn[half_width + 1:] ** 2))
    if tail > TAIL_MASS_TOL:
        raise ValueError(
            f"half_width={half_width} leaves tail mass {tail:.3e} > {TAIL_MASS_TOL}"
            f" for t={t}; need roughly {default_half_width(t)}"
        )
    n_abs = np.abs(np.arange(-half_width, half_width + 1))
    vals = np.exp(-2j * t) * (1j) ** n_abs * jn[n_abs]
    return KernelTable(t=t, half_width=half_width, values=vals)


def linear_evolve(psi0: LatticeField, t: float, kernel: KernelTable | None = None) -> LatticeField:
    """psi(t) = K(t) * psi0, circular convolution on the truncated lattice.

    The kernel table is folded onto the ring of period 2N+1 (consistent with
    the dynamics module's periodic wrap) and applied via FFT.
    """
    n = psi0.extent
    period = 2 * n + 1
    if kernel is None:
        kernel = kernel_table(t, max(default_half_width(t), n))
    elif kernel.t != t:
        raise ValueError(f"kernel table is for t={kernel.t}, not t={t}")
    ring = np.zeros(period, dtype=complex)
    idx = np.mod(kernel.ns, period)
    np.add.at(ring, idx, kernel.values)
    # field index 0 is site -N; align kernel to site coordinates
    shifted = np.roll(psi0.values, -n)  # now index 0 is site 0
    out = _fft.ifft(_fft.fft(shifted) * _fft.fft(ring))
    return LatticeField(values=np.roll(out, n), extent=n)


def _saddle(t: float, n: int) -> tuple[float, float]:
    """Saddle-point phase and amplitude of F_n(t), interior regime |n| <= t/2.

    The phase is the one printed in the saddle analysis,
    phi = pi/4 + t cos(theta_s) + n theta_s with sin(theta_s) = n/t; the
    amplitude is sqrt(2/(pi t cos theta_s)).  The numerically matching
    evaluation uses phi - pi/2 (the classical J_0 ~ cos(t - pi/4)
    convention); see ``stationary_phase_eval``.
    """
    if abs(n) > t / 2.0:
        raise ValueError(f"|n|={abs(n)} outside the interior regime t/2={t / 2}")
    theta_s = float(np.arcsin(n / t))
    cos_s = float(np.cos(theta_s))
    phi = np.pi / 4.0 + t * cos_s + n * theta_s
    return phi, float(np.sqrt(2.0 / (np.pi * t * cos_s)))


def stationary_phase_eval(t: float, n: int) -> complex:
    """Two-saddle approximation of F_n(t), valid for t >= 20, |n| <= t/2.

    Returns amplitude*cos(zeta) for even n and i*amplitude*sin(zeta) for odd
    n, with amplitude = sqrt(2/(pi t cos theta_s)) and
    zeta = t cos(theta_s) + n theta_s - pi/4.  The -pi/4 is the sign produced
    by carrying out the saddle evaluation (it reproduces the classical
    J_0(t) ~ sqrt(2/pi t) cos(t - pi/4)); the printed +pi/4 phase is the
    one ``pairing_check`` tests.
    """
    if t < 20.0:
        raise ValueError("stationary phase regime requires t >= 20")
    phi, amplitude = _saddle(t, n)
    zeta = phi - np.pi / 2.0
    if n % 2 == 0:
        return complex(amplitude * np.cos(zeta))
    return complex(1j * amplitude * np.sin(zeta))


def adversarial_data(t0: float, extent: int, kernel: KernelTable | None = None) -> LatticeField:
    """Unit-modulus data whose free evolution peaks at the origin at time t0.

    a_n = conj(K_n(t0)) / |K_n(t0)| (zero where |K_n| underflows), so that
    e^{i t0 Delta} psi0 at site 0 equals sum_n |K_n(t0)| ~ t0^(1/2).
    """
    if kernel is None:
        kernel = kernel_table(t0)
    if extent < kernel.half_width:
        raise ValueError(
            f"extent {extent} smaller than kernel half-width {kernel.half_width};"
            " the aligned mass would be truncated"
        )
    vals = np.zeros(2 * extent + 1, dtype=complex)
    k = kernel.values
    mask = np.abs(k) >= PHASE_FLOOR
    phases = np.zeros_like(k)
    phases[mask] = np.conj(k[mask]) / np.abs(k[mask])
    vals[kernel.ns + extent] = phases
    return LatticeField(values=vals, extent=extent)


def pairing_check(t: float) -> bool:
    """Even/odd phase pairing behind the t^(1/2) lower bound.

    True iff for every even |n| <= t/2 at least one of |cos(phi(t,n))|,
    |sin(phi(t,n+1))| is >= 1/4, with phi = pi/4 + t cos(theta_s) + n theta_s.
    """
    if t < 20.0:
        raise ValueError("pairing check requires t >= 20")
    half = int(np.floor(t / 2.0))
    for n in range(-half, half + 1):
        if n % 2 != 0:
            continue
        phi_even, _ = _saddle(t, n)
        best = abs(np.cos(phi_even))
        if abs(n + 1) <= t / 2.0:
            phi_odd, _ = _saddle(t, n + 1)
            best = max(best, abs(np.sin(phi_odd)))
        if best < 0.25:
            return False
    return True


def random_ensemble_second_moment(
    kernels: list[KernelTable], amplitude: float, num_samples: int, seed: int,
) -> list[float]:
    """Monte-Carlo estimates of E|psi(t,0)|^2 for iid unit-modulus data, one
    per kernel table K(t).

    a_j = amplitude * exp(i theta_j); psi(t,0) = sum_n K_n(t) a_n.  Each sample
    draws from an independent PCG64 stream spawned from the master seed, so the
    estimate is reproducible and order-independent.  A sample draws once, at
    the longest kernel's length; a shorter draw from its stream would be a
    prefix of that one, so each kernel's estimate is bitwise its own.
    exp(i theta_j) is cos + i sin, bitwise numpy's complex exp of 1j * theta_j.
    """
    if num_samples < 100:
        raise ValueError("num_samples must be >= 100")
    if not kernels:
        raise ValueError("no kernel tables to estimate at")
    ks = [kernel.values for kernel in kernels]
    unit = np.empty(max(k.shape[0] for k in ks), dtype=complex)
    acc = [0.0] * len(ks)
    for ss in np.random.SeedSequence(seed).spawn(num_samples):
        theta = np.random.default_rng(ss).uniform(0.0, 2.0 * np.pi, unit.shape[0])
        np.cos(theta, out=unit.real)
        np.sin(theta, out=unit.imag)
        for i, k in enumerate(ks):
            acc[i] += abs(np.dot(k, amplitude * unit[:k.shape[0]])) ** 2
    return [a / num_samples for a in acc]
