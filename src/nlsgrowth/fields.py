"""Shared field types, cutoffs, weights, mollifiers and initial data.

Complex amplitudes live either on a truncated integer lattice, as plain
arrays in the layout ``make_initial_lattice`` states, or in a ``GridField`` on
a uniform periodic grid over a box of length L.  All types are plain
immutable-after-construction values and safe to share read-only between
concurrent runs.

Mollifiers and initial data carry their own formulas: a ``Mollifier`` holds
its transfer function and an ``InitialData`` its ``sample(x, period)``, so
``make_initial_lattice`` and ``make_initial_grid`` only check the domain and
build the points.

Random generators use numpy's PCG64 (``np.random.default_rng(seed)``); every
random construction is bitwise reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GridField",
    "WeightProfile",
    "Mollifier",
    "InitialData",
    "chi_eval",
    "make_initial_lattice",
    "make_initial_grid",
]

# distance |x - j| beyond which a comb term e^{-(x-j)^2} falls below 1e-18 and
# is dropped from comb sums; exact to double precision
_COMB_REACH = float(np.sqrt(-np.log(1e-18)))


# ---------------------------------------------------------------------------
# field containers
# ---------------------------------------------------------------------------

def _extent(values: np.ndarray) -> int:
    """N of lattice values[..., 2N+1], whose entry x + N is site x; any other
    length is no lattice."""
    period = values.shape[-1]
    if period < 3 or period % 2 == 0:
        raise ValueError(f"lattice length {period} is not 2*extent+1 with extent >= 1")
    return (period - 1) // 2


def _check_grid_size(size: int) -> None:
    if size < 2 or (size & (size - 1)) != 0:
        raise ValueError(f"grid size {size} is not a power of two")


@dataclass(frozen=True)
class GridField:
    """Complex samples on the periodic grid x_j = -L/2 + j*h, h = L/M."""

    values: np.ndarray
    box_length: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)
        _check_grid_size(vals.shape[0])
        if not self.box_length > 0:
            raise ValueError("box_length must be positive")
        if not np.all(np.isfinite(vals.view(float))):
            raise ValueError("grid field contains non-finite entries")

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def spacing(self) -> float:
        return self.box_length / self.size

    @property
    def x(self) -> np.ndarray:
        return -self.box_length / 2 + self.spacing * np.arange(self.size)

    def sup_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def grid_wavenumbers(box_length: float, size: int) -> np.ndarray:
    """k_m = 2*pi*m/L for m in {0..M/2-1, -M/2..-1} (FFT ordering)."""
    return 2.0 * np.pi * np.fft.fftfreq(size, d=box_length / size)


# ---------------------------------------------------------------------------
# cutoff and weights
# ---------------------------------------------------------------------------

def chi_eval(x):
    """C^2 plateau cutoff: 1 on |x|<=1, 0 on |x|>=2, quintic smoothstep between.

    The shell uses s(u) = 6u^5 - 15u^4 + 10u^3 with u = 2-|x|, so chi and its
    first two derivatives are continuous and chi is even.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    out = np.zeros_like(ax)
    out[ax <= 1.0] = 1.0
    shell = (ax > 1.0) & (ax < 2.0)
    u = 2.0 - ax[shell]
    out[shell] = u ** 3 * (10.0 - 15.0 * u + 6.0 * u ** 2)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class WeightProfile:
    """Space-time weight F(t,x) = sqrt((x-x0)^2+1) / (R*(2*t0 - t + 1)).

    Defined for 0 <= t <= t0; strictly positive and nonincreasing in t.
    """

    x0: int
    R: float
    t0: float

    def __post_init__(self):
        if not self.R >= 1.0:
            raise ValueError("R must be >= 1")
        if not self.t0 >= 0.0:
            raise ValueError("t0 must be >= 0")

    def evaluate(self, t: float, x):
        if t < 0.0 or t > self.t0:
            raise ValueError(f"t={t} outside [0, t0={self.t0}]")
        x = np.asarray(x, dtype=float)
        num = np.sqrt((x - self.x0) ** 2 + 1.0)
        return num / (self.R * (2.0 * self.t0 - t + 1.0))


# ---------------------------------------------------------------------------
# mollifier
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Mollifier:
    """Smoothing kernel applied by spectral multiplication.

    ``transfer(k)`` is the kernel's real, even transfer function, bounded by 1.
    ``gaussian(sigma)``: unit-mass Gaussian of width sigma, transfer
    exp(-sigma^2 k^2 / 2).  ``fourier_cutoff(K)``: sharp frequency truncation,
    transfer 1_{|k| <= K}; ``fourier_cutoff(np.inf)`` is the identity and
    serves as the sigma -> 0 plain-cubic limit.
    """

    name: str
    transfer: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    @classmethod
    def gaussian(cls, sigma: float) -> "Mollifier":
        if not sigma > 0:
            raise ValueError("gaussian width must be positive")
        return cls(f"gaussian(sigma={sigma})", lambda k: np.exp(-sigma ** 2 * k ** 2 / 2.0))

    @classmethod
    def fourier_cutoff(cls, cutoff: float) -> "Mollifier":
        if not cutoff > 0:
            raise ValueError("cutoff wavenumber must be positive")
        return cls(
            f"fourier_cutoff(cutoff={cutoff})", lambda k: (np.abs(k) <= cutoff).astype(float)
        )


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitialData:
    """Bounded (and a few unbounded) initial data: a name and its formula.

    ``sample(x, period)`` gives the values at the points ``x`` of a ring of
    length ``period``: the lattice passes sites -N..N with period 2N+1, the
    grid passes x_j with period L.  ``on_lattice``/``on_grid`` say where the
    formula is defined.  ``support_radius`` bounds |x| where the data exceed
    1e-18 for comb data; it is 0 for point data and for spread
    data, whose wrap-margin check concerns only the light cone of the origin.
    ``ring_exact`` marks data whose realization is periodic with the ring's
    period (constant data, ring-snapped periodic data): the ring then
    evolves exactly what Z would, and no wrap margin is needed.

    Constructors:
      constant(A)                   psi0 = A everywhere
      delta(A)                      A at the origin, 0 elsewhere (lattice)
      random_phase(A, seed)         A * exp(i theta_x), theta uniform [0, 2pi)
                                    (lattice)
      random_gaussian(A, seed)      complex Gaussians with E|psi0|^2 = A^2
                                    (lattice; not sup-bounded)
      gaussian_comb(coeffs, j0)     sum_j a_j exp(-(x - j)^2), j = j0, j0+1, ...;
                                    |a_j| <= 1
      random_comb(A, J, seed)       comb on j = -J..J with random-phase a_j, |a_j| = A
      periodic(amps, freqs)         sum_m amp_m exp(i freq_m x); frequencies
                                    are snapped to the ring's reciprocal
                                    lattice at realization time
      random_band(A, k_band, seed)  random-phase trig polynomial with modes
                                    |k| <= k_band, normalized to sup = A
                                    (grid; continuum-smooth random bounded data)
    """

    name: str
    sample: Callable[[np.ndarray, float], np.ndarray] = field(repr=False)
    on_lattice: bool = True
    on_grid: bool = True
    support_radius: float = 0.0
    ring_exact: bool = False

    @classmethod
    def constant(cls, amplitude: float = 1.0) -> "InitialData":
        return cls(
            f"constant({amplitude})",
            lambda x, period: np.full(x.shape, amplitude, dtype=complex),
            ring_exact=True,
        )

    @classmethod
    def delta(cls, amplitude: float = 1.0) -> "InitialData":
        def sample(x, period):
            vals = np.zeros(x.shape, dtype=complex)
            vals[x == 0] = amplitude
            return vals

        return cls(f"delta({amplitude})", sample, on_grid=False)

    @classmethod
    def random_phase(cls, amplitude: float, seed: int) -> "InitialData":
        def sample(x, period):
            rng = np.random.default_rng(seed)
            return amplitude * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, len(x)))

        return cls(f"random_phase({amplitude}, seed={seed})", sample, on_grid=False)

    @classmethod
    def random_gaussian(cls, amplitude: float, seed: int) -> "InitialData":
        def sample(x, period):
            rng = np.random.default_rng(seed)
            n = len(x)
            return amplitude * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)

        return cls(f"random_gaussian({amplitude}, seed={seed})", sample, on_grid=False)

    @classmethod
    def gaussian_comb(cls, coeffs: Sequence[complex], comb_origin: int) -> "InitialData":
        arr = np.asarray(coeffs, dtype=complex)
        if np.any(np.abs(arr) > 1.0 + 1e-12):
            raise ValueError("comb coefficients must satisfy |a_j| <= 1")
        j = comb_origin + np.arange(len(arr), dtype=float)
        live = comb_origin + np.flatnonzero(np.abs(arr) > 0)
        support = float(np.max(np.abs(live))) + _COMB_REACH if len(live) else 0.0

        def sample(x, period):
            # points with n centers within _COMB_REACH sum as the rows of one [g, n] array
            lo = np.searchsorted(j, x - _COMB_REACH, side="left")
            count = np.searchsorted(j, x + _COMB_REACH, side="right") - lo
            out = np.zeros(x.shape, dtype=complex)
            for n in np.unique(count[count > 0]):
                pts = np.flatnonzero(count == n)
                cols = lo[pts, None] + np.arange(n)
                out[pts] = np.sum(arr[cols] * np.exp(-(x[pts, None] - j[cols]) ** 2), axis=1)
            return out

        return cls(
            f"gaussian_comb({len(arr)} centers from j={comb_origin})",
            sample,
            support_radius=support,
        )

    @classmethod
    def random_comb(cls, amplitude: float, half_extent: int, seed: int) -> "InitialData":
        """Comb with unit-modulus random-phase a_j scaled by amplitude <= 1."""
        if not 0 <= amplitude <= 1:
            raise ValueError("comb amplitude must lie in [0, 1]")
        rng = np.random.default_rng(seed)
        theta = rng.uniform(0.0, 2.0 * np.pi, size=2 * half_extent + 1)
        return cls.gaussian_comb(amplitude * np.exp(1j * theta), -half_extent)

    @classmethod
    def periodic(cls, amplitudes: Sequence[complex], frequencies: Sequence[float]) -> "InitialData":
        if len(amplitudes) != len(frequencies):
            raise ValueError("amplitudes and frequencies must have equal length")
        amps = tuple(complex(a) for a in amplitudes)
        freqs = tuple(float(f) for f in frequencies)

        def sample(x, period):
            # ring-commensurate frequencies keep the data truly periodic across
            # the wrap seam
            fund = 2.0 * np.pi / period
            vals = np.zeros(x.shape, dtype=complex)
            for amp, f in zip(amps, freqs):
                snapped = round(f / fund) * fund
                vals += amp * np.exp(1j * snapped * x)
            return vals

        return cls(f"periodic({len(amps)} modes)", sample, ring_exact=True)

    @classmethod
    def random_band(cls, amplitude: float, k_band: float, seed: int) -> "InitialData":
        def sample(x, period):
            rng = np.random.default_rng(seed)
            n_modes = int(np.floor(k_band * period / (2.0 * np.pi)))
            if n_modes < 1:
                raise ValueError(
                    f"k_band = {k_band} holds no mode of the box: the smallest band "
                    f"is 2*pi/L = {2.0 * np.pi / period:.6g}"
                )
            vals = np.zeros(x.shape, dtype=complex)
            for m in range(1, n_modes + 1):
                k = 2.0 * np.pi * m / period
                c_plus = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
                c_minus = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
                vals += c_plus * np.exp(1j * k * x) + c_minus * np.exp(-1j * k * x)
            peak = np.max(np.abs(vals))
            if peak > 0:
                vals *= amplitude / peak
            return vals

        return cls(
            f"random_band({amplitude}, k_band={k_band}, seed={seed})", sample, on_lattice=False
        )


def make_initial_lattice(spec: InitialData, extent: int) -> np.ndarray:
    """Realize an InitialData spec on the truncated lattice, sites -N..N.

    Returns values[2N+1] with ``values[x + extent]`` the amplitude at site x,
    the layout of every lattice array; boundary operations wrap periodically
    (period 2N+1).  A realization that overflows raises ValueError.
    """
    if extent < 1:
        raise ValueError("extent must be >= 1")
    if not spec.on_lattice:
        raise ValueError(f"{spec.name} is not defined on the lattice")
    sites = np.arange(-extent, extent + 1, dtype=float)
    # an overflow shows as the non-finite entries reported below
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(spec.sample(sites, 2 * extent + 1), dtype=complex)
    if not np.all(np.isfinite(values.view(float))):
        raise ValueError("lattice field contains non-finite entries")
    return values


def make_initial_grid(spec: InitialData, box_length: float, size: int) -> GridField:
    """Realize an InitialData spec on the periodic grid."""
    if not spec.on_grid:
        raise ValueError(f"{spec.name} is not defined on the grid")
    _check_grid_size(size)
    x = -box_length / 2 + (box_length / size) * np.arange(size)
    # an overflow shows as the non-finite entries GridField reports
    with np.errstate(over="ignore", invalid="ignore"):
        values = spec.sample(x, box_length)
    return GridField(values=values, box_length=box_length)
