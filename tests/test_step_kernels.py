"""Per-step cost of the integrator kernels at the sizes the criteria use.

Each benchmark round is one step of a stepping core: the continuum
Lawson-RK4 step with the mollified cubic (c09/c11 at 1024 and 8192, c13's
cross-check at 64), the wave equation's Stormer-Verlet step (c12's energy run
at 512, its cone test's 2 x 8192 batch) and the lattice Strang step (c01's
ring of 8193 sites, a c04 batch of 8 rings of 385).  The comb round samples
c11's 2017-tooth comb at 8192 points, and the probe round is one continuum
record of c11's shape: mass, energy and three probes' local energies.  The
record round is one lattice record of every row of a batch of 8 and of 100
rings of 385 (a sweep and c04's shape).  The Newton round is one whole
linearized solve of c13's shape (64 points, 300 steps), and the ensemble round
one second-moment estimate of 100 samples at c07's three kernels, t0 = 25, 100
and 400 (335, 687 and 1969 sites), as the lattice-linear engine draws them.
The FFT pair round is one ifft(fft(x)) through the engines' seam
``nlsgrowth._fft`` at Newton's 64 points, c12's 512 and c01's 8193.  Tier-1
runs each kernel once (``--benchmark-disable``); to time them:

    PYTHONPATH=src python -m pytest tests/test_step_kernels.py --benchmark-enable \
        --benchmark-only --benchmark-time-unit=us --benchmark-columns=median,iqr,rounds
"""

import numpy as np
import pytest
from scipy import fft

from nlsgrowth import _fft
from nlsgrowth.continuum import (
    LocalEnergyProbe,
    _cubic_filter,
    _cubic_stage,
    _lawson_ctx,
    _lawson_rk4,
    _record_pass,
)
from nlsgrowth.fields import InitialData, Mollifier, WeightProfile, make_initial_grid
from nlsgrowth.lattice import LatticeModel, _linear_symbol, _record_columns, _step_values
from nlsgrowth.lattice_linear import kernel_table, random_ensemble_second_moment
from nlsgrowth.newton import solve_linearized
from nlsgrowth.wave import _wavenumbers, _verlet


@pytest.mark.parametrize("box,size,dt", [
    (2048.0, 8192, 2e-3),
    (128.0, 1024, 1e-3),
    (2.0 * np.pi, 64, 1e-4),
])
def test_lawson_step(benchmark, box, size, dt):
    # run_continuum's stage: -i sign coupling phi * (|phi * u|^2 phi * u)
    filt = _cubic_filter(Mollifier.gaussian(1.0), box, size, True)
    u0 = make_initial_grid(InitialData.random_band(1.0, 2.0, 1), box, size)
    stage = _cubic_stage(filt, -1j, filt.shape)
    stepper = _lawson_rk4(fft.fft(u0.values), stage, *_lawson_ctx(box, size, dt), dt)
    assert np.all(np.isfinite(benchmark(next, stepper)))


def test_comb_evaluation(benchmark):
    # c11's comb: 2017 teeth sampled at 8192 points
    spec = InitialData.gaussian_comb(np.ones(2017), -1008)
    u0 = benchmark(make_initial_grid, spec, 2048.0, 8192)
    assert np.all(np.isfinite(u0.values))


def test_probe_energies(benchmark):
    # one continuum record of c11's shape: mass, energy and 3 probes at R = 256
    u0 = make_initial_grid(InitialData.gaussian_comb(np.ones(2017), -1008), 2048.0, 8192)
    probes = [LocalEnergyProbe(x0, 256.0) for x0 in (-256.0, 0.0, 256.0)]
    row = benchmark(_record_pass, u0.values[None, :], 2048.0, Mollifier.gaussian(1.0), probes)
    assert row.shape == (1, 5) and np.all(np.isfinite(row)) and np.all(row > 0.0)


def test_newton_linearized_solve(benchmark):
    # c13's shape: psi_1 = 0.1 cos x freely evolved, forcing R_1 = |psi_1|^2 psi_1
    size, dt, steps = 64, 1e-3, 300
    k = 2.0 * np.pi * fft.fftfreq(size, d=1.0 / size)
    x = -np.pi + (2.0 * np.pi / size) * np.arange(size)
    times = dt * np.arange(steps + 1)
    psi = fft.ifft(np.exp(-1j * np.outer(times, k ** 2)) * fft.fft(0.1 * np.cos(x)), axis=1)
    forcing = (psi.real ** 2 + psi.imag ** 2) * psi
    xi = benchmark(solve_linearized, psi, forcing, 2.0 * np.pi, dt)
    assert xi.shape == psi.shape and np.all(np.isfinite(xi))


@pytest.mark.parametrize("rows,box,size,dt", [
    (1, 128.0, 512, 2.5e-4),
    (2, 160.0, 8192, 3.2e-4),
])
def test_verlet_step(benchmark, rows, box, size, dt):
    u = np.vstack([make_initial_grid(InitialData.random_band(0.5, 0.5, s), box, size).values.real
                   for s in range(rows)])
    v = np.vstack([make_initial_grid(InitialData.random_band(0.5, 0.5, s + 7), box, size).values.real
                   for s in range(rows)])
    stepper = _verlet(u, v, _wavenumbers(box, size), dt, 1, 1.0)
    u1, v1 = benchmark(next, stepper)
    assert np.all(np.isfinite(u1)) and np.all(np.isfinite(v1))


@pytest.mark.parametrize("rows,extent", [(1, 4096), (8, 192)])
def test_strang_step(benchmark, rows, extent):
    model = LatticeModel(extent=extent, dt=0.01)
    rng = np.random.default_rng(3)
    v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(rows, 2 * extent + 1)))
    work = (np.empty_like(v), np.empty_like(v), np.empty(v.shape), np.empty(v.shape))
    symbol = _linear_symbol(v.shape[1], model.dt)
    stepped = benchmark(_step_values, v, model, symbol, work)
    assert np.all(np.isfinite(stepped))


@pytest.mark.parametrize("rows,extent", [(8, 192), (100, 192)])
def test_record_pass(benchmark, rows, extent):
    # c04's weight (R = 1, t0 = 50), shared by every row, halfway through
    model = LatticeModel(extent=extent, dt=0.01)
    rng = np.random.default_rng(5)
    v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(rows, 2 * extent + 1)))
    columns = benchmark(_record_columns, v, model, [WeightProfile(0, 1.0, 50.0)] * rows, 25.0)
    assert all(c.shape == (rows,) and np.all(np.isfinite(c)) for c in columns)


def test_ensemble_moment(benchmark):
    kernels = [kernel_table(t0) for t0 in (25.0, 100.0, 400.0)]
    m2s = benchmark(random_ensemble_second_moment, kernels, 1.0, 100, 7)
    assert len(m2s) == 3 and all(np.isfinite(m2) and m2 > 0.0 for m2 in m2s)


@pytest.mark.parametrize("size", [64, 512, 8193])
def test_fft_pair(benchmark, size):
    x = np.exp(1j * np.random.default_rng(size).uniform(0.0, 2.0 * np.pi, size))
    y = benchmark(lambda: _fft.ifft(_fft.fft(x)))
    assert np.allclose(y, x, rtol=0.0, atol=1e-12)
