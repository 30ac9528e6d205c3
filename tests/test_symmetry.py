"""Exact symmetries of the stepping cores, checked on small rings and grids.

The lattice Strang step commutes with the gauge rotation psi -> e^{i theta}
psi and with translations of the ring, keeps the l2 mass, and is reversed by
conjugation: S(dt) conj(S(dt) psi) = conj(psi).  The wave equation's
Stormer-Verlet step commutes with translations and with (u, u_t) -> (-u, -u_t),
and is reversed by flipping the velocity.  The continuum Lawson-RK4 step with
the mollified cubic commutes with the gauge rotation and with translations of
the grid.  Each holds to roundoff (Hairer-Lubich-Wanner, Geometric Numerical
Integration, ch. II and V, for the symmetric compositions).  Example counts
are bounded so the properties stay cheap.
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import fft

from nlsgrowth.continuum import _cubic_filter, _cubic_stage, _lawson_ctx, _lawson_rk4
from nlsgrowth.fields import Mollifier
from nlsgrowth.lattice import LatticeModel, _linear_symbol, _step_values
from nlsgrowth.wave import _wavenumbers, _verlet

PROPERTY = settings(max_examples=25, deadline=None)

lattice_models = st.builds(
    LatticeModel,
    sign=st.sampled_from([+1, -1]),
    p=st.sampled_from([2.0, 3.0]),
    dt=st.floats(1e-3, 0.1),
)
extents = st.integers(1, 12)  # N of the ring of 2N+1 sites
seeds = st.integers(0, 2**32 - 1)
amplitudes = st.floats(0.1, 2.0)


def ring_data(extent: int, seed: int, amplitude: float) -> np.ndarray:
    """Two rows of complex Gaussian data on the ring of 2*extent+1 sites."""
    rng = np.random.default_rng(seed)
    shape = (2, 2 * extent + 1)
    return amplitude * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def strang(values: np.ndarray, model: LatticeModel) -> np.ndarray:
    v = values.copy()
    work = (np.empty_like(v), np.empty_like(v), np.empty(v.shape), np.empty(v.shape))
    return _step_values(v, model, _linear_symbol(v.shape[1], model.dt), work)


def roundoff(values: np.ndarray) -> float:
    return 1e-13 * max(1.0, float(np.max(np.abs(values))))


class TestStrangStep:
    @PROPERTY
    @given(lattice_models, extents, seeds, amplitudes, st.floats(0.0, 2.0 * np.pi))
    def test_gauge_covariance(self, model, extent, seed, amplitude, theta):
        psi = ring_data(extent, seed, amplitude)
        rotation = np.exp(1j * theta)
        got = strang(rotation * psi, model)
        np.testing.assert_allclose(got, rotation * strang(psi, model), rtol=0, atol=roundoff(psi))

    @PROPERTY
    @given(lattice_models, extents, seeds, amplitudes, st.integers(-30, 30))
    def test_translation_covariance(self, model, extent, seed, amplitude, shift):
        psi = ring_data(extent, seed, amplitude)
        got = strang(np.roll(psi, shift, axis=1), model)
        np.testing.assert_allclose(
            got, np.roll(strang(psi, model), shift, axis=1), rtol=0, atol=roundoff(psi)
        )

    @PROPERTY
    @given(lattice_models, extents, seeds, amplitudes)
    def test_mass_preserved(self, model, extent, seed, amplitude):
        psi = ring_data(extent, seed, amplitude)
        mass = np.sum(np.abs(psi) ** 2, axis=1)
        stepped = np.sum(np.abs(strang(psi, model)) ** 2, axis=1)
        np.testing.assert_allclose(stepped, mass, rtol=1e-13, atol=0)

    @PROPERTY
    @given(lattice_models, extents, seeds, amplitudes)
    def test_time_reversal(self, model, extent, seed, amplitude):
        # conj turns the forward step into the backward one, S(-dt) = S(dt)^-1
        psi = ring_data(extent, seed, amplitude)
        back = strang(np.conj(strang(psi, model)), model)
        np.testing.assert_allclose(back, np.conj(psi), rtol=0, atol=roundoff(psi))


# (grid size, p, coupling, dt as a fraction of the grid spacing)
wave_setups = st.tuples(
    st.integers(4, 48), st.sampled_from([1, 2]), st.floats(0.0, 2.0), st.floats(0.01, 0.25)
)


def verlet_step(u: np.ndarray, v: np.ndarray, setup) -> tuple[np.ndarray, np.ndarray]:
    size, p, coupling, cfl = setup
    box = 8.0
    return next(_verlet(u, v, _wavenumbers(box, size), cfl * box / size, p, coupling))


def wave_data(setup, seed: int, amplitude: float) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    return amplitude * rng.standard_normal(setup[0]), amplitude * rng.standard_normal(setup[0])


class TestVerletStep:
    @PROPERTY
    @given(wave_setups, seeds, amplitudes, st.integers(-30, 30))
    def test_translation_covariance(self, setup, seed, amplitude, shift):
        u, v = wave_data(setup, seed, amplitude)
        got = verlet_step(np.roll(u, shift), np.roll(v, shift), setup)
        for a, b in zip(got, verlet_step(u, v, setup)):
            np.testing.assert_allclose(a, np.roll(b, shift), rtol=0, atol=roundoff(b))

    @PROPERTY
    @given(wave_setups, seeds, amplitudes)
    def test_odd_symmetry(self, setup, seed, amplitude):
        # the force u_xx - coupling * u^(2p+1) is odd in u
        u, v = wave_data(setup, seed, amplitude)
        got = verlet_step(-u, -v, setup)
        for a, b in zip(got, verlet_step(u, v, setup)):
            np.testing.assert_allclose(a, -b, rtol=0, atol=roundoff(b))

    @PROPERTY
    @given(wave_setups, seeds, amplitudes)
    def test_reversibility(self, setup, seed, amplitude):
        # (u, v) -> (u1, v1), then (u1, -v1) -> (u, -v); a stiff step can blow
        # up the intermediate state, so the tolerance scales with it
        u, v = wave_data(setup, seed, amplitude)
        u1, v1 = verlet_step(u, v, setup)
        u2, v2 = verlet_step(u1, -v1, setup)
        atol = 1e-13 * max(1.0, float(np.max(np.abs(u1))), float(np.max(np.abs(v1))))
        np.testing.assert_allclose(u2, u, rtol=0, atol=atol)
        np.testing.assert_allclose(v2, -v, rtol=0, atol=atol)


# (grid size, mollifier, sign * coupling, dealias, dt)
lawson_setups = st.tuples(
    st.integers(4, 48),
    st.sampled_from([Mollifier.gaussian(0.5), Mollifier.fourier_cutoff(2.0),
                     Mollifier.fourier_cutoff(np.inf)]),
    st.floats(-2.0, 2.0),
    st.booleans(),
    st.floats(1e-3, 0.1),
)


def lawson_step(u: np.ndarray, setup) -> np.ndarray:
    """One continuum Lawson-RK4 step of the mollified cubic, as run_continuum
    takes it."""
    size, phi, sc, dealias, dt = setup
    box = 8.0
    filt = _cubic_filter(phi, box, size, dealias)
    e1, eh = _lawson_ctx(box, size, dt)
    stage = _cubic_stage(filt, -1j * sc, filt.shape)
    return fft.ifft(next(_lawson_rk4(fft.fft(u), stage, e1, eh, dt)))


def grid_data(setup, seed: int, amplitude: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return amplitude * (rng.standard_normal(setup[0]) + 1j * rng.standard_normal(setup[0]))


class TestLawsonStep:
    # a stiff step (dt * coupling * sup|phi*u|^2 near 1 or above) can blow up
    # the stepped field, so the tolerance scales with it
    @PROPERTY
    @given(lawson_setups, seeds, amplitudes, st.floats(0.0, 2.0 * np.pi))
    def test_gauge_covariance(self, setup, seed, amplitude, theta):
        u = grid_data(setup, seed, amplitude)
        rotation = np.exp(1j * theta)
        want = rotation * lawson_step(u, setup)
        got = lawson_step(rotation * u, setup)
        np.testing.assert_allclose(got, want, rtol=0, atol=roundoff(want))

    @PROPERTY
    @given(lawson_setups, seeds, amplitudes, st.integers(-30, 30))
    def test_translation_covariance(self, setup, seed, amplitude, shift):
        u = grid_data(setup, seed, amplitude)
        want = np.roll(lawson_step(u, setup), shift)
        got = lawson_step(np.roll(u, shift), setup)
        np.testing.assert_allclose(got, want, rtol=0, atol=roundoff(want))
