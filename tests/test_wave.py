import hashlib
import itertools

import numpy as np
import pytest

from nlsgrowth.errors import NumericsError
from nlsgrowth.fields import GridField, InitialData, chi_eval, make_initial_grid
from nlsgrowth.wave import WaveState, _wavenumbers, _verlet, nlw_cone_test, nlw_energy, run_nlw


def real_grid(vals, box):
    return GridField(values=np.asarray(vals, dtype=complex), box_length=box)


def zero_state(box, size):
    z = np.zeros(size)
    return WaveState(u=real_grid(z, box), v=real_grid(z, box))


class TestStep:
    def test_zero_state_fixed(self):
        s = zero_state(32.0, 256)
        _, out = run_nlw(s, 0.05, 0.05, 0.05)
        assert np.all(out.u.values == 0) and np.all(out.v.values == 0)

    def test_cfl_guard(self):
        s = zero_state(32.0, 256)
        with pytest.raises(ValueError, match="CFL"):
            run_nlw(s, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="CFL"):
            nlw_cone_test(s.u, s.v, 1.0, 1.0)

    @pytest.mark.parametrize("call", ["state", "cone"])
    @pytest.mark.parametrize("u, v, match", [
        (real_grid(np.zeros(64), 32.0), real_grid(np.zeros(64), 16.0), "share one grid"),
        (GridField(np.full(64, 1e-3j), 32.0), real_grid(np.zeros(64), 32.0), "must be real"),
        (real_grid(np.zeros(64), 32.0), GridField(np.full(64, 1e-3j), 32.0), "must be real"),
    ], ids=["two_grids", "complex_u", "complex_v"])
    def test_rejects_fields_it_cannot_step(self, call, u, v, match):
        # the equation evolves real data: an imaginary part is not dropped silently
        with pytest.raises(ValueError, match=match):
            WaveState(u, v) if call == "state" else nlw_cone_test(u, v, 1.0, 0.05)

    @pytest.mark.parametrize("dt", (-0.1, 0.0))
    def test_rejects_non_positive_dt(self, dt):
        # dt = -0.1 used to return the t = 0 record alone
        with pytest.raises(ValueError, match="dt > 0"):
            run_nlw(zero_state(32.0, 256), 1.0, dt, 0.5)

    def test_linear_standing_wave(self):
        # coupling 0: u = cos(kx) cos(kt) exactly (spectral space, 2nd order time)
        box, size = 2 * np.pi * 8, 256
        kmode = 3
        k = 2 * np.pi * kmode / box
        x = -box / 2 + (box / size) * np.arange(size)
        state = WaveState(u=real_grid(np.cos(k * x), box), v=real_grid(np.zeros(size), box))
        dt = 1e-3
        records, final = run_nlw(state, 1.0, dt, 1.0, coupling=0.0)
        expected = np.cos(k * x) * np.cos(k * 1.0)
        err = np.max(np.abs(final.u.values.real - expected))
        assert err < 5e-7  # O(dt^2 k^3)

        # second-order convergence in dt
        _, final2 = run_nlw(state, 1.0, 2e-3, 1.0, coupling=0.0)
        err2 = np.max(np.abs(final2.u.values.real - expected))
        assert err2 / err == pytest.approx(4.0, rel=0.2)


class TestEnergy:
    def test_energy_value_single_mode(self):
        box, size = 2 * np.pi * 4, 256
        k = 2 * np.pi * 2 / box
        x = -box / 2 + (box / size) * np.arange(size)
        amp = 0.7
        state = WaveState(
            u=real_grid(amp * np.cos(k * x), box), v=real_grid(np.zeros(size), box)
        )
        # 1/2 int u_x^2 = 1/2 * amp^2 k^2 * box/2 ; quartic = 1/4 * amp^4 * (3/8) box
        expected = 0.5 * amp ** 2 * k ** 2 * box / 2 + 0.25 * amp ** 4 * (3.0 / 8.0) * box
        energy = nlw_energy(state.u.values.real, state.v.values.real, box, 1, 1.0)
        assert energy == pytest.approx(expected, rel=1e-12)

    def test_drift_random_data(self):
        box, size = 64.0, 256
        u0 = make_initial_grid(InitialData.random_band(1.0, 2.0, 4), box, size)
        u1 = make_initial_grid(InitialData.random_band(1.0, 2.0, 5), box, size)
        state = WaveState(
            u=real_grid(u0.values.real, box), v=real_grid(u1.values.real, box)
        )
        e0 = nlw_energy(state.u.values.real, state.v.values.real, box, 1, 1.0)
        records, _ = run_nlw(state, 5.0, 2.5e-4, 1.0)
        drift = max(abs(e - e0) / abs(e0) for _, _, e in records)
        assert drift < 1e-6

    @pytest.mark.parametrize("p", (1, 2))
    def test_records_are_energy_of_recorded_state(self, p):
        # run_nlw records from its live arrays: bitwise nlw_energy of the
        # initial state and of the final state it returns
        state = band_state(64.0, 256, 21)
        records, final = run_nlw(state, 0.25, 2.0 ** -6, 0.25, p=p)
        for (_, _, energy), s in zip((records[0], records[-1]), (state, final)):
            assert energy == nlw_energy(s.u.values.real, s.v.values.real, 64.0, p, 1.0)


class TestConeTest:
    def test_overflow_is_a_numerical_abort(self):
        # the overflow ends in NumericsError, not in a numpy warning
        box, size = 32.0, 64
        u0, u1 = (
            real_grid(make_initial_grid(InitialData.random_band(1e200, 1.0, seed), box, size).values.real, box)
            for seed in (1, 2)
        )
        with pytest.raises(NumericsError, match="cone test run overflowed"):
            nlw_cone_test(u0, u1, 1.0, 0.1)

    def test_zero_data(self):
        box, size = 128.0, 512
        z = np.zeros(size)
        d = nlw_cone_test(real_grid(z, box), real_grid(z, box), 5.0, 0.05)
        assert d == 0.0

    def test_data_inside_cone_identical(self):
        # compactly supported data already inside |x| <= T: truncation is the
        # identity and the two runs coincide exactly
        box, size = 128.0, 512
        x = -box / 2 + (box / size) * np.arange(size)
        T = 10.0
        bump = np.where(np.abs(x) < 8.0, np.cos(np.pi * x / 16.0) ** 2, 0.0)
        d = nlw_cone_test(real_grid(bump, box), real_grid(0 * bump, box), T, 0.05)
        assert d == 0.0

    @pytest.mark.parametrize("radius", (0.0, -1.0, np.nan))
    def test_rejects_radius_not_positive(self, radius):
        # checked before the truncation divides x by T
        s = zero_state(32.0, 256)
        with pytest.raises(ValueError, match="cone radius"):
            nlw_cone_test(s.u, s.v, radius, 0.01)

    def test_radius_not_a_whole_number_of_steps(self):
        # T / dt = 156.25: the cone's T bounds the sampled times, so the test
        # takes the 156 whole steps with t <= T instead of rejecting T
        box, size = 160.0, 512
        u0 = make_initial_grid(InitialData.random_band(0.5, 0.5, 11), box, size)
        u1 = make_initial_grid(InitialData.random_band(0.5, 0.5, 12), box, size)
        d = nlw_cone_test(real_grid(u0.values.real, box), real_grid(u1.values.real, box), 0.05, 3.2e-4)
        assert np.isfinite(d)

    def test_random_data_small_difference(self):
        # reduced-size smoke of the acceptance cone check
        box, size = 128.0, 2048
        u0 = make_initial_grid(InitialData.random_band(0.5, 0.5, 11), box, size)
        u1 = make_initial_grid(InitialData.random_band(0.5, 0.5, 12), box, size)
        T = 10.0
        d = nlw_cone_test(
            real_grid(u0.values.real, box), real_grid(u1.values.real, box), T, 2e-3
        )
        # spectral-tail floor of the coarse grid; the acceptance suite runs
        # the full-resolution T=20 check at 1e-10
        assert d < 1e-8


def band_state(box, size, seed):
    u = make_initial_grid(InitialData.random_band(1.0, 2.0, seed), box, size)
    v = make_initial_grid(InitialData.random_band(1.0, 2.0, seed + 1), box, size)
    return WaveState(u=real_grid(u.values.real, box), v=real_grid(v.values.real, box))


class TestPinned:
    # sha256 of the records and the final state, and the cone difference as
    # a hex float, computed with the allocating Verlet force that preceded
    # the scratch-buffer one (numpy 2.4.6, scipy 1.17.1): no bit moved
    @pytest.mark.parametrize("p,digest", [
        (1, "da5eb0e83d11e79786140d8e29260685e3615b0610c7b53c0b2f5eb297ee812f"),
        (2, "50c076e5278ef9f22037b8d1198fe3d7ee9a912c4b379f0f32e53a1a482379fe"),
    ])
    def test_pinned_run(self, p, digest):
        records, final = run_nlw(band_state(64.0, 256, 21), 1.0, 2.0 ** -6, 0.25, p=p)
        h = hashlib.sha256(np.array(records).tobytes())
        h.update(final.u.values.tobytes())
        h.update(final.v.values.tobytes())
        assert h.hexdigest() == digest

    def test_pinned_cone(self):
        state = band_state(160.0, 1024, 31)
        assert nlw_cone_test(state.u, state.v, 1.0, 1e-2).hex() == "0x1.27f95cd85f140p-14"


class TestStepperContract:
    def test_verlet_leaves_input_unchanged(self):
        state = band_state(64.0, 256, 21)
        u, v = state.u.values.real.copy(), state.v.values.real.copy()
        kept = u.copy(), v.copy()
        stepper = _verlet(u, v, _wavenumbers(64.0, 256), 2.0 ** -6, 1, 1.0)
        for _ in range(3):
            u1, v1 = next(stepper)
        assert u1 is not u and v1 is not v
        assert np.array_equal(u, kept[0]) and np.array_equal(v, kept[1])

    def test_batch_equals_rows_alone(self):
        # nlw_cone_test relies on this: the truncated row of its [2, M] batch
        # agrees bitwise with the full row wherever the data agree
        box, size = 160.0, 8192
        k = _wavenumbers(box, size)

        def step_200(u, v):
            return next(itertools.islice(_verlet(u, v, k, 3.2e-4, 1, 1.0), 199, None))

        rows = [band_state(box, size, seed) for seed in (41, 43)]
        ub, vb = step_200(np.vstack([s.u.values.real for s in rows]),
                          np.vstack([s.v.values.real for s in rows]))
        for i, s in enumerate(rows):
            ur, vr = step_200(s.u.values.real, s.v.values.real)
            assert np.array_equal(ub[i], ur) and np.array_equal(vb[i], vr)
