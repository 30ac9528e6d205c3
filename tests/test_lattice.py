import hashlib

import numpy as np
import pytest
from scipy import fft

from nlsgrowth.errors import NumericsError
from nlsgrowth.fields import InitialData, WeightProfile, make_initial_lattice
from nlsgrowth.harness.fitting import fit_growth
from nlsgrowth.lattice import (
    LatticeModel,
    _abs_pow,
    _fft_pair_scale,
    _linear_symbol,
    _step_values,
    global_energy,
    lattice_states,
    local_energy,
    local_mass,
    run_lattice,
    run_lattice_batch,
    sup_time_derivative,
    windowed_mass_avg,
    windowed_quartic_avg,
)
from nlsgrowth.lattice_linear import default_half_width, kernel_table, linear_evolve


def lattice(vals):
    return np.asarray(vals, dtype=complex)


def mass(psi):
    """Global l2 mass sum_x |psi(x)|^2."""
    return float(np.sum(np.abs(psi) ** 2))


class TestStencils:
    # the stencils live inline in the diagnostics; with coupling 0,
    # global_energy is 1/2 sum |forward difference|^2 and sup_time_derivative
    # is sup |Laplacian|

    def test_forward_diff(self):
        linear = LatticeModel(coupling=0.0)
        assert global_energy(lattice(np.ones(7)), linear) == 0.0
        assert global_energy(lattice([0, 0, 0, 1, 0, 0, 0]), linear) == 1.0
        # ramp -3..3: six unit steps plus the wrap step 3 -> -3
        assert global_energy(lattice(np.arange(-3, 4, dtype=float)), linear) == 0.5 * (6 + 36)

    def test_laplacian(self):
        linear = LatticeModel(coupling=0.0)
        delta = lattice([0, 0, 0, 0, 1, 0, 0, 0, 0])
        assert sup_time_derivative(delta, linear) == 2.0
        assert sup_time_derivative(lattice(np.ones(9)), linear) == 0.0

    def test_laplacian_plane_wave_symbol(self):
        # the stencil's eigenvalue is the symbol of the exact linear substep
        n = 50
        period = 2 * n + 1
        kappa = 2 * np.pi * 7 / period  # ring-commensurate mode
        x = np.arange(-n, n + 1)
        wave = np.exp(1j * kappa * x)
        eig = -4.0 * np.sin(kappa / 2) ** 2
        linear = LatticeModel(dt=0.05, coupling=0.0)
        assert sup_time_derivative(wave, linear) == pytest.approx(-eig, rel=1e-12)
        _, stepped = run_lattice(linear, wave, 0.05, 0.05)
        assert np.allclose(stepped, np.exp(1j * eig * 0.05) * wave, atol=1e-12)


class TestModel:
    def test_nan_exponent_rejected(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            LatticeModel(p=np.nan)


class TestSplitStep:
    @staticmethod
    def evolve(psi, model, n_steps):
        t_final = n_steps * model.dt
        return run_lattice(model, psi, t_final, record_dt=t_final)[1]

    def test_zero_field(self):
        model = LatticeModel(dt=0.05)
        out = self.evolve(lattice(np.zeros(17)), model, 1)
        assert np.all(out == 0)

    def test_constant_field_phase_rotation(self):
        # uniform solution: psi(t) = e^{-i t} for A = 1, defocusing cubic
        model = LatticeModel(sign=+1, p=2.0, dt=0.05)
        psi = make_initial_lattice(InitialData.constant(1.0), 8)
        psi = self.evolve(psi, model, 100)
        t = 100 * model.dt
        assert np.allclose(psi, np.exp(-1j * t), atol=1e-12)
        assert np.max(np.abs(np.abs(psi) - 1.0)) < 1e-13

    def test_mass_conserved_per_step(self):
        model = LatticeModel(dt=0.05)
        psi = make_initial_lattice(InitialData.random_phase(1.0, 21), 128)
        m0 = mass(psi)
        psi = self.evolve(psi, model, 1)
        assert abs(mass(psi) - m0) / m0 < 1e-14

    def test_mass_drift_many_steps(self):
        model = LatticeModel(dt=0.01)
        psi = make_initial_lattice(InitialData.random_phase(1.0, 5), 256)
        m0 = mass(psi)
        psi = self.evolve(psi, model, 2000)
        assert abs(mass(psi) - m0) / m0 < 1e-12

    def test_linear_limit_matches_bessel_kernel(self):
        # coupling 0, delta data: 1000 steps of dt = 0.05 vs exact propagator
        t = 50.0
        extent = max(default_half_width(t), 200)
        model = LatticeModel(dt=0.05, coupling=0.0)
        psi0 = make_initial_lattice(InitialData.delta(1.0), extent)
        psi = self.evolve(psi0, model, 1000)
        exact = linear_evolve(psi0, kernel_table(t, extent))
        assert np.max(np.abs(psi - exact)) < 1e-8

    def test_even_ring_rejected(self):
        # the ring of sites -N..N has odd length 2N+1
        model = LatticeModel(dt=0.05)
        with pytest.raises(ValueError, match=r"lattice length 32 is not 2\*extent\+1"):
            run_lattice(model, lattice(np.zeros(32)), 0.05, 0.05)

    def test_dt_precondition(self):
        with pytest.raises(ValueError):
            LatticeModel(dt=0.2)

    def test_weight_shorter_than_run_rejected(self):
        model = LatticeModel(dt=0.05)
        psi = make_initial_lattice(InitialData.random_phase(1.0, 3), 8)
        with pytest.raises(ValueError, match="t0"):
            run_lattice_batch(model, psi[None], 2.0, 0.5, [WeightProfile(0, 1.0, 1.0)])

    def test_last_step_past_weight_t0_rejected(self):
        # 0.555 / 0.01 = 55.5 steps: no last step lands on t_final
        model = LatticeModel(dt=0.01)
        psi = make_initial_lattice(InitialData.random_phase(1.0, 3), 8)
        with pytest.raises(ValueError, match="last step"):
            run_lattice_batch(model, psi[None], 0.555, 0.1, [WeightProfile(0, 1.0, 0.555)])
        with pytest.raises(ValueError, match="last step"):
            run_lattice(model, psi, 0.555, 0.1)  # its weight has t0 = t_final
        # a weight past the rounded-up step does not make the horizon whole
        with pytest.raises(ValueError, match="whole number of steps"):
            run_lattice_batch(model, psi[None], 0.555, 0.1, [WeightProfile(0, 1.0, 0.56)])


def per_probe_pair_scale(period):
    """The FFT-pair calibration one probe at a time: the oracle that the
    batched ``_fft_pair_scale`` must equal bit for bit."""
    rng = np.random.default_rng(0xC0FFEE ^ period)
    rounds = 48
    estimates = []
    for _ in range(4):
        v = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, period))
        m0 = float(np.sum(v.real ** 2 + v.imag ** 2))
        for _ in range(rounds):
            v = fft.ifft(fft.fft(v))
        m1 = float(np.sum(v.real ** 2 + v.imag ** 2))
        estimates.append((m1 / m0) ** (1.0 / (2.0 * rounds)))
    return float(np.mean(estimates))


@pytest.mark.parametrize("period", (385, 1025, 8193))
def test_fft_pair_scale_equals_per_probe_loop(period):
    # c04 and the sweeps, c05/c06, and c01's Bluestein length
    assert _fft_pair_scale(period) == per_probe_pair_scale(period)


def exp_step(v, model, symbol, work):
    """The Strang step with numpy's complex exp for its half phases: the oracle
    that ``_step_values`` (cos + i sin of a real angle) must equal bit for bit."""
    phase, rot, r, r2 = work
    half = -1j * model.sign * model.coupling * (model.dt / 2.0)
    np.exp(np.multiply(half, _abs_pow(v, model.p, r, r2), out=phase), out=phase)
    v_hat = fft.fft(np.multiply(v, phase, out=rot), overwrite_x=True)
    w = fft.ifft(np.multiply(symbol, v_hat, out=phase), overwrite_x=True)
    np.exp(np.multiply(half, _abs_pow(w, model.p, r, r2), out=rot), out=rot)
    return np.multiply(w, rot, out=v)


class TestPhaseIdentity:
    def test_host_complex_exp_is_cos_plus_i_sin(self):
        # the lattice half phase and the ensemble draw rely on numpy's complex
        # exp of 0 + i theta being cos theta + i sin theta to the last bit
        theta = np.concatenate([[0.0], np.geomspace(1e-8, 1e3, 4001)])
        theta = np.concatenate([theta, -theta, [np.inf, -np.inf]])
        arg = np.zeros(theta.shape, dtype=complex)
        arg.imag = theta
        unit = np.empty_like(arg)
        with np.errstate(invalid="ignore"):
            np.cos(theta, out=unit.real)
            np.sin(theta, out=unit.imag)
            ref = np.exp(arg)
        finite = np.isfinite(theta)
        differ = np.any(unit.view(np.uint64).reshape(-1, 2) != ref.view(np.uint64).reshape(-1, 2), axis=1)
        assert not np.any(differ[finite]), (
            f"numpy's complex exp of 0 + i theta is not cos + i sin at theta = {theta[differ & finite][:4]}: "
            "the lattice phase and the ensemble draw are no longer bitwise equal to it"
        )
        # at theta = +-inf both are NaN; the NaNs' sign bits differ
        assert np.all(np.isnan(unit[~finite])) and np.all(np.isnan(ref[~finite]))

    @staticmethod
    def rows(shape):
        """Unit random phases, the first row with every third site zeroed;
        with three rows or more, a delta row and a row of signed zeros."""
        v = np.exp(1j * np.random.default_rng(17).uniform(0.0, 2.0 * np.pi, shape))
        v[0, ::3] = 0.0
        if shape[0] >= 3:
            v[1] = 0.0
            v[1, shape[1] // 2] = 1.0
            v[2] = complex(-0.0, 0.0)
        return v

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("coupling", [0.0, 1.0])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("shape", [(100, 385), (3, 1025), (1, 8193), (3, 27)], ids=lambda s: f"{s[0]}x{s[1]}")
    def test_step_equals_exp_oracle(self, shape, sign, coupling, p):
        # uint64 views: equal to the last bit, signed zeros included (the
        # signed-zero row at 27 sites differs after one step without the
        # + 0 that _half_phase adds to the angle)
        model = LatticeModel(sign=sign, p=p, coupling=coupling)
        symbol = _linear_symbol(shape[1], model.dt)
        got, want = self.rows(shape), self.rows(shape)
        work = [(np.empty_like(v), np.empty_like(v), np.empty(shape), np.empty(shape)) for v in (got, want)]
        for step in range(100):
            _step_values(got, model, symbol, work[0])
            exp_step(want, model, symbol, work[1])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), f"step {step}"


class TestBatch:
    """A batch is bitwise equal to its rows run one at a time."""

    EXTENT = 192  # ring 385, the Gronwall criterion's ring

    @staticmethod
    def assert_batch_equals_rows(model, psis, weights, t_final, record_dt):
        records, finals = run_lattice_batch(
            model, np.stack(psis), t_final, record_dt, weights
        )
        assert finals.shape == np.shape(psis)
        for psi, weight, rows, final in zip(psis, weights, records, finals):
            (ref_rows,), (ref_final,) = run_lattice_batch(model, psi[None], t_final, record_dt, [weight])
            assert rows == ref_rows  # every field of every record, exactly
            assert final.tobytes() == ref_final.tobytes()

    @pytest.mark.parametrize("rows", [8, 100])
    def test_batch_equals_rows(self, rows):
        # 100 rows of 385 sites are 616 KB per array, above numpy's 256 KiB
        # temporary-elision threshold
        model = LatticeModel(sign=+1, p=2.0, dt=0.01)
        psis = [
            make_initial_lattice(InitialData.random_phase(1.0, seed), self.EXTENT)
            for seed in range(rows)
        ]
        weight = WeightProfile(0, 1.0, 0.5)
        self.assert_batch_equals_rows(model, psis, [weight] * rows, 0.5, 0.25)

    @pytest.mark.parametrize("sign,p", [(+1, 2.0), (-1, 4.0), (+1, 1.0)])
    def test_mixed_weights_and_data(self, sign, p):
        model = LatticeModel(sign=sign, p=p, dt=0.01, coupling=0.7)
        psis = [
            make_initial_lattice(InitialData.random_phase(1.0, 4), self.EXTENT),
            make_initial_lattice(InitialData.random_gaussian(0.8, 5), self.EXTENT),
            make_initial_lattice(InitialData.constant(1.2), self.EXTENT),
            make_initial_lattice(InitialData.delta(2.0), self.EXTENT),
            make_initial_lattice(InitialData.random_comb(0.9, 20, 6), self.EXTENT),
        ]
        weights = [
            WeightProfile(0, 1.0, 1.0),
            WeightProfile(7, 1.0, 1.0),
            WeightProfile(0, 2.5, 1.0),
            WeightProfile(-30, 4.0, 3.0),
            WeightProfile(12, 1.5, 1.0),
        ]
        self.assert_batch_equals_rows(model, psis, weights, 1.0, 0.2)

    @staticmethod
    def written_out(model, v, w, t):
        """The six recorded diagnostics of one row, each formula written out."""
        n = (len(v) - 1) // 2
        x = np.arange(-n, n + 1).astype(float)
        weight = np.exp(-(np.sqrt((x - w.x0) ** 2 + 1.0) / (w.R * (2.0 * w.t0 - min(t, w.t0) + 1.0))))
        abs2 = v.real ** 2 + v.imag ** 2
        grad = np.roll(v, -1) - v
        grad2 = grad.real ** 2 + grad.imag ** 2
        abs_p = abs2 if model.p == 2.0 else np.abs(v) ** model.p
        lap = np.roll(v, -1) + np.roll(v, 1) - 2.0 * v
        nl = model.sign * model.coupling * abs_p * v
        potential = model.sign * model.coupling / (model.p + 2.0) * float(np.sum(abs2 ** (model.p / 2.0 + 1.0)))
        return (
            float(np.max(np.abs(v))),
            float(np.sum(np.abs(v) ** 2)),
            0.5 * float(np.sum(grad2)) + potential,
            float(np.sum(abs2 * weight)),
            float(np.sum((0.5 * grad2 + 0.25 * abs2 ** 2) * weight)),
            float(np.max(np.abs(lap - nl))),
        )

    @pytest.mark.parametrize("sign,p", [(+1, 2.0), (-1, 2.0), (+1, 3.0), (-1, 3.0)])
    def test_record_pass_equals_written_out_rows(self, sign, p):
        # rows of different data and weights, a zero row among them, and
        # rows sharing one weight; t_final = 0.3 is the first weight's t0
        model = LatticeModel(sign=sign, p=p, dt=0.01, coupling=0.7)
        n = 48
        values = np.stack([
            make_initial_lattice(InitialData.random_phase(1.0, 4), n),
            make_initial_lattice(InitialData.random_gaussian(0.8, 5), n),
            np.zeros(2 * n + 1, dtype=complex),
            make_initial_lattice(InitialData.delta(2.0), n),
            make_initial_lattice(InitialData.random_phase(0.6, 9), n),
        ])
        shared = WeightProfile(0, 1.0, 0.3)
        weights = [shared, WeightProfile(-5, 2.5, 40.0), shared, WeightProfile(9, 4.0, 3.0), shared]
        records, finals = run_lattice_batch(model, values, 0.3, 0.3, weights)
        for start, w, rows, final in zip(values, weights, records, finals):
            first, last = rows[0], rows[-1]
            assert first == (0.0, *self.written_out(model, start, w, 0.0))
            assert last == (last.t, *self.written_out(model, final, w, last.t))

    def test_overflow_names_the_row(self):
        model = LatticeModel(dt=0.01)
        values = np.stack([
            make_initial_lattice(InitialData.random_phase(1.0, 1), 8),
            make_initial_lattice(InitialData.constant(1e200), 8),
        ])
        weights = [WeightProfile(0, 1.0, 0.1)] * 2
        # the mass of the 1e200 row is inf already in its t = 0 record
        with np.errstate(all="ignore"):
            with pytest.raises(NumericsError, match=r"recorded global_mass = inf at t=0\.000 \(case big\)"):
                run_lattice_batch(model, values, 0.1, 0.05, weights, ["case ok", "case big"])
            with pytest.raises(NumericsError, match=r"\(row 1\)"):
                run_lattice_batch(model, values, 0.1, 0.05, weights)

    @pytest.mark.parametrize("sign,p,extent,digest", [
        (+1, 2.0, 192, "4561d1a8a35935039ac16a1894d55e6860ab1ea2adf8144adfae1e337980b5fb"),
        (-1, 4.0, 4096, "08a374758e7e6fd361f79d8be02585c3ac61dba362a1ae1527d1b98fd77b52bf"),
    ])
    def test_pinned_trajectory(self, sign, p, extent, digest):
        # sha256 of the final field and the records, computed with the
        # allocating one-row step that preceded the batch core (numpy 2.4.6,
        # scipy 1.17.1): the in-place step changes no bit of a run
        model = LatticeModel(sign=sign, p=p, dt=0.01)
        psi = make_initial_lattice(InitialData.random_phase(1.0, 7), extent)
        (records,), (final,) = run_lattice_batch(model, psi[None], 0.5, 0.25, [WeightProfile(3, 2.0, 1.0)])
        h = hashlib.sha256(final.tobytes())
        h.update(np.array([
            [r.t, r.sup_abs, r.global_mass, r.global_energy, r.local_mass, r.local_energy, r.sup_dt]
            for r in records
        ]).tobytes())
        assert h.hexdigest() == digest

    def test_shape_and_weight_count_checked(self):
        model = LatticeModel(dt=0.01)
        w = WeightProfile(0, 1.0, 0.1)
        with pytest.raises(ValueError, match="batch shape"):
            run_lattice_batch(model, np.zeros(17, complex), 0.1, 0.05, [w])
        with pytest.raises(ValueError, match="lattice length 16"):
            run_lattice_batch(model, np.zeros((2, 16), complex), 0.1, 0.05, [w, w])
        with pytest.raises(ValueError, match="weights"):
            run_lattice_batch(model, np.zeros((2, 17), complex), 0.1, 0.05, [w])

    def test_label_count_checked(self):
        # one label per row, checked before any step: an overflow in row 1
        # must find a label to name
        model = LatticeModel(dt=0.01)
        values = np.stack([np.zeros(17, complex), np.full(17, 1e200, complex)])
        w = WeightProfile(0, 1.0, 0.1)
        with pytest.raises(ValueError, match="1 labels for 2 rows"):
            run_lattice_batch(model, values, 0.1, 0.05, [w, w], ["a"])
        with pytest.raises(ValueError, match="1 labels for 2 rows"):
            next(lattice_states(model, values, 0.1, 0.05, ["a"]))


class TestStates:
    """The state stream that c05, c06 and the growth demo read once."""

    def test_stream_equals_restart_chain(self):
        # c05's +1 batch (row 1: random phase) at steps 1000 ... 10000 against
        # the restart chain that c05 and c06 ran before: the same states,
        # bitwise, so the same window averages
        extent, t0s = 512, (10.0, 20.0, 50.0, 100.0)
        model = LatticeModel(sign=+1, p=2.0, dt=0.01)
        specs = [
            InitialData.constant(1.0),
            InitialData.random_phase(1.0, 11),
            InitialData.periodic([0.5, 0.5], [0.9, 2.3]),
        ]
        psi0 = np.stack([make_initial_lattice(spec, extent) for spec in specs])
        chain, psi, t_done = [], psi0[1], 0.0
        for t0 in t0s:
            _, psi = run_lattice(model, psi, t0 - t_done, record_dt=t0 - t_done)
            t_done = t0
            chain.append((windowed_mass_avg(psi, 0, t0), windowed_quartic_avg(psi, 0, t0)))
        steps = {round(t0 / model.dt): t0 for t0 in t0s}
        stream = []
        for t, vals in lattice_states(model, psi0, 100.0, 0.5):
            if round(t / model.dt) in steps:
                t0, row = steps[round(t / model.dt)], vals[1].copy()
                stream.append((windowed_mass_avg(row, 0, t0), windowed_quartic_avg(row, 0, t0)))
        assert stream == chain

    def test_stream_is_what_the_records_read(self):
        # the record consumer reads the stream's states: times and sup norms
        # off the stream equal the records, and the last state the final values
        model = LatticeModel(sign=-1, p=2.0, dt=0.01)
        values = np.stack([
            make_initial_lattice(InitialData.random_phase(1.0, seed), 32) for seed in (1, 2)
        ])
        weights = [WeightProfile(0, 1.0, 0.5)] * 2
        records, finals = run_lattice_batch(model, values, 0.5, 0.1, weights)
        read = []
        for t, vals in lattice_states(model, values, 0.5, 0.1):
            read.append((t, np.abs(vals).max(axis=-1).tolist()))
        assert [t for t, _ in read] == [r.t for r in records[0]]
        for b, rows in enumerate(records):
            assert [sup[b] for _, sup in read] == [r.sup_abs for r in rows]
        assert vals.tobytes() == finals.tobytes()

    def test_stream_holds_no_error_state(self):
        # the generator sets no np.errstate across a yield: its caller's
        # error state holds between steps and governs the stepping
        model = LatticeModel(dt=0.01)
        values = np.full((1, 17), 1e200, complex)
        before = np.geterr()
        states = lattice_states(model, values, 0.1, 0.05)
        next(states)
        assert np.geterr() == before
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            next(states)


class TestTruncation:
    def test_origin_value_independent_of_extent_beyond_kernel_reach(self):
        # nonlinear run from delta data: beyond default_half_width(T) the ring
        # truncation no longer reaches the origin's light cone
        t = 25.0

        def origin(extent):
            model = LatticeModel(dt=0.01)
            psi0 = make_initial_lattice(InitialData.delta(1.0), extent)
            return run_lattice(model, psi0, t, record_dt=t)[1][extent]  # site 0

        reach = default_half_width(t)
        assert reach == 167
        ref = origin(2 * reach)
        assert abs(origin(reach) - ref) < 1e-12  # 2.4e-14 measured
        assert abs(origin(25) - ref) > 0.1  # a short ring is visibly wrong (0.18)

    # spread, bounded data: c05's random phases.  random_phase draws by array
    # position, so each ring realizes one datum on Z as the centred window of
    # one long draw, not as its own draw
    @staticmethod
    def _centred(draw, extent):
        mid = (len(draw) - 1) // 2
        return draw[mid - extent: mid + extent + 1]

    @pytest.mark.parametrize("sign", [1, -1])
    def test_spread_data_origin_independent_of_ring_beyond_reach(self, sign):
        t = 10.0
        reach = default_half_width(t)
        draw = make_initial_lattice(InitialData.random_phase(1.0, 11), 4 * reach)

        def origin(extent):
            model = LatticeModel(sign=sign, dt=0.01)
            for _, vals in lattice_states(model, self._centred(draw, extent)[None], t, t):
                pass
            return vals[0, extent]

        ref = origin(4 * reach)
        # the rings' roundoff, amplified by 1000 steps of the flow, sets the
        # floor: 5e-13 to 4e-11 measured for seeds 8-15, no smaller on the
        # ring of 2*reach.  Past T = 10 the flow's amplification outgrows
        # any tolerance (4e-9 to 2e-8 at T = 25), whatever the ring
        for extent in (reach, 2 * reach):
            assert abs(origin(extent) - ref) < 1e-10
        # a short ring is visibly wrong (0.09 to 1.1 for seeds 8-15)
        assert abs(origin(20) - ref) > 1e-2

    def test_spread_data_observables_independent_of_ring(self):
        # c05's check values, its sup slopes over [10, T] for both signs and
        # the defocusing run's mass window averages at t0 = 10, 20, 50, on a
        # ring whose wrap reaches the origin by T (128 < 2T) and on one twice
        # as long, from one draw.  Past T ~ 25 the two states decorrelate
        # (see the test above), so the values differ as two samples do:
        # across seeds 8-15, by at most 0.054 in slope and 0.105 in the
        # spread.  The tolerances hold a ring effect to a fifth of the 0.5
        # between bounded data (slope 0) and the sqrt(t) growth c05's bound
        # 0.55 excludes, and to a quarter in the spread, whose bound is 4
        t = 100.0
        draw = make_initial_lattice(InitialData.random_phase(1.0, 11), 256)

        def observables(extent):
            slopes, averages = [], []
            for sign in (1, -1):
                model = LatticeModel(sign=sign, dt=0.01)
                times, sups = [], []
                for s, vals in lattice_states(model, self._centred(draw, extent)[None], t, 0.5):
                    times.append(s)
                    sups.append(np.max(np.abs(vals[0])))
                    if sign == 1 and s in (10.0, 20.0, 50.0):
                        averages.append(windowed_mass_avg(vals[0], 0, s))
                slopes.append(fit_growth(np.array(times), np.array(sups), (10.0, t)).slope)
            return slopes, max(averages) / min(averages)

        (short_slopes, short_spread), (long_slopes, long_spread) = observables(128), observables(256)
        assert np.max(np.abs(np.subtract(short_slopes, long_slopes))) <= 0.1
        assert abs(short_spread - long_spread) <= 0.25


class TestDiagnostics:
    def test_local_mass_examples(self):
        w0 = WeightProfile(0, 1.0, 0.0)
        zero = lattice(np.zeros(2001))
        assert local_mass(zero, WeightProfile(0, 1.0, 10.0), 0.0) == 0.0
        delta = make_initial_lattice(InitialData.delta(1.0), 5)
        assert local_mass(delta, w0, 0.0) == pytest.approx(np.exp(-1.0))

    def test_local_mass_constant_against_naive_oracle(self):
        n = 1000
        w = WeightProfile(0, 1.0, 10.0)
        psi = make_initial_lattice(InitialData.constant(1.0), n)
        # independent naive summation oracle
        oracle = 0.0
        for x in range(-n, n + 1):
            oracle += np.exp(-np.sqrt(x * x + 1.0) / 21.0)
        assert local_mass(psi, w, 0.0) == pytest.approx(oracle, rel=1e-12)

    def test_local_energy_examples(self):
        w = WeightProfile(0, 1.0, 10.0)
        zero = lattice(np.zeros(21))
        assert local_energy(zero, w, 0.0) == 0.0
        # constant: gradient term vanishes, quartic term is (A^4/4) sum e^{-F}
        amp = 1.3
        psi = make_initial_lattice(InitialData.constant(amp), 30)
        weights = np.exp(-w.evaluate(0.0, np.arange(-30, 31)))
        assert local_energy(psi, w, 0.0) == pytest.approx(
            amp ** 4 / 4 * float(np.sum(weights)), rel=1e-12
        )

    def test_local_energy_delta_stencil_oracle(self):
        w0 = WeightProfile(0, 1.0, 0.0)
        delta = make_initial_lattice(InitialData.delta(1.0), 5)
        f = lambda x: np.sqrt(x * x + 1.0)  # F(0, x) at R=1, t0=0
        expected = 0.5 * (np.exp(-f(-1)) + np.exp(-f(0))) + 0.25 * np.exp(-f(0))
        assert local_energy(delta, w0, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_windowed_averages(self):
        psi = make_initial_lattice(InitialData.constant(1.0), 200)
        assert windowed_mass_avg(psi, 0, 10.0) == pytest.approx(21.0 / 10.0)
        assert windowed_mass_avg(lattice(np.zeros(41)), 0, 5.0) == 0.0
        rp = make_initial_lattice(InitialData.random_phase(1.0, 1), 200)
        assert windowed_mass_avg(rp, 0, 50.0) == pytest.approx(101.0 / 50.0)
        assert windowed_quartic_avg(psi, 0, 10.0) == pytest.approx(21.0 / 10.0)
        psi2 = make_initial_lattice(InitialData.constant(2.0), 200)
        assert windowed_quartic_avg(psi2, 0, 10.0) == pytest.approx(21.0 * 16.0 / 10.0)

    def test_window_bounds(self):
        psi = make_initial_lattice(InitialData.constant(1.0), 20)
        with pytest.raises(ValueError):
            windowed_mass_avg(psi, 0, 25.0)
        with pytest.raises(ValueError):
            windowed_mass_avg(psi, 15, 10.0)
        with pytest.raises(ValueError):
            windowed_mass_avg(psi, 0, 0.5)

    def test_sup_time_derivative(self):
        model = LatticeModel(dt=0.01)
        assert sup_time_derivative(lattice(np.zeros(11)), model) == 0.0
        const = make_initial_lattice(InitialData.constant(1.0), 5)
        assert sup_time_derivative(const, model) == pytest.approx(1.0)
        delta = make_initial_lattice(InitialData.delta(1.0), 5)
        assert sup_time_derivative(delta, model) == pytest.approx(3.0)


class TestGronwall:
    def test_local_mass_bound_sample(self):
        # M(t0)/M(0) <= 2^(3/R) (1 + 1e-6): exponential form of the
        # integrated differential inequality, R = 1, t0 = 50
        t0 = 50.0
        extent = 192
        model = LatticeModel(sign=+1, p=2.0, dt=0.01)
        w = WeightProfile(0, 1.0, t0)
        bound = 2.0 ** 3 * (1.0 + 1e-6)
        for seed in (0, 1, 2):
            psi = make_initial_lattice(InitialData.random_phase(1.0, seed), extent)
            m_start = local_mass(psi, w, 0.0)
            records, final = run_lattice(model, psi, t0, record_dt=t0)
            m_end = local_mass(final, w, t0)
            assert m_end / m_start <= bound


class TestGrowthInvariants:
    @staticmethod
    def _slopes(p, sign, seed=11, t_final=120.0, extent=320):
        model = LatticeModel(sign=sign, p=p, dt=0.01)
        psi0 = make_initial_lattice(InitialData.random_phase(1.0, seed), extent)
        records, _ = run_lattice(model, psi0, t_final, record_dt=0.5)
        t = np.array([r.t for r in records])
        sup = np.array([r.sup_abs for r in records])
        sup_dt = np.array([r.sup_dt for r in records])
        window = (10.0, t_final)
        from nlsgrowth.harness.fitting import fit_growth

        return fit_growth(t, sup, window).slope, fit_growth(t, sup_dt, window).slope

    def test_time_derivative_slopes(self):
        # d psi/dt grows no faster than t^(3/2) (mass route) resp. t^(3/4)
        # (energy route, defocusing); measured values sit far below
        _, dt_slope_foc = self._slopes(2.0, -1)
        assert dt_slope_foc <= 1.5 + 0.1
        _, dt_slope_defoc = self._slopes(2.0, +1)
        assert dt_slope_defoc <= 0.75 + 0.1

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_p_generalization_slope(self, p):
        sup_slope, _ = self._slopes(p, +1)
        assert sup_slope <= 1.0 / (p + 2.0) + 0.05


class TestRunDriver:
    def test_records_monotone_and_finite(self):
        model = LatticeModel(dt=0.01)
        psi = make_initial_lattice(InitialData.random_phase(1.0, 2), 64)
        records, final = run_lattice(model, psi, 2.0, 0.25)
        ts = [r.t for r in records]
        assert ts == sorted(ts) and len(set(ts)) == len(ts)
        for r in records:
            for v in (r.sup_abs, r.global_mass, r.global_energy, r.local_mass,
                      r.local_energy, r.sup_dt):
                assert np.isfinite(v)

    def test_global_energy_drift_small(self):
        model = LatticeModel(dt=0.005)
        psi = make_initial_lattice(InitialData.random_phase(0.5, 9), 128)
        e0 = global_energy(psi, model)
        records, final = run_lattice(model, psi, 5.0, 1.0)
        e1 = global_energy(final, model)
        assert abs(e1 - e0) / abs(e0) < 1e-4  # second-order splitting
