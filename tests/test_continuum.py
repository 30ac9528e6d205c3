import hashlib

import numpy as np
import pytest
from scipy import fft, integrate

from nlsgrowth import _fft
from nlsgrowth.continuum import (
    ContinuumModel,
    LocalEnergyProbe,
    Trajectory,
    bootstrap_monitor,
    comb_oracle,
    global_energy,
    global_mass,
    linear_propagate,
    local_energy_probe,
    picard_solve,
    run_continuum,
    _cubic_filter,
    _cubic_stage,
    _lawson_ctx,
    _lawson_rk4,
)
from nlsgrowth.errors import NumericsError
from nlsgrowth.harness.config import parse_config_text
from nlsgrowth.harness.csvio import write_csv
from nlsgrowth.harness.runner import run_experiment
from nlsgrowth.fields import (
    GridField,
    InitialData,
    Mollifier,
    chi_eval,
    grid_wavenumbers,
    make_initial_grid,
)

GAUSS = Mollifier.gaussian(1.0)
IDENT = Mollifier.fourier_cutoff(np.inf)


def plane_wave(box, size, mode, amp=1.0):
    x = -box / 2 + (box / size) * np.arange(size)
    k = 2 * np.pi * mode / box
    return GridField(values=amp * np.exp(1j * k * x), box_length=box), k


class TestMollify:
    # phi * u is spectral multiplication by phi.transfer on the grid
    # wavenumbers, so each property of phi * u is one of the transfer

    def test_plane_wave_diagonal(self):
        _, k = plane_wave(32.0, 256, mode=5)
        assert GAUSS.transfer(np.array([k]))[0] == pytest.approx(np.exp(-k ** 2 / 2), rel=1e-15)

    def test_cutoff_identity_on_band(self):
        k = grid_wavenumbers(32.0, 256)
        tr = Mollifier.fourier_cutoff(10.0).transfer(k)
        assert np.all(tr[np.abs(k) <= 10.0] == 1.0)
        assert np.all(tr[np.abs(k) > 10.0] == 0.0)

    def test_constant_preserved(self):
        assert GAUSS.transfer(grid_wavenumbers(10.0, 64))[0] == 1.0  # k = 0 mode

    def test_commutes_with_conjugation(self):
        # conj(u) has coefficients conj(c_{-k}): a real, even transfer commutes
        k = grid_wavenumbers(20.0, 128)
        for phi in (GAUSS, Mollifier.fourier_cutoff(3.0)):
            tr = phi.transfer(k)
            assert np.isrealobj(tr)
            assert np.array_equal(tr, phi.transfer(-k))


def nonlinearity(u: GridField, phi: Mollifier) -> np.ndarray:
    """N(u) = phi * (|phi * u|^2 (phi * u)), dealiased, through the one cubic
    stage that the Lawson step and Picard compose it with."""
    filt = _cubic_filter(phi, u.box_length, u.size, True)
    out = np.empty(u.size, dtype=complex)
    _cubic_stage(filt, 1, out.shape)(fft.fft(u.values), 0, out)
    return fft.ifft(out)


def cubic_formula(v_hat: np.ndarray, filt: np.ndarray, factor: complex) -> np.ndarray:
    """(factor * filt) * fft(|w|^2 w), w = ifft(filt * v_hat), written out along
    the last axis: the oracle that ``_cubic_stage`` must equal bit for bit."""
    w = fft.ifft(filt * v_hat, overwrite_x=True)
    return (factor * filt) * fft.fft((w.real ** 2 + w.imag ** 2) * w, overwrite_x=True)


class TestNonlinearity:
    def test_zero(self):
        g = GridField(values=np.zeros(64, dtype=complex), box_length=10.0)
        assert np.all(nonlinearity(g, GAUSS) == 0)

    def test_monochromatic_algebra(self):
        amp = 0.7 + 0.2j
        u, k = plane_wave(32.0, 256, mode=4, amp=amp)
        g = float(np.exp(-k ** 2 / 2))
        out = nonlinearity(u, GAUSS)
        expected = g ** 4 * abs(amp) ** 2 * amp * u.values / abs(amp) ** 0  # g(k)^4 |A|^2 A e^{ikx}
        assert np.allclose(out, g ** 4 * abs(amp) ** 2 * u.values, atol=1e-12)

    def test_identity_limit_matches_plain_cubic(self):
        # band-limited to k_max/3 so the pointwise cubic is alias-free
        box, size = 32.0, 256
        rng = np.random.default_rng(7)
        x = -box / 2 + (box / size) * np.arange(size)
        vals = np.zeros(size, dtype=complex)
        for m in range(1, 8):
            k = 2 * np.pi * m / box
            vals += rng.normal() * np.exp(1j * k * x) + rng.normal() * np.exp(-1j * k * x)
        u = GridField(values=0.3 * vals, box_length=box)
        out = nonlinearity(u, IDENT)
        plain = np.abs(u.values) ** 2 * u.values
        assert np.max(np.abs(out - plain)) < 1e-10


class TestCubicStage:
    # Picard's [n_times, M] trajectories (c10's [101, 512] and two other
    # shapes) and one Lawson row, for each mollifier and dealias setting
    @pytest.mark.parametrize("shape,box", [((101, 512), 64.0), ((301, 64), 2.0 * np.pi),
                                           ((7, 1024), 128.0), ((1024,), 128.0)])
    @pytest.mark.parametrize("phi,dealias", [(GAUSS, True), (Mollifier.fourier_cutoff(3.0), False),
                                             (IDENT, True)], ids=["gauss", "cutoff", "identity"])
    def test_equals_formula(self, shape, box, phi, dealias):
        filt = _cubic_filter(phi, box, shape[-1], dealias)
        rng = np.random.default_rng(shape[0])
        v_hat = 3.0 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        kept = v_hat.copy()
        out = np.empty_like(v_hat)
        for factor in (1, -0.7j):  # Picard's, and a Lawson stage's -i sign coupling
            stage = _cubic_stage(filt, factor, shape)
            want = cubic_formula(v_hat, filt, factor).view(np.uint64)
            for _ in range(2):  # the buffers carry nothing from one call to the next
                stage(v_hat, 0, out)
                assert np.array_equal(out.view(np.uint64), want)
        assert np.array_equal(v_hat, kept)


class TestLinearPropagate:
    def test_plane_wave_phase(self):
        u, k = plane_wave(16.0, 128, mode=3)
        t = 0.7
        out = linear_propagate(u, t)
        assert np.allclose(out.values, np.exp(-1j * k ** 2 * t) * u.values, atol=1e-12)

    def test_identity_at_zero(self):
        u, _ = plane_wave(16.0, 128, mode=2)
        assert np.allclose(linear_propagate(u, 0.0).values, u.values)

    @pytest.mark.parametrize("t", [0.5, 2.0, 5.0])
    def test_comb_closed_form(self, t):
        box, size = 256.0, 4096
        coeffs = np.ones(41)
        u0 = make_initial_grid(InitialData.gaussian_comb(coeffs, -20), box, size)
        out = linear_propagate(u0, t)
        x = u0.x
        expected = comb_oracle(coeffs, t, x, -20)
        assert np.max(np.abs(out.values - expected)) < 1e-8


class TestCombOracle:
    def test_t_zero_limit(self):
        coeffs = np.exp(1j * np.linspace(0, 3, 11))
        xs = np.linspace(-4, 4, 17)
        a = comb_oracle(coeffs, 0.0, xs, -5)
        b = InitialData.gaussian_comb(coeffs, -5).sample(xs, 1.0)
        assert np.allclose(a, b, atol=1e-14)

    def test_single_gaussian_modulus(self):
        t = 1.7
        val = comb_oracle([1.0], t, 0.0, 0)
        assert abs(val) == pytest.approx((1 + 16 * t ** 2) ** -0.25, rel=1e-12)

    def test_all_ones_t10_origin_pinned(self):
        # frozen by direct wide-window summation of the closed form
        val = comb_oracle(np.ones(81), 10.0, 0.0, -40)
        z = 40j + 1.0
        j = np.arange(-40, 41)
        direct = np.sum(np.exp(-(0.0 - j) ** 2 / z)) / np.sqrt(z)
        assert val == pytest.approx(direct, abs=1e-15)


class TestLawson:
    def test_zero_field(self):
        model = ContinuumModel(GAUSS, 32.0, 128, 0.01)
        g = GridField(values=np.zeros(128, dtype=complex), box_length=32.0)
        assert np.all(run_continuum(g, model, model.dt, model.dt).values[-1] == 0)

    def test_coupling_off_matches_linear_exactly(self):
        model = ContinuumModel(GAUSS, 32.0, 256, 0.02, coupling=0.0)
        u0 = make_initial_grid(InitialData.random_band(0.5, 2.0, 3), 32.0, 256)
        stepped = run_continuum(u0, model, model.dt, model.dt).values[-1]
        exact = linear_propagate(u0, 0.02)
        assert np.max(np.abs(stepped - exact.values)) < 1e-14

    def test_grid_mismatch_rejected(self):
        # a box-64 field must not be stepped with a box-128 model's wavenumbers
        model = ContinuumModel(GAUSS, 128.0, 256, 0.01)
        u0 = make_initial_grid(InitialData.random_band(0.5, 1.0, 3), 64.0, 256)
        with pytest.raises(ValueError, match="grid"):
            run_continuum(u0, model, 0.01, 0.01)
        with pytest.raises(ValueError, match="grid"):
            picard_solve(u0, 0.01, model, tol=1e-8)

    def test_dt_halving_fourth_order(self):
        box, size = 128.0, 512
        u0 = make_initial_grid(
            InitialData.gaussian_comb(0.5 * np.ones(41), -20), box, size
        )

        def terminal(dt):
            model = ContinuumModel(GAUSS, box, size, dt)
            return run_continuum(u0, model, 1.0, 1.0).values[-1]

        ref = terminal(1.0 / 1024.0)
        err_coarse = np.max(np.abs(terminal(0.02) - ref))
        err_fine = np.max(np.abs(terminal(0.01) - ref))
        assert err_coarse / err_fine >= 12.0

    def test_conservation_short(self):
        box, size = 128.0, 1024
        u0 = make_initial_grid(InitialData.gaussian_comb(np.ones(127), -63), box, size)
        model = ContinuumModel(GAUSS, box, size, 1e-3)
        traj = run_continuum(u0, model, 1.0, 0.2)
        m0 = global_mass(traj.field(0))
        e0 = global_energy(traj.field(0), GAUSS)
        for i in range(len(traj.times)):
            assert abs(global_mass(traj.field(i)) - m0) / m0 < 1e-10
            assert abs(global_energy(traj.field(i), GAUSS) - e0) / e0 < 1e-9


class TestPicard:
    def test_zero_data_one_iteration(self):
        model = ContinuumModel(GAUSS, 32.0, 128, 1e-2)
        u0 = GridField(values=np.zeros(128, dtype=complex), box_length=32.0)
        res = picard_solve(u0, 0.1, model, tol=1e-10)
        assert res.iterations == 1
        assert np.all(res.trajectory.values == 0)

    def test_linear_one_iteration(self):
        model = ContinuumModel(GAUSS, 32.0, 128, 1e-2, coupling=0.0)
        u0 = make_initial_grid(InitialData.random_band(0.5, 1.0, 11), 32.0, 128)
        res = picard_solve(u0, 0.1, model, tol=1e-12)
        assert res.iterations == 1
        exact = linear_propagate(u0, 0.1)
        assert np.max(np.abs(res.trajectory.values[-1] - exact.values)) < 1e-12

    def test_cross_validates_lawson(self):
        box, size = 64.0, 512
        u0 = make_initial_grid(
            InitialData.gaussian_comb(0.5 * np.ones(17), -8), box, size
        )
        model = ContinuumModel(GAUSS, box, size, 1e-3)
        res = picard_solve(u0, 0.1, model, tol=1e-8)
        assert res.iterations <= 8
        traj = run_continuum(u0, model, 0.1, 1e-3)
        diff = np.max(np.abs(res.trajectory.values[-1] - traj.values[-1]))
        assert diff < 1e-6

    def test_no_convergence_within_max_iter(self):
        # c10's comb data converges in at most 8 sweeps; 2 stop short of tol
        box, size = 64.0, 512
        u0 = make_initial_grid(InitialData.gaussian_comb(0.5 * np.ones(17), -8), box, size)
        model = ContinuumModel(GAUSS, box, size, 1e-3)
        with pytest.raises(
            NumericsError, match=r"^Picard did not reach tol=1e-08 within 2 sweeps \(last diff 2\.745e-03\)$"
        ):
            picard_solve(u0, 0.1, model, tol=1e-8, max_iter=2)

    def test_divergence_error(self):
        box, size = 32.0, 128
        u0 = make_initial_grid(
            InitialData.periodic([3.0], [1.0]), box, size
        )
        model = ContinuumModel(IDENT, box, size, 5e-2)
        with pytest.raises(NumericsError, match="Picard iterates diverging"):
            picard_solve(u0, 4.0, model, tol=1e-10, max_iter=40)


class TestConserved:
    def test_single_mode_values(self):
        amp = 1.3 - 0.4j
        box, size = 32.0, 256
        u, k = plane_wave(box, size, mode=4, amp=amp)
        assert global_mass(u) == pytest.approx(abs(amp) ** 2 * box, rel=1e-12)
        g = float(np.exp(-k ** 2 / 2))
        expected = 0.5 * k ** 2 * abs(amp) ** 2 * box + 0.25 * g ** 4 * abs(amp) ** 4 * box
        assert global_energy(u, GAUSS) == pytest.approx(expected, rel=1e-12)

    def test_zero(self):
        g = GridField(values=np.zeros(64, dtype=complex), box_length=8.0)
        assert global_mass(g) == 0.0
        assert global_energy(g, GAUSS) == 0.0

    def test_parseval(self):
        rng = np.random.default_rng(2)
        box, size = 40.0, 512
        u = make_initial_grid(InitialData.random_band(1.0, 3.0, 5), box, size)
        coeffs = np.fft.fft(u.values) / size
        parseval = box * float(np.sum(np.abs(coeffs) ** 2))
        assert global_mass(u) == pytest.approx(parseval, rel=1e-12)


class TestLocalEnergyProbe:
    def test_zero(self):
        g = GridField(values=np.zeros(1024, dtype=complex), box_length=128.0)
        assert local_energy_probe(g, LocalEnergyProbe(0.0, 4.0), GAUSS) == 0.0

    def test_constant_field_oracle(self):
        # (A^4/4 + A^2/2) * R * int chi^2, with int chi^2 by quadrature
        amp, R = 1.5, 4.0
        box, size = 128.0, 1024
        g = GridField(values=np.full(size, amp, dtype=complex), box_length=box)
        chi_sq_integral, _ = integrate.quad(lambda s: chi_eval(s) ** 2, -2.0, 2.0, epsabs=1e-13)
        expected = (amp ** 4 / 4 + amp ** 2 / 2) * R * chi_sq_integral
        got = local_energy_probe(g, LocalEnergyProbe(0.0, R), GAUSS)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_homogeneity_on_constant(self):
        box, size = 128.0, 1024
        probe = LocalEnergyProbe(0.0, 2.0)
        g1 = GridField(values=np.full(size, 1.0, dtype=complex), box_length=box)
        g2 = GridField(values=np.full(size, 2.0, dtype=complex), box_length=box)
        e1_mass = 0.5 * 1.0 ** 2
        # quartic scales x16, mass term x4
        chi_sq_integral, _ = integrate.quad(lambda s: chi_eval(s) ** 2, -2.0, 2.0)
        e1 = local_energy_probe(g1, probe, GAUSS)
        e2 = local_energy_probe(g2, probe, GAUSS)
        quartic1 = 0.25 * 1.0
        mass1 = 0.5 * 1.0
        expected_ratio = (16 * quartic1 + 4 * mass1) / (quartic1 + mass1)
        assert e2 / e1 == pytest.approx(expected_ratio, rel=1e-9)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            LocalEnergyProbe(0.0, 0.5)
        g = GridField(values=np.zeros(256, dtype=complex), box_length=32.0)
        with pytest.raises(ValueError):
            local_energy_probe(g, LocalEnergyProbe(10.0, 4.0), GAUSS)

    def test_nan_window_rejected(self):
        # a NaN scale or center is no window, not a probe that reads 0.0
        with pytest.raises(ValueError, match="R must be >= 1"):
            LocalEnergyProbe(0.0, np.nan)
        with pytest.raises(ValueError, match="too close to the box edge"):
            LocalEnergyProbe(np.nan, 4.0).check_inside(128.0)


class TestBootstrap:
    def test_zero_data_raises(self):
        # the ratio to a zero initial local energy is undefined
        traj = Trajectory(
            times=np.array([0.0, 1.0]),
            values=np.zeros((2, 256), dtype=complex),
            box_length=64.0,
        )
        with pytest.raises(ValueError, match="zero initial local energy"):
            bootstrap_monitor(traj, [LocalEnergyProbe(0.0, 2.0)], GAUSS)

    def test_linear_run_ratio_bounded(self):
        box, size = 256.0, 2048
        u0 = make_initial_grid(InitialData.gaussian_comb(np.ones(129), -64), box, size)
        model = ContinuumModel(GAUSS, box, size, 5e-3, coupling=0.0)
        traj = run_continuum(u0, model, 2.0, 0.25)
        probes = [LocalEnergyProbe(x, 8.0) for x in (-32.0, 0.0, 32.0)]
        rep = bootstrap_monitor(traj, probes, GAUSS, flag_factor=1.5)
        assert rep.max_ratio <= 1.5
        assert not rep.flagged


# reference per-diagnostic functions, one spectral pass per diagnostic and one
# chi^2 window per probe and record: the record pass must give their floats
def _loop_mass(u):
    return float(u.spacing * np.sum(u.values.real ** 2 + u.values.imag ** 2))


def _loop_energy(u, phi):
    k = grid_wavenumbers(u.box_length, u.size)
    v = _fft.fft(u.values)
    ux = _fft.ifft(1j * k * v)
    w = _fft.ifft(phi.transfer(k) * v)
    h = u.spacing
    kinetic = 0.5 * h * float(np.sum(ux.real ** 2 + ux.imag ** 2))
    quartic = 0.25 * h * float(np.sum((w.real ** 2 + w.imag ** 2) ** 2))
    return kinetic + quartic


def _loop_local_energy(u, probe, phi):
    probe.check_inside(u.box_length)
    k = grid_wavenumbers(u.box_length, u.size)
    v = _fft.fft(u.values)
    ux = _fft.ifft(1j * k * v)
    w = _fft.ifft(phi.transfer(k) * v)
    cut2 = chi_eval((u.x - probe.x0) / probe.R) ** 2
    dens = (
        0.5 * (ux.real ** 2 + ux.imag ** 2)
        + 0.25 * (w.real ** 2 + w.imag ** 2) ** 2
        + 0.5 * (u.values.real ** 2 + u.values.imag ** 2)
    )
    return float(u.spacing * np.sum(cut2 * dens))


def _loop_bootstrap_ratio(traj, probes, phi):
    ref = max((_loop_local_energy(traj.field(0), p, phi) for p in probes), default=0.0)
    max_ratio = 0.0
    for i in range(len(traj.times)):
        for p in probes:
            max_ratio = max(max_ratio, _loop_local_energy(traj.field(i), p, phi) / ref)
    return max_ratio


class TestRecordPass:
    # one spectral pass per record gives every diagnostic's float, bit for bit
    PROBES = [LocalEnergyProbe(x0, 4.0) for x0 in (-12.0, 0.0, 12.0)]

    @pytest.fixture(scope="class")
    def traj(self):
        u0 = make_initial_grid(InitialData.random_comb(1.0, 20, 3), 64.0, 256)
        return run_continuum(u0, ContinuumModel(GAUSS, 64.0, 256, 2e-3), 0.2, 0.02)

    def test_series_csv_equals_loop(self, tmp_path, traj):
        cfg = parse_config_text(
            "engine = continuum\ncontinuum.box_length = 64\ncontinuum.grid_size = 256\n"
            "continuum.dt = 0.002\ndata.kind = gaussian_comb\ndata.comb_half_extent = 20\n"
            "data.seed = 3\nrun.t_final = 0.2\nrun.record_dt = 0.02\n"
            "probe.x0_values = -12, 0, 12\nprobe.R = 4\n"
        )
        run_experiment(cfg, tmp_path / "run")
        columns = ["t", "sup_abs", "mass", "energy"] + [f"local_energy_{i}" for i in range(3)]
        rows = []
        for i, t in enumerate(traj.times):
            u = traj.field(i)
            rows.append([float(t), u.sup_abs(), _loop_mass(u), _loop_energy(u, GAUSS)]
                        + [_loop_local_energy(u, p, GAUSS) for p in self.PROBES])
        oracle = write_csv(tmp_path / "oracle.csv", columns, rows)
        assert (tmp_path / "run" / "series.csv").read_bytes() == oracle.read_bytes()

    def test_one_snapshot_calls_equal_loop(self, traj):
        for i in (0, len(traj.times) - 1):
            u = traj.field(i)
            assert global_mass(u) == _loop_mass(u)
            assert global_energy(u, GAUSS) == _loop_energy(u, GAUSS)
            for p in self.PROBES:
                assert local_energy_probe(u, p, GAUSS) == _loop_local_energy(u, p, GAUSS)

    def test_bootstrap_ratio_equals_loop(self, traj):
        rep = bootstrap_monitor(traj, self.PROBES, GAUSS, flag_factor=1.0)
        assert rep.max_ratio == _loop_bootstrap_ratio(traj, self.PROBES, GAUSS)
        assert rep.max_ratio > 1.0 and rep.flagged

    @pytest.mark.parametrize("probes, match", [
        ([], "zero initial local energy"),
        ([LocalEnergyProbe(0.0, 4.0), LocalEnergyProbe(24.0, 4.0)], "too close to the box edge"),
    ], ids=["no_probe", "probe_outside_box"])
    def test_bootstrap_errors(self, traj, probes, match):
        with pytest.raises(ValueError, match=match):
            bootstrap_monitor(traj, probes, GAUSS)


class TestDispersiveEnvelope:
    def test_comb_envelope_bounded(self):
        box, size = 256.0, 2048
        u0 = make_initial_grid(InitialData.gaussian_comb(np.ones(129), -64), box, size)
        # C^2 norms computed spectrally
        k = 2 * np.pi * np.fft.fftfreq(size, d=box / size)
        v = np.fft.fft(u0.values)
        norms = sum(
            float(np.max(np.abs(np.fft.ifft((1j * k) ** q * v)))) for q in range(3)
        )
        # sup_x |e^{it Dxx} u0| / (1 + t^(3/2)) over sampled times
        ratio = max(
            linear_propagate(u0, float(t)).sup_abs() / (1.0 + float(t) ** 1.5)
            for t in np.linspace(0.0, 20.0, 21)
        )
        assert ratio <= 10.0 * norms


def pinned_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestPinned:
    # sha256 of the times and values of a run, computed with the allocating
    # Lawson-RK4 stages that preceded the scratch-buffer ones (numpy 2.4.6,
    # scipy 1.17.1): the in-place step changes no bit.  The 32768 grid lies
    # above numpy's 256 KiB temporary-elision size.
    @pytest.mark.parametrize("phi,box,size,half,dt,sign,coupling,dealias,t_final,record_dt,digest", [
        (GAUSS, 128.0, 1024, 40, 1e-3, +1, 1.0, True, 0.05, 0.025,
         "6ec71257d8f9dc82a0509b8ab05d6308408373a22b7b577e5e0d96ecbc8f6661"),
        (Mollifier.gaussian(0.5), 128.0, 1024, 40, 1e-3, -1, 0.7, False, 0.05, 0.025,
         "91f979f1d47b1a1ae1bb0fcff3523a9957b20e133290b3c7c7e11d5deb3806d6"),
        (GAUSS, 4096.0, 32768, 1500, 2e-3, +1, 1.0, True, 0.01, 0.01,
         "8495664ddab0593131228a51ff3c7634d15cf5417706a8c7ae69709126b17e6b"),
    ], ids=["defocusing_dealiased", "focusing_0.7", "grid_32768"])
    def test_pinned_run(self, phi, box, size, half, dt, sign, coupling, dealias, t_final,
                        record_dt, digest):
        u0 = make_initial_grid(InitialData.random_comb(1.0, half, 5), box, size)
        model = ContinuumModel(phi, box, size, dt, sign=sign, coupling=coupling, dealias=dealias)
        traj = run_continuum(u0, model, t_final, record_dt)
        assert pinned_digest(traj.times, traj.values) == digest

    def test_pinned_picard(self):
        u0 = make_initial_grid(InitialData.random_comb(0.5, 8, 3), 64.0, 512)
        res = picard_solve(u0, 0.05, ContinuumModel(GAUSS, 64.0, 512, 1e-3), tol=1e-8)
        assert res.iterations == 4
        assert pinned_digest(res.trajectory.times, res.trajectory.values) == (
            "9a090b96bb52ed13f6d1f8cf55a51c333baedf4ac739ee63c2de1fe544797c31")


class TestStepperContract:
    def test_lawson_leaves_input_unchanged(self):
        u0 = make_initial_grid(InitialData.random_band(0.5, 2.0, 3), 32.0, 256)
        filt = _cubic_filter(GAUSS, 32.0, 256, True)
        e1, eh = _lawson_ctx(32.0, 256, 0.01)

        stage = _cubic_stage(filt, -1j, filt.shape)
        v = fft.fft(u0.values)
        kept = v.copy()
        stepper = _lawson_rk4(v, stage, e1, eh, 0.01)
        for _ in range(3):
            stepped = next(stepper)
        assert stepped is not v
        assert np.array_equal(v, kept)
