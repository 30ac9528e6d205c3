import hashlib

import numpy as np
import pytest

from nlsgrowth.fields import (
    GridField,
    InitialData,
    Mollifier,
    WeightProfile,
    chi_eval,
    grid_wavenumbers,
    make_initial_grid,
    make_initial_lattice,
    _COMB_REACH,
    _extent,
)


class TestChi:
    def test_plateau_support_symmetry(self):
        assert chi_eval(0.5) == 1.0
        assert chi_eval(3.0) == 0.0
        mid = chi_eval(1.5)
        assert 0.0 < mid < 1.0
        assert mid == chi_eval(-1.5)

    def test_sampled_invariants(self):
        x = np.linspace(-4.0, 4.0, 10_000)
        y = chi_eval(x)
        assert np.all((y >= 0.0) & (y <= 1.0))
        assert np.allclose(y, chi_eval(-x))
        assert np.all(y[np.abs(x) <= 1.0] == 1.0)
        assert np.all(y[np.abs(x) >= 2.0] == 0.0)

    def test_c2_junctions(self):
        # value, first and second difference quotients continuous at |x|=1, 2
        for x0 in (1.0, 2.0):
            eps = 1e-6
            for fd in range(3):
                h = 1e-4
                pts_in = [x0 - eps - fd * h + i * h for i in range(fd + 1)]
                pts_out = [x0 + eps + i * h for i in range(fd + 1)]

                def diff(pts):
                    vals = [chi_eval(p) for p in pts]
                    for _ in range(fd):
                        vals = np.diff(vals) / h
                    return np.asarray(vals)[0]

                assert abs(diff(pts_in) - diff(pts_out)) < 1e-2 * 10 ** fd


class TestWeight:
    def test_point_values(self):
        assert WeightProfile(0, 1.0, 0.0).evaluate(0.0, 0) == pytest.approx(1.0)
        assert WeightProfile(0, 1.0, 10.0).evaluate(0.0, 0) == pytest.approx(1.0 / 21.0)
        assert WeightProfile(5, 2.0, 10.0).evaluate(10.0, 5) == pytest.approx(1.0 / 22.0)

    def test_rejects_time_outside_window(self):
        w = WeightProfile(0, 1.0, 5.0)
        with pytest.raises(ValueError):
            w.evaluate(5.1, 0)
        with pytest.raises(ValueError):
            w.evaluate(-0.1, 0)

    def test_nondecreasing_in_time(self):
        # d/dt F >= 0 (the denominator 2*t0 - t + 1 shrinks as t grows); the
        # local-mass Gronwall damping term -|psi|^2 e^{-F} dF/dt relies on it
        w = WeightProfile(3, 2.0, 20.0)
        ts = np.linspace(0.0, 20.0, 50)
        for x in (-7, 0, 3, 11):
            vals = [float(w.evaluate(t, x)) for t in ts]
            assert np.all(np.diff(vals) >= -1e-15)
        assert np.all(w.evaluate(7.0, np.arange(-50, 51)) > 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            WeightProfile(0, 0.5, 1.0)
        with pytest.raises(ValueError):
            WeightProfile(0, 1.0, -1.0)

    @pytest.mark.parametrize("R, t0", [(np.nan, 1.0), (1.0, np.nan)])
    def test_nan_parameters_rejected(self, R, t0):
        with pytest.raises(ValueError):
            WeightProfile(0, R, t0)


class TestLatticeLayout:
    def test_shape_checks(self):
        # values[x + N] is site x of a ring of 2N+1 sites, N >= 1
        for length in (0, 1, 4):
            with pytest.raises(ValueError, match=r"not 2\*extent\+1"):
                _extent(np.zeros(length, dtype=complex))
        values = np.arange(5, dtype=complex)
        assert _extent(values) == 2
        assert values[0 + _extent(values)] == 2.0
        assert _extent(np.zeros((3, 7), dtype=complex)) == 3  # the rows of a batch


class TestInitialLattice:
    def test_constant_and_delta(self):
        f = make_initial_lattice(InitialData.constant(1.0), 2)
        assert np.all(f == 1.0 + 0j)
        g = make_initial_lattice(InitialData.delta(1.0), 2)
        assert np.array_equal(g, np.array([0, 0, 1, 0, 0], dtype=complex))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_initial_lattice(InitialData.delta(np.nan), 2)

    @pytest.mark.parametrize("realize", [
        lambda: make_initial_lattice(InitialData.random_gaussian(1e308, 0), 16),
        lambda: make_initial_grid(InitialData.periodic([1e308, 1e308], [1.0, 2.0]), 32.0, 64),
    ], ids=["lattice", "grid"])
    def test_overflow_is_non_finite_data(self, realize):
        # the finite check reports an overflowing formula, with no numpy
        # warning (an error in tier-1) before it
        with pytest.raises(ValueError, match="non-finite"):
            realize()

    def test_random_phase_unit_modulus_reproducible(self):
        spec = InitialData.random_phase(1.0, seed=7)
        f1 = make_initial_lattice(spec, 10_000)
        f2 = make_initial_lattice(spec, 10_000)
        assert np.array_equal(f1, f2)  # bitwise
        assert np.max(np.abs(np.abs(f1) - 1.0)) < 1e-15

    def test_random_gaussian_moment(self):
        f = make_initial_lattice(InitialData.random_gaussian(2.0, seed=3), 50_000)
        m2 = np.mean(np.abs(f) ** 2)
        assert m2 == pytest.approx(4.0, rel=0.05)

    def test_periodic_has_no_wrap_seam(self):
        spec = InitialData.periodic([0.5, 0.5j], [0.9, 2.3])
        f = make_initial_lattice(spec, 100)
        period = 2 * 100 + 1
        # snapped frequencies make the data exactly ring-periodic
        x = np.arange(-100, 101)
        fund = 2 * np.pi / period
        freqs = [round(0.9 / fund) * fund, round(2.3 / fund) * fund]
        expected = 0.5 * np.exp(1j * freqs[0] * (x + period)) + 0.5j * np.exp(
            1j * freqs[1] * (x + period)
        )
        assert np.allclose(f, expected, atol=1e-12)

    def test_comb_on_lattice(self):
        spec = InitialData.gaussian_comb(np.ones(9), -4)
        f = make_initial_lattice(spec, 30)
        direct = spec.sample(np.array([0.0]), 61)[0]
        assert f[30] == pytest.approx(direct)  # site 0
        # outermost center |j| = 4 plus the reach of one Gaussian truncated at 1e-18
        assert spec.support_radius == pytest.approx(4.0 + np.sqrt(-np.log(1e-18)))
        assert InitialData.delta(1.0).support_radius == 0.0
        assert InitialData.random_phase(1.0, 3).support_radius == 0.0


class TestGaussianCombEval:
    def test_zero_and_single(self):
        # a comb's sample ignores the ring period
        zero = InitialData.gaussian_comb(np.zeros(5), -2)
        assert zero.sample(np.array([1.3]), 1.0)[0] == 0.0
        a = np.zeros(5)
        a[2] = 1.0
        single = InitialData.gaussian_comb(a, -2)
        assert single.sample(np.array([0.0]), 1.0)[0] == pytest.approx(1.0)

    def test_all_ones_against_wide_sum_oracle(self):
        # independent oracle: naive sum over a very wide window
        j = np.arange(-40, 41, dtype=float)
        oracle = complex(np.sum(np.exp(-(0.0 - j) ** 2)))
        got = InitialData.gaussian_comb(np.ones(41), -20).sample(np.array([0.0]), 1.0)[0]
        assert got == pytest.approx(oracle, abs=1e-15)
        assert abs(oracle - 1.7726372048266521) < 1e-12

    @pytest.mark.parametrize("teeth, origin, box, size", [
        (2017, -1008, 2048.0, 8192),  # c11's comb
        (41, -20, 256.0, 4096),       # points outside the comb sum no center
    ])
    def test_bitwise_per_point_sums(self, teeth, origin, box, size):
        # the row-grouped evaluation equals a 1-D sum per point, bit for bit
        coeffs = np.exp(1j * np.random.default_rng(teeth).uniform(0.0, 2.0 * np.pi, teeth))
        x = -box / 2 + (box / size) * np.arange(size)
        j = origin + np.arange(teeth, dtype=float)
        lo = np.searchsorted(j, x - _COMB_REACH, side="left")
        hi = np.searchsorted(j, x + _COMB_REACH, side="right")
        want = np.zeros(size, dtype=complex)
        for i in range(size):
            want[i] = np.sum(coeffs[lo[i]:hi[i]] * np.exp(-(x[i] - j[lo[i]:hi[i]]) ** 2))
        got = make_initial_grid(InitialData.gaussian_comb(coeffs, origin), box, size).values
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("make, match", [
        (lambda: InitialData.random_comb(1.5, 3, 0), r"comb amplitude must lie in \[0, 1\]"),
        (lambda: InitialData.periodic([1, 1], [1]), "equal length"),
    ], ids=["random_comb", "periodic"])
    def test_rejects_invalid_parameters(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()

    def test_rejects_large_coefficients(self):
        with pytest.raises(ValueError, match=r"\|a_j\| <= 1"):
            InitialData.gaussian_comb(np.array([2.0]), 0)


class TestSpectral:
    def test_wavenumbers(self):
        got = np.sort(grid_wavenumbers(4.0, 8))
        expected = 2 * np.pi * np.arange(-4, 4) / 4.0
        assert np.allclose(got, np.sort(expected))

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            GridField(values=np.zeros(12, dtype=complex), box_length=1.0)


class TestMollifier:
    def test_gaussian_transfer(self):
        phi = Mollifier.gaussian(1.5)
        k = np.linspace(-10, 10, 101)
        tr = phi.transfer(k)
        assert np.allclose(tr, phi.transfer(-k))
        assert np.all((tr > 0) & (tr <= 1.0))
        assert tr[50] == pytest.approx(1.0)  # unit mass <=> transfer(0) = 1
        assert phi.transfer(np.array([2.0]))[0] == pytest.approx(np.exp(-1.5 ** 2 * 4 / 2))

    def test_cutoff_indicator(self):
        phi = Mollifier.fourier_cutoff(3.0)
        k = np.array([-4.0, -3.0, 0.0, 2.9, 3.1])
        assert np.array_equal(phi.transfer(k), np.array([0.0, 1.0, 1.0, 1.0, 0.0]))

    def test_validation(self):
        with pytest.raises(ValueError):
            Mollifier.gaussian(0.0)
        with pytest.raises(ValueError):
            Mollifier.fourier_cutoff(-1.0)


class TestGridData:
    def test_random_band_bounded_and_reproducible(self):
        spec = InitialData.random_band(0.7, 2.0, seed=5)
        f1 = make_initial_grid(spec, 64.0, 256)
        f2 = make_initial_grid(spec, 64.0, 256)
        assert np.array_equal(f1.values, f2.values)
        assert f1.sup_abs() == pytest.approx(0.7, rel=1e-12)

    @pytest.mark.parametrize(
        "spec, realize",
        [
            (InitialData.delta(1.0), lambda s: make_initial_grid(s, 10.0, 64)),
            (InitialData.random_phase(1.0, 3), lambda s: make_initial_grid(s, 10.0, 64)),
            (InitialData.random_gaussian(1.0, 3), lambda s: make_initial_grid(s, 10.0, 64)),
            (InitialData.random_band(1.0, 1.0, 3), lambda s: make_initial_lattice(s, 16)),
        ],
        ids=["delta-grid", "random_phase-grid", "random_gaussian-grid", "random_band-lattice"],
    )
    def test_kind_rejected_outside_its_domain(self, spec, realize):
        with pytest.raises(ValueError, match="not defined on the"):
            realize(spec)


# sha256 of the realized complex128 values on the lattice (extent 16) and the
# grid (box 32, size 64): any change to a formula's arithmetic shows here
PINNED_SPECS = {
    "constant": InitialData.constant(0.8),
    "delta": InitialData.delta(-1.3),
    "random_phase": InitialData.random_phase(1.0, 3),
    "random_gaussian": InitialData.random_gaussian(2.0, 4),
    "gaussian_comb": InitialData.gaussian_comb([0.5, -0.3j, 1.0, 0.2 + 0.1j, 0.9], -2),
    "random_comb": InitialData.random_comb(0.5, 8, 5),
    "periodic": InitialData.periodic([0.5, 0.5j], [0.9, 2.3]),
    "random_band": InitialData.random_band(0.7, 2.0, 6),
}

PINNED_REALIZATIONS = [
    ("lattice", "constant", "c5b129f46e503fdf0db30fd74f7711dbfaaea55b07cb9c2b0950039ebf6f73bf"),
    ("lattice", "delta", "ecfeb7f1d263ada71a8928fdceedd9ac0be755e31ec830caeb8ddc3886d858d8"),
    ("lattice", "random_phase", "7fdbe8749849717082cabf0d781d5096a0139581c9bce0c7d4afb2cdc96ac2d6"),
    ("lattice", "random_gaussian", "4f6516a568891e293a76b1126f1431c7b410a66a168ea741addf79648328a0ca"),
    ("lattice", "gaussian_comb", "1c350962b9568b192c3a35f1efa8dadb876ed65a3acc05354df6ab0b9e2f1a69"),
    ("lattice", "random_comb", "2e8f6b504c1f44faf10eedd1eedfa81afe18f0ce237c38f7aa6d4c3267e8949f"),
    ("lattice", "periodic", "293ff676fd60e133f4f356a57d2c00c88e2f0579373d52c5b5d6b54b3d623c67"),
    ("grid", "constant", "fd0db955cf2ec1e69a051e13038874243cf86e57fc7c0856bdd8b1590a45e7ce"),
    ("grid", "gaussian_comb", "40fe813893882bab36d344c7cad409327355536940d3ea45d38560a60820d6b7"),
    ("grid", "random_comb", "13025b605e741497e09bf4fbf1e90778bacf38fa25ac5000737423dc4bcbce4a"),
    ("grid", "periodic", "5f3e4c58f73aa63e80786597255a8a5c67ac5a7c33cb146370714541b163baf9"),
    ("grid", "random_band", "c474570ed825ab880ca7bf4909903e80389e2b0ef8865b2b5aaba67482f88b3b"),
]

PINNED_TRANSFERS = [
    (Mollifier.gaussian(1.5), "25febbc5262dc35a679746acbadca524bef659f3849252d9502e7835448396ee"),
    (Mollifier.fourier_cutoff(3.0), "80772df6cad2bd42ebc86f8d9b8c4b8f48d5acf62e2d2dc74865fe0de166c099"),
    (Mollifier.fourier_cutoff(np.inf), "9abda4de41e949b1b8710a7d2595024a6ed5f2d52e00ffa8b1ec03a0264ab742"),
]


def _sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<c16").tobytes()).hexdigest()


class TestPinnedRealizations:
    @pytest.mark.parametrize(
        "domain, kind, digest", PINNED_REALIZATIONS,
        ids=[f"{d}-{k}" for d, k, _ in PINNED_REALIZATIONS],
    )
    def test_realization_bitwise(self, domain, kind, digest):
        spec = PINNED_SPECS[kind]
        if domain == "lattice":
            values = make_initial_lattice(spec, 16)
        else:
            values = make_initial_grid(spec, 32.0, 64).values
        assert _sha256(values) == digest

    @pytest.mark.parametrize(
        "phi, digest", PINNED_TRANSFERS, ids=[phi.name for phi, _ in PINNED_TRANSFERS]
    )
    def test_transfer_bitwise(self, phi, digest):
        k = np.linspace(-10, 10, 41)
        got = hashlib.sha256(np.ascontiguousarray(phi.transfer(k)).tobytes()).hexdigest()
        assert got == digest
