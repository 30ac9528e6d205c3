import hashlib
import runpy
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import nlsgrowth
from nlsgrowth.errors import NumericsError
from nlsgrowth.fields import InitialData, make_initial_lattice
from nlsgrowth.lattice_linear import (
    _saddle,
    adversarial_data,
    default_half_width,
    kernel_integral,
    kernel_table,
    linear_evolve,
    pairing_check,
    random_ensemble_second_moment,
    stationary_phase_eval,
)


@pytest.mark.parametrize("call, match", [
    (lambda: kernel_integral(-1.0, 0), "t must be >= 0"),
    (lambda: default_half_width(np.inf), "t = inf is not finite"),
    (lambda: kernel_table(5.0, 0), "half_width must be >= 1"),
], ids=["kernel_integral", "default_half_width", "kernel_table"])
def test_rejects_invalid_argument(call, match):
    with pytest.raises(ValueError, match=match):
        call()


class TestKernelIntegral:
    def test_t_zero_orthogonality(self):
        assert kernel_integral(0.0, 0) == pytest.approx(1.0)
        assert abs(kernel_integral(0.0, 3)) < 1e-15

    def test_bessel_identity(self):
        # F_n(t) = i^n J_n(t); scipy is a third, independent route
        got = kernel_integral(10.0, 2)
        ref = (1j) ** 2 * special.jv(2, 10.0)
        assert abs(got - ref) < 1e-12

    def test_negative_order(self):
        got = kernel_integral(7.0, -3)
        ref = (1j) ** 3 * special.jv(3, 7.0)  # F_{-n} = i^n J_n for odd n sign flip cancels
        assert abs(abs(got) - abs(ref)) < 1e-12

    def test_no_convergence_raises(self):
        # t = 3e6: the starting resolution already exceeds the 2^22-point cap
        with pytest.raises(NumericsError, match="did not converge"):
            kernel_integral(3e6, 0)


def _value(tab: np.ndarray, n: int) -> complex:
    """K_n of the kernel table ``tab``, whose entry n + H is K_n; 0 outside it."""
    half_width = len(tab) // 2
    if abs(n) > half_width:
        return 0.0 + 0.0j
    return complex(tab[n + half_width])


def _sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<c16").tobytes()).hexdigest()


class TestKernelTable:
    def test_time_zero(self):
        tab = kernel_table(0.0, half_width=5)
        assert _value(tab, 0) == pytest.approx(1.0)
        for n in range(1, 6):
            assert _value(tab, n) == 0.0

    @pytest.mark.parametrize("t", [1.0, 10.0, 50.0, 200.0])
    def test_unitarity(self, t):
        tab = kernel_table(t)
        assert abs(1.0 - float(np.sum(np.abs(tab) ** 2))) < 1e-12

    def test_even_kernel(self):
        tab = kernel_table(13.0)
        for n in (1, 5, 17):
            assert _value(tab, n) == _value(tab, -n)

    @pytest.mark.parametrize("t", [10.0, 50.0, 200.0])
    def test_recurrence_matches_quadrature_oracle(self, t):
        # K_n(t) = e^{-2it} F_n(2t); check against the slow adaptive quadrature
        tab = kernel_table(t)
        ns = list(range(0, int(2 * t) + 40, max(1, int(t) // 7)))
        phase = np.exp(-2j * t)
        for n in ns:
            assert abs(_value(tab, n) - phase * kernel_integral(2.0 * t, n)) < 1e-12

    def test_pinned_value_t25_n10(self):
        tab = kernel_table(25.0)
        expected = np.exp(-50j) * (1j) ** 10 * special.jv(10, 50.0)
        assert abs(_value(tab, 10) - expected) < 1e-13

    def test_insufficient_half_width_raises(self):
        with pytest.raises(ValueError, match="half_width=60 leaves tail mass"):
            kernel_table(50.0, half_width=60)

    def test_scipy_cross_check_dense(self):
        t = 37.0
        tab = kernel_table(t)
        half_width = len(tab) // 2
        n = np.arange(-half_width, half_width + 1)
        ref = np.exp(-2j * t) * (1j) ** np.abs(n) * special.jv(np.abs(n), 2 * t)
        assert np.max(np.abs(tab - ref)) < 1e-13

    @pytest.mark.parametrize("t, half_width, digest", [
        (0.0, 5, "d2e81c3ea2b94aaedc450354bbf16609589bed4840433f4a24bb27ace0c3972c"),
        (25.0, None, "7eb0408759bf5e97ed9b777f2dd8db434c693aa74d6eb4fb2684acbe6dc80c6e"),
        (400.0, None, "6f51036e5459679191c40adf5e36d5de2878584ed78056b94b0e0f532093e091"),
    ])
    def test_table_pinned(self, t, half_width, digest):
        # sha256 of the <c16 bytes of the table, computed when a dataclass
        # held it (numpy 2.4.6, scipy 1.17.1): the plain array changes no bit
        assert _sha256(kernel_table(t, half_width)) == digest


class TestLinearEvolve:
    def test_delta_reproduces_kernel(self):
        t = 12.0
        n_ext = default_half_width(t)
        psi0 = make_initial_lattice(InitialData.delta(1.0), n_ext)
        tab = kernel_table(t, n_ext)
        out = linear_evolve(psi0, tab)
        for n in (-30, -3, 0, 7, 19):
            assert abs(out[n + n_ext] - _value(tab, n)) < 1e-13

    def test_time_zero_identity(self):
        psi0 = make_initial_lattice(InitialData.random_phase(1.0, 3), 64)
        out = linear_evolve(psi0, kernel_table(0.0, 64))
        assert np.allclose(out, psi0, atol=1e-14)

    def test_mass_preserved(self):
        t = 9.0
        psi0 = make_initial_lattice(InitialData.random_phase(1.0, 11), 256)
        out = linear_evolve(psi0, kernel_table(t, max(default_half_width(t), 256)))
        mass = lambda psi: float(np.sum(np.abs(psi) ** 2))
        assert abs(mass(out) - mass(psi0)) / mass(psi0) < 1e-12


class TestStationaryPhase:
    def test_parity_structure(self):
        for n in (-8, 0, 4):
            val = stationary_phase_eval(100.0, n)
            assert val.imag == 0.0
        for n in (-7, 1, 9):
            val = stationary_phase_eval(100.0, n)
            assert val.real == 0.0

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            stationary_phase_eval(10.0, 0)
        with pytest.raises(ValueError):
            stationary_phase_eval(100.0, 51)

    def test_phase_fields(self):
        # printed phase pi/4 + t cos(theta_s) + n theta_s at sin(theta_s) = n/t
        theta_s = np.pi / 6
        phi, amplitude = _saddle(100.0, 50)
        assert phi == pytest.approx(np.pi / 4 + 100 * np.cos(theta_s) + 50 * theta_s)
        assert amplitude == pytest.approx(np.sqrt(2 / (np.pi * 100 * np.cos(theta_s))))

    def test_envelope_vs_quadrature_oracle(self):
        # mean relative envelope error over the interior regime at t = 200
        t = 200.0
        errs = []
        for n in range(-100, 101):
            exact = kernel_integral(t, n)
            approx = stationary_phase_eval(t, n)
            errs.append(abs(abs(approx) - abs(exact)) / abs(exact))
        assert float(np.mean(errs)) <= 0.05

    def test_n0_envelope_matches_j0(self):
        t = 50.0
        approx = stationary_phase_eval(t, 0)
        assert abs(approx) == pytest.approx(
            np.sqrt(2 / (np.pi * t)) * abs(np.cos(t - np.pi / 4)), rel=1e-12
        )
        # documented offset: the printed-phase variant differs from the
        # classical J_0 phase by pi/2
        assert abs(abs(approx) - abs(special.jv(0, t))) < 0.05 * np.sqrt(2 / (np.pi * t))


class TestAdversarial:
    def test_phase_alignment_identity(self):
        t0 = 25.0
        tab = kernel_table(t0)
        evolved = linear_evolve(adversarial_data(tab), tab)
        expected = float(np.sum(np.abs(tab)))
        assert abs(evolved[len(tab) // 2]) == pytest.approx(expected, rel=1e-12)  # site 0

    def test_unit_modulus(self):
        data = adversarial_data(kernel_table(25.0))
        mags = np.abs(data)
        assert np.max(mags) <= 1.0 + 1e-12

    def test_evolved_t100_pinned(self):
        # sha256 of the <c16 bytes of the t0 = 100 adversarial data evolved to
        # t0, computed when a dataclass held the kernel (numpy 2.4.6,
        # scipy 1.17.1)
        tab = kernel_table(100.0)
        evolved = linear_evolve(adversarial_data(tab), tab)
        assert _sha256(evolved) == "874215103093b7090fc8eb9b1664285a81b5894102a363bd899da4e6c113e4ac"

    def test_lower_bound_ratio_t100(self):
        # measured once via the kernel oracle: ratio = 1.78797...; the spec
        # sheet's illustrative range [0.3, 1.6] is contradicted by direct
        # computation, so we pin the acceptance envelope [0.3, 2.0] instead
        t0 = 100.0
        tab = kernel_table(t0)
        ratio = float(np.sum(np.abs(tab))) / np.sqrt(t0)
        assert 0.3 <= ratio <= 2.0
        assert ratio == pytest.approx(1.787971, abs=1e-4)


class TestPairing:
    @pytest.mark.parametrize("t", [100.0, 400.0])
    def test_pairing_true(self, t):
        assert pairing_check(t) is True

    def test_pairing_false(self):
        # t = 20 is one of the horizons in [20, 800) that fail the pairing
        assert pairing_check(20.0) is False

    def test_regime(self):
        with pytest.raises(ValueError):
            pairing_check(5.0)


def _exp_form_moment(kern, amplitude, num_samples, seed):
    """The estimate drawn at this kernel's own length, with numpy's complex exp."""
    acc = 0.0
    for ss in np.random.SeedSequence(seed).spawn(num_samples):
        theta = np.random.default_rng(ss).uniform(0.0, 2.0 * np.pi, kern.shape[0])
        acc += abs(np.dot(kern, amplitude * np.exp(1j * theta))) ** 2
    return acc / num_samples


class TestEnsemble:
    def test_t_zero_exact(self):
        # psi(0,0) = a_0 with |a_0| = 1: zero-variance estimate
        (m2,) = random_ensemble_second_moment([kernel_table(0.0, 4)], 1.0, 128, seed=1)
        assert m2 == pytest.approx(1.0, abs=1e-14)

    def test_unit_expectation(self):
        (m2,) = random_ensemble_second_moment([kernel_table(50.0)], 1.0, 200, seed=9)
        assert abs(m2 - 1.0) <= 4.0 / np.sqrt(200)

    def test_amplitude_scaling(self):
        (m2,) = random_ensemble_second_moment([kernel_table(20.0)], 2.0, 200, seed=9)
        assert abs(m2 - 4.0) <= 4.0 * 4.0 / np.sqrt(200)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            random_ensemble_second_moment([kernel_table(1.0)], 1.0, 50, seed=0)

    def test_no_kernels(self):
        with pytest.raises(ValueError, match="no kernel"):
            random_ensemble_second_moment([], 1.0, 100, seed=0)

    def test_reproducible(self):
        a = random_ensemble_second_moment([kernel_table(10.0)], 1.0, 100, seed=4)
        b = random_ensemble_second_moment([kernel_table(10.0)], 1.0, 100, seed=4)
        assert a == b

    @pytest.mark.parametrize("num_samples", [100, 200, 1000])
    @pytest.mark.parametrize("amplitude", [1.0, 0.7, 3.3])
    @pytest.mark.parametrize("t0", [25.0, 100.0, 400.0])
    def test_equals_exp_oracle(self, t0, amplitude, num_samples):
        # the draw takes exp(i theta) as cos + i sin; numpy's complex exp of
        # 1j * theta is the oracle, summed in the same order, equal exactly.
        # The sample counts span several blocks and end in a partial one.
        kern = kernel_table(t0)
        assert random_ensemble_second_moment([kern], amplitude, num_samples, 11) == [
            _exp_form_moment(kern, amplitude, num_samples, 11)
        ]

    @pytest.mark.parametrize("num_samples", [100, 200, 1000])
    @pytest.mark.parametrize("amplitude", [1.0, 0.7])
    def test_shared_draw_equals_each_kernel_alone(self, amplitude, num_samples):
        # one draw at the longest kernel (t0 = 400) serves all three, out of
        # order: each estimate is the one drawn at its own kernel's length
        kernels = [kernel_table(t0) for t0 in (100.0, 25.0, 400.0)]
        assert random_ensemble_second_moment(kernels, amplitude, num_samples, 11) == [
            _exp_form_moment(kern, amplitude, num_samples, 11) for kern in kernels
        ]

    def test_leaves_no_thread(self):
        # the sin helper is opened and closed inside the call
        before = threading.active_count()
        random_ensemble_second_moment([kernel_table(25.0)], 1.0, 100, seed=3)
        assert threading.active_count() == before

    def test_block_buffers_bounded(self):
        # theta[32, L] and unit[32, L] at L = 1969 are about 1.5 MB; a call's
        # peak beyond its kernel tables stays under 2 MiB
        kernels = [kernel_table(t0) for t0 in (25.0, 100.0, 400.0)]
        tracemalloc.start()
        try:
            random_ensemble_second_moment(kernels, 1.0, 100, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20

    def test_demo_prints_the_estimates(self, capsys):
        # the demo's one call serves t = 10, 50, 200 and prints what one call
        # per t printed before the draw was shared
        demo = Path(nlsgrowth.__file__).parents[2] / "demos" / "linear_kernel.py"
        runpy.run_path(str(demo))["random_ensemble"]()
        printed = [line.split("^2 = ")[1][:5] for line in capsys.readouterr().out.splitlines()[1:]]
        assert printed == ["1.028", "1.029", "0.966"]

    def test_demo_prints_the_kernel_checks(self, capsys, tmp_path):
        # the demo's kernel cross-check and adversarial sections print, and
        # write kernel_t25.csv, as when a dataclass held the tables
        demo = Path(nlsgrowth.__file__).parents[2] / "demos" / "linear_kernel.py"
        sections = runpy.run_path(str(demo))
        sections["kernel_cross_check"].__globals__["OUT"] = tmp_path
        sections["kernel_cross_check"]()
        sections["adversarial_lower_bound"]()
        assert capsys.readouterr().out.splitlines() == [
            "== kernel table vs adaptive quadrature ==",
            "  t=   10: max |recurrence - quadrature| = 1.91e-15, unitarity deficit = 4.44e-16",
            "  t=   50: max |recurrence - quadrature| = 1.96e-15, unitarity deficit = 6.66e-16",
            "== adversarial phase alignment: |psi(t0,0)| >= delta t0^(1/2) ==",
            "  t0=   25: |psi(t0,0)| =     9.36   ratio to sqrt(t0) = 1.8720",
            "  t0=   50: |psi(t0,0)| =    12.93   ratio to sqrt(t0) = 1.8290",
            "  t0=  100: |psi(t0,0)| =    17.88   ratio to sqrt(t0) = 1.7880",
            "  t0=  200: |psi(t0,0)| =    25.13   ratio to sqrt(t0) = 1.7769",
            "  t0=  400: |psi(t0,0)| =    35.20   ratio to sqrt(t0) = 1.7598",
        ]
        digest = hashlib.sha256((tmp_path / "kernel_t25.csv").read_bytes()).hexdigest()
        assert digest == "21f298078d7f6a866064b60d0f68f15776f3f9898ba769448b9debb6d21bf6dc"
