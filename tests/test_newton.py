import hashlib

import numpy as np
import pytest

from nlsgrowth import newton
from nlsgrowth.continuum import ContinuumModel, run_continuum
from nlsgrowth.fields import GridField, InitialData, Mollifier, make_initial_grid
from nlsgrowth.errors import NumericsError
from nlsgrowth.newton import (
    AnalyticNormParams,
    _radius,
    majorant_norm,
    newton_iterate,
    _residual,
    solve_linearized,
)

BOX = 2 * np.pi
SIZE = 64


def grid(vals):
    return GridField(values=np.asarray(vals, dtype=complex), box_length=BOX)


def x_grid():
    return -BOX / 2 + (BOX / SIZE) * np.arange(SIZE)


class TestMajorantNorm:
    def test_constant(self):
        g = grid(np.full(SIZE, 0.3 - 0.4j))
        for p in (0, 2):
            assert majorant_norm(g, AnalyticNormParams(1.0, p)) == pytest.approx(0.5)

    def test_single_mode(self):
        x = x_grid()
        k = 3.0
        g = grid(np.exp(1j * k * x))
        r, p = 0.8, 2
        expected = (1 + k + k ** 2) * np.exp(k * r)
        assert majorant_norm(g, AnalyticNormParams(r, p)) == pytest.approx(expected, rel=1e-12)

    def test_cos_x(self):
        g = grid(np.cos(x_grid()))
        assert majorant_norm(g, AnalyticNormParams(1.0, 0)) == pytest.approx(np.e, rel=1e-12)

    @pytest.mark.parametrize("radius, count, match", [
        (0.0, 0, "radius must be positive"),
        (1.0, -1, "derivative count must be >= 0"),
    ])
    def test_params_validation(self, radius, count, match):
        with pytest.raises(ValueError, match=match):
            AnalyticNormParams(radius, count)

    def test_overflow_guard(self):
        g = grid(np.cos(x_grid()))
        with pytest.raises(ValueError, match="radius"):
            majorant_norm(g, AnalyticNormParams(30.0, 0))

    def test_radius_shrink_inequality(self):
        # maj(f; r-d, p) <= (p+1) (p/e)^p (1+margin) d^-p maj(f; r, 0)
        # on 100 random band-limited fields (sup_k k^q e^{-kd} = (q/(e d))^q)
        rng = np.random.default_rng(42)
        margin = 0.05
        r = 1.0
        for trial in range(100):
            band = int(rng.integers(1, 12))
            coeffs = np.zeros(SIZE, dtype=complex)
            coeffs[0] = rng.standard_normal()
            for m in range(1, band + 1):
                coeffs[m] = rng.standard_normal() + 1j * rng.standard_normal()
                coeffs[-m] = rng.standard_normal() + 1j * rng.standard_normal()
            vals = np.fft.ifft(coeffs * SIZE)
            f = grid(vals)
            p = int(rng.integers(1, 4))
            delta = float(rng.uniform(0.05, 0.35))
            lhs = majorant_norm(f, AnalyticNormParams(r - delta, p))
            rhs = (
                (p + 1)
                * (p / np.e) ** p
                * (1 + margin)
                * delta ** -p
                * majorant_norm(f, AnalyticNormParams(r, 0))
            )
            assert lhs <= rhs


class TestSchedule:
    def test_radii_sum_to_half(self):
        assert _radius(1.0, 1) == 1.0
        # radii decrease and stay above r1/2
        prev = 1.0
        for n in range(2, 200):
            r = _radius(1.0, n)
            assert r < prev
            assert r > 0.5
            prev = r
        assert _radius(1.0, 2) == pytest.approx(1.0 - 3.0 / np.pi ** 2)


class TestResidual:
    def make_rows(self, field_vals, n_t=5):
        return np.broadcast_to(field_vals, (n_t, SIZE)).astype(complex)

    def test_zero_correction(self):
        psi = self.make_rows(np.full(SIZE, 0.5 + 0.1j))
        xi = self.make_rows(np.zeros(SIZE))
        assert np.all(_residual(psi, xi) == 0)

    def test_first_residual_single_mode(self):
        # psi_1 is the free plane wave, so R_1 = |psi_1|^2 psi_1 has sup |amp|^3
        amp = 0.03 + 0.01j
        psi0 = grid(amp * np.exp(2j * x_grid()))
        res = newton_iterate(psi0, 0.15, 0.05, max_iter=1, tol=1e-12)
        assert res.amplitude_scale == 1.0
        assert res.rows[0].sup_residual == pytest.approx(abs(amp) ** 3, rel=1e-12)
        assert np.allclose(
            res.trajectory.values,
            amp * np.exp(1j * (2 * x_grid()[None, :] - 4 * res.trajectory.times[:, None])),
            atol=1e-14,
        )

    def test_homogeneity_in_xi(self):
        rng = np.random.default_rng(1)
        psi_v = rng.standard_normal(SIZE) + 1j * rng.standard_normal(SIZE)
        xi_v = rng.standard_normal(SIZE) + 1j * rng.standard_normal(SIZE)
        psi = self.make_rows(psi_v)
        lam = 0.37
        r_lam = _residual(psi, self.make_rows(lam * xi_v))[0]
        quad = 2 * np.abs(xi_v) ** 2 * psi_v + xi_v ** 2 * np.conj(psi_v)
        cubic = np.abs(xi_v) ** 2 * xi_v
        assert np.allclose(r_lam, lam ** 2 * quad + lam ** 3 * cubic, atol=1e-13)


class TestSolveLinearized:
    def test_zero_forcing_zero_solution(self):
        zeros = np.zeros((101, SIZE), dtype=complex)
        sol = solve_linearized(zeros, zeros, BOX, 1e-3)
        assert sol.shape == (101, SIZE)
        assert np.all(sol == 0)

    def test_constant_forcing_mode_formula(self):
        # V = 0, b constant in t: mode k solves u(t) = -b (1 - e^{-ik^2 t})/k^2,
        # u(t) = -i b t at k = 0
        dt = 1e-3
        n_t = 101
        t_final = 0.1
        psi = np.zeros((n_t, SIZE), dtype=complex)
        x = x_grid()
        b_field = 0.2 + 0.3 * np.exp(1j * 2 * x) + 0.1 * np.exp(-1j * 3 * x)
        forcing = np.broadcast_to(b_field, (n_t, SIZE)).copy()
        sol = solve_linearized(psi, forcing, BOX, dt)
        b_hat = np.fft.fft(b_field) / SIZE
        k = np.fft.fftfreq(SIZE, d=BOX / SIZE) * 2 * np.pi
        expected_hat = np.where(
            k == 0.0,
            -1j * b_hat * t_final,
            -b_hat * (1.0 - np.exp(-1j * k ** 2 * t_final)) / np.where(k == 0, 1.0, k ** 2),
        )
        got_hat = np.fft.fft(sol[-1]) / SIZE
        assert np.max(np.abs(got_hat - expected_hat)) < 1e-9

    def test_zero_initial_condition_exact(self):
        psi = np.zeros((51, SIZE), dtype=complex)
        rng = np.random.default_rng(3)
        forcing = np.broadcast_to(
            rng.standard_normal(SIZE) + 1j * rng.standard_normal(SIZE), (51, SIZE)
        ).copy()
        sol = solve_linearized(psi, forcing, BOX, 1e-3)
        assert np.all(sol[0] == 0)

    def test_forcing_shape_checked(self):
        psi = np.zeros((51, SIZE), dtype=complex)
        with pytest.raises(ValueError, match="forcing shape"):
            solve_linearized(psi, psi[:50], BOX, 1e-3)


class TestNewton:
    def test_zero_data(self):
        psi0 = grid(np.zeros(SIZE))
        res = newton_iterate(psi0, 0.1, 1e-3, max_iter=12, tol=1e-12)
        assert res.converged
        assert np.all(res.trajectory.values == 0)
        assert res.amplitude_scale == 1.0

    def test_cos_data_quadratic_convergence(self):
        psi0 = grid(0.1 * np.cos(x_grid()))
        res = newton_iterate(psi0, 0.3, 1e-3, tol=1e-13, max_iter=8)
        assert res.amplitude_scale == 1.0  # 0.1 e < 0.5, no rescale
        assert res.converged
        # residual <= 1e-10 within 5 corrections
        hit = [r.n for r in res.rows if r.sup_residual <= 1e-10]
        assert hit and min(hit) <= 5
        # quadratic-law constants bounded
        ratios = [r.ratio for r in res.rows if np.isfinite(r.ratio)]
        assert ratios and max(ratios) <= 1e3
        # fitted slope of log eps_{n+1} vs log eps_n over the contraction
        # ladder; the quadratic law crosses from 1e-3 to the double-precision
        # floor in about one step, so all sub-unity pairs enter the fit
        pairs = [
            (np.log(a.eps), np.log(b.eps))
            for a, b in zip(res.rows, res.rows[1:])
            if a.eps < 1.0 and b.eps > 1e-14
        ]
        assert len(pairs) >= 2
        xs = np.array([p[0] for p in pairs])
        ys = np.array([p[1] for p in pairs])
        slope = np.polyfit(xs, ys, 1)[0]
        assert slope >= 1.8

    def test_telescoping_identity(self):
        # i d/dt psi_n + Dxx psi_n - |psi_n|^2 psi_n + R_{n+1} = 0 within
        # discretization error (finite-difference time derivative)
        psi0 = grid(0.1 * np.cos(x_grid()))
        dt = 1e-3
        t_final = 0.3
        res = newton_iterate(psi0, t_final, dt, tol=1e-13, max_iter=4)
        traj = res.trajectory
        # rebuild R_{n+1} from the final correction is internal; instead check
        # the defect of the converged iterate against the plain cubic NLS
        k = np.fft.fftfreq(SIZE, d=BOX / SIZE) * 2 * np.pi
        worst = 0.0
        for i in range(1, len(traj.times) - 1):
            dpsi_dt = (traj.values[i + 1] - traj.values[i - 1]) / (2 * dt)
            lap = np.fft.ifft(-(k ** 2) * np.fft.fft(traj.values[i]))
            defect = (
                1j * dpsi_dt + lap - np.abs(traj.values[i]) ** 2 * traj.values[i]
            )
            worst = max(worst, float(np.max(np.abs(defect))))
        assert worst < 1e-6

    def test_matches_fine_cubic_integration(self):
        psi0_vals = 0.1 * np.cos(x_grid())
        res = newton_iterate(grid(psi0_vals), 0.3, 1e-3, max_iter=12, tol=1e-13)
        model = ContinuumModel(
            Mollifier.fourier_cutoff(np.inf), BOX, SIZE, 1e-4, dealias=False
        )
        ref = run_continuum(grid(psi0_vals), model, 0.3, 1e-3)
        diff = np.max(np.abs(res.trajectory.values - ref.values))
        assert diff < 1e-8

    def test_rescaling_recorded(self):
        psi0 = grid(2.0 * np.cos(x_grid()))
        res = newton_iterate(psi0, 0.05, 1e-3, max_iter=12, tol=1e-12)
        assert res.amplitude_scale < 1.0
        assert res.converged

    def test_divergence_error_for_large_data_and_time(self, monkeypatch):
        # under the 0.5 rescale no cheap data diverge, so the rescale is lifted
        monkeypatch.setattr(newton, "_SMALLNESS", 1e9)
        psi0 = grid(0.9 * np.cos(x_grid()) + 0.9 * np.cos(2 * x_grid()))
        with pytest.raises(NumericsError, match="^correction norms grew twice in a row"):
            newton_iterate(psi0, 2.0, 2e-3, max_iter=12, tol=1e-12)

    def test_first_eps_is_data_majorant(self):
        psi0 = grid(0.1 * np.cos(x_grid()))
        res = newton_iterate(psi0, 0.1, 1e-3, max_iter=2, tol=1e-16)
        assert res.rows[0].eps == pytest.approx(0.1 * np.e, rel=1e-12)


class TestPinned:
    # sha256 of the trajectory values, then of the rows (n, eps, sup_residual,
    # ratio) as float64, computed with the Trajectory-wrapping iteration that
    # preceded the array one (numpy 2.4.6, scipy 1.17.1): no bit moved
    @pytest.mark.parametrize("amp,t_final,kw,values_digest,rows_digest", [
        (0.1, 0.3, {"tol": 1e-13, "max_iter": 8},
         "93207eeda91f63a79e4b94549ddd5676cc36113dbb1930e5793f044c69aff4c8",
         "7f122df22b96f282c9f3e9bcc7330007d3ccbf91a85903c3d415bb98a5483fb6"),
        (2.0, 0.05, {"tol": 1e-12, "max_iter": 12},
         "5ee5c8979af898ed8346b5a48b08d2c0fabe24cdca5f9944578e68b5bb668407",
         "8d389722ae111db516eabd90f93ac99f9e6e85e7f81c2407ad726b379471bd61"),
    ], ids=["c13_ladder", "rescaled_2cos"])
    def test_pinned_run(self, amp, t_final, kw, values_digest, rows_digest):
        res = newton_iterate(grid(amp * np.cos(x_grid())), t_final, 1e-3, **kw)
        rows = np.array([(r.n, r.eps, r.sup_residual, r.ratio) for r in res.rows], dtype=float)
        assert hashlib.sha256(res.trajectory.values.tobytes()).hexdigest() == values_digest
        assert hashlib.sha256(rows.tobytes()).hexdigest() == rows_digest


def majorant_fields():
    """A low mode pair, a random band-limited field and a comb on a box of 40."""
    rng = np.random.default_rng(17)
    coeffs = np.zeros(SIZE, dtype=complex)
    coeffs[:9] = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    coeffs[-8:] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    comb = make_initial_grid(InitialData.random_comb(1.0, 6, 2), 40.0, 128)
    return [
        grid(0.1 * np.cos(x_grid()) + 0.05j * np.sin(2 * x_grid())),
        grid(np.fft.ifft(coeffs * SIZE)),
        comb,
    ]


class TestPinnedMajorant:
    # sha256 of the norms at p = 0, then p = 2 (radius 0.8 on the 2 pi box,
    # 0.3 on the box of 40), computed with the one-row majorant that preceded
    # the batched one (numpy 2.4.6, scipy 1.17.1)
    def test_pinned_norms(self):
        norms = np.array([
            majorant_norm(f, AnalyticNormParams(0.8 if f.box_length == BOX else 0.3, p))
            for p in (0, 2) for f in majorant_fields()
        ])
        assert hashlib.sha256(norms.tobytes()).hexdigest() == (
            "44c1b0088d83fdeaf0e53f9fda5b7a3edbcb9ab08daf2ac1b1f2fae7ffde5158")
