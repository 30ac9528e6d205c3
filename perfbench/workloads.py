"""The benchmark's workloads: inputs made from a seed, the jobs, the checks.

Every workload is one closed loop with one client: its jobs run back to back
in one process.  The program sees only generated configs and arrays; every
data seed (random phases, comb phases, ``random_band`` seeds, sweep seeds,
Newton data phases) is drawn from the workload seed.

Each workload has three steps.  ``prepare`` is set-up: config parsing and
initial-data realization, everything before the first engine call.
``execute`` calls the engines through the public API and returns plain
numbers and arrays.  ``check`` compares those against the bound of the
acceptance criterion whose shape the job copies; every comparison is one
operation, so a broken result shows as a failed operation, not a fast run.
``digest`` hashes the outputs for the byte-identity check across repeats.

``small=True`` shrinks sizes and horizons for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from nlsgrowth import continuum, fields, newton, wave
from nlsgrowth.fields import GridField, InitialData, Mollifier
from nlsgrowth.harness import config, csvio, fitting, runner


@dataclass(frozen=True)
class Check:
    """One verified property of a result: one operation of the benchmark."""

    name: str
    ok: bool
    detail: str


def _check(name: str, value: float, ok: bool, bound: str) -> Check:
    # a NaN value fails every comparison, so `ok` is already False for it
    return Check(name, bool(ok), f"{value:.6g} vs {bound}")


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(1, 2**31 - 1, size=n)]


def _hash_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# lattice_long: one long run at ring 8193 = 3 * 2731 (a non-fast FFT length)
# ---------------------------------------------------------------------------

class LatticeLong:
    """c01's shape: random-phase defocusing data, dt 0.01, sparse records."""

    name = "lattice_long"

    def __init__(self, seed: int, small: bool = False):
        (self.data_seed,) = _seeds(seed, 1)
        self.extent = 64 if small else 4096
        self.t_final = 0.5 if small else 10.0
        self.dt = 0.01

    def work(self) -> int:
        return round(self.t_final / self.dt) * (2 * self.extent + 1)

    def prepare(self):
        return config.parse_config_text(
            "engine = lattice\n"
            "lattice.sign = 1\n"
            "lattice.p = 2\n"
            f"lattice.extent = {self.extent}\n"
            f"lattice.dt = {self.dt}\n"
            "data.kind = random_phase\n"
            "data.amplitude = 1.0\n"
            f"data.seed = {self.data_seed}\n"
            f"run.t_final = {self.t_final}\n"
            f"run.record_dt = {self.t_final / 10}\n"
        )

    def execute(self, cfg, out_dir: Path) -> dict:
        run_dir = runner.run_experiment(cfg, out_dir / "run")
        series = csvio.read_csv(run_dir / "series.csv")
        return {"global_mass": series["global_mass"], "files": [run_dir / "series.csv"]}

    def check(self, result: dict) -> list[Check]:
        mass = result["global_mass"]
        drift = float(np.max(np.abs(mass - mass[0]) / mass[0]))
        return [_check("c01_mass_drift", drift, drift <= 1e-12, "<=1e-12")]

    def digest(self, result: dict) -> str:
        return _hash_files(result["files"])


# ---------------------------------------------------------------------------
# lattice_ensemble: many short runs at ring 385, then the exact kernel
# ---------------------------------------------------------------------------

class LatticeEnsemble:
    """c04's sweep shape (t0 = weight.t0 = 50, record_dt 0.5, one worker)
    followed by c07's lattice-linear run at t0 in {25, 100, 400}."""

    name = "lattice_ensemble"

    def __init__(self, seed: int, small: bool = False):
        *self.sweep_seeds, self.ensemble_seed = _seeds(seed, (2 if small else 8) + 1)
        self.extent = 32 if small else 192
        self.t0 = 1.0 if small else 50.0
        self.samples = 100 if small else 3000
        self.t0_values = (25.0,) if small else (25.0, 100.0, 400.0)
        self.dt = 0.01

    def work(self) -> int:
        return len(self.sweep_seeds) * round(self.t0 / self.dt) * (2 * self.extent + 1)

    def prepare(self):
        sweep = config.parse_config_text(
            "engine = lattice\n"
            "lattice.sign = 1\n"
            "lattice.p = 2\n"
            f"lattice.extent = {self.extent}\n"
            f"lattice.dt = {self.dt}\n"
            "data.kind = random_phase\n"
            "data.amplitude = 1.0\n"
            f"run.t_final = {self.t0}\n"
            "run.record_dt = 0.5\n"
            "weight.x0 = 0\n"
            "weight.R = 1.0\n"
            f"weight.t0 = {self.t0}\n"
            f"sweep.seeds = {','.join(map(str, self.sweep_seeds))}\n"
        )
        linear = config.parse_config_text(
            "engine = lattice-linear\n"
            f"run.t0_values = {','.join(map(str, self.t0_values))}\n"
            f"ensemble.samples = {self.samples}\n"
            "ensemble.amplitude = 1.0\n"
            f"ensemble.seed = {self.ensemble_seed}\n"
        )
        return sweep, linear

    def execute(self, cfgs, out_dir: Path) -> dict:
        sweep_cfg, linear_cfg = cfgs
        sweep_dir = runner.sweep_experiment(sweep_cfg, out_dir / "sweep", workers=1)
        files = sorted(sweep_dir.glob("*/series.csv"))
        ratios = []
        for path in files:
            m = csvio.read_csv(path)["local_mass"]
            ratios.append(m[-1] / m[0])
        lin_dir = runner.run_experiment(linear_cfg, out_dir / "linear")
        lin = csvio.read_csv(lin_dir / "series.csv")
        files.append(lin_dir / "series.csv")
        return {
            "gronwall_ratio": np.array(ratios),
            "t0": lin["t0"],
            "adversarial_ratio": lin["adversarial_ratio"],
            "pairing_ok": lin["pairing_ok"],
            "ensemble_m2": lin["ensemble_m2"],
            "samples": self.samples,
            "files": files,
        }

    def check(self, result: dict) -> list[Check]:
        bound = 2.0 ** 3 * (1.0 + 1e-6)  # c04: M(t0) <= 2^(3/R) M(0), R = 1
        out = [
            _check(f"c04_gronwall[{i}]", r, r <= bound, f"<={bound:.6f}")
            for i, r in enumerate(result["gronwall_ratio"])
        ]
        m2_tol = 4.0 / np.sqrt(result["samples"])  # c07: |E-1| <= 4/sqrt(samples)
        for t0, ratio, pairing, m2 in zip(
            result["t0"], result["adversarial_ratio"], result["pairing_ok"], result["ensemble_m2"]
        ):
            out.append(_check(f"c07_ratio[t0={t0:g}]", ratio, 0.3 <= ratio <= 2.0, "[0.3, 2.0]"))
            out.append(_check(f"c07_pairing[t0={t0:g}]", pairing, pairing == 1.0, "1"))
            err = abs(m2 - 1.0)
            out.append(_check(f"c07_ensemble[t0={t0:g}]", err, err <= m2_tol, f"<={m2_tol:.4f}"))
        return out

    def digest(self, result: dict) -> str:
        return _hash_files(result["files"])


# ---------------------------------------------------------------------------
# grid_engines: continuum, wave and Newton through their public functions
# ---------------------------------------------------------------------------

def _real(f: GridField) -> GridField:
    return GridField(values=f.values.real.astype(complex), box_length=f.box_length)


class GridEngines:
    """c09/c10/c11 continuum runs, c12's wave runs and c13's Newton ladders
    at their criteria's grids, with horizons shortened where noted.

    The cone test runs c12's 2 x 8192 batch at horizon 0.2 instead of 20
    (62500 steps, about a minute).  c12's cone bound (1e-10) holds only near
    the full horizon: at 2 x 8192 the measured difference is 1e-6 to 3e-6 at T=0.5,
    2e-9 at T=2 and 1.6e-10 at T=10.  The shortened cone is therefore checked
    only by the byte-identity of repeats; c12's energy and growth bounds check
    the same leapfrog on the other two wave jobs.
    """

    name = "grid_engines"

    def __init__(self, seed: int, small: bool = False):
        s = _seeds(seed, 10)
        rng = np.random.default_rng(s[9])
        self.seeds = s
        self.gauss = Mollifier.gaussian(1.0)
        # (comb half-extent, box, grid, dt, horizon, record_dt)
        self.c09 = (63, 128.0, 1024, 1e-3, 0.2 if small else 1.0, 0.05 if small else 0.25)
        self.c11 = (126, 256.0, 1024, 2e-3, 0.4, 0.02) if small else (1008, 2048.0, 8192, 2e-3, 1.0, 0.05)
        self.c11_probe_r = 32.0 if small else 256.0
        self.nlw_horizon = 0.05 if small else 1.25
        self.slope_horizon = 20.0 if small else 100.0
        self.cone = (512, 0.05) if small else (8192, 0.2)  # (grid, horizon)
        self.cone_dt = 3.2e-4
        # Newton ladders on translated data; the first is cross-checked by a fine run
        self.newton_phases = rng.uniform(0.0, 2.0 * np.pi, size=1 if small else 7)
        self.lemma_seed = int(rng.integers(2**31 - 1))
        self.lemma_fields = 10 if small else 100

    def work(self) -> int:
        """Integrator steps x points stepped by run_continuum, run_nlw and the cone."""
        def n(t, dt):
            return round(t / dt)

        _, _, g9, dt9, t9, _ = self.c09
        _, _, g11, dt11, t11, _ = self.c11
        cone_grid, cone_t = self.cone
        continuum_work = (
            n(t9, dt9) * g9
            + (n(1.0, 0.02) + n(1.0, 0.01) + n(1.0, 1.0 / 1024.0)) * 512  # c09 dt halving
            + n(t11, dt11) * g11
            + n(0.1, 1e-3) * 512  # c10 reference run
            + n(0.3, 1e-4) * 64  # c13 fine cross-check
        )
        wave_work = (
            n(self.nlw_horizon, 2.5e-4) * 512
            + 2 * n(self.slope_horizon, 0.0625) * 1024  # p = 1 and p = 2
            + n(cone_t, self.cone_dt) * 2 * cone_grid
        )
        return continuum_work + wave_work

    def prepare(self) -> dict:
        s = self.seeds
        half9, box9, g9, *_ = self.c09
        half11, box11, g11, *_ = self.c11
        x = -np.pi + (2.0 * np.pi / 64) * np.arange(64)
        lemma_rng = np.random.default_rng(self.lemma_seed)
        lemma = []
        for _ in range(self.lemma_fields):
            band = int(lemma_rng.integers(1, 12))
            coeffs = np.zeros(64, dtype=complex)
            coeffs[0] = lemma_rng.standard_normal()
            for m in range(1, band + 1):
                coeffs[m] = lemma_rng.standard_normal() + 1j * lemma_rng.standard_normal()
                coeffs[-m] = lemma_rng.standard_normal() + 1j * lemma_rng.standard_normal()
            f = GridField(values=np.fft.ifft(coeffs * 64), box_length=2.0 * np.pi)
            lemma.append((f, int(lemma_rng.integers(1, 4)), float(lemma_rng.uniform(0.05, 0.35))))
        cone_grid, _ = self.cone

        def wave_state(amplitude, k_band, box, size, seed_u, seed_v):
            return wave.WaveState(
                u=_real(fields.make_initial_grid(InitialData.random_band(amplitude, k_band, seed_u), box, size)),
                v=_real(fields.make_initial_grid(InitialData.random_band(amplitude, k_band, seed_v), box, size)),
            )

        cone = wave_state(0.5, 0.5, 160.0, cone_grid, s[6], s[7])
        return {
            "c09": fields.make_initial_grid(InitialData.random_comb(1.0, half9, s[0]), box9, g9),
            "c09_halving": fields.make_initial_grid(InitialData.random_comb(0.5, 20, s[1]), 128.0, 512),
            "c11": fields.make_initial_grid(InitialData.random_comb(1.0, half11, s[2]), box11, g11),
            "c10": fields.make_initial_grid(InitialData.random_comb(0.5, 8, s[3]), 64.0, 512),
            "c13": [GridField(values=(0.1 * np.cos(x + ph)).astype(complex), box_length=2.0 * np.pi)
                    for ph in self.newton_phases],
            "lemma": lemma,
            "nlw": wave_state(1.0, 2.0, 128.0, 512, s[4], s[5]),
            "slopes": wave_state(1.0, 1.0, 256.0, 1024, s[8], s[8] + 1),
            "cone": (cone.u, cone.v),
        }

    def execute(self, data: dict, out_dir: Path) -> dict:
        gauss = self.gauss
        arrays = []
        res = {}

        # c09: conservation on a random-phase comb, then dt-halving order
        _, box9, g9, dt9, t9, rec9 = self.c09
        traj = continuum.run_continuum(data["c09"], continuum.ContinuumModel(gauss, box9, g9, dt9), t9, rec9)
        masses = np.array([continuum.global_mass(traj.field(i)) for i in range(len(traj.times))])
        energies = np.array([continuum.global_energy(traj.field(i), gauss) for i in range(len(traj.times))])
        res["c09_mass_drift"] = float(np.max(np.abs(masses - masses[0]) / masses[0]))
        res["c09_energy_drift"] = float(np.max(np.abs(energies - energies[0]) / energies[0]))
        arrays.append(traj.values)

        def terminal(dt):
            model = continuum.ContinuumModel(gauss, 128.0, 512, dt)
            return continuum.run_continuum(data["c09_halving"], model, 1.0, 1.0).values[-1]

        ref = terminal(1.0 / 1024.0)
        res["c09_halving_gain"] = float(
            np.max(np.abs(terminal(0.02) - ref)) / np.max(np.abs(terminal(0.01) - ref))
        )

        # c11: bootstrap monitor on the 2017-tooth comb
        _, box11, g11, dt11, t11, rec11 = self.c11
        traj = continuum.run_continuum(
            data["c11"], continuum.ContinuumModel(gauss, box11, g11, dt11, sign=+1), t11, rec11
        )
        r = self.c11_probe_r
        probes = [continuum.LocalEnergyProbe(x0, r) for x0 in (-r, 0.0, r)]
        report = continuum.bootstrap_monitor(traj, probes, gauss, flag_factor=2.0)
        sup = np.max(np.abs(traj.values), axis=1)
        res["c11_probe_ratio"] = report.max_ratio
        res["c11_sup_slope"] = fitting.fit_growth(
            traj.times, np.maximum(sup, 1e-30), (t11 / 10.0, t11)
        ).slope
        arrays.append(traj.values)

        # c10: Picard fixed point against Lawson-RK4
        model = continuum.ContinuumModel(gauss, 64.0, 512, 1e-3)
        picard = continuum.picard_solve(data["c10"], 0.1, model, tol=1e-8)
        traj = continuum.run_continuum(data["c10"], model, 0.1, 1e-3)
        res["c10_picard_diff"] = float(np.max(np.abs(picard.trajectory.values - traj.values)))
        res["c10_iterations"] = picard.iterations
        arrays.append(picard.trajectory.values)

        # c13: quadratic Newton ladders
        res["c13"] = []
        ladders = []
        for psi0 in data["c13"]:
            ladder = newton.newton_iterate(psi0, 0.3, 1e-3, tol=1e-13, max_iter=8)
            hits = [row.n for row in ladder.rows if row.sup_residual <= 1e-10]
            pairs = [
                (np.log(a.eps), np.log(b.eps))
                for a, b in zip(ladder.rows, ladder.rows[1:])
                if a.eps < 1.0 and b.eps > 1e-14
            ]
            slope = (
                float(np.polyfit([p[0] for p in pairs], [p[1] for p in pairs], 1)[0])
                if len(pairs) >= 2 else 0.0
            )
            res["c13"].append({"converged": ladder.converged,
                               "first_hit": min(hits) if hits else -1, "slope": slope})
            ladders.append(ladder.trajectory.values)
        arrays.extend(ladders)
        fine = continuum.ContinuumModel(Mollifier.fourier_cutoff(np.inf), 2.0 * np.pi, 64, 1e-4, dealias=False)
        ref = continuum.run_continuum(data["c13"][0], fine, 0.3, 1e-3)
        res["c13_fine_diff"] = float(np.max(np.abs(ladders[0] - ref.values)))

        # c13: Lemma 4.3 majorant inequality on random band-limited fields
        worst = 0.0
        for f, p, delta in data["lemma"]:
            lhs = newton.majorant_norm(f, newton.AnalyticNormParams(1.0 - delta, p))
            rhs = (p + 1) * (p / np.e) ** p * 1.05 * delta ** -p * newton.majorant_norm(
                f, newton.AnalyticNormParams(1.0, 0)
            )
            worst = max(worst, lhs / rhs)
        res["c13_lemma_ratio"] = worst

        # c12: leapfrog energy drift, sup-norm growth for p = 1, 2, the cone batch
        records, final = wave.run_nlw(data["nlw"], self.nlw_horizon, 2.5e-4, self.nlw_horizon / 5)
        e = np.array([rec[2] for rec in records])
        res["c12_energy_drift"] = float(np.max(np.abs(e - e[0]) / abs(e[0])))
        arrays.append(final.u.values)
        for p in (1, 2):
            records, final = wave.run_nlw(data["slopes"], self.slope_horizon, 0.0625, 0.5, p=p)
            t = np.array([rec[0] for rec in records])
            sup = np.array([rec[1] for rec in records])
            res[f"c12_slope_p{p}"] = fitting.fit_growth(
                t, sup, (self.slope_horizon / 10.0, self.slope_horizon)
            ).slope
            arrays.append(final.u.values)
        u0, u1 = data["cone"]
        res["c12_cone_diff"] = wave.nlw_cone_test(u0, u1, self.cone[1], self.cone_dt)

        res["digest"] = hashlib.sha256(
            b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
            + repr(sorted((k, v) for k, v in res.items() if k != "c13")).encode()
        ).hexdigest()
        return res

    def check(self, result: dict) -> list[Check]:
        r = result
        out = [
            _check("c09_mass_drift", r["c09_mass_drift"], r["c09_mass_drift"] <= 1e-8, "<=1e-8"),
            _check("c09_energy_drift", r["c09_energy_drift"], r["c09_energy_drift"] <= 1e-6, "<=1e-6"),
            _check("c09_halving_gain", r["c09_halving_gain"], r["c09_halving_gain"] >= 12.0, ">=12"),
            _check("c11_probe_ratio", r["c11_probe_ratio"], r["c11_probe_ratio"] <= 2.0, "<=2"),
            _check("c11_sup_slope", r["c11_sup_slope"], r["c11_sup_slope"] <= 8.0 / 3.0, "<=8/3"),
            _check("c10_picard_diff", r["c10_picard_diff"], r["c10_picard_diff"] <= 1e-6, "<=1e-6"),
            _check("c10_iterations", r["c10_iterations"], r["c10_iterations"] <= 8, "<=8"),
            _check("c13_fine_diff", r["c13_fine_diff"], r["c13_fine_diff"] <= 1e-8, "<=1e-8"),
            _check("c13_lemma43", r["c13_lemma_ratio"], r["c13_lemma_ratio"] <= 1.0, "<=1"),
            _check("c12_energy_drift", r["c12_energy_drift"], r["c12_energy_drift"] <= 1e-6, "<=1e-6"),
            _check("c12_slope_p1", r["c12_slope_p1"], r["c12_slope_p1"] <= 1.0 / 3.0 + 0.05, "<=1/3+0.05"),
            _check("c12_slope_p2", r["c12_slope_p2"], r["c12_slope_p2"] <= 0.30, "<=0.30"),
        ]
        for i, lad in enumerate(r["c13"]):
            out.append(_check(f"c13_converged[{i}]", lad["converged"], lad["converged"], "true"))
            out.append(_check(f"c13_first_hit[{i}]", lad["first_hit"], 1 <= lad["first_hit"] <= 5, "in [1, 5]"))
            out.append(_check(f"c13_slope[{i}]", lad["slope"], lad["slope"] >= 1.8, ">=1.8"))
        return out

    def digest(self, result: dict) -> str:
        return result["digest"]


WORKLOADS = {w.name: w for w in (LatticeLong, LatticeEnsemble, GridEngines)}
