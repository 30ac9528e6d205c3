import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlsgrowth.errors import NumericsError
from nlsgrowth.harness.config import ConfigError, parse_config_text
from nlsgrowth.harness.csvio import format_value, read_csv, write_csv
from nlsgrowth.harness.acceptance import _DETERMINISM_CONFIG
from nlsgrowth.harness.fitting import fit_growth
from nlsgrowth.harness.runner import ENGINE_COLUMNS, execute, run_experiment, sweep_experiment
from nlsgrowth.harness.svgplot import write_line_plot

LATTICE_CFG = """
# minimal lattice run
engine = lattice
lattice.extent = 64
lattice.dt = 0.01
data.kind = constant
data.amplitude = 1.5
run.t_final = 1.0
run.record_dt = 0.25
"""


class TestConfig:
    def test_parse_and_defaults(self):
        cfg = parse_config_text(LATTICE_CFG)
        assert cfg.engine == "lattice"
        assert cfg.params["lattice.extent"] == 64
        assert cfg.params["data.amplitude"] == 1.5
        assert cfg.params["weight.R"] == 1.0  # default filled in

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config_text(LATTICE_CFG + "\nlattice.bogus = 3\n")

    def test_invalid_engine_names_field(self):
        with pytest.raises(ConfigError, match="engine"):
            parse_config_text("engine = warp-drive\n")

    def test_missing_engine(self):
        with pytest.raises(ConfigError, match="engine"):
            parse_config_text("lattice.extent = 4\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("engine = lattice\nlattice.dt = 0.01\nlattice.dt = 0.02\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError, match="lattice.extent"):
            parse_config_text("engine = lattice\nlattice.extent = soup\n")

    def test_echo_round_trip(self):
        cfg = parse_config_text(LATTICE_CFG)
        echo = cfg.echo()
        assert echo["engine"] == "lattice"
        assert echo["data.amplitude"] == "1.5"

    @pytest.mark.parametrize("text, key", [
        ("engine = nlw\nnlw.dt = 0\n", "nlw.dt"),
        ("engine = nlw\nnlw.dt = -0.01\n", "nlw.dt"),
        ("engine = newton\nnewton.dt = 0\n", "newton.dt"),
        ("engine = newton\nnewton.t_final = -1\n", "newton.t_final"),
        ("engine = lattice\nrun.t_final = -1\n", "run.t_final"),
        ("engine = continuum\nrun.record_dt = 0\n", "run.record_dt"),
    ])
    def test_time_grid_bounds(self, text, key):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(text)


class TestFitGrowth:
    def test_exact_power_law(self):
        t = np.linspace(1.0, 100.0, 32)
        v = 3.0 * t ** 0.5
        res = fit_growth(t, v, (1.0, 100.0))
        assert res.slope == pytest.approx(0.5, abs=1e-6)
        assert res.residual_rms < 1e-12

    def test_constant_series(self):
        t = np.linspace(1.0, 50.0, 20)
        res = fit_growth(t, np.full_like(t, 2.0), (1.0, 50.0))
        assert abs(res.slope) < 1e-9

    def test_oscillating_envelope(self):
        t = np.logspace(0.0, 3.0, 64)
        v = t ** 0.25 * (2.0 + np.sin(np.log(t)))
        res = fit_growth(t, v, (1.0, 1000.0))
        assert 0.15 <= res.slope <= 0.35

    def test_too_few_points(self):
        t = np.linspace(1.0, 10.0, 5)
        with pytest.raises(ValueError, match="8 samples"):
            fit_growth(t, t, (1.0, 10.0))

    def test_rejects_nonpositive_values(self):
        t = np.linspace(1.0, 10.0, 12)
        v = np.ones_like(t)
        v[3] = 0.0
        with pytest.raises(ValueError, match="positive"):
            fit_growth(t, v, (1.0, 10.0))


class TestCsv:
    def test_format_17_digits(self):
        assert format_value(1.0 / 3.0) == "3.3333333333333331e-01"
        assert format_value(7) == "7"
        assert format_value(True) == "1"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["t", "v"], [(0.0, 1.5), (1.0, 2.5)])
        data = read_csv(path)
        assert np.array_equal(data["t"], [0.0, 1.0])
        assert np.array_equal(data["v"], [1.5, 2.5])

    def test_width_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "y.csv", ["a"], [(1, 2)])


class TestRunner:
    def test_lattice_constant_run(self, tmp_path):
        cfg = parse_config_text(LATTICE_CFG)
        out = run_experiment(cfg, tmp_path / "run1")
        data = read_csv(out / "series.csv")
        assert list(data) == ENGINE_COLUMNS["lattice"]
        assert np.all(np.diff(data["t"]) > 0)
        assert np.allclose(data["sup_abs"], 1.5, atol=1e-12)
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["config"]["engine"] == "lattice"
        assert "code_version" in meta
        assert meta["batch"]["rows"] == 1
        assert meta["batch"]["steps"] == 100
        assert 0.0 < meta["batch"]["stepping_wall_s"] <= meta["wall_time_s"]

    def test_determinism_byte_identical(self, tmp_path):
        text = LATTICE_CFG.replace("constant", "random_phase") + "data.seed = 12\n"
        cfg = parse_config_text(text)
        a = run_experiment(cfg, tmp_path / "a")
        b = run_experiment(cfg, tmp_path / "b")
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()

    def test_sweep_deterministic_across_workers(self, tmp_path):
        text = (
            LATTICE_CFG.replace("constant", "random_phase")
            + "sweep.seeds = 3,1,2\nsweep.R = 1.0,2.0\n"
        )
        cfg = parse_config_text(text)
        dirs = [sweep_experiment(cfg, tmp_path / f"s{w}", workers=w) for w in (1, 2, 4)]
        d1 = dirs[0]
        cases = sorted(p.name for p in d1.iterdir() if p.is_dir())
        assert len(cases) == 6
        for d in dirs[1:]:
            assert (d1 / "sweep_index.csv").read_bytes() == (d / "sweep_index.csv").read_bytes()
            for case in cases:
                b1 = (d1 / case / "series.csv").read_bytes()
                assert b1 == (d / case / "series.csv").read_bytes()
        # 6 cases stepped as one batch, or in 2 or 4 contiguous chunks
        for d, chunk_rows in zip(dirs, ({6}, {3}, {1, 2})):
            rows = {json.loads((d / c / "metadata.json").read_text())["batch"]["rows"] for c in cases}
            assert rows == chunk_rows

    def test_sweep_case_equals_single_run(self, tmp_path):
        text = (
            LATTICE_CFG.replace("constant", "random_phase")
            + "weight.t0 = 2.0\nsweep.seeds = 5,8\nsweep.x0 = 0,3\n"
        )
        cfg = parse_config_text(text)
        d = sweep_experiment(cfg, tmp_path / "s", workers=1)
        single = run_experiment(
            cfg.with_overrides(**{"data.seed": 8, "weight.x0": 3}), tmp_path / "r"
        )
        swept = (d / "seed=8_x0=3" / "series.csv").read_bytes()
        assert swept == (single / "series.csv").read_bytes()
        meta = json.loads((d / "seed=8_x0=3" / "metadata.json").read_text())
        assert meta["batch"]["rows"] == 4
        assert meta["wall_time_s"] >= meta["batch"]["stepping_wall_s"]

    # the sweep's worker thread does not inherit np.errstate
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lattice_linear_sweep_equals_single_runs(self, tmp_path):
        # a non-lattice sweep runs one case per task
        cfg = parse_config_text(
            "engine = lattice-linear\nrun.t0_values = 25\nensemble.samples = 100\n"
            "sweep.seeds = 4,2,9\n"
        )
        dirs = [sweep_experiment(cfg, tmp_path / f"s{w}", workers=w) for w in (1, 2)]
        for seed in (4, 2, 9):
            single = run_experiment(cfg.with_overrides(**{"ensemble.seed": seed}), tmp_path / f"r{seed}")
            expected = (single / "series.csv").read_bytes()
            for d in dirs:
                assert (d / f"seed={seed}" / "series.csv").read_bytes() == expected

    @pytest.mark.parametrize("workers", [0, -3])
    def test_sweep_rejects_workers_below_one(self, tmp_path, workers):
        from nlsgrowth.harness import cli

        cfg_path = tmp_path / "s.cfg"
        cfg_path.write_text(LATTICE_CFG + "sweep.seeds = 1,2\n")
        with pytest.raises(ValueError, match="workers"):
            sweep_experiment(parse_config_text(cfg_path.read_text()), tmp_path / "s", workers=workers)
        argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "c"), "--workers", str(workers)]
        assert cli.main(argv) == 2

    def test_sweep_overflow_names_the_case(self, tmp_path):
        cfg = parse_config_text(LATTICE_CFG.replace("1.5", "1e200") + "sweep.x0 = 0,2\n")
        with pytest.raises(NumericsError, match="case x0=0"):
            sweep_experiment(cfg, tmp_path / "s", workers=1)

    def test_overflowed_diagnostic_named(self):
        # the abort names the run, the column, t and the row label
        cfg = parse_config_text(
            "engine = lattice\nlattice.extent = 16\ndata.kind = random_phase\n"
            "data.amplitude = 1e200\nrun.t_final = 0\nweight.t0 = 0\n"
        )
        with pytest.raises(NumericsError, match=r"^lattice run recorded global_mass = inf at t=0\.000 \(row 0\)$"):
            execute(cfg)

    def test_lattice_linear_engine(self):
        cfg = parse_config_text(
            "engine = lattice-linear\nrun.t0_values = 25\nensemble.samples = 200\n"
        )
        res = execute(cfg)
        assert res.columns == ENGINE_COLUMNS["lattice-linear"]
        (t0, ratio, pairing, m2), = res.rows
        assert t0 == 25.0
        assert 0.3 <= ratio <= 2.0
        assert pairing
        assert abs(m2 - 1.0) <= 4 / np.sqrt(200)

    def test_continuum_engine_probe_columns(self):
        cfg = parse_config_text(
            "engine = continuum\n"
            "continuum.box_length = 64\ncontinuum.grid_size = 256\ncontinuum.dt = 0.002\n"
            "data.kind = gaussian_comb\ndata.comb_half_extent = 8\ndata.amplitude = 0.5\n"
            "run.t_final = 0.1\nrun.record_dt = 0.05\n"
            "probe.x0_values = -8, 0, 8\nprobe.R = 2.0\n"
        )
        res = execute(cfg)
        assert res.columns == ENGINE_COLUMNS["continuum"] + [
            "local_energy_0", "local_energy_1", "local_energy_2",
        ]
        assert all(len(r) == 7 for r in res.rows)

    def test_newton_engine(self):
        cfg = parse_config_text(
            "engine = newton\n"
            "data.kind = periodic\ndata.amplitudes = 0.05,0.05\ndata.frequencies = 1,-1\n"
            "newton.t_final = 0.2\nnewton.dt = 0.002\n"
        )
        res = execute(cfg)
        assert res.columns == ENGINE_COLUMNS["newton"]
        assert res.summary["converged"]

    @pytest.mark.parametrize("max_iter", [1, 12])
    def test_newton_summary_types(self, tmp_path, max_iter):
        # metadata keeps bools and ints; a run that stops short of tol warns
        cfg = parse_config_text(
            "engine = newton\n"
            "data.kind = periodic\ndata.amplitudes = 0.1\ndata.frequencies = 1\n"
            f"newton.max_iter = {max_iter}\n"
        )
        meta = json.loads((run_experiment(cfg, tmp_path / "n") / "metadata.json").read_text())
        converged = max_iter > 1
        assert meta["summary"]["converged"] is converged
        assert type(meta["summary"]["iterations"]) is int
        assert meta["summary"]["iterations"] == (3 if converged else 1)
        if converged:
            assert meta["warnings"] == []
        else:
            assert len(meta["warnings"]) == 1
            assert "did not converge" in meta["warnings"][0]

    def test_nlw_engine(self):
        cfg = parse_config_text(
            "engine = nlw\n"
            "nlw.box_length = 64\nnlw.grid_size = 256\nnlw.dt = 0.05\n"
            "data.kind = random_band\ndata.k_band = 1.0\ndata.seed = 6\n"
            "run.t_final = 2.0\nrun.record_dt = 0.5\n"
        )
        res = execute(cfg)
        assert res.columns == ENGINE_COLUMNS["nlw"]
        energies = [r[2] for r in res.rows]
        assert max(energies) / min(energies) < 1.001

    def test_wrap_margin_warning(self, tmp_path):
        cfg = parse_config_text(
            "engine = lattice\nlattice.extent = 32\nlattice.dt = 0.01\n"
            "data.kind = delta\nrun.t_final = 10.0\nrun.record_dt = 5.0\n"
        )
        res = execute(cfg)
        assert any("wrap-margin" in w for w in res.warnings)

    def test_wrap_margin_warning_for_spread_data(self, tmp_path):
        # random phases fill the ring; the origin's light cone still wraps
        cfg = parse_config_text(
            "engine = lattice\nlattice.extent = 16\ndata.kind = random_phase\n"
            "data.seed = 3\nrun.t_final = 50.0\nrun.record_dt = 5.0\n"
        )
        out = run_experiment(cfg, tmp_path / "r")
        meta = json.loads((out / "metadata.json").read_text())
        assert any("wrap-margin" in w for w in meta["warnings"])

    def test_no_wrap_margin_warning_within_kernel_reach(self):
        # c14: extent 128 >= default_half_width(2) = 96
        res = execute(parse_config_text(_DETERMINISM_CONFIG))
        assert res.warnings == []

    @pytest.mark.parametrize("data", [
        "data.kind = constant\ndata.amplitude = 1.5\n",
        "data.kind = periodic\ndata.amplitudes = 0.5,0.5\ndata.frequencies = 0.9,2.3\n",
    ])
    def test_no_wrap_margin_warning_for_ring_exact_data(self, data):
        # periodic with the ring's period: the ring evolves exactly what Z would
        # (extent 64 < default_half_width(1) = 90)
        cfg = parse_config_text(LATTICE_CFG.replace("data.kind = constant\ndata.amplitude = 1.5\n", data))
        assert cfg.params["data.kind"] in data
        assert execute(cfg).warnings == []

    def test_wrap_margin_warning_in_gronwall_geometry(self):
        # c04's ring: extent 192, T = 50, random phases; the light cone wraps
        cfg = parse_config_text(
            "engine = lattice\nlattice.extent = 192\ndata.kind = random_phase\n"
            "data.seed = 0\nrun.t_final = 50.0\nrun.record_dt = 50.0\n"
        )
        (warning,) = execute(cfg).warnings
        assert "wrap-margin" in warning and "extent 192 <" in warning


class TestSvg:
    def test_writes_svg_and_dat(self, tmp_path):
        x = np.linspace(1.0, 100.0, 50)
        path = write_line_plot(
            tmp_path / "p.svg", x, {"a": x ** 0.5, "b": x ** 0.25},
            title="growth", xlabel="t", ylabel="sup", loglog=True,
        )
        text = path.read_text()
        assert "<svg" in text and "polyline" in text and "growth" in text
        dat = (tmp_path / "p.dat").read_text()
        assert dat.startswith("# x a b")

    def test_svg_via_runner(self, tmp_path):
        cfg = parse_config_text(LATTICE_CFG + "output.svg = true\n")
        out = run_experiment(cfg, tmp_path / "r")
        assert (out / "plot.svg").exists()
        assert (out / "plot.dat").exists()


class TestCli:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "nlsgrowth", *args],
            capture_output=True, text=True,
        )

    def test_run_and_fit(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(
            LATTICE_CFG.replace("run.t_final = 1.0", "run.t_final = 20.0")
        )
        out = tmp_path / "out"
        proc = self.run_cli("run", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        proc = self.run_cli(
            "fit", "--csv", str(out / "series.csv"), "--column", "sup_abs",
            "--t-lo", "2", "--t-hi", "20",
        )
        assert proc.returncode == 0, proc.stderr
        assert "slope=" in proc.stdout

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("engine = nonsense\n")
        proc = self.run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "engine" in proc.stderr

    def test_newton_blowup_exit_3(self, tmp_path):
        # the linearized solve outgrows its bound: a numerical abort, one line
        cfg_path = tmp_path / "n.cfg"
        cfg_path.write_text(
            "engine = newton\ndata.kind = constant\ndata.amplitude = 5.0\n"
            "newton.t_final = 40.0\nnewton.dt = 0.01\nnewton.grid_size = 16\n"
        )
        proc = self.run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numerical abort:")
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("text", [
        "engine = nlw\nnlw.dt = 0\n",
        "engine = lattice\nrun.record_dt = 0\n",
        # horizons that are not a whole number of steps
        "engine = nlw\nrun.t_final = 1\nnlw.dt = 0.15\n",
        "engine = continuum\nrun.t_final = 0.0025\ncontinuum.dt = 0.001\n",
        "engine = newton\nnewton.t_final = 0.01\nnewton.dt = 0.3\n",
    ])
    def test_time_grid_key_exit_2(self, tmp_path, text):
        cfg_path = tmp_path / "t.cfg"
        cfg_path.write_text(text)
        proc = self.run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        # a key out of range fails in the config parser; a horizon that is
        # not a whole number of steps fails in the engine's time grid
        if "t_final" in text:
            assert proc.stderr.startswith("error: ")
            assert "not a whole number of steps" in proc.stderr
        else:
            assert proc.stderr.startswith("config error:")
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_fit_without_t_column_exit_2(self, tmp_path):
        # a newton series.csv has the abscissa n, not t
        csv_path = write_csv(tmp_path / "series.csv", ["n", "eps_n"], [(1, 0.5), (2, 0.1)])
        proc = self.run_cli(
            "fit", "--csv", str(csv_path), "--column", "eps_n", "--t-lo", "1", "--t-hi", "2"
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: column 't'")
        assert "eps_n" in proc.stderr

    def test_newton_radius_too_large_exit_2(self, tmp_path):
        cfg_path = tmp_path / "n.cfg"
        cfg_path.write_text("engine = newton\nnewton.r1 = 100\n")
        proc = self.run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        assert "radius" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_weight_shorter_than_run_exit_2(self, tmp_path):
        # local diagnostics past weight.t0 would use an undefined weight
        cfg_path = tmp_path / "w.cfg"
        cfg_path.write_text(
            "engine = lattice\nlattice.extent = 16\ndata.kind = random_phase\n"
            "data.seed = 3\nrun.t_final = 2\nrun.record_dt = 0.5\nweight.t0 = 1\n"
        )
        proc = self.run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        assert "t0" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_last_step_past_weight_t0_exit_2(self, tmp_path):
        # 56 steps of 0.01 end at t = 0.56, past weight.t0 = 0.555
        cfg_path = tmp_path / "w.cfg"
        cfg_path.write_text(
            "engine = lattice\nlattice.extent = 16\ndata.kind = random_phase\n"
            "data.seed = 3\nrun.t_final = 0.555\nrun.record_dt = 0.1\nweight.t0 = 0.555\n"
        )
        proc = self.run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        assert "last step" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_export_kernel(self, tmp_path):
        out = tmp_path / "k.csv"
        proc = self.run_cli("export-kernel", "--t", "5.0", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        data = read_csv(out)
        assert list(data) == ["n", "re", "im"]
        total = np.sum(data["re"] ** 2 + data["im"] ** 2)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_seed_override(self, tmp_path):
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(LATTICE_CFG.replace("constant", "random_phase"))
        a = tmp_path / "a"
        b = tmp_path / "b"
        p1 = self.run_cli("run", "--config", str(cfg_path), "--out", str(a), "--seed", "4")
        p2 = self.run_cli("run", "--config", str(cfg_path), "--out", str(b), "--seed", "5")
        assert p1.returncode == 0 and p2.returncode == 0
        assert (a / "series.csv").read_bytes() != (b / "series.csv").read_bytes()

    def test_sweep_verb(self, tmp_path):
        cfg_path = tmp_path / "s.cfg"
        cfg_path.write_text(
            LATTICE_CFG.replace("constant", "random_phase") + "sweep.seeds = 1,2\n"
        )
        out = tmp_path / "sweep"
        proc = self.run_cli(
            "sweep", "--config", str(cfg_path), "--out", str(out), "--workers", "2"
        )
        assert proc.returncode == 0, proc.stderr
        assert (out / "sweep_index.csv").exists()
        assert (out / "seed=1" / "series.csv").exists()

    @pytest.mark.parametrize("text", [
        "engine = nlw\nnlw.grid_size = 64\nnlw.box_length = 32\n"
        "data.kind = random_band\ndata.amplitude = 1e100\nrun.t_final = 0\n",
        "engine = continuum\ncontinuum.grid_size = 64\ncontinuum.box_length = 32\n"
        "data.kind = random_band\ndata.amplitude = 1e100\nrun.t_final = 0\n",
        "engine = lattice\nlattice.extent = 16\ndata.kind = random_phase\n"
        "data.amplitude = 1e200\nrun.t_final = 0\nweight.t0 = 0\n",
    ], ids=["nlw", "continuum", "lattice"])
    def test_sweep_overflow_names_case_and_leaves_no_directory(self, tmp_path, text):
        # every engine's aborted sweep names the case, as single runs leave
        # no run directory
        cfg_path = tmp_path / "s.cfg"
        cfg_path.write_text(text + "sweep.seeds = 1, 2\n")
        proc = self.run_cli("sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numerical abort:")
        assert proc.stderr.strip().endswith("(case seed=1)"), proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
        assert not (tmp_path / "out").exists()

    def test_accept_exit_codes_inprocess(self, monkeypatch):
        # stub the criteria list so the accept verb is cheap to exercise
        from nlsgrowth.harness import acceptance, cli

        def good(level):
            return [("one", 1.0, "<=", 1.0, ".1f")]

        def bad(level):
            return [("zero", 0.0, ">=", 1.0, ".1f")]

        monkeypatch.setattr(acceptance, "CRITERIA", [("stub_ok", good, "", None)])
        assert cli.main(["accept", "--level", "quick"]) == 0
        monkeypatch.setattr(acceptance, "CRITERIA", [("stub_ok", good, "", None), ("stub_bad", bad, "", None)])
        assert cli.main(["accept", "--level", "quick"]) == 4

    def test_accept_crash_names_exception(self, monkeypatch, capsys):
        from nlsgrowth.harness import acceptance, cli

        def crash(level):
            return [("ratio", 1.0 / 0, "<=", 1.0, ".1f")]

        monkeypatch.setattr(acceptance, "CRITERIA", [("stub_crash", crash, "", None)])
        assert cli.main(["accept", "--level", "quick"]) == 4
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("FAIL stub_crash: ZeroDivisionError: ")

    @pytest.mark.parametrize("text", [
        "engine = lattice\nlattice.extent = 16\ndata.kind = random_phase\n"
        "data.amplitude = 1e200\nrun.t_final = 1\n",
        "engine = continuum\ncontinuum.grid_size = 64\ncontinuum.box_length = 32\n"
        "data.kind = random_band\ndata.amplitude = 1e200\nrun.t_final = 0.01\n",
        "engine = nlw\nnlw.grid_size = 64\nnlw.box_length = 32\n"
        "data.kind = random_band\ndata.amplitude = 1e200\nrun.t_final = 0.125\n",
        # finite states whose recorded diagnostics overflow
        "engine = lattice\nlattice.extent = 16\ndata.kind = random_phase\n"
        "data.amplitude = 1e200\nrun.t_final = 0\nweight.t0 = 0\n",
        "engine = lattice\ndata.amplitude = 1e100\nrun.t_final = 0.1\n",
        "engine = continuum\ncontinuum.grid_size = 64\ncontinuum.box_length = 32\n"
        "data.kind = random_band\ndata.amplitude = 1e100\nrun.t_final = 0\n",
        "engine = nlw\nnlw.grid_size = 64\nnlw.box_length = 32\n"
        "data.kind = random_band\ndata.amplitude = 1e100\nrun.t_final = 0\n",
    ], ids=["lattice", "continuum", "nlw",
            "lattice_mass_t0", "lattice_energy", "continuum_energy", "nlw_energy"])
    def test_overflow_one_stderr_line(self, tmp_path, text):
        # an overflow is the numerical abort line alone, no numpy warnings,
        # and no run directory with inf or nan in it
        cfg_path = tmp_path / "o.cfg"
        cfg_path.write_text(text)
        proc = self.run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("numerical abort:")
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
        assert not (tmp_path / "o").exists()
