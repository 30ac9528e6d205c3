import contextlib
import dataclasses
import hashlib
import inspect
import io
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlsgrowth.continuum import ContinuumModel
from nlsgrowth.errors import NumericsError
from nlsgrowth.fields import WeightProfile
from nlsgrowth.harness import cli
from nlsgrowth.harness.config import (
    DATA_KINDS,
    ENGINE_SCHEMAS,
    MOLLIFIER_KINDS,
    _SWEEP_TARGETS,
    ConfigError,
    parse_config_text,
)
from nlsgrowth.harness.csvio import read_csv, write_csv
from nlsgrowth.harness.acceptance import _DETERMINISM_CONFIG
from nlsgrowth.harness.fitting import fit_growth
from nlsgrowth.harness.runner import _run_lattice_rows, execute, run_experiment, sweep_experiment
from nlsgrowth.harness.svgplot import write_line_plot
from nlsgrowth.lattice import LatticeModel, LatticeRunRecord
from nlsgrowth.lattice_linear import default_half_width
from nlsgrowth.newton import newton_iterate

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

# a continuum sweep whose second case fails only while it runs: the probe
# window of R = 20 reaches past the box edge
PROBE_SWEEP_CFG = (
    "engine = continuum\ncontinuum.grid_size = 64\ncontinuum.box_length = 32\n"
    "run.t_final = 0\nprobe.x0_values = 0\nsweep.R = 1.5, 20\n"
)


# one non-finite value per config, each caught by the parser; unchecked they
# ran into an overflow traceback (exit 1), a run of zero steps (exit 0) or a
# numerical abort (exit 3)
NON_FINITE_CFGS = [
    ("engine = lattice\nlattice.extent = 16\nrun.t_final = inf\n", "run.t_final"),
    ("engine = lattice\nlattice.extent = 16\nrun.record_dt = inf\n", "run.record_dt"),
    ("engine = lattice\nlattice.extent = 16\nlattice.p = nan\n", "lattice.p"),
    ("engine = lattice\nlattice.extent = 16\nlattice.coupling = nan\n", "lattice.coupling"),
    ("engine = continuum\ncontinuum.grid_size = 64\ncontinuum.box_length = 32\n"
     "continuum.dt = inf\n", "continuum.dt"),
    ("engine = continuum\ncontinuum.grid_size = 64\ncontinuum.box_length = 32\n"
     "continuum.coupling = nan\n", "continuum.coupling"),
    ("engine = continuum\ncontinuum.grid_size = 64\ncontinuum.box_length = inf\n",
     "continuum.box_length"),
    ("engine = nlw\nnlw.grid_size = 64\nnlw.box_length = inf\n", "nlw.box_length"),
    ("engine = lattice\ndata.kind = periodic\ndata.amplitudes = 1, nanj\n"
     "data.frequencies = 1, 2\n", "data.amplitudes"),
]


# the constructors the runner calls with a config section's entries as
# keywords: engine, section, constructor, the section keys that make the grid
# instead, and the parameters that no section key sets
SECTION_CONSTRUCTORS = [
    ("lattice", "lattice", LatticeModel, ("extent",), ()),
    ("lattice", "weight", WeightProfile, (), ()),
    ("continuum", "continuum", ContinuumModel, (), ("mollifier",)),
    ("newton", "newton", newton_iterate, ("box_length", "grid_size"), ("psi0",)),
]


# config defaults that restate a constructor default (config.py imports no
# engine, so each value is stated twice): engine, key, constructor, parameter
RESTATED_DEFAULTS = [
    ("lattice", "lattice.sign", LatticeModel, "sign"),
    ("lattice", "lattice.p", LatticeModel, "p"),
    ("lattice", "lattice.coupling", LatticeModel, "coupling"),
    ("continuum", "continuum.sign", ContinuumModel, "sign"),
    ("continuum", "continuum.coupling", ContinuumModel, "coupling"),
    ("continuum", "continuum.dealias", ContinuumModel, "dealias"),
    ("newton", "newton.r1", newton_iterate, "r1"),
]


# a small run of each engine: the base of the numeric-key probe below
PROBE_BASES = {
    "lattice": {"lattice.extent": 16, "run.t_final": 0.1},
    "lattice-linear": {"run.t0_values": 25},
    "continuum": {"continuum.grid_size": 64, "continuum.box_length": 32, "run.t_final": 0.1},
    "nlw": {"nlw.grid_size": 64, "nlw.box_length": 32, "run.t_final": 0.125},
    "newton": {"newton.grid_size": 16, "newton.t_final": 0.01, "newton.dt": 0.001},
}

# every int or float key of every engine, at 0 and at -1
NUMERIC_PROBES = [
    (engine, key, value)
    for engine, schema in ENGINE_SCHEMAS.items()
    for key, (parser, _default) in schema.items() if parser in (int, float)
    for value in (0, -1)
]


@pytest.mark.parametrize(
    "engine, key, value", NUMERIC_PROBES, ids=[f"{e}-{k}={v}" for e, k, v in NUMERIC_PROBES]
)
def test_numeric_key_at_zero_and_minus_one_ends_documented(engine, key, value):
    # a run returns, or fails as invalid input (ConfigError is a ValueError;
    # exit 2) or as a numerical abort (exit 3); a ZeroDivisionError, or a
    # numpy warning (an error in tier-1), would end the CLI with exit 1
    entries = {**PROBE_BASES[engine], key: value}
    text = f"engine = {engine}\n" + "".join(f"{k} = {v}\n" for k, v in entries.items())
    try:
        execute(parse_config_text(text))
    except (ValueError, NumericsError):
        pass


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

    @pytest.mark.parametrize("text, key, table", [
        ("engine = warp-drive\n", "engine", ENGINE_SCHEMAS),
        ("engine = lattice\ndata.kind = constnat\n", "data.kind", DATA_KINDS),
        ("engine = continuum\nmollifier.kind = gauss\n", "mollifier.kind", MOLLIFIER_KINDS),
    ], ids=["engine", "data.kind", "mollifier.kind"])
    def test_invalid_choice_names_field_and_choices(self, tmp_path, capsys, text, key, table):
        # the parser names the field and its choices, so no run or sweep starts
        text += "sweep.seeds = 1, 2\n"
        with pytest.raises(ConfigError, match=key) as info:
            parse_config_text(text)
        assert f"(choose from {', '.join(table)})" in str(info.value)
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(text)
        for verb in ("run", "sweep"):
            assert cli.main([verb, "--config", str(cfg_path), "--out", str(tmp_path / verb)]) == 2
            assert not (tmp_path / verb).exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("config error:") for line in err)

    def test_line_without_equals_sign(self):
        with pytest.raises(ConfigError, match="^line 2: expected 'key = value', got 'lattice.extent'$"):
            parse_config_text("engine = lattice\nlattice.extent\n")

    @pytest.mark.parametrize("value, parsed", [("off", False), ("yes", True), ("maybe", None)])
    def test_boolean_words(self, value, parsed):
        text = f"engine = lattice\noutput.svg = {value}\n"
        if parsed is None:
            with pytest.raises(ConfigError, match=r"^bad value for 'output.svg': 'maybe' \(not a boolean"):
                parse_config_text(text)
        else:
            assert parse_config_text(text).params["output.svg"] is parsed

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
        ("engine = lattice-linear\nrun.t0_values = 25, 10\n", "run.t0_values"),
    ])
    def test_time_grid_bounds(self, text, key):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(text)

    def test_ensemble_samples_bound(self, tmp_path, capsys):
        # random_ensemble_second_moment needs 100 samples; the parser says so
        # before run or sweep makes a directory
        text = "engine = lattice-linear\nrun.t0_values = 25\nensemble.samples = 50\nsweep.seeds = 1, 2\n"
        cfg_path = tmp_path / "e.cfg"
        cfg_path.write_text(text)
        for verb in ("run", "sweep"):
            assert cli.main([verb, "--config", str(cfg_path), "--out", str(tmp_path / verb)]) == 2
            assert not (tmp_path / verb).exists()
        message = "config error: ensemble.samples must be >= 100, got 50\n"
        assert capsys.readouterr().err == 2 * message

    @pytest.mark.parametrize("verb, text, message", [
        ("run", LATTICE_CFG.replace("constant", "random_phase") + "data.seed = -1\n",
         "data.seed must be >= 0, got -1"),
        ("run", "engine = lattice-linear\nrun.t0_values = 25\nensemble.seed = -1\n",
         "ensemble.seed must be >= 0, got -1"),
        ("run", LATTICE_CFG.replace("constant", "gaussian_comb") + "data.comb_half_extent = -1\n",
         "data.comb_half_extent must be >= 0, got -1"),
        ("sweep", LATTICE_CFG.replace("constant", "random_phase") + "sweep.seeds = 1, -2\n",
         "data.seed must be >= 0, got -2"),
    ], ids=["data.seed", "ensemble.seed", "data.comb_half_extent", "sweep.seeds"])
    def test_seed_and_comb_extent_bounds(self, tmp_path, capsys, verb, text, message):
        # numpy takes a seed or the comb's size only >= 0 and said so naming
        # no key; the parser names the key before a run or any sweep case
        cfg_path = tmp_path / "n.cfg"
        cfg_path.write_text(text)
        assert cli.main([verb, "--config", str(cfg_path), "--out", str(tmp_path / verb)]) == 2
        assert not (tmp_path / verb).exists()
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_seed_flag_sets_the_engine_seed_key(self, tmp_path):
        # --seed sets the key that sweep.seeds sets: ensemble.seed for lattice-linear
        text = "engine = lattice-linear\nrun.t0_values = 25\nensemble.samples = 100\n"
        flag, key = tmp_path / "flag.cfg", tmp_path / "key.cfg"
        flag.write_text(text)
        key.write_text(text + "ensemble.seed = 4\n")
        assert cli.main(["run", "--config", str(flag), "--out", str(tmp_path / "a"), "--seed", "4"]) == 0
        assert cli.main(["run", "--config", str(key), "--out", str(tmp_path / "b")]) == 0
        meta = json.loads((tmp_path / "a" / "metadata.json").read_text())
        assert meta["config"]["ensemble.seed"] == "4"
        assert (tmp_path / "a" / "series.csv").read_bytes() == (tmp_path / "b" / "series.csv").read_bytes()

    @pytest.mark.parametrize("engine", ENGINE_SCHEMAS)
    def test_one_target_per_sweep_key(self, engine):
        # a sweep list sets the one of its targets that the engine's schema
        # holds, and --seed sets the one seed key that every schema holds
        schema = ENGINE_SCHEMAS[engine]
        for sweep_key, targets in _SWEEP_TARGETS.items():
            if sweep_key in schema or sweep_key == "sweep.seeds":
                assert len([key for key in targets if key in schema]) == 1, sweep_key

    def test_negative_seed_flag_names_ensemble_seed(self, tmp_path, capsys):
        cfg_path = tmp_path / "l.cfg"
        cfg_path.write_text("engine = lattice-linear\nrun.t0_values = 25\n")
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o"), "--seed", "-1"]) == 2
        assert not (tmp_path / "o").exists()
        assert capsys.readouterr().err == "config error: ensemble.seed must be >= 0, got -1\n"

    def test_nlw_power_bound(self, tmp_path, capsys):
        # u^(2p+1) needs p >= 1: at p = -1 the energy divides by 2p + 2 = 0
        cfg_path = tmp_path / "p.cfg"
        cfg_path.write_text("engine = nlw\nnlw.grid_size = 64\nnlw.box_length = 32\nnlw.p = -1\n")
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()
        assert capsys.readouterr().err == "config error: nlw.p must be >= 1, got -1\n"

    @pytest.mark.parametrize(
        "engine, section, make, grid, unset", SECTION_CONSTRUCTORS, ids=[s for _, s, *_ in SECTION_CONSTRUCTORS]
    )
    def test_section_keys_are_constructor_arguments(self, engine, section, make, grid, unset):
        # the runner passes a section's entries by keyword, less the keys that
        # make the grid; a renamed key or field fails here, not in a run
        prefix = section + "."
        keys = {key[len(prefix):] for key in ENGINE_SCHEMAS[engine] if key.startswith(prefix)}
        if dataclasses.is_dataclass(make):
            names = {f.name for f in dataclasses.fields(make)}
        else:
            names = set(inspect.signature(make).parameters)
        assert keys - set(grid) == names - set(unset)

    @pytest.mark.parametrize(
        "engine, key, make, name", RESTATED_DEFAULTS, ids=[key for _, key, *_ in RESTATED_DEFAULTS]
    )
    def test_config_default_is_the_constructor_default(self, engine, key, make, name):
        default = inspect.signature(make).parameters[name].default
        config_default = ENGINE_SCHEMAS[engine][key][1]
        assert (config_default, type(config_default)) == (default, type(default))

    @pytest.mark.parametrize("engine, key", [("lattice", "weight.R"), ("continuum", "probe.R")])
    def test_scale_bound(self, engine, key):
        # WeightProfile and LocalEnergyProbe need R >= 1; the parser says so
        # first, naming the key, in the text and in an override alike
        with pytest.raises(ConfigError, match=f"^{key} must be >= 1, got 0.5$"):
            parse_config_text(f"engine = {engine}\n{key} = 0.5\n")
        with pytest.raises(ConfigError, match=f"^{key} must be >= 1, got 0.5$"):
            parse_config_text(f"engine = {engine}\n").with_overrides(**{key: 0.5})

    @pytest.mark.parametrize("key, value", [
        ("data.kind", "bogus"),
        ("data.seed", "x"),
        ("run.record_dt", 0.0),
        ("lattice.extent", 64.5),
    ])
    def test_override_parsed_like_text(self, key, value):
        # an override is parsed as str(value), like the same value in the file
        cfg = parse_config_text(LATTICE_CFG + "sweep.seeds = 3\nsweep.R = 1.5, 1.3000000000000003\n")
        with pytest.raises(ConfigError, match=key):
            cfg.with_overrides(**{key: value})
        # the int and float values a sweep sets come back equal
        for sweep_key, target in (("sweep.seeds", "data.seed"), ("sweep.R", "weight.R")):
            for v in cfg.params[sweep_key]:
                got = cfg.with_overrides(**{target: v}).params[target]
                assert got == v and type(got) is type(v)


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

    @pytest.mark.parametrize("window", [(5.0, 5.0), (10.0, 1.0)])
    def test_rejects_empty_window(self, window):
        t = np.linspace(1.0, 10.0, 12)
        with pytest.raises(ValueError, match="t_lo < t_hi"):
            fit_growth(t, t, window)

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
    def test_format_17_digits(self, tmp_path):
        path = write_csv(tmp_path / "f.csv", ["x", "n", "ok"], [(1.0 / 3.0, 7, True)])
        assert path.read_text() == "x,n,ok\n3.3333333333333331e-01,7,1\n"

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
        assert list(data) == list(LatticeRunRecord._fields)
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
        cfg_path = tmp_path / "s.cfg"
        cfg_path.write_text(LATTICE_CFG + "sweep.seeds = 1,2\n")
        with pytest.raises(ValueError, match="workers"):
            sweep_experiment(parse_config_text(cfg_path.read_text()), tmp_path / "s", workers=workers)
        argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "c"), "--workers", str(workers)]
        assert cli.main(argv) == 2

    @pytest.mark.parametrize("entry", ["sweep.seeds = 1, 1, 2", "sweep.R = 1, 1.0"])
    def test_sweep_rejects_repeated_value(self, tmp_path, entry):
        # two equal cases would write one directory and list it twice
        cfg = parse_config_text(LATTICE_CFG + entry + "\n")
        with pytest.raises(ConfigError, match=entry.split(" =")[0] + " repeats a value"):
            sweep_experiment(cfg, tmp_path / "s", workers=1)
        assert not (tmp_path / "s").exists()

    def test_repeated_value_outside_sweep_lists_allowed(self, tmp_path):
        text = LATTICE_CFG.replace("constant", "periodic") + (
            "data.amplitudes = 0.5, 0.5\ndata.frequencies = 1, 1\nsweep.seeds = 1, 2\n"
        )
        out = sweep_experiment(parse_config_text(text), tmp_path / "s", workers=1)
        assert sorted(p.name for p in out.iterdir() if p.is_dir()) == ["seed=1", "seed=2"]

    def test_sweep_probe_outside_box_names_the_case(self, tmp_path):
        cfg = parse_config_text(PROBE_SWEEP_CFG)
        with pytest.raises(ValueError, match=r"too close to the box edge .*\(case R=20\.0\)$"):
            sweep_experiment(cfg, tmp_path / "s", workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_sweep_removes_the_directories_it_made(self, tmp_path, workers):
        # case R=1.5 writes its directory; R=20.0 fails its probe check later
        with pytest.raises(ValueError, match=r"\(case R=20\.0\)$"):
            sweep_experiment(parse_config_text(PROBE_SWEEP_CFG), tmp_path / "a" / "s", workers=workers)
        assert not (tmp_path / "a").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_sweep_keeps_what_it_did_not_make(self, tmp_path, workers):
        out = tmp_path / "s"
        (out / "R=1.5").mkdir(parents=True)
        (out / "R=1.5" / "notes.txt").write_text("kept")
        (out / "other.txt").write_text("kept")
        with pytest.raises(ValueError, match=r"\(case R=20\.0\)$"):
            sweep_experiment(parse_config_text(PROBE_SWEEP_CFG), out, workers=workers)
        assert sorted(p.name for p in out.iterdir()) == ["R=1.5", "other.txt"]
        assert (out / "R=1.5" / "notes.txt").read_text() == "kept"

    @pytest.mark.parametrize("workers, label", [(1, "cases seed=1, seed=2"), (2, "case seed=1")])
    def test_lattice_chunk_value_error_names_its_cases(self, tmp_path, workers, label):
        cfg = parse_config_text(LATTICE_CFG + "weight.t0 = 0.5\nsweep.seeds = 1, 2\n")
        with pytest.raises(ValueError, match=rf"defined only up to t0 \({label}\)$"):
            sweep_experiment(cfg, tmp_path / "s", workers=workers)
        assert not (tmp_path / "s").exists()

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
        assert res.columns == ["t0", "adversarial_ratio", "pairing_ok", "ensemble_m2"]
        (t0, ratio, pairing, m2), = res.rows
        assert t0 == 25.0
        assert 0.3 <= ratio <= 2.0
        assert pairing
        assert abs(m2 - 1.0) <= 4 / np.sqrt(200)

    def test_lattice_linear_engine_rows_pinned(self):
        # sha256 of the rows as float64 (pairing_ok as 1.0), computed when a
        # dataclass held the kernels (numpy 2.4.6, scipy 1.17.1)
        cfg = parse_config_text(
            "engine = lattice-linear\nrun.t0_values = 25,100,400\nensemble.samples = 300\n"
        )
        rows = np.array(execute(cfg).rows, dtype=float)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == (
            "ffef804d84e17228503ea5ea0b5e8f608a3afeae4fb84829471c27bd33eb2e30"
        )

    def test_continuum_engine_probe_columns(self):
        cfg = parse_config_text(
            "engine = continuum\n"
            "continuum.box_length = 64\ncontinuum.grid_size = 256\ncontinuum.dt = 0.002\n"
            "data.kind = gaussian_comb\ndata.comb_half_extent = 8\ndata.amplitude = 0.5\n"
            "run.t_final = 0.1\nrun.record_dt = 0.05\n"
            "probe.x0_values = -8, 0, 8\nprobe.R = 2.0\n"
        )
        res = execute(cfg)
        assert res.columns == [
            "t", "sup_abs", "mass", "energy", "local_energy_0", "local_energy_1", "local_energy_2",
        ]
        assert all(len(r) == 7 for r in res.rows)

    def test_newton_engine(self):
        cfg = parse_config_text(
            "engine = newton\n"
            "data.kind = periodic\ndata.amplitudes = 0.05,0.05\ndata.frequencies = 1,-1\n"
            "newton.t_final = 0.2\nnewton.dt = 0.002\n"
        )
        res = execute(cfg)
        assert res.columns == ["n", "eps_n", "sup_residual", "ratio"]
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

    def test_newton_ratio_underflow_runs_to_max_iter(self, tmp_path, capsys):
        # row 7's eps is 2.0e-187, whose square underflows to 0: its ratio is
        # NaN, as on the last row, and the run stops at newton.max_iter
        cfg_path = tmp_path / "n.cfg"
        cfg_path.write_text(
            "engine = newton\nnewton.grid_size = 16\nnewton.t_final = 0.01\n"
            "newton.dt = 0.001\nnewton.tol = -1\n"
        )
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["summary"]["converged"] is False
        assert meta["summary"]["iterations"] == 12
        # the default constant data, amplitude 1, have majorant 1 > 0.5
        scaled, stopped = meta["warnings"]
        assert scaled.startswith("newton iterated the data scaled by 0.5:")
        assert "did not converge" in stopped
        series = read_csv(out / "series.csv")
        assert series["eps_n"][6] ** 2 == 0.0 < series["eps_n"][6]
        assert np.isnan(series["ratio"][6]) and np.isnan(series["ratio"][-1])

    @pytest.mark.parametrize("data, warnings", [
        ("data.kind = constant\ndata.amplitude = 1e200\n",
         ["newton iterated the data scaled by 5e-201: its majorant at newton.r1 exceeds 0.5"]),
        # c13's data, 0.1 cos x, whose majorant 0.1 e at r1 = 1 is below 0.5
        ("data.kind = periodic\ndata.amplitudes = 0.05, 0.05\ndata.frequencies = 1, -1\n", []),
    ], ids=["rescaled", "c13"])
    def test_newton_rescale_warning(self, tmp_path, data, warnings):
        # a run whose series describe scaled data says so
        cfg = parse_config_text(f"engine = newton\nnewton.t_final = 0.01\n{data}")
        meta = json.loads((run_experiment(cfg, tmp_path / "n") / "metadata.json").read_text())
        assert (meta["summary"]["amplitude_scale"] < 1) == bool(warnings)
        assert meta["warnings"] == warnings

    def test_nlw_engine(self):
        cfg = parse_config_text(
            "engine = nlw\n"
            "nlw.box_length = 64\nnlw.grid_size = 256\nnlw.dt = 0.05\n"
            "data.kind = random_band\ndata.k_band = 1.0\ndata.seed = 6\n"
            "run.t_final = 2.0\nrun.record_dt = 0.5\n"
        )
        res = execute(cfg)
        assert res.columns == ["t", "sup_abs", "energy"]
        energies = [r[2] for r in res.rows]
        assert max(energies) / min(energies) < 1.001

    @pytest.mark.parametrize("data, dropped", [
        ("data.kind = random_band\ndata.k_band = 1.0\n", True),
        ("data.kind = constant\n", False),
    ], ids=["random_band", "constant"])
    def test_nlw_engine_names_a_dropped_imaginary_part(self, tmp_path, data, dropped):
        # the wave equation evolves the real part of complex data, and says so
        cfg = parse_config_text(
            "engine = nlw\nnlw.box_length = 32\nnlw.grid_size = 64\nrun.t_final = 0\n" + data
        )
        out = run_experiment(cfg, tmp_path / "r")
        warnings = json.loads((out / "metadata.json").read_text())["warnings"]
        assert len(warnings) == dropped
        assert all(w.startswith("nlw evolves the real part of the data: dropped |Im| up to") for w in warnings)

    def test_sweep_without_lists_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="no sweep.* lists are set"):
            sweep_experiment(parse_config_text(LATTICE_CFG), tmp_path / "s", workers=1)
        assert not (tmp_path / "s").exists()

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

    def test_lattice_batch_needs_one_extent(self):
        # lattice.extent makes the ring of each row, so two rings are no batch
        cases = [
            parse_config_text(LATTICE_CFG.replace("lattice.extent = 64", f"lattice.extent = {n}")).params
            for n in (64, 65)
        ]
        with pytest.raises(ValueError, match="needs one model, lattice.extent, run.t_final"):
            _run_lattice_rows(cases)

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

    def test_linear_axes(self, tmp_path):
        # x in [0, 10] takes ticks 0, 2, ..., 10; y in [0, 5e4], padded by 5%,
        # takes 0, 2e+04 and 4e+04
        x = np.linspace(0.0, 10.0, 11)
        text = write_line_plot(
            tmp_path / "p.svg", x, {"a": 5e3 * x}, title="lin", xlabel="n", ylabel="a"
        ).read_text()
        labels = re.findall(r">([^<>]*)</text>", text)
        assert labels == ["lin", "0", "2", "4", "6", "8", "10", "0", "2e+04", "4e+04", "n", "a", "a"]

    def test_svg_via_runner(self, tmp_path):
        cfg = parse_config_text(LATTICE_CFG + "output.svg = true\n")
        out = run_experiment(cfg, tmp_path / "r")
        assert (out / "plot.svg").exists()
        assert (out / "plot.dat").exists()


class TestCli:
    def run_cli(self, *args):
        """``cli.main(args)`` in this process, returned as a finished subprocess:
        its exit code, stdout and stderr."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(args))
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        return subprocess.CompletedProcess(args, code, out.getvalue(), err.getvalue())

    def test_run_and_fit(self, tmp_path):
        # the one run through the ``python -m nlsgrowth`` entry point
        def run_module(*args):
            return subprocess.run([sys.executable, "-m", "nlsgrowth", *args], capture_output=True, text=True)

        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(
            LATTICE_CFG.replace("run.t_final = 1.0", "run.t_final = 20.0")
        )
        out = tmp_path / "out"
        proc = run_module("run", "--config", str(cfg_path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        proc = run_module(
            "fit", "--csv", str(out / "series.csv"), "--column", "sup_abs",
            "--t-lo", "2", "--t-hi", "20",
        )
        assert proc.returncode == 0, proc.stderr
        assert "slope=" in proc.stdout

    @staticmethod
    def _modules_after_main(argv):
        """``main(argv)``'s exit code in a fresh process, and whether that
        process then holds the FFT seam and ``scipy.fft``."""
        probe = (
            "import sys; from nlsgrowth.harness.cli import main; "
            f"code = main({argv!r}); print(code, 'nlsgrowth._fft' in sys.modules, 'scipy.fft' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.stdout, proc.stderr
        return proc.stdout.splitlines()[-1]

    def test_fit_and_config_error_leave_fft_unloaded(self, tmp_path):
        # neither needs an engine, so neither loads the FFT seam
        rows = [(float(t), t ** 0.5) for t in range(1, 21)]
        csv_path = write_csv(tmp_path / "series.csv", ["t", "sup_abs"], rows)
        bad = tmp_path / "bad.cfg"
        bad.write_text("engine = lattice\nlattice.extent = soup\n")
        for argv, code in (
            (["fit", "--csv", str(csv_path), "--t-lo", "1", "--t-hi", "20"], 0),
            (["run", "--config", str(bad), "--out", str(tmp_path / "o")], 2),
        ):
            assert self._modules_after_main(argv) == f"{code} False False"

    def test_lattice_run_leaves_scipy_fft_unloaded(self, tmp_path):
        # the seam loads pocketfft by path, so a run never imports scipy.fft
        cfg_path = tmp_path / "c.cfg"
        cfg_path.write_text(LATTICE_CFG)
        argv = ["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]
        assert self._modules_after_main(argv) == "0 True False"

    def test_config_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("engine = nonsense\n")
        proc = self.run_cli("run", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2
        assert "engine" in proc.stderr

    def test_newton_blowup_exit_3(self, tmp_path):
        # the linearized solve overflows: drive's finiteness check aborts, one line
        cfg_path = tmp_path / "n.cfg"
        cfg_path.write_text(
            "engine = newton\ndata.kind = constant\ndata.amplitude = 5.0\n"
            "newton.t_final = 40.0\nnewton.dt = 0.01\nnewton.grid_size = 16\n"
        )
        proc = self.run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == "numerical abort: linearized solve overflowed near t=17.210\n"

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

    @pytest.mark.parametrize("text, key", NON_FINITE_CFGS, ids=[key for _, key in NON_FINITE_CFGS])
    def test_non_finite_value_exit_2(self, tmp_path, text, key):
        # a non-finite config value is a config error, not an overflow
        # traceback, a numerical abort or a run of zero steps
        cfg_path = tmp_path / "f.cfg"
        cfg_path.write_text(text)
        proc = self.run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"config error: bad value for {key!r}: ")
        assert proc.stderr.strip().endswith("(not finite)")
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

    def test_fit_non_finite_value_exit_2(self, tmp_path):
        # a NaN in the window fails the fit, not prints slope=nan
        rows = [(float(t), t ** 0.5) for t in range(1, 21)]
        rows[10] = (11.0, float("nan"))
        csv_path = write_csv(tmp_path / "series.csv", ["t", "sup_abs"], rows)
        proc = self.run_cli("fit", "--csv", str(csv_path), "--t-lo", "1", "--t-hi", "20")
        assert proc.returncode == 2, proc.stdout
        assert proc.stderr.startswith("error: growth fit requires finite") and proc.stderr.count("\n") == 1
        assert proc.stdout == ""

    def test_fit_on_sweep_index_names_column_exit_2(self, tmp_path):
        # a sweep index's case column holds names, not numbers
        cfg_path = tmp_path / "s.cfg"
        cfg_path.write_text(LATTICE_CFG + "sweep.seeds = 1, 2\n")
        out = tmp_path / "s"
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
        index = out / "sweep_index.csv"
        proc = self.run_cli("fit", "--csv", str(index), "--t-lo", "1", "--t-hi", "2")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"error: column 'case' of {index} holds 'seed=1', not a number\n"

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

    def test_random_band_without_modes_exit_2(self, tmp_path):
        # k_band = 0.1 is below the smallest band 2*pi/32 of the box: no mode
        cfg_path = tmp_path / "b.cfg"
        cfg_path.write_text(
            "engine = nlw\nnlw.grid_size = 64\nnlw.box_length = 32\n"
            "data.kind = random_band\ndata.k_band = 0.1\n"
        )
        proc = self.run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: k_band = 0.1 holds no mode"), proc.stderr
        assert "2*pi/L = 0.19635" in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("engine", ["continuum", "nlw", "newton"])
    def test_grid_size_zero_exit_2(self, tmp_path, engine):
        # the size is checked before the grid spacing L / M divides by it
        cfg_path = tmp_path / "g.cfg"
        cfg_path.write_text(f"engine = {engine}\n{engine}.grid_size = 0\n")
        proc = self.run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: grid size 0 is not a power of two\n"
        assert not (tmp_path / "o").exists()

    def test_overflowing_data_one_stderr_line(self, tmp_path):
        # realized data that overflow are invalid input: the one error line,
        # without the numpy warnings of the overflow before it
        cfg_path = tmp_path / "d.cfg"
        cfg_path.write_text(
            "engine = lattice\nlattice.extent = 16\ndata.kind = random_gaussian\n"
            "data.amplitude = 1e308\n"
        )
        proc = self.run_cli("run", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "error: lattice field contains non-finite entries\n"
        assert not (tmp_path / "o").exists()

    def test_export_kernel(self, tmp_path):
        out = tmp_path / "k.csv"
        proc = self.run_cli("export-kernel", "--t", "5.0", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        data = read_csv(out)
        assert list(data) == ["n", "re", "im"]
        total = np.sum(data["re"] ** 2 + data["im"] ** 2)
        assert total == pytest.approx(1.0, abs=1e-12)
        # row i is K_n at n = i - H, H the default half-width, which stdout names
        half_width = default_half_width(5.0)
        assert np.array_equal(data["n"], np.arange(-half_width, half_width + 1))
        assert proc.stdout == f"kernel table (t=5.0, half_width={half_width}) -> {out}\n"

    @pytest.mark.parametrize("t", ["inf", "nan"])
    def test_export_kernel_non_finite_t_exit_2(self, tmp_path, t):
        out = tmp_path / "k.csv"
        proc = self.run_cli("export-kernel", "--t", t, "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == f"error: t = {t} must be finite and >= 0\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_case_out_of_range_exits_2_before_any_case(self, tmp_path, capsys, workers):
        # every case's values are checked before the first case writes its directory
        cfg_path = tmp_path / "s.cfg"
        cfg_path.write_text(
            "engine = lattice\nlattice.extent = 16\nrun.t_final = 0.1\nrun.record_dt = 0.05\n"
            "sweep.R = 1.5, 0.5\n"
        )
        argv = ["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out"), "--workers", str(workers)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "config error: weight.R must be >= 1, got 0.5\n"
        assert not (tmp_path / "out").exists()

    def test_memory_error_exit_2(self, tmp_path, monkeypatch, capsys):
        # an allocation the host cannot make is invalid input: one line, exit 2,
        # no run directory.  The stub raises numpy's message without allocating
        from nlsgrowth.harness import runner
        message = "Unable to allocate 1.46 TiB for an array with shape (200000000001,) and data type float64"

        def refuse(spec, extent):
            raise MemoryError(message)

        monkeypatch.setattr(runner, "make_initial_lattice", refuse)
        cfg_path = tmp_path / "m.cfg"
        cfg_path.write_text("engine = lattice\nlattice.extent = 100000000000\n")
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_accept_exit_codes_inprocess(self, monkeypatch):
        # stub the criteria list so the accept verb is cheap to exercise
        from nlsgrowth.harness import acceptance, cli

        def good():
            return [("one", 1.0, "<=", 1.0, ".1f")]

        def bad():
            return [("zero", 0.0, ">=", 1.0, ".1f")]

        monkeypatch.setattr(acceptance, "CRITERIA", {"stub_ok": (good, "", None)})
        assert cli.main(["accept"]) == 0
        monkeypatch.setattr(acceptance, "CRITERIA", {"stub_ok": (good, "", None), "stub_bad": (bad, "", None)})
        assert cli.main(["accept"]) == 4

    def test_accept_crash_names_exception(self, monkeypatch, capsys):
        from nlsgrowth.harness import acceptance, cli

        def crash():
            return [("ratio", 1.0 / 0, "<=", 1.0, ".1f")]

        monkeypatch.setattr(acceptance, "CRITERIA", {"stub_crash": (crash, "", None)})
        assert cli.main(["accept"]) == 4
        line, summary = capsys.readouterr().out.splitlines()
        assert line.startswith("FAIL stub_crash: ZeroDivisionError: ")
        assert summary == "1 FAILED (1 criteria)"

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
        # a Newton residual that overflows before the correction-growth abort
        "engine = newton\ndata.kind = constant\ndata.amplitude = 5.0\n"
        "newton.t_final = 40\nnewton.dt = 0.5\nnewton.grid_size = 16\n",
        # an ensemble moment that overflows
        "engine = lattice-linear\nrun.t0_values = 25\nensemble.samples = 100\nensemble.amplitude = 1e200\n",
    ], ids=["lattice", "continuum", "nlw",
            "lattice_mass_t0", "lattice_energy", "continuum_energy", "nlw_energy", "newton",
            "lattice_linear_m2"])
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
