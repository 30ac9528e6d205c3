"""Flat key-value experiment configs with strict schema validation.

Config files are plain text: one ``section.key = value`` per line, ``#``
comments, blank lines ignored.  Every key must belong to the schema of the
selected engine; unknown keys are rejected so runs stay auditable.  A run is
a pure function of (config, code version).

The engines are the keys of ``ENGINE_SCHEMAS``; the data and mollifier kinds
are the keys of ``DATA_KINDS`` and ``MOLLIFIER_KINDS``, which map each kind
to its constructor and the config keys of the constructor's arguments.  An
engine or kind outside its table is rejected at parse time.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from pathlib import Path

from ..fields import InitialData, Mollifier

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "parse_config_text"]


class ConfigError(ValueError):
    """Invalid or unknown configuration entry (CLI exit code 2)."""


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_list(cast):
    """Parser of comma-separated ``cast`` values into a tuple (empty items skipped)."""
    return lambda s: tuple(cast(p) for p in s.split(",") if p.strip())


def _parse_choice(table: dict):
    """Parser that accepts only the keys of ``table``."""
    def parse(s: str) -> str:
        if s not in table:
            raise ValueError(f"choose from {', '.join(table)}")
        return s
    return parse


# kind -> (constructor, config keys of its arguments)
DATA_KINDS = {
    "constant": (InitialData.constant, ("data.amplitude",)),
    "delta": (InitialData.delta, ("data.amplitude",)),
    "random_phase": (InitialData.random_phase, ("data.amplitude", "data.seed")),
    "random_gaussian": (InitialData.random_gaussian, ("data.amplitude", "data.seed")),
    "gaussian_comb": (
        InitialData.random_comb, ("data.amplitude", "data.comb_half_extent", "data.seed")
    ),
    "periodic": (InitialData.periodic, ("data.amplitudes", "data.frequencies")),
    "random_band": (InitialData.random_band, ("data.amplitude", "data.k_band", "data.seed")),
}
MOLLIFIER_KINDS = {
    "gaussian": (Mollifier.gaussian, ("mollifier.sigma",)),
    "fourier_cutoff": (Mollifier.fourier_cutoff, ("mollifier.cutoff",)),
}

# key -> (parser, default); defaults of None mean "required if used"
_COMMON_KEYS = {
    "run.t_final": (float, 10.0),
    "run.record_dt": (float, 0.5),
    "output.svg": (_parse_bool, False),
}

_DATA_KEYS = {
    "data.kind": (_parse_choice(DATA_KINDS), "constant"),
    "data.amplitude": (float, 1.0),
    "data.seed": (int, 0),
    "data.comb_half_extent": (int, 20),
    "data.k_band": (float, 1.0),
    "data.amplitudes": (_parse_list(complex), (1.0 + 0j,)),
    "data.frequencies": (_parse_list(float), (1.0,)),
}

# key -> (lower bound, whether the bound itself is allowed), checked for each
# entry of a list: the time-grid keys a run divides by or steps towards
# (lattice.dt and continuum.dt are checked by their models), the lattice-linear
# horizons, in the stationary-phase regime t0 >= 20, the ensemble size that
# random_ensemble_second_moment needs, the wave power u^(2p+1) with p >= 1,
# the scales R >= 1, and the seeds and comb half-extent, which numpy takes
# only >= 0
_LOWER_BOUNDS = {
    **dict.fromkeys(("run.record_dt", "nlw.dt", "newton.dt"), (0.0, False)),
    **dict.fromkeys(("run.t_final", "newton.t_final"), (0.0, True)),
    "run.t0_values": (20.0, True),
    "ensemble.samples": (100, True),
    "nlw.p": (1, True),
    **dict.fromkeys(("weight.R", "probe.R"), (1.0, True)),
    **dict.fromkeys(("data.seed", "ensemble.seed", "data.comb_half_extent"), (0, True)),
}

# sweep key -> the config keys it may set; a schema that holds the sweep key
# holds exactly one of them, and the seed key is the one that --seed sets
_SWEEP_TARGETS = {
    "sweep.seeds": ("data.seed", "ensemble.seed"),
    "sweep.R": ("weight.R", "probe.R"),
    "sweep.x0": ("weight.x0",),
}

# the runner passes each lattice.*, weight.*, continuum.* and newton.* section
# by keyword, so its keys, by the name after the dot, are the arguments of
# LatticeModel, WeightProfile, ContinuumModel and newton_iterate (but
# lattice.extent, which makes the ring, and newton's box_length and grid_size,
# which make its grid)
ENGINE_SCHEMAS: dict[str, dict] = {
    "lattice": {
        **_COMMON_KEYS,
        **_DATA_KEYS,
        "lattice.sign": (int, 1),
        "lattice.p": (float, 2.0),
        "lattice.extent": (int, 512),
        "lattice.dt": (float, 0.01),
        "lattice.coupling": (float, 1.0),
        "weight.x0": (int, 0),
        "weight.R": (float, 1.0),
        "weight.t0": (float, None),  # defaults to t_final at build time
        "sweep.seeds": (_parse_list(int), ()),
        "sweep.R": (_parse_list(float), ()),
        "sweep.x0": (_parse_list(int), ()),
    },
    "lattice-linear": {
        "run.t0_values": (_parse_list(float), (25.0, 100.0)),
        "ensemble.samples": (int, 200),
        "ensemble.amplitude": (float, 1.0),
        "ensemble.seed": (int, 0),
        "output.svg": (_parse_bool, False),
        "sweep.seeds": (_parse_list(int), ()),
    },
    "continuum": {
        **_COMMON_KEYS,
        **_DATA_KEYS,
        "continuum.box_length": (float, 128.0),
        "continuum.grid_size": (int, 1024),
        "continuum.dt": (float, 1e-3),
        "continuum.sign": (int, 1),
        "continuum.coupling": (float, 1.0),
        "continuum.dealias": (_parse_bool, True),
        "mollifier.kind": (_parse_choice(MOLLIFIER_KINDS), "gaussian"),
        "mollifier.sigma": (float, 1.0),
        "mollifier.cutoff": (float, 1.0),
        "probe.x0_values": (_parse_list(float), (0.0,)),
        "probe.R": (float, 1.0),
        "sweep.seeds": (_parse_list(int), ()),
        "sweep.R": (_parse_list(float), ()),
    },
    "nlw": {
        **_COMMON_KEYS,
        **_DATA_KEYS,
        "nlw.box_length": (float, 128.0),
        "nlw.grid_size": (int, 512),
        "nlw.dt": (float, 0.0625),
        "nlw.p": (int, 1),
        "sweep.seeds": (_parse_list(int), ()),
    },
    "newton": {
        **_DATA_KEYS,
        "newton.box_length": (float, 6.283185307179586),
        "newton.grid_size": (int, 64),
        "newton.dt": (float, 1e-3),
        "newton.t_final": (float, 0.3),
        "newton.tol": (float, 1e-12),
        "newton.max_iter": (int, 12),
        "newton.r1": (float, 1.0),
        "output.svg": (_parse_bool, False),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated engine name plus typed parameter map."""

    engine: str
    params: dict = field(default_factory=dict)

    def echo(self) -> dict:
        """Serializable view (config echo for the metadata sidecar)."""
        out = {"engine": self.engine}
        for key in sorted(self.params):
            val = self.params[key]
            if isinstance(val, tuple):
                out[key] = ",".join(str(v) for v in val)
            else:
                out[key] = str(val)
        return out

    def with_overrides(self, **entries) -> "ExperimentConfig":
        """This config with ``entries`` set, each parsed as its ``str`` would
        be in config text; ``str`` of an int or a float round-trips exactly."""
        params = dict(self.params)
        for key, val in entries.items():
            params[key] = _parse_value(self.engine, key, str(val))
        return ExperimentConfig(engine=self.engine, params=params)


def _parse_value(engine: str, key: str, value: str):
    """``value`` typed by the parser of ``key`` in the engine's schema, checked
    finite and against its lower bound; the one path of every config value."""
    schema = ENGINE_SCHEMAS[engine]
    if key not in schema:
        raise ConfigError(f"unknown config key for engine {engine!r}: {key!r}")
    parser, _default = schema[key]
    try:
        parsed = parser(value)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc
    entries = parsed if isinstance(parsed, tuple) else (parsed,)
    if not all(cmath.isfinite(v) for v in entries if isinstance(v, (float, complex))):
        raise ConfigError(f"bad value for {key!r}: {value!r} (not finite)")
    if key in _LOWER_BOUNDS:
        lo, closed = _LOWER_BOUNDS[key]
        if not all(v >= lo if closed else v > lo for v in entries):
            raise ConfigError(f"{key} must be {'>=' if closed else '>'} {lo:g}, got {value}")
    return parsed


def parse_config_text(text: str) -> ExperimentConfig:
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in raw:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        raw[key] = value

    engine = raw.pop("engine", None)
    if engine is None:
        raise ConfigError("missing required key: engine")
    if engine not in ENGINE_SCHEMAS:
        raise ConfigError(f"invalid value for field 'engine': {engine!r} "
                          f"(choose from {', '.join(ENGINE_SCHEMAS)})")
    params = {key: _parse_value(engine, key, value) for key, value in raw.items()}
    for key, (_parser, default) in ENGINE_SCHEMAS[engine].items():
        params.setdefault(key, default)
    return ExperimentConfig(engine=engine, params=params)


def parse_config(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))
