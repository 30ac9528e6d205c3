"""Flat key-value experiment configs with strict schema validation.

Config files are plain text: one ``section.key = value`` per line, ``#``
comments, blank lines ignored.  Every key must belong to the schema of the
selected engine; unknown keys are rejected so runs stay auditable.  A run is
a pure function of (config, code version).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["ConfigError", "ExperimentConfig", "parse_config", "parse_config_text"]

ENGINES = ("lattice", "lattice-linear", "continuum", "nlw", "newton")


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


# key -> (parser, default); defaults of None mean "required if used"
_COMMON_KEYS = {
    "run.t_final": (float, 10.0),
    "run.record_dt": (float, 0.5),
    "output.svg": (_parse_bool, False),
}

_DATA_KEYS = {
    "data.kind": (str, "constant"),
    "data.amplitude": (float, 1.0),
    "data.seed": (int, 0),
    "data.comb_half_extent": (int, 20),
    "data.k_band": (float, 1.0),
    "data.amplitudes": (_parse_list(complex), (1.0 + 0j,)),
    "data.frequencies": (_parse_list(float), (1.0,)),
}

# time-grid keys that a run divides by or steps towards; lattice.dt and
# continuum.dt are checked by their models
_POSITIVE_KEYS = ("run.record_dt", "nlw.dt", "newton.dt")
_NON_NEGATIVE_KEYS = ("run.t_final", "newton.t_final")

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
        "run.extent": (int, 0),  # 0 = auto from kernel width
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
        "mollifier.kind": (str, "gaussian"),
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
        params = dict(self.params)
        for key, val in entries.items():
            if key not in params:
                raise ConfigError(f"unknown config key: {key}")
            params[key] = val
        return ExperimentConfig(engine=self.engine, params=params)


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
    if engine not in ENGINES:
        raise ConfigError(
            f"invalid value for field 'engine': {engine!r} (choose from {', '.join(ENGINES)})"
        )
    schema = ENGINE_SCHEMAS[engine]
    params = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown config key for engine {engine!r}: {key!r}")
        parser, _default = schema[key]
        try:
            params[key] = parser(value)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})") from exc
    for key, (_parser, default) in schema.items():
        params.setdefault(key, default)
    for key, value in params.items():
        if key in _POSITIVE_KEYS and not value > 0:
            raise ConfigError(f"{key} must be > 0, got {value}")
        if key in _NON_NEGATIVE_KEYS and not value >= 0:
            raise ConfigError(f"{key} must be >= 0, got {value}")
    return ExperimentConfig(engine=engine, params=params)


def parse_config(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))
