"""Experiment orchestration: configs, runners, fitting, CSV/SVG, acceptance."""

from .config import ConfigError, ExperimentConfig, parse_config, parse_config_text
from .csvio import read_csv, write_csv
from .fitting import FitResult, fit_growth
from .runner import ENGINE_COLUMNS, execute, run_experiment, sweep_experiment
from .acceptance import AcceptanceReport, CriterionResult, acceptance_suite, run_criterion
