"""Experiment orchestration: configs, runners, fitting, CSV/SVG, acceptance."""
