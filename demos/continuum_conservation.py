"""Regularized continuum NLS: exact linear oracle, conservation, and the
local-energy bootstrap.

The nonlinearity phi*(|phi*u|^2 (phi*u)) smooths the cubic term with a
mollifier phi, which is what makes bounded non-decaying data tractable
globally.  This script renders the runs of acceptance criteria c08-c11:
  1. the spectral free propagator against the closed-form evolution of a
     Gaussian comb (wrap-around monitored),
  2. the drift of the conserved mass and energy of comb data under the
     Lawson-RK4 integrator,
  3. the Picard fixed point against the stepper,
  4. the local-energy bootstrap monitor on the window T = R^(1/8);
and then repeats the conservation run for the quasi-periodic data
cos(x) + cos(sqrt(2) x), realized on the torus with the convergent
239/169 ~ sqrt(2) (frequency snap error ~ 1.2e-5 per unit length).

Run:  python demos/continuum_conservation.py      (about half a minute)
Outputs: demos/output/continuum_*.{csv,svg,dat}
"""

import math
import sys
from pathlib import Path

import numpy as np

from nlsgrowth.harness.acceptance import run_criterion
from nlsgrowth.harness.config import parse_config_text
from nlsgrowth.harness.csvio import write_csv
from nlsgrowth.harness.runner import execute
from nlsgrowth.harness.svgplot import write_line_plot

OUT = Path(__file__).parent / "output"


def criterion(name):
    """The named acceptance criterion's checks by name and its series."""
    res = run_criterion(name)
    if res.error:
        sys.exit(res.line())
    return {c.name: c for c in res.checks}, res.series


def comb_oracle_check():
    print("== spectral propagator vs Gaussian-comb closed form ==")
    for t, err in criterion("c08_continuum_linear_oracle")[1]["sup_err"][1]:
        print(f"  t={t}: sup error = {err:.2e}"
              f"   (wrap margin ~ e^(-{(108) ** 2 / (1 + 16 * t ** 2):.0f}))")


def comb_conservation():
    print("== conservation, comb data, Gaussian mollifier, dt = 1e-3 ==")
    checks, series = criterion("c09_regularized_conservation")
    print(f"  comb: mass drift {checks['mass_drift'].value:.2e}, energy drift"
          f" {checks['energy_drift'].value:.2e}  over [0, 10.0]")
    write_csv(OUT / "continuum_comb.csv", *series["conservation"])


def picard_cross_check():
    print("== Picard fixed point vs Lawson-RK4 on [0, 0.1] ==")
    checks, _ = criterion("c10_picard_oracle")
    print(f"  {checks['iterations'].value} Picard sweeps;"
          f" sup difference vs stepper = {checks['sup_diff'].value:.2e}")


def bootstrap_run():
    print("== local-energy bootstrap: window T = R^(1/8), R = 256 ==")
    ratio = criterion("c11_bootstrap_monitor")[0]["max_probe_ratio"]
    print(f"  max probe ratio E(x0,t)/E_max(0) = {ratio.value:.3f}  (flagged: {not ratio.passed})")


def quasi_periodic_run():
    print("== quasi-periodic data cos(x) + cos(sqrt(2) x) on the torus ==")
    # box = 2*pi*169 puts both frequencies on the reciprocal lattice:
    # 1 = 169/169 exactly, sqrt(2) ~ 239/169 with error 1.2e-5
    q = 169
    snapped = round(math.sqrt(2) * q) / q
    print(f"  frequency snap: sqrt(2) -> {snapped:.8f} (error {abs(snapped - math.sqrt(2)):.1e})")
    result = execute(parse_config_text(f"""
        engine = continuum
        continuum.box_length = {2 * math.pi * q!r}
        continuum.grid_size = 2048
        continuum.dt = 2e-3
        data.kind = periodic
        data.amplitudes = 0.5, 0.5, 0.5, 0.5
        data.frequencies = 1, -1, {math.sqrt(2)!r}, {-math.sqrt(2)!r}
        probe.x0_values =
        run.t_final = 5
    """))
    t, sup, mass, energy = np.array(result.rows).T
    mass_drift, energy_drift = (max(abs(v - col[0]) / col[0] for v in col) for col in (mass, energy))
    print(f"  quasiperiodic: mass drift {mass_drift:.2e}, energy drift {energy_drift:.2e}"
          f"  over [0, 5.0]")
    write_csv(OUT / "continuum_quasiperiodic.csv", result.columns, result.rows)
    write_line_plot(
        OUT / "continuum_quasiperiodic_sup.svg", t, {"sup|u|": sup},
        title="quasi-periodic data, regularized NLS", xlabel="t", ylabel="sup",
    )


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    comb_oracle_check()
    comb_conservation()
    picard_cross_check()
    bootstrap_run()
    quasi_periodic_run()
