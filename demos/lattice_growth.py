"""Lattice NLS with bounded data: how fast can the sup norm grow?

For any data with sup|psi_0| <= A the weighted-local-mass argument bounds the
solution by C A t^(1/2) (both signs), and the local-energy variant improves
this to C A t^(1/4) in the defocusing case.  At desk scale nothing comes
close to saturating either exponent.  This script renders the runs of
acceptance criteria c05 and c06 (three bounded data classes under the
mass-conserving split step, log-log growth exponents of the sup norm,
windowed averages) and checks the Gronwall bound M(t0) <= 2^(3/R) M(0) for
the weighted local mass at three radii.

Run:  python demos/lattice_growth.py       (about a minute)
Outputs: demos/output/lattice_growth_*.{csv,svg,dat}
"""

import sys
from pathlib import Path

import numpy as np

from nlsgrowth.fields import InitialData, WeightProfile, make_initial_lattice
from nlsgrowth.harness.acceptance import run_criterion
from nlsgrowth.harness.csvio import write_csv
from nlsgrowth.harness.svgplot import write_line_plot
from nlsgrowth.lattice import LatticeModel, run_lattice_batch

OUT = Path(__file__).parent / "output"


def criterion(name):
    """The named acceptance criterion's checks by name and its series."""
    res = run_criterion(name)
    if res.error:
        sys.exit(res.line())
    return {c.name: c for c in res.checks}, res.series


def growth_experiment():
    """c05's runs: both signs, each one 3-row stream; returns c05's series."""
    print("== sup-norm growth, t in [0, 200], extent 512, dt 0.01 ==")
    checks, series = criterion("c05_prop21_sup_growth")
    columns, table = series["sup"]
    kinds = [name.split("/")[0] for name in columns[1:4]]  # the +1 stream's rows
    for kind in kinds:
        for sign, label in [(+1, "defocusing"), (-1, "focusing")]:
            print(f"  {kind:13s} {label:10s}: slope {checks[f'slope[{kind}/{sign:+d}]'].value:+.3f}"
                  f"   (t^(1/2) bound allows +0.5)")
    write_csv(OUT / "lattice_growth_sup.csv", ["t"] + kinds, table[:, :4])
    t, mask = table[:, 0], table[:, 0] > 0
    write_line_plot(
        OUT / "lattice_growth_sup.svg", t[mask],
        {kind: table[mask, i + 1] for i, kind in enumerate(kinds)},
        title="lattice NLS sup norm (defocusing)", xlabel="t", ylabel="sup |psi|",
        loglog=True,
    )
    return series


def windowed_average_experiment(c05_series):
    """c05's mass and c06's quartic windows of the defocusing random run."""
    print("== Propositions 2.1/2.2: windowed averages stay O(A^2), O(A^4) ==")
    _, quartics = criterion("c06_prop22_defocusing")[1]["windows"]
    rows = [(t0, m, q) for (t0, m), (_, q) in zip(c05_series["windows"][1], quartics)]
    for t0, m, q in rows:
        print(f"  t0={t0:5.0f}: (1/t0) sum |psi|^2 = {m:.3f}   (1/t0) sum |psi|^4 = {q:.3f}")
    write_csv(OUT / "lattice_growth_windows.csv", ["t0", "mass_avg", "quartic_avg"], rows)


def gronwall_experiment():
    print("== weighted local mass: M(t0)/M(0) <= 2^(3/R) ==")
    t0, extent = 50.0, 192
    model = LatticeModel(sign=+1, p=2.0, dt=0.01)
    radii, seeds = (1.0, 2.0, 4.0), range(10)
    psi0 = [make_initial_lattice(InitialData.random_phase(1.0, seed), extent) for seed in seeds]
    # one batch: every (R, seed) pair is a row with its own weight
    weights = [WeightProfile(x0=0, R=R, t0=t0) for R in radii for _ in seeds]
    records, _ = run_lattice_batch(model, np.stack(psi0 * len(radii)), t0, t0, weights)
    for i, R in enumerate(radii):
        block = records[i * len(seeds):(i + 1) * len(seeds)]
        worst = max(rows[-1].local_mass / rows[0].local_mass for rows in block)
        print(f"  R={R}: max ratio over 10 seeds = {worst:.3f}  (bound {2 ** (3 / R):.3f})")


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    windowed_average_experiment(growth_experiment())
    gronwall_experiment()
