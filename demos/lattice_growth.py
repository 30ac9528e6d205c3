"""Lattice NLS with bounded data: how fast can the sup norm grow?

For any data with sup|psi_0| <= A the weighted-local-mass argument bounds the
solution by C A t^(1/2) (both signs), and the local-energy variant improves
this to C A t^(1/4) in the defocusing case.  At desk scale nothing comes
close to saturating either exponent: this script evolves three bounded data
classes with the mass-conserving split-step integrator, fits log-log growth
exponents of the sup norm, and checks the Gronwall bound
M(t0) <= 2^(3/R) M(0) for the weighted local mass.

Run:  python demos/lattice_growth.py       (about a minute)
Outputs: demos/output/lattice_growth_*.{csv,svg,dat}
"""

from pathlib import Path

import numpy as np

from nlsgrowth.fields import InitialData, LatticeField, WeightProfile, make_initial_lattice
from nlsgrowth.harness.csvio import write_csv
from nlsgrowth.harness.fitting import fit_growth
from nlsgrowth.harness.svgplot import write_line_plot
from nlsgrowth.lattice import (
    LatticeModel,
    lattice_states,
    run_lattice_batch,
    windowed_mass_avg,
    windowed_quartic_avg,
)

OUT = Path(__file__).parent / "output"


def growth_experiment():
    """Both signs' runs, each one 3-row stream; returns the defocusing
    random-phase fields after t0 = 10, 20, 50 and 100, by t0."""
    print("== sup-norm growth, t in [0, 200], extent 512, dt 0.01 ==")
    extent, t_final, dt = 512, 200.0, 0.01
    kinds = {
        "constant": InitialData.constant(1.0),
        "random_phase": InitialData.random_phase(1.0, seed=11),
        "periodic": InitialData.periodic([0.5, 0.5], [0.9, 2.3]),
    }
    psi0 = np.stack([make_initial_lattice(spec, extent).values for spec in kinds.values()])
    window_t0 = {round(t0 / dt): t0 for t0 in (10.0, 20.0, 50.0, 100.0)}
    runs, windows = {}, {}
    for sign in (+1, -1):
        model = LatticeModel(sign=sign, p=2.0, extent=extent, dt=dt)
        times, sups = [], []
        for t, vals in lattice_states(model, psi0, t_final, record_dt=0.5):
            times.append(t)
            sups.append(np.abs(vals).max(axis=-1))
            if sign == +1 and round(t / dt) in window_t0:  # row 1: random_phase
                windows[window_t0[round(t / dt)]] = LatticeField(vals[1].copy(), extent)
        runs[sign] = np.array(times), np.array(sups)  # sups[record, kind]
    for i, kind in enumerate(kinds):
        for sign, label in [(+1, "defocusing"), (-1, "focusing")]:
            t, sup = runs[sign]
            fit = fit_growth(t, sup[:, i], (10.0, 200.0))
            print(f"  {kind:13s} {label:10s}: slope {fit.slope:+.3f}"
                  f"   (t^(1/2) bound allows +0.5)")
    t, sup = runs[+1]
    write_csv(OUT / "lattice_growth_sup.csv", ["t"] + list(kinds), np.column_stack([t, sup]))
    mask = t > 0
    write_line_plot(
        OUT / "lattice_growth_sup.svg", t[mask],
        {kind: sup[mask, i] for i, kind in enumerate(kinds)},
        title="lattice NLS sup norm (defocusing)", xlabel="t", ylabel="sup |psi|",
        loglog=True,
    )
    return windows


def windowed_average_experiment(windows):
    print("== Propositions 2.1/2.2: windowed averages stay O(A^2), O(A^4) ==")
    rows = []
    for t0, psi in windows.items():
        m = windowed_mass_avg(psi, 0, t0)
        q = windowed_quartic_avg(psi, 0, t0)
        rows.append((t0, m, q))
        print(f"  t0={t0:5.0f}: (1/t0) sum |psi|^2 = {m:.3f}   (1/t0) sum |psi|^4 = {q:.3f}")
    write_csv(OUT / "lattice_growth_windows.csv", ["t0", "mass_avg", "quartic_avg"], rows)


def gronwall_experiment():
    print("== weighted local mass: M(t0)/M(0) <= 2^(3/R) ==")
    t0, extent = 50.0, 192
    model = LatticeModel(sign=+1, p=2.0, extent=extent, dt=0.01)
    radii, seeds = (1.0, 2.0, 4.0), range(10)
    psi0 = [make_initial_lattice(InitialData.random_phase(1.0, seed), extent).values
            for seed in seeds]
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
