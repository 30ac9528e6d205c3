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

from nlsgrowth import (
    InitialData,
    LatticeModel,
    WeightProfile,
    make_initial_lattice,
    run_lattice,
    run_lattice_batch,
    windowed_mass_avg,
    windowed_quartic_avg,
)
from nlsgrowth.harness import fit_growth, write_csv
from nlsgrowth.harness.svgplot import write_line_plot

OUT = Path(__file__).parent / "output"


def growth_experiment():
    print("== sup-norm growth, t in [0, 200], extent 512, dt 0.01 ==")
    extent, t_final = 512, 200.0
    series = {}
    for kind, spec in [
        ("constant", InitialData.constant(1.0)),
        ("random_phase", InitialData.random_phase(1.0, seed=11)),
        ("periodic", InitialData.periodic([0.5, 0.5], [0.9, 2.3])),
    ]:
        for sign, label in [(+1, "defocusing"), (-1, "focusing")]:
            model = LatticeModel(sign=sign, p=2.0, extent=extent, dt=0.01)
            psi0 = make_initial_lattice(spec, extent)
            records, _ = run_lattice(model, psi0, t_final, record_dt=0.5)
            t = np.array([r.t for r in records])
            sup = np.array([r.sup_abs for r in records])
            fit = fit_growth(t, sup, (10.0, 200.0))
            print(f"  {kind:13s} {label:10s}: slope {fit.slope:+.3f}"
                  f"   (t^(1/2) bound allows +0.5)")
            if sign == +1:
                series[kind] = (t, sup)
    rows = []
    t = series["constant"][0]
    for i in range(len(t)):
        rows.append((t[i],) + tuple(series[k][1][i] for k in series))
    write_csv(OUT / "lattice_growth_sup.csv", ["t"] + list(series), rows)
    mask = t > 0
    write_line_plot(
        OUT / "lattice_growth_sup.svg", t[mask],
        {k: v[1][mask] for k, v in series.items()},
        title="lattice NLS sup norm (defocusing)", xlabel="t", ylabel="sup |psi|",
        loglog=True,
    )


def windowed_average_experiment():
    print("== Propositions 2.1/2.2: windowed averages stay O(A^2), O(A^4) ==")
    extent = 512
    model = LatticeModel(sign=+1, p=2.0, extent=extent, dt=0.01)
    psi = make_initial_lattice(InitialData.random_phase(1.0, seed=11), extent)
    t_done = 0.0
    rows = []
    for t0 in (10.0, 20.0, 50.0, 100.0):
        _, psi = run_lattice(model, psi, t0 - t_done, record_dt=t0 - t_done)
        t_done = t0
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
    growth_experiment()
    windowed_average_experiment()
    gronwall_experiment()
