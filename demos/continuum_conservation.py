"""Regularized continuum NLS: exact linear oracle, conservation, and the
local-energy bootstrap.

The nonlinearity phi*(|phi*u|^2 (phi*u)) smooths the cubic term with a
mollifier phi, which is what makes bounded non-decaying data tractable
globally.  This script
  1. checks the spectral free propagator against the closed-form evolution of
     a Gaussian comb (wrap-around monitored),
  2. evolves comb data with the Lawson-RK4 integrator and records the drift
     of the conserved mass and energy,
  3. runs the local-energy bootstrap monitor on the window T = R^(1/8),
  4. repeats the conservation run for the quasi-periodic data
     cos(x) + cos(sqrt(2) x), realized on the torus with the convergent
     239/169 ~ sqrt(2) (frequency snap error ~ 1.2e-5 per unit length).

Run:  python demos/continuum_conservation.py      (about half a minute)
Outputs: demos/output/continuum_*.{csv,svg,dat}
"""

from pathlib import Path

import numpy as np

from nlsgrowth.continuum import (
    ContinuumModel,
    LocalEnergyProbe,
    bootstrap_monitor,
    comb_oracle,
    global_energy,
    global_mass,
    linear_propagate,
    picard_solve,
    run_continuum,
)
from nlsgrowth.fields import InitialData, Mollifier, make_initial_grid
from nlsgrowth.harness.csvio import write_csv
from nlsgrowth.harness.svgplot import write_line_plot

OUT = Path(__file__).parent / "output"
GAUSS = Mollifier.gaussian(1.0)


def comb_oracle_check():
    print("== spectral propagator vs Gaussian-comb closed form ==")
    box, size = 256.0, 4096
    coeffs = np.ones(41)
    u0 = make_initial_grid(InitialData.gaussian_comb(coeffs, -20), box, size)
    for t in (0.5, 2.0, 5.0):
        out = linear_propagate(u0, t)
        exact = comb_oracle(coeffs, t, u0.x, -20)
        print(f"  t={t}: sup error = {np.max(np.abs(out.values - exact)):.2e}"
              f"   (wrap margin ~ e^(-{(108) ** 2 / (1 + 16 * t ** 2):.0f}))")


def conservation_run(u0, model, label, t_final=10.0):
    traj = run_continuum(u0, model, t_final, 0.5)
    m0 = global_mass(traj.field(0))
    e0 = global_energy(traj.field(0), model.mollifier)
    rows = []
    worst_m = worst_e = 0.0
    sup = np.max(np.abs(traj.values), axis=-1)
    for i, t in enumerate(traj.times):
        m = global_mass(traj.field(i))
        e = global_energy(traj.field(i), model.mollifier)
        worst_m = max(worst_m, abs(m - m0) / m0)
        worst_e = max(worst_e, abs(e - e0) / e0)
        rows.append((float(t), float(sup[i]), m, e))
    print(f"  {label}: mass drift {worst_m:.2e}, energy drift {worst_e:.2e}"
          f"  over [0, {t_final}]")
    write_csv(OUT / f"continuum_{label}.csv", ["t", "sup_abs", "mass", "energy"], rows)
    return traj


def comb_conservation():
    print("== conservation, comb data, Gaussian mollifier, dt = 1e-3 ==")
    box, size = 128.0, 1024
    u0 = make_initial_grid(InitialData.gaussian_comb(np.ones(127), -63), box, size)
    model = ContinuumModel(GAUSS, box, size, 1e-3)
    conservation_run(u0, model, "comb")


def picard_cross_check():
    print("== Picard fixed point vs Lawson-RK4 on [0, 0.1] ==")
    box, size = 64.0, 512
    u0 = make_initial_grid(InitialData.gaussian_comb(0.5 * np.ones(17), -8), box, size)
    model = ContinuumModel(GAUSS, box, size, 1e-3)
    res = picard_solve(u0, 0.1, model, tol=1e-8)
    traj = run_continuum(u0, model, 0.1, 1e-3)
    diff = np.max(np.abs(res.trajectory.values - traj.values))
    print(f"  {res.iterations} Picard sweeps; sup difference vs stepper = {diff:.2e}")


def bootstrap_run():
    print("== local-energy bootstrap: window T = R^(1/8), R = 256 ==")
    box, size = 2048.0, 8192
    u0 = make_initial_grid(InitialData.gaussian_comb(np.ones(2017), -1008), box, size)
    model = ContinuumModel(GAUSS, box, size, 2e-3)
    traj = run_continuum(u0, model, 256.0 ** 0.125, 0.1)
    probes = [LocalEnergyProbe(x0, 256.0) for x0 in (-256.0, 0.0, 256.0)]
    report = bootstrap_monitor(traj, probes, GAUSS, flag_factor=2.0)
    print(f"  max probe ratio E(x0,t)/E_max(0) = {report.max_ratio:.3f}"
          f"  (flagged: {report.flagged})")


def quasi_periodic_run():
    print("== quasi-periodic data cos(x) + cos(sqrt(2) x) on the torus ==")
    # box = 2*pi*169 puts both frequencies on the reciprocal lattice:
    # 1 = 169/169 exactly, sqrt(2) ~ 239/169 with error 1.2e-5
    q = 169
    box = 2 * np.pi * q
    size = 2048
    snapped = round(np.sqrt(2) * q) / q
    print(f"  frequency snap: sqrt(2) -> {snapped:.8f} (error {abs(snapped - np.sqrt(2)):.1e})")
    u0 = make_initial_grid(
        InitialData.periodic([0.5, 0.5, 0.5, 0.5], [1.0, -1.0, np.sqrt(2), -np.sqrt(2)]),
        box, size,
    )
    model = ContinuumModel(GAUSS, box, size, 2e-3)
    traj = conservation_run(u0, model, "quasiperiodic", t_final=5.0)
    write_line_plot(
        OUT / "continuum_quasiperiodic_sup.svg",
        traj.times, {"sup|u|": np.max(np.abs(traj.values), axis=-1)},
        title="quasi-periodic data, regularized NLS", xlabel="t", ylabel="sup",
    )


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    comb_oracle_check()
    comb_conservation()
    picard_cross_check()
    bootstrap_run()
    quasi_periodic_run()
