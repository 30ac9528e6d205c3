"""Cubic wave equation: finite propagation speed does all the work.

Because signals travel at speed one, the solution at (t, x0) only sees data
inside the backward light cone, so bounded data behaves like compactly
supported data of mass O(t) — giving the elementary sup bound C t^(1/3)
(and C t^(1/(p+2)) for the u^(2p+1) nonlinearity).  This script checks the
cone property directly by chi-truncating the data outside the cone and
comparing the two runs at x0, monitors leapfrog energy conservation, and fits
the (flat) growth exponents.

Run:  python demos/wave_cone.py        (about half a minute)
Outputs: demos/output/wave_*.csv
"""

from pathlib import Path

import numpy as np

from nlsgrowth.fields import GridField, InitialData, make_initial_grid
from nlsgrowth.harness.csvio import write_csv
from nlsgrowth.harness.fitting import fit_growth
from nlsgrowth.wave import WaveState, nlw_cone_test, run_nlw

OUT = Path(__file__).parent / "output"


def real_field(spec, box, size, seed):
    g = make_initial_grid(InitialData.random_band(spec, 1.0, seed), box, size)
    return GridField(values=g.values.real.astype(complex), box_length=box)


def cone_check():
    print("== light-cone test: solution at x0 ignores data beyond |x-x0| = T ==")
    box, size = 160.0, 4096
    u0 = real_field(0.5, box, size, 11)
    u1 = real_field(0.5, box, size, 12)
    for dt in (2e-3, 1e-3):
        diff = nlw_cone_test(u0, u1, 15.0, dt)
        print(f"  T=15, dt={dt}: sup_t |u(t,x0) - u_truncated(t,x0)| = {diff:.2e}")
    print("  (the O(dt^2) trend is leapfrog dispersion; the acceptance suite"
          " runs the tight 1e-10 check)")


def energy_drift():
    print("== leapfrog energy conservation ==")
    box, size = 128.0, 512
    state = WaveState(u=real_field(1.0, box, size, 4), v=real_field(1.0, box, size, 5))
    records, _ = run_nlw(state, 25.0, 5e-4, 1.0)
    e0 = records[0][2]
    drift = max(abs(e - e0) / abs(e0) for _, _, e in records)
    print(f"  relative drift over [0, 25], dt=5e-4: {drift:.2e}")
    write_csv(OUT / "wave_energy.csv", ["t", "sup_abs", "energy"], records)


def growth_exponents():
    print("== sup-norm growth exponents (bounds 1/(p+2) + 0.05) ==")
    box, size = 256.0, 1024
    rows = []
    for p in (1, 2):
        state = WaveState(
            u=real_field(1.0, box, size, 21), v=real_field(1.0, box, size, 22)
        )
        records, _ = run_nlw(state, 100.0, 0.0625, 0.5, p=p)
        t = np.array([r[0] for r in records])
        sup = np.array([r[1] for r in records])
        slope = fit_growth(t, sup, (10.0, 100.0)).slope
        bound = 1.0 / (p + 2.0)
        rows.append((p, slope, bound))
        print(f"  u^{2 * p + 1} nonlinearity: fitted slope {slope:+.3f}"
              f"  (bound {bound:.3f})")
    write_csv(OUT / "wave_slopes.csv", ["p", "slope", "bound"], rows)


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    cone_check()
    energy_drift()
    growth_exponents()
