"""Newton iteration for the cubic NLS with real-analytic bounded data.

Quasi-periodic or random-comb data lies in no L^2-based space, so the usual
contraction arguments fail; the Newton scheme instead corrects the free
evolution through linearized flows, with remainders quadratic in the previous
correction.  Tracked in the analytic majorant norm, the errors square at
every step: eps_{n+1} <= C eps_n^2 n^4.

This script runs the iteration for 0.1 cos(x), prints the convergence ladder,
verifies the limit against an independent fine cubic-NLS integration, and
repeats for the quasi-periodic example cos(x) + cos(sqrt(2) x) (scaled down;
the amplitude scale is recorded in the result).

Run:  python demos/newton_convergence.py      (seconds)
Outputs: demos/output/newton_report.{csv,svg,dat}
"""

from pathlib import Path

import numpy as np

from nlsgrowth.continuum import ContinuumModel, run_continuum
from nlsgrowth.fields import GridField, InitialData, Mollifier, make_initial_grid
from nlsgrowth.harness.csvio import write_csv
from nlsgrowth.harness.svgplot import write_line_plot
from nlsgrowth.newton import newton_iterate

OUT = Path(__file__).parent / "output"


def ladder(result, label):
    print(f"  convergence ladder ({label}):")
    print("    n   eps_n        sup|R_n|     eps_(n+1)/eps_n^2")
    for row in result.rows:
        ratio = f"{row.ratio:.3e}" if np.isfinite(row.ratio) else "-"
        print(f"    {row.n}   {row.eps:.3e}    {row.sup_residual:.3e}    {ratio}")
    print(f"    converged: {result.converged} after {result.iterations} iterations;"
          f" amplitude scale {result.amplitude_scale:.3f}")


def cosine_example():
    print("== psi0 = 0.1 cos(x), T = 0.3 ==")
    box, size = 2 * np.pi, 64
    x = -box / 2 + (box / size) * np.arange(size)
    psi0 = GridField(values=(0.1 * np.cos(x)).astype(complex), box_length=box)
    result = newton_iterate(psi0, 0.3, 1e-3, tol=1e-13, max_iter=8)
    ladder(result, "0.1 cos x")

    model = ContinuumModel(Mollifier.fourier_cutoff(np.inf), box, size, 1e-4, dealias=False)
    ref = run_continuum(psi0, model, 0.3, 1e-3)
    diff = np.max(np.abs(result.trajectory.values - ref.values))
    print(f"  Newton limit vs fine cubic-NLS integration: sup diff = {diff:.2e}")

    write_csv(
        OUT / "newton_report.csv", ["n", "eps", "sup_residual", "ratio"],
        [(r.n, r.eps, r.sup_residual, r.ratio) for r in result.rows],
    )
    ns = np.array([r.n for r in result.rows], dtype=float)
    eps = np.array([max(r.eps, 1e-300) for r in result.rows])
    write_line_plot(
        OUT / "newton_report.svg", ns, {"eps_n": eps},
        title="Newton correction norms", xlabel="n", ylabel="eps", loglog=True,
    )
    return result


def quasi_periodic_example():
    print("== psi0 = a (cos(x) + cos(sqrt(2) x)), torus convergent 239/169 ==")
    q = 169
    box = 2 * np.pi * q
    size = 4096
    psi0 = make_initial_grid(
        InitialData.periodic(
            [0.25, 0.25, 0.25, 0.25], [1.0, -1.0, np.sqrt(2), -np.sqrt(2)]
        ),
        box, size,
    )
    # the fundamental 1/169 makes e^{|k| r} harmless at r = 1; amplitudes are
    # scaled down so eps_1 is small without auto-rescaling
    result = newton_iterate(psi0, 0.1, 1e-3, tol=1e-12, max_iter=8)
    ladder(result, "quasi-periodic")


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    cosine_example()
    quasi_periodic_example()
