"""Newton iteration for the cubic NLS with real-analytic bounded data.

Quasi-periodic or random-comb data lies in no L^2-based space, so the usual
contraction arguments fail; the Newton scheme instead corrects the free
evolution through linearized flows, with remainders quadratic in the previous
correction.  Tracked in the analytic majorant norm, the errors square at
every step: eps_{n+1} <= C eps_n^2 n^4.

This script renders acceptance criterion c13's run for 0.1 cos(x): the
convergence ladder and the limit against an independent fine cubic-NLS
integration.  It then runs the Newton engine on the quasi-periodic example
cos(x) + cos(sqrt(2) x) (scaled down; the amplitude scale is recorded in the
result).

Run:  python demos/newton_convergence.py      (seconds)
Outputs: demos/output/newton_report.{csv,svg,dat}
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


def ladder(rows, label, converged, amplitude_scale=None):
    print(f"  convergence ladder ({label}):")
    print("    n   eps_n        sup|R_n|     eps_(n+1)/eps_n^2")
    for n, eps, sup_residual, ratio in rows:
        ratio = f"{ratio:.3e}" if np.isfinite(ratio) else "-"
        print(f"    {n}   {eps:.3e}    {sup_residual:.3e}    {ratio}")
    scale = "" if amplitude_scale is None else f"; amplitude scale {amplitude_scale:.3f}"
    print(f"    converged: {converged} after {rows[-1][0]} iterations{scale}")


def cosine_example():
    print("== psi0 = 0.1 cos(x), T = 0.3 ==")
    res = run_criterion("c13_newton")
    if res.error:
        sys.exit(res.line())
    checks = {c.name: c.value for c in res.checks}
    _, rows = res.series["ladder"]
    ladder(rows, "0.1 cos x", checks["converged"])
    print(f"  Newton limit vs fine cubic-NLS integration: sup diff = {checks['vs_fine']:.2e}")

    write_csv(OUT / "newton_report.csv", ["n", "eps", "sup_residual", "ratio"], rows)
    ns = np.array([r[0] for r in rows], dtype=float)
    eps = np.array([max(r[1], 1e-300) for r in rows])
    write_line_plot(
        OUT / "newton_report.svg", ns, {"eps_n": eps},
        title="Newton correction norms", xlabel="n", ylabel="eps", loglog=True,
    )


def quasi_periodic_example():
    print("== psi0 = a (cos(x) + cos(sqrt(2) x)), torus convergent 239/169 ==")
    # the fundamental 1/169 makes e^{|k| r} harmless at r = 1; even at a =
    # 0.25 the majorant at r = 1 exceeds the smallness newton_iterate needs,
    # so it scales the data down (by 0.146, and the run warns that it did)
    result = execute(parse_config_text(f"""
        engine = newton
        data.kind = periodic
        data.amplitudes = 0.25, 0.25, 0.25, 0.25
        data.frequencies = 1, -1, {math.sqrt(2)!r}, {-math.sqrt(2)!r}
        newton.box_length = {2 * math.pi * 169!r}
        newton.grid_size = 4096
        newton.t_final = 0.1
        newton.max_iter = 8
    """))
    ladder(result.rows, "quasi-periodic", result.summary["converged"], result.summary["amplitude_scale"])


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    cosine_example()
    quasi_periodic_example()
