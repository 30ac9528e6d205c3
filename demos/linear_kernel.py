"""The free lattice propagator: Bessel kernel, stationary phase, and the
sharp t^(1/2) lower bound.

e^{it Delta} on the integers has the explicit kernel
K_n(t) = e^{-2it} i^n J_n(2t).  This script cross-checks the Miller-recurrence
tables against the oscillatory-integral oracle, compares the two-saddle
stationary-phase approximation with exact values, and then builds the
adversarial data a_n = conj(K_n)/|K_n| whose unit-modulus coefficients add
all kernel phases constructively: |psi(t0, 0)| = sum_n |K_n(t0)| ~ 1.8 t0^(1/2).
Random phases instead keep E|psi(t,0)|^2 = 1 for all time.

Run:  python demos/linear_kernel.py        (seconds)
Outputs: demos/output/kernel_t25.csv, demos/output/adversarial.{csv,svg,dat}
"""

from pathlib import Path

import numpy as np

from nlsgrowth.harness.csvio import write_csv
from nlsgrowth.harness.svgplot import write_line_plot
from nlsgrowth.lattice_linear import (
    adversarial_data,
    kernel_integral,
    kernel_table,
    linear_evolve,
    pairing_check,
    random_ensemble_second_moment,
    stationary_phase_eval,
)

OUT = Path(__file__).parent / "output"


def kernel_cross_check():
    print("== kernel table vs adaptive quadrature ==")
    for t in (10.0, 50.0):
        tab = kernel_table(t)
        worst = 0.0
        for n in range(0, tab.half_width, 7):
            worst = max(worst, abs(tab.value(n) - np.exp(-2j * t) * kernel_integral(2 * t, n)))
        print(f"  t={t:5.0f}: max |recurrence - quadrature| = {worst:.2e}, "
              f"unitarity deficit = {tab.unitarity_deficit():.2e}")
    tab = kernel_table(25.0)
    write_csv(
        OUT / "kernel_t25.csv", ["n", "re", "im"],
        [(int(n), v.real, v.imag) for n, v in zip(tab.ns, tab.values)],
    )


def stationary_phase_check():
    print("== stationary phase envelope at t = 200 (|n| <= t/2) ==")
    t = 200.0
    errs = []
    for n in range(-100, 101):
        exact = kernel_integral(t, n)
        errs.append(abs(abs(stationary_phase_eval(t, n)) - abs(exact)) / abs(exact))
    print(f"  mean envelope error {np.mean(errs) * 100:.2f}%  (max {np.max(errs) * 100:.1f}%"
          " near zeros of the oscillation)")
    print(f"  even/odd phase pairing holds: {pairing_check(t)}")


def adversarial_lower_bound():
    print("== adversarial phase alignment: |psi(t0,0)| >= delta t0^(1/2) ==")
    rows = []
    for t0 in (25.0, 50.0, 100.0, 200.0, 400.0):
        tab = kernel_table(t0)
        data = adversarial_data(t0, tab.half_width, tab)
        evolved = linear_evolve(data, t0, kernel_table(t0, tab.half_width))
        ratio = abs(evolved.at(0)) / np.sqrt(t0)
        rows.append((t0, abs(evolved.at(0)), ratio))
        print(f"  t0={t0:5.0f}: |psi(t0,0)| = {abs(evolved.at(0)):8.2f}"
              f"   ratio to sqrt(t0) = {ratio:.4f}")
    write_csv(OUT / "adversarial.csv", ["t0", "peak", "ratio"], rows)
    t0s = np.array([r[0] for r in rows])
    write_line_plot(
        OUT / "adversarial.svg", t0s,
        {"peak": np.array([r[1] for r in rows]),
         "1.78*sqrt(t0)": 1.78 * np.sqrt(t0s)},
        title="adversarial peak vs t^(1/2)", xlabel="t0", ylabel="|psi(t0,0)|",
        loglog=True,
    )


def random_ensemble():
    print("== random data: E|psi(t,0)|^2 stays at A^2 ==")
    for t in (10.0, 50.0, 200.0):
        m2 = random_ensemble_second_moment(t, 1.0, num_samples=400, seed=7)
        print(f"  t={t:5.0f}: Monte-Carlo E|psi(t,0)|^2 = {m2:.3f}  (exact 1, 400 samples)")


if __name__ == "__main__":
    OUT.mkdir(exist_ok=True)
    kernel_cross_check()
    stationary_phase_check()
    adversarial_lower_bound()
    random_ensemble()
