"""Acceptance suite: every shipped claim, measured at its stated tolerance.

``acceptance_suite(out_dir)`` runs all criteria at desk scale (minutes).  Each
criterion is self-contained (no shared state), so a failure in one cannot
contaminate another; ``run_criterion`` executes a single one by name.

Each criterion returns its checks as data, ``(name, value, op, bound,
fmt)``; the pass flag, the printed line and both report files derive from
them.  Thresholds come from the project contract.  Values the underlying
theorems leave unquantified (the lower-bound constant delta, bootstrap
excursion factors) were measured once against the oracles and pinned here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ..continuum import (
    ContinuumModel,
    LocalEnergyProbe,
    _record_pass,
    bootstrap_monitor,
    comb_oracle,
    linear_propagate,
    picard_solve,
    run_continuum,
)
from ..fields import GridField, InitialData, Mollifier, WeightProfile, _extent
from ..fields import make_initial_grid, make_initial_lattice
from ..lattice import (
    LatticeModel,
    lattice_states,
    run_lattice,
    run_lattice_batch,
    windowed_mass_avg,
    windowed_quartic_avg,
)
from ..lattice_linear import (
    adversarial_data,
    default_half_width,
    kernel_integral,
    kernel_table,
    linear_evolve,
    pairing_check,
    random_ensemble_second_moment,
)
from ..newton import AnalyticNormParams, majorant_norm, newton_iterate
from ..wave import WaveState, nlw_cone_test, run_nlw
from .config import parse_config_text
from .csvio import write_csv
from .fitting import fit_growth
from .runner import run_experiment

__all__ = ["Check", "CriterionResult", "acceptance_suite", "run_criterion", "CRITERIA"]


@dataclass(frozen=True)
class Check:
    """One measured value against its bound: passes when ``value op bound``.

    ``op`` is ``<=``, ``>=`` or ``==`` (the bool checks); ``fmt`` is the
    value's format spec in the printed line."""

    name: str
    value: float | bool
    op: str
    bound: float | bool
    fmt: str = ""

    @property
    def margin(self) -> float:
        """Signed distance to the bound; the check passes when it is >= 0,
        so a NaN value fails under every op."""
        v, b = float(self.value), float(self.bound)
        return {"<=": b - v, ">=": v - b, "==": -abs(v - b)}[self.op]

    @property
    def passed(self) -> bool:
        return self.margin >= 0.0

    def text(self) -> str:
        bound = self.bound if isinstance(self.bound, bool) else f"{self.bound:.4g}".replace("e-0", "e-")
        return f"{self.name}={self.value:{self.fmt}} {self.op} {bound}"


@dataclass(frozen=True)
class CriterionResult:
    name: str
    checks: tuple[Check, ...]
    runtime_s: float
    detail: str
    error: str  # "<exception type>: <message>" when the criterion crashed, else ""

    @property
    def passed(self) -> bool:
        return bool(self.checks) and all(c.passed for c in self.checks)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        measured = self.error or ", ".join(c.text() for c in self.checks) or "no checks"
        out = f"{tag} {self.name}: {measured} ({self.runtime_s:.1f}s)"
        if self.detail:
            out += f" [{self.detail}]"
        return out

    def rows(self) -> list[tuple]:
        """CSV rows: criterion, check, value, op, bound, margin, passed, runtime_s
        (one failing row with check "none" when a crash left no checks)."""
        if not self.checks:
            return [(self.name, "none", "", "", "", "", 0, self.runtime_s)]
        return [
            (self.name, c.name, c.value, c.op, c.bound, c.margin, int(c.passed), self.runtime_s)
            for c in self.checks
        ]


# ---------------------------------------------------------------------------
# criteria: each returns its checks as (name, value, op, bound, fmt) tuples
# ---------------------------------------------------------------------------

def _c01_lattice_unitarity() -> list[tuple]:
    model = LatticeModel(sign=+1, p=2.0, dt=0.01)
    psi0 = make_initial_lattice(InitialData.random_phase(1.0, seed=5), 4096)
    records, _ = run_lattice(model, psi0, t_final=100.0, record_dt=10.0)
    m0 = records[0].global_mass
    drift = max(abs(r.global_mass - m0) / m0 for r in records)
    return [("drift", drift, "<=", 1e-12, ".3e")]


def _c02_linear_equivalence() -> list[tuple]:
    t_final = 50.0
    extent = max(default_half_width(t_final), 256)
    model = LatticeModel(dt=0.05, coupling=0.0)
    psi0 = make_initial_lattice(InitialData.delta(1.0), extent)
    _, psi = run_lattice(model, psi0, t_final, record_dt=t_final)  # 1000 steps
    exact = linear_evolve(psi0, kernel_table(t_final, extent))
    err = float(np.max(np.abs(psi - exact)))
    return [("sup_err", err, "<=", 1e-8, ".3e")]


def _c03_kernel_oracle() -> list[tuple]:
    worst_pair = 0.0
    worst_unitarity = 0.0
    for t in (10.0, 50.0, 200.0):
        tab = kernel_table(t)
        half_width = _extent(tab)
        worst_unitarity = max(worst_unitarity, abs(1.0 - float(np.sum(np.abs(tab) ** 2))))
        step = max(1, int(t) // 6)
        phase = np.exp(-2j * t)
        for n in range(0, int(2 * t) + 40, step):
            diff = abs(tab[n + half_width] - phase * kernel_integral(2.0 * t, n))
            worst_pair = max(worst_pair, diff)
    return [
        ("recurrence_vs_quadrature", worst_pair, "<=", 1e-12, ".3e"),
        ("unitarity_deficit", worst_unitarity, "<=", 1e-12, ".3e"),
    ]


def _c04_gronwall_mass() -> list[tuple]:
    t0 = 50.0
    extent = 192
    model = LatticeModel(sign=+1, p=2.0, dt=0.01)
    weight = WeightProfile(x0=0, R=1.0, t0=t0)
    seeds = range(100)
    psi0 = np.stack([
        make_initial_lattice(InitialData.random_phase(1.0, seed), extent) for seed in seeds
    ])
    records, _ = run_lattice_batch(model, psi0, t0, record_dt=t0, weights=[weight] * len(seeds))
    worst = max(rows[-1].local_mass / rows[0].local_mass for rows in records)
    return [("max_mass_ratio", worst, "<=", 2.0 ** 3 * (1.0 + 1e-6), ".4f")]


# the three bounded data classes of Proposition 2.1
_GROWTH_DATA = {
    "constant": InitialData.constant(1.0),
    "random_phase": InitialData.random_phase(1.0, 11),
    "periodic": InitialData.periodic([0.5, 0.5], [0.9, 2.3]),
}


def _growth_runs(specs: list[InitialData], sign: int):
    """(times, sup norms) of each spec's run to T = 200, read off one
    ``lattice_states`` stream of the specs as a batch, and the rows' values
    after t0 = 10, 20, 50 and 100 (1000 to 10000 steps), by t0."""
    extent = 512
    model = LatticeModel(sign=sign, p=2.0, dt=0.01)
    psi0 = np.stack([make_initial_lattice(spec, extent) for spec in specs])
    window_t0 = {round(t0 / model.dt): t0 for t0 in (10.0, 20.0, 50.0, 100.0)}
    times, sups, windows = [], [], {}
    for t, vals in lattice_states(model, psi0, 200.0, record_dt=0.5):
        times.append(t)
        sups.append(np.max(np.abs(vals), axis=-1))
        if round(t / model.dt) in window_t0:
            windows[window_t0[round(t / model.dt)]] = vals.copy()
    return [(np.array(times), sup) for sup in np.array(sups).T], windows


def _c05_prop21() -> list[tuple]:
    runs = {sign: _growth_runs(list(_GROWTH_DATA.values()), sign) for sign in (+1, -1)}
    slopes = [
        (f"slope[{kind}/{sign:+d}]", fit_growth(*runs[sign][0][i], (10.0, 200.0)).slope, "<=", 0.55, ".3f")
        for i, kind in enumerate(_GROWTH_DATA)
        for sign in (+1, -1)
    ]
    # windowed mass average stability across t0 on the defocusing random run
    averages = [windowed_mass_avg(psis[1], 0, t0) for t0, psis in runs[+1][1].items()]
    return slopes + [("mass_avg_spread", max(averages) / min(averages), "<=", 4.0, ".2f")]


def _c06_prop22() -> list[tuple]:
    ((t, sup),), windows = _growth_runs([_GROWTH_DATA["random_phase"]], +1)
    quartics = [windowed_quartic_avg(psi, 0, t0) for t0, (psi,) in windows.items()]
    return [
        ("quartic_spread", max(quartics) / min(quartics), "<=", 4.0, ".2f"),
        ("sup_slope", fit_growth(t, sup, (10.0, 200.0)).slope, "<=", 0.30, ".3f"),
    ]


def _c07_lemma_a() -> list[tuple]:
    checks = []
    pairing = True
    for t0 in (25.0, 100.0, 400.0):
        tab = kernel_table(t0)
        evolved = linear_evolve(adversarial_data(tab), tab)
        ratio = abs(evolved[_extent(tab)]) / np.sqrt(t0)  # site 0
        checks += [(f"ratio_t{int(t0)}", ratio, op, bound, ".3f") for op, bound in ((">=", 0.3), ("<=", 2.0))]
        pairing = pairing and pairing_check(t0)
    (m2,) = random_ensemble_second_moment([kernel_table(50.0)], 1.0, 200, seed=7)
    return checks + [
        ("pairing", pairing, "==", True),
        ("ensemble_m2_err", abs(m2 - 1.0), "<=", 4.0 / np.sqrt(200), ".3f"),
    ]


def _c08_continuum_linear_oracle() -> list[tuple]:
    box, size = 256.0, 4096
    coeffs = np.ones(41)
    u0 = make_initial_grid(InitialData.gaussian_comb(coeffs, -20), box, size)
    worst = 0.0
    for t in (0.5, 2.0, 5.0):
        out = linear_propagate(u0, t)
        exact = comb_oracle(coeffs, t, u0.x, -20)
        worst = max(worst, float(np.max(np.abs(out.values - exact))))
    return [("sup_err", worst, "<=", 1e-8, ".3e")]


def _c09_regularized_conservation() -> list[tuple]:
    gauss = Mollifier.gaussian(1.0)
    box, size = 128.0, 1024
    u0 = make_initial_grid(InitialData.gaussian_comb(np.ones(127), -63), box, size)
    model = ContinuumModel(gauss, box, size, 1e-3)
    traj = run_continuum(u0, model, 10.0, 0.5)
    mass, energy = _record_pass(traj.values, box, gauss)[:, :2].T.tolist()
    mass_drift = max(abs(m - mass[0]) / mass[0] for m in mass)
    energy_drift = max(abs(e - energy[0]) / energy[0] for e in energy)

    # dt-halving self-convergence on a shorter horizon
    box2, size2 = 128.0, 512
    u2 = make_initial_grid(InitialData.gaussian_comb(0.5 * np.ones(41), -20), box2, size2)

    def terminal(dt):
        return run_continuum(u2, ContinuumModel(gauss, box2, size2, dt), 1.0, 1.0).values[-1]

    ref = terminal(1.0 / 1024.0)
    gain = float(
        np.max(np.abs(terminal(0.02) - ref)) / np.max(np.abs(terminal(0.01) - ref))
    )
    return [
        ("mass_drift", mass_drift, "<=", 1e-8, ".3e"),
        ("energy_drift", energy_drift, "<=", 1e-6, ".3e"),
        ("halving_gain", gain, ">=", 12.0, ".1f"),
    ]


def _c10_picard_oracle() -> list[tuple]:
    gauss = Mollifier.gaussian(1.0)
    box, size = 64.0, 512
    u0 = make_initial_grid(InitialData.gaussian_comb(0.5 * np.ones(17), -8), box, size)
    model = ContinuumModel(gauss, box, size, 1e-3)
    res = picard_solve(u0, 0.1, model, tol=1e-8)
    traj = run_continuum(u0, model, 0.1, 1e-3)
    diff = float(np.max(np.abs(res.trajectory.values - traj.values)))
    return [("sup_diff", diff, "<=", 1e-6, ".3e"), ("iterations", res.iterations, "<=", 8, "d")]


def _c11_bootstrap_monitor() -> list[tuple]:
    gauss = Mollifier.gaussian(1.0)
    big_r = 256.0
    box, size = 2048.0, 8192
    coeffs = np.ones(2017)
    u0 = make_initial_grid(InitialData.gaussian_comb(coeffs, -1008), box, size)
    model = ContinuumModel(gauss, box, size, 2e-3, sign=+1)
    t_window = big_r ** 0.125  # = 2
    traj = run_continuum(u0, model, t_window, 0.1)
    probes = [LocalEnergyProbe(x0, big_r) for x0 in (-256.0, 0.0, 256.0)]
    report = bootstrap_monitor(traj, probes, gauss, flag_factor=2.0)
    sup = np.max(np.abs(traj.values), axis=-1)
    slope = fit_growth(traj.times, np.maximum(sup, 1e-30), (t_window / 10.0, t_window)).slope
    return [
        ("max_probe_ratio", report.max_ratio, "<=", 2.0, ".3f"),
        ("sup_slope", slope, "<=", 8.0 / 3.0, ".3f"),
    ]


def _c12_nlw() -> list[tuple]:
    def real_band(amplitude, k_band, seed, box, size):  # the wave equation evolves real data
        spec = InitialData.random_band(amplitude, k_band, seed)
        return GridField(make_initial_grid(spec, box, size).values.real, box)

    # (a) energy drift over [0, 50]
    box, size = 128.0, 512
    u0 = real_band(1.0, 2.0, 4, box, size)
    u1 = real_band(1.0, 2.0, 5, box, size)
    records, _ = run_nlw(WaveState(u=u0, v=u1), 50.0, 2.5e-4, 1.0)
    e0 = records[0][2]
    drift = max(abs(e - e0) / abs(e0) for _, _, e in records)

    # (b) cone test at T=20
    cbox, csize = 160.0, 8192
    c0 = real_band(0.5, 0.5, 11, cbox, csize)
    c1 = real_band(0.5, 0.5, 12, cbox, csize)
    cone = nlw_cone_test(c0, c1, 20.0, 3.2e-4)

    # (c) sup-norm growth slopes against 1/(p+2) + 0.05, rounded down to 0.38 at p = 1
    checks = [("energy_drift", drift, "<=", 1e-6, ".3e"), ("cone_diff", cone, "<=", 1e-10, ".3e")]
    for p, bound in ((1, 0.38), (2, 0.30)):
        sbox, ssize = 256.0, 1024
        s0 = real_band(1.0, 1.0, 21, sbox, ssize)
        s1 = real_band(1.0, 1.0, 22, sbox, ssize)
        recs, _ = run_nlw(WaveState(u=s0, v=s1), 100.0, 0.0625, 0.5, p=p)
        t = np.array([r[0] for r in recs])
        sup = np.array([r[1] for r in recs])
        checks.append((f"slope_p{p}", fit_growth(t, sup, (10.0, 100.0)).slope, "<=", bound, ".3f"))
    return checks


def _c13_newton() -> list[tuple]:
    box = 2 * np.pi
    size = 64
    x = -box / 2 + (box / size) * np.arange(size)
    psi0 = GridField(values=(0.1 * np.cos(x)).astype(complex), box_length=box)
    res = newton_iterate(psi0, 0.3, 1e-3, tol=1e-13, max_iter=8)
    # first iterate with residual <= 1e-10; inf (a failure) when none gets there
    first = min((r.n for r in res.rows if r.sup_residual <= 1e-10), default=math.inf)
    pairs = [
        (np.log(a.eps), np.log(b.eps))
        for a, b in zip(res.rows, res.rows[1:])
        if a.eps < 1.0 and b.eps > 1e-14
    ]
    slope = float(np.polyfit([p[0] for p in pairs], [p[1] for p in pairs], 1)[0]) if len(pairs) >= 2 else 0.0

    model = ContinuumModel(Mollifier.fourier_cutoff(np.inf), box, size, 1e-4, dealias=False)
    ref = run_continuum(psi0, model, 0.3, 1e-3)
    diff = float(np.max(np.abs(res.trajectory.values - ref.values)))

    # Lemma 4.3 majorant inequality on 100 random band-limited fields
    rng = np.random.default_rng(42)
    lemma_ok = True
    for _ in range(100):
        band = int(rng.integers(1, 12))
        coeffs = np.zeros(size, dtype=complex)
        coeffs[0] = rng.standard_normal()
        for m in range(1, band + 1):
            coeffs[m] = rng.standard_normal() + 1j * rng.standard_normal()
            coeffs[-m] = rng.standard_normal() + 1j * rng.standard_normal()
        f = GridField(values=np.fft.ifft(coeffs * size), box_length=box)
        p = int(rng.integers(1, 4))
        delta = float(rng.uniform(0.05, 0.35))
        lhs = majorant_norm(f, AnalyticNormParams(1.0 - delta, p))
        rhs = (p + 1) * (p / np.e) ** p * 1.05 * delta ** -p * majorant_norm(
            f, AnalyticNormParams(1.0, 0)
        )
        lemma_ok = lemma_ok and (lhs <= rhs)
    return [
        ("converged", res.converged, "==", True),
        ("n_residual_1e-10", first, "<=", 5, "g"),
        ("slope", slope, ">=", 1.8, ".2f"),
        ("vs_fine", diff, "<=", 1e-8, ".3e"),
        ("lemma43", lemma_ok, "==", True),
    ]


_DETERMINISM_CONFIG = """
engine = lattice
lattice.extent = 128
lattice.dt = 0.01
data.kind = random_phase
data.amplitude = 1.0
data.seed = 99
run.t_final = 2.0
run.record_dt = 0.25
weight.t0 = 2.0
"""


def _c14_determinism() -> list[tuple]:
    import tempfile

    config = parse_config_text(_DETERMINISM_CONFIG)
    with tempfile.TemporaryDirectory() as tmp:
        d1 = run_experiment(config, Path(tmp) / "a")
        d2 = run_experiment(config, Path(tmp) / "b")
        b1 = (d1 / "series.csv").read_bytes()
        b2 = (d2 / "series.csv").read_bytes()
    return [("byte_identical", b1 == b2, "==", True)]


# name -> function, detail, runtime bound in seconds (None: unbounded)
CRITERIA: dict[str, tuple[Callable[[], list[tuple]], str, float | None]] = {
    "c01_lattice_unitarity": (_c01_lattice_unitarity,
        "split-step global mass over 1e4 steps, N=4096, random phases", 30.0),
    "c02_linear_equivalence": (_c02_linear_equivalence,
        "coupling-off split step vs Bessel kernel, delta data, t=50", 10.0),
    "c03_kernel_oracle": (_c03_kernel_oracle, "t in (10.0, 50.0, 200.0)", None),
    "c04_gronwall_mass": (_c04_gronwall_mass,
        "100 random bounded data, R=1, t0=50, bound 2^3*(1+1e-6) (exponential Gronwall form)", None),
    "c05_prop21_sup_growth": (_c05_prop21,
        "three data classes, both signs; windowed mass at t0 in {10,20,50,100}", None),
    "c06_prop22_defocusing": (_c06_prop22,
        "defocusing windowed quartic average and sup-norm growth", None),
    "c07_lemma_a_lower_bound": (_c07_lemma_a,
        "adversarial phase alignment; measured delta pinned at 0.3; |E-1| <= 4/sqrt(200)", None),
    "c08_continuum_linear_oracle": (_c08_continuum_linear_oracle,
        "spectral propagator vs Gaussian-comb closed form, t<=5", None),
    "c09_regularized_conservation": (_c09_regularized_conservation,
        "comb data, Gaussian mollifier, t in [0,10], dt=1e-3", None),
    "c10_picard_oracle": (_c10_picard_oracle,
        "Duhamel fixed point vs Lawson-RK4 on [0, 0.1], tol=1e-8", None),
    "c11_bootstrap_monitor": (_c11_bootstrap_monitor,
        "defocusing comb, R=256, window T=R^(1/8)=2; t^8/t^(8/3) rates are bounds, not matches", None),
    "c12_nlw_finite_speed": (_c12_nlw,
        "leapfrog energy, chi-truncated cone check at T=20, growth exponents", None),
    "c13_newton": (_c13_newton, "psi0=0.1cos(x), T=0.3; quadratic-convergence ladder", None),
    "c14_determinism": (_c14_determinism, "repeated seeded runs", None),
}


def run_criterion(name: str) -> CriterionResult:
    """Execute one criterion in isolation; its runtime bound, if any, is one
    more check.  An unknown name raises KeyError."""
    func, detail, max_runtime = CRITERIA[name]
    start = time.perf_counter()
    error = ""
    try:
        checks = [Check(*c) for c in func()]
    except Exception as exc:  # a crash is a failure, not an abort
        checks, error = [], f"{type(exc).__name__}: {exc}"
    runtime = time.perf_counter() - start
    if checks and max_runtime is not None:  # no checks stays a failure
        checks.append(Check("runtime_s", runtime, "<=", max_runtime, ".1f"))
    return CriterionResult(name, tuple(checks), runtime, detail, error)


def acceptance_suite(out_dir: str | Path | None) -> tuple[CriterionResult, ...]:
    """Run every criterion, printing its line as it ends, then the summary
    line; failures are results, never exceptions.  Returns the results in
    ``CRITERIA`` order; with an out_dir, also writes the printed lines to
    ``acceptance_report.txt`` and the checks to ``acceptance_report.csv``."""
    results = []
    for name in CRITERIA:
        res = run_criterion(name)
        results.append(res)
        print(res.line())
    n_fail = sum(not r.passed for r in results)
    summary = f"{'ALL PASS' if n_fail == 0 else f'{n_fail} FAILED'} ({len(results)} criteria)"
    print(summary)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(
            out / "acceptance_report.csv",
            ["criterion", "check", "value", "op", "bound", "margin", "passed", "runtime_s"],
            [row for r in results for row in r.rows()],
        )
        lines = [r.line() for r in results] + [summary]
        (out / "acceptance_report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return tuple(results)
