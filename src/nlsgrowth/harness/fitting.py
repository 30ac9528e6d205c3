"""Power-law exponent estimation: least squares of log(value) vs log(t)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["FitResult", "fit_growth"]


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    window: tuple[float, float]
    residual_rms: float
    n_points: int


def fit_growth(t: np.ndarray, values: np.ndarray, window: tuple[float, float]) -> FitResult:
    """Fit value ~ C * t^slope on the samples with t inside ``window``.

    Requires at least 8 in-window samples with positive t and finite, positive value.
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    t_lo, t_hi = window
    if not t_lo < t_hi:
        raise ValueError("window must satisfy t_lo < t_hi")
    mask = (t >= t_lo) & (t <= t_hi) & (t > 0)
    if np.count_nonzero(mask) < 8:
        raise ValueError(
            f"need >= 8 samples in window [{t_lo}, {t_hi}], got {np.count_nonzero(mask)}"
        )
    tv = t[mask]
    vv = values[mask]
    if not np.all(np.isfinite(vv) & (vv > 0)):
        raise ValueError("growth fit requires finite, positive values in the window")
    lx = np.log(tv)
    ly = np.log(vv)
    design = np.column_stack([lx, np.ones_like(lx)])
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    resid = ly - (slope * lx + intercept)
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        window=(float(t_lo), float(t_hi)),
        residual_rms=float(np.sqrt(np.mean(resid ** 2))),
        n_points=int(len(tv)),
    )

