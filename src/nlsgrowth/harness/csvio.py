"""Deterministic CSV emission: UTF-8, header row, 17 significant digits.

Floats are written as ``%.16e`` so identical runs produce byte-identical
files regardless of platform printing defaults.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

__all__ = ["write_csv", "read_csv"]


def _format_value(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, float) or isinstance(v, np.floating):
        return f"{float(v):.16e}"
    return str(v)


def write_csv(path: str | Path, columns: list[str], rows) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(f"row width {len(row)} != header width {len(columns)}")
        lines.append(",".join(_format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def read_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Columns as float arrays keyed by header name.

    Raises ValueError naming a column whose first entry is not a number (the
    ``case`` column of a ``sweep_index.csv``, say).
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        first = fh.readline().strip().split(",")
    for name, cell in zip(header, first):
        try:
            float(cell)
        except ValueError:
            raise ValueError(f"column {name!r} of {path} holds {cell!r}, not a number") from None
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}
