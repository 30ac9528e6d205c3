"""Batched scipy.fft rows must equal 1-D transforms bit for bit.

The engines share last-axis kernels between one-row and many-row callers
(``run_nlw`` and ``nlw_cone_test``, the one mollified cubic of the Lawson
stage and ``picard_solve``, a lattice batch and its rows stepped alone, and
the four probes of the FFT-pair calibration); their outputs stay
byte-identical only while this holds.
"""

import numpy as np
import pytest
from scipy import fft as _fft

# the grids, and the lattice rings of c04 and the sweeps (385), c05/c06 (1025)
# and c01 (8193, a non-fast length that pocketfft transforms by Bluestein)
SIZES = (16, 64, 385, 512, 1024, 1025, 8192, 8193)
ROWS = 3


def _input(name, n, rng):
    if name == "rfft":
        return rng.standard_normal((ROWS, n))
    m = n // 2 + 1 if name == "irfft" else n
    return rng.standard_normal((ROWS, m)) + 1j * rng.standard_normal((ROWS, m))


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("name", ("fft", "ifft", "rfft", "irfft"))
def test_batched_rows_bitwise_equal(name, n, workers):
    transform = getattr(_fft, name)
    data = _input(name, n, np.random.default_rng(n))
    kwargs = {"n": n} if name == "irfft" else {}
    batched = transform(data, axis=-1, workers=workers, **kwargs)
    for row in range(ROWS):
        single = transform(data[row], workers=workers, **kwargs)
        assert batched[row].tobytes() == single.tobytes()
