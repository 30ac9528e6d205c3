"""The engines' one FFT seam: scipy's pocketfft kernels without scipy.fft's
dispatch, which costs more than the kernel at the engines' sizes.  Each call
passes what scipy's ``_pocketfft/basic.py`` passes for a native array on one
worker (norm 0 forward, 2 inverse; overwrite_x hands x in as ``out``), so the
results are bitwise those of ``scipy.fft``.  Inputs are not coerced."""

import scipy

try:
    from scipy.fft._pocketfft.pypocketfft import c2c, c2r, r2c
except ImportError as exc:
    raise ImportError(f"scipy {scipy.__version__} has no scipy.fft._pocketfft.pypocketfft") from exc


def fft(x, axis=-1, overwrite_x=False):
    return c2c(x, (axis,), True, 0, x if overwrite_x else None, 1)


def ifft(x, axis=-1, overwrite_x=False):
    return c2c(x, (axis,), False, 2, x if overwrite_x else None, 1)


def rfft(x, out=None):
    return r2c(x, (-1,), True, 0, out, 1)


def irfft(x, n, out=None):
    return c2r(x, (-1,), n, False, 2, out, 1)
