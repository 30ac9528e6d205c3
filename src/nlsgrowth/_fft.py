"""The engines' one FFT seam: scipy's pocketfft kernels without scipy.fft's
dispatch, which costs more than the kernel at the engines' sizes.  Each call
passes what scipy's ``_pocketfft/basic.py`` passes for a native array on one
worker (norm 0 forward, 2 inverse; overwrite_x hands x in as ``out``), so the
results are bitwise those of ``scipy.fft``.  Inputs are not coerced.

The extension module is loaded by path, under its own name, so neither
``scipy`` nor ``scipy.fft`` runs its ``__init__``; a scipy without it fails
the import.  Before that, on glibc, the seam fixes malloc's mmap and trim
thresholds: at a non-fast length such as 8193 pocketfft allocates its
Bluestein scratch on every call, and with fixed thresholds that scratch comes
back from the heap instead of fresh pages.  Both are set because setting
either one turns off glibc's dynamic thresholds.  Elsewhere nothing is set."""

import ctypes
import importlib.machinery
import importlib.util
import os

# glibc's <malloc.h> parameter numbers and the values the seam sets
_MALLOC_THRESHOLDS = (("M_MMAP_THRESHOLD", -3, 2 << 20), ("M_TRIM_THRESHOLD", -1, 4 << 20))
_POCKETFFT = "scipy.fft._pocketfft.pypocketfft"


def _glibc_version():
    """glibc's version string, or None on any other C library."""
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None


def _scipy_version():
    from importlib.metadata import PackageNotFoundError, version

    try:
        return f"scipy {version('scipy')}"
    except PackageNotFoundError:
        return "no installed scipy"


def _pocketfft_spec():
    """The extension's spec in scipy's directory, found without importing
    scipy, or None."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        return None
    directory = os.path.join(scipy.submodule_search_locations[0], "fft", "_pocketfft")
    loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    return importlib.machinery.FileFinder(directory, loader).find_spec(_POCKETFFT)


_glibc = _glibc_version()
if _glibc is not None:
    _mallopt = ctypes.CDLL(None).mallopt
    for _name, _param, _value in _MALLOC_THRESHOLDS:
        if _mallopt(_param, _value) != 1:
            raise ImportError(f"{_glibc} rejected mallopt({_name}, {_value})")

_spec = _pocketfft_spec()
if _spec is None:
    raise ImportError(f"{_scipy_version()} has no {_POCKETFFT}")
_pocketfft = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_pocketfft)
c2c, c2r, r2c = _pocketfft.c2c, _pocketfft.c2r, _pocketfft.r2c


def fft(x, axis=-1, overwrite_x=False):
    return c2c(x, (axis,), True, 0, x if overwrite_x else None, 1)


def ifft(x, axis=-1, overwrite_x=False):
    return c2c(x, (axis,), False, 2, x if overwrite_x else None, 1)


def rfft(x, out=None):
    return r2c(x, (-1,), True, 0, out, 1)


def irfft(x, n, out=None):
    return c2r(x, (-1,), n, False, 2, out, 1)
