"""The FFT seam ``nlsgrowth._fft`` equals ``scipy.fft`` bit for bit.

Every transform is compared as uint64 views at each length and batch shape
the criteria use, so the sha256 pins and printed values rest on scipy's
pocketfft alone.  The seam is the engines' one path to an FFT: no module
under ``src/`` imports ``scipy.fft``, not even its helpers or the seam, which
loads the pocketfft module by path, and a missing pocketfft module fails the
import instead of falling back.
"""

import ast
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import fft as sfft

import nlsgrowth
from nlsgrowth import _fft

# c13 and Newton (64), c04/c05 rings (385), c02's ring (513), c07's kernels
# at t0 = 25, 100, 400 (335, 687, 1969), c09-c12 grids (512, 1024, 8192),
# rings of 1025 and c01's 8193
C2C_LENGTHS = (64, 335, 385, 512, 513, 687, 1024, 1025, 1969, 8192, 8193)
# [B, M] batches along the last axis, and Newton's and Picard's
# [n_times, M] trajectories along axis 1
C2C_BATCHES = ((8, 385, -1), (3, 1025, -1), (2, 8192, -1), (301, 64, 1), (101, 512, 1))
REAL_SHAPES = ((512,), (1024,), (2, 8192))


def _complex(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _assert_bitwise(seam, ref):
    assert seam.dtype == ref.dtype and seam.shape == ref.shape
    assert np.array_equal(seam.view(np.uint64), ref.view(np.uint64))


def _c2c_cases():
    for n in C2C_LENGTHS:
        yield pytest.param((n,), -1, id=f"{n}")
    for rows, n, axis in C2C_BATCHES:
        yield pytest.param((rows, n), axis, id=f"{rows}x{n}-axis{axis}")


@pytest.mark.parametrize("name", ("fft", "ifft"))
@pytest.mark.parametrize("shape,axis", _c2c_cases())
def test_c2c_bitwise(name, shape, axis):
    x = _complex(shape, shape[-1])
    _assert_bitwise(getattr(_fft, name)(x, axis=axis), getattr(sfft, name)(x, axis=axis))


@pytest.mark.parametrize("name", ("fft", "ifft"))
@pytest.mark.parametrize("n", (64, 385, 8193))
def test_c2c_real_input_bitwise(name, n):
    # majorant_norm transforms whatever dtype its field holds
    x = np.random.default_rng(n).standard_normal((3, n))
    _assert_bitwise(getattr(_fft, name)(x, axis=-1), getattr(sfft, name)(x, axis=-1))


@pytest.mark.parametrize("name", ("fft", "ifft"))
@pytest.mark.parametrize("shape,axis", [((64,), -1), ((8, 385), -1), ((301, 64), 1), ((1, 8193), -1)])
@pytest.mark.parametrize("overwrite_x", (False, True))
def test_overwrite_x_reuses_the_input_as_scipy_does(name, shape, axis, overwrite_x):
    # scipy returns a view of its input's buffer, the seam the input itself
    a, b = _complex(shape, 5), _complex(shape, 5)
    seam = getattr(_fft, name)(a, axis=axis, overwrite_x=overwrite_x)
    ref = getattr(sfft, name)(b, axis=axis, overwrite_x=overwrite_x)
    assert np.shares_memory(seam, a) == np.shares_memory(ref, b) == overwrite_x
    assert (seam is a) == overwrite_x
    _assert_bitwise(seam, ref)


@pytest.mark.parametrize("shape", REAL_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_real_transforms_bitwise(shape):
    u = np.random.default_rng(shape[-1]).standard_normal(shape)
    u_hat = _fft.rfft(u)
    _assert_bitwise(u_hat, sfft.rfft(u))
    n = shape[-1]
    _assert_bitwise(_fft.irfft(u_hat, n), sfft.irfft(u_hat, n=n))
    # nlw_energy's strided input: the real part of a complex array
    z = _complex(shape, n + 1)
    _assert_bitwise(_fft.rfft(z.real), sfft.rfft(z.real))


def _fresh_python(code, *path):
    """Run code in a fresh interpreter that imports from path, then the
    package's own source tree."""
    src = Path(nlsgrowth.__file__).parents[1]
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (*path, src)))),
    )


def test_missing_pocketfft_fails_the_import(tmp_path):
    # a scipy package that holds no pocketfft module, and whose __init__ the
    # seam must not run
    (tmp_path / "scipy").mkdir()
    (tmp_path / "scipy" / "__init__.py").write_text("raise AssertionError('scipy/__init__.py ran')\n")
    proc = _fresh_python("import nlsgrowth.continuum\n", tmp_path)
    assert proc.returncode != 0
    last = proc.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: ")
    assert "scipy.fft._pocketfft.pypocketfft" in last and f"scipy {scipy.__version__}" in last


def test_runner_import_leaves_scipy_unloaded():
    # the seam loads pocketfft by path: neither scipy's nor scipy.fft's
    # __init__ runs, and the process pays for neither import
    proc = _fresh_python(
        "import sys\nimport nlsgrowth.harness.runner\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


BLUESTEIN_PAIR_FAULTS = """\
import resource
import sys
import numpy as np
import nlsgrowth.lattice
from nlsgrowth import _fft


def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


assert "scipy.fft" not in sys.modules
before = faults()
nlsgrowth.lattice._fft_pair_scale(8193)
print(faults() - before)
for rows in (1, 4):
    x = np.exp(1j * np.arange(8193.0)) * np.ones((rows, 1))
    for _ in range(20):
        _fft.ifft(_fft.fft(x))
    before = faults()
    for _ in range(200):
        _fft.ifft(_fft.fft(x))
    print((faults() - before) / 200)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="a property of glibc's malloc")
def test_bluestein_pairs_reuse_the_heap():
    # c01's speed rests on this: at the non-fast length 8193 pocketfft allocates
    # its Bluestein scratch on every call, and that scratch comes back from the
    # heap instead of fresh pages only because the seam fixes glibc's mmap and
    # trim thresholds when it loads.  Left to glibc's dynamic thresholds, a
    # [4, 8193] pair took about 1,200 minor faults and the pair-scale
    # calibration about 43,700 even with scipy.fft imported; without
    # scipy.fft, a [1, 8193] pair took about 190
    proc = _fresh_python(BLUESTEIN_PAIR_FAULTS)
    assert proc.returncode == 0, proc.stderr
    calibration, *pairs = proc.stdout.split()
    assert int(calibration) < 1000
    assert [float(p) < 1.0 for p in pairs] == [True, True]


def _in_scipy_fft(name):
    return name == "scipy.fft" or name.startswith("scipy.fft.")


def _scipy_fft_imports(tree):
    """Every scipy.fft module (or name from it) that a module imports, and
    ``scipy.fft`` for each read of it from ``scipy``, which imports it too."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names if _in_scipy_fft(a.name))
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from (f"{node.module}.{a.name}" for a in node.names if _in_scipy_fft(f"{node.module}.{a.name}"))
        elif isinstance(node, ast.Attribute) and ast.unparse(node) == "scipy.fft":
            yield "scipy.fft"


def test_seam_is_the_only_transform_path():
    # no module under src/ imports scipy.fft at all, helpers and the seam included
    src = Path(nlsgrowth.__file__).parent
    stray = []
    for path in sorted(src.rglob("*.py")):
        imports = set(_scipy_fft_imports(ast.parse(path.read_text(encoding="utf-8"))))
        stray += [(path.relative_to(src).as_posix(), name) for name in sorted(imports)]
    assert not stray


def test_transform_scan_catches_every_import_form():
    text = (
        "import scipy.fft\nimport scipy.fft as sf\nfrom scipy import fft as f2\n"
        "from scipy.fft import rfftfreq\nfrom scipy.fft._pocketfft import pypocketfft\n"
        "import scipy\nfrom scipy import special, fftpack\nimport numpy.fft\nscipy.__version__\n"
    )
    assert sorted(_scipy_fft_imports(ast.parse(text))) == [
        "scipy.fft", "scipy.fft", "scipy.fft", "scipy.fft._pocketfft.pypocketfft", "scipy.fft.rfftfreq",
    ]
    assert list(_scipy_fft_imports(ast.parse("import scipy\nscipy.fft.ifft(x)\n"))) == ["scipy.fft"]
