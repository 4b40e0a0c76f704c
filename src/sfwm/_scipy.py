"""The compiled SciPy modules behind the CLI's Bessel functions, and numpy's
OpenBLAS, the one BLAS library of a CLI call.

Importing ``scipy.special`` runs the package ``__init__``, which loads
``scipy._lib._util`` and with it ``numpy.f2py`` and ``numpy.testing``:
~0.4 s of a CLI call's start-up for four compiled functions (``j0``, ``j1``,
``k0``, ``k1``).  ``extension`` loads the one extension module that holds
them straight from SciPy's install directory, under its full dotted name,
so the public modules export the very same objects.  SciPy's own
``__init__`` (13-19 ms) is not run either: its directory comes from the
import system's spec, and ``scipy_version`` reads the version string from
SciPy's ``version.py``.

``zherk`` runs the Gram in the OpenBLAS that numpy's wheel vendors, so
SciPy's BLAS, a second OpenBLAS with a second thread pool, never loads.
An OpenBLAS pool thread spins ~0.1 s of CPU each time it runs out of work,
before it sleeps: after the pool starts, and after every threaded call.
``park_openblas`` stops the pool once its work is done: here, since it
starts when the library loads, after every Gram, and after the numpy calls
that can run threaded on large grids (the marginal products, once their
last block is summed, and ``schmidt_decompose``'s SVD).
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import sys
from importlib.machinery import PathFinder
from pathlib import Path

import numpy as np

NUMPY_DIR = Path(np.__path__[0])
SCIPY_DIR = Path(importlib.util.find_spec("scipy").submodule_search_locations[0])


def scipy_version() -> str:
    """``scipy.__version__``: the ``version`` that SciPy's ``version.py`` sets,
    which its ``__init__`` re-exports."""
    spec = importlib.util.spec_from_file_location("_scipy_version", SCIPY_DIR / "version.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.version


def extension(package: str, name: str, public: str):
    """The compiled module ``scipy.<package>.<name>``, without the package's
    ``__init__``; the public module ``public`` when no such file exists
    (same objects, slower import)."""
    full = f"scipy.{package}.{name}"
    spec = PathFinder.find_spec(full, [str(SCIPY_DIR / package)])
    if spec is None:
        return importlib.import_module(public)
    if full not in sys.modules:
        module = importlib.util.module_from_spec(spec)
        sys.modules[full] = module
        spec.loader.exec_module(module)
    return sys.modules[full]


def _vendored_openblas(package_dir: Path):
    """The OpenBLAS vendored next to ``package_dir`` (the wheel layout
    ``<pkg>/../<pkg>.libs/libscipy_openblas*.so``) if the process has loaded
    it, else None; nothing is loaded here.  Its functions keep the GIL."""
    for path in sorted(package_dir.parent.glob(f"{package_dir.name}.libs/libscipy_openblas*.so")):
        try:
            return ctypes.PyDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
    return None


_OPENBLAS = _vendored_openblas(NUMPY_DIR)
_SHUTDOWN = getattr(_OPENBLAS, "blas_thread_shutdown_", None)
_CBLAS_ZHERK = getattr(_OPENBLAS, "scipy_cblas_zherk64_", None)
if _SHUTDOWN is not None:
    _SHUTDOWN.argtypes, _SHUTDOWN.restype = [], ctypes.c_int
if _CBLAS_ZHERK is not None:  # (order, uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
    _I, _D, _P = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    _CBLAS_ZHERK.argtypes = [ctypes.c_int] * 3 + [_I, _I, _D, _P, _I, _D, _P, _I]
    _CBLAS_ZHERK.restype = None
#: CBLAS column-major upper triangle; SciPy's trans 0 and 2 as CBLAS enumerators.
_COL_MAJOR_UPPER, _CBLAS_TRANS = (102, 121), {0: 111, 2: 113}


def zherk(alpha: float, a: np.ndarray, trans: int = 0, beta: float = 0.0,
          c: np.ndarray | None = None) -> np.ndarray:
    """SciPy's ``zherk(alpha, a, beta=beta, c=c, trans=trans, overwrite_c=1)``,
    bit for bit, in numpy's OpenBLAS: the upper triangle of ``alpha a a^H +
    beta c`` (trans 0) or ``alpha a^H a + beta c`` (trans 2), in ``c``, or
    else in a new Fortran-ordered array with a zero strict lower triangle.
    ``a`` is copied to Fortran order if it is not; a wrong ``a`` or ``c``
    raises, since BLAS would read or write past it.  Without numpy's OpenBLAS
    or its CBLAS zherk (another BLAS, a source build) SciPy's zherk runs;
    nothing parks SciPy's pool, so where SciPy's wheel brings its own
    OpenBLAS, its worker spins after each Gram on that fallback."""
    if _CBLAS_ZHERK is None:
        blas = extension("linalg", "_fblas", "scipy.linalg.blas")
        return blas.zherk(alpha, a, beta=beta, c=c, trans=trans, overwrite_c=1)
    if trans not in _CBLAS_TRANS:
        raise ValueError(f"trans must be 0 or 2, got {trans!r}")
    a = np.asfortranarray(a)
    if a.ndim != 2 or a.dtype != np.complex128:
        raise TypeError(f"a must be a 2-D complex128 array, got {a.ndim}-D {a.dtype}")
    n, k = a.shape[::-1] if trans else a.shape
    if c is None:
        c = np.zeros((n, n), dtype=complex, order="F")
    elif (c.shape != (n, n) or c.dtype != np.complex128 or not c.flags.f_contiguous
          or not c.flags.writeable):
        raise ValueError(f"c must be a writeable Fortran-ordered complex128 {n}x{n} array")
    _CBLAS_ZHERK(*_COL_MAJOR_UPPER, _CBLAS_TRANS[trans], n, k, alpha, a.ctypes.data,
                 max(1, a.shape[0]), beta, c.ctypes.data, max(1, n))
    return c


def park_openblas() -> None:
    """Stop the worker threads of numpy's OpenBLAS, if the process has it.
    OpenBLAS starts the pool again, at the same size, at its next threaded
    call, so no result moves.  The call keeps the GIL, so no Python thread
    can start a BLAS call meanwhile; one already running on another thread
    could hang, so the package, which makes all its BLAS calls on one
    thread, parks only after its own calls return."""
    if _SHUTDOWN is not None:
        _SHUTDOWN()


park_openblas()
