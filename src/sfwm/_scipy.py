"""The compiled SciPy modules behind the CLI's Bessel functions and Gram,
and the OpenBLAS thread pools that numpy and SciPy bring with them.

Importing ``scipy.special`` or ``scipy.linalg`` runs the package
``__init__``, which loads ``scipy._lib._util`` and with it ``numpy.f2py``
and ``numpy.testing``: ~0.4 s of a CLI call's start-up for five compiled
functions (``j0``, ``j1``, ``k0``, ``k1``, ``zherk``).  ``extension`` loads
the one extension module that holds them straight from SciPy's install
directory, under its full dotted name, so the public modules export the
very same objects.  SciPy's own ``__init__`` (13-19 ms) is not run either:
its directory comes from the import system's spec, and ``scipy_version``
reads the version string from SciPy's ``version.py``.

An OpenBLAS pool thread spins ~0.1 s of CPU each time it runs out of work,
before it sleeps: after the pool starts, and after every threaded call.
``park_openblas`` stops a pool once its work is done: numpy's here, since
numpy's OpenBLAS starts its pool when it loads, and again after the numpy
calls that can run threaded on large grids (the marginal products, once
their last block is summed, and ``schmidt_decompose``'s SVD); SciPy's
after every Gram.
"""

from __future__ import annotations

import ctypes
import importlib.util
import os
import sys
from importlib.machinery import PathFinder
from pathlib import Path

import numpy

NUMPY_DIR = Path(numpy.__path__[0])
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


#: The ``blas_thread_shutdown_`` functions found for each package directory.
_SHUTDOWNS: dict[Path, list] = {}


def _pool_shutdowns(package_dir: Path) -> list:
    """``blas_thread_shutdown_`` of each loaded OpenBLAS vendored next to
    ``package_dir``; a library that is not loaded is not loaded here."""
    found = []
    for path in sorted(package_dir.parent.glob(f"{package_dir.name}.libs/libscipy_openblas*.so")):
        try:
            lib = ctypes.PyDLL(str(path), mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        shutdown = getattr(lib, "blas_thread_shutdown_", None)
        if shutdown is not None:
            shutdown.argtypes = []
            shutdown.restype = ctypes.c_int
            found.append(shutdown)
    return found


def park_openblas(package_dir: Path) -> None:
    """Stop the worker threads of the OpenBLAS vendored next to
    ``package_dir`` (the wheel layout ``<pkg>/../<pkg>.libs/libscipy_openblas*.so``),
    if the process has loaded it.

    OpenBLAS starts the pool again, at the same size, at its next threaded
    call, so no result moves.  ``PyDLL`` keeps the GIL through the call, so
    no other Python thread can start a BLAS call meanwhile; a numpy call
    already running on another thread (numpy releases the GIL) could hang,
    so the package, which makes all its BLAS calls on one thread, parks
    only after its own calls return.  Where no such library is loaded, or
    it exports no ``blas_thread_shutdown_`` (a system BLAS, MKL), nothing
    happens.  The lookup (~0.5 ms) is kept once it finds a library."""
    shutdowns = _SHUTDOWNS.get(package_dir) or _pool_shutdowns(package_dir)
    if shutdowns:
        _SHUTDOWNS[package_dir] = shutdowns
    for shutdown in shutdowns:
        shutdown()


park_openblas(NUMPY_DIR)
