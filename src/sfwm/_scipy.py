"""The compiled SciPy modules behind the CLI's Bessel functions and Gram.

Importing ``scipy.special`` or ``scipy.linalg`` runs the package
``__init__``, which loads ``scipy._lib._util`` and with it ``numpy.f2py``
and ``numpy.testing``: ~0.4 s of a CLI call's start-up for five compiled
functions (``j0``, ``j1``, ``k0``, ``k1``, ``zherk``).  ``extension`` loads
the one extension module that holds them straight from SciPy's install
directory, under its full dotted name, so the public modules export the
very same objects.
"""

from __future__ import annotations

import importlib.util
import sys
from importlib.machinery import PathFinder
from pathlib import Path

import scipy

SCIPY_DIR = Path(scipy.__path__[0])


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
