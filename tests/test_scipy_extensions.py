"""The compiled SciPy kernels that sfwm loads without their packages.

Every output bit rests on these being the public API's own objects, so a
SciPy release that moves one of them fails here rather than silently.
"""

import sys

import numpy as np
import scipy.linalg.blas
import scipy.special

from sfwm import _scipy, correlation, dispersion


def test_bessel_functions_are_scipy_specials():
    for name in ("j0", "j1", "k0", "k1"):
        assert getattr(dispersion, name) is getattr(scipy.special, name), name


def test_gram_zherk_is_scipys_public_zherk(monkeypatch):
    loaded = []

    def spy(*args):
        loaded.append(_scipy.extension(*args))
        return loaded[-1]

    monkeypatch.setattr(correlation, "extension", spy)
    correlation._end_corrected_gram(np.ones((5, 3), dtype=complex))
    assert loaded and all(blas.zherk is scipy.linalg.blas.zherk for blas in loaded)


def test_extension_loads_the_compiled_file():
    for package, name, public in (("special", "_special_ufuncs", "scipy.special"),
                                  ("linalg", "_fblas", "scipy.linalg.blas")):
        module = _scipy.extension(package, name, public)
        assert module is sys.modules[f"scipy.{package}.{name}"]
        assert module.__file__.startswith(str(_scipy.SCIPY_DIR / package))


def test_missing_compiled_file_falls_back_to_the_public_module(tmp_path, monkeypatch):
    (tmp_path / "special").mkdir()
    (tmp_path / "linalg").mkdir()
    monkeypatch.setattr(_scipy, "SCIPY_DIR", tmp_path)
    special = _scipy.extension("special", "_special_ufuncs", "scipy.special")
    assert special is scipy.special
    assert all(getattr(special, f) is getattr(dispersion, f) for f in ("j0", "j1", "k0", "k1"))
    blas = _scipy.extension("linalg", "_fblas", "scipy.linalg.blas")
    assert blas is scipy.linalg.blas and blas.zherk is scipy.linalg.blas.zherk
