"""The compiled SciPy kernels that sfwm loads without their packages.

Every output bit rests on these being the public API's own objects, so a
SciPy release that moves one of them fails here rather than silently.
The OpenBLAS pools that numpy and SciPy bring must sit idle between calls.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.linalg.blas
import scipy.special

from sfwm import _scipy, cli, correlation, dispersion


def test_bessel_functions_are_scipy_specials():
    for name in ("j0", "j1", "k0", "k1"):
        assert getattr(dispersion, name) is getattr(scipy.special, name), name


def test_gram_zherk_is_scipys_public_zherk(monkeypatch):
    loaded = []

    def spy(*args):
        loaded.append(_scipy.extension(*args))
        return loaded[-1]

    monkeypatch.setattr(correlation, "extension", spy)
    correlation._end_corrected_gram([(slice(0, 5), np.ones((5, 3), dtype=complex))], (5, 3))
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


def test_park_openblas_without_a_loaded_library_does_nothing(tmp_path):
    # An empty package directory, and one whose .libs holds a file named like
    # a vendored OpenBLAS that the process never loaded.
    empty, unloaded = tmp_path / "empty", tmp_path / "pkg"
    empty.mkdir()
    unloaded.mkdir()
    (tmp_path / "pkg.libs").mkdir()
    (tmp_path / "pkg.libs" / "libscipy_openblas-0.so").write_bytes(b"not a library")
    for package_dir in (empty, unloaded, tmp_path):
        assert _scipy.park_openblas(package_dir) is None
    assert not {empty, unloaded, tmp_path} & _scipy._SHUTDOWNS.keys()
    if Path("/proc/self/maps").exists():  # nothing was loaded
        assert str(tmp_path) not in Path("/proc/self/maps").read_text()


_SPIN_PROBE = """
import importlib, os, time

def ticks():
    out = {}
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == os.getpid():
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread ended
            continue
        out[tid] = int(fields[11]) + int(fields[12])  # utime + stime
    return out

def spun(what, work):
    # A thread still there 100 ms after the work must not have run since it began.
    before = ticks()
    result = work()
    time.sleep(0.1)
    gained = {tid: n - before.get(tid, 0) for tid, n in ticks().items()}
    assert not any(gained.values()), f"threads spun after {what}: {gained}"
    return result

import numpy  # its OpenBLAS starts a pool as it loads
sfwm = spun("import sfwm", lambda: importlib.import_module("sfwm"))
# S1+S2+S3+S4: a 1378x512 grid, on which numpy's products run threaded too.
assembly = sfwm.AssemblySpec(tuple(
    sfwm.AssemblySegment(0.3, sfwm.PhaseMatchPoint.from_signal_and_angle(1070.0, *seg))
    for seg in ((1409.9, 3.2, 0.004), (1413.6, 3.2, 0.002),
                (1417.3, 3.3, 0.001), (1421.0, 3.4, 0.004))))
jsa = sfwm.build_jsa(assembly, sfwm.PumpSpec(1070.0, 2.0))
first = spun("g2_quadrature", lambda: sfwm.g2_quadrature(jsa))
# The pool starts again, with the same bits.
assert spun("a second g2_quadrature", lambda: sfwm.g2_quadrature(jsa)) == first
# The streamed Gram parks the pool between its 256-row blocks and at the end.
spun("g2_streamed", lambda: sfwm.g2_streamed(jsa.assembly, jsa.pump, jsa.grid, True))
spun("marginal", lambda: sfwm.marginal(jsa, "signal"))
spun("schmidt_decompose", lambda: sfwm.schmidt_decompose(jsa))
"""


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_no_blas_thread_spins_after_import_or_blas_work():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _SPIN_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_skips_scipys_init_and_keeps_its_version_string(tmp_path):
    # SciPy's directory comes from the import system and its version from
    # version.py, so a fresh `import sfwm.cli` never runs scipy/__init__.py.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    probe = "import sys, sfwm.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
    assert _scipy.SCIPY_DIR == Path(scipy.__file__).parent
    assert _scipy.scipy_version() == scipy.__version__
    config = tmp_path / "g2.json"
    config.write_text(json.dumps({
        "pump": {"center_wavelength_nm": 1070.0, "fwhm_nm": 2.0},
        "segments": [{"label": "S2", "core_radius_nm": 947.5, "air_fill": 0.296,
                      "length_m": 0.3, "phase_match": {"lambda_s0_nm": 1413.6,
                                                       "tau_s_ps_per_m": 3.2,
                                                       "theta_rad": 0.002}}],
        "grid": {"ns": 64, "ni": 64}, "output_dir": str(tmp_path / "out")}))
    assert cli.run("g2", config) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["versions"]["scipy"].encode() == scipy.__version__.encode()
