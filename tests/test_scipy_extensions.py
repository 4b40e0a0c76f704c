"""The compiled SciPy kernels that sfwm loads without their packages, and
the Gram's zherk in numpy's OpenBLAS.

Every output bit rests on these being the public API's own objects, or
giving their bits, so a SciPy or numpy release that moves one of them fails
here rather than silently.  numpy's OpenBLAS must be the only one a Gram
loads, and its pool must sit idle between calls.
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

from sfwm import PumpSpec, _scipy, build_jsa, cli, correlation, dispersion

from conftest import PUMP_NM, catalog_assembly


def test_bessel_functions_are_scipy_specials():
    for name in ("j0", "j1", "k0", "k1"):
        assert getattr(dispersion, name) is getattr(scipy.special, name), name


def _complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _same_bits(x, y):
    return x.shape == y.shape and np.array_equal(np.ascontiguousarray(x).view(np.uint64),
                                                 np.ascontiguousarray(y).view(np.uint64))


@pytest.mark.parametrize("trans", [0, 2])
@pytest.mark.parametrize("shape", [(680, 512), (512, 512), (300, 700)],
                         ids=["tall", "square", "wide"])
def test_zherk_gives_scipys_zherk_bits(shape, trans):
    # The Gram's calls: a first block (beta 0), a next one into the same
    # triangle (beta 1), and the alpha = -0.5 update by the two end rows
    # (columns), each on a Fortran-ordered, a C-ordered and a strided operand.
    rng = np.random.default_rng(7)
    n = shape[trans // 2]
    ends = _complex(rng, 2, n).T if trans == 0 else _complex(rng, n, 2).T
    for layout, a in (("Fortran", np.asfortranarray(_complex(rng, *shape))),
                      ("C", _complex(rng, *shape)),
                      ("strided", _complex(rng, 2 * shape[0], shape[1] + 3)[::2, 3:])):
        ours = _scipy.zherk(1.0, a, trans)
        theirs = scipy.linalg.blas.zherk(1.0, a, trans=trans)
        assert ours.flags.f_contiguous and _same_bits(ours, theirs), layout
        assert not np.tril(ours, -1).any(), layout
        c = ours
        for alpha, op in ((1.0, a), (-0.5, ends)):
            ours = _scipy.zherk(alpha, op, trans, 1.0, c)
            theirs = scipy.linalg.blas.zherk(alpha, op, trans=trans, beta=1.0, c=theirs,
                                             overwrite_c=1)
            assert ours is c and _same_bits(ours, theirs), (layout, alpha)


@pytest.mark.skipif(_scipy._CBLAS_ZHERK is None, reason="no cblas_zherk in numpy's OpenBLAS")
def test_zherk_refuses_operands_that_blas_would_misread():
    a = np.ones((4, 3), dtype=complex)
    with pytest.raises(ValueError, match="trans"):
        _scipy.zherk(1.0, a, 1)
    for bad in (a.real, np.ones(4, dtype=complex), np.ones((2, 2, 2), dtype=complex)):
        with pytest.raises(TypeError, match="2-D complex128"):
            _scipy.zherk(1.0, bad)
    frozen = np.zeros((4, 4), dtype=complex, order="F")
    frozen.flags.writeable = False
    for c in (np.zeros((4, 4), dtype=complex), np.zeros((3, 3), dtype=complex, order="F"),
              np.zeros((4, 4), order="F"), frozen):
        with pytest.raises(ValueError, match="Fortran-ordered complex128 4x4"):
            _scipy.zherk(1.0, a, 0, 1.0, c)


def test_gram_falls_back_to_scipys_public_zherk(monkeypatch):
    # Where numpy's OpenBLAS has no cblas_zherk (another BLAS, a source
    # build), the lookup gives None and the Gram runs SciPy's public zherk.
    jsa = build_jsa(catalog_assembly([("S1", 0.3), ("S2", 0.3)]), PumpSpec(PUMP_NM, 2.0))
    expected = correlation.g2_quadrature(jsa)
    blas, calls = _scipy.extension("linalg", "_fblas", "scipy.linalg.blas"), []
    public = blas.zherk
    assert public is scipy.linalg.blas.zherk
    monkeypatch.setattr(blas, "zherk", lambda *args, **kwargs: (
        calls.append(args[1].shape), public(*args, **kwargs))[1])
    monkeypatch.setattr(_scipy, "_CBLAS_ZHERK",
                        getattr(_scipy._OPENBLAS, "no_such_cblas_zherk", None))
    assert correlation.g2_quadrature(jsa) == expected
    assert calls == [(512, 660), (512, 2)]


# Runs g2-table on argv[1], then prints the OpenBLAS libraries mapped and
# whether SciPy's BLAS module was loaded.
_ONE_BLAS_PROBE = """
import json, sys
from sfwm import cli
assert cli.run("g2-table", sys.argv[1]) == 0
with open("/proc/self/maps") as fh:
    libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
print(json.dumps([libs, "scipy.linalg._fblas" in sys.modules]))
"""


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs /proc/self/maps")
@pytest.mark.skipif(_scipy._OPENBLAS is None, reason="numpy has no vendored OpenBLAS here")
def test_g2_table_maps_only_numpys_openblas(tmp_path):
    config = tmp_path / "g2_table.json"
    bundled = json.loads((Path(__file__).resolve().parents[1] / "configs" / "g2_table.json")
                         .read_text())
    config.write_text(json.dumps({
        **bundled, "assemblies": bundled["assemblies"][:1], "pump_fwhms_nm": [2.0],
        "grid": {"ns": 256, "ni": 256}, "output_dir": str(tmp_path / "out")}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _ONE_BLAS_PROBE, str(config)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    libs, fblas = json.loads(proc.stdout)
    assert [Path(lib).parent.name for lib in libs] == ["numpy.libs"], libs
    assert not fblas


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


def test_park_openblas_without_a_loaded_library_does_nothing(tmp_path, monkeypatch):
    # An empty package directory, and one whose .libs holds a file named like
    # a vendored OpenBLAS that the process never loaded.
    empty, unloaded = tmp_path / "empty", tmp_path / "pkg"
    empty.mkdir()
    unloaded.mkdir()
    (tmp_path / "pkg.libs").mkdir()
    (tmp_path / "pkg.libs" / "libscipy_openblas-0.so").write_bytes(b"not a library")
    for package_dir in (empty, unloaded, tmp_path):
        lib = _scipy._vendored_openblas(package_dir)
        assert lib is None
        monkeypatch.setattr(_scipy, "_SHUTDOWN", getattr(lib, "blas_thread_shutdown_", None))
        assert _scipy._SHUTDOWN is None and _scipy.park_openblas() is None
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
# The streamed Gram parks the pool between its 256-row blocks and at the end,
# and the streamed marginals park it at the end of their own pass.
spun("g2_streamed", lambda: sfwm.g2_streamed(jsa.assembly, jsa.pump, jsa.grid))
spun("streamed_marginals", lambda: sfwm.streamed_marginals(jsa.assembly, jsa.pump, jsa.grid))
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
