"""Config validation, file emission, and reproducibility of the command line."""

import copy
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import c

from sfwm.cli import _HANDLERS, ConfigError, load_config, run

from conftest import benchmark_config

TWO_PI_C = 2 * math.pi * c

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


_SEG = {"label": "S2", "core_radius_nm": 947.5, "air_fill": 0.296, "length_m": 0.3,
        "phase_match": {"lambda_s0_nm": 1413.6, "tau_s_ps_per_m": 3.2, "theta_rad": 0.002}}


def small_config(tmp_path, **extra):
    cfg = {
        "pump": {"center_wavelength_nm": 1070.0, "fwhm_nm": 2.0},
        "segments": [_SEG],
        "grid": {"ns": 160, "ni": 160, "lobes": 6.0},
        "output_dir": str(tmp_path / "out"),
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=2))
    return path


def read_csv(path):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_rejects_unknown_key(tmp_path, capsys):
    path = small_config(tmp_path, nonsense=1)
    assert run("g2", path) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["stage"] == "config"
    assert "nonsense" in record["message"]
    assert not (tmp_path / "out").exists()


def test_rejects_invalid_air_fill(tmp_path, capsys):
    cfg = json.loads(small_config(tmp_path).read_text())
    cfg["segments"][0]["air_fill"] = 1.2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run("g2", path) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["stage"] == "config"
    assert "air_fill" in record["message"]
    assert not (tmp_path / "out").exists()


def test_rejects_assembly_names_that_share_a_file_suffix(tmp_path, capsys):
    # Both names would write marginal_signal_S1_S2.csv, the second over the first.
    path = small_config(tmp_path, assemblies=[{"name": "S1+S2", "segments": ["S2"]},
                                              {"name": "S1_S2", "segments": ["S2"]}])
    assert run("marginal", path) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["stage"] == "config"
    assert record["message"] == ("ConfigError: assemblies[1].name 'S1_S2' and "
                                 "assemblies[0].name 'S1+S2' give the same output file suffix")
    assert not (tmp_path / "out").exists()


def test_rejects_segment_label_that_cannot_name_a_file(tmp_path, capsys):
    # The label names dispersion_<label>.csv, written after all the solving.
    path = small_config(tmp_path, segments=[{**_SEG, "label": "D/1"}])
    assert run("dispersion", path) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["stage"] == "config"
    assert record["message"] == ("ConfigError: segments[0].label = 'D/1' must not contain "
                                 "'/' or NUL: it is part of an output file name")
    assert not (tmp_path / "out").exists()


def test_rejects_inconsistent_idler_override(tmp_path, capsys):
    cfg = json.loads(small_config(tmp_path).read_text())
    cfg["segments"][0]["phase_match"]["lambda_i0_nm"] = 858.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run("g2", path) == 1
    record = json.loads(capsys.readouterr().err)
    assert "energy conservation" in record["message"]


@pytest.mark.parametrize("subcommand", ["g2-table", "jsa", "dispersion"])
def test_rejects_assembly_and_assemblies_together(tmp_path, capsys, subcommand):
    # Either field selects what runs; neither may silently win over the other,
    # so the config is refused as it loads, whatever the subcommand.
    cfg = json.loads((CONFIGS / "g2_table.json").read_text())
    cfg["assembly"] = ["S2"]
    path = tmp_path / "both.json"
    path.write_text(json.dumps(cfg))
    assert run(subcommand, path, out_dir=tmp_path / "out") == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"stage": "config", "message":
                      "ConfigError: assembly and assemblies must not be given together"}
    assert not (tmp_path / "out").exists()


def test_load_config_has_one_attribute_per_schema_field(tmp_path):
    from sfwm import PumpSpec
    from sfwm.cli import _CONFIG

    cfg = load_config(small_config(tmp_path, segments=[{**_SEG, "label": "S3"}, _SEG]))
    assert set(vars(cfg)) == set(_CONFIG) | {"raw_sha256"}
    assert isinstance(cfg.pump, PumpSpec)
    assert list(cfg.segments) == ["S3", "S2"]
    assert cfg.segments["S2"]["core_radius_nm"] == 947.5
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    cfg = load_config(empty)
    assert set(vars(cfg)) == set(_CONFIG) | {"raw_sha256"}
    assert cfg.pump is None and cfg.segments == {}


def test_g2_outputs_and_manifest(tmp_path):
    path = small_config(tmp_path)
    assert run("g2", path) == 0
    out = tmp_path / "out"
    header, rows = read_csv(out / "g2.csv")
    assert header == ["configuration", "total_length_m", "pump_fwhm_nm", "g2",
                      "schmidt_number", "purity"]
    g2 = float(rows[0][3])
    assert 1.0 < g2 <= 2.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert manifest["subcommand"] == "g2"
    assert "g2.csv" in manifest["outputs"]
    assert manifest["grid"]["ns"] >= 160


def test_jsa_then_marginal_fubini(tmp_path):
    path = small_config(tmp_path)
    assert run("jsa", path) == 0
    assert run("marginal", path) == 0
    out = tmp_path / "out"

    header, rows = read_csv(out / "jsi.csv")
    idler_nm = np.array([float(v) for v in header[1:]])
    signal_nm = np.array([float(r[0]) for r in rows])
    jsi = np.array([[float(v) for v in r[1:]] for r in rows])

    def omega_weights(nm_axis):
        omega = np.sort(TWO_PI_C / (nm_axis * 1e-9))
        w = np.empty_like(omega)
        d = np.diff(omega)
        w[0], w[-1] = d[0] / 2, d[-1] / 2
        w[1:-1] = (d[:-1] + d[1:]) / 2
        return omega, w

    _, w_i = omega_weights(idler_nm)
    _, w_s = omega_weights(signal_nm)
    # Rows/cols ascend in wavelength = descend in omega; weights are symmetric.
    total_2d = float(w_s @ jsi[::-1, ::-1] @ w_i)

    _, mrows = read_csv(out / "marginal_signal.csv")
    m_nm = np.array([float(r[0]) for r in mrows])
    m_val = np.array([float(r[1]) for r in mrows])
    _, w_m = omega_weights(m_nm)
    total_1d = float(w_m @ m_val[::-1])

    assert total_1d == pytest.approx(total_2d, rel=1e-10)


def test_reruns_are_byte_identical(tmp_path):
    path = small_config(tmp_path)
    run("g2", path, out_dir=tmp_path / "a")
    run("g2", path, out_dir=tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_filter_scan_csv(tmp_path):
    path = small_config(
        tmp_path,
        filter={"fwhm_nm": 0.8, "scan_range_nm": [1406.0, 1420.0], "n_centers": 29},
    )
    assert run("filter-scan", path) == 0
    header, rows = read_csv(tmp_path / "out" / "filter_scan.csv")
    assert header == ["x_nm", "intensity"]
    assert len(rows) == 29
    vals = [float(r[1]) for r in rows]
    assert max(vals) > 0 and min(vals) >= 0


def test_plan_output(tmp_path):
    cfg_extra = {
        "segments": [
            {"label": "S2", "core_radius_nm": 947.5, "air_fill": 0.296, "length_m": 0.3,
             "phase_match": {"lambda_s0_nm": 1413.6, "tau_s_ps_per_m": 3.2,
                             "theta_rad": 0.002}},
            {"label": "S3", "core_radius_nm": 948.0, "air_fill": 0.296, "length_m": 0.3,
             "phase_match": {"lambda_s0_nm": 1417.3, "tau_s_ps_per_m": 3.3,
                             "theta_rad": 0.001}},
        ],
        "planner": {"target_total_length_m": 0.6, "tolerance_m": 0.0},
        "grid": {"ns": 160, "ni": 160, "lobes": 6.0},
    }
    path = small_config(tmp_path, **cfg_extra)
    assert run("plan", path) == 0
    text = (tmp_path / "out" / "plan.txt").read_text()
    fields = dict(line.split(": ", 1) for line in text.strip().splitlines())
    assert set(fields["order"].split()) == {"S2", "S3"}
    assert float(fields["total_length_m"]) == 0.6
    assert 1.0 < float(fields["predicted_g2"]) <= 2.0
    assert (tmp_path / "out" / "plan_spectrum.csv").exists()


def test_plan_refuses_full_model(tmp_path, capsys):
    # The planner scores a splice and its mirror image as one, which holds in
    # the linearized model only.
    cfg = json.loads((CONFIGS / "splice_plan.json").read_text())
    cfg["model"] = "full"
    path = tmp_path / "full.json"
    path.write_text(json.dumps(cfg))
    assert run("plan", path, out_dir=tmp_path / "out") == 1
    record = json.loads(capsys.readouterr().err)
    assert record["stage"] == "plan"
    assert "model" in record["message"]
    assert not (tmp_path / "out").exists()


def test_plan_pool_does_not_depend_on_geometry(tmp_path):
    # Segments given by their phase match alone plan exactly as the same
    # segments with their structure.
    cfg = json.loads((CONFIGS / "splice_plan.json").read_text())
    cfg["grid"] = {"ns": 160, "ni": 160, "lobes": 6.0}
    bare = copy.deepcopy(cfg)
    for seg in bare["segments"]:
        del seg["core_radius_nm"], seg["air_fill"]
    for name, config in (("geometry", cfg), ("bare", bare)):
        (tmp_path / f"{name}.json").write_text(json.dumps(config))
        assert run("plan", tmp_path / f"{name}.json", out_dir=tmp_path / name) == 0
    for name in ("plan.txt", "plan_spectrum.csv"):
        assert (tmp_path / "geometry" / name).read_bytes() == \
            (tmp_path / "bare" / name).read_bytes()


def test_dispersion_subcommand(tmp_path):
    cfg = {
        "segments": [
            {"label": "R948", "core_radius_nm": 948.0, "air_fill": 0.296, "length_m": 1.9},
        ],
        "dispersion": {"wavelength_range_nm": [900.0, 1250.0], "n_points": 15,
                       "zdw_search_nm": [900.0, 1250.0]},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run("dispersion", path) == 0
    header, rows = read_csv(tmp_path / "out" / "dispersion_R948.csv")
    assert header == ["wavelength_nm", "n_eff", "k_rad_per_m", "k1_ps_per_m",
                      "beta2_ps2_per_m"]
    assert len(rows) == 15
    _, zdw_rows = read_csv(tmp_path / "out" / "zdw.csv")
    zdws = [float(r[1]) for r in zdw_rows]
    assert len(zdws) == 2
    assert zdws[0] == pytest.approx(942.0, abs=10.0)
    assert zdws[1] == pytest.approx(1175.0, abs=10.0)


def test_fit_subcommand_uses_bundled_samples(tmp_path):
    cfg = {
        "fit": {"gvd_csv": str(CONFIGS / "gvd_samples.csv"),
                "initial_core_radius_nm": 940.0, "initial_air_fill": 0.28},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run("fit", path) == 0
    _, rows = read_csv(tmp_path / "out" / "fit.csv")
    assert float(rows[0][0]) == pytest.approx(948.0, abs=1.0)
    assert float(rows[0][1]) == pytest.approx(0.296, abs=0.002)


def test_gvm_curve_runs_one_sweep_and_its_files_agree(tmp_path, monkeypatch):
    from sfwm import cli, phasematch

    sweep, calls = phasematch.gvm_curve, []

    def counted(*args, **kwargs):
        calls.append(args)
        return sweep(*args, **kwargs)

    monkeypatch.setattr(phasematch, "gvm_curve", counted)
    monkeypatch.setattr(cli, "gvm_curve", counted)
    assert run("gvm-curve", CONFIGS / "gvm_sweep.json", tmp_path) == 0
    assert len(calls) == 1
    header, rows = read_csv(tmp_path / "gvm_curve.csv")
    _, roots = read_csv(tmp_path / "agvm_roots.csv")
    assert [r[0] for r in roots] == ["tau_i_zero", "tau_s_zero"]
    for condition, pump_nm in roots:
        column = header.index(condition.replace("_zero", "_ps_per_m"))
        # The root sits between two adjacent sweep rows whose tau changes sign.
        assert any(
            float(a[0]) <= float(pump_nm) <= float(b[0])
            and float(a[column]) * float(b[column]) < 0
            for a, b in zip(rows, rows[1:]) if a[column] and b[column])


def _count_series_builds(monkeypatch) -> list:
    """Patch the k(omega) series build to log its arguments; returns the log."""
    from sfwm import dispersion

    build, builds = dispersion._KSeries.__init__, []

    def counted(self, *args):
        build(self, *args)
        builds.append(args)

    monkeypatch.setattr(dispersion._KSeries, "__init__", counted)
    return builds


def test_cli_builds_one_series_per_fiber_and_matches_the_public_calls(tmp_path, monkeypatch):
    # On the seed-1 benchmark configs, `dispersion` and `gvm-curve` go through
    # the public find_zdw, gvm_curve and agvm_roots, and each fiber builds one
    # k(omega) series per call: the dispersion table and the ZDW search share
    # it, and so do the pump sweep and its AGVM-root polish.  What the CLI
    # gets and writes is, bit for bit, what the public functions give on
    # fresh fibers.
    from sfwm import cli
    from sfwm.dispersion import dispersion_table, find_zdw
    from sfwm.phasematch import agvm_roots, gvm_curve

    returned = {}
    for name in ("find_zdw", "gvm_curve", "agvm_roots"):
        def recorded(*args, _fn=getattr(cli, name), _name=name, **kwargs):
            result = _fn(*args, **kwargs)
            returned.setdefault(_name, []).append(result)
            return result
        monkeypatch.setattr(cli, name, recorded)
    builds = _count_series_builds(monkeypatch)

    def step(name, subcommand):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(benchmark_config(name, 1)))
        assert run(subcommand, config, tmp_path / name) == 0
        cfg = load_config(config)
        return cfg, [cli._fiber(entry) for entry in cfg.segments.values()]

    cfg, fibers = step("dispersion_curves", "dispersion")
    assert len(builds) == len(fibers) == 4
    search = cfg.dispersion["zdw_search_nm"]
    assert repr(returned["find_zdw"]) == repr([find_zdw(fiber, search) for fiber in fibers])
    lo, hi = cfg.dispersion["wavelength_range_nm"]
    wl = np.linspace(lo, hi, cfg.dispersion["n_points"])
    columns = ["wavelength_nm", "n_eff", "k_rad_per_m", "k1_ps_per_m", "beta2_ps2_per_m"]
    for fiber in fibers:
        table = dispersion_table(fiber, wl)
        expected = [",".join(columns)] + [",".join("%.12g" % v for v in row)
                                          for row in zip(*(table[c] for c in columns))]
        written = tmp_path / "dispersion_curves" / f"dispersion_{fiber.label}.csv"
        assert written.read_text() == "\n".join(expected) + "\n"

    builds.clear()
    cfg, fibers = step("gvm_sweep", "gvm-curve")
    assert len(builds) == 1
    (fiber,) = [f for f in fibers if f.label == cfg.sweep["segment_label"]]
    curve = gvm_curve(fiber, cfg.sweep["pump_range_nm"], cfg.sweep["n_points"])
    assert repr(returned["gvm_curve"]) == repr([curve])
    assert repr(returned["agvm_roots"]) == repr([agvm_roots(fiber, curve)])


def test_full_model_g2_table_builds_one_series_per_segment(tmp_path, monkeypatch):
    # Each config segment's fiber serves both its phase-match solve and
    # the full-model mismatch of every pump: 3 segments, 3 series.
    cfg = {
        "pump": {"center_wavelength_nm": 1070.0, "fwhm_nm": 2.0},
        "pump_fwhms_nm": [2.0, 5.0],
        "model": "full",
        "segments": [{"label": label, "core_radius_nm": r, "air_fill": 0.296, "length_m": 0.3}
                     for label, r in (("S1", 947.0), ("S2", 947.5), ("S3", 948.0))],
        "assemblies": [{"name": "S1+S2", "segments": ["S1", "S2"]},
                       {"name": "S3", "segments": ["S3"]}],
        "grid": {"ns": 96, "ni": 96, "lobes": 4.0},
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    builds = _count_series_builds(monkeypatch)
    assert run("g2-table", path) == 0
    assert len(builds) == 3
    _, rows = read_csv(tmp_path / "out" / "g2_table.csv")
    assert len(rows) == 4


@pytest.mark.parametrize("subcommand, model", [("g2-table", "linearized"), ("jsa", "full")])
def test_assemblies_share_one_series_per_config_segment(tmp_path, monkeypatch, subcommand,
                                                        model):
    # configs/g2_table.json without its phase_match blocks: every segment is
    # solved from its structure.  Its ten assemblies hold 21 elements of 4
    # segments, some at their own lengths, and each segment's one fiber
    # serves all of them.
    cfg = json.loads((CONFIGS / "g2_table.json").read_text())
    for seg in cfg["segments"]:
        del seg["phase_match"]
    cfg.update(model=model, grid={"ns": 48, "ni": 48}, output_dir=str(tmp_path / "out"))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    builds = _count_series_builds(monkeypatch)
    assert run(subcommand, path) == 0
    labels = {elem if isinstance(elem, str) else elem["label"]
              for assembly in cfg["assemblies"] for elem in assembly["segments"]}
    assert sorted(fiber.label for fiber, in builds) == sorted(labels) == ["S1", "S2", "S3", "S4"]


def test_fiber_design_steps_batch_their_solves(tmp_path, monkeypatch):
    # On the seed-1 benchmark configs: `dispersion` makes one mode-solver call
    # per fiber, for its series nodes, and solves no table row; `gvm-curve`
    # makes one array Brent for the pump sweep and one for the AGVM polish of
    # both roots (the polish's evaluations nest their phase-match solves).
    from sfwm import dispersion, phasematch

    solve, solves = dispersion._solve_neff, []
    monkeypatch.setattr(dispersion, "_solve_neff", lambda *a: solves.append(a) or solve(*a))
    brent, depth, outer = phasematch._brentq, [], []

    def counted(f, a, b, **kwargs):
        if not depth:
            outer.append((len(a), kwargs["xtol"]))
        depth.append(1)
        try:
            return brent(f, a, b, **kwargs)
        finally:
            depth.pop()

    monkeypatch.setattr(phasematch, "_brentq", counted)
    for step, subcommand in (("dispersion_curves", "dispersion"), ("gvm_sweep", "gvm-curve")):
        config = tmp_path / f"{step}.json"
        config.write_text(json.dumps(benchmark_config(step, 1)))
        assert run(subcommand, config, tmp_path / step) == 0
        if step == "dispersion_curves":
            assert [np.broadcast(*a).size for a in solves] == [65] * 4
            assert outer == []
    assert len(solves) == 5  # and the sweep fiber's series nodes
    _, rows = read_csv(tmp_path / "gvm_sweep" / "gvm_curve.csv")
    assert outer == [(sum(bool(row[1]) for row in rows), 1e-3), (2, 1e-2)]
    assert len(rows) == 29


# Imports sfwm.cli, runs each (subcommand, config, out) of argv[1] in turn and
# prints the steps after which scipy.optimize was loaded.
# Packages whose __init__ no CLI call but fit runs: scipy.optimize, and the
# scipy.linalg and scipy.special that pull in scipy._lib._util (numpy.f2py,
# numpy.testing).  The CLI loads its compiled kernels without them.
_HEAVY_MODULES = ("scipy.optimize", "scipy.linalg", "scipy.special", "scipy._lib._util")

# Per step: the heavy modules loaded so far and the number of OpenBLAS
# libraries mapped (None off Linux).
_OPTIMIZE_PROBE = """
import json, sys
import sfwm.cli
steps, heavy = json.loads(sys.argv[1]), json.loads(sys.argv[2])

def state():
    try:
        with open("/proc/self/maps") as fh:
            blas = len({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        blas = None
    return [name for name in heavy if name in sys.modules], blas

loaded = {"import": state()}
for subcommand, config, out in steps:
    assert sfwm.cli.run(subcommand, config, out) == 0, subcommand
    loaded[subcommand] = state()
print(json.dumps(loaded))
"""


def test_benchmark_subcommands_never_import_scipy_optimize(tmp_path):
    # Only fit uses scipy.optimize; the root solvers are in-house, the Bessel
    # functions load without their package, and zherk is numpy's OpenBLAS's.  A fresh
    # interpreter imports sfwm from this checkout's src/, as criterion 11 does.
    dispersion = tmp_path / "dispersion.json"
    dispersion.write_text(json.dumps({
        "segments": [{"label": "R948", "core_radius_nm": 948.0, "air_fill": 0.296,
                      "length_m": 1.9}],
        "dispersion": {"wavelength_range_nm": [900.0, 1250.0], "n_points": 15,
                       "zdw_search_nm": [900.0, 1250.0]},
        "output_dir": str(tmp_path / "unused")}))
    sweep = json.loads((CONFIGS / "gvm_sweep.json").read_text())
    sweep["sweep"]["n_points"] = 8  # still brackets both AGVM roots
    gvm = tmp_path / "gvm.json"
    gvm.write_text(json.dumps(sweep))
    seg3 = {**_SEG, "label": "S3", "core_radius_nm": 948.0,
            "phase_match": {"lambda_s0_nm": 1417.3, "tau_s_ps_per_m": 3.3, "theta_rad": 0.001}}
    g2 = small_config(tmp_path, segments=[_SEG, seg3], pump_fwhms_nm=[2.0],
                      assemblies=[{"name": "S2+S3", "segments": ["S2", "S3"]}])
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({**json.loads(g2.read_text()), "planner": {
        "target_total_length_m": 0.6, "tolerance_m": 0.0}}))
    fit = tmp_path / "fit.json"
    fit.write_text(json.dumps({"fit": {
        "gvd_csv": str(CONFIGS / "gvd_samples.csv"),
        "initial_core_radius_nm": 940.0, "initial_air_fill": 0.28}}))
    # fit runs last: the full scipy.optimize import must take the compiled
    # modules that the earlier calls already registered.
    steps = [("dispersion", str(dispersion)), ("gvm-curve", str(gvm)),
             ("g2-table", str(g2)), ("plan", str(plan)), ("fit", str(fit))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", _OPTIMIZE_PROBE,
         json.dumps([(sub, cfg, str(tmp_path / sub)) for sub, cfg in steps]),
         json.dumps(_HEAVY_MODULES)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded.pop("fit")[0][0] == "scipy.optimize"
    assert all(modules == [] for modules, _ in loaded.values()), loaded
    # The Gram runs in numpy's OpenBLAS: no step before fit maps another.
    blas = {step: count for step, (_, count) in loaded.items()}
    assert len(set(blas.values())) == 1, blas
    _, roots = read_csv(tmp_path / "gvm-curve" / "agvm_roots.csv")
    assert len(roots) == 2 and all(pump_nm for _, pump_nm in roots)  # both polished
    fresh = tmp_path / "fit_fresh"
    proc = subprocess.run(
        [sys.executable, "-m", "sfwm.cli", "fit", "--config", str(fit), "--out", str(fresh)],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in fresh.iterdir()) == sorted(
        p.name for p in (tmp_path / "fit").iterdir())
    for path in fresh.iterdir():
        assert path.read_bytes() == (tmp_path / "fit" / path.name).read_bytes(), path.name


@pytest.mark.parametrize("subcommand, need",
                         [(sub, need) for sub, (_, needs) in _HANDLERS.items() for need in needs])
def test_missing_required_block(tmp_path, capsys, subcommand, need):
    # Every block some subcommand needs, less the one under test.
    cfg = json.loads(small_config(
        tmp_path, assemblies=[{"name": "S2", "segments": ["S2"]}],
        filter={"fwhm_nm": 0.8}, planner={"target_total_length_m": 0.3},
        fit={"gvd_csv": "samples.csv", "initial_core_radius_nm": 940.0,
             "initial_air_fill": 0.28},
        sweep={"pump_range_nm": [950.0, 1100.0], "n_points": 3}).read_text())
    del cfg[need]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert run(subcommand, path) == 1
    record = json.loads(capsys.readouterr().err)
    assert record == {"stage": subcommand,
                      "message": f"ConfigError: missing required field {need}"}
    assert not (tmp_path / "out").exists()


def test_paired_and_exclusive_fields_name_siblings():
    # A misspelt sibling would switch its check off without a word.
    from sfwm.cli import _CONFIG, _ELEMENT

    def tables(table):
        yield table
        for f in table.values():
            if f.fields:
                yield from tables(f.fields)

    pairs = set()
    for table in [*tables(_CONFIG), _ELEMENT]:
        for key, f in table.items():
            for other in f.excludes + ((f.together,) if f.together else ()):
                assert other in table and other != key, (key, other)
                pairs.add((key, other))
    assert ("core_radius_nm", "air_fill") in pairs  # list items' tables are walked


def test_bundled_configs_validate():
    for cfg_path in sorted(CONFIGS.glob("*.json")):
        load_config(cfg_path)


def test_load_config_rejects_non_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(path)


def test_full_model_subcommand(tmp_path):
    path = small_config(tmp_path, model="full")
    assert run("jsa", path) == 0
    meta = json.loads((tmp_path / "out" / "jsi_meta.json").read_text())
    assert meta["assembly"]["model_mode"] == "full"
    assert meta["assembly"]["segments"][0]["fiber"]["core_radius_nm"] == 947.5


def test_bundled_g2_table_matches_reference(tmp_path):
    import sys
    sys.path.insert(0, str(REPO / "tests"))
    from conftest import G2_REFERENCE

    name_map = {
        "S1+S3_1.5m_each": "S1+S3_1.5m",
        "homogeneous_0.3m": "hom_0.3", "homogeneous_0.6m": "hom_0.6",
        "homogeneous_0.9m": "hom_0.9", "homogeneous_1.5m": "hom_1.5",
    }
    assert run("g2-table", CONFIGS / "g2_table.json", out_dir=tmp_path) == 0
    _, rows = read_csv(tmp_path / "g2_table.csv")
    assert len(rows) == 20
    for row in rows:
        key = (name_map.get(row[0], row[0]), float(row[2]))
        assert abs(float(row[3]) - G2_REFERENCE[key]) <= 0.05, row



def test_g2_table_and_plan_manifests_record_each_jsa(tmp_path, monkeypatch):
    # Neither subcommand stores an amplitude, so the manifest records the
    # grid of every JSA it streams: one entry each, in evaluation order.
    import sfwm.correlation

    filled = []
    real_blocks = sfwm.correlation._amplitude_blocks

    def spy(assembly, pump, grid, *args, **kwargs):
        filled.append((grid.signal.size, grid.idler.size))
        return real_blocks(assembly, pump, grid, *args, **kwargs)

    monkeypatch.setattr(sfwm.correlation, "_amplitude_blocks", spy)
    seg3 = {**_SEG, "label": "S3", "core_radius_nm": 948.0,
            "phase_match": {"lambda_s0_nm": 1417.3, "tau_s_ps_per_m": 3.3, "theta_rad": 0.001}}
    seg4 = {**_SEG, "label": "S4", "core_radius_nm": 948.5,
            "phase_match": {"lambda_s0_nm": 1421.0, "tau_s_ps_per_m": 3.4, "theta_rad": 0.004}}
    path = small_config(tmp_path, segments=[_SEG, seg3, seg4], pump_fwhms_nm=[2.0, 5.0],
                        assemblies=[{"name": "S2+S3", "segments": ["S2", "S3"]},
                                    {"name": "S4", "segments": ["S4"]}],
                        planner={"target_total_length_m": 0.6, "tolerance_m": 0.0})
    manifests = {}
    for subcommand in ("g2-table", "plan"):
        filled.clear()
        assert run(subcommand, path, out_dir=tmp_path / subcommand) == 0
        manifests[subcommand] = json.loads(
            (tmp_path / subcommand / "manifest.json").read_text())["jsas"]
        # Each entry is the grid that one fill received, in fill order.
        assert [(e["ns"], e["ni"]) for e in manifests[subcommand]] == filled
    table, plan = manifests["g2-table"], manifests["plan"]
    assert [(e["name"], e["pump_fwhm_nm"]) for e in table] == [
        ("S2+S3", 2.0), ("S2+S3", 5.0), ("S4", 2.0), ("S4", 5.0)]
    assert [e["name"] for e in plan] == ["S2+S3", "S2+S4", "S3+S4"]
    assert {e["pump_fwhm_nm"] for e in plan} == {2.0}
    assert len({(e["ns"], e["ni"]) for e in table}) > 1
    # g2 records the one grid it fills.
    (tmp_path / "single").mkdir()
    single = small_config(tmp_path / "single", segments=[_SEG, seg3], assembly=["S2", "S3"])
    filled.clear()
    assert run("g2", single, out_dir=tmp_path / "g2") == 0
    grid = json.loads((tmp_path / "g2" / "manifest.json").read_text())["grid"]
    assert [(grid["ns"], grid["ni"])] == filled


_DROP = object()

# One case per field rule: (path into small_config, new value or _DROP, message).
MESSAGE_CASES = [
    ((), [], "config must be an object"),
    (("nonsense",), 1, "unknown field config.nonsense"),
    (("pump",), [], "pump must be an object"),
    (("pump", "peak",), 1, "unknown field pump.peak"),
    (("pump", "fwhm_nm"), _DROP, "missing required field pump.fwhm_nm"),
    (("pump", "fwhm_nm"), "2", "pump.fwhm_nm must be a number"),
    (("pump", "fwhm_nm"), True, "pump.fwhm_nm must be a number"),
    (("pump", "fwhm_nm"), 0, "pump.fwhm_nm = 0.0 violates > 0"),
    (("pump", "gamma_per_w_km"), -1, "pump.gamma_per_w_km = -1.0 violates >= 0"),
    (("segments", 0), "S2", "segments[0] must be an object"),
    (("segments", 0, "label"), _DROP, "missing required field segments[0].label"),
    (("segments", 0, "label"), "", "segments[0].label must be a non-empty string"),
    (("segments", 1), _SEG, "duplicate segment label 'S2' at segments[1]"),
    (("segments", 0, "length_m"), 0, "segments[0].length_m = 0.0 violates > 0"),
    (("segments", 0, "air_fill"), 1.2, "segments[0].air_fill = 1.2 violates < 1"),
    (("segments", 0, "air_fill"), 1, "segments[0].air_fill = 1.0 violates < 1"),
    (("segments", 0, "phase_match", "tau"), 1,
     "unknown field segments[0].phase_match.tau"),
    (("segments", 0, "phase_match", "tau_s_ps_per_m"), None,
     "segments[0].phase_match.tau_s_ps_per_m must be a number"),
    (("segments", 0, "phase_match", "theta_rad"), 2,
     "segments[0].phase_match.theta_rad = 2.0 violates <= 1.5707963267948966"),
    (("segments", 0, "phase_match", "tau_i_sign"), 0.5,
     "segments[0].phase_match.tau_i_sign must be +1 or -1"),
    (("assembly",), [], "assembly must be a non-empty list"),
    (("assembly",), [3], "assembly[0] must be a label or an object"),
    (("assembly",), [{"length_m": 0.3}], "missing required field assembly[0].label"),
    (("assembly",), [{"label": 3}], "assembly[0].label must be a string"),
    (("assembly",), [{"label": "S2", "x": 1}], "unknown field assembly[0].x"),
    (("assemblies",), {}, "assemblies must be a non-empty list"),
    (("assemblies",), [{"name": "", "segments": ["S2"]}],
     "assemblies[0].name must be a non-empty string"),
    (("assemblies",), [{"name": "a"}], "missing required field assemblies[0].segments"),
    (("assemblies",), [{"name": "a", "segments": []}],
     "assemblies[0].segments must be a non-empty list"),
    (("assemblies",), [{"name": "a", "segments": ["S2"]}] * 2,
     "assemblies names must be unique"),
    (("pump_fwhms_nm",), [2.0, 0], "pump_fwhms_nm must be a non-empty list of positive numbers"),
    (("grid", "ns"), 1.5, "grid.ns must be an integer"),
    (("grid", "ns"), 1, "grid.ns = 1 violates >= 2"),
    (("grid", "lobes"), 0.25, "grid.lobes = 0.25 violates >= 0.5"),
    (("grid", "signal_range_nm"), [1400], "grid.signal_range_nm must be a [low, high] number pair"),
    (("grid", "signal_range_nm"), [1420, 1400], "grid.signal_range_nm must satisfy low < high"),
    (("grid", "signal_range_nm"), [1400, 1420],
     "grid.signal_range_nm and grid.idler_range_nm must be given together"),
    # lobes and pad_sigmas size the auto grid only; explicit ranges refuse them.
    (("grid",), {"signal_range_nm": [1400, 1420], "idler_range_nm": [850, 870], "lobes": 6.0},
     "grid.signal_range_nm and grid.lobes must not be given together"),
    (("grid",), {"signal_range_nm": [1400, 1420], "idler_range_nm": [850, 870],
                 "pad_sigmas": 4.0},
     "grid.signal_range_nm and grid.pad_sigmas must not be given together"),
    (("model",), "exact", 'model must be "linearized" or "full"'),
    (("filter",), {"centers_nm": [1410.0]}, "missing required field filter.fwhm_nm"),
    (("filter",), {"fwhm_nm": 1.0, "n_centers": 1}, "filter.n_centers = 1 violates >= 2"),
    (("filter",), {"fwhm_nm": 1.0, "centers_nm": []}, "filter.centers_nm must be a list of numbers"),
    (("filter",), {"fwhm_nm": 1.0, "centers_nm": [1410, 1410]},
     "filter.centers_nm must be strictly ascending"),
    (("filter",), {"fwhm_nm": 1.0, "centers_nm": [1410.0], "scan_range_nm": [1400, 1420]},
     "filter.centers_nm and filter.scan_range_nm must not be given together"),
    (("filter",), {"fwhm_nm": 1.0, "centers_nm": [1410.0], "n_centers": 5},
     "filter.centers_nm and filter.n_centers must not be given together"),
    (("segments", 0, "air_fill"), _DROP,
     "segments[0].core_radius_nm and segments[0].air_fill must be given together"),
    (("planner",), {"target_total_length_m": 0.6, "max_plans": 0},
     "planner.max_plans = 0 violates >= 1"),
    (("fit",), {"gvd_csv": 5, "initial_core_radius_nm": 940.0, "initial_air_fill": 0.28},
     "fit.gvd_csv must be a path string"),
    # An empty label would sweep the first segment without a word.
    (("sweep",), {"pump_range_nm": [950, 1100], "n_points": 3, "segment_label": ""},
     "sweep.segment_label must be a non-empty string"),
    (("sweep",), {"pump_range_nm": [950, 1100]}, "missing required field sweep.n_points"),
    (("dispersion",), {"zdw_search_nm": "900-1250"},
     "dispersion.zdw_search_nm must be a [low, high] number pair"),
    (("output_dir",), "", "output_dir must be a non-empty path string"),
    # Every [low, high] nm pair is a range of positive wavelengths.
    (("grid", "signal_range_nm"), [0, 1420], "grid.signal_range_nm = [0.0, 1420.0] violates > 0"),
    (("grid", "signal_range_nm"), [-5, 1420],
     "grid.signal_range_nm = [-5.0, 1420.0] violates > 0"),
    (("grid", "idler_range_nm"), [0, 870], "grid.idler_range_nm = [0.0, 870.0] violates > 0"),
    (("filter",), {"fwhm_nm": 1.0, "scan_range_nm": [0, 1420]},
     "filter.scan_range_nm = [0.0, 1420.0] violates > 0"),
    (("sweep",), {"pump_range_nm": [0, 1095], "n_points": 3},
     "sweep.pump_range_nm = [0.0, 1095.0] violates > 0"),
    (("dispersion",), {"wavelength_range_nm": [-850, 1450]},
     "dispersion.wavelength_range_nm = [-850.0, 1450.0] violates > 0"),
    (("dispersion",), {"zdw_search_nm": [0, 1250]},
     "dispersion.zdw_search_nm = [0.0, 1250.0] violates > 0"),
]


def _patched(tmp_path, path, value):
    cfg = json.loads(small_config(tmp_path).read_text())
    if not path:
        cfg = value
    else:
        node = cfg
        for key in path[:-1]:
            node = node[key]
        if value is _DROP:
            del node[path[-1]]
        elif isinstance(node, list) and path[-1] == len(node):
            node.append(value)
        else:
            node[path[-1]] = value
    out = tmp_path / "patched.json"
    out.write_text(json.dumps(cfg))
    return out


@pytest.mark.parametrize("path, value, message", MESSAGE_CASES,
                         ids=[m for _, _, m in MESSAGE_CASES])
def test_config_error_messages(tmp_path, path, value, message):
    with pytest.raises(ConfigError) as info:
        load_config(_patched(tmp_path, path, value))
    assert str(info.value) == message


def test_plan_honours_explicit_grid(tmp_path, capsys):
    # The same coarse grid that g2-table refuses: plan must not drop it.
    cfg = json.loads((CONFIGS / "splice_plan.json").read_text())
    cfg["grid"] = {"ns": 8, "ni": 8, "signal_range_nm": [1395.0, 1435.0],
                   "idler_range_nm": [850.0, 875.0]}
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(cfg))
    assert run("plan", path, out_dir=tmp_path / "out") == 1
    record = json.loads(capsys.readouterr().err)
    assert record["stage"] == "plan"
    assert record["message"].startswith("GridResolutionError")
    assert not (tmp_path / "out").exists()


# Every config field, valid, for the fuzz test below.  Exclusive fields
# cannot share one config, so the explicit-grid base takes assembly, explicit
# ranges and filter centers, the auto-grid base their alternatives.
_FULL = {
    "pump": {"center_wavelength_nm": 1070.0, "fwhm_nm": 2.0, "gamma_per_w_km": 11.0,
             "peak_power_w": 50.0},
    "segments": [
        _SEG,
        {"label": "S3", "core_radius_nm": 948.0, "air_fill": 0.296, "length_m": 0.3,
         "phase_match": {"lambda_s0_nm": 1417.3, "lambda_i0_nm": 859.4,
                         "tau_s_ps_per_m": 3.3, "theta_rad": 0.001, "tau_i_sign": -1}},
    ],
    "assembly": ["S2", {"label": "S3", "length_m": 0.6}],
    "pump_fwhms_nm": [2.0, 5.0],
    "grid": {"ns": 64, "ni": 64, "signal_range_nm": [1400.0, 1430.0],
             "idler_range_nm": [850.0, 870.0]},
    "model": "full",
    "filter": {"center_nm": 1414.0, "fwhm_nm": 0.8, "centers_nm": [1410.0, 1414.0]},
    "planner": {"target_total_length_m": 0.6, "tolerance_m": 0.0, "max_segments": 2,
                "max_plans": 10},
    "fit": {"gvd_csv": "samples.csv", "initial_core_radius_nm": 940.0,
            "initial_air_fill": 0.28},
    "sweep": {"pump_range_nm": [950.0, 1100.0], "n_points": 3, "segment_label": "S2"},
    "dispersion": {"wavelength_range_nm": [900.0, 1250.0], "n_points": 15,
                   "zdw_search_nm": [900.0, 1250.0]},
    "output_dir": "out",
}
_FULL_AUTO = {
    **{key: value for key, value in _FULL.items() if key != "assembly"},
    "assemblies": [{"name": "a", "segments": ["S2", {"label": "S3"}]}],
    "grid": {"ns": 64, "ni": 64, "lobes": 4.0, "pad_sigmas": 3.0},
    "filter": {"center_nm": 1414.0, "fwhm_nm": 0.8, "scan_range_nm": [1400.0, 1430.0],
               "n_centers": 5},
}


def _node_paths(node, prefix=()):
    children = (node.items() if isinstance(node, dict)
                else enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


def _path_text(path):
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else (f".{key}" if text else key)
    return text


_NEVER_VALID = [None, True, math.nan, math.inf, -math.inf]
_SOMETIMES_VALID = [{}, [], "", "x", -1, 0, 1.5, 10**400, _DROP]


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


# Each node path, with the base that holds it (_FULL where both do).
_FUZZ_BASE = {path: base for base in (_FULL_AUTO, _FULL) for path in _node_paths(base)}


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(list(_FUZZ_BASE)),
       value=st.sampled_from(_NEVER_VALID + _SOMETIMES_VALID))
@example(path=("segments",), value=5)
@example(path=("segments",), value=None)
@example(path=("segments", 0, "length_m"), value=math.nan)
@example(path=("pump", "fwhm_nm"), value=math.nan)
@example(path=("grid", "signal_range_nm", 0), value=math.nan)
@example(path=("pump", "peak_power_w"), value=_DROP)
def test_malformed_config_raises_config_error_naming_the_field(fuzz_path, path, value):
    cfg = copy.deepcopy(_FUZZ_BASE[path])
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    fuzz_path.write_text(json.dumps(cfg))
    try:
        load_config(fuzz_path)
    except ConfigError as exc:
        # A list item's fault may be reported on the list as a whole.
        assert re.sub(r"\[\d+\]$", "", _path_text(path)) in str(exc)
    else:
        assert not any(value is bad for bad in _NEVER_VALID), _path_text(path)


# Ratios that perfbench computes itself rather than from a traced function.
_UNTRACED_METRICS = {"trace.overhead_frac", "failed_frac", "phasematch.no_root_frac"}


def test_benchmark_traces_only_public_functions_that_exist():
    # A traced benchmark run stops with "metrics not produced" when a
    # per-layer metric names a function its layer no longer defines.
    import importlib
    import inspect

    metrics = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
    names = {tuple(m["name"].split(".")[:2]) for m in metrics
             if m["name"] not in _UNTRACED_METRICS}
    assert names
    for layer, function in sorted(names):
        module = importlib.import_module(f"sfwm.{layer}")
        obj = getattr(module, function, None)
        assert not function.startswith("_") and inspect.isfunction(obj), f"{layer}.{function}"
        assert obj.__module__ == module.__name__, f"{layer}.{function}"


def test_cli_imports_no_private_name_from_the_evaluation_layers():
    # The command line formats what the evaluation returns.  A private import
    # from these layers is how a replay of their work (a planner's scoring
    # order, a second grid sizing) would come back.
    import ast

    layers = {"planner", "correlation", "dispersion"}
    tree = ast.parse((REPO / "src" / "sfwm" / "cli.py").read_text())
    imported = [(node.module.split(".")[-1], alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[-1] in layers for alias in node.names]
    assert {module for module, _ in imported} == layers
    assert [(m, name) for m, name in imported if name.startswith("_")] == []
