"""Config validation, file emission, and reproducibility of the command line."""

import copy
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.constants import c

from sfwm.cli import ConfigError, load_config, run

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


def test_rejects_inconsistent_idler_override(tmp_path, capsys):
    cfg = json.loads(small_config(tmp_path).read_text())
    cfg["segments"][0]["phase_match"]["lambda_i0_nm"] = 858.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert run("g2", path) == 1
    record = json.loads(capsys.readouterr().err)
    assert "energy conservation" in record["message"]


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
    run("g2", path, out_dir=tmp_path / "b", threads=3)
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


def test_missing_required_block(tmp_path, capsys):
    path = small_config(tmp_path)
    assert run("plan", path) == 1
    record = json.loads(capsys.readouterr().err)
    assert record["stage"] == "plan"
    assert "planner" in record["message"]


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
    (("model",), "exact", 'model must be "linearized" or "full"'),
    (("filter",), {"centers_nm": [1410.0]}, "missing required field filter.fwhm_nm"),
    (("filter",), {"fwhm_nm": 1.0, "n_centers": 1}, "filter.n_centers = 1 violates >= 2"),
    (("filter",), {"fwhm_nm": 1.0, "centers_nm": []}, "filter.centers_nm must be a list of numbers"),
    (("filter",), {"fwhm_nm": 1.0, "centers_nm": [1410, 1410]},
     "filter.centers_nm must be strictly ascending"),
    (("planner",), {"target_total_length_m": 0.6, "max_plans": 0},
     "planner.max_plans = 0 violates >= 1"),
    (("fit",), {"gvd_csv": 5, "initial_core_radius_nm": 940.0, "initial_air_fill": 0.28},
     "fit.gvd_csv must be a path string"),
    (("sweep",), {"pump_range_nm": [950, 1100], "n_points": 3, "segment_label": 5},
     "sweep.segment_label must be a string"),
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


# Every config block, valid, for the fuzz test below.
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
    "assemblies": [{"name": "a", "segments": ["S2", {"label": "S3"}]}],
    "pump_fwhms_nm": [2.0, 5.0],
    "grid": {"ns": 64, "ni": 64, "signal_range_nm": [1400.0, 1430.0],
             "idler_range_nm": [850.0, 870.0], "lobes": 4.0, "pad_sigmas": 3.0},
    "model": "full",
    "filter": {"center_nm": 1414.0, "fwhm_nm": 0.8, "centers_nm": [1410.0, 1414.0],
               "scan_range_nm": [1400.0, 1430.0], "n_centers": 5},
    "planner": {"target_total_length_m": 0.6, "tolerance_m": 0.0, "max_segments": 2,
                "max_plans": 10},
    "fit": {"gvd_csv": "samples.csv", "initial_core_radius_nm": 940.0,
            "initial_air_fill": 0.28},
    "sweep": {"pump_range_nm": [950.0, 1100.0], "n_points": 3, "segment_label": "S2"},
    "dispersion": {"wavelength_range_nm": [900.0, 1250.0], "n_points": 15,
                   "zdw_search_nm": [900.0, 1250.0]},
    "output_dir": "out",
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


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(path=st.sampled_from(list(_node_paths(_FULL))),
       value=st.sampled_from(_NEVER_VALID + _SOMETIMES_VALID))
@example(path=("segments",), value=5)
@example(path=("segments",), value=None)
@example(path=("segments", 0, "length_m"), value=math.nan)
@example(path=("pump", "fwhm_nm"), value=math.nan)
@example(path=("grid", "signal_range_nm", 0), value=math.nan)
@example(path=("pump", "peak_power_w"), value=_DROP)
def test_malformed_config_raises_config_error_naming_the_field(fuzz_path, path, value):
    cfg = copy.deepcopy(_FULL)
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
