"""Config-driven command line front end.

One JSON config file describes the pump, the segment catalog, and the
numerical settings; subcommands pick out what they need.  Outputs are CSV
files (12 significant digits, comma separator) plus a manifest recording the
config hash, library versions, and the grid actually used, so identical
configs always reproduce byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import __version__
from ._scipy import scipy_version
from .correlation import g2_table
from .dispersion import (
    TWO_PI_C,
    FiberSegment,
    dispersion_table,
    find_zdw,
    fit_structure,
    read_gvd_csv,
)
from .phasematch import PhaseMatchPoint, PumpSpec, agvm_roots, gvm_curve, solve_phase_match
from .planner import SegmentPool, plan_exhaustive
from .spectra import (
    AssemblySegment,
    AssemblySpec,
    FilterSpec,
    FrequencyGrid,
    _streamed_marginals,
    build_jsa,
    filter_scan,
    jsa_grid,
)

class ConfigError(ValueError):
    """Config rejected before any computation; message names the field."""


#: How every number is written: 12 significant digits.
_NUMBER = "%.12g"


def _fmt(x: float) -> str:
    return _NUMBER % float(x)


# ---------------------------------------------------------------------------
# schema: one field table per config object, walked once by _walk


@dataclass(frozen=True)
class _Field:
    """How one config field is checked.

    ``kind`` is number, integer, pair ([low, high]), text, numbers (a
    non-empty list of numbers), elements (an assembly's segment list), object
    or list (of objects).  ``lo``/``hi`` bound a number, an integer or both
    ends of a pair, or the length of a text or a list.  ``expect`` completes
    the "must be ..." message of texts, lists and ``choices``.  A default is
    a JSON value, checked like a given one.  ``rule`` checks relations inside
    the parsed value.  ``together`` names a sibling that must be given with
    this field, ``excludes`` siblings that must not; both read the keys the
    file gives, so a default never trips them.
    """

    kind: str = "number"
    required: bool = False
    default: object = None
    lo: float | None = None
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False
    expect: str = ""
    choices: tuple = ()
    fields: dict | None = None  # of the object, or of each list item
    rule: Callable[[object, str], None] | None = None
    together: str | None = None
    excludes: tuple = ()


def _finite(val) -> bool:
    """A JSON number other than a bool, NaN, an infinity or an overflowing int."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _violation(f: _Field, val) -> str | None:
    if f.lo is not None and (val < f.lo or (f.lo_open and val == f.lo)):
        return f"{'>' if f.lo_open else '>='} {f.lo}"
    if f.hi is not None and (val > f.hi or (f.hi_open and val == f.hi)):
        return f"{'<' if f.hi_open else '<='} {f.hi}"
    return None


def _value(f: _Field, val, path: str):
    """Check one value against its field; returns it parsed."""
    if f.kind == "object":
        val = _walk(val, f.fields, path)
    elif f.kind == "list":
        if not isinstance(val, list) or len(val) < (f.lo or 0):
            raise ConfigError(f"{path} must be {f.expect}")
        val = [_walk(item, f.fields, f"{path}[{i}]") for i, item in enumerate(val)]
    elif f.kind == "elements":
        if not isinstance(val, list) or not val:
            raise ConfigError(f"{path} must be a non-empty list")
        val = [_element(item, f"{path}[{i}]") for i, item in enumerate(val)]
    elif f.kind == "numbers":
        if (not isinstance(val, list) or not val
                or any(not _finite(v) or _violation(f, float(v)) for v in val)):
            raise ConfigError(f"{path} must be {f.expect}")
        val = [float(v) for v in val]
    elif f.kind == "pair":
        if not isinstance(val, list) or len(val) != 2 or not all(map(_finite, val)):
            raise ConfigError(f"{path} must be a [low, high] number pair")
        val = (float(val[0]), float(val[1]))
        if val[0] >= val[1]:
            raise ConfigError(f"{path} must satisfy low < high")
        bound = _violation(f, val[0]) or _violation(f, val[1])
        if bound:
            raise ConfigError(f"{path} = [{val[0]}, {val[1]}] violates {bound}")
    elif f.kind == "text":
        if not isinstance(val, str) or len(val) < (f.lo or 0):
            raise ConfigError(f"{path} must be {f.expect}")
    else:
        if f.kind == "integer" and (isinstance(val, bool) or not isinstance(val, int)):
            raise ConfigError(f"{path} must be an integer")
        if f.kind == "number":
            if not _finite(val):
                raise ConfigError(f"{path} must be a number")
            val = float(val)
        bound = _violation(f, val)
        if bound:
            raise ConfigError(f"{path} = {val} violates {bound}")
    if f.choices and val not in f.choices:
        raise ConfigError(f"{path} must be {f.expect}")
    if f.rule is not None:
        f.rule(val, path)
    return val


def _walk(obj, table: dict, path: str) -> dict:
    """Check an object against its field table; returns every field, defaults
    filled in."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be an object")
    unknown = set(obj) - set(table)
    if unknown:
        raise ConfigError(f"unknown field {path}.{sorted(unknown)[0]}")

    def at(key):
        return key if path == "config" else f"{path}.{key}"

    out = {}
    for key, f in table.items():
        if key in obj:
            out[key] = _value(f, obj[key], at(key))
        elif f.required:
            raise ConfigError(f"missing required field {at(key)}")
        else:
            out[key] = None if f.default is None else _value(f, f.default, at(key))
    for key, f in table.items():
        if f.together and (key in obj) != (f.together in obj):
            raise ConfigError(f"{at(key)} and {at(f.together)} must be given together")
        for other in f.excludes:
            if key in obj and other in obj:
                raise ConfigError(f"{at(key)} and {at(other)} must not be given together")
    return out


_ELEMENT = {
    "label": _Field("text", required=True, expect="a string"),
    "length_m": _Field(lo=0, lo_open=True),
}


def _element(val, path: str) -> tuple[str, float | None]:
    """An assembly element: a segment label, or a label with a length override."""
    if isinstance(val, str):
        return val, None
    if isinstance(val, dict):
        elem = _walk(val, _ELEMENT, path)
        return elem["label"], elem["length_m"]
    raise ConfigError(f"{path} must be a label or an object")


def _unique_labels(segments: list, path: str) -> None:
    seen = set()
    for i, seg in enumerate(segments):
        if seg["label"] in seen:
            raise ConfigError(f"duplicate segment label {seg['label']!r} at {path}[{i}]")
        seen.add(seg["label"])


def _safe_name(name: str) -> str:
    """``name`` as it appears in an output file name: every character that is
    not a letter or a digit becomes ``_``."""
    return "".join(ch if ch.isalnum() else "_" for ch in name)


def _file_name_part(label: str, path: str) -> None:
    if "/" in label or "\0" in label:
        raise ConfigError(f"{path} = {label!r} must not contain '/' or NUL: "
                          "it is part of an output file name")


def _unique_names(assemblies: list, path: str) -> None:
    names = [a["name"] for a in assemblies]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path} names must be unique")
    first = {}
    for i, name in enumerate(names):
        j = first.setdefault(_safe_name(name), i)
        if j != i:
            raise ConfigError(f"{path}[{i}].name {name!r} and {path}[{j}].name "
                              f"{names[j]!r} give the same output file suffix")


def _ascending(values: list, path: str) -> None:
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"{path} must be strictly ascending")


_POSITIVE = {"lo": 0, "lo_open": True}
_FRACTION = {"lo": 0, "hi": 1, "lo_open": True, "hi_open": True}

_PHASE_MATCH = {
    "lambda_s0_nm": _Field(required=True, **_POSITIVE),
    "lambda_i0_nm": _Field(**_POSITIVE),
    "tau_s_ps_per_m": _Field(required=True),
    "theta_rad": _Field(required=True, lo=0, hi=math.pi / 2),
    "tau_i_sign": _Field(default=1.0, choices=(-1.0, 1.0), expect="+1 or -1"),
}

_SEGMENT = {
    "label": _Field("text", required=True, lo=1, expect="a non-empty string",
                    rule=_file_name_part),
    "length_m": _Field(required=True, **_POSITIVE),
    "core_radius_nm": _Field(together="air_fill", **_POSITIVE),
    "air_fill": _Field(**_FRACTION),
    "phase_match": _Field("object", fields=_PHASE_MATCH),
}

#: The whole config, in the order its fields are checked.
_CONFIG = {
    "pump": _Field("object", fields={
        "center_wavelength_nm": _Field(required=True, **_POSITIVE),
        "fwhm_nm": _Field(required=True, **_POSITIVE),
        "gamma_per_w_km": _Field(together="peak_power_w", lo=0),
        "peak_power_w": _Field(lo=0),
    }),
    "segments": _Field("list", default=[], expect="a list", fields=_SEGMENT,
                       rule=_unique_labels),
    "assembly": _Field("elements", excludes=("assemblies",)),
    "assemblies": _Field("list", lo=1, expect="a non-empty list", rule=_unique_names,
                         fields={
        "name": _Field("text", required=True, lo=1, expect="a non-empty string"),
        "segments": _Field("elements", required=True),
    }),
    "pump_fwhms_nm": _Field("numbers", expect="a non-empty list of positive numbers",
                            **_POSITIVE),
    "grid": _Field("object", default={}, fields={
        "ns": _Field("integer", lo=2, default=512),
        "ni": _Field("integer", lo=2, default=512),
        # Explicit axes, or an auto-sized window that lobes and pad_sigmas set.
        "signal_range_nm": _Field("pair", together="idler_range_nm",
                                  excludes=("lobes", "pad_sigmas"), **_POSITIVE),
        "idler_range_nm": _Field("pair", **_POSITIVE),
        "lobes": _Field(lo=0.5),
        "pad_sigmas": _Field(lo=0),
    }),
    "model": _Field("text", default="linearized", choices=("linearized", "full"),
                    expect='"linearized" or "full"'),
    "filter": _Field("object", fields={
        "center_nm": _Field(**_POSITIVE),
        "fwhm_nm": _Field(required=True, **_POSITIVE),
        "scan_range_nm": _Field("pair", **_POSITIVE),
        "n_centers": _Field("integer", lo=2, default=201),
        "centers_nm": _Field("numbers", expect="a list of numbers", rule=_ascending,
                             excludes=("scan_range_nm", "n_centers")),
    }),
    "planner": _Field("object", fields={
        "target_total_length_m": _Field(required=True, **_POSITIVE),
        "tolerance_m": _Field(lo=0),
        "max_segments": _Field("integer", lo=1),
        "max_plans": _Field("integer", lo=1, default=100_000),
    }),
    "fit": _Field("object", fields={
        "gvd_csv": _Field("text", required=True, expect="a path string"),
        "initial_core_radius_nm": _Field(required=True, **_POSITIVE),
        "initial_air_fill": _Field(required=True, **_FRACTION),
    }),
    "sweep": _Field("object", fields={
        "pump_range_nm": _Field("pair", required=True, **_POSITIVE),
        "n_points": _Field("integer", lo=2, required=True),
        "segment_label": _Field("text", lo=1, expect="a non-empty string"),
    }),
    "dispersion": _Field("object", default={}, fields={
        "wavelength_range_nm": _Field("pair", default=[850.0, 1450.0], **_POSITIVE),
        "n_points": _Field("integer", lo=2, default=121),
        "zdw_search_nm": _Field("pair", default=[900.0, 1250.0], **_POSITIVE),
    }),
    "output_dir": _Field("text", default="out", lo=1, expect="a non-empty path string"),
}


def load_config(path) -> SimpleNamespace:
    """One attribute per _CONFIG field, defaults filled in, and the file's
    ``raw_sha256``.  ``pump`` is a PumpSpec (or None); ``segments`` maps each
    label to its segment and the one ``fiber`` (or None) every command shares."""
    raw = Path(path).read_bytes()
    try:
        data = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    cfg = SimpleNamespace(**_walk(data, _CONFIG, "config"),
                          raw_sha256=hashlib.sha256(raw).hexdigest())
    if cfg.pump is not None:
        cfg.pump = PumpSpec(**cfg.pump)
    for seg in cfg.segments:  # the schema gives air_fill with core_radius_nm
        seg["fiber"] = None if seg["core_radius_nm"] is None else FiberSegment(
            seg["label"], seg["core_radius_nm"], seg["air_fill"], seg["length_m"])
    cfg.segments = {seg["label"]: seg for seg in cfg.segments}
    return cfg


def _fiber(entry: dict) -> FiberSegment:
    if entry["fiber"] is None:
        raise ConfigError(f"segment {entry['label']!r} needs core_radius_nm and air_fill "
                          "for this command")
    return entry["fiber"]


# ---------------------------------------------------------------------------
# assembly construction


def _point_for(entry: dict, pump: PumpSpec) -> PhaseMatchPoint:
    if entry["phase_match"] is not None:
        ov = entry["phase_match"]
        pt = PhaseMatchPoint.from_signal_and_angle(
            pump.center_wavelength_nm, ov["lambda_s0_nm"], ov["tau_s_ps_per_m"],
            ov["theta_rad"], ov["tau_i_sign"],
        )
        if ov["lambda_i0_nm"] is not None:
            if abs(ov["lambda_i0_nm"] - pt.lambda_i0_nm) > 1e-9 * pt.lambda_i0_nm:
                raise ConfigError(
                    "phase_match.lambda_i0_nm breaks energy conservation: "
                    f"expected {pt.lambda_i0_nm!r} from lambda_s0_nm, "
                    f"got {ov['lambda_i0_nm']!r}; omit it to derive it"
                )
        return pt
    return solve_phase_match(_fiber(entry), pump)


def _build_assembly(cfg: SimpleNamespace, elems, pump: PumpSpec) -> AssemblySpec:
    segs = []
    for label, length in elems:
        if label not in cfg.segments:
            raise ConfigError(f"assembly references unknown segment label {label!r}")
        entry = cfg.segments[label]
        point = _point_for(entry, pump)
        if cfg.model == "full" and entry["fiber"] is None:
            raise ConfigError(
                f"model 'full' needs core_radius_nm/air_fill on segment {label!r}")
        segs.append(AssemblySegment(entry["length_m"] if length is None else length, point,
                                    entry["fiber"]))
    return AssemblySpec(tuple(segs), cfg.model)


def _named_assemblies(cfg: SimpleNamespace, pump: PumpSpec) -> list[tuple[str, AssemblySpec]]:
    if cfg.assembly is not None:
        name = "+".join(label for label, _ in cfg.assembly)
        return [(name, _build_assembly(cfg, cfg.assembly, pump))]
    if cfg.assemblies is not None:
        return [(a["name"], _build_assembly(cfg, a["segments"], pump)) for a in cfg.assemblies]
    if cfg.segments:
        elems = [(label, None) for label in cfg.segments]
        return [("+".join(cfg.segments), _build_assembly(cfg, elems, pump))]
    raise ConfigError("config defines no segments, assembly, or assemblies")


def _jsa_args(cfg: SimpleNamespace) -> dict:
    """The jsa_grid keyword arguments the config's grid block gives; jsa_grid's
    own defaults stand for the rest."""
    g = cfg.grid
    args = {key: g[key] for key in ("ns", "ni", "lobes", "pad_sigmas") if g[key] is not None}
    if g["signal_range_nm"] is not None:
        # Endpoints are given in nm; the axes themselves are uniform in omega.
        def axis(rng, n):
            w_hi = TWO_PI_C / (rng[0] * 1e-9)
            w_lo = TWO_PI_C / (rng[1] * 1e-9)
            return np.linspace(w_lo, w_hi, n)
        args["grid"] = FrequencyGrid(axis(g["signal_range_nm"], g["ns"]),
                                     axis(g["idler_range_nm"], g["ni"]))
    return args


# ---------------------------------------------------------------------------
# output helpers


class _OutputSet:
    """Collects rendered files, then writes them all at once."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: dict[str, str] = {}

    def add_csv(self, name: str, header: list[str], rows) -> None:
        """``rows`` holds rows of text, None or numbers, or is a 2-D float
        array, each of whose rows is formatted in one pass."""
        lines = [",".join(header)]
        if isinstance(rows, np.ndarray):
            line = ",".join([_NUMBER] * rows.shape[1])
            lines += [line % tuple(row) for row in rows.tolist()]
        else:
            for row in rows:
                lines.append(",".join("" if v is None else (v if isinstance(v, str) else _fmt(v))
                                      for v in row))
        self.files[name] = "\n".join(lines) + "\n"

    def add_text(self, name: str, text: str) -> None:
        self.files[name] = text

    def add_json(self, name: str, obj) -> None:
        self.files[name] = json.dumps(obj, sort_keys=True, indent=2) + "\n"

    def write_all(self, manifest: dict) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        manifest = dict(manifest, outputs=sorted(self.files))
        self.files["manifest.json"] = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        for name in sorted(self.files):
            (self.out_dir / name).write_text(self.files[name])


def _grid_record(grid: FrequencyGrid) -> dict:
    return {
        "ns": int(grid.signal.size),
        "ni": int(grid.idler.size),
        "signal_rad_per_s": [grid.signal[0], grid.signal[-1]],
        "idler_rad_per_s": [grid.idler[0], grid.idler[-1]],
        "signal_nm": [TWO_PI_C / grid.signal[-1] * 1e9, TWO_PI_C / grid.signal[0] * 1e9],
        "idler_nm": [TWO_PI_C / grid.idler[-1] * 1e9, TWO_PI_C / grid.idler[0] * 1e9],
    }


def _pump_record(pump: PumpSpec) -> dict:
    return {**asdict(pump), "sigma_rad_per_s": pump.sigma_omega}


#: The columns of a phase-matched point, as the CSVs and the JSI sidecars name them.
_POINT = ("lambda_s0_nm", "lambda_i0_nm", "tau_s_ps_per_m", "tau_i_ps_per_m", "theta_rad")


def _assembly_record(name: str, assembly: AssemblySpec) -> dict:
    return {
        "name": name,
        "model_mode": assembly.model_mode,
        "total_length_m": assembly.total_length_m,
        "segments": [
            {
                "length_m": seg.length_m,
                **{col: getattr(seg.point, col) for col in _POINT},
                "fiber": None if seg.fiber is None else {
                    "label": seg.fiber.label,
                    "core_radius_nm": seg.fiber.core_radius_nm,
                    "air_fill": seg.fiber.air_fill,
                },
            }
            for seg in assembly.segments
        ],
    }


def _jsa_entry(name: str, pump_fwhm_nm: float, grid: FrequencyGrid) -> dict:
    """The manifest's record of one JSA that g2-table or plan streams."""
    return {"name": name, "pump_fwhm_nm": pump_fwhm_nm,
            "ns": int(grid.signal.size), "ni": int(grid.idler.size)}


def _spectrum_rows(spectrum) -> list[tuple[float, float]]:
    wl = spectrum.to_wavelength()
    return list(zip(wl.axis, wl.values))


# ---------------------------------------------------------------------------
# subcommand handlers (compute everything, then write)


def _suffix(name: str, multi: bool) -> str:
    if not multi:
        return ""
    return f"_{_safe_name(name)}"


def _cmd_dispersion(cfg: SimpleNamespace, out: _OutputSet) -> dict:
    lo, hi = cfg.dispersion["wavelength_range_nm"]
    wl = np.linspace(lo, hi, cfg.dispersion["n_points"])
    zdw_rows = []
    fibers = [_fiber(entry) for entry in cfg.segments.values()]
    for label, fiber in zip(cfg.segments, fibers):
        table = dispersion_table(fiber, wl)
        out.add_csv(
            f"dispersion_{label}.csv",
            ["wavelength_nm", "n_eff", "k_rad_per_m", "k1_ps_per_m", "beta2_ps2_per_m"],
            zip(table["wavelength_nm"], table["n_eff"], table["k_rad_per_m"],
                table["k1_ps_per_m"], table["beta2_ps2_per_m"]),
        )
        for z in find_zdw(fiber, cfg.dispersion["zdw_search_nm"]):
            zdw_rows.append((label, z))
    out.add_csv("zdw.csv", ["label", "zdw_nm"], zdw_rows)
    return {}


def _cmd_fit(cfg: SimpleNamespace, out: _OutputSet) -> dict:
    samples = read_gvd_csv(cfg.fit["gvd_csv"])
    result = fit_structure(
        samples,
        (cfg.fit["initial_core_radius_nm"], cfg.fit["initial_air_fill"]),
    )
    out.add_csv("fit.csv", ["core_radius_nm", "air_fill", "residual"],
                [(result.core_radius_nm, result.air_fill, result.residual)])
    return {}


def _cmd_phasematch(cfg: SimpleNamespace, out: _OutputSet) -> dict:
    rows = []
    for label, entry in cfg.segments.items():
        fiber = _fiber(entry)
        pt = solve_phase_match(fiber, cfg.pump)
        rows.append((label, fiber.core_radius_nm, fiber.air_fill, fiber.length_m,
                     *(getattr(pt, col) for col in _POINT)))
    out.add_csv("phasematch.csv", ["label", "core_radius_nm", "air_fill", "length_m", *_POINT],
                rows)
    return {}


def _cmd_gvm_curve(cfg: SimpleNamespace, out: _OutputSet) -> dict:
    label = cfg.sweep["segment_label"] or next(iter(cfg.segments), None)
    if label is None or label not in cfg.segments:
        raise ConfigError("sweep.segment_label missing or unknown")
    fiber = _fiber(cfg.segments[label])
    curve = gvm_curve(fiber, cfg.sweep["pump_range_nm"], cfg.sweep["n_points"])
    rows = [(s.lambda_p_nm, *(None if s.point is None else getattr(s.point, c) for c in _POINT))
            for s in curve]
    out.add_csv("gvm_curve.csv", ["lambda_p_nm", *_POINT], rows)
    roots = agvm_roots(fiber, curve)
    out.add_csv("agvm_roots.csv", ["condition", "pump_nm"],
                [("tau_i_zero", roots.pump_for_tau_i_zero),
                 ("tau_s_zero", roots.pump_for_tau_s_zero)])
    return {}


def _each_jsa(cfg: SimpleNamespace, write: Callable) -> dict:
    """Call ``write(suffix, name, assembly, pump, grid)`` for each named
    assembly on the grid its JSA is sampled on; returns the manifest's grid
    record(s)."""
    pump = cfg.pump
    named = _named_assemblies(cfg, pump)
    multi = len(named) > 1
    jsa_args = _jsa_args(cfg)
    grids: dict[str, dict] = {}
    for name, assembly in named:
        grid = jsa_grid(assembly, pump, **jsa_args)
        grids[name] = _grid_record(grid)
        write(_suffix(name, multi), name, assembly, pump, grid)
    return {"grid": grids[named[0][0]] if not multi else grids}


def _cmd_jsa(cfg: SimpleNamespace, out: _OutputSet) -> dict:
    def write(sfx, name, assembly, pump, grid):
        jsi = build_jsa(assembly, pump, grid).intensity()[::-1, ::-1]
        lam_i = grid.idler_wavelength_nm()[::-1]
        out.add_csv(f"jsi{sfx}.csv", [""] + [_fmt(v) for v in lam_i],
                    np.column_stack((grid.signal_wavelength_nm()[::-1], jsi)))
        out.add_json(f"jsi_meta{sfx}.json", {
            "pump": _pump_record(pump),
            "assembly": _assembly_record(name, assembly),
            "grid": _grid_record(grid),
            "normalization": "raw",
        })
    return _each_jsa(cfg, write)


def _cmd_marginal(cfg: SimpleNamespace, out: _OutputSet) -> dict:
    def write(sfx, name, assembly, pump, grid):
        for axis, spectrum in _streamed_marginals(assembly, pump, grid).items():
            out.add_csv(f"marginal_{axis}{sfx}.csv", ["x_nm", "intensity"],
                        _spectrum_rows(spectrum))
    return _each_jsa(cfg, write)


def _filter_centers(cfg: SimpleNamespace, assembly: AssemblySpec) -> list[float]:
    if cfg.filter["centers_nm"] is not None:
        return cfg.filter["centers_nm"]
    if cfg.filter["scan_range_nm"] is not None:
        lo, hi = cfg.filter["scan_range_nm"]
    else:
        # Scan across the union of the segments' phase-matched neighbourhoods.
        ls0 = [seg.point.lambda_s0_nm for seg in assembly.segments]
        lo, hi = min(ls0) - 12.0, max(ls0) + 12.0
    return list(np.linspace(lo, hi, cfg.filter["n_centers"]))


def _cmd_filter_scan(cfg: SimpleNamespace, out: _OutputSet) -> dict:
    pump = cfg.pump
    named = _named_assemblies(cfg, pump)
    multi = len(named) > 1
    for name, assembly in named:
        centers = _filter_centers(cfg, assembly)
        center_nm = cfg.filter["center_nm"] or float(np.mean(centers))
        scan = filter_scan(assembly, FilterSpec(center_nm, cfg.filter["fwhm_nm"]),
                           centers, pump=pump)
        out.add_csv(f"filter_scan{_suffix(name, multi)}.csv", ["x_nm", "intensity"],
                    list(zip(scan.axis, scan.values)))
    return {}


#: The columns of a G2Row, as g2.csv and g2_table.csv name them.
_G2 = ("configuration", "total_length_m", "pump_fwhm_nm", "g2", "schmidt_number", "purity")


def _cmd_g2(cfg: SimpleNamespace, out: _OutputSet) -> dict:
    named = _named_assemblies(cfg, cfg.pump)
    if len(named) != 1:
        raise ConfigError("g2 works on a single assembly; use g2-table for sets")
    rows = g2_table(named, [cfg.pump], **_jsa_args(cfg))
    out.add_csv("g2.csv", _G2, [[getattr(row, col) for col in _G2] for row in rows])
    return {"grid": _grid_record(rows[0].grid)}


def _cmd_g2_table(cfg: SimpleNamespace, out: _OutputSet) -> dict:
    fwhms = cfg.pump_fwhms_nm or [cfg.pump.fwhm_nm]
    pumps = [replace(cfg.pump, fwhm_nm=fw) for fw in fwhms]
    rows = g2_table(_named_assemblies(cfg, pumps[0]), pumps, **_jsa_args(cfg))
    out.add_csv("g2_table.csv", _G2, [[getattr(row, col) for col in _G2] for row in rows])
    return {"jsas": [_jsa_entry(row.configuration, row.pump_fwhm_nm, row.grid) for row in rows]}


def _cmd_plan(cfg: SimpleNamespace, out: _OutputSet) -> dict:
    pump = cfg.pump
    if cfg.model == "full":
        raise ConfigError("plan scores splices in the linearized model only; got model 'full'")
    segments = _build_assembly(cfg, [(label, None) for label in cfg.segments], pump).segments
    pool = SegmentPool(
        candidates=tuple(zip(cfg.segments, segments)),
        target_total_length_m=cfg.planner["target_total_length_m"],
        tolerance_m=cfg.planner["tolerance_m"],
        max_segments=cfg.planner["max_segments"],
    )
    plan = plan_exhaustive(pool, pump, max_plans=cfg.planner["max_plans"], **_jsa_args(cfg))
    out.add_csv("plan_spectrum.csv", ["x_nm", "intensity"],
                _spectrum_rows(plan.predicted_spectrum))
    lengths = " ".join(_fmt(segments[i].length_m) for i in plan.order)
    out.add_text("plan.txt", "\n".join([
        f"order: {' '.join(plan.labels)}",
        f"indices: {' '.join(str(i) for i in plan.order)}",
        f"lengths_m: {lengths}",
        f"total_length_m: {_fmt(plan.total_length_m)}",
        f"predicted_g2: {_fmt(plan.predicted_g2)}",
        "spectrum_csv: plan_spectrum.csv",
    ]) + "\n")
    return {"jsas": [_jsa_entry("+".join(scored.labels), pump.fwhm_nm, scored.grid)
                     for scored in plan.scored]}


#: Each subcommand's handler and the config fields it needs, checked in order.
_HANDLERS = {
    "dispersion": (_cmd_dispersion, ("segments",)),
    "fit": (_cmd_fit, ("fit",)),
    "phasematch": (_cmd_phasematch, ("pump", "segments")),
    "gvm-curve": (_cmd_gvm_curve, ("sweep",)),
    "jsa": (_cmd_jsa, ("pump",)),
    "marginal": (_cmd_marginal, ("pump",)),
    "filter-scan": (_cmd_filter_scan, ("pump", "filter")),
    "g2": (_cmd_g2, ("pump",)),
    "g2-table": (_cmd_g2_table, ("pump", "assemblies")),
    "plan": (_cmd_plan, ("pump", "planner", "segments")),
}


def run(subcommand: str, config_path, out_dir=None) -> int:
    """Execute one subcommand; returns the process exit status."""
    stage = "config"
    try:
        cfg = load_config(config_path)
        stage = subcommand
        handler, needs = _HANDLERS[subcommand]
        for need in needs:
            if not getattr(cfg, need):  # absent, or an empty segments list
                raise ConfigError(f"missing required field {need}")
        out = _OutputSet(Path(out_dir) if out_dir else Path(cfg.output_dir))
        extra = handler(cfg, out)
        manifest = {
            "subcommand": subcommand,
            "config_sha256": cfg.raw_sha256,
            "versions": {
                "sfwm": __version__,
                "numpy": np.__version__,
                "scipy": scipy_version(),
                "python": ".".join(str(v) for v in sys.version_info[:3]),
            },
            "grid": None,
            **extra,
        }
        out.write_all(manifest)
        return 0
    except Exception as exc:  # noqa: BLE001 - single reporting point
        record = {"stage": stage, "message": f"{type(exc).__name__}: {exc}"}
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sfwm",
        description="Photon-pair spectra from pulse-pumped four-wave mixing "
                    "in segmented photonic crystal fibers",
    )
    parser.add_argument("subcommand", choices=_HANDLERS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out)


if __name__ == "__main__":
    sys.exit(main())
