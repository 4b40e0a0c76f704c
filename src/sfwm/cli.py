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
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

from . import __version__
from .correlation import G2Row, g2_table
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
    DEFAULT_LOBES,
    DEFAULT_PAD_SIGMAS,
    AssemblySegment,
    AssemblySpec,
    FilterSpec,
    FrequencyGrid,
    build_jsa,
    filter_scan,
    marginal,
)

SUBCOMMANDS = (
    "dispersion", "fit", "phasematch", "gvm-curve", "jsa", "marginal",
    "filter-scan", "g2", "g2-table", "plan",
)


class ConfigError(ValueError):
    """Config rejected before any computation; message names the field."""


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


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
    the parsed value.
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
    out = {}
    for key, f in table.items():
        sub = key if path == "config" else f"{path}.{key}"
        if key in obj:
            out[key] = _value(f, obj[key], sub)
        elif f.required:
            raise ConfigError(f"missing required field {sub}")
        else:
            out[key] = None if f.default is None else _value(f, f.default, sub)
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


def _gain_together(pump: dict, path: str) -> None:
    if (pump["gamma_per_w_km"] is None) != (pump["peak_power_w"] is None):
        raise ConfigError(f"{path}.gamma_per_w_km and {path}.peak_power_w "
                          "must be given together")


def _unique_labels(segments: list, path: str) -> None:
    seen = set()
    for i, seg in enumerate(segments):
        if seg["label"] in seen:
            raise ConfigError(f"duplicate segment label {seg['label']!r} at {path}[{i}]")
        seen.add(seg["label"])


def _unique_names(assemblies: list, path: str) -> None:
    names = [a["name"] for a in assemblies]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path} names must be unique")


def _ranges_together(grid: dict, path: str) -> None:
    if (grid["signal_range_nm"] is None) != (grid["idler_range_nm"] is None):
        raise ConfigError(f"{path}.signal_range_nm and {path}.idler_range_nm "
                          "must be given together")


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
    "label": _Field("text", required=True, lo=1, expect="a non-empty string"),
    "length_m": _Field(required=True, **_POSITIVE),
    "core_radius_nm": _Field(**_POSITIVE),
    "air_fill": _Field(**_FRACTION),
    "phase_match": _Field("object", fields=_PHASE_MATCH),
}

#: The whole config, in the order its fields are checked.
_CONFIG = {
    "pump": _Field("object", rule=_gain_together, fields={
        "center_wavelength_nm": _Field(required=True, **_POSITIVE),
        "fwhm_nm": _Field(required=True, **_POSITIVE),
        "gamma_per_w_km": _Field(lo=0),
        "peak_power_w": _Field(lo=0),
    }),
    "segments": _Field("list", default=[], expect="a list", fields=_SEGMENT,
                       rule=_unique_labels),
    "assembly": _Field("elements"),
    "assemblies": _Field("list", lo=1, expect="a non-empty list", rule=_unique_names,
                         fields={
        "name": _Field("text", required=True, lo=1, expect="a non-empty string"),
        "segments": _Field("elements", required=True),
    }),
    "pump_fwhms_nm": _Field("numbers", expect="a non-empty list of positive numbers",
                            **_POSITIVE),
    "grid": _Field("object", default={}, rule=_ranges_together, fields={
        "ns": _Field("integer", lo=2, default=512),
        "ni": _Field("integer", lo=2, default=512),
        "signal_range_nm": _Field("pair", **_POSITIVE),
        "idler_range_nm": _Field("pair", **_POSITIVE),
        "lobes": _Field(lo=0.5, default=DEFAULT_LOBES),
        "pad_sigmas": _Field(lo=0, default=DEFAULT_PAD_SIGMAS),
    }),
    "model": _Field("text", default="linearized", choices=("linearized", "full"),
                    expect='"linearized" or "full"'),
    "filter": _Field("object", fields={
        "center_nm": _Field(**_POSITIVE),
        "fwhm_nm": _Field(required=True, **_POSITIVE),
        "scan_range_nm": _Field("pair", **_POSITIVE),
        "n_centers": _Field("integer", lo=2, default=201),
        "centers_nm": _Field("numbers", expect="a list of numbers", rule=_ascending),
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
        "segment_label": _Field("text", expect="a string"),
    }),
    "dispersion": _Field("object", default={}, fields={
        "wavelength_range_nm": _Field("pair", default=[850.0, 1450.0], **_POSITIVE),
        "n_points": _Field("integer", lo=2, default=121),
        "zdw_search_nm": _Field("pair", default=[900.0, 1250.0], **_POSITIVE),
    }),
    "output_dir": _Field("text", default="out", lo=1, expect="a non-empty path string"),
}


@dataclass
class SegmentEntry:
    label: str
    length_m: float
    core_radius_nm: float | None
    air_fill: float | None
    phase_match: dict | None  # validated linearization override

    def fiber(self, length_m: float | None = None) -> FiberSegment:
        if self.core_radius_nm is None or self.air_fill is None:
            raise ConfigError(
                f"segment {self.label!r} needs core_radius_nm and air_fill for this command"
            )
        return FiberSegment(self.label, self.core_radius_nm, self.air_fill,
                            length_m if length_m is not None else self.length_m)


@dataclass
class RunConfig:
    pump: PumpSpec | None
    segments: dict[str, SegmentEntry]  # in config order
    assembly: list[tuple[str, float | None]] | None
    assemblies: list[tuple[str, list[tuple[str, float | None]]]] | None
    pump_fwhms_nm: list[float] | None
    grid: dict
    model: str
    filt: dict | None
    planner: dict | None
    fit: dict | None
    sweep: dict | None
    dispersion: dict
    output_dir: str
    raw_sha256: str


def load_config(path) -> RunConfig:
    raw = Path(path).read_bytes()
    try:
        data = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not text
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    c = _walk(data, _CONFIG, "config")
    return RunConfig(
        pump=None if c["pump"] is None else PumpSpec(**c["pump"]),
        segments={seg["label"]: SegmentEntry(**seg) for seg in c["segments"]},
        assembly=c["assembly"],
        assemblies=None if c["assemblies"] is None else [
            (a["name"], a["segments"]) for a in c["assemblies"]],
        pump_fwhms_nm=c["pump_fwhms_nm"], grid=c["grid"], model=c["model"],
        filt=c["filter"], planner=c["planner"], fit=c["fit"], sweep=c["sweep"],
        dispersion=c["dispersion"], output_dir=c["output_dir"],
        raw_sha256=hashlib.sha256(raw).hexdigest(),
    )


# ---------------------------------------------------------------------------
# assembly construction


def _point_for(entry: SegmentEntry, pump: PumpSpec) -> PhaseMatchPoint:
    if entry.phase_match is not None:
        ov = entry.phase_match
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
    return solve_phase_match(entry.fiber(), pump)


def _build_assembly(cfg: RunConfig, elems, pump: PumpSpec) -> AssemblySpec:
    segs = []
    for label, length in elems:
        if label not in cfg.segments:
            raise ConfigError(f"assembly references unknown segment label {label!r}")
        entry = cfg.segments[label]
        seg_len = length if length is not None else entry.length_m
        point = _point_for(entry, pump)
        fiber = None
        if entry.core_radius_nm is not None and entry.air_fill is not None:
            fiber = entry.fiber(seg_len)
        if cfg.model == "full" and fiber is None:
            raise ConfigError(
                f"model 'full' needs core_radius_nm/air_fill on segment {label!r}")
        segs.append(AssemblySegment(seg_len, point, fiber))
    return AssemblySpec(tuple(segs), cfg.model)


def _named_assemblies(cfg: RunConfig, pump: PumpSpec) -> list[tuple[str, AssemblySpec]]:
    if cfg.assembly is not None:
        name = "+".join(label for label, _ in cfg.assembly)
        return [(name, _build_assembly(cfg, cfg.assembly, pump))]
    if cfg.assemblies is not None:
        return [(name, _build_assembly(cfg, elems, pump))
                for name, elems in cfg.assemblies]
    if cfg.segments:
        elems = [(label, None) for label in cfg.segments]
        return [("+".join(cfg.segments), _build_assembly(cfg, elems, pump))]
    raise ConfigError("config defines no segments, assembly, or assemblies")


def _jsa_args(cfg: RunConfig, threads: int) -> dict:
    """The build_jsa keyword arguments the config's grid block asks for."""
    g = cfg.grid
    grid = None
    if g["signal_range_nm"] is not None:
        # Endpoints are given in nm; the axes themselves are uniform in omega.
        def axis(rng, n):
            w_hi = TWO_PI_C / (rng[0] * 1e-9)
            w_lo = TWO_PI_C / (rng[1] * 1e-9)
            return np.linspace(w_lo, w_hi, n)
        grid = FrequencyGrid(axis(g["signal_range_nm"], g["ns"]),
                             axis(g["idler_range_nm"], g["ni"]))
    return {"grid": grid, "ns": g["ns"], "ni": g["ni"], "lobes": g["lobes"],
            "pad_sigmas": g["pad_sigmas"], "threads": threads}


def _require_pump(cfg: RunConfig) -> PumpSpec:
    if cfg.pump is None:
        raise ConfigError("missing required field pump")
    return cfg.pump


# ---------------------------------------------------------------------------
# output helpers


class _OutputSet:
    """Collects rendered files, then writes them all at once."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.files: dict[str, str] = {}

    def add_csv(self, name: str, header: list[str], rows) -> None:
        lines = [",".join(header)]
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
    return {
        "center_wavelength_nm": pump.center_wavelength_nm,
        "fwhm_nm": pump.fwhm_nm,
        "sigma_rad_per_s": pump.sigma_omega,
        "gamma_per_w_km": pump.gamma_per_w_km,
        "peak_power_w": pump.peak_power_w,
    }


def _assembly_record(name: str, assembly: AssemblySpec) -> dict:
    return {
        "name": name,
        "model_mode": assembly.model_mode,
        "total_length_m": assembly.total_length_m,
        "segments": [
            {
                "length_m": seg.length_m,
                "lambda_s0_nm": seg.point.lambda_s0_nm,
                "lambda_i0_nm": seg.point.lambda_i0_nm,
                "tau_s_ps_per_m": seg.point.tau_s_ps_per_m,
                "tau_i_ps_per_m": seg.point.tau_i_ps_per_m,
                "theta_rad": seg.point.theta_rad,
                "fiber": None if seg.fiber is None else {
                    "label": seg.fiber.label,
                    "core_radius_nm": seg.fiber.core_radius_nm,
                    "air_fill": seg.fiber.air_fill,
                },
            }
            for seg in assembly.segments
        ],
    }


def _spectrum_rows(spectrum) -> list[tuple[float, float]]:
    wl = spectrum.to_wavelength()
    return list(zip(wl.axis, wl.values))


# ---------------------------------------------------------------------------
# subcommand handlers (compute everything, then write)


def _suffix(name: str, multi: bool) -> str:
    if not multi:
        return ""
    safe = "".join(ch if ch.isalnum() else "_" for ch in name)
    return f"_{safe}"


def _cmd_dispersion(cfg: RunConfig, out: _OutputSet, threads: int) -> dict:
    if not cfg.segments:
        raise ConfigError("dispersion needs a segments list")
    lo, hi = cfg.dispersion["wavelength_range_nm"]
    wl = np.linspace(lo, hi, cfg.dispersion["n_points"])
    zdw_rows = []
    for label, entry in cfg.segments.items():
        fiber = entry.fiber()
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


def _cmd_fit(cfg: RunConfig, out: _OutputSet, threads: int) -> dict:
    if cfg.fit is None:
        raise ConfigError("missing required field fit")
    samples = read_gvd_csv(cfg.fit["gvd_csv"])
    result = fit_structure(
        samples,
        (cfg.fit["initial_core_radius_nm"], cfg.fit["initial_air_fill"]),
    )
    out.add_csv("fit.csv", ["core_radius_nm", "air_fill", "residual"],
                [(result.core_radius_nm, result.air_fill, result.residual)])
    return {}


def _cmd_phasematch(cfg: RunConfig, out: _OutputSet, threads: int) -> dict:
    pump = _require_pump(cfg)
    if not cfg.segments:
        raise ConfigError("phasematch needs a segments list")
    rows = []
    for label, entry in cfg.segments.items():
        fiber = entry.fiber()
        pt = solve_phase_match(fiber, pump)
        rows.append((label, fiber.core_radius_nm, fiber.air_fill, fiber.length_m,
                     pt.lambda_s0_nm, pt.lambda_i0_nm, pt.tau_s_ps_per_m,
                     pt.tau_i_ps_per_m, pt.theta_rad))
    out.add_csv(
        "phasematch.csv",
        ["label", "core_radius_nm", "air_fill", "length_m", "lambda_s0_nm",
         "lambda_i0_nm", "tau_s_ps_per_m", "tau_i_ps_per_m", "theta_rad"],
        rows,
    )
    return {}


def _cmd_gvm_curve(cfg: RunConfig, out: _OutputSet, threads: int) -> dict:
    if cfg.sweep is None:
        raise ConfigError("missing required field sweep")
    label = cfg.sweep["segment_label"] or next(iter(cfg.segments), None)
    if label is None or label not in cfg.segments:
        raise ConfigError("sweep.segment_label missing or unknown")
    fiber = cfg.segments[label].fiber()
    curve = gvm_curve(fiber, cfg.sweep["pump_range_nm"], cfg.sweep["n_points"])
    rows = []
    for sample in curve:
        if sample.point is None:
            rows.append((sample.lambda_p_nm, None, None, None, None, None))
        else:
            pt = sample.point
            rows.append((sample.lambda_p_nm, pt.lambda_s0_nm, pt.lambda_i0_nm,
                         pt.tau_s_ps_per_m, pt.tau_i_ps_per_m, pt.theta_rad))
    out.add_csv(
        "gvm_curve.csv",
        ["lambda_p_nm", "lambda_s0_nm", "lambda_i0_nm", "tau_s_ps_per_m",
         "tau_i_ps_per_m", "theta_rad"],
        rows,
    )
    roots = agvm_roots(fiber, curve)
    out.add_csv("agvm_roots.csv", ["condition", "pump_nm"],
                [("tau_i_zero", roots.pump_for_tau_i_zero),
                 ("tau_s_zero", roots.pump_for_tau_s_zero)])
    return {}


def _cmd_jsa(cfg: RunConfig, out: _OutputSet, threads: int) -> dict:
    pump = _require_pump(cfg)
    named = _named_assemblies(cfg, pump)
    multi = len(named) > 1
    jsa_args = _jsa_args(cfg, threads)
    grids: dict[str, dict] = {}
    for name, assembly in named:
        jsa = build_jsa(assembly, pump, **jsa_args)
        grids[name] = _grid_record(jsa.grid)
        sfx = _suffix(name, multi)
        lam_s = jsa.grid.signal_wavelength_nm()[::-1]
        lam_i = jsa.grid.idler_wavelength_nm()[::-1]
        jsi = jsa.intensity()[::-1, ::-1]
        header = [""] + [_fmt(v) for v in lam_i]
        rows = [[_fmt(lam_s[i])] + [_fmt(v) for v in jsi[i]] for i in range(lam_s.size)]
        out.add_csv(f"jsi{sfx}.csv", header, rows)
        out.add_json(f"jsi_meta{sfx}.json", {
            "pump": _pump_record(pump),
            "assembly": _assembly_record(name, assembly),
            "grid": grids[name],
            "normalization": "raw",
        })
    return {"grid": grids[named[0][0]] if not multi else grids}


def _cmd_marginal(cfg: RunConfig, out: _OutputSet, threads: int) -> dict:
    pump = _require_pump(cfg)
    named = _named_assemblies(cfg, pump)
    multi = len(named) > 1
    jsa_args = _jsa_args(cfg, threads)
    grids: dict[str, dict] = {}
    for name, assembly in named:
        jsa = build_jsa(assembly, pump, **jsa_args)
        grids[name] = _grid_record(jsa.grid)
        sfx = _suffix(name, multi)
        out.add_csv(f"marginal_signal{sfx}.csv", ["x_nm", "intensity"],
                    _spectrum_rows(marginal(jsa, "signal")))
        out.add_csv(f"marginal_idler{sfx}.csv", ["x_nm", "intensity"],
                    _spectrum_rows(marginal(jsa, "idler")))
    return {"grid": grids[named[0][0]] if not multi else grids}


def _filter_centers(cfg: RunConfig, assembly: AssemblySpec) -> list[float]:
    filt = cfg.filt
    if filt["centers_nm"] is not None:
        return filt["centers_nm"]
    if filt["scan_range_nm"] is not None:
        lo, hi = filt["scan_range_nm"]
    else:
        # Scan across the union of the segments' phase-matched neighbourhoods.
        ls0 = [seg.point.lambda_s0_nm for seg in assembly.segments]
        lo, hi = min(ls0) - 12.0, max(ls0) + 12.0
    return list(np.linspace(lo, hi, filt["n_centers"]))


def _cmd_filter_scan(cfg: RunConfig, out: _OutputSet, threads: int) -> dict:
    pump = _require_pump(cfg)
    if cfg.filt is None:
        raise ConfigError("missing required field filter")
    named = _named_assemblies(cfg, pump)
    multi = len(named) > 1
    for name, assembly in named:
        centers = _filter_centers(cfg, assembly)
        center_nm = cfg.filt["center_nm"] or float(np.mean(centers))
        scan = filter_scan(assembly, FilterSpec(center_nm, cfg.filt["fwhm_nm"]),
                           centers, pump=pump)
        out.add_csv(f"filter_scan{_suffix(name, multi)}.csv", ["x_nm", "intensity"],
                    list(zip(scan.axis, scan.values)))
    return {}


_G2_HEADER = [f.name for f in fields(G2Row)]


def _cmd_g2(cfg: RunConfig, out: _OutputSet, threads: int) -> dict:
    pump = _require_pump(cfg)
    named = _named_assemblies(cfg, pump)
    if len(named) != 1:
        raise ConfigError("g2 works on a single assembly; use g2-table for sets")
    name, assembly = named[0]
    jsa = build_jsa(assembly, pump, **_jsa_args(cfg, threads))
    out.add_csv("g2.csv", _G2_HEADER, [astuple(G2Row.from_jsa(name, jsa))])
    return {"grid": _grid_record(jsa.grid)}


def _cmd_g2_table(cfg: RunConfig, out: _OutputSet, threads: int) -> dict:
    pump = _require_pump(cfg)
    if cfg.assemblies is None:
        raise ConfigError("missing required field assemblies")
    fwhms = cfg.pump_fwhms_nm or [pump.fwhm_nm]
    pumps = [PumpSpec(pump.center_wavelength_nm, fw, pump.gamma_per_w_km,
                      pump.peak_power_w) for fw in fwhms]
    configurations = _named_assemblies(cfg, pumps[0])
    rows = g2_table(configurations, pumps, **_jsa_args(cfg, threads))
    out.add_csv("g2_table.csv", _G2_HEADER, map(astuple, rows))
    return {}


def _cmd_plan(cfg: RunConfig, out: _OutputSet, threads: int) -> dict:
    pump = _require_pump(cfg)
    if cfg.planner is None:
        raise ConfigError("missing required field planner")
    if not cfg.segments:
        raise ConfigError("plan needs a segments list as the candidate pool")
    candidates = []
    for label, entry in cfg.segments.items():
        point = _point_for(entry, pump)
        if entry.core_radius_nm is not None:
            fiber = entry.fiber()
        else:
            # Linearized planning uses only label and length; stand-in geometry.
            fiber = FiberSegment(label, 948.0, 0.296, entry.length_m)
        candidates.append((fiber, point))
    pool = SegmentPool(
        candidates=tuple(candidates),
        target_total_length_m=cfg.planner["target_total_length_m"],
        tolerance_m=cfg.planner["tolerance_m"],
        max_segments=cfg.planner["max_segments"],
    )
    plan = plan_exhaustive(pool, pump, max_plans=cfg.planner["max_plans"],
                           **_jsa_args(cfg, threads))
    out.add_csv("plan_spectrum.csv", ["x_nm", "intensity"],
                _spectrum_rows(plan.predicted_spectrum))
    lengths = " ".join(_fmt(candidates[i][0].length_m) for i in plan.order)
    out.add_text("plan.txt", "\n".join([
        f"order: {' '.join(plan.labels)}",
        f"indices: {' '.join(str(i) for i in plan.order)}",
        f"lengths_m: {lengths}",
        f"total_length_m: {_fmt(plan.total_length_m)}",
        f"predicted_g2: {_fmt(plan.predicted_g2)}",
        "spectrum_csv: plan_spectrum.csv",
    ]) + "\n")
    return {}


_HANDLERS = {
    "dispersion": _cmd_dispersion,
    "fit": _cmd_fit,
    "phasematch": _cmd_phasematch,
    "gvm-curve": _cmd_gvm_curve,
    "jsa": _cmd_jsa,
    "marginal": _cmd_marginal,
    "filter-scan": _cmd_filter_scan,
    "g2": _cmd_g2,
    "g2-table": _cmd_g2_table,
    "plan": _cmd_plan,
}


def run(subcommand: str, config_path, out_dir=None, threads: int = 1) -> int:
    """Execute one subcommand; returns the process exit status."""
    stage = "config"
    try:
        cfg = load_config(config_path)
        stage = subcommand
        out = _OutputSet(Path(out_dir) if out_dir else Path(cfg.output_dir))
        extra = _HANDLERS[subcommand](cfg, out, threads)
        # threads is an execution detail, not a result; keeping it out of the
        # manifest keeps reruns byte-identical across thread counts.
        manifest = {
            "subcommand": subcommand,
            "config_sha256": cfg.raw_sha256,
            "versions": {
                "sfwm": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                "python": ".".join(str(v) for v in sys.version_info[:3]),
            },
            "grid": extra.get("grid"),
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
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="output directory (overrides config)")
    parser.add_argument("--threads", type=int, default=1,
                        help="worker threads for grid evaluation; results do not depend on it")
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    return run(args.subcommand, args.config, args.out, args.threads)


if __name__ == "__main__":
    sys.exit(main())
