"""Seeded config generators for the benchmark workloads.

A workload is a design session of two ``sfwm`` CLI calls, its steps; each
step turns the seed into one JSON config for one subcommand.  The seed
moves physical parameters only (fiber structure, phase-match angles,
walk-off signs, a common frequency shift); counts, lengths, sweep sizes
and grid sizes are fixed, so the work per run does not depend on the seed.

Print a step's config with ``python3 perfbench/workloads.py <step> <seed>``.
"""

from __future__ import annotations

import json
import math
import random
import sys

C_LIGHT = 299_792_458.0
TWO_PI_C = 2.0 * math.pi * C_LIGHT
PUMP_NM = 1070.0

# Four-segment catalog: core radius (nm), signal wavelength (nm), tau_s (ps/m).
CATALOG_R_NM = (947.0, 947.5, 948.0, 948.5)
CATALOG_AIR_FILL = 0.296
CATALOG_LS0_NM = (1409.9, 1413.6, 1417.3, 1421.0)
CATALOG_TAU_S = (3.2, 3.2, 3.3, 3.4)

# The ten assembly shapes of configs/g2_table.json: (name, [(label, length_m)]).
G2_ASSEMBLIES = (
    ("S1+S2", [("S1", None), ("S2", None)]),
    ("S1+S3", [("S1", None), ("S3", None)]),
    ("S1+S2+S3", [("S1", None), ("S2", None), ("S3", None)]),
    ("S1+S2+S3+S4", [("S1", None), ("S2", None), ("S3", None), ("S4", None)]),
    ("S1+S4+S2+S3", [("S1", None), ("S4", None), ("S2", None), ("S3", None)]),
    ("S1+S3_1.5m_each", [("S1", 1.5), ("S3", 1.5)]),
    ("homogeneous_0.3m", [("S2", 0.3)]),
    ("homogeneous_0.6m", [("S2", 0.6)]),
    ("homogeneous_0.9m", [("S2", 0.9)]),
    ("homogeneous_1.5m", [("S2", 1.5)]),
)

# Six-segment planner pool: the catalog's 3.7 nm spacing continued by two.
POOL_LS0_NM = tuple(1409.9 + 3.7 * k for k in range(6))
POOL_TAU_S = (3.2, 3.2, 3.3, 3.4, 3.4, 3.5)

#: Steps in the order one repetition runs them, each in a fresh interpreter.
WORKLOADS = {
    "fiber_design": ("dispersion_curves", "gvm_sweep"),
    "splice_design": ("g2_table", "splice_plan"),
}
STEPS = tuple(step for steps in WORKLOADS.values() for step in steps)
SUBCOMMAND = {
    "gvm_sweep": "gvm-curve",
    "dispersion_curves": "dispersion",
    "g2_table": "g2-table",
    "splice_plan": "plan",
}


def _structure(rng: random.Random, r_nm: float) -> tuple[float, float]:
    """Core radius within 0.25 nm and air fill within 5e-4 of a catalog fiber."""
    return r_nm + rng.uniform(-0.25, 0.25), CATALOG_AIR_FILL + rng.uniform(-5e-4, 5e-4)


def _overrides(rng: random.Random, ls0_nm, tau_s) -> list[dict]:
    """Phase-match blocks with seeded angles and idler walk-off signs.

    All signal frequencies move by one common shift, so the frequency
    spacing between segments, and with it every auto-sized grid, is the
    same for every seed.
    """
    shift = rng.uniform(-1e12, 1e12)  # rad/s, about 0.75 nm at 1415 nm
    blocks = []
    for lam, tau in zip(ls0_nm, tau_s):
        omega = TWO_PI_C / (lam * 1e-9) + shift
        blocks.append({
            "lambda_s0_nm": TWO_PI_C / omega * 1e9,
            "tau_s_ps_per_m": tau,
            "theta_rad": rng.uniform(5e-4, 5e-3),
            "tau_i_sign": rng.choice((-1, 1)),
        })
    return blocks


def _gvm_sweep(rng: random.Random, tiny: bool) -> dict:
    r, f = _structure(rng, rng.choice(CATALOG_R_NM))
    pump_range, n_points = ([1060.0, 1080.0], 3) if tiny else ([955.0, 1095.0], 29)
    return {
        "pump": {"center_wavelength_nm": PUMP_NM, "fwhm_nm": 2.0},
        "segments": [{"label": "F", "core_radius_nm": r, "air_fill": f, "length_m": 1.9}],
        "sweep": {"pump_range_nm": pump_range, "n_points": n_points, "segment_label": "F"},
    }


def _dispersion_curves(rng: random.Random, tiny: bool) -> dict:
    radii = CATALOG_R_NM[:1] if tiny else CATALOG_R_NM
    segments = []
    for k, r_nm in enumerate(radii):
        r, f = _structure(rng, r_nm)
        segments.append({"label": f"D{k + 1}", "core_radius_nm": r, "air_fill": f,
                         "length_m": 0.3})
    return {
        "segments": segments,
        "dispersion": {
            "wavelength_range_nm": [850.0, 1450.0],
            "n_points": 5 if tiny else 61,
            "zdw_search_nm": [930.0, 950.0] if tiny else [900.0, 1250.0],
        },
    }


def _g2_table(rng: random.Random, tiny: bool) -> dict:
    blocks = _overrides(rng, CATALOG_LS0_NM, CATALOG_TAU_S)
    segments = [
        {"label": f"S{k + 1}", "core_radius_nm": CATALOG_R_NM[k],
         "air_fill": CATALOG_AIR_FILL, "length_m": 0.3, "phase_match": blocks[k]}
        for k in range(4)
    ]
    shapes = (G2_ASSEMBLIES[0], G2_ASSEMBLIES[6]) if tiny else G2_ASSEMBLIES
    assemblies = [
        {"name": name, "segments": [
            label if length is None else {"label": label, "length_m": length}
            for label, length in elems]}
        for name, elems in shapes
    ]
    n = 64 if tiny else 512
    return {
        "pump": {"center_wavelength_nm": PUMP_NM, "fwhm_nm": 2.0},
        "pump_fwhms_nm": [2.0] if tiny else [2.0, 5.0],
        "model": "linearized",
        "segments": segments,
        "assemblies": assemblies,
        "grid": {"ns": n, "ni": n},
    }


def _splice_plan(rng: random.Random, tiny: bool) -> dict:
    size = 3 if tiny else 6
    blocks = _overrides(rng, POOL_LS0_NM[:size], POOL_TAU_S[:size])
    segments = [
        {"label": f"P{k + 1}", "length_m": 0.3, "phase_match": blocks[k]}
        for k in range(size)
    ]
    n = 64 if tiny else 512
    return {
        "pump": {"center_wavelength_nm": PUMP_NM, "fwhm_nm": 2.0},
        "model": "linearized",
        "segments": segments,
        "planner": {"target_total_length_m": 0.6, "tolerance_m": 0.0},
        "grid": {"ns": n, "ni": n},
    }


_GENERATORS = {
    "gvm_sweep": _gvm_sweep,
    "dispersion_curves": _dispersion_curves,
    "g2_table": _g2_table,
    "splice_plan": _splice_plan,
}


def make_config(step: str, seed: int, tiny: bool = False) -> dict:
    """The config of one step for one seed; ``tiny`` shrinks every shape."""
    if step not in _GENERATORS:
        raise ValueError(f"unknown step {step!r}; choose from {STEPS}")
    return _GENERATORS[step](random.Random(f"{step}:{seed}"), tiny)


def item_count(step: str, config: dict) -> int:
    """Work items one call completes: sweep points, table rows plus ZDW scan
    points, g2 rows, or ordered plans."""
    if step == "gvm_sweep":
        return config["sweep"]["n_points"]
    if step == "dispersion_curves":
        disp = config["dispersion"]
        lo, hi = disp["zdw_search_nm"]
        scan_points = int(round(hi - lo)) + 1  # find_zdw's 1 nm scan
        return len(config["segments"]) * (disp["n_points"] + scan_points)
    if step == "g2_table":
        return len(config["assemblies"]) * len(config["pump_fwhms_nm"])
    n = len(config["segments"])  # ordered pairs: only two 0.3 m pieces make 0.6 m
    return n * (n - 1)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: workloads.py <step> <seed>")
    print(json.dumps(make_config(sys.argv[1], int(sys.argv[2])), indent=2))
