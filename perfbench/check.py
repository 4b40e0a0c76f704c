"""Correctness checks on the files one ``sfwm.cli.run`` call wrote.

Every output row is checked against invariants that hold for any seed:
energy conservation of matched pairs, mode indices between cladding and
core, ``1 <= g2 <= 2`` with ``g2 = 1 + purity`` and ``K = 1/purity``, a
feasible plan.  On the seed the references were recorded at, each row is
also compared with ``references.json`` (recorded from the program with
``python3 perfbench/run.py --record-references``).  A row that breaks any
check counts once as failed.

Pure standard library, so it runs without the program's dependencies.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

from workloads import C_LIGHT

ENERGY_RESIDUAL_MAX = 1e-9
IDENTITY_TOL = 1e-9           # g2 = 1 + purity, K = 1/purity
G2_REF_REL = 1e-7             # g2, purity, K against references
PHASEMATCH_REF_REL = 1e-6     # lambda_s0 and tau against references
BETA2_REF_ABS = 1e-5          # ps^2/m
N_EFF_REF_REL = 1e-9
ROOT_REF_ABS_NM = 0.01        # ZDW and AGVM roots

GVM_HEADER = ["lambda_p_nm", "lambda_s0_nm", "lambda_i0_nm", "tau_s_ps_per_m",
              "tau_i_ps_per_m", "theta_rad"]
AGVM_HEADER = ["condition", "pump_nm"]
DISPERSION_HEADER = ["wavelength_nm", "n_eff", "k_rad_per_m", "k1_ps_per_m",
                     "beta2_ps2_per_m"]
ZDW_HEADER = ["label", "zdw_nm"]
G2_HEADER = ["configuration", "total_length_m", "pump_fwhm_nm", "g2", "schmidt_number",
             "purity"]
SPECTRUM_HEADER = ["x_nm", "intensity"]

_SELLMEIER_B = (0.6961663, 0.4079426, 0.8974794)
_SELLMEIER_C_UM2 = (0.0684043**2, 0.1162414**2, 9.896161**2)


class OutputMissing(Exception):
    """An output file is absent or has the wrong header."""


class Verdict:
    """Rows checked, rows failed, and one message per failed row."""

    def __init__(self):
        self.rows = 0
        self.failed = 0
        self.problems: list[str] = []

    def row(self, where: str, errors: list[str]) -> None:
        self.rows += 1
        if errors:
            self.failed += 1
            self.problems.append(f"{where}: {'; '.join(errors)}")

    def fail_all(self, count: int, why: str) -> None:
        self.rows += count
        self.failed += count
        self.problems.append(why)


def _close(value: float, ref: float, rel: float = 0.0, abs_: float = 0.0) -> bool:
    return abs(value - ref) <= max(abs_, rel * abs(ref))


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    if not path.is_file():
        raise OutputMissing(f"{path.name} missing")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        raise OutputMissing(f"{path.name} header {rows[0] if rows else None} != {header}")
    return rows[1:]


def _floats(row: list[str], where: str) -> list[float | None]:
    vals = []
    for cell in row:
        if cell == "":
            vals.append(None)
            continue
        x = float(cell)
        if not math.isfinite(x):
            raise ValueError(f"{where}: non-finite value {cell!r}")
        vals.append(x)
    return vals


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n - 1)] + [hi]


def silica_index(wavelength_nm: float) -> float:
    x2 = (wavelength_nm * 1e-3) ** 2
    return math.sqrt(1.0 + sum(b * x2 / (x2 - c2)
                               for b, c2 in zip(_SELLMEIER_B, _SELLMEIER_C_UM2)))


def _acute_angle(tau_s: float, tau_i: float) -> float:
    th = abs(math.atan2(tau_i, tau_s))
    return min(th, math.pi - th)


# ---------------------------------------------------------------------------
# gvm_sweep: gvm_curve.csv + agvm_roots.csv


def _check_gvm(config: dict, out: Path, ref: dict | None, v: Verdict) -> None:
    lo, hi = config["sweep"]["pump_range_nm"]
    pumps = _linspace(lo, hi, config["sweep"]["n_points"])
    rows = _read_csv(out / "gvm_curve.csv", GVM_HEADER)
    if len(rows) != len(pumps):
        v.fail_all(abs(len(pumps) - len(rows)), f"gvm_curve.csv has {len(rows)} rows, "
                                                 f"expected {len(pumps)}")
    for k, (row, lam_p) in enumerate(zip(rows, pumps)):
        errs = []
        p, ls, li, ts, ti, th = _floats(row, f"gvm_curve.csv[{k}]")
        if not _close(p, lam_p, rel=1e-9):
            errs.append(f"pump {p} != {lam_p}")
        matched = ls is not None
        if matched and None in (li, ts, ti, th):
            errs.append("partly empty row")
        elif matched:
            lhs = 2.0 / p
            residual = abs(lhs - 1.0 / ls - 1.0 / li) / lhs
            if residual >= ENERGY_RESIDUAL_MAX:
                errs.append(f"energy residual {residual:.3g}")
            if not li < p < ls:
                errs.append("signal not on the red side of the pump")
            if abs(th - _acute_angle(ts, ti)) > IDENTITY_TOL:
                errs.append(f"theta {th} != |atan(tau_i/tau_s)|")
        if ref is not None:
            want = ref["rows"][k]
            if (want[1] is None) != (not matched):
                errs.append("root presence differs from reference")
            elif matched:
                if not _close(ls, want[1], rel=PHASEMATCH_REF_REL):
                    errs.append(f"lambda_s0 {ls} vs reference {want[1]}")
                for name, got, exp in (("tau_s", ts, want[2]), ("tau_i", ti, want[3])):
                    if not _close(got, exp, rel=PHASEMATCH_REF_REL, abs_=PHASEMATCH_REF_REL):
                        errs.append(f"{name} {got} vs reference {exp}")
        v.row(f"gvm_curve.csv[{k}]", errs)

    roots = _read_csv(out / "agvm_roots.csv", AGVM_HEADER)
    names = ["tau_i_zero", "tau_s_zero"]
    if [r[0] for r in roots] != names:
        v.fail_all(len(names), f"agvm_roots.csv conditions {[r[0] for r in roots]}")
        return
    for cond, cell in roots:
        errs = []
        value = float(cell) if cell else None
        if value is not None and not lo <= value <= hi:
            errs.append(f"root {value} outside the sweep")
        if ref is not None:
            want = ref["agvm"][cond]
            if (want is None) != (value is None) or (
                    value is not None and not _close(value, want, abs_=ROOT_REF_ABS_NM)):
                errs.append(f"root {value} vs reference {want}")
        v.row(f"agvm_roots.csv[{cond}]", errs)


def _extract_gvm(out: Path) -> dict:
    rows = [_floats(r, "gvm_curve.csv") for r in _read_csv(out / "gvm_curve.csv", GVM_HEADER)]
    agvm = {r[0]: (float(r[1]) if r[1] else None)
            for r in _read_csv(out / "agvm_roots.csv", AGVM_HEADER)}
    return {"rows": [[p, ls, ts, ti] for p, ls, _, ts, ti, _ in rows], "agvm": agvm}


# ---------------------------------------------------------------------------
# dispersion_curves: dispersion_<label>.csv + zdw.csv


def _check_dispersion(config: dict, out: Path, ref: dict | None, v: Verdict) -> None:
    disp = config["dispersion"]
    grid = _linspace(*disp["wavelength_range_nm"], disp["n_points"])
    z_lo, z_hi = disp["zdw_search_nm"]
    tables = {}
    for seg in config["segments"]:
        label, fill = seg["label"], seg["air_fill"]
        try:
            rows = _read_csv(out / f"dispersion_{label}.csv", DISPERSION_HEADER)
        except OutputMissing as exc:
            v.fail_all(len(grid), str(exc))
            continue
        if len(rows) != len(grid):
            v.fail_all(abs(len(grid) - len(rows)),
                       f"dispersion_{label}.csv has {len(rows)} rows, expected {len(grid)}")
        table = []
        for k, (row, lam) in enumerate(zip(rows, grid)):
            errs = []
            wl, n_eff, k_rad, k1, b2 = _floats(row, f"dispersion_{label}.csv[{k}]")
            table.append((wl, b2))
            if not _close(wl, lam, rel=1e-9):
                errs.append(f"wavelength {wl} != {lam}")
            n_co = silica_index(wl)
            n_cl = (1.0 - fill) * n_co + fill
            if not n_cl < n_eff < n_co:
                errs.append(f"n_eff {n_eff} outside ({n_cl}, {n_co})")
            if not _close(k_rad, n_eff * 2.0 * math.pi / (wl * 1e-9), rel=IDENTITY_TOL):
                errs.append("k != n_eff * 2 pi / lambda")
            if not 1.0 < k1 * 1e-12 * C_LIGHT < 2.0:
                errs.append(f"group index {k1 * 1e-12 * C_LIGHT} outside (1, 2)")
            if ref is not None:
                want = ref[label]
                if not _close(n_eff, want["n_eff"][k], rel=N_EFF_REF_REL):
                    errs.append(f"n_eff {n_eff} vs reference {want['n_eff'][k]}")
                if not _close(b2, want["beta2"][k], abs_=BETA2_REF_ABS):
                    errs.append(f"beta2 {b2} vs reference {want['beta2'][k]}")
            v.row(f"dispersion_{label}.csv[{k}]", errs)
        tables[label] = table

    zdws: dict[str, list[float]] = {seg["label"]: [] for seg in config["segments"]}
    for k, (label, cell) in enumerate(_read_csv(out / "zdw.csv", ZDW_HEADER)):
        errs = []
        z = float(cell)
        if label not in zdws:
            errs.append(f"unknown label {label!r}")
        else:
            zdws[label].append(z)
            if not z_lo <= z <= z_hi:
                errs.append(f"ZDW {z} outside the search range")
            table = tables.get(label, [])
            for (wa, ba), (wb, bb) in zip(table, table[1:]):
                if wa <= z <= wb and ba * bb > 0:
                    errs.append(f"beta2 keeps its sign across {wa}-{wb} nm")
        v.row(f"zdw.csv[{k}]", errs)
    for label, found in zdws.items():
        # Every beta2 sign change of the table inside the search range is a ZDW.
        table = [(w, b) for w, b in tables.get(label, []) if z_lo <= w <= z_hi]
        changes = sum(1 for (_, ba), (_, bb) in zip(table, table[1:]) if ba * bb < 0)
        errs = [] if len(found) >= changes else [f"{len(found)} ZDWs for {changes} sign changes"]
        if ref is not None:
            want = ref[label]["zdw"]
            if len(found) != len(want) or any(
                    not _close(a, b, abs_=ROOT_REF_ABS_NM) for a, b in zip(found, want)):
                errs.append(f"ZDWs {found} vs reference {want}")
        v.row(f"zdw.csv[{label}]", errs)


def _extract_dispersion(config: dict, out: Path) -> dict:
    ref = {}
    for seg in config["segments"]:
        rows = [_floats(r, "dispersion") for r in
                _read_csv(out / f"dispersion_{seg['label']}.csv", DISPERSION_HEADER)]
        ref[seg["label"]] = {"n_eff": [r[1] for r in rows], "beta2": [r[4] for r in rows],
                             "zdw": []}
    for label, cell in _read_csv(out / "zdw.csv", ZDW_HEADER):
        ref[label]["zdw"].append(float(cell))
    return ref


# ---------------------------------------------------------------------------
# g2_table: g2_table.csv


def _assembly_length(config: dict, elems) -> float:
    seg_len = {s["label"]: s["length_m"] for s in config["segments"]}
    return sum(e["length_m"] if isinstance(e, dict) else seg_len[e] for e in elems)


def _check_g2_table(config: dict, out: Path, ref: dict | None, v: Verdict) -> None:
    expected = [(a["name"], _assembly_length(config, a["segments"]), fw)
                for a in config["assemblies"] for fw in config["pump_fwhms_nm"]]
    rows = _read_csv(out / "g2_table.csv", G2_HEADER)
    if len(rows) != len(expected):
        v.fail_all(abs(len(expected) - len(rows)),
                   f"g2_table.csv has {len(rows)} rows, expected {len(expected)}")
    for k, (row, (name, length, fwhm)) in enumerate(zip(rows, expected)):
        errs = []
        length_m, fw, g2, schmidt, purity = _floats(row[1:], f"g2_table.csv[{k}]")
        if row[0] != name or not _close(length_m, length, rel=1e-9) or fw != fwhm:
            errs.append(f"row {row[:3]} != {[name, length, fwhm]}")
        if not 1.0 <= g2 <= 2.0:
            errs.append(f"g2 {g2} outside [1, 2]")
        if abs(g2 - (1.0 + purity)) > IDENTITY_TOL:
            errs.append(f"g2 {g2} != 1 + purity {purity} (Gram and SVD paths disagree)")
        if not _close(schmidt * purity, 1.0, abs_=IDENTITY_TOL):
            errs.append(f"K {schmidt} != 1/purity")
        if ref is not None:
            want = ref["rows"][k]
            for label, got, exp in zip(("g2", "K", "purity"), (g2, schmidt, purity), want[2:]):
                if not _close(got, exp, rel=G2_REF_REL):
                    errs.append(f"{label} {got} vs reference {exp}")
        v.row(f"g2_table.csv[{k}]", errs)


def _extract_g2_table(out: Path) -> dict:
    rows = _read_csv(out / "g2_table.csv", G2_HEADER)
    return {"rows": [[r[0], float(r[2]), float(r[3]), float(r[4]), float(r[5])] for r in rows]}


# ---------------------------------------------------------------------------
# splice_plan: plan.txt + plan_spectrum.csv


def _read_plan(out: Path) -> dict:
    path = out / "plan.txt"
    if not path.is_file():
        raise OutputMissing("plan.txt missing")
    fields = dict(line.split(": ", 1) for line in path.read_text().splitlines() if ": " in line)
    for key in ("order", "indices", "lengths_m", "total_length_m", "predicted_g2"):
        if key not in fields:
            raise OutputMissing(f"plan.txt lacks {key}")
    return {
        "order": fields["order"].split(),
        "indices": [int(i) for i in fields["indices"].split()],
        "lengths_m": [float(x) for x in fields["lengths_m"].split()],
        "total_length_m": float(fields["total_length_m"]),
        "predicted_g2": float(fields["predicted_g2"]),
    }


def _check_plan(config: dict, out: Path, ref: dict | None, v: Verdict) -> None:
    pool = [s["label"] for s in config["segments"]]
    lengths = {s["label"]: s["length_m"] for s in config["segments"]}
    target = config["planner"]["target_total_length_m"]
    plan = _read_plan(out)
    errs = []
    if any(label not in lengths for label in plan["order"]) or \
            len(set(plan["order"])) != len(plan["order"]):
        errs.append(f"order {plan['order']} is not distinct labels of the pool")
    elif plan["indices"] != [pool.index(label) for label in plan["order"]]:
        errs.append("indices do not match the labels")
    elif any(not _close(a, lengths[b], rel=1e-9) for a, b in zip(plan["lengths_m"],
                                                                   plan["order"])):
        errs.append("lengths do not match the pool")
    if not _close(plan["total_length_m"], target, abs_=1e-9):
        errs.append(f"total length {plan['total_length_m']} != target {target}")
    if not 1.0 <= plan["predicted_g2"] <= 2.0:
        errs.append(f"predicted g2 {plan['predicted_g2']} outside [1, 2]")
    if ref is not None:
        if plan["order"] != ref["order"]:
            errs.append(f"order {plan['order']} vs reference {ref['order']}")
        if not _close(plan["predicted_g2"], ref["predicted_g2"], rel=G2_REF_REL):
            errs.append(f"g2 {plan['predicted_g2']} vs reference {ref['predicted_g2']}")
    v.row("plan.txt", errs)

    rows = _read_csv(out / "plan_spectrum.csv", SPECTRUM_HEADER)
    prev = -math.inf
    peak = 0.0
    for k, row in enumerate(rows):
        x, y = _floats(row, f"plan_spectrum.csv[{k}]")
        errs = []
        if not x > prev:
            errs.append("wavelength axis not ascending")
        if y < 0:
            errs.append(f"negative intensity {y}")
        prev, peak = x, max(peak, y)
        v.row(f"plan_spectrum.csv[{k}]", errs)
    if peak <= 0.0:
        v.fail_all(1, "plan_spectrum.csv is all zero")


def _extract_plan(out: Path) -> dict:
    plan = _read_plan(out)
    return {"order": plan["order"], "predicted_g2": plan["predicted_g2"]}


# ---------------------------------------------------------------------------


_CHECKS = {
    "gvm_sweep": _check_gvm,
    "dispersion_curves": _check_dispersion,
    "g2_table": _check_g2_table,
    "splice_plan": _check_plan,
}


def expected_rows(step: str, config: dict) -> int:
    """Rows of fixed count a step writes; all of them fail when the step fails."""
    if step == "gvm_sweep":
        return config["sweep"]["n_points"] + 2
    if step == "dispersion_curves":
        return len(config["segments"]) * (config["dispersion"]["n_points"] + 1)
    if step == "g2_table":
        return len(config["assemblies"]) * len(config["pump_fwhms_nm"])
    return 1


def check(step: str, config: dict, out_dir, reference: dict | None = None) -> Verdict:
    """Check one step's outputs; ``reference`` is compared only when given."""
    v = Verdict()
    try:
        _CHECKS[step](config, Path(out_dir), reference, v)
    except (OutputMissing, ValueError, IndexError, KeyError, TypeError) as exc:
        v.fail_all(expected_rows(step, config), f"unreadable output: {exc!r}")
    return v


def extract(step: str, config: dict, out_dir) -> dict:
    """The values a reference records for this step."""
    out = Path(out_dir)
    if step == "gvm_sweep":
        return _extract_gvm(out)
    if step == "dispersion_curves":
        return _extract_dispersion(config, out)
    if step == "g2_table":
        return _extract_g2_table(out)
    return _extract_plan(out)
