"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 8a and 10b encode stated bounds that the physics, respectively the
engine's own ranking, contradict; they are asserted as stated and fail red.
The analysis lives in README.md (Known deviations) and the project notes.
"""

import itertools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sfwm import (
    AssemblySegment,
    AssemblySpec,
    FrequencyGrid,
    GvdSample,
    JsaGrid,
    PhaseMatchPoint,
    PumpSpec,
    agvm_roots,
    delta_k,
    evaluate_plan,
    find_zdw,
    fit_structure,
    g2_quadrature,
    g2_table,
    gvd,
    gvm_curve,
    phi_assembly,
    phi_homogeneous,
    phi_signal,
    plan_exhaustive,
    plan_greedy,
    solve_phase_match,
)

from conftest import (
    G2_REFERENCE,
    PUMP_NM,
    TEN_CONFIGURATIONS,
    catalog_assembly,
    catalog_fiber,
    catalog_pool,
)

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"


def _report(num, desc, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'} acceptance {num}: {desc}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def table_rows():
    configurations = [(name, catalog_assembly(parts)) for name, parts in TEN_CONFIGURATIONS]
    pumps = [PumpSpec(PUMP_NM, 2.0), PumpSpec(PUMP_NM, 5.0)]
    t0 = time.monotonic()
    rows = g2_table(configurations, pumps, ns=512, ni=512)
    elapsed = time.monotonic() - t0
    return rows, elapsed


def test_criterion_1_g2_table_regression(table_rows):
    rows, elapsed = table_rows
    worst = max(abs(r.g2 - G2_REFERENCE[(r.configuration, r.pump_fwhm_nm)]) for r in rows)
    ok = len(rows) == 20 and worst <= 0.05 and elapsed < 300.0
    _report(1, "all 20 reference g2 entries within +/-0.05 at 512x512 grids",
            ok, f"worst |dg2|={worst:.3f}, runtime {elapsed:.1f}s")


def test_criterion_2_dispersion_chain():
    ok = True
    details = []
    pump = PumpSpec(PUMP_NM, 2.0)
    refs = {"S1": (1409.9, 862.1, 3.2), "S2": (1413.6, 860.8, 3.2),
            "S3": (1417.3, 859.4, 3.3), "S4": (1421.0, 858.1, 3.4)}
    for label, (ls0, li0, tau) in refs.items():
        pt = solve_phase_match(catalog_fiber(label), pump)
        ok &= abs(pt.lambda_s0_nm - ls0) <= 10.0
        ok &= abs(pt.lambda_i0_nm - li0) <= 5.0
        ok &= abs(pt.tau_s_ps_per_m - tau) <= 0.5
        ok &= pt.theta_rad < 0.01
        ok &= pt.energy_residual(PUMP_NM) < 1e-12
        details.append(f"{label}:{pt.lambda_s0_nm:.1f}")
    _report(2, "phase matching from structure reproduces the reference table",
            ok, " ".join(details))


def test_criterion_3_agvm_pump_wavelengths():
    seg = catalog_fiber("S3", 1.9)
    roots = agvm_roots(seg, gvm_curve(seg, (950.0, 1100.0), 16))
    ok = (roots.pump_for_tau_i_zero is not None
          and abs(roots.pump_for_tau_i_zero - 1070.2) <= 5.0
          and roots.pump_for_tau_s_zero is not None
          and abs(roots.pump_for_tau_s_zero - 986.5) <= 5.0)
    _report(3, "group-matched pump wavelengths within +/-5 nm",
            ok, f"tau_i=0 @ {roots.pump_for_tau_i_zero:.1f}, "
                f"tau_s=0 @ {roots.pump_for_tau_s_zero:.1f} nm")


def test_criterion_4_zdw_pair_and_structure_fit():
    seg = catalog_fiber("S3", 1.9)  # r = 948 nm, f = 0.296
    roots = find_zdw(seg, (900.0, 1250.0))
    ok = (len(roots) == 2 and abs(roots[0] - 942.0) <= 10.0
          and abs(roots[1] - 1175.0) <= 10.0)
    samples = [GvdSample(float(w), gvd(seg, float(w)))
               for w in np.linspace(900.0, 1200.0, 16)]
    fit = fit_structure(samples, (940.0, 0.28))
    ok &= abs(fit.core_radius_nm - 948.0) <= 1.0
    ok &= abs(fit.air_fill - 0.296) <= 0.002
    _report(4, "zero-dispersion pair and noiseless structure-fit round trip",
            ok, f"zdw={roots[0]:.1f}/{roots[1]:.1f} nm, "
                f"fit=({fit.core_radius_nm:.2f} nm, {fit.air_fill:.4f})")


def test_criterion_5_identical_segment_collapse():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 7))
        length = float(rng.uniform(0.05, 2.0))
        ls0 = float(rng.uniform(1385.0, 1435.0))
        tau_s = float(rng.uniform(0.5, 6.0))
        theta = float(rng.uniform(0.0, 0.05))
        sign = float(rng.choice([-1.0, 1.0]))
        pt = PhaseMatchPoint.from_signal_and_angle(PUMP_NM, ls0, tau_s, theta, sign)
        asm = AssemblySpec(tuple(AssemblySegment(length, pt) for _ in range(m)),
                           "linearized")
        half = 3 * 2 * math.pi / (pt.tau_s_si * length)
        ws = np.linspace(pt.omega_s0 - half, pt.omega_s0 + half, 160)[:, None]
        wi = np.linspace(pt.omega_i0 - half, pt.omega_i0 + half, 96)[None, :]
        total = m * length
        diff = np.abs(phi_assembly(asm, ws, wi)
                      - phi_homogeneous(total, delta_k(pt, ws, wi)))
        worst = max(worst, float(diff.max()) / total)
    _report(5, "identical-segment sum collapses to the uniform closed form "
               "(100 random assemblies, 1e-12 relative)",
            worst <= 1e-12, f"worst={worst:.2e}")


def test_criterion_6_piecewise_quadrature_oracle():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 5))
        segs = []
        for _ in range(m):
            pt = PhaseMatchPoint.from_signal_and_angle(
                PUMP_NM,
                float(rng.uniform(1395.0, 1430.0)),
                float(rng.uniform(0.5, 6.0)),
                float(rng.uniform(0.0, 0.01)),
                float(rng.choice([-1.0, 1.0])),
            )
            segs.append((float(rng.uniform(0.05, 1.5)), pt))
        asm = AssemblySpec(tuple(AssemblySegment(L, p) for L, p in segs), "linearized")
        total = sum(L for L, _ in segs)
        los = [p.omega_s0 - 3 * 2 * math.pi / (p.tau_s_si * L) for L, p in segs]
        his = [p.omega_s0 + 3 * 2 * math.pi / (p.tau_s_si * L) for L, p in segs]
        ws = np.linspace(min(los), max(his), 5)[:, None]
        wi0 = np.mean([p.omega_i0 for _, p in segs])
        wi = np.linspace(wi0 - 2e12, wi0 + 2e12, 5)[None, :]

        direct = phi_assembly(asm, ws, wi)
        quad = np.zeros(np.broadcast_shapes(ws.shape, wi.shape), dtype=complex)
        acc = np.zeros_like(quad, dtype=float)
        for L, p in segs:
            n = max(1000, int(round(100_000 * L / total)))
            z = np.linspace(0.0, L, n + 1)
            dk = delta_k(p, ws, wi)
            quad += np.trapezoid(np.exp(1j * (acc[..., None] + dk[..., None] * z)),
                                 z, axis=-1)
            acc += dk * L
        worst = max(worst, float(np.max(np.abs(direct - quad))) / total)
    _report(6, "coherent sum matches brute-force z-integration "
               "(50 random assemblies, 1e-7 relative)",
            worst <= 1e-7, f"worst={worst:.2e}")


def test_criterion_7_g2_paths_and_bounds(table_rows, rng):
    rows, _ = table_rows
    path_gap = max(abs(r.g2 - (1.0 + r.purity)) for r in rows)
    ok = path_gap <= 1e-8

    grid = FrequencyGrid(np.linspace(1.0, 2.0, 64) * 1e15,
                         np.linspace(2.0, 3.0, 48) * 1e15)
    pump = PumpSpec(PUMP_NM, 2.0)
    asm = catalog_assembly([("S2", 0.3)])
    lo_ok, hi_ok = True, True
    for _ in range(200):
        amp = rng.standard_normal((64, 48)) + 1j * rng.standard_normal((64, 48))
        jsa = JsaGrid(grid, amp, pump, asm)
        g2 = g2_quadrature(jsa)
        lo_ok &= g2 > 1.0
        hi_ok &= g2 <= 2.0 + 1e-12

    s = np.exp(-np.linspace(-3, 3, 64) ** 2)
    i = np.exp(-np.linspace(-2, 2, 48) ** 2)
    sep = g2_quadrature(JsaGrid(grid, np.outer(s, i).astype(complex), pump, asm))
    ok_sep = abs(sep - 2.0) <= 1e-6

    S, I = np.meshgrid(np.linspace(-4, 4, 256), np.linspace(-4, 4, 256), indexing="ij")
    corr = np.exp(-((S + I) ** 2) / (4 * 0.02**2) - ((S - I) ** 2) / (4 * 2.0**2))
    grid_c = FrequencyGrid(np.linspace(1.0, 2.0, 256) * 1e15,
                           np.linspace(2.0, 3.0, 256) * 1e15)
    g2_corr = g2_quadrature(JsaGrid(grid_c, corr.astype(complex), pump, asm))
    ok_corr = g2_corr < 1.1

    _report(7, "g2 path equivalence, bounds on 200 random amplitudes, "
               "factorable limit, correlated limit",
            ok and lo_ok and hi_ok and ok_sep and ok_corr,
            f"path gap={path_gap:.1e}, factorable={sep:.6f}, correlated={g2_corr:.3f}")


def _split_band_cross(length):
    asm = catalog_assembly([("S1", length), ("S3", length)])
    p1, p3 = (seg.point for seg in asm.segments)
    half = 14 * 2 * math.pi / (p1.tau_s_si * length)
    ws = np.linspace(p3.omega_s0 - half, p1.omega_s0 + half, 200_001)
    t1 = np.abs(phi_signal(AssemblySpec((AssemblySegment(length, p1),), "linearized"), ws)) ** 2
    t3 = np.abs(phi_signal(AssemblySpec((AssemblySegment(length, p3),), "linearized"), ws)) ** 2
    tot = np.abs(phi_signal(asm, ws)) ** 2
    cross = np.max(np.abs(tot - t1 - t3)) / tot.max()
    overlap = np.max(np.minimum(t1, t3)) / tot.max()
    return cross, overlap


def test_criterion_8a_long_segments_additivity_as_stated():
    cross, overlap = _split_band_cross(1.5)
    # Stated bound: coherent cross term < 1% of peak everywhere at 1.5 m per
    # segment.  The sinc tails enter the cross term at first order in
    # amplitude, so it peaks near 8% no matter the grid; the quantity that is
    # actually negligible is the intensity overlap (printed alongside).
    _report("8a", "split-band additivity at 1.5 m/segment (stated: cross < 1% of peak)",
            cross < 0.01,
            f"cross={cross * 100:.2f}% of peak, intensity overlap={overlap * 100:.2f}%")


def test_criterion_8b_short_segments_interfere():
    cross, overlap = _split_band_cross(0.3)
    _report("8b", "interference regime at 0.3 m/segment (cross > 10% somewhere)",
            cross > 0.10, f"cross={cross * 100:.1f}%, overlap={overlap * 100:.1f}%")


def test_criterion_9_monotonicities(table_rows):
    rows, _ = table_rows
    by_config = {}
    for row in rows:
        by_config.setdefault(row.configuration, {})[row.pump_fwhm_nm] = row.g2
    bw_ok = all(vals[5.0] > vals[2.0] for vals in by_config.values())
    homo = {r.total_length_m: r.g2 for r in rows
            if r.configuration.startswith("hom_") and r.pump_fwhm_nm == 2.0}
    lengths = sorted(homo)
    len_ok = all(homo[b] > homo[a] for a, b in zip(lengths, lengths[1:]))
    _report(9, "g2 increases with pump bandwidth (all rows) and with uniform length",
            bw_ok and len_ok)


_FAST = dict(ns=256, ni=256, lobes=6.0)


def _brute_force(pool, pump, **kwargs):
    best = None
    for size in range(1, pool.effective_max_segments + 1):
        for combo in itertools.combinations(range(len(pool.candidates)), size):
            if not pool.is_feasible(combo):
                continue
            for order in itertools.permutations(combo):
                g2, _ = evaluate_plan(order, pool, pump, **kwargs)
                total = sum(pool.candidates[i][0].length_m for i in order)
                key = (-g2, total, order)
                if best is None or key < best[0]:
                    best = (key, order)
    return None if best is None else best[1]


def test_criterion_10a_exhaustive_matches_enumeration():
    pump = PumpSpec(PUMP_NM, 2.0)
    pools = [
        catalog_pool(["S3"], 0.3, tolerance_m=0.0),
        catalog_pool(["S1", "S2"], 0.6, tolerance_m=0.0),
        catalog_pool(["S1", "S2", "S3"], 0.6),  # default tolerance
        catalog_pool(["S1", "S2", "S3", "S4"], 0.6, tolerance_m=0.0),
        catalog_pool(["S1", "S2", "S3", "S4"], 1.2, tolerance_m=0.0),
    ]
    ok = True
    for pool in pools:
        plan = plan_exhaustive(pool, pump, **_FAST)
        ok &= plan.order == _brute_force(pool, pump, **_FAST)
    _report("10a", "exhaustive planner equals independent enumeration on pools <= 4", ok)


def test_criterion_10b_three_segment_pool_selection_as_stated():
    pool = catalog_pool(["S1", "S2", "S3"], 0.6)
    plan = plan_exhaustive(pool, PumpSpec(PUMP_NM, 2.0))
    picked = set(plan.labels)
    # Stated outcome: {S1, S2}.  The engine-derived g2 of S2+S3 (1.6197) is
    # 0.003 above S1+S2 (1.6164) under every knob tried, so the honest argmax
    # picks {S2, S3}; both round to the same reference value 1.62.
    _report("10b", "pool {S1,S2,S3} at 0.6 m selects {S1,S2} (stated)",
            picked == {"S1", "S2"},
            f"selected {sorted(picked)} with g2={plan.predicted_g2:.4f}")


def test_criterion_10c_greedy_never_beats_exhaustive():
    pump = PumpSpec(PUMP_NM, 2.0)
    ok = True
    for pool in (
        catalog_pool(["S1", "S2", "S3"], 0.6, tolerance_m=0.0),
        catalog_pool(["S1", "S2", "S3", "S4"], 0.6, tolerance_m=0.0),
        catalog_pool(["S1", "S2", "S3", "S4"], 1.2, tolerance_m=0.0),
    ):
        greedy = plan_greedy(pool, pump, **_FAST)
        exhaustive = plan_exhaustive(pool, pump, **_FAST)
        ok &= greedy.predicted_g2 <= exhaustive.predicted_g2 + 1e-12
    _report("10c", "greedy planner never exceeds the exhaustive optimum", ok)


CONFIG_RUNS = [
    ("segment_phasematch.json", "phasematch"),
    ("dispersion_curves.json", "dispersion"),
    ("structure_fit.json", "fit"),
    ("gvm_sweep.json", "gvm-curve"),
    ("jsi_grids.json", "jsa"),
    ("spectral_modulation.json", "marginal"),
    ("spectral_modulation.json", "filter-scan"),
    ("reordered_segments.json", "marginal"),
    ("split_band_spectra.json", "marginal"),
    ("g2_table.json", "g2-table"),
    ("splice_plan.json", "plan"),
]


# The CLI subprocesses import sfwm from this checkout's src/, as the suite does.
_SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH"))))}


def test_criterion_11_bundled_configs_byte_reproducible(tmp_path):
    ok = True
    details = []
    for config_name, subcommand in CONFIG_RUNS:
        digests = []
        for tag, threads in (("a", "1"), ("b", "4")):
            out = tmp_path / f"{subcommand}_{Path(config_name).stem}_{tag}"
            proc = subprocess.run(
                [sys.executable, "-m", "sfwm.cli", subcommand,
                 "--config", str(CONFIGS / config_name),
                 "--out", str(out), "--threads", threads],
                cwd=REPO, capture_output=True, text=True, env=_SRC_ENV,
            )
            if proc.returncode != 0:
                ok = False
                details.append(f"{config_name}:{subcommand} exit {proc.returncode}")
                break
            digest = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            digests.append(digest)
        else:
            if digests[0].keys() != digests[1].keys() or any(
                    digests[0][k] != digests[1][k] for k in digests[0]):
                ok = False
                details.append(f"{config_name}:{subcommand} bytes differ")
    _report(11, "bundled configs byte-reproducible across runs and thread counts",
            ok, "; ".join(details) if details else f"{len(CONFIG_RUNS)} runs compared")
