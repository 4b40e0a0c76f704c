"""Pump envelope, phase-matching functions, JSA grids, marginals, filter scans."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from sfwm import (
    AssemblySegment,
    AssemblySpec,
    FilterSpec,
    FrequencyGrid,
    PhaseMatchPoint,
    PumpSpec,
    build_jsa,
    default_grid,
    delta_k,
    filter_scan,
    marginal,
    phi_assembly,
    phi_homogeneous,
    phi_signal,
    pump_envelope,
)
from sfwm import cli, correlation, planner, spectra
from sfwm.dispersion import TWO_PI_C
from sfwm.spectra import ENVELOPE_FLOOR, GridResolutionError

from conftest import PUMP_NM, benchmark_config, catalog_assembly, catalog_point


def make_point(ls0=1413.6, tau_s=3.2, theta=0.002, sign=+1.0):
    return PhaseMatchPoint.from_signal_and_angle(PUMP_NM, ls0, tau_s, theta, sign)


def make_assembly(parts, **point_kwargs):
    segs = tuple(AssemblySegment(length, make_point(**kw)) for length, kw in parts)
    return AssemblySpec(segs, "linearized")


# ---------------------------------------------------------------------------
# pump envelope


def test_envelope_is_one_on_conservation_diagonal(pump_2nm):
    w = pump_2nm.omega_pc
    det = np.linspace(-3e12, 3e12, 7)
    assert pump_envelope(pump_2nm, w + det, w - det) == pytest.approx(np.ones(7))


def test_envelope_two_sigma_point(pump_2nm):
    w = pump_2nm.omega_pc
    val = pump_envelope(pump_2nm, w + 2 * pump_2nm.sigma_omega, w)
    assert val == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_envelope_symmetric_in_arguments(pump_2nm):
    a = pump_envelope(pump_2nm, 1.76e15, 2.18e15)
    b = pump_envelope(pump_2nm, 2.18e15, 1.76e15)
    assert a == b


def test_envelope_flush_accepts_scalars_and_arrays(pump_2nm):
    w = pump_2nm.omega_pc
    far = 45.0 * pump_2nm.sigma_omega  # exp(-506): below the floor, not 0
    assert 0.0 < math.exp(-(far / pump_2nm.sigma_omega) ** 2 / 4.0) < ENVELOPE_FLOOR
    val = pump_envelope(pump_2nm, w + far, w)
    assert np.ndim(val) == 0 and val == 0.0
    row = pump_envelope(pump_2nm, w + np.array([0.0, far]), w)
    assert row.tolist() == [1.0, 0.0]


def _unflushed_envelope(pump, omega_s, omega_i):
    det = np.asarray(omega_s) + np.asarray(omega_i) - 2.0 * pump.omega_pc
    return np.exp(-(det**2) / (4.0 * pump.sigma_omega**2))


def _flush_test_jsas(pump_2nm):
    """The 2 nm pump on the four-segment 1378x512 grid, and every JSA of the
    bundled configs/jsi_grids.json."""
    yield build_jsa(catalog_assembly([("S1", 0.3), ("S2", 0.3), ("S3", 0.3), ("S4", 0.3)]),
                    pump_2nm)
    cfg = cli.load_config(Path(__file__).resolve().parents[1] / "configs" / "jsi_grids.json")
    for _, assembly in cli._named_assemblies(cfg, cfg.pump):
        yield build_jsa(assembly, cfg.pump, **cli._jsa_args(cfg))


def _flushed_bits(pump, omega_s, omega_i):
    """The envelope without the exponent clamp: exp, then the flush."""
    env = _unflushed_envelope(pump, omega_s, omega_i)
    return np.where(env < ENVELOPE_FLOOR, 0.0, env).tobytes()


def test_envelope_clamp_keeps_every_bit(pump_2nm, tmp_path, monkeypatch):
    # The clamped exponent against exp of the raw one, cell for cell: on a
    # far-detuned axis, then on every block of the 35 JSAs of the seed-1
    # splice-design benchmark (g2-table, then plan).  Both reach exponents
    # where exp is subnormal (-745 to -708) or 0.
    w, sigma = pump_2nm.omega_pc, pump_2nm.sigma_omega
    far = w + np.linspace(0.0, 60.0, 6001) * sigma  # exponents down to -900
    assert pump_envelope(pump_2nm, far, w).tobytes() == _flushed_bits(pump_2nm, far, w)
    envelope, jsas, lowest = spectra.pump_envelope, [], []

    def checked(pump, omega_s, omega_i):
        env = envelope(pump, omega_s, omega_i)
        assert env.tobytes() == _flushed_bits(pump, omega_s, omega_i)
        det = omega_s + omega_i - 2.0 * pump.omega_pc
        lowest.append((-(det**2) / (4.0 * pump.sigma_omega**2)).min())
        return env

    def counted(*args, _stream=correlation.g2_streamed, **kwargs):
        jsas.append(args)
        return _stream(*args, **kwargs)

    monkeypatch.setattr(spectra, "pump_envelope", checked)
    for module in (correlation, planner):  # each streams its JSAs
        monkeypatch.setattr(module, "g2_streamed", counted)
    for step, subcommand in (("g2_table", "g2-table"), ("splice_plan", "plan")):
        config = tmp_path / f"{step}.json"
        config.write_text(json.dumps(benchmark_config(step, 1)))
        assert cli.run(subcommand, config, tmp_path / step) == 0
    assert len(jsas) == 35 and min(lowest) < -745.0


def test_envelope_flush_keeps_every_intensity_bit(pump_2nm, monkeypatch):
    flushed_any = False
    for jsa in _flush_test_jsas(pump_2nm):
        with monkeypatch.context() as m:
            m.setattr(spectra, "pump_envelope", _unflushed_envelope)
            raw = build_jsa(jsa.assembly, jsa.pump, grid=jsa.grid)
        assert np.array_equal(jsa.intensity(), raw.intensity())
        flushed = (jsa.amplitude == 0) & (raw.amplitude != 0)
        assert np.array_equal(jsa.amplitude[~flushed], raw.amplitude[~flushed])
        flushed_any |= bool(flushed.any())
    assert flushed_any  # the 2 nm grid's subnormal corners are gone


def test_jsa_amplitude_has_no_subnormal_parts(pump_2nm):
    # A subnormal tail slows the Gram's zherk 3-4x; the envelope flush keeps it out.
    for jsa in _flush_test_jsas(pump_2nm):
        parts = np.abs(jsa.amplitude.view(float))
        assert not np.any((parts > 0) & (parts < np.finfo(float).tiny))


# ---------------------------------------------------------------------------
# mismatch linearization


def test_delta_k_zero_at_anchor():
    pt = make_point()
    assert delta_k(pt, pt.omega_s0, pt.omega_i0) == 0.0


def test_delta_k_idler_independent_when_tau_i_zero():
    pt = make_point(theta=0.0)
    ws = pt.omega_s0 + 2.3e12
    assert delta_k(pt, ws, pt.omega_i0) == delta_k(pt, ws, pt.omega_i0 + 5e12)


def test_delta_k_unit_bookkeeping():
    # 3.2 ps/m times 1 rad/ps of detuning is 3.2 rad/m.
    pt = make_point(tau_s=3.2, theta=0.0)
    val = delta_k(pt, pt.omega_s0 + 1e12, pt.omega_i0)
    assert val == pytest.approx(3.2, rel=1e-12)


# ---------------------------------------------------------------------------
# homogeneous phase-matching function


def test_phi_homogeneous_at_perfect_matching():
    assert phi_homogeneous(0.7, 0.0) == pytest.approx(0.7)


def test_phi_homogeneous_first_null():
    L = 0.4
    dk = 2 * math.pi / L
    assert abs(phi_homogeneous(L, dk)) < 1e-12 * L


def test_phi_homogeneous_quadrature_oracle(rng):
    # Closed form vs 1e4-point trapezoid of the z-integral.
    npts = 10_000
    for _ in range(100):
        L = float(rng.uniform(0.05, 2.0))
        dk = float(rng.uniform(-6.0, 6.0)) / L
        z = np.linspace(0.0, L, npts)
        quad = np.trapezoid(np.exp(1j * dk * z), z)
        assert abs(phi_homogeneous(L, dk) - quad) <= 1e-8 * L
    for _ in range(20):  # wide-mismatch lobes at a looser bound
        L = float(rng.uniform(0.05, 2.0))
        dk = float(rng.uniform(-40.0, 40.0)) / L
        z = np.linspace(0.0, L, npts)
        quad = np.trapezoid(np.exp(1j * dk * z), z)
        assert abs(phi_homogeneous(L, dk) - quad) <= 2e-7 * L


# ---------------------------------------------------------------------------
# assembly phase-matching function


def test_identical_segments_collapse_to_homogeneous():
    pt = catalog_point("S2")
    asm = AssemblySpec((AssemblySegment(0.3, pt), AssemblySegment(0.3, pt)), "linearized")
    ws = np.linspace(pt.omega_s0 - 2e13, pt.omega_s0 + 2e13, 64)[:, None]
    wi = np.linspace(pt.omega_i0 - 2e13, pt.omega_i0 + 2e13, 33)[None, :]
    combined = phi_assembly(asm, ws, wi)
    single = phi_homogeneous(0.6, delta_k(pt, ws, wi))
    assert np.max(np.abs(combined - single)) <= 1e-12 * 0.6


def _piecewise_quadrature(segments, ws, wi, total_points=100_000):
    total_length = sum(length for length, _ in segments)
    out = np.zeros(np.shape(ws), dtype=complex)
    acc = np.zeros(np.shape(ws))
    for length, pt in segments:
        n = max(1000, int(round(total_points * length / total_length)))
        z = np.linspace(0.0, length, n + 1)
        dk = delta_k(pt, ws, wi)
        vals = np.exp(1j * (acc[..., None] + dk[..., None] * z))
        out = out + np.trapezoid(vals, z, axis=-1)
        acc = acc + dk * length
    return out


def test_assembly_matches_piecewise_z_integration():
    segs = [(0.3, catalog_point("S1")), (0.3, catalog_point("S3"))]
    asm = AssemblySpec(tuple(AssemblySegment(L, p) for L, p in segs), "linearized")
    center = 0.5 * (segs[0][1].omega_s0 + segs[1][1].omega_s0)
    ws = np.linspace(center - 1.2e13, center + 1.2e13, 201)
    wi = np.full_like(ws, segs[0][1].omega_i0)
    direct = phi_assembly(asm, ws, wi)
    quad = _piecewise_quadrature(segs, ws, wi)
    assert np.max(np.abs(direct - quad)) <= 1e-7 * 0.6


def test_two_segment_reversal_preserves_modulus():
    fwd = catalog_assembly([("S1", 0.3), ("S3", 0.3)])
    rev = catalog_assembly([("S3", 0.3), ("S1", 0.3)])
    pt = catalog_point("S1")
    ws = np.linspace(pt.omega_s0 - 1.5e13, pt.omega_s0 + 2e13, 301)
    wi = np.full_like(ws, pt.omega_i0)
    a = np.abs(phi_assembly(fwd, ws, wi))
    b = np.abs(phi_assembly(rev, ws, wi))
    assert np.max(np.abs(a - b)) <= 1e-12 * 0.6


def test_four_segment_reordering_changes_pattern():
    a = catalog_assembly([("S1", 0.3), ("S2", 0.3), ("S3", 0.3), ("S4", 0.3)])
    b = catalog_assembly([("S1", 0.3), ("S4", 0.3), ("S2", 0.3), ("S3", 0.3)])
    pt = catalog_point("S2")
    ws = np.linspace(pt.omega_s0 - 2e13, pt.omega_s0 + 2e13, 1001)
    wi = np.full_like(ws, pt.omega_i0)
    ia = np.abs(phi_assembly(a, ws, wi)) ** 2
    ib = np.abs(phi_assembly(b, ws, wi)) ** 2
    assert np.max(np.abs(ia - ib)) > 0.05 * ia.max()


def _sinc_loop(segments, mismatch, shape):
    """The 2-D coherent sum the linearized kernel replaced: a sinc, an exp
    and a running phase per segment, evaluated on every cell."""
    phi = np.zeros(shape, dtype=complex)
    acc = np.zeros(shape)
    for seg in segments:
        dk = mismatch(seg)
        x = dk * (seg.length_m / 2.0)
        phi = phi + seg.length_m * np.sinc(x / np.pi) * np.exp(1j * (x + acc))
        acc = acc + dk * seg.length_m
    return phi


def _axis_through(anchors, half_width, n, rng):
    """Random ascending axis that holds every anchor exactly."""
    lo, hi = min(anchors) - half_width, max(anchors) + half_width
    return np.unique(np.concatenate([rng.uniform(lo, hi, n), anchors]))


def test_linearized_kernel_matches_sinc_loop(rng):
    worst_2d = worst_1d = 0.0
    exact_zero = series_band = 0
    for _ in range(40):
        m = int(rng.integers(1, 7))
        sign = float(rng.choice([-1.0, 1.0]))
        segs = tuple(
            AssemblySegment(float(rng.uniform(0.05, 1.5)),
                            make_point(float(rng.uniform(1400.0, 1430.0)),
                                       float(rng.uniform(0.5, 6.0)),
                                       float(rng.uniform(0.0, 0.05)), sign))
            for _ in range(m))
        asm = AssemblySpec(segs, "linearized")
        total = asm.total_length_m
        half = 4 * 2 * math.pi / max(s.point.tau_s_si * s.length_m for s in segs)
        ws = _axis_through([s.point.omega_s0 for s in segs], half, 90, rng)[:, None]
        wi = _axis_through([s.point.omega_i0 for s in segs], half, 70, rng)[None, :]
        for seg in segs:
            x = delta_k(seg.point, ws, wi) * seg.length_m / 2
            exact_zero += int(np.count_nonzero(x == 0.0))
            series_band += int(np.count_nonzero((np.abs(x) > 0) & (np.abs(x) < 0.05)))
        oracle = _sinc_loop(segs, lambda seg: delta_k(seg.point, ws, wi),
                            np.broadcast_shapes(ws.shape, wi.shape))
        worst_2d = max(worst_2d, np.max(np.abs(phi_assembly(asm, ws, wi) - oracle)) / total)
        axis = ws[:, 0]
        oracle_1d = _sinc_loop(
            segs, lambda seg: seg.point.tau_s_si * (axis - seg.point.omega_s0), axis.shape)
        worst_1d = max(worst_1d, np.max(np.abs(phi_signal(asm, axis) - oracle_1d)) / total)
    assert exact_zero > 0 and series_band > 100
    assert worst_2d <= 1e-13, worst_2d
    assert worst_1d <= 1e-13, worst_1d


def test_assembly_bounded_by_total_length(rng):
    labels = ["S1", "S2", "S3", "S4"]
    for _ in range(25):
        m = int(rng.integers(1, 5))
        parts = [(labels[int(rng.integers(0, 4))], float(rng.uniform(0.05, 1.5)))
                 for _ in range(m)]
        asm = catalog_assembly(parts)
        total = sum(p[1] for p in parts)
        ws = rng.uniform(1.32e15, 1.35e15, size=200)
        wi = rng.uniform(2.18e15, 2.20e15, size=200)
        assert np.max(np.abs(phi_assembly(asm, ws, wi))) <= total * (1 + 1e-12)


def test_linearized_assembly_requires_shared_pump():
    good = catalog_point("S1")
    other = PhaseMatchPoint.from_signal_and_angle(1080.0, 1409.9, 3.2, 0.004)
    with pytest.raises(ValueError, match="pump"):
        AssemblySpec((AssemblySegment(0.3, good), AssemblySegment(0.3, other)),
                     "linearized")


# ---------------------------------------------------------------------------
# JSA grids


def test_jsa_stripe_geometry(pump_2nm, pump_5nm):
    # Group-matched pairs concentrate along the idler axis: through-peak cuts
    # are much wider in the idler than in the signal direction.
    asm = catalog_assembly([("S2", 0.3)])
    ratios = {}
    for pump in (pump_2nm, pump_5nm):
        jsa = build_jsa(asm, pump, ns=257, ni=257, lobes=4.0)
        jsi = jsa.intensity()
        i_s, i_i = np.unravel_index(np.argmax(jsi), jsi.shape)
        ws, wi = jsa.grid.signal, jsa.grid.idler

        def cut_var(axis, cut):
            mean = np.sum(axis * cut) / np.sum(cut)
            return np.sum((axis - mean) ** 2 * cut) / np.sum(cut)

        ratios[pump.fwhm_nm] = cut_var(wi, jsi[i_s, :]) / cut_var(ws, jsi[:, i_i])
    # Frozen from the model: 1.68 at 2 nm pump, 4.94 at 5 nm; elongation grows
    # with pump bandwidth because the idler extent is pump-dominated.
    assert ratios[2.0] > 1.5
    assert ratios[5.0] > 4.0
    assert ratios[5.0] > 2 * ratios[2.0]


def test_jsa_scale_quadratic_in_length(pump_2nm):
    short = catalog_assembly([("S2", 0.05)])
    shorter = catalog_assembly([("S2", 0.025)])
    pt = short.segments[0].point
    # Odd point counts put the phase-matched pair exactly on the grid.
    grid = FrequencyGrid(
        np.linspace(pt.omega_s0 - 4e12, pt.omega_s0 + 4e12, 129),
        np.linspace(pt.omega_i0 - 4e12, pt.omega_i0 + 4e12, 65),
    )
    a = build_jsa(short, pump_2nm, grid=grid).intensity().max()
    b = build_jsa(shorter, pump_2nm, grid=grid).intensity().max()
    assert a / b == pytest.approx(4.0, rel=1e-6)


def test_jsa_peak_at_phase_matched_pair(pump_2nm):
    for label in ("S1", "S3"):
        asm = catalog_assembly([(label, 0.3)])
        pt = asm.segments[0].point
        jsa = build_jsa(asm, pump_2nm, ns=256, ni=256, lobes=3.0)
        i_s, i_i = np.unravel_index(np.argmax(jsa.intensity()), jsa.amplitude.shape)
        assert abs(jsa.grid.signal[i_s] - pt.omega_s0) <= jsa.grid.signal_step
        assert abs(jsa.grid.idler[i_i] - pt.omega_i0) <= jsa.grid.idler_step


def test_build_refuses_unresolved_grid(pump_2nm):
    asm = catalog_assembly([("S2", 1.5)])
    pt = asm.segments[0].point
    coarse = FrequencyGrid(
        np.linspace(pt.omega_s0 - 4e13, pt.omega_s0 + 4e13, 32),
        np.linspace(pt.omega_i0 - 4e13, pt.omega_i0 + 4e13, 32),
    )
    with pytest.raises(GridResolutionError) as err:
        build_jsa(asm, pump_2nm, grid=coarse)
    assert err.value.required_ns > 32


def test_default_grid_meets_resolution_rule(pump_2nm):
    asm = catalog_assembly([("S1", 1.5), ("S3", 1.5)])
    grid = default_grid(asm, pump_2nm, ns=64, ni=64)
    slope = sum(abs(s.point.tau_s_si) * s.length_m for s in asm.segments)
    assert slope * grid.signal_step <= math.pi / 8 + 1e-12


def _assert_any_row_split_matches(jsa):
    # Every cell is computed on its own: any split of the rows, odd blocks
    # included, and the whole grid at once give the same bits.
    ws = jsa.grid.signal[:, None]
    wi = jsa.grid.idler[None, :]
    ns = ws.shape[0]
    for edges in ([0, ns], [0, 1, 8, 21, 64, 127, ns], list(range(0, ns, 7)) + [ns]):
        rows = [phi_assembly(jsa.assembly, ws[a:b], wi) * pump_envelope(jsa.pump, ws[a:b], wi)
                for a, b in zip(edges[:-1], edges[1:])]
        assert np.array_equal(np.concatenate(rows), jsa.amplitude)


def test_block_fill_matches_any_row_split(pump_2nm):
    asm = catalog_assembly([("S1", 0.3), ("S2", 0.3)])
    _assert_any_row_split_matches(build_jsa(asm, pump_2nm, ns=192, ni=160))


def _per_block_sum(segments, omega_s, omega_i=None):
    """Oracle: the linearized kernel as it ran once per row block, taking every
    one-axis exponential again on each call."""
    ws = np.asarray(omega_s, dtype=float)
    wi = None if omega_i is None else np.asarray(omega_i, dtype=float)
    shape = ws.shape if wi is None else np.broadcast_shapes(ws.shape, wi.shape)
    phi = np.zeros(shape, dtype=complex)
    term = np.empty(shape, dtype=complex)
    x = np.empty(shape)
    sinc = np.empty(shape)
    p_acc = q_acc = 0.0
    for seg in segments:
        half = seg.length_m / 2.0
        a = seg.point.tau_s_si * (ws - seg.point.omega_s0) * half
        b = 0.0 if wi is None else seg.point.tau_i_si * (wi - seg.point.omega_i0) * half
        np.add(a, b, out=x)
        np.multiply(np.exp(1j * a), np.exp(1j * b), out=term)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(term.imag, x, out=sinc)
        small = np.abs(x) < spectra.SINC_SERIES_CUT
        x2 = x[small] ** 2
        sinc[small] = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0))
        np.multiply(seg.length_m * np.exp(1j * (a + p_acc)), np.exp(1j * (b + q_acc)), out=term)
        term *= sinc
        phi += term
        p_acc = p_acc + 2.0 * a
        q_acc = q_acc + 2.0 * b
    return phi


def _per_block_fill(jsa):
    """Oracle: build_jsa's row loop over _per_block_sum, one fresh block a call."""
    ws = jsa.grid.signal[:, None]
    wi = jsa.grid.idler[None, :]
    amp = np.empty(jsa.amplitude.shape, dtype=complex)
    step = max(1, spectra.FILL_BLOCK_CELLS // wi.size)
    for r in range(0, ws.shape[0], step):
        rows = _per_block_sum(jsa.assembly.segments, ws[r:r + step], wi)
        rows *= pump_envelope(jsa.pump, ws[r:r + step], wi)
        amp[r:r + step] = rows
    return amp


def _anchored_grid(asm, ns, ni, step_s, step_i):
    # Offsets times the step from the first segment's pair: both anchors land
    # exactly on the grid, so x = a + b is exactly 0 in that cell.
    pt = asm.segments[0].point
    return FrequencyGrid(pt.omega_s0 + step_s * np.arange(-(ns // 2), ns - ns // 2),
                         pt.omega_i0 + step_i * np.arange(-(ni // 2), ni - ni // 2))


def test_factored_fill_matches_per_block_kernel_bit_for_bit(pump_2nm, pump_5nm):
    four = catalog_assembly([("S1", 0.3), ("S2", 0.3), ("S3", 0.3), ("S4", 0.3)])
    two = catalog_assembly([("S1", 0.3), ("S2", 0.3)])
    flat = AssemblySpec((AssemblySegment(0.3, make_point(theta=0.0)),)
                        + catalog_assembly([("S3", 0.3)]).segments, "linearized")
    assert flat.segments[0].point.tau_i_si == 0.0
    jsas = [build_jsa(four, pump_2nm), build_jsa(four, pump_5nm),
            build_jsa(two, pump_2nm, grid=_anchored_grid(two, 193, 160, 4e10, 2e11)),
            build_jsa(flat, pump_2nm, ns=300, ni=128)]
    assert [j.amplitude.shape for j in jsas[:3]] == [(1378, 512), (1378, 512), (193, 160)]
    assert 193 % (spectra.FILL_BLOCK_CELLS // 160) != 0  # a ragged last block
    # The anchored grid holds exact zeros of x, so the Taylor branch runs there.
    seg = two.segments[0]
    a = seg.point.tau_s_si * (jsas[2].grid.signal[:, None] - seg.point.omega_s0) * 0.15
    b = seg.point.tau_i_si * (jsas[2].grid.idler[None, :] - seg.point.omega_i0) * 0.15
    assert np.count_nonzero(a + b == 0.0) > 0
    for jsa in jsas:
        assert jsa.amplitude.tobytes() == _per_block_fill(jsa).tobytes()
    for asm in (four, flat):
        axis = jsas[0].grid.signal
        assert phi_signal(asm, axis).tobytes() == _per_block_sum(asm.segments, axis).tobytes()


# ---------------------------------------------------------------------------
# marginals


def test_marginal_proportional_to_phi_when_group_matched(pump_2nm):
    pt = make_point(theta=0.0)
    asm = AssemblySpec((AssemblySegment(0.3, pt),), "linearized")
    jsa = build_jsa(asm, pump_2nm, ns=384, ni=384)
    spec = marginal(jsa, "signal")
    phi2 = np.abs(phi_signal(asm, jsa.grid.signal)) ** 2
    keep = phi2 > 1e-3 * phi2.max()
    ratio = spec.values[keep] / phi2[keep]
    assert ratio.max() / ratio.min() - 1 < 0.01
    # The projection integrates the pump out: ratio = sqrt(2 pi) sigma_p.
    expected = math.sqrt(2 * math.pi) * pump_2nm.sigma_omega
    assert np.median(ratio) == pytest.approx(expected, rel=0.01)


def test_marginal_scales_linearly_with_pump_bandwidth(pump_2nm):
    pt = make_point(theta=0.0)
    asm = AssemblySpec((AssemblySegment(0.3, pt),), "linearized")
    pump_4nm = PumpSpec(PUMP_NM, 4.0)
    grid = default_grid(asm, pump_4nm, ns=384, ni=384)
    m2 = marginal(build_jsa(asm, pump_2nm, grid=grid), "signal")
    m4 = marginal(build_jsa(asm, pump_4nm, grid=grid), "signal")
    keep = m2.values > 1e-3 * m2.values.max()
    scale = m4.values[keep] / m2.values[keep]
    assert np.all(np.abs(scale - 2.0) < 0.02)
    shape2 = m2.values / m2.values.max()
    shape4 = m4.values / m4.values.max()
    assert np.max(np.abs(shape2 - shape4)) < 0.01


def _count_peaks(values, floor_frac=0.2):
    floor = floor_frac * values.max()
    inner = values[1:-1]
    is_peak = (inner > values[:-2]) & (inner >= values[2:]) & (inner > floor)
    return int(np.count_nonzero(is_peak))


def test_spliced_fiber_marginal_is_modulated(pump_2nm):
    spliced = catalog_assembly([("S1", 0.3), ("S3", 0.3)])
    uniform = catalog_assembly([("S2", 0.6)])
    m_spliced = marginal(build_jsa(spliced, pump_2nm, ns=384, ni=256), "signal")
    m_uniform = marginal(build_jsa(uniform, pump_2nm, ns=384, ni=256), "signal")
    assert _count_peaks(m_spliced.values) > 1
    assert _count_peaks(m_uniform.values) == 1


# ---------------------------------------------------------------------------
# filter scans


def test_filter_scan_delta_limit():
    asm = catalog_assembly([("S1", 0.3), ("S3", 0.3)])
    centers = np.linspace(1402.0, 1426.0, 61)
    scan = filter_scan(asm, FilterSpec(1414.0, 0.05), centers)
    direct = np.abs(phi_signal(asm, TWO_PI_C / (centers * 1e-9))) ** 2
    a = scan.values / scan.values.max()
    b = direct / direct.max()
    assert np.max(np.abs(a - b)) < 0.02


def test_filter_scan_matches_fine_quadrature():
    from sfwm.spectra import _scan_quadrature, _signal_window

    asm = catalog_assembly([("S1", 0.3), ("S2", 0.3)])
    filt = FilterSpec(1412.0, 0.8)
    centers = np.linspace(1404.0, 1420.0, 31)
    scan = filter_scan(asm, filt, centers)
    lo, hi = _signal_window(asm, 10.0)
    lo = min(lo, TWO_PI_C / (centers.max() * 1e-9) - 6 * filt.sigma_omega)
    hi = max(hi, TWO_PI_C / (centers.min() * 1e-9) + 6 * filt.sigma_omega)
    axis = np.linspace(lo, hi, 400_001)
    fine = _scan_quadrature(axis, np.abs(phi_signal(asm, axis)) ** 2,
                            filt.sigma_omega, TWO_PI_C / (centers * 1e-9), 1.0)
    assert np.max(np.abs(scan.values - fine)) <= 1e-4 * fine.max()


def test_filter_scan_wide_filter_flat_tops():
    asm = catalog_assembly([("S2", 0.3)])
    centers = np.linspace(1409.0, 1419.0, 11)
    scan = filter_scan(asm, FilterSpec(1414.0, 400.0), centers)
    assert scan.values.max() / scan.values.min() - 1 < 0.01


def test_filter_scan_gain_scale(pump_2nm):
    asm = catalog_assembly([("S2", 0.3)])
    centers = np.linspace(1410.0, 1418.0, 5)
    plain = filter_scan(asm, FilterSpec(1414.0, 0.8), centers)
    powered = PumpSpec(PUMP_NM, 2.0, gamma_per_w_km=37.0, peak_power_w=2.0)
    scaled = filter_scan(asm, FilterSpec(1414.0, 0.8), centers, pump=powered)
    expected = powered.gain**2 / powered.sigma_omega
    assert scaled.values == pytest.approx(plain.values * expected, rel=1e-12)


def test_filter_scan_refuses_an_axis_past_its_cap():
    # 100 m at 3.2 ps/m over 1000-2000 nm needs ~772,000 samples for the pi/8
    # phase step; capped at 2^18, its step would be ~1.16 rad.
    asm = make_assembly([(100.0, {})])
    with pytest.raises(GridResolutionError, match="772388 points.*262144-point cap") as err:
        filter_scan(asm, FilterSpec(1500.0, 1.0), np.linspace(1000.0, 2000.0, 11))
    assert err.value.required_ns == 772388


# ---------------------------------------------------------------------------
# split-band behaviour of spliced dissimilar segments


def _split_band_metrics(length):
    asm = catalog_assembly([("S1", length), ("S3", length)])
    p1, p3 = (seg.point for seg in asm.segments)
    half = 14 * 2 * math.pi / (p1.tau_s_si * length)
    ws = np.linspace(p3.omega_s0 - half, p1.omega_s0 + half, 200_001)
    single1 = AssemblySpec((AssemblySegment(length, p1),), "linearized")
    single3 = AssemblySpec((AssemblySegment(length, p3),), "linearized")
    t1 = np.abs(phi_signal(single1, ws)) ** 2
    t3 = np.abs(phi_signal(single3, ws)) ** 2
    tot = np.abs(phi_signal(asm, ws)) ** 2
    peak = tot.max()
    cross = np.max(np.abs(tot - t1 - t3)) / peak
    overlap = np.max(np.minimum(t1, t3)) / peak
    return cross, overlap


def test_long_segments_split_into_disjoint_bands():
    cross, overlap = _split_band_metrics(1.5)
    # Intensity overlap is negligible; the coherent cross term stays at the
    # few-percent level set by first-order sinc tails.
    assert overlap < 0.01
    assert 0.05 < cross < 0.12


def test_short_segments_interfere_strongly():
    cross, overlap = _split_band_metrics(0.3)
    assert cross > 0.10
    assert overlap > 0.10


# ---------------------------------------------------------------------------
# grid refinement stability


def test_grid_refinement_leaves_marginal_unchanged(pump_2nm):
    asm = catalog_assembly([("S1", 0.3), ("S2", 0.3)])
    coarse = marginal(build_jsa(asm, pump_2nm, ns=512, ni=512), "signal")
    fine = marginal(build_jsa(asm, pump_2nm, ns=1024, ni=1024), "signal")
    interp = np.interp(coarse.axis, fine.axis, fine.values)
    a = coarse.values / coarse.values.max()
    b = interp / interp.max()
    assert np.max(np.abs(a - b)) < 1e-3


def test_grid_refinement_leaves_scan_unchanged():
    asm = catalog_assembly([("S1", 0.3), ("S2", 0.3)])
    centers = np.linspace(1406.0, 1420.0, 15)
    a = filter_scan(asm, FilterSpec(1413.0, 0.8), centers)
    b = filter_scan(asm, FilterSpec(1413.0, 0.8), centers, lobes=20.0)
    assert np.max(np.abs(a.values - b.values)) < 1e-3 * a.values.max()


# ---------------------------------------------------------------------------
# full (per-point) mismatch model


def test_full_mismatch_vanishes_at_solved_pair(pump_2nm):
    from sfwm import assembly_from_fibers, delta_k_full
    from conftest import catalog_fiber

    fiber = catalog_fiber("S3")
    asm = assembly_from_fibers([fiber], pump_2nm, model_mode="full")
    pt = asm.segments[0].point
    anchor = delta_k_full(fiber, np.array([pt.omega_s0]), np.array([pt.omega_i0]))
    assert abs(float(anchor[0])) < 1e-5


def test_full_mismatch_tangent_to_linearization(pump_2nm):
    from sfwm import assembly_from_fibers, delta_k_full
    from conftest import catalog_fiber

    fiber = catalog_fiber("S3")
    asm = assembly_from_fibers([fiber], pump_2nm, model_mode="full")
    pt = asm.segments[0].point
    ws = pt.omega_s0 + np.linspace(-2e12, 2e12, 9)
    wi = np.full_like(ws, pt.omega_i0)
    full = delta_k_full(fiber, ws, wi)
    lin = delta_k(pt, ws, wi)
    # First-order agreement: curvature enters at the per-mille level here.
    assert np.max(np.abs(full - lin)) < 0.05 * np.max(np.abs(lin))


def test_full_mode_g2_close_to_linearized(pump_2nm):
    from sfwm import assembly_from_fibers, g2_quadrature
    from conftest import catalog_fiber

    fibers = [catalog_fiber("S3", 0.3)]
    lin = assembly_from_fibers(fibers, pump_2nm, model_mode="linearized")
    full = assembly_from_fibers(fibers, pump_2nm, model_mode="full")
    grid = default_grid(lin, pump_2nm, ns=256, ni=256, lobes=6.0)
    g_lin = g2_quadrature(build_jsa(lin, pump_2nm, grid=grid))
    jsa_full = build_jsa(full, pump_2nm, grid=grid)
    g_full = g2_quadrature(jsa_full)
    assert abs(g_full - g_lin) < 0.02
    # The full model's k(omega) series depends on the fiber only, not on the rows.
    _assert_any_row_split_matches(jsa_full)


def test_full_mode_outside_material_window_raises(pump_2nm):
    from sfwm import assembly_from_fibers, delta_k_full
    from sfwm.dispersion import DispersionDomainError
    from conftest import catalog_fiber

    fiber = catalog_fiber("S3")
    with pytest.raises(DispersionDomainError):
        delta_k_full(fiber, np.array([TWO_PI_C / 2.5e-6]), np.array([2.2e15]))


def test_full_mode_requires_structure():
    pt = catalog_point("S2")
    with pytest.raises(ValueError, match="structural"):
        AssemblySpec((AssemblySegment(0.3, pt, None),), "full")


def test_spectrum_axis_conversion_and_negative_values():
    from sfwm import Spectrum1D

    spec = Spectrum1D(np.array([1.0e15, 1.1e15, 1.2e15]),
                      np.array([1.0, 4.0, 2.0]), "angular_frequency")
    wl = spec.to_wavelength()
    assert wl.axis_kind == "wavelength_nm"
    assert np.all(np.diff(wl.axis) > 0)
    assert wl.values[0] == 2.0  # largest wavelength = smallest frequency
    with pytest.raises(ValueError):
        Spectrum1D(np.array([1.0, 2.0]), np.array([-1.0, 0.0]), "wavelength_nm")
