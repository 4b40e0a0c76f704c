"""Phase-matching solver, linearization data, and group-velocity-matching sweeps."""

import math
import warnings

import numpy as np
import pytest
from scipy.constants import c

from sfwm import (
    FiberSegment,
    PhaseMatchPoint,
    PumpSpec,
    agvm_roots,
    gvm_curve,
    propagation_constant,
    solve_phase_match,
)
from sfwm.phasematch import GvmSample, PhaseMatchError, _phase_match

from conftest import CATALOG, PUMP_NM, benchmark_config, catalog_fiber


def test_pump_sigma_matches_fwhm_conversion():
    pump = PumpSpec(1070.0, 2.0)
    expected = math.pi * c * 2e-9 / (1070e-9) ** 2 / math.sqrt(math.log(2.0))
    assert pump.sigma_omega == pytest.approx(expected, rel=1e-12)
    assert pump.sigma_omega == pytest.approx(1.976e12, rel=1e-3)


def test_pump_validation():
    with pytest.raises(ValueError):
        PumpSpec(-1.0, 2.0)
    with pytest.raises(ValueError):
        PumpSpec(1070.0, 0.0)
    with pytest.raises(ValueError):
        PumpSpec(1070.0, 2.0, gamma_per_w_km=37.0)  # power missing
    assert PumpSpec(1070.0, 2.0, 37.0, 1.0).gain == pytest.approx(0.037)
    assert PumpSpec(1070.0, 2.0).gain is None


def test_point_energy_conservation_from_signal():
    pt = PhaseMatchPoint.for_pump(PUMP_NM, 1413.6, 3.2, 0.01)
    assert pt.energy_residual(PUMP_NM) < 1e-12
    # Forced idler wavelength for this signal.
    assert pt.lambda_i0_nm == pytest.approx(860.8, abs=0.05)


def test_point_theta_consistency_enforced():
    pt = PhaseMatchPoint.from_signal_and_angle(PUMP_NM, 1409.9, 3.2, 0.004, -1.0)
    assert pt.tau_i_ps_per_m == pytest.approx(-3.2 * math.tan(0.004), rel=1e-12)
    assert pt.theta_rad == pytest.approx(0.004, rel=1e-9)


def test_theta_scale_invariance():
    base = PhaseMatchPoint.for_pump(PUMP_NM, 1410.0, 3.2, 0.013)
    for scale in (0.25, 3.0, 40.0):
        scaled = PhaseMatchPoint.for_pump(PUMP_NM, 1410.0, 3.2 * scale, 0.013 * scale)
        assert scaled.theta_rad == pytest.approx(base.theta_rad, rel=1e-12)


@pytest.mark.parametrize("label,ls0_ref,li0_ref,tau_ref", [
    ("S1", 1409.9, 862.1, 3.2),
    ("S4", 1421.0, 858.1, 3.4),
])
def test_solver_matches_catalog(label, ls0_ref, li0_ref, tau_ref, pump_2nm):
    pt = solve_phase_match(catalog_fiber(label), pump_2nm)
    assert pt.lambda_s0_nm == pytest.approx(ls0_ref, abs=10.0)
    assert pt.lambda_i0_nm == pytest.approx(li0_ref, abs=5.0)
    assert pt.tau_s_ps_per_m == pytest.approx(tau_ref, abs=0.5)
    assert pt.theta_rad < 0.01
    assert pt.energy_residual(PUMP_NM) < 1e-12


def test_momentum_residual_below_bound(pump_2nm):
    seg = catalog_fiber("S2")
    pt = solve_phase_match(seg, pump_2nm)
    k_p = propagation_constant(seg, PUMP_NM)
    k_s = propagation_constant(seg, pt.lambda_s0_nm)
    k_i = propagation_constant(seg, pt.lambda_i0_nm)
    assert abs(2 * k_p - k_s - k_i) < 1e-6


def test_catalog_ordering_in_radius(pump_2nm):
    points = [solve_phase_match(catalog_fiber(lbl), pump_2nm) for lbl in CATALOG]
    ls0 = [p.lambda_s0_nm for p in points]
    li0 = [p.lambda_i0_nm for p in points]
    assert all(b > a for a, b in zip(ls0, ls0[1:]))
    assert all(b < a for a, b in zip(li0, li0[1:]))


def test_no_phase_matching_in_narrow_window():
    # A pump below S2's 942 nm zero-dispersion wavelength: no signal in its
    # window phase-matches.
    with pytest.raises(PhaseMatchError, match=r"no phase matching .* in signal window "
                                              r"\[930, 1420\] nm"):
        solve_phase_match(catalog_fiber("S2"), PumpSpec(920.0, 2.0))


def test_gvm_curve_marks_absent_points():
    seg = catalog_fiber("S2")
    samples = gvm_curve(seg, (1060.0, 1080.0), 3)
    assert all(s.point is not None for s in samples)
    # A window that cannot bracket the root yields absent entries, not values.
    narrow = [
        s.point for s in gvm_curve(seg, (1060.0, 1062.0), 2)
    ]
    assert all(p is not None for p in narrow)


def test_signal_wavelength_turns_at_group_matched_pump():
    # d(omega_s0)/d(omega_p) is proportional to tau_i along the solution, so
    # lambda_s0(lambda_p) is monotone on each side of the tau_i = 0 pump and
    # peaks there.
    seg = catalog_fiber("S3")
    below = [s.point.lambda_s0_nm for s in gvm_curve(seg, (1050.0, 1066.0), 5)]
    above = [s.point.lambda_s0_nm for s in gvm_curve(seg, (1074.0, 1090.0), 5)]
    assert all(b > a for a, b in zip(below, below[1:]))
    assert all(b < a for a, b in zip(above, above[1:]))
    peak = solve_phase_match(seg, PumpSpec(1070.0, 2.0)).lambda_s0_nm
    assert peak > max(below[-1], above[0])


def test_agvm_roots_reference_fiber():
    seg = catalog_fiber("S3", 1.9)  # r = 948 nm
    roots = agvm_roots(seg, gvm_curve(seg, (950.0, 1100.0), 16))
    assert roots.pump_for_tau_i_zero == pytest.approx(1070.2, abs=5.0)
    assert roots.pump_for_tau_s_zero == pytest.approx(986.5, abs=5.0)
    # At the group-matched pump the contour angle collapses.
    pt = solve_phase_match(seg, PumpSpec(roots.pump_for_tau_i_zero, 2.0))
    assert abs(pt.theta_rad) < 1e-3


def test_agvm_root_stable_under_radius_nudge():
    seg = catalog_fiber("S3", 1.9)
    nudged = catalog_fiber("S1", 1.9)  # r = 947 nm
    a = agvm_roots(seg, gvm_curve(seg, (1050.0, 1090.0), 5))
    b = agvm_roots(nudged, gvm_curve(nudged, (1050.0, 1090.0), 5))
    assert a.pump_for_tau_i_zero is not None and b.pump_for_tau_i_zero is not None
    assert abs(a.pump_for_tau_i_zero - b.pump_for_tau_i_zero) < 5.0


def test_agvm_absent_outside_range():
    seg = catalog_fiber("S3", 1.9)
    roots = agvm_roots(seg, gvm_curve(seg, (1050.0, 1060.0), 3))
    assert roots.pump_for_tau_i_zero is None
    assert roots.pump_for_tau_s_zero is None


@pytest.mark.parametrize("pumps, message", [
    ((), "agvm_roots needs at least 2 sweep samples, got 0"),
    ((1060.0,), "agvm_roots needs at least 2 sweep samples, got 1"),
    ((1060.0, 1070.0, 1065.0), "agvm_roots needs sweep pumps in strictly ascending order"),
    ((1060.0, 1060.0), "agvm_roots needs sweep pumps in strictly ascending order"),
])
def test_agvm_roots_refuses_a_sweep_that_cannot_bracket(pumps, message):
    sweep = [GvmSample(p, None) for p in pumps]
    with pytest.raises(ValueError) as info:
        agvm_roots(catalog_fiber("S3", 1.9), sweep)
    assert str(info.value) == message


def _phase_match_outcomes(fiber, pumps):
    """repr of each pump's point (types included) or its error, and the
    warnings issued, from one batched call and from one call per pump."""
    def outcomes(points):
        return [repr(p) if isinstance(p, PhaseMatchPoint) else f"{type(p).__name__}: {p}"
                for p in points]

    with warnings.catch_warnings(record=True) as batch_warnings:
        warnings.simplefilter("always")
        batch = outcomes(_phase_match(fiber, pumps))
    with warnings.catch_warnings(record=True) as alone_warnings:
        warnings.simplefilter("always")
        alone = outcomes([_phase_match(fiber, [p])[0] for p in pumps])
    return ((batch, [str(w.message) for w in batch_warnings]),
            (alone, [str(w.message) for w in alone_warnings]))


# Pumps outside the sweep: no root in the window, or an empty window.
_OFF_SWEEP_NM = (600.0, 950.0, 1300.0, 1700.0, 1990.0)


@pytest.mark.parametrize("seed", [1, 7])
def test_batched_phase_match_matches_one_pump_calls_on_benchmark_sweeps(seed):
    cfg = benchmark_config("gvm_sweep", seed)
    seg = cfg["segments"][0]
    fiber = FiberSegment(seg["label"], seg["core_radius_nm"], seg["air_fill"], seg["length_m"])
    lams = np.concatenate((np.linspace(*cfg["sweep"]["pump_range_nm"], cfg["sweep"]["n_points"]),
                           _OFF_SWEEP_NM))
    (batch, batch_warnings), (alone, alone_warnings) = _phase_match_outcomes(
        fiber, lams.tolist())
    assert batch == alone and batch_warnings == alone_warnings
    assert sum(o.startswith("PhaseMatchError") for o in batch) >= 2


@pytest.mark.parametrize("window", [None, (1090.0, 1120.0), (1380.0, 1440.0)])
def test_batched_phase_match_matches_one_pump_calls_on_the_catalog(window):
    # window: a pump range swept on four points, every pump phase-matched
    # in (1090, 1120) nm and none in (1380, 1440) nm; None: hand-picked
    # pumps, the 920 nm one below every catalog fiber's zero-dispersion
    # wavelength, with no root in its signal window.
    pumps_nm = [1060.0, PUMP_NM, 1080.0, 920.0] if window is None else \
        np.linspace(*window, 4).tolist()
    for label in CATALOG:
        fiber = catalog_fiber(label)
        (batch, batch_warnings), (alone, alone_warnings) = _phase_match_outcomes(fiber, pumps_nm)
        assert batch == alone and batch_warnings == alone_warnings
        if window is not None:
            found = [o.startswith("PhaseMatchPoint(") for o in batch]
            assert found == [window == (1090.0, 1120.0)] * len(pumps_nm), (label, batch)
            continue
        assert batch[3].startswith("PhaseMatchError: no phase matching")
        # The pump's width does not enter the linearization.
        for fwhm in (2.0, 5.0):
            assert batch[1] == repr(solve_phase_match(fiber, PumpSpec(PUMP_NM, fwhm)))
