"""Energy- and momentum-conservation solver for the four-wave-mixing pair.

For a pump at omega_p the nondegenerate signal/idler pair satisfies
2*k(omega_p) = k(omega_s) + k(omega_i) with omega_s + omega_i = 2*omega_p
(the small nonlinear 2*gamma*P term is neglected).  The solver returns the
linearization of the mismatch around the solution: the phase-matched
wavelengths, the group-slowness walk-offs tau_s, tau_i between pump and
daughter fields, and the contour angle theta = |arctan(tau_i/tau_s)|.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as C_LIGHT
from scipy.optimize import brentq

from .dispersion import (
    TWO_PI_C,
    WAVELENGTH_WINDOW_NM,
    FiberSegment,
    _k_of_omega,
    _slowness_rf,
)

SQRT_LN2 = math.sqrt(math.log(2.0))


class PhaseMatchError(RuntimeError):
    """No nondegenerate phase-matched pair in the search window."""


def gaussian_sigma_omega(center_nm: float, fwhm_nm: float) -> float:
    """Gaussian width sigma (rad/s) of an intensity profile exp(-dw^2/sigma^2)
    ... scaled so that the *amplitude* convention exp(-dw^2/(2 sigma^2)) has the
    given intensity FWHM: sigma = pi*c*fwhm / (lambda^2 * sqrt(ln 2))."""
    return math.pi * C_LIGHT * (fwhm_nm * 1e-9) / (center_nm * 1e-9) ** 2 / SQRT_LN2


@dataclass(frozen=True)
class PumpSpec:
    """Pulsed Gaussian pump: center wavelength, spectral FWHM, optional gain data."""

    center_wavelength_nm: float
    fwhm_nm: float
    gamma_per_w_km: float | None = None
    peak_power_w: float | None = None

    def __post_init__(self):
        if self.center_wavelength_nm <= 0:
            raise ValueError("center_wavelength_nm must be > 0")
        if self.fwhm_nm <= 0:
            raise ValueError("fwhm_nm must be > 0")
        if (self.gamma_per_w_km is None) != (self.peak_power_w is None):
            raise ValueError("gamma_per_w_km and peak_power_w must be given together")

    @property
    def omega_pc(self) -> float:
        return TWO_PI_C / (self.center_wavelength_nm * 1e-9)

    @property
    def sigma_omega(self) -> float:
        """Amplitude-convention bandwidth sigma_p in rad/s."""
        return gaussian_sigma_omega(self.center_wavelength_nm, self.fwhm_nm)

    @property
    def gain(self) -> float | None:
        """gamma * P_peak in 1/m; the parametric gain is proportional to this."""
        if self.gamma_per_w_km is None:
            return None
        return self.gamma_per_w_km * 1e-3 * self.peak_power_w


@dataclass(frozen=True)
class PhaseMatchPoint:
    """Linearization of the wave-vector mismatch at a phase-matched pair.

    tau_s and tau_i are pump-minus-daughter group slownesses in ps/m; theta is
    the acute angle between the idler axis and the mismatch contour.
    """

    lambda_s0_nm: float
    lambda_i0_nm: float
    tau_s_ps_per_m: float
    tau_i_ps_per_m: float
    theta_rad: float

    def __post_init__(self):
        if self.lambda_s0_nm <= 0 or self.lambda_i0_nm <= 0:
            raise ValueError("phase-matched wavelengths must be positive")
        th = abs(math.atan2(self.tau_i_ps_per_m, self.tau_s_ps_per_m))
        th = min(th, math.pi - th)  # acute angle, fold tau_s sign away
        if abs(th - self.theta_rad) > 1e-9 + 1e-9 * abs(th):
            raise ValueError(
                f"theta_rad={self.theta_rad} inconsistent with |arctan(tau_i/tau_s)|={th}"
            )
        if not 0.0 <= self.theta_rad <= math.pi / 2:
            raise ValueError("theta_rad must lie in [0, pi/2]")

    @classmethod
    def for_pump(cls, lambda_pc_nm: float, lambda_s0_nm: float,
                 tau_s_ps_per_m: float, tau_i_ps_per_m: float) -> "PhaseMatchPoint":
        """Build from signal wavelength; idler fixed by energy conservation."""
        inv_i = 2.0 / lambda_pc_nm - 1.0 / lambda_s0_nm
        if inv_i <= 0:
            raise ValueError("energy conservation gives no positive idler wavelength")
        th = abs(math.atan2(tau_i_ps_per_m, tau_s_ps_per_m))
        th = min(th, math.pi - th)
        return cls(lambda_s0_nm, 1.0 / inv_i, tau_s_ps_per_m, tau_i_ps_per_m, th)

    @classmethod
    def from_signal_and_angle(cls, lambda_pc_nm: float, lambda_s0_nm: float,
                              tau_s_ps_per_m: float, theta_rad: float,
                              tau_i_sign: float = +1.0) -> "PhaseMatchPoint":
        """Build from (lambda_s0, tau_s, theta) triples; the angle loses the
        sign of tau_i, which must be supplied (default +)."""
        tau_i = math.copysign(abs(tau_s_ps_per_m) * math.tan(theta_rad), tau_i_sign)
        return cls.for_pump(lambda_pc_nm, lambda_s0_nm, tau_s_ps_per_m, tau_i)

    @property
    def pump_wavelength_nm(self) -> float:
        """Pump wavelength implied by energy conservation."""
        return 2.0 / (1.0 / self.lambda_s0_nm + 1.0 / self.lambda_i0_nm)

    def energy_residual(self, lambda_pc_nm: float) -> float:
        """Relative residual of 2/lambda_p = 1/lambda_s + 1/lambda_i."""
        lhs = 2.0 / lambda_pc_nm
        return abs(lhs - 1.0 / self.lambda_s0_nm - 1.0 / self.lambda_i0_nm) / lhs

    # SI views used by the spectral grid machinery.
    @property
    def omega_s0(self) -> float:
        return TWO_PI_C / (self.lambda_s0_nm * 1e-9)

    @property
    def omega_i0(self) -> float:
        return TWO_PI_C / (self.lambda_i0_nm * 1e-9)

    @property
    def tau_s_si(self) -> float:
        return self.tau_s_ps_per_m * 1e-12

    @property
    def tau_i_si(self) -> float:
        return self.tau_i_ps_per_m * 1e-12


def _default_search_window(lambda_pc_nm: float) -> tuple[float, float]:
    lo = lambda_pc_nm + 10.0
    hi = min(lambda_pc_nm + 500.0, WAVELENGTH_WINDOW_NM[1] - 5.0)
    return lo, hi


def solve_phase_match(segment: FiberSegment, pump: PumpSpec,
                      search_window_nm: tuple[float, float] | None = None,
                      mode_model: str = "he11") -> PhaseMatchPoint:
    """Nondegenerate phase-matched pair with the signal on the red side.

    Brackets 2k(w_p) - k(w_s) - k(2w_p - w_s) on a 1 nm signal grid and
    polishes the root to machine precision so the momentum residual at the
    returned point is far below 1e-6 rad/m.
    """
    r, f = segment.core_radius_nm, segment.air_fill
    lam_p = pump.center_wavelength_nm
    w_p = pump.omega_pc
    k_p = _k_of_omega(r, f, w_p, mode_model)

    def mismatch_at_signal(w_s):
        k_s, k_i = _k_of_omega(r, f, np.stack((w_s, 2.0 * w_p - w_s)), mode_model)
        return 2.0 * k_p - k_s - k_i

    lo, hi = search_window_nm if search_window_nm else _default_search_window(lam_p)
    # Integer-nm coarse grid, independent of the window's fractional part, so
    # neighbouring pumps of a sweep bracket on the same lattice; the idler
    # counterpart of each candidate must stay inside the material window.
    lam_grid = np.arange(math.ceil(lo), math.floor(hi) + 1.0, 1.0)
    idler_nm = 1.0 / (2.0 / lam_p - 1.0 / lam_grid)
    keep = (idler_nm > WAVELENGTH_WINDOW_NM[0] + 5.0) & (idler_nm < WAVELENGTH_WINDOW_NM[1])
    lam_grid = lam_grid[keep]
    if lam_grid.size < 2:
        raise PhaseMatchError(f"empty search window for pump {lam_p} nm")

    w_grid = TWO_PI_C / (lam_grid * 1e-9)
    vals = mismatch_at_signal(w_grid)
    brackets = [
        (w_grid[i + 1], w_grid[i])  # omega descends along the lambda grid
        for i in range(len(lam_grid) - 1)
        if vals[i] * vals[i + 1] < 0
    ]
    if not brackets:
        raise PhaseMatchError(
            f"no phase matching for {segment.label} (r={r} nm, f={f}) with pump "
            f"{lam_p} nm in signal window [{lo:.0f}, {hi:.0f}] nm"
        )
    if len(brackets) > 1:
        warnings.warn(
            f"{len(brackets)} phase-matching roots for {segment.label}; "
            "returning the one closest to the pump", stacklevel=2,
        )
    # The bracket at largest omega_s = smallest signal wavelength.
    w_a, w_b = brackets[0]
    w_s0 = brentq(mismatch_at_signal, w_a, w_b, xtol=1e-3, rtol=4 * np.finfo(float).eps)
    w_i0 = 2.0 * w_p - w_s0

    slow_p, slow_s, slow_i = _slowness_rf(r, f, np.array((w_p, w_s0, w_i0)), mode_model)
    tau_s = (slow_p - slow_s) * 1e12
    tau_i = (slow_p - slow_i) * 1e12
    return PhaseMatchPoint.for_pump(
        lambda_pc_nm=lam_p,
        lambda_s0_nm=TWO_PI_C / w_s0 * 1e9,
        tau_s_ps_per_m=tau_s,
        tau_i_ps_per_m=tau_i,
    )


@dataclass(frozen=True)
class GvmSample:
    """One pump wavelength of a group-velocity-matching sweep; point is None
    where no nondegenerate root exists."""

    lambda_p_nm: float
    point: PhaseMatchPoint | None


def gvm_curve(segment: FiberSegment, pump_range_nm: tuple[float, float],
              n_points: int, fwhm_nm: float = 1.0,
              mode_model: str = "he11") -> list[GvmSample]:
    """Phase-matching linearization swept over the pump wavelength.

    The linearization does not depend on the pump bandwidth; fwhm_nm only
    parameterizes the intermediate PumpSpec.
    """
    lo, hi = min(pump_range_nm), max(pump_range_nm)
    out: list[GvmSample] = []
    for lam_p in np.linspace(lo, hi, n_points):
        pump = PumpSpec(float(lam_p), fwhm_nm)
        try:
            pt = solve_phase_match(segment, pump, mode_model=mode_model)
        except PhaseMatchError:
            pt = None
        out.append(GvmSample(float(lam_p), pt))
    return out


@dataclass(frozen=True)
class AgvmRoots:
    """Pump wavelengths where one daughter field group-matches the pump."""

    pump_for_tau_i_zero: float | None
    pump_for_tau_s_zero: float | None


def agvm_roots(segment: FiberSegment, sweep: list[GvmSample],
               mode_model: str = "he11") -> AgvmRoots:
    """Root-polished pump wavelengths with tau_i = 0 and tau_s = 0.

    Each root is bracketed by the first sign change of its tau between
    neighbouring samples of ``sweep`` (a ``gvm_curve`` of the same segment),
    then polished with brentq; a root between two samples whose tau has the
    same sign is missed.
    """
    pumps = [s.lambda_p_nm for s in sweep]
    if len(pumps) < 2:
        raise ValueError(f"agvm_roots needs at least 2 sweep samples, got {len(pumps)}")
    if any(b <= a for a, b in zip(pumps, pumps[1:])):
        raise ValueError("agvm_roots needs sweep pumps in strictly ascending order")

    def polish(component: str) -> float | None:
        def tau(lam_p: float) -> float:
            pt = solve_phase_match(segment, PumpSpec(lam_p, 1.0), mode_model=mode_model)
            return getattr(pt, component)

        for a, b in zip(sweep, sweep[1:]):
            if a.point is None or b.point is None:
                continue
            va, vb = getattr(a.point, component), getattr(b.point, component)
            if va == 0.0:
                return a.lambda_p_nm
            if va * vb < 0:
                return float(brentq(tau, a.lambda_p_nm, b.lambda_p_nm, xtol=1e-2))
        return None

    return AgvmRoots(
        pump_for_tau_i_zero=polish("tau_i_ps_per_m"),
        pump_for_tau_s_zero=polish("tau_s_ps_per_m"),
    )
