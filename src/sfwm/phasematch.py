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

from .dispersion import C_LIGHT, TWO_PI_C, WAVELENGTH_WINDOW_NM, FiberSegment, _brentq

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

    def __post_init__(self):
        if self.lambda_s0_nm <= 0 or self.lambda_i0_nm <= 0:
            raise ValueError("phase-matched wavelengths must be positive")

    @property
    def theta_rad(self) -> float:
        """|arctan(tau_i / tau_s)| as an acute angle, the sign of tau_s folded away."""
        th = abs(math.atan2(self.tau_i_ps_per_m, self.tau_s_ps_per_m))
        return min(th, math.pi - th)

    @classmethod
    def for_pump(cls, lambda_pc_nm: float, lambda_s0_nm: float,
                 tau_s_ps_per_m: float, tau_i_ps_per_m: float) -> "PhaseMatchPoint":
        """Build from signal wavelength; idler fixed by energy conservation."""
        inv_i = 2.0 / lambda_pc_nm - 1.0 / lambda_s0_nm
        if inv_i <= 0:
            raise ValueError("energy conservation gives no positive idler wavelength")
        return cls(lambda_s0_nm, 1.0 / inv_i, tau_s_ps_per_m, tau_i_ps_per_m)

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


_LAM_MIN_NM, _LAM_MAX_NM = WAVELENGTH_WINDOW_NM


def solve_phase_match(segment: FiberSegment, pump: PumpSpec) -> PhaseMatchPoint:
    """Nondegenerate phase-matched pair with the signal on the red side.

    Brackets 2k(w_p) - k(w_s) - k(2w_p - w_s) on a 1 nm signal grid over
    [lambda_p + 10, min(lambda_p + 500, 1995)] nm and polishes the root to
    machine precision so the momentum residual at the returned point is far
    below 1e-6 rad/m.
    """
    (pt,) = _phase_match(segment, [pump.center_wavelength_nm])
    if isinstance(pt, PhaseMatchError):
        raise pt
    return pt


def _phase_match(segment: FiberSegment, pumps_nm: list[float]) -> list:
    """solve_phase_match for all the pump wavelengths at once, bit for bit:
    per pump, its PhaseMatchPoint or its PhaseMatchError.  One call of the
    segment's series scans, one per Brent iteration polishes, one gives
    slownesses.
    """
    series, windows, scans = segment.series, [], []
    for lam_p in pumps_nm:
        w_p = TWO_PI_C / (lam_p * 1e-9)  # PumpSpec.omega_pc's expression, so its bits
        lo, hi = lam_p + 10.0, min(lam_p + 500.0, _LAM_MAX_NM - 5.0)
        # Integer-nm coarse grid, independent of the window's fractional part,
        # so neighbouring pumps of a sweep bracket on the same lattice; the
        # idler counterpart of each candidate must stay inside the window.
        lam_grid = np.arange(math.ceil(lo), math.floor(hi) + 1.0, 1.0)
        idler_nm = 1.0 / (2.0 / lam_p - 1.0 / lam_grid)
        keep = (idler_nm > _LAM_MIN_NM + 5.0) & (idler_nm < _LAM_MAX_NM)
        w_grid = TWO_PI_C / (lam_grid[keep] * 1e-9) if keep.sum() >= 2 else np.empty(0)
        windows.append((lo, hi))
        scans += [np.array([w_p]), w_grid, 2.0 * w_p - w_grid]  # in a lone pump's order
    k = np.split(series(np.concatenate([np.empty(0), *scans])),
                 np.cumsum([w.size for w in scans], dtype=int)[:-1])
    out, solve = [None] * len(pumps_nm), []
    for n, (lam_p, (lo, hi)) in enumerate(zip(pumps_nm, windows)):
        w_grid = scans[3 * n + 1]
        vals = 2.0 * k[3 * n] - k[3 * n + 1] - k[3 * n + 2]
        brackets = np.flatnonzero(vals[:-1] * vals[1:] < 0)
        if not w_grid.size:
            out[n] = PhaseMatchError(f"empty search window for pump {lam_p} nm")
        elif not brackets.size:
            out[n] = PhaseMatchError(
                f"no phase matching for {segment.label} (r={segment.core_radius_nm} nm, "
                f"f={segment.air_fill}) with pump {lam_p} nm in signal window "
                f"[{lo:.0f}, {hi:.0f}] nm")
        else:
            if brackets.size > 1:
                warnings.warn(f"{brackets.size} phase-matching roots for {segment.label}; "
                              "returning the one closest to the pump", stacklevel=2)
            # The bracket at largest omega_s = smallest signal wavelength;
            # omega descends along the lambda grid.
            i = brackets[0]
            solve.append((n, w_grid[i + 1], w_grid[i], k[3 * n][0], scans[3 * n][0]))
    at, w_a, w_b, k_p, w_p = np.array(solve, dtype=float).reshape(-1, 5).T

    def mismatch(w_s, k_p, w_p):
        k = series(np.concatenate((w_s, 2.0 * w_p - w_s)))
        return 2.0 * k_p - k[:w_s.size] - k[w_s.size:]

    w_s0 = _brentq(mismatch, w_a, w_b, xtol=1e-3, args=(k_p, w_p))
    slow = np.split(series(np.concatenate((w_p, w_s0, 2.0 * w_p - w_s0)), 1), 3)
    for n, w, slow_p, slow_s, slow_i in zip(at.astype(int), w_s0, *slow):
        out[n] = PhaseMatchPoint.for_pump(pumps_nm[n], TWO_PI_C / float(w) * 1e9,
                                          (slow_p - slow_s) * 1e12, (slow_p - slow_i) * 1e12)
    return out


@dataclass(frozen=True)
class GvmSample:
    """One pump wavelength of a group-velocity-matching sweep; point is None
    where no nondegenerate root exists."""

    lambda_p_nm: float
    point: PhaseMatchPoint | None


def gvm_curve(segment: FiberSegment, pump_range_nm: tuple[float, float],
              n_points: int) -> list[GvmSample]:
    """Phase-matching linearization swept over the pump wavelength: one
    phase-match solve of all the pumps."""
    lo, hi = min(pump_range_nm), max(pump_range_nm)
    pumps_nm = np.linspace(lo, hi, n_points).tolist()
    return [GvmSample(lam_p, None if isinstance(pt, PhaseMatchError) else pt)
            for lam_p, pt in zip(pumps_nm, _phase_match(segment, pumps_nm))]


@dataclass(frozen=True)
class AgvmRoots:
    """Pump wavelengths where one daughter field group-matches the pump."""

    pump_for_tau_i_zero: float | None
    pump_for_tau_s_zero: float | None


def agvm_roots(segment: FiberSegment, sweep: list[GvmSample]) -> AgvmRoots:
    """Root-polished pump wavelengths with tau_i = 0 and tau_s = 0.

    Each root is bracketed by the first sign change of its tau between
    neighbouring samples of ``sweep`` (a ``gvm_curve`` of the same segment),
    then polished with _brentq; a root between two samples whose tau has the
    same sign is missed.
    """
    pumps = [s.lambda_p_nm for s in sweep]
    if len(pumps) < 2:
        raise ValueError(f"agvm_roots needs at least 2 sweep samples, got {len(pumps)}")
    if any(b <= a for a, b in zip(pumps, pumps[1:])):
        raise ValueError("agvm_roots needs sweep pumps in strictly ascending order")

    names = ("tau_i_ps_per_m", "tau_s_ps_per_m")
    roots, polish = [None, None], []
    for c, name in enumerate(names):
        for a, b in zip(sweep, sweep[1:]):
            if a.point is None or b.point is None:
                continue
            va, vb = getattr(a.point, name), getattr(b.point, name)
            if va == 0.0:
                roots[c] = a.lambda_p_nm
                break
            if va * vb < 0:
                polish.append((c, a.lambda_p_nm, b.lambda_p_nm))
                break

    def tau(lam_p, component):
        points = _phase_match(segment, lam_p.tolist())
        for pt in points:
            if isinstance(pt, PhaseMatchError):
                raise pt
        return np.array([getattr(pt, names[int(c)]) for pt, c in zip(points, component)])

    component, a, b = np.array(polish, dtype=float).reshape(-1, 3).T  # both roots at once
    for c, x in zip(component.astype(int), _brentq(tau, a, b, xtol=1e-2, args=(component,))):
        if math.isnan(x):
            raise ValueError(f"the sweep's {names[c]} does not change sign on this fiber")
        roots[c] = float(x)
    return AgvmRoots(pump_for_tau_i_zero=roots[0], pump_for_tau_s_zero=roots[1])
