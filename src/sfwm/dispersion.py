"""Step-index fiber model of a photonic crystal fiber segment.

A PCF segment is reduced to an equivalent step-index fiber: a fused-silica
core of effective radius ``r`` inside a uniform cladding whose index is the
air-fraction-weighted average of silica and air,

    n_cl(lambda, f) = (1 - f) * n_silica(lambda) + f.

The guided fundamental mode is solved from the exact (full-vector) HE11
characteristic equation by default; the scalar weakly-guiding LP01 equation
is available for comparison via ``mode_model="lp01"``.  At the index
contrasts of interest here (n_co - n_cl ~ 0.13) the scalar approximation
misplaces the dispersion curve by enough to remove the anomalous-dispersion
window entirely, so it is not the default.

All frequency-domain math is done in SI units (rad/s, m); wavelengths in nm
and group quantities in ps/m, ps^2/m appear only at the interfaces.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.constants import c as C_LIGHT
from scipy.optimize import brentq, least_squares
from scipy.optimize.elementwise import find_root
from scipy.special import j0, j1, k0, k1

TWO_PI_C = 2.0 * math.pi * C_LIGHT

# Malitson three-term fit for fused silica, wavelength in um.
_SELLMEIER_B = (0.6961663, 0.4079426, 0.8974794)
_SELLMEIER_C_UM2 = (0.0684043**2, 0.1162414**2, 9.896161**2)

#: Validity window of the silica material model, nm.
WAVELENGTH_WINDOW_NM = (300.0, 2000.0)

_J0_FIRST_ZERO = 2.404825557695773
_J1_FIRST_ZERO = 3.8317059702075125

#: Relative step used for frequency-derivative stencils.
DERIV_REL_STEP = 1e-4


class DispersionDomainError(ValueError):
    """Wavelength (or a stencil point) left the material-model window."""


class ModeCutoffError(RuntimeError):
    """No guided fundamental mode was found."""


class ModeSolverError(RuntimeError):
    """Eigenvalue iteration failed; carries the last residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class StructureFitError(RuntimeError):
    """Structure fit did not converge; carries the best point seen."""

    def __init__(self, message: str, best_params: tuple[float, float], best_residual: float):
        super().__init__(message)
        self.best_params = best_params
        self.best_residual = best_residual


@dataclass(frozen=True)
class FiberSegment:
    """One homogeneous piece of PCF described by effective structure parameters."""

    label: str
    core_radius_nm: float
    air_fill: float
    length_m: float

    def __post_init__(self):
        if self.core_radius_nm <= 0:
            raise ValueError(f"core_radius_nm must be > 0, got {self.core_radius_nm}")
        if not 0.0 < self.air_fill < 1.0:
            raise ValueError(f"air_fill must be in (0, 1), got {self.air_fill}")
        if self.length_m <= 0:
            raise ValueError(f"length_m must be > 0, got {self.length_m}")


@dataclass(frozen=True)
class DispersionCurve:
    """Tabulated propagation constant k(lambda), either modelled or measured."""

    wavelength_nm: tuple[float, ...]
    k_rad_per_m: tuple[float, ...]
    provenance: str

    def __post_init__(self):
        wl = np.asarray(self.wavelength_nm, dtype=float)
        kk = np.asarray(self.k_rad_per_m, dtype=float)
        if wl.size != kk.size:
            raise ValueError("wavelength and k arrays must have the same length")
        if wl.size < 2 or np.any(np.diff(wl) <= 0):
            raise ValueError("wavelength samples must be strictly ascending")
        if np.any(kk <= 0):
            raise ValueError("k samples must be strictly positive")


@dataclass(frozen=True)
class GvdSample:
    """One measured group-velocity-dispersion point (fit input only)."""

    wavelength_nm: float
    beta2_ps2_per_m: float

    def __post_init__(self):
        if not (math.isfinite(self.wavelength_nm) and math.isfinite(self.beta2_ps2_per_m)):
            raise ValueError("GvdSample values must be finite")


def silica_refractive_index(wavelength_nm):
    """Refractive index of fused silica from the three-term Sellmeier fit.

    Accepts a scalar or array wavelength in nm; valid over
    ``WAVELENGTH_WINDOW_NM``.
    """
    wl = np.asarray(wavelength_nm, dtype=float)
    lo, hi = WAVELENGTH_WINDOW_NM
    if np.any(wl < lo) or np.any(wl > hi):
        bad = wl[(wl < lo) | (wl > hi)]
        raise DispersionDomainError(
            f"wavelength {np.atleast_1d(bad)[0]:.3f} nm outside material-model window "
            f"[{lo:.0f}, {hi:.0f}] nm"
        )
    x2 = (wl * 1e-3) ** 2  # um^2
    s = np.zeros_like(x2)
    for b, c2 in zip(_SELLMEIER_B, _SELLMEIER_C_UM2):
        s = s + b * x2 / (x2 - c2)
    n = np.sqrt(1.0 + s)
    return float(n) if np.isscalar(wavelength_nm) else n


def cladding_index(wavelength_nm, air_fill: float):
    """Effective cladding index: air-fraction-weighted average of silica and air."""
    if not 0.0 < air_fill < 1.0:
        raise ValueError(f"air_fill must be in (0, 1), got {air_fill}")
    return (1.0 - air_fill) * silica_refractive_index(wavelength_nm) + air_fill


def _he11_residual(u, v, nrat2, inv_kna2):
    """Vector HE11 characteristic residual, elementwise."""
    w = np.sqrt(v * v - u * u)
    j1u, k1w = j1(u), k1(w)
    a = (j0(u) - j1u / u) / (u * j1u)
    b = -(k0(w) + k1w / w) / (w * k1w)
    return (a + b) * (a + nrat2 * b) - (1.0 - u * u * inv_kna2) * ((v / (u * w)) ** 2) ** 2


def _lp01_residual(u, v):
    """Scalar LP01 characteristic residual, elementwise."""
    w = np.sqrt(v * v - u * u)
    return u * j1(u) / j0(u) - w * k1(w) / k0(w)


def _first_brackets(fun, args, start: float, stop, num: int):
    """Per column, the first sign change of fun(u, *args) on the rows of
    np.linspace(start, stop, num), marched one row at a time over the columns
    still open so memory stays O(columns); NaN where there is none."""
    lo, hi = np.full((2, stop.size), np.nan)
    cols = np.arange(stop.size)
    step = (stop - start) / (num - 1)  # row j is j * step + start, as in linspace
    u_prev = np.full(stop.shape, start)
    f_prev = fun(u_prev, *args)
    for j in range(1, num):
        u = stop if j == num - 1 else j * step + start
        f = fun(u, *args)
        found = np.sign(f_prev) * np.sign(f) < 0  # False wherever a residual is NaN
        lo[cols[found]], hi[cols[found]] = u_prev[found], u[found]
        keep = ~found
        if not keep.any():
            break
        cols, stop, step, u_prev, f_prev = cols[keep], stop[keep], step[keep], u[keep], f[keep]
        args = tuple(x[keep] for x in args)
    return lo, hi


def _solve_neff(core_radius_nm: float, air_fill: float, wavelength_nm,
                mode_model: str):
    """Effective index of the fundamental mode, elementwise over wavelength_nm.

    Each wavelength is bracketed by the first sign change of the residual on
    129 points of u (2049 from near zero for the misses), then all brackets
    are polished in one vectorized Chandrupatla solve.  Every element depends
    on its own wavelength only, so a batch gives the same bits as scalar calls.
    """
    wl_in = np.asarray(wavelength_nm, dtype=float)
    wl = wl_in.ravel()
    n_co = silica_refractive_index(wl)
    n_cl = (1.0 - air_fill) * n_co + air_fill
    a_m = core_radius_nm * 1e-9
    k0_ = 2.0 * math.pi / (wl * 1e-9)
    v = k0_ * a_m * np.sqrt(n_co * n_co - n_cl * n_cl)

    if mode_model == "he11":
        fun, args = _he11_residual, (v, (n_cl / n_co) ** 2, 1.0 / (k0_ * n_co * a_m) ** 2)
        hi = np.minimum(v, _J1_FIRST_ZERO) * (1.0 - 1e-12)
    elif mode_model == "lp01":
        fun, args = _lp01_residual, (v,)
        hi = np.minimum(v, _J0_FIRST_ZERO) * (1.0 - 1e-12)
    else:
        raise ValueError(f"unknown mode_model {mode_model!r}")

    u_lo, u_hi = _first_brackets(fun, args, 1e-3, hi, 129)
    miss = np.isnan(u_lo)
    if miss.any():
        u_lo[miss], u_hi[miss] = _first_brackets(
            fun, tuple(x[miss] for x in args), 1e-6, hi[miss], 2049)
        miss = np.isnan(u_lo)
    if miss.any():
        i = np.flatnonzero(miss)[0]
        raise ModeCutoffError(
            f"no guided fundamental mode for r={core_radius_nm} nm, f={air_fill}, "
            f"lambda={float(wl[i])} nm (V={v[i]:.3f})"
        )
    res = find_root(fun, (u_lo, u_hi), args=args)
    if not res.success.all():
        i = np.flatnonzero(~res.success)[0]
        raise ModeSolverError(f"eigenvalue iteration failed at lambda={float(wl[i])} nm "
                              f"(status {int(res.status[i])})", residual=float(res.f_x[i]))
    beta = np.sqrt((k0_ * n_co) ** 2 - (res.x / a_m) ** 2)
    return (beta / k0_).reshape(wl_in.shape)[()]


def effective_index(segment: FiberSegment, wavelength_nm, mode_model: str = "he11"):
    """Fundamental-mode effective index, elementwise; n_cl < n_eff < n_co."""
    return _solve_neff(segment.core_radius_nm, segment.air_fill, wavelength_nm, mode_model)


def propagation_constant(segment: FiberSegment, wavelength_nm, mode_model: str = "he11"):
    """Propagation constant k = n_eff * 2*pi/lambda in rad/m, elementwise."""
    n = effective_index(segment, wavelength_nm, mode_model)
    return n * 2.0 * math.pi / (np.asarray(wavelength_nm, dtype=float) * 1e-9)


def _k_of_omega(core_radius_nm: float, air_fill: float, omega, mode_model: str):
    """k(omega) in rad/m, elementwise over omega (rad/s)."""
    n = _solve_neff(core_radius_nm, air_fill, TWO_PI_C / omega * 1e9, mode_model)
    return n * omega / C_LIGHT


def _slowness_rf(core_radius_nm, air_fill, omega, mode_model):
    # Richardson-extrapolated central difference; h/2 refinement built in.
    # The four stencil points of every omega go to the solver in one call.
    h = DERIV_REL_STEP * omega
    kp, km, kp2, km2 = _k_of_omega(
        core_radius_nm, air_fill,
        np.stack((omega + h, omega - h, omega + h / 2, omega - h / 2)), mode_model)
    d1 = (kp - km) / (2 * h)
    d2 = (kp2 - km2) / h
    return (4 * d2 - d1) / 3


def _gvd_rf(core_radius_nm, air_fill, omega, mode_model):
    h = DERIV_REL_STEP * omega
    kc, kp, km, kp2, km2 = _k_of_omega(
        core_radius_nm, air_fill,
        np.stack((omega, omega + h, omega - h, omega + h / 2, omega - h / 2)), mode_model)
    d1 = (kp - 2 * kc + km) / (h * h)
    d2 = (kp2 - 2 * kc + km2) / (h * h / 4)
    return (4 * d2 - d1) / 3  # s^2/m


def _omega(wavelength_nm):
    return TWO_PI_C / (np.asarray(wavelength_nm, dtype=float) * 1e-9)


def group_slowness(segment: FiberSegment, wavelength_nm, mode_model: str = "he11"):
    """Reciprocal group velocity dk/domega in s/m, elementwise."""
    return _slowness_rf(segment.core_radius_nm, segment.air_fill,
                        _omega(wavelength_nm), mode_model)


def gvd(segment: FiberSegment, wavelength_nm, mode_model: str = "he11"):
    """Group-velocity dispersion beta2 = d^2k/domega^2 in ps^2/m, elementwise."""
    return _gvd_rf(segment.core_radius_nm, segment.air_fill,
                   _omega(wavelength_nm), mode_model) * 1e24


def find_zdw(segment: FiberSegment, search_range_nm: tuple[float, float] = (900.0, 1250.0),
             mode_model: str = "he11", scan_step_nm: float = 1.0) -> list[float]:
    """All zero-dispersion wavelengths in the range, ascending, polished to 0.01 nm."""
    lo, hi = min(search_range_nm), max(search_range_nm)
    grid = np.arange(lo, hi + 0.5 * scan_step_nm, scan_step_nm)
    grid[-1] = min(grid[-1], hi)
    f = lambda lam: gvd(segment, lam, mode_model)
    vals = f(grid)
    roots: list[float] = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(float(grid[i]))
        elif vals[i] * vals[i + 1] < 0:
            roots.append(float(brentq(f, grid[i], grid[i + 1], xtol=1e-3)))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    return sorted(roots)


@dataclass(frozen=True)
class StructureFit:
    core_radius_nm: float
    air_fill: float
    residual: float  # final sum of squared beta2 misfits, (ps^2/m)^2


_FIT_BOUNDS = ((700.0, 0.10), (1300.0, 0.60))


def fit_structure(samples: list[GvdSample], initial_guess: tuple[float, float],
                  mode_model: str = "he11", max_nfev: int = 400) -> StructureFit:
    """Least-squares fit of (core radius, air fill) to tabulated GVD samples.

    Requires at least 6 samples whose beta2 values change sign (the data must
    span a zero-dispersion wavelength); deterministic for fixed inputs.
    """
    if len(samples) < 6:
        raise ValueError(f"need at least 6 GVD samples, got {len(samples)}")
    b2 = np.array([s.beta2_ps2_per_m for s in samples])
    if b2.min() >= 0 or b2.max() <= 0:
        raise ValueError("GVD samples must span a zero-dispersion wavelength (sign change)")
    r0, f0 = initial_guess
    (r_lo, f_lo), (r_hi, f_hi) = _FIT_BOUNDS
    if not (r_lo < r0 < r_hi and f_lo < f0 < f_hi):
        raise ValueError(f"initial guess {initial_guess} outside fit bounds {_FIT_BOUNDS}")
    omegas = _omega([s.wavelength_nm for s in samples])

    def residuals(x):
        r, f = x
        return _gvd_rf(r, f, omegas, mode_model) * 1e24 - b2

    # diff_step must clear the mode-solver noise floor (~3e-7 ps^2/m) or the
    # Jacobian is garbage and the fit stalls at the initial guess.
    res = least_squares(
        residuals, x0=np.array([r0, f0]),
        bounds=([r_lo, f_lo], [r_hi, f_hi]),
        x_scale=(100.0, 0.05), diff_step=(1e-3, 2e-3),
        xtol=1e-12, ftol=1e-14, gtol=1e-14,
        max_nfev=max_nfev,
    )
    final = float(np.sum(res.fun**2))
    if not res.success:
        raise StructureFitError(
            f"structure fit did not converge: {res.message}",
            best_params=(float(res.x[0]), float(res.x[1])), best_residual=final,
        )
    return StructureFit(float(res.x[0]), float(res.x[1]), final)


def model_curve(segment: FiberSegment, wavelengths_nm, mode_model: str = "he11") -> DispersionCurve:
    """DispersionCurve sampled from the mode solver."""
    wl = np.asarray(wavelengths_nm, dtype=float)
    ks = propagation_constant(segment, wl, mode_model)
    return DispersionCurve(tuple(wl.tolist()), tuple(ks.tolist()),
                           provenance=f"model({segment.label})")


def dispersion_table(segment: FiberSegment, wavelengths_nm, mode_model: str = "he11") -> dict:
    """Column dict for the dispersion CSV export."""
    wl = np.asarray(wavelengths_nm, dtype=float)
    n_eff = effective_index(segment, wl, mode_model)
    k = n_eff * 2.0 * math.pi / (wl * 1e-9)
    k1_ = group_slowness(segment, wl, mode_model) * 1e12
    b2 = gvd(segment, wl, mode_model)
    return {
        "wavelength_nm": wl,
        "n_eff": n_eff,
        "k_rad_per_m": k,
        "k1_ps_per_m": k1_,
        "beta2_ps2_per_m": b2,
    }


def read_gvd_csv(path) -> list[GvdSample]:
    """Read GVD samples from a `wavelength_nm,beta2_ps2_per_m` CSV."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header] != ["wavelength_nm", "beta2_ps2_per_m"]:
            raise ValueError(
                f"unexpected GVD CSV header {header!r}; "
                "expected wavelength_nm,beta2_ps2_per_m"
            )
        return [GvdSample(float(row[0]), float(row[1])) for row in reader if row]
