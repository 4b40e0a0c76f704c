"""Step-index fiber model of a photonic crystal fiber segment.

A PCF segment is reduced to an equivalent step-index fiber: a fused-silica
core of effective radius ``r`` inside a uniform cladding whose index is the
air-fraction-weighted average of silica and air,

    n_cl(lambda, f) = (1 - f) * n_silica(lambda) + f.

The guided fundamental mode is the solution of the exact (full-vector) HE11
characteristic equation.  At the index contrasts of interest here
(n_co - n_cl ~ 0.13) the scalar weakly-guiding LP01 approximation misplaces
the dispersion curve by enough to remove the anomalous-dispersion window
entirely, so the package has no scalar model.

All frequency-domain math is done in SI units (rad/s, m); wavelengths in nm
and group quantities in ps/m, ps^2/m appear only at the interfaces.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import Chebyshev

from ._scipy import extension

# The public scipy.special objects, without its ~0.35 s package import.
_bessel = extension("special", "_special_ufuncs", "scipy.special")
j0, j1, k0, k1 = _bessel.j0, _bessel.j1, _bessel.k0, _bessel.k1

#: Speed of light in vacuum, m/s (exact by SI definition).
C_LIGHT = 299_792_458.0
TWO_PI_C = 2.0 * math.pi * C_LIGHT

# Malitson three-term fit for fused silica, wavelength in um.
_SELLMEIER_B = (0.6961663, 0.4079426, 0.8974794)
_SELLMEIER_C_UM2 = (0.0684043**2, 0.1162414**2, 9.896161**2)

#: Validity window of the silica material model, nm.
WAVELENGTH_WINDOW_NM = (300.0, 2000.0)

_J1_FIRST_ZERO = 3.8317059702075125

#: Degree of the per-fiber Chebyshev series of n_eff(omega); its
#: SERIES_DEGREE + 1 nodes go to the mode solver in one call.
SERIES_DEGREE = 64

#: The series' last _TAIL_TERMS coefficients must stay below this fraction of
#: its largest; the solver's noise plateau sits near 3e-15.
SERIES_TAIL_TOL = 1e-13
_TAIL_TERMS = 8

# Resolution of the guided-mode limit that bounds a small core's series, nm.
_CUTOFF_TOL_NM = 0.01
# Bisection steps of that limit per solver call (2**_BISECT_LEVELS - 1 midpoints).
_BISECT_LEVELS = 4

# Up to _FLOAT_SUM_MAX omegas a series sums Python floats, beating numpy's
# per-call cost; beyond _SUM_BLOCK it sums blocks, keeping temporaries small.
_FLOAT_SUM_MAX, _SUM_BLOCK = 24, 1 << 13

# Residuals evaluated per step of the bracket march (rows x open columns).
_MARCH_CELLS = 1 << 14


class DispersionDomainError(ValueError):
    """Wavelength left the material-model window."""


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

    @cached_property
    def series(self) -> _KSeries:
        """The fiber's k(omega) series, built at first use and kept with the
        fiber; it stays out of ==, hash and repr, and a copy made by
        dataclasses.replace builds its own."""
        return _KSeries(self)


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


def _first_brackets(fun, args, start: float, stop, num: int):
    """Per column, the first sign change of fun(u, *args) on the rows of
    np.linspace(start, stop, num); NaN where there is none.

    The rows are marched in blocks of at most _MARCH_CELLS residuals over the
    columns still open: a small batch takes every row in a step or two, a
    large one a row per step, so memory stays O(columns)."""
    lo, hi = np.full((2, stop.size), np.nan)
    cols = np.arange(stop.size)
    step = (stop - start) / (num - 1)  # row j is j * step + start, as in linspace
    u_prev = np.full(stop.shape, start)
    f_prev = fun(u_prev, *args)
    j = 1
    while j < num and cols.size:
        rows = np.arange(j, min(num, j + max(1, _MARCH_CELLS // cols.size)))
        u = np.concatenate((u_prev[None], rows[:, None] * step + start))
        if rows[-1] == num - 1:
            u[-1] = stop
        f = np.concatenate((f_prev[None], fun(u[1:], *args)))
        s = np.sign(f)
        change = s[:-1] * s[1:] < 0  # False wherever a residual is NaN
        found = change.any(axis=0)
        at, first = np.flatnonzero(found), change.argmax(axis=0)[found]
        lo[cols[at]], hi[cols[at]] = u[first, at], u[first + 1, at]
        keep = ~found
        cols, stop, step = cols[keep], stop[keep], step[keep]
        u_prev, f_prev, args = u[-1, keep], f[-1, keep], tuple(x[keep] for x in args)
        j = rows[-1] + 1
    return lo, hi


_BRENT_RTOL = 4 * float(np.finfo(float).eps)


def _brentq(f, a, b, xtol: float, rtol: float = _BRENT_RTOL, args=(), maxiter: int = 100):
    """Root of f(x, *args) in each bracket [a, b], elementwise, by Brent's
    method (*Algorithms for Minimization without Derivatives*, 1973, ch. 4).

    A port of SciPy's scipy.optimize.brentq run step for step on each open
    element, so each gets brentq's bits; NaN where brentq raises ValueError
    (f(a), f(b) of one sign, or a NaN value).  Needs xtol > 0 and rtol >= 4 eps.
    """
    xa, xb = (np.array(x, dtype=float).ravel() for x in (a, b))
    fa, fb = np.split(f(np.concatenate((xa, xb)), *(np.concatenate((v, v)) for v in args)), 2)
    nan = np.isnan(fa) | np.isnan(fb)
    # An end that is a root is returned as given, a before b.
    root = np.where(nan | (fa != 0) & (fb != 0), np.nan, np.where(fa == 0, xa, xb))
    open_ = np.flatnonzero(~nan & (fa != 0) & (fb != 0) & (np.signbit(fa) != np.signbit(fb)))
    state = np.vstack((xa, xb, fa, fb, np.zeros((4, xa.size))))[:, open_]
    args = tuple(np.asarray(v)[open_] for v in args)
    for _ in range(maxiter):
        if not open_.size:
            return root
        xpre, xcur, fpre, fcur, xblk, fblk, spre, scur = state
        j = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk, spre, scur = np.where(
            j, (xpre, fpre, xcur - xpre, xcur - xpre), (xblk, fblk, spre, scur))
        j = np.abs(fblk) < np.abs(fcur)  # swap so that cur is the better end
        xpre, xcur, xblk, fpre, fcur, fblk = np.where(
            j, (xcur, xblk, xcur, fcur, fblk, fcur), (xpre, xcur, xblk, fpre, fcur, fblk))
        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        root[open_[done]] = xcur[done]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolate = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolate = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolate, extrapolate)
        bound = 3 * np.abs(sbis) - delta
        good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))  # a NaN step bisects
                & (2 * np.abs(stry) < np.where(np.abs(spre) < bound, np.abs(spre), bound)))
        spre, scur = np.where(good, (scur, stry), sbis)
        x = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        state = np.stack((xcur, x, fcur, x, xblk, fblk, spre, scur))[:, ~done]
        open_, args = open_[~done], tuple(v[~done] for v in args)
        if open_.size:
            state[3] = f(state[1], *args)
            ok = ~np.isnan(state[3])  # brentq stops at a NaN value
            state, open_, args = state[:, ok], open_[ok], tuple(v[ok] for v in args)
    if open_.size:
        raise RuntimeError(f"brentq did not converge after {maxiter} iterations")
    return root


def _solve_neff(core_radius_nm, air_fill, wavelength_nm):
    """Effective index of the HE11 mode, elementwise over the core radius, the
    air fill and the wavelength, broadcast together; NaN where the bracket
    scan finds no guided mode.

    Each element is bracketed by the first sign change of the residual on
    129 points of u, then all brackets are polished in one _brentq call to
    4 tiny absolute and 4 eps relative in u.  Every element depends on its own
    inputs only, so a batch gives the same bits as one call per element.  A
    polish stopped by a NaN residual or by the iteration cap raises the
    ModeSolverError of its first element, with that element's last residual.
    """
    r, fill, wl = np.broadcast_arrays(core_radius_nm, air_fill, np.asarray(wavelength_nm, float))
    shape, r, fill, wl = wl.shape, r.ravel(), fill.ravel(), wl.ravel()
    n_co = silica_refractive_index(wl)
    n_cl = (1.0 - fill) * n_co + fill
    a_m = r * 1e-9
    k0_ = 2.0 * math.pi / (wl * 1e-9)
    v = k0_ * a_m * np.sqrt(n_co * n_co - n_cl * n_cl)
    args = (v, (n_cl / n_co) ** 2, 1.0 / (k0_ * n_co * a_m) ** 2)

    u_lo, u_hi = _first_brackets(_he11_residual, args, 1e-3,
                                 np.minimum(v, _J1_FIRST_ZERO) * (1.0 - 1e-12), 129)
    ok = np.flatnonzero(~np.isnan(u_lo))
    f_u, last = np.zeros(ok.size), [None]  # per bracket its latest residual; the latest brackets

    def residual(u, at, *args):
        last[0] = at
        f_u[at] = f = _he11_residual(u, *args)
        return f

    try:
        u = _brentq(residual, u_lo[ok], u_hi[ok], xtol=4 * np.finfo(float).tiny,
                    args=(np.arange(ok.size), *(x[ok] for x in args)))
        failed = np.isnan(u)  # a NaN residual stopped these
    except RuntimeError:  # the iteration cap, with the latest brackets still open
        failed = np.isnan(f_u)
        failed[last[0]] = True
    if failed.any():
        i = np.flatnonzero(failed)[0]
        raise ModeSolverError(f"eigenvalue iteration failed at lambda={float(wl[ok[i]])} nm "
                              f"(last residual {f_u[i]:.3g})", residual=float(f_u[i]))
    n_eff = np.full(wl.size, np.nan)
    n_eff[ok] = np.sqrt((k0_[ok] * n_co[ok]) ** 2 - (u / a_m[ok]) ** 2) / k0_[ok]
    return n_eff.reshape(shape)[()]


def effective_index(segment: FiberSegment, wavelength_nm):
    """Fundamental-mode effective index, elementwise; n_cl < n_eff < n_co.
    Raises the ModeCutoffError of the first element without a mode."""
    r, f = segment.core_radius_nm, segment.air_fill
    n_eff = _solve_neff(r, f, wavelength_nm)
    miss = np.isnan(n_eff)
    if np.any(miss):
        wl = float(np.broadcast_to(wavelength_nm, np.shape(miss))[miss][0])
        n_co = silica_refractive_index(wl)
        n_cl = (1.0 - f) * n_co + f
        v = 2.0 * math.pi / (wl * 1e-9) * (r * 1e-9) * math.sqrt(n_co**2 - n_cl**2)
        raise ModeCutoffError(f"no guided fundamental mode for r={r} nm, "
                              f"f={f}, lambda={wl} nm (V={v:.3f})")
    return n_eff


def propagation_constant(segment: FiberSegment, wavelength_nm):
    """Propagation constant k = n_eff * 2*pi/lambda in rad/m, elementwise."""
    n = effective_index(segment, wavelength_nm)
    return n * 2.0 * math.pi / (np.asarray(wavelength_nm, dtype=float) * 1e-9)


def _omega(wavelength_nm):
    return TWO_PI_C / (np.asarray(wavelength_nm, dtype=float) * 1e-9)


def _guided_limit_nm(core_radius_nm: float, air_fill: float):
    """Longest window wavelength, to _CUTOFF_TOL_NM, at which the solver finds
    the mode (V falls with wavelength); None if it finds none at 300 nm."""
    lo, hi = WAVELENGTH_WINDOW_NM
    first = [lo]  # the first call also checks 300 nm
    while hi - lo > _CUTOFF_TOL_NM:
        spans, level = [], [(lo, hi)]
        for _ in range(_BISECT_LEVELS):  # every span the next steps may bisect; level d has 2**d
            spans += level
            level = [s for a, b in level for s in ((a, 0.5 * (a + b)), (0.5 * (a + b), b))]
        wl = first + [0.5 * (a + b) for a, b in spans]
        guided = ~np.isnan(_solve_neff(core_radius_nm, air_fill, wl))
        if first and not guided[0]:
            return None
        guided, first, node = guided[len(first):], [], 0
        for d in range(_BISECT_LEVELS):  # the path, one step a level
            if hi - lo > _CUTOFF_TOL_NM:
                mid, up = 0.5 * (lo + hi), guided[2**d - 1 + node]
                lo, hi, node = (mid, hi, 2 * node + 1) if up else (lo, mid, 2 * node)
    return lo


def _lobatto_nm(lam_max_nm: float):
    """The SERIES_DEGREE + 1 Chebyshev-Lobatto points of omega between
    omega(lam_max_nm) and omega(300 nm), as wavelengths in nm."""
    lo = WAVELENGTH_WINDOW_NM[0]
    w_lo, w_hi = _omega(lam_max_nm), _omega(lo)
    x = np.cos(np.pi * np.arange(SERIES_DEGREE + 1) / SERIES_DEGREE)
    wl = TWO_PI_C / (0.5 * (w_hi + w_lo + (w_hi - w_lo) * x)) * 1e9
    # The end nodes are clipped onto the bounds they round-trip to.
    return np.clip(wl, lo, lam_max_nm)


def _clenshaw(c, x):
    """sum_j c[j] T_j(x) by Clenshaw's recurrence (Math. Tables Aids Comput.
    9:118, 1955), one operation at a time as numpy's chebval runs it, so a
    Python float and an ndarray x give the same bits; needs len(c) >= 2."""
    x2 = 2 * x
    c0, c1 = c[-2], c[-1]
    for cj in c[-3::-1]:
        c0, c1 = cj - c1, c0 + c1 * x2
    return c0 + c1 * x


class _KSeries:
    """k(omega) = n_eff(omega) omega / c of one fiber as a Chebyshev series in
    omega; called with omega (rad/s) and a derivative order (0, 1 or 2), it
    returns that derivative in SI units.

    The domain depends on the fiber only: the whole window when the solver
    finds the mode at the 2000 nm nodes, else 300 nm up to the guided-mode
    limit.
    Evaluation is _clenshaw on Python floats for a scalar or a short array
    and on ndarrays for a longer one: the same IEEE operations, so a batch
    gives the same bits as scalar calls, and both the bits of numpy's
    Chebyshev.__call__.
    """

    def __init__(self, segment: FiberSegment):
        r, f = segment.core_radius_nm, segment.air_fill
        self._fiber = f"r={r} nm, f={f}"
        self.lam_max_nm = WAVELENGTH_WINDOW_NM[1]
        n_eff = _solve_neff(r, f, _lobatto_nm(self.lam_max_nm))
        if np.isnan(n_eff).any():
            self.lam_max_nm = _guided_limit_nm(r, f)
            if self.lam_max_nm is None:
                self._domain = (math.nan, math.nan)  # refuses every request
                return
            n_eff = effective_index(segment, _lobatto_nm(self.lam_max_nm))
        self._domain = (float(_omega(self.lam_max_nm)), float(_omega(WAVELENGTH_WINDOW_NM[0])))
        # Interpolation coefficients from the node values (a DCT-I).
        j = np.arange(SERIES_DEGREE + 1)
        half = np.where((j == 0) | (j == SERIES_DEGREE), 0.5, 1.0)
        coef = (2.0 / SERIES_DEGREE) * half * (
            np.cos(np.pi * np.outer(j, j) / SERIES_DEGREE) @ (half * n_eff))
        tail = np.abs(coef[-_TAIL_TERMS:]).max() / np.abs(coef).max()
        if not tail <= SERIES_TAIL_TOL:
            raise ModeSolverError(f"n_eff series unresolved for {self._fiber}: its last "
                                  f"{_TAIL_TERMS} Chebyshev coefficients reach {tail:.1e} of"
                                  f" the largest (limit {SERIES_TAIL_TOL:.0e})", float(tail))
        k = Chebyshev(coef, self._domain) * Chebyshev.identity(self._domain) / C_LIGHT
        # Per order, the map of omega onto [-1, 1] and the coefficients.
        self._terms = tuple((*map(float, d.mapparms()), tuple(d.coef.tolist()))
                            for d in (k, k.deriv(), k.deriv(2)))

    def __call__(self, omega, order: int = 0):
        lo, hi = self._domain
        omega = np.asarray(omega, dtype=float)
        out = ~((omega >= lo) & (omega <= hi))
        if out.any():
            lam = np.round(TWO_PI_C / omega[out] * 1e9, 9)  # the request, to 1e-9 nm
            silica_refractive_index(lam)  # DispersionDomainError outside the window
            limit = ("none in the window" if self.lam_max_nm is None
                     else f"guided up to {self.lam_max_nm:.2f} nm")
            raise ModeCutoffError(f"no guided fundamental mode for {self._fiber}, "
                                  f"lambda={float(lam[0])} nm ({limit})")
        off, scl, c = self._terms[order]
        if omega.size > _SUM_BLOCK:
            blocks = np.array_split(omega.ravel(), -(-omega.size // _SUM_BLOCK))
            return np.concatenate([self(w, order) for w in blocks]).reshape(omega.shape)
        if omega.size <= _FLOAT_SUM_MAX:
            return np.array([_clenshaw(c, off + scl * w) for w in omega.ravel().tolist()],
                            dtype=float).reshape(omega.shape)[()]
        return _clenshaw(c, off + scl * omega)


def group_slowness(segment: FiberSegment, wavelength_nm):
    """Reciprocal group velocity dk/domega in s/m, elementwise."""
    return segment.series(_omega(wavelength_nm), 1)


def gvd(segment: FiberSegment, wavelength_nm):
    """Group-velocity dispersion beta2 = d^2k/domega^2 in ps^2/m, elementwise."""
    return segment.series(_omega(wavelength_nm), 2) * 1e24


def find_zdw(segment: FiberSegment,
             search_range_nm: tuple[float, float] = (900.0, 1250.0)) -> list[float]:
    """All zero-dispersion wavelengths in the range, ascending: the real roots
    of the beta2 series, from its colleague matrix."""
    lo, hi = min(search_range_nm), max(search_range_nm)
    series = segment.series
    series(_omega((lo, hi)))  # the range must be guided
    roots = Chebyshev(series._terms[2][2], series._domain).roots()  # the beta2 series'
    omega = roots.real[(roots.imag == 0) & (roots.real > 0)]
    lam = np.sort(TWO_PI_C / omega * 1e9)
    return [float(x) for x in lam[(lam >= lo) & (lam <= hi)]]


@dataclass(frozen=True)
class StructureFit:
    core_radius_nm: float
    air_fill: float
    residual: float  # final sum of squared beta2 misfits, (ps^2/m)^2


_FIT_BOUNDS = ((700.0, 0.10), (1300.0, 0.60))
_FIT_MAX_NFEV = 400


def fit_structure(samples: list[GvdSample], initial_guess: tuple[float, float]) -> StructureFit:
    """Least-squares fit of (core radius, air fill) to tabulated GVD samples.

    Requires at least 6 samples whose beta2 values change sign (the data must
    span a zero-dispersion wavelength); deterministic for fixed inputs.
    """
    # The one scipy.optimize user: importing it costs a CLI call ~0.25 s.
    from scipy.optimize import least_squares

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
        return FiberSegment("fit", r, f, 1.0).series(omegas, 2) * 1e24 - b2

    # Relative step of the forward-difference Jacobian.  The beta2 series is
    # smooth to ~1e-11 ps^2/m, so steps from 1e-3 down to 1e-7 reach the same
    # fit; these take the fewest evaluations (7 on configs/gvd_samples.csv).
    res = least_squares(
        residuals, x0=np.array([r0, f0]),
        bounds=([r_lo, f_lo], [r_hi, f_hi]),
        x_scale=(100.0, 0.05), diff_step=(1e-3, 2e-3),
        xtol=1e-12, ftol=1e-14, gtol=1e-14,
        max_nfev=_FIT_MAX_NFEV,
    )
    final = float(np.sum(res.fun**2))
    if not res.success:
        raise StructureFitError(
            f"structure fit did not converge: {res.message}",
            best_params=(float(res.x[0]), float(res.x[1])), best_residual=final,
        )
    return StructureFit(float(res.x[0]), float(res.x[1]), final)


def dispersion_table(segment: FiberSegment, wavelengths_nm) -> dict:
    """Column dict for the dispersion CSV export; every column comes from the
    fiber's k(omega) series, with n_eff = k c / omega."""
    wl, omega = np.asarray(wavelengths_nm, dtype=float), _omega(wavelengths_nm)
    n = segment.series(omega) * C_LIGHT / omega
    return {
        "wavelength_nm": wl,
        "n_eff": n,
        "k_rad_per_m": n * 2.0 * math.pi / (wl * 1e-9),
        "k1_ps_per_m": segment.series(omega, 1) * 1e12,
        "beta2_ps2_per_m": segment.series(omega, 2) * 1e24,
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
