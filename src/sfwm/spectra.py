"""Pump envelope, phase-matching functions, and joint spectral amplitude.

The two-photon amplitude factorizes into a Gaussian pump envelope and the
phase-matching function phi: f(w_s, w_i) = alpha(w_s + w_i) * phi(w_s, w_i).
For a uniform fiber phi is the familiar L*sinc(dk*L/2)*exp(i*dk*L/2); for a
spliced assembly the segments' contributions add coherently, each carrying
the phase accumulated in the segments before it:

    phi = sum_n L_n sinc(dk_n L_n / 2) exp(i dk_n L_n / 2)
                 * exp(i sum_{l<n} dk_l L_l).

Two mismatch models are provided: "linearized" (per-segment walk-off
expansion around the phase-matched pair, the default) and "full" (mismatch
re-evaluated from the dispersion curves at every grid point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scipy import park_openblas
from .dispersion import TWO_PI_C, FiberSegment
from .phasematch import PhaseMatchPoint, PumpSpec, gaussian_sigma_omega

#: Default half-width of the signal window, in sinc lobes per segment.
DEFAULT_LOBES = 10.0
#: Default idler padding in pump-bandwidth units.
DEFAULT_PAD_SIGMAS = 4.0
#: Largest tolerated accumulated-phase change between adjacent grid samples.
MAX_EDGE_PHASE_STEP = math.pi / 8
#: Cells per JSA fill block, so that a block's temporaries stay in a core's
#: cache; every cell's value is the same whatever block holds it.
FILL_BLOCK_CELLS = 1 << 14
#: Cells per row block of a streamed amplitude: 256 signal rows at 512 idler
#: columns, a whole number of the fill's FILL_BLOCK_CELLS steps.
STREAM_BLOCK_CELLS = 1 << 17


class GridResolutionError(ValueError):
    """Grid too coarse to resolve the phase-matching oscillations."""

    def __init__(self, message: str, required_ns: int, required_ni: int):
        super().__init__(message)
        self.required_ns = required_ns
        self.required_ni = required_ni


class ZeroJsaError(ValueError):
    """The amplitude vanishes identically; correlations are undefined."""


@dataclass(frozen=True)
class AssemblySegment:
    """One spliced piece: its length, its mismatch linearization, and (for the
    full mismatch model) the structural fiber description."""

    length_m: float
    point: PhaseMatchPoint
    fiber: FiberSegment | None = None

    def __post_init__(self):
        if self.length_m <= 0:
            raise ValueError("segment length must be > 0")


@dataclass(frozen=True)
class AssemblySpec:
    """Ordered splice of homogeneous segments; order is physical order."""

    segments: tuple[AssemblySegment, ...]
    model_mode: str = "linearized"

    def __post_init__(self):
        if len(self.segments) < 1:
            raise ValueError("assembly needs at least one segment")
        if self.model_mode not in ("linearized", "full"):
            raise ValueError(f"unknown model_mode {self.model_mode!r}")
        pumps = [s.point.pump_wavelength_nm for s in self.segments]
        if self.model_mode == "linearized":
            ref = pumps[0]
            for p in pumps[1:]:
                if abs(p - ref) > 1e-9 * ref:
                    raise ValueError(
                        "linearized assembly segments must share one pump wavelength; "
                        f"got {ref} and {p} nm"
                    )
        if self.model_mode == "full" and any(s.fiber is None for s in self.segments):
            raise ValueError("full mismatch model needs structural fiber data per segment")

    @property
    def total_length_m(self) -> float:
        """Exactly rounded sum, so a splice and its mirror image agree."""
        return math.fsum(s.length_m for s in self.segments)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform rectangular grid over signal x idler angular frequencies."""

    signal: np.ndarray  # rad/s, ascending, uniform
    idler: np.ndarray

    def __post_init__(self):
        for name, ax in (("signal", self.signal), ("idler", self.idler)):
            ax = np.asarray(ax, dtype=float)
            if ax.ndim != 1 or ax.size < 2:
                raise ValueError(f"{name} axis needs at least 2 points")
            d = np.diff(ax)
            if np.any(d <= 0):
                raise ValueError(f"{name} axis must be strictly ascending")
            if not np.allclose(d, d[0], rtol=1e-9, atol=0.0):
                raise ValueError(f"{name} axis must be uniformly spaced")
            object.__setattr__(self, name, ax)

    @property
    def signal_step(self) -> float:
        return float(self.signal[1] - self.signal[0])

    @property
    def idler_step(self) -> float:
        return float(self.idler[1] - self.idler[0])

    def trapezoid_weights(self) -> tuple[np.ndarray, np.ndarray]:
        ws = np.full(self.signal.size, self.signal_step)
        ws[0] = ws[-1] = self.signal_step / 2
        wi = np.full(self.idler.size, self.idler_step)
        wi[0] = wi[-1] = self.idler_step / 2
        return ws, wi

    def signal_wavelength_nm(self) -> np.ndarray:
        return TWO_PI_C / self.signal * 1e9

    def idler_wavelength_nm(self) -> np.ndarray:
        return TWO_PI_C / self.idler * 1e9


@dataclass(frozen=True)
class Spectrum1D:
    """Non-negative intensity samples over an ascending tagged axis."""

    axis: np.ndarray
    values: np.ndarray
    axis_kind: str  # "wavelength_nm" | "angular_frequency"

    def __post_init__(self):
        ax = np.asarray(self.axis, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if ax.shape != vals.shape or ax.ndim != 1:
            raise ValueError("axis and values must be 1-D and the same length")
        if np.any(np.diff(ax) <= 0):
            raise ValueError("axis must be strictly ascending")
        if np.any(vals < 0) or not np.all(np.isfinite(vals)):
            raise ValueError("intensities must be finite and non-negative")
        if self.axis_kind not in ("wavelength_nm", "angular_frequency"):
            raise ValueError(f"unknown axis_kind {self.axis_kind!r}")
        object.__setattr__(self, "axis", ax)
        object.__setattr__(self, "values", vals)

    def to_wavelength(self) -> "Spectrum1D":
        if self.axis_kind == "wavelength_nm":
            return self
        lam = TWO_PI_C / self.axis * 1e9
        return Spectrum1D(lam[::-1], self.values[::-1], "wavelength_nm")


@dataclass(frozen=True)
class FilterSpec:
    """Gaussian band-pass filter described by its center and intensity FWHM."""

    center_nm: float
    fwhm_nm: float

    def __post_init__(self):
        if self.center_nm <= 0 or self.fwhm_nm <= 0:
            raise ValueError("filter center and fwhm must be positive")

    @property
    def sigma_omega(self) -> float:
        """Width sigma_s of the transmission exp(-(w - w')^2 / sigma_s^2).

        The transmission is an intensity profile, so its FWHM obeys the same
        2*sigma*sqrt(ln 2) relation as the pump's intensity envelope.
        """
        return gaussian_sigma_omega(self.center_nm, self.fwhm_nm)


#: The pump envelope reads 0 below this value.  |phi| <= L, so on any fiber
#: shorter than 2^22 m such a cell has |f|^2 < 2^-1076, which rounds to 0
#: anyway.  The flush keeps the envelope's subnormal tail (5e-324 at a 2 nm
#: pump's grid corners) out of the Gram's zherk, which runs 3-4x slower on it.
ENVELOPE_FLOOR = 2.0 ** -560


def pump_envelope(pump: PumpSpec, omega_s, omega_i):
    """Gaussian pump envelope exp(-(w_s + w_i - 2 w_pc)^2 / (4 sigma_p^2)),
    flushed to 0 below ENVELOPE_FLOOR."""
    det = np.asarray(omega_s) + np.asarray(omega_i) - 2.0 * pump.omega_pc
    x = np.asarray(-(det**2) / (4.0 * pump.sigma_omega**2))
    # Clamped first: exp runs 10-100x slower where it is subnormal or 0, all flushed.
    env = np.exp(np.maximum(x, math.log(ENVELOPE_FLOOR) - 1, out=x), out=x)
    return np.where(env < ENVELOPE_FLOOR, 0.0, env)[()]


def delta_k(point: PhaseMatchPoint, omega_s, omega_i):
    """Linearized mismatch tau_s*(w_s - w_s0) + tau_i*(w_i - w_i0), rad/m."""
    return point.tau_s_si * (np.asarray(omega_s) - point.omega_s0) \
        + point.tau_i_si * (np.asarray(omega_i) - point.omega_i0)


def delta_k_full(fiber: FiberSegment, omega_s, omega_i):
    """Mismatch 2k(w_p) - k(w_s) - k(w_i) with w_p = (w_s + w_i)/2, rad/m.

    k is evaluated from the fiber's own Chebyshev series (fiber.series, built
    once per fiber object), whose domain depends on the fiber only;
    frequencies outside the material window raise its domain error, and those
    beyond the guided-mode limit a ModeCutoffError.
    """
    ws = np.asarray(omega_s, dtype=float)
    wi = np.asarray(omega_i, dtype=float)
    k = fiber.series
    return 2.0 * k(0.5 * (ws + wi)) - k(ws) - k(wi)


def phi_homogeneous(length_m: float, dk):
    """Closed-form phase-matching function of a uniform fiber."""
    if length_m <= 0:
        raise ValueError("length must be > 0")
    x = np.asarray(dk) * length_m / 2.0
    return length_m * np.sinc(x / np.pi) * np.exp(1j * x)


def _full_sum(assembly: AssemblySpec, omega_s, omega_i):
    """sum_n L_n sinc(dk_n L_n / 2) exp(i dk_n L_n / 2) exp(i sum_{l<n} dk_l L_l)
    for the full mismatch model.  Its dk_n is not a sum of one-axis terms, so
    every cell takes its own sinc and exp."""
    shape = np.broadcast_shapes(np.shape(omega_s), np.shape(omega_i))
    phi = np.zeros(shape, dtype=complex)
    acc = np.zeros(shape)
    for seg in assembly.segments:
        dk = delta_k_full(seg.fiber, omega_s, omega_i)
        x = dk * (seg.length_m / 2.0)
        phi = phi + seg.length_m * np.sinc(x / np.pi) * np.exp(1j * (x + acc))
        acc = acc + dk * seg.length_m
    return phi


#: Below this |x|, sin(x)/x comes from its Taylor series: the quotient
#: Im(e^{ia} e^{ib}) / (a + b) carries an absolute error of ~2e-16 / |x|,
#: while the series' first dropped term, x^8/9!, is < 1.1e-16 here.
SINC_SERIES_CUT = 0.05


def _linearized_factors(segments, omega_s, omega_i=None):
    """Per-segment one-axis factors (a, b, e^{ia}, e^{ib}, L e^{i(a+P)}, e^{i(b+Q)})
    of the linearized mismatch dk_n = p_n(w_s) + q_n(w_i): a_n = p_n L_n / 2,
    b_n = q_n L_n / 2, and P_n = sum_{l<n} p_l L_l and Q_n likewise are the
    phases accumulated in the segments before.  Segment n contributes

        L_n Im(e^{i a_n} e^{i b_n}) / (a_n + b_n) * e^{i(a_n + P_n)} e^{i(b_n + Q_n)}.

    ``omega_i=None`` drops the idler walk-off (b_n = Q_n = 0).
    """
    ws = np.asarray(omega_s, dtype=float)
    wi = None if omega_i is None else np.asarray(omega_i, dtype=float)
    factors = []
    p_acc = q_acc = 0.0
    for seg in segments:
        half = seg.length_m / 2.0
        a = seg.point.tau_s_si * (ws - seg.point.omega_s0) * half
        b = 0.0 if wi is None else seg.point.tau_i_si * (wi - seg.point.omega_i0) * half
        factors.append((a, b, np.exp(1j * a), np.exp(1j * b),
                        seg.length_m * np.exp(1j * (a + p_acc)), np.exp(1j * (b + q_acc))))
        p_acc, q_acc = p_acc + 2.0 * a, q_acc + 2.0 * b
    return factors


def _linearized_combine(factors, rows, phi, term, x, sinc):
    """Write the sum over signal rows ``rows`` into ``phi`` through scratch of its shape."""
    phi[...] = 0.0
    for a, b, ua, vb, ul, vq in factors:
        np.add(a[rows], b, out=x)
        np.multiply(ua[rows], vb, out=term)
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(term.imag, x, out=sinc)
        small = np.abs(x) < SINC_SERIES_CUT
        x2 = x[small] ** 2
        sinc[small] = 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0 * (1.0 - x2 / 42.0))
        np.multiply(ul[rows], vq, out=term)
        term *= sinc
        phi += term


def _linearized_sum(segments, omega_s, omega_i=None):
    factors = _linearized_factors(segments, omega_s, omega_i)
    shape = np.broadcast_shapes(np.shape(factors[0][0]), np.shape(factors[0][1]))
    phi = np.empty(shape, dtype=complex)
    _linearized_combine(factors, ..., phi, np.empty_like(phi), np.empty(shape), np.empty(shape))
    return phi


def phi_assembly(assembly: AssemblySpec, omega_s, omega_i):
    """Coherent sum of the segments' phase-matching contributions."""
    if assembly.model_mode == "linearized":
        return _linearized_sum(assembly.segments, omega_s, omega_i)
    return _full_sum(assembly, omega_s, omega_i)


def phi_signal(assembly: AssemblySpec, omega_s):
    """One-dimensional phase-matching function with the idler walk-off dropped.

    Valid in the asymmetric group-velocity-matched regime tau_i ~ 0, where the
    mismatch depends on the signal frequency alone; this is the quantity a
    narrow-band scan of the signal arm measures.
    """
    return _linearized_sum(assembly.segments, omega_s)


def _signal_window(assembly: AssemblySpec, lobes: float) -> tuple[float, float]:
    los, his = [], []
    for seg in assembly.segments:
        tau = abs(seg.point.tau_s_si)
        if tau == 0.0:
            raise ValueError("segment with tau_s = 0 has no finite signal window")
        half = lobes * 2.0 * math.pi / (tau * seg.length_m)
        los.append(seg.point.omega_s0 - half)
        his.append(seg.point.omega_s0 + half)
    return min(los), max(his)


def _phase_slopes(assembly: AssemblySpec) -> tuple[float, float]:
    """Sum of |tau_s| L and of |tau_i| L over the segments: how fast the
    accumulated phase turns with the signal and the idler frequency."""
    return (sum(abs(s.point.tau_s_si) * s.length_m for s in assembly.segments),
            sum(abs(s.point.tau_i_si) * s.length_m for s in assembly.segments))


def _required_points(span: float, phase_slope: float) -> int:
    # Sample so the accumulated phase changes by < pi/8 between neighbours.
    if phase_slope <= 0.0:
        return 2
    return int(math.ceil(span * phase_slope / MAX_EDGE_PHASE_STEP)) + 2


def default_grid(assembly: AssemblySpec, pump: PumpSpec, ns: int = 512, ni: int = 512,
                 lobes: float = DEFAULT_LOBES,
                 pad_sigmas: float = DEFAULT_PAD_SIGMAS) -> FrequencyGrid:
    """Auto-sized grid: union of per-segment sinc windows on the signal side,
    its energy-conservation mirror padded by the pump bandwidth on the idler
    side.  Point counts are raised if needed to satisfy the phase-step rule.
    """
    s_lo, s_hi = _signal_window(assembly, lobes)
    two_wp = 2.0 * pump.omega_pc
    i_lo = two_wp - s_hi - pad_sigmas * pump.sigma_omega
    i_hi = two_wp - s_lo + pad_sigmas * pump.sigma_omega
    slope_s, slope_i = _phase_slopes(assembly)
    ns = max(ns, _required_points(s_hi - s_lo, slope_s))
    ni = max(ni, _required_points(i_hi - i_lo, slope_i))
    return FrequencyGrid(np.linspace(s_lo, s_hi, ns), np.linspace(i_lo, i_hi, ni))


@dataclass(frozen=True)
class JsaGrid:
    """Joint spectral amplitude sampled on a frequency grid."""

    grid: FrequencyGrid
    amplitude: np.ndarray  # complex, shape (ns, ni)
    pump: PumpSpec
    assembly: AssemblySpec

    def __post_init__(self):
        amp = np.asarray(self.amplitude)
        if amp.shape != (self.grid.signal.size, self.grid.idler.size):
            raise ValueError("amplitude shape does not match the grid")
        object.__setattr__(self, "amplitude", _finite(amp).astype(complex, copy=False))

    def intensity(self) -> np.ndarray:
        return np.abs(self.amplitude) ** 2


def _check_resolution(assembly: AssemblySpec, grid: FrequencyGrid) -> None:
    slope_s, slope_i = _phase_slopes(assembly)
    step_s = slope_s * grid.signal_step
    step_i = slope_i * grid.idler_step
    if step_s > MAX_EDGE_PHASE_STEP or step_i > MAX_EDGE_PHASE_STEP:
        span_s = grid.signal[-1] - grid.signal[0]
        span_i = grid.idler[-1] - grid.idler[0]
        raise GridResolutionError(
            "grid too coarse for the accumulated phase: "
            f"signal step {step_s:.3f} rad, idler step {step_i:.3f} rad "
            f"(limit {MAX_EDGE_PHASE_STEP:.3f})",
            required_ns=_required_points(span_s, slope_s),
            required_ni=_required_points(span_i, slope_i),
        )


def jsa_grid(assembly: AssemblySpec, pump: PumpSpec, grid: FrequencyGrid | None = None,
             ns: int = 512, ni: int = 512, lobes: float = DEFAULT_LOBES,
             pad_sigmas: float = DEFAULT_PAD_SIGMAS) -> FrequencyGrid:
    """The grid build_jsa samples on: ``grid``, or the auto-sized one, checked
    against the phase-step rule."""
    if grid is None:
        grid = default_grid(assembly, pump, ns, ni, lobes, pad_sigmas)
    _check_resolution(assembly, grid)
    return grid


def _finite(amplitude: np.ndarray) -> np.ndarray:
    if not np.isfinite(amplitude).all():
        raise ValueError("amplitude must be finite everywhere")
    return amplitude


def _amplitude_blocks(assembly: AssemblySpec, pump: PumpSpec, grid: FrequencyGrid,
                      rows: int | None = None):
    """Yield (signal-row slice, block) pairs that cover the amplitude alpha * phi
    in row order, every block in the same buffer and checked finite: ``rows``
    rows a block, by default the streamed STREAM_BLOCK_CELLS.

    Each block is filled in FILL_BLOCK_CELLS steps, by the linearized
    kernel or the full model's sum (which reads each segment's k(omega)
    series from its fiber), and the pump envelope multiplies it in place;
    every cell's value is the same whatever block holds it.
    """
    ns, ni = grid.signal.size, grid.idler.size
    ws = grid.signal[:, None]
    wi = grid.idler[None, :]
    if rows is None:
        rows = max(1, FILL_BLOCK_CELLS // ni) * (STREAM_BLOCK_CELLS // FILL_BLOCK_CELLS)
    rows = min(ns, rows)
    step = min(rows, max(1, FILL_BLOCK_CELLS // ni))
    full = assembly.model_mode == "full"
    factors = None if full else _linearized_factors(assembly.segments, ws, wi)
    buffer = np.empty((rows, ni), dtype=complex)
    scratch = None if full else [np.empty((step, ni), dtype=t) for t in (complex, float, float)]
    for start in range(0, ns, rows):
        block = buffer[:min(rows, ns - start)]
        for r in range(0, len(block), step):
            part = block[r:r + step]
            cells = slice(start + r, start + r + len(part))
            if full:
                part[...] = _full_sum(assembly, ws[cells], wi)
            else:
                _linearized_combine(factors, cells, part, *(s[:len(part)] for s in scratch))
            part *= pump_envelope(pump, ws[cells], wi)
        yield slice(start, start + len(block)), _finite(block)


def build_jsa(assembly: AssemblySpec, pump: PumpSpec, grid: FrequencyGrid | None = None,
              **grid_kwargs) -> JsaGrid:
    """Sample alpha * phi on jsa_grid(assembly, pump, grid, **grid_kwargs)."""
    grid = jsa_grid(assembly, pump, grid, **grid_kwargs)
    (_, amp), = _amplitude_blocks(assembly, pump, grid, grid.signal.size)
    return JsaGrid(grid, amp, pump, assembly)


def _marginals(grid: FrequencyGrid, blocks) -> dict[str, Spectrum1D]:
    """The trapezoid marginals of |f|^2 on ``grid``, of the amplitude that
    ``blocks`` covers as (signal-row slice, block) pairs: signal[rows] =
    |B|^2 @ w_i, and idler += w_s[rows] @ |B|^2.

    The idler sum starts at 0, so an amplitude passed as one block gives the
    two products' own bits.  |B|^2 is freed before the next block is filled."""
    w_s, w_i = grid.trapezoid_weights()
    sums = {"signal": np.empty(w_s.size), "idler": np.zeros(w_i.size)}
    for rows, block in blocks:
        intensity = np.abs(block) ** 2
        sums["signal"][rows] = intensity @ w_i
        sums["idler"] += w_s[rows] @ intensity
        del intensity
    park_openblas()  # a one-block product is threaded from ~5e5 cells
    return {axis: Spectrum1D(getattr(grid, axis), values, "angular_frequency")
            for axis, values in sums.items()}


def streamed_marginals(assembly: AssemblySpec, pump: PumpSpec,
                       grid: FrequencyGrid) -> dict[str, Spectrum1D]:
    """marginal(build_jsa(assembly, pump, grid), axis) for both axes, from the
    amplitude filled in row blocks, never stored: it is to marginal what
    correlation.g2_streamed is to g2_quadrature."""
    return _marginals(grid, _amplitude_blocks(assembly, pump, grid))


def marginal(jsa: JsaGrid, axis: str = "signal") -> Spectrum1D:
    """Trapezoid projection of the intensity onto one frequency axis."""
    if axis not in ("signal", "idler"):
        raise ValueError(f"axis must be 'signal' or 'idler', got {axis!r}")
    return _marginals(jsa.grid, [(slice(0, jsa.grid.signal.size), jsa.amplitude)])[axis]


def _scan_quadrature(axis: np.ndarray, intensity: np.ndarray, sigma: float,
                     centers_omega: np.ndarray, scale: float) -> np.ndarray:
    step = np.diff(axis)
    w = np.empty_like(axis)
    w[0] = step[0] / 2
    w[-1] = step[-1] / 2
    w[1:-1] = (step[:-1] + step[1:]) / 2
    weighted = w * intensity
    out = np.empty(centers_omega.size)
    for a in range(0, centers_omega.size, 64):  # bound the kernel matrix size
        block = centers_omega[a:a + 64]
        gauss = np.exp(-((axis[None, :] - block[:, None]) ** 2) / sigma**2)
        out[a:a + 64] = gauss @ weighted
    return scale * out


def filter_scan(assembly: AssemblySpec, filt: FilterSpec, centers_nm,
                pump: PumpSpec | None = None) -> Spectrum1D:
    """Counting rate of a Gaussian-filtered signal arm versus filter center.

    The one-dimensional phase-matching spectrum of ``assembly`` is evaluated
    directly on an internally refined axis.  The overall scale is
    gamma^2 P^2 / sigma_p when pump gain data is available, 1 otherwise.
    """
    centers = np.asarray(centers_nm, dtype=float)
    if centers.ndim != 1 or np.any(np.diff(centers) <= 0):
        raise ValueError("filter centers must be a strictly ascending 1-D list, nm")
    centers_omega = TWO_PI_C / (centers * 1e-9)
    sigma = filt.sigma_omega
    s_lo, s_hi = _signal_window(assembly, DEFAULT_LOBES)
    lo = min(s_lo, centers_omega.min() - 6 * sigma)
    hi = max(s_hi, centers_omega.max() + 6 * sigma)
    need = _required_points(hi - lo, _phase_slopes(assembly)[0])
    if need > 1 << 18:
        raise GridResolutionError(
            f"filter-scan axis needs {need} points for a phase step <= "
            f"{MAX_EDGE_PHASE_STEP:.3f} rad, above its {1 << 18}-point cap", need, 0)
    n = min(max(need, int(math.ceil((hi - lo) / (sigma / 3))) + 1, 2048), 1 << 18)
    axis = np.linspace(lo, hi, n)
    intensity = np.abs(phi_signal(assembly, axis)) ** 2

    scale = 1.0
    if pump is not None and pump.gain is not None:
        scale = pump.gain**2 / pump.sigma_omega
    vals = _scan_quadrature(axis, intensity, sigma, centers_omega, scale)
    # Order follows ascending wavelength; the omega centers descend.
    return Spectrum1D(centers, vals, "wavelength_nm")
