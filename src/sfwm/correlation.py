"""Second-order coherence of one daughter field and Schmidt analysis.

The unheralded intensity correlation of the signal field alone is

    g2 = 1 + sum_{s,s'} |sum_i f*(s,i) f(s',i)|^2 / (sum_{s,i} |f|^2)^2

with trapezoid weights absorbed into the amplitude matrix.  Equivalently,
with singular values sigma_k of the weighted amplitude, g2 = 1 + P where
the heralded purity P = sum sigma^4 / (sum sigma^2)^2 = 1/K and K is the
Schmidt mode count.  g2 = 2 exactly when the amplitude factorizes.

The Gram path is the one evaluator behind every table row: g2_streamed
fills the amplitude in row blocks and adds each into the Gram, so the
amplitude is never stored; g2_quadrature runs the same quadrature on a
stored amplitude.  The SVD (schmidt_decompose) gives the Schmidt spectrum
itself, the oracle of both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._scipy import park_openblas, zherk
from .phasematch import PumpSpec
from .spectra import (
    AssemblySpec,
    FrequencyGrid,
    JsaGrid,
    Spectrum1D,
    ZeroJsaError,
    _amplitude_blocks,
    _marginal_sums,
    jsa_grid,
)


def _peak_part(x: np.ndarray) -> float:
    """The largest |real or imaginary part| of ``x``."""
    parts = np.ascontiguousarray(x).view(float)
    return max(float(parts.max()), -float(parts.min()))


def _unit_scaled(x: np.ndarray, peak: float | None = None) -> np.ndarray:
    """``x`` times the power of two that puts ``peak``, its largest real or
    imaginary part unless given, in [0.5, 1).  Exact, except for entries it
    pushes below the normal range; the exponent comes from the parts, not
    from |x|^2, so it cannot overflow."""
    peak = _peak_part(x) if peak is None else peak
    if peak == 0.0:
        raise ZeroJsaError("JSA is identically zero; g2 undefined")
    return np.ldexp(np.ascontiguousarray(x).view(float), -math.frexp(peak)[1]).view(x.dtype)


def _end_corrected_gram(blocks, shape: tuple[int, int]) -> np.ndarray:
    """Upper triangle of the Gram on the smaller side of a ``shape`` amplitude
    that ``blocks`` yields as (signal-row slice, block) pairs in row order,
    with the two end rows (columns) of the summed axis at half weight.

    Each block adds its zherk on the transposed view, which needs no copy,
    into one triangle; a rank-2 zherk then takes half of the end rows back
    out, in place.  Summed over the idler axis (fewer signal rows than
    idler columns) the Gram needs every row at once, so such an amplitude
    comes as one block.

    zherk runs in numpy's OpenBLAS (sfwm._scipy.zherk), whose pool is parked
    again between blocks and at the end, so its worker does not spin through
    the fill of the next block or of the next amplitude."""
    ns, ni = shape
    trans = 0 if ns >= ni else 2
    upper = None
    ends = np.empty((2, ni), dtype=complex)
    for rows, block in blocks:
        if trans == 2:
            ends = block[:, [0, -1]]
        else:
            if rows.start == 0:
                ends[0] = block[0]
            if rows.stop == ns:
                ends[1] = block[-1]
        # block.T is Fortran-ordered: trans=0 gives conj(b^H b), trans=2 conj(b b^H).
        upper = zherk(1.0, block.T, trans, 0.0 if upper is None else 1.0, upper)
        if rows.stop < ns:
            park_openblas()
    upper = zherk(-0.5, ends.T, trans, 1.0, upper)
    park_openblas()
    return upper


#: The Gram of the amplitude as it stands is used when its largest diagonal
#: entry lies in this range: no entry overflows, and the products that
#: underflow move none by 2^-240 of that peak on a grid of < 2^30 rows.
#: Outside it (a largest part below ~2^-400 or above ~2^480) the Gram is
#: formed again from the blocks brought to a unit peak by a power of two.
GRAM_RANGE = (2.0 ** -800, 2.0 ** 1000)


def _g2_of_blocks(blocks, refill, shape: tuple[int, int]) -> float:
    """g2 by the Gram quadrature (see g2_quadrature) of the amplitude that
    ``blocks`` yields, as _end_corrected_gram takes it.

    ``refill()`` yields the same blocks again, for the rare Gram outside
    GRAM_RANGE: one pass finds the amplitude's largest part, and one more
    forms the Gram from the blocks times the power of two that brings that
    part into [0.5, 1)."""
    upper = _end_corrected_gram(blocks, shape)
    if not GRAM_RANGE[0] <= float(upper.diagonal().real.max()) <= GRAM_RANGE[1]:
        peak = max(_peak_part(block) for _, block in refill())
        upper = _end_corrected_gram(((rows, _unit_scaled(block, peak))
                                     for rows, block in refill()), shape)
    mag = np.abs(upper)
    mag *= 2.0 ** -math.frexp(float(mag.diagonal().max()))[1]
    diag = mag.diagonal().copy()
    diag[[0, -1]] *= 0.5
    np.square(mag, out=mag)
    mag[[0, -1]] *= 0.5
    mag[:, [0, -1]] *= 0.5
    num = 2.0 * float(mag.sum()) - float(mag.trace())
    return 1.0 + num / float(diag.sum()) ** 2


def g2_quadrature(jsa: JsaGrid) -> float:
    """g2 by direct double quadrature of the field correlator (Gram matrix).

    The Gram matrix is formed on the smaller side of the grid, since a^H a
    and a a^H have the same Frobenius norm, straight from the amplitude.
    The trapezoid weights are h inside and h/2 at the ends, and g2 ignores
    the common h: the summed axis takes the rank-2 end correction, the
    Gram's own axis factors 1/2 on the end rows and columns of |G|^2 and on
    the end entries of its trace.  |G| is first brought to a power-of-two
    scale from its largest diagonal entry, so those factors are exact.
    zherk leaves the strict lower triangle at 0, so the sum of |G|^2 is
    2 sum |U|^2 - sum |diag U|^2 over its upper triangle U.

    This is the evaluator of a stored amplitude, in one block; g2_streamed
    gives the same g2, to rounding, without storing it.
    """
    a = jsa.amplitude
    whole = [(slice(0, len(a)), a)]
    return _g2_of_blocks(whole, lambda: whole, a.shape)


def g2_streamed(assembly: AssemblySpec, pump: PumpSpec, grid: FrequencyGrid,
                signal_marginal: bool = False) -> tuple[float, Spectrum1D | None]:
    """g2 of build_jsa(assembly, pump, grid) without storing its amplitude, and
    with ``signal_marginal`` its marginal(jsa, "signal"); None otherwise.

    The amplitude is filled in the streamed row blocks of one reused buffer
    (spectra._amplitude_blocks, which checks each finite), and each block
    adds its zherk into the one Gram, so the largest array alive is the
    Gram or a block, not the amplitude.  The marginal is summed from the
    same blocks (spectra._marginal_sums).  A grid with fewer signal rows
    than idler columns is filled in one block (see _end_corrected_gram).
    """
    ns, ni = grid.signal.size, grid.idler.size
    rows = ns if ns < ni else None

    def fill():
        return _amplitude_blocks(assembly, pump, grid, rows)

    if not signal_marginal:
        return _g2_of_blocks(fill(), fill, (ns, ni)), None
    sums = {}
    g2 = _g2_of_blocks(_marginal_sums(grid, fill(), sums), fill, (ns, ni))
    return g2, Spectrum1D(grid.signal, sums["signal"], "angular_frequency")


def schmidt_decompose(jsa: JsaGrid) -> np.ndarray:
    """The Schmidt spectrum of ``jsa`` up to a power of two: the descending
    singular values sigma of the trapezoid-weighted amplitude
    sqrt(w_s) f sqrt(w_i), by SVD.  P = sum sigma^4 / (sum sigma^2)^2.

    The amplitude and both weight vectors are each brought to a peak in
    [0.5, 1) first, so the product's largest part lies in [2^-4, 1) whatever
    the amplitude's scale, and a power of two leaves every bit of the
    spectrum unchanged.
    """
    w_s, w_i = jsa.grid.trapezoid_weights()
    a = _unit_scaled(jsa.amplitude)
    a *= _unit_scaled(np.sqrt(w_s))[:, None]
    a *= _unit_scaled(np.sqrt(w_i))[None, :]
    try:
        return np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Schmidt decomposition failed to converge: {exc}") from exc
    finally:
        park_openblas()


@dataclass(frozen=True)
class G2Row:
    """One g2_table row, from a single Gram evaluation: purity P = g2 - 1,
    K = 1/P; and the grid its JSA was filled on."""

    configuration: str
    total_length_m: float
    pump_fwhm_nm: float
    g2: float
    schmidt_number: float
    purity: float
    grid: FrequencyGrid = field(repr=False, compare=False)


def g2_table(configurations, pumps, **grid_kwargs) -> list[G2Row]:
    """g2 / Schmidt number / purity for labelled assemblies at several pumps,
    each on jsa_grid(assembly, pump, **grid_kwargs).

    ``configurations`` holds (label, AssemblySpec) pairs; ``pumps`` one
    PumpSpec per bandwidth column.  Rows are emitted configuration-major in
    input order.
    """
    rows = []
    for label, assembly in configurations:
        for pump in pumps:
            grid = jsa_grid(assembly, pump, **grid_kwargs)
            g2, _ = g2_streamed(assembly, pump, grid)
            purity = g2 - 1.0  # exact for g2 in [1, 2] (Sterbenz), so g2 == 1 + purity
            rows.append(G2Row(label, assembly.total_length_m, pump.fwhm_nm, g2, 1.0 / purity,
                              purity, grid))
    return rows
