"""Second-order coherence of one daughter field and Schmidt analysis.

The unheralded intensity correlation of the signal field alone is

    g2 = 1 + sum_{s,s'} |sum_i f*(s,i) f(s',i)|^2 / (sum_{s,i} |f|^2)^2

with trapezoid weights absorbed into the amplitude matrix.  Equivalently,
with singular values sigma_k of the weighted amplitude, g2 = 1 + P where
the heralded purity P = sum sigma^4 / (sum sigma^2)^2 = 1/K and K is the
Schmidt mode count.  g2 = 2 exactly when the amplitude factorizes.

The Gram path (g2_quadrature) is the one evaluator behind every table row;
the SVD path (schmidt_decompose) gives the full Schmidt spectrum and serves
as its oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._scipy import NUMPY_DIR, SCIPY_DIR, extension, park_openblas
from .spectra import FrequencyGrid, JsaGrid, ZeroJsaError, build_jsa


@dataclass(frozen=True)
class SchmidtResult:
    """Schmidt spectrum (up to common scale) and the scalars derived from it."""

    singular_values: np.ndarray  # descending, non-negative
    schmidt_number: float
    purity: float
    g2: float

    def __post_init__(self):
        sv = np.asarray(self.singular_values, dtype=float)
        if np.any(sv < 0) or np.any(np.diff(sv) > 0):
            raise ValueError("singular values must be non-negative and descending")
        object.__setattr__(self, "singular_values", sv)
        if self.schmidt_number < 1.0 - 1e-12:
            raise ValueError("Schmidt number must be >= 1")
        if not 0.0 < self.purity <= 1.0 + 1e-12:
            raise ValueError("purity must lie in (0, 1]")


def _unit_scaled(x: np.ndarray) -> np.ndarray:
    """``x`` times the power of two that puts its largest real or imaginary
    part in [0.5, 1).  Exact, except for entries it pushes below the normal
    range; the exponent comes from the parts, not from |x|^2, so it cannot
    overflow."""
    parts = np.ascontiguousarray(x).view(float)
    peak = max(float(parts.max()), -float(parts.min()))
    if peak == 0.0:
        raise ZeroJsaError("JSA is identically zero; g2 undefined")
    return np.ldexp(parts, -math.frexp(peak)[1]).view(x.dtype)


def _weighted_amplitude(jsa: JsaGrid) -> np.ndarray:
    """Trapezoid-weighted amplitude sqrt(w_s) f sqrt(w_i), times a power of two,
    for the SVD.

    The amplitude and both weight vectors are each brought to a peak in
    [0.5, 1) first, so the product's largest part lies in [2^-4, 1) whatever
    the amplitude's scale.  g2 and the purity do not depend on a common
    factor, and a power of two leaves every bit of them unchanged.
    """
    w_s, w_i = jsa.grid.trapezoid_weights()
    a = _unit_scaled(jsa.amplitude)
    a *= _unit_scaled(np.sqrt(w_s))[:, None]
    a *= _unit_scaled(np.sqrt(w_i))[None, :]
    return a


def _end_corrected_gram(a: np.ndarray) -> np.ndarray:
    """Upper triangle of the Gram on the smaller side of ``a``, with the two
    end rows (columns) of the summed axis at half weight: one zherk on the
    transposed view, which needs no copy, then a rank-2 zherk that takes
    half of those ends back out, in place.

    scipy's BLAS loads here, on first use, not at import: loading it starts
    its OpenBLAS thread pool, whose ~0.1 s spin a subcommand without a Gram
    would otherwise pay.  The pool is parked again once the update is done,
    so its worker does not spin through the fill of the next amplitude."""
    blas = extension("linalg", "_fblas", "scipy.linalg.blas")
    trans = 0 if a.shape[0] >= a.shape[1] else 2
    ends = a[[0, -1]] if trans == 0 else a[:, [0, -1]]
    # a.T is Fortran-ordered: trans=0 gives conj(a^H a), trans=2 conj(a a^H).
    upper = blas.zherk(1.0, a.T, trans=trans)
    upper = blas.zherk(-0.5, ends.T, trans=trans, beta=1.0, c=upper, overwrite_c=1)
    park_openblas(SCIPY_DIR)
    return upper


#: The Gram of the amplitude as it stands is used when its largest diagonal
#: entry lies in this range: no entry overflows, and the products that
#: underflow move none by 2^-240 of that peak on a grid of < 2^30 rows.
#: Outside it (a largest part below ~2^-400 or above ~2^480) the Gram is
#: formed again from a copy brought to a unit peak by a power of two.
GRAM_RANGE = (2.0 ** -800, 2.0 ** 1000)


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
    """
    upper = _end_corrected_gram(jsa.amplitude)
    if not GRAM_RANGE[0] <= float(upper.diagonal().real.max()) <= GRAM_RANGE[1]:
        upper = _end_corrected_gram(_unit_scaled(jsa.amplitude))
    mag = np.abs(upper)
    mag *= 2.0 ** -math.frexp(float(mag.diagonal().max()))[1]
    diag = mag.diagonal().copy()
    diag[[0, -1]] *= 0.5
    np.square(mag, out=mag)
    mag[[0, -1]] *= 0.5
    mag[:, [0, -1]] *= 0.5
    num = 2.0 * float(mag.sum()) - float(mag.trace())
    return 1.0 + num / float(diag.sum()) ** 2


def schmidt_decompose(jsa: JsaGrid) -> SchmidtResult:
    """Schmidt spectrum of the weighted amplitude via SVD."""
    a = _weighted_amplitude(jsa)
    try:
        sv = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Schmidt decomposition failed to converge: {exc}") from exc
    finally:
        park_openblas(NUMPY_DIR)
    s2 = sv**2
    total = float(s2.sum())
    purity = float((s2**2).sum()) / total**2
    return SchmidtResult(
        singular_values=sv,
        schmidt_number=1.0 / purity,
        purity=purity,
        g2=1.0 + purity,
    )


@dataclass(frozen=True)
class G2Row:
    configuration: str
    total_length_m: float
    pump_fwhm_nm: float
    g2: float
    schmidt_number: float
    purity: float

    @classmethod
    def from_jsa(cls, configuration: str, jsa: JsaGrid) -> "G2Row":
        """One row from a single Gram evaluation: purity P = g2 - 1, K = 1/P."""
        g2 = g2_quadrature(jsa)
        purity = g2 - 1.0  # exact for g2 in [1, 2] (Sterbenz), so g2 == 1 + purity
        return cls(configuration, jsa.assembly.total_length_m, jsa.pump.fwhm_nm,
                   g2, 1.0 / purity, purity)


def g2_table(configurations, pumps, grid: FrequencyGrid | None = None,
             ns: int = 512, ni: int = 512, **grid_kwargs) -> list[G2Row]:
    """g2 / Schmidt number / purity for labelled assemblies at several pumps.

    ``configurations`` holds (label, AssemblySpec) pairs; ``pumps`` one
    PumpSpec per bandwidth column.  Rows are emitted configuration-major in
    input order.
    """
    return [
        G2Row.from_jsa(label, build_jsa(assembly, pump, grid=grid, ns=ns, ni=ni, **grid_kwargs))
        for label, assembly in configurations
        for pump in pumps
    ]
