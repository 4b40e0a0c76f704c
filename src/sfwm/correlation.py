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

from dataclasses import dataclass

import numpy as np

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


def _weighted_amplitude(jsa: JsaGrid) -> np.ndarray:
    w_s, w_i = jsa.grid.trapezoid_weights()
    a = jsa.amplitude * np.sqrt(w_s)[:, None] * np.sqrt(w_i)[None, :]
    if not np.any(a):
        raise ZeroJsaError("JSA is identically zero; g2 undefined")
    return a


def g2_quadrature(jsa: JsaGrid) -> float:
    """g2 by direct double quadrature of the field correlator (Gram matrix)."""
    a = _weighted_amplitude(jsa)
    gram = a @ a.conj().T
    num = float(np.sum(np.abs(gram) ** 2))
    den = float(np.sum(np.abs(a) ** 2)) ** 2
    return 1.0 + num / den


def schmidt_decompose(jsa: JsaGrid) -> SchmidtResult:
    """Schmidt spectrum of the weighted amplitude via SVD."""
    a = _weighted_amplitude(jsa)
    try:
        sv = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"Schmidt decomposition failed to converge: {exc}") from exc
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
             ns: int = 512, ni: int = 512, threads: int = 1, **grid_kwargs) -> list[G2Row]:
    """g2 / Schmidt number / purity for labelled assemblies at several pumps.

    ``configurations`` holds (label, AssemblySpec) pairs; ``pumps`` one
    PumpSpec per bandwidth column.  Rows are emitted configuration-major in
    input order.
    """
    return [
        G2Row.from_jsa(label, build_jsa(assembly, pump, grid=grid, ns=ns, ni=ni,
                                        threads=threads, **grid_kwargs))
        for label, assembly in configurations
        for pump in pumps
    ]
