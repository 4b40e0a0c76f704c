"""Photon-pair spectra from pulse-pumped four-wave mixing in segmented PCFs."""

__version__ = "0.1.0"

from .correlation import (
    G2Row,
    g2_quadrature,
    g2_streamed,
    g2_table,
    schmidt_decompose,
)
from .dispersion import (
    FiberSegment,
    GvdSample,
    StructureFit,
    cladding_index,
    effective_index,
    find_zdw,
    fit_structure,
    group_slowness,
    gvd,
    propagation_constant,
    silica_refractive_index,
)
from .phasematch import (
    AgvmRoots,
    PhaseMatchPoint,
    PumpSpec,
    agvm_roots,
    gvm_curve,
    solve_phase_match,
)
from .planner import SegmentPool, SplicePlan, evaluate_plan, plan_exhaustive, plan_greedy
from .spectra import (
    AssemblySegment,
    AssemblySpec,
    FilterSpec,
    FrequencyGrid,
    JsaGrid,
    Spectrum1D,
    build_jsa,
    default_grid,
    delta_k,
    delta_k_full,
    filter_scan,
    jsa_grid,
    marginal,
    phi_assembly,
    phi_homogeneous,
    phi_signal,
    pump_envelope,
    streamed_marginals,
)

__all__ = [name for name in dir() if not name.startswith("_")]
