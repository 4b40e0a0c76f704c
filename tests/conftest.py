"""Shared fixtures: the four-segment catalog and assembly builders."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from sfwm import (
    AssemblySegment,
    AssemblySpec,
    FiberSegment,
    PhaseMatchPoint,
    PumpSpec,
    SegmentPool,
)

PUMP_NM = 1070.0

# Catalog of characterized segments: effective core radius (nm), phase-matched
# signal wavelength (nm), signal walk-off (ps/m), contour angle (rad).
CATALOG = {
    "S1": (947.0, 1409.9, 3.2, 0.004),
    "S2": (947.5, 1413.6, 3.2, 0.002),
    "S3": (948.0, 1417.3, 3.3, 0.001),
    "S4": (948.5, 1421.0, 3.4, 0.004),
}

# Reference g2 values for the standard ten-assembly comparison, keyed by
# (configuration, pump fwhm in nm).
G2_REFERENCE = {
    ("S1+S2", 2.0): 1.62, ("S1+S2", 5.0): 1.86,
    ("S1+S3", 2.0): 1.43, ("S1+S3", 5.0): 1.75,
    ("S1+S2+S3", 2.0): 1.52, ("S1+S2+S3", 5.0): 1.82,
    ("S1+S2+S3+S4", 2.0): 1.42, ("S1+S2+S3+S4", 5.0): 1.75,
    ("S1+S4+S2+S3", 2.0): 1.44, ("S1+S4+S2+S3", 5.0): 1.76,
    ("S1+S3_1.5m", 2.0): 1.49, ("S1+S3_1.5m", 5.0): 1.79,
    ("hom_0.3", 2.0): 1.56, ("hom_0.3", 5.0): 1.81,
    ("hom_0.6", 2.0): 1.75, ("hom_0.6", 5.0): 1.90,
    ("hom_0.9", 2.0): 1.83, ("hom_0.9", 5.0): 1.93,
    ("hom_1.5", 2.0): 1.89, ("hom_1.5", 5.0): 1.96,
}

TEN_CONFIGURATIONS = [
    ("S1+S2", [("S1", 0.3), ("S2", 0.3)]),
    ("S1+S3", [("S1", 0.3), ("S3", 0.3)]),
    ("S1+S2+S3", [("S1", 0.3), ("S2", 0.3), ("S3", 0.3)]),
    ("S1+S2+S3+S4", [("S1", 0.3), ("S2", 0.3), ("S3", 0.3), ("S4", 0.3)]),
    ("S1+S4+S2+S3", [("S1", 0.3), ("S4", 0.3), ("S2", 0.3), ("S3", 0.3)]),
    ("S1+S3_1.5m", [("S1", 1.5), ("S3", 1.5)]),
    ("hom_0.3", [("S2", 0.3)]),
    ("hom_0.6", [("S2", 0.6)]),
    ("hom_0.9", [("S2", 0.9)]),
    ("hom_1.5", [("S2", 1.5)]),
]


def benchmark_config(step: str, seed: int) -> dict:
    """The config of one benchmark step (perfbench/workloads.py) for one seed."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.make_config(step, seed)


def catalog_point(label: str, tau_i_sign: float = +1.0) -> PhaseMatchPoint:
    _, ls0, tau_s, theta = CATALOG[label]
    return PhaseMatchPoint.from_signal_and_angle(PUMP_NM, ls0, tau_s, theta, tau_i_sign)


def catalog_fiber(label: str, _length_m: float | None = None) -> FiberSegment:
    """The catalog fiber's structure; a length, which the acceptance tests
    still pass, is ignored: it belongs to the assembly element."""
    radius, _, _, _ = CATALOG[label]
    return FiberSegment(label, radius, 0.296)


def catalog_assembly(parts, tau_i_sign: float = +1.0) -> AssemblySpec:
    segs = tuple(
        AssemblySegment(length, catalog_point(label, tau_i_sign), catalog_fiber(label))
        for label, length in parts
    )
    return AssemblySpec(segs, "linearized")


def catalog_pool(labels, target_m, tolerance_m=None, max_segments=None,
                 length_m: float = 0.3) -> SegmentPool:
    return SegmentPool(
        candidates=tuple(
            (label, catalog_assembly([(label, length_m)]).segments[0]) for label in labels
        ),
        target_total_length_m=target_m,
        tolerance_m=tolerance_m,
        max_segments=max_segments,
    )


@pytest.fixture(scope="session")
def pump_2nm() -> PumpSpec:
    return PumpSpec(PUMP_NM, 2.0)


@pytest.fixture(scope="session")
def pump_5nm() -> PumpSpec:
    return PumpSpec(PUMP_NM, 5.0)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
