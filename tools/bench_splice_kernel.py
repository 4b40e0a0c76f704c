"""Per-call cost of the splice-design kernel: JSA fill, Gram g2 and marginals.

    python3 tools/bench_splice_kernel.py [--src DIR] [--repeats N]

Times ``build_jsa`` and ``g2_quadrature`` on the catalog assemblies whose
auto-sized grids are 512x512 (S2, 0.3 m), 660x512 (S1+S2) and 1378x512
(S1+S2+S3+S4), each at 2 and 5 nm pump FWHM, and next to them the streamed
``g2_streamed`` (with ``jsa_grid``), which never stores the amplitude, where
the package has it; times both marginals of the same JSAs, stored
(``build_jsa`` and two ``marginal`` calls) and, where the package has it,
streamed (``spectra._streamed_marginals`` with ``jsa_grid``); times one
``plan_exhaustive`` call on the six-segment 0.6 m pool of the benchmark's
seed-1 ``splice_plan`` step (``perfbench/workloads.py``), and prints one
JSON object: the median over the repeats of the wall time and of the
process CPU time (``time.process_time``, every thread) per call, in ms, the
``tracemalloc`` peak of one stored (``build_jsa`` + ``g2_quadrature``) and
one streamed g2 and of one stored and one streamed pair of marginals, in
MiB, the core count and the OpenBLAS builds and thread counts the process
loaded.
A BLAS worker that spins after its call shows as CPU above wall time, in
the call or in the one after it.
``--src`` times the package under another checkout's ``src/`` the same way.

    python3 tools/bench_splice_kernel.py --one-openblas --src PARENT/src [--repeats N]

prints the ``one_openblas`` record instead: per step of the benchmark's
seed-1 ``splice_design`` workload (``g2-table``, then ``plan``), one
``sfwm.cli.run`` in a fresh interpreter under ``--src`` (the parent) and
under this checkout's ``src/``, alternating, ``--repeats`` times a side,
with the median ``ru_maxrss`` in MiB and the number of mapped
``libscipy_openblas*`` files; then, in this process, the median time of
one whole-amplitude ``zherk`` on each 2 nm grid, in numpy's OpenBLAS
(``sfwm._scipy.zherk``) and in SciPy's (``scipy.linalg.blas.zherk``),
alternating, with both pools parked after every call.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PUMP_NM = 1070.0
# label: (signal wavelength nm, tau_s ps/m, contour angle rad), as in configs/g2_table.json
CATALOG = {"S1": (1409.9, 3.2, 0.004), "S2": (1413.6, 3.2, 0.002),
           "S3": (1417.3, 3.3, 0.001), "S4": (1421.0, 3.4, 0.004)}
CASES = {"512x512": ["S2"], "660x512": ["S1", "S2"], "1378x512": ["S1", "S2", "S3", "S4"]}


def _openblas() -> list[dict]:
    """Build string and thread count of every OpenBLAS the process loaded
    (numpy's and scipy's are separate libraries)."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}"):
            get_threads = getattr(lib, symbol.format("get_num_threads"), None)
            get_config = getattr(lib, symbol.format("get_config"), None)
            if get_threads is None or get_config is None:
                continue
            get_threads.argtypes = get_config.argtypes = []
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            found.append({"library": Path(path).name, "config": get_config().decode(),
                          "threads": get_threads()})
            break
    return found


def _timed(call, repeats: int) -> tuple[float, float]:
    """Median wall and CPU time of ``call()``, in ms."""
    wall, cpu = [], []
    for _ in range(repeats):
        t0, c0 = time.perf_counter(), time.process_time()
        call()
        wall.append((time.perf_counter() - t0) * 1e3)
        cpu.append((time.process_time() - c0) * 1e3)
    return round(statistics.median(wall), 2), round(statistics.median(cpu), 2)


def _traced_peak_mib(call) -> float:
    """The ``tracemalloc`` peak of one ``call()``, in MiB."""
    tracemalloc.start()
    try:
        call()
        return round(tracemalloc.get_traced_memory()[1] / 2**20, 2)
    finally:
        tracemalloc.stop()


def _time_plan(repeats: int) -> dict:
    """``plan_exhaustive`` on the seed-1 ``splice_plan`` pool, as ``sfwm plan`` builds it."""
    from sfwm import AssemblySegment, PhaseMatchPoint, PumpSpec, SegmentPool, plan_exhaustive

    sys.path.insert(0, str(REPO / "perfbench"))
    from workloads import make_config

    cfg = make_config("splice_plan", 1)
    pump = PumpSpec(cfg["pump"]["center_wavelength_nm"], cfg["pump"]["fwhm_nm"])
    candidates = []
    for seg in cfg["segments"]:
        pm = seg["phase_match"]
        point = PhaseMatchPoint.from_signal_and_angle(
            pump.center_wavelength_nm, pm["lambda_s0_nm"], pm["tau_s_ps_per_m"],
            pm["theta_rad"], pm["tau_i_sign"])
        candidates.append((seg["label"], AssemblySegment(seg["length_m"], point)))
    pool = SegmentPool(tuple(candidates), cfg["planner"]["target_total_length_m"],
                       cfg["planner"]["tolerance_m"])
    plans = []
    ms, cpu_ms = _timed(lambda: plans.append(
        plan_exhaustive(pool, pump, ns=cfg["grid"]["ns"], ni=cfg["grid"]["ni"])), repeats)
    return {"pool": "splice_plan seed 1: six 0.3 m segments, 0.6 m target, 30 ordered pairs",
            "ms": round(ms, 1), "cpu_ms": round(cpu_ms, 1), "order": list(plans[-1].order),
            "predicted_g2": plans[-1].predicted_g2}


# Runs one CLI step (argv: src, subcommand, config, out) and prints its
# ru_maxrss in MiB and the number of OpenBLAS libraries mapped.
_STEP_PROBE = """
import json, resource, sys
sys.path.insert(0, sys.argv[1])
import sfwm.cli
assert sfwm.cli.run(sys.argv[2], sys.argv[3], sys.argv[4]) == 0
with open("/proc/self/maps") as fh:
    libs = {line.split()[-1] for line in fh if "libscipy_openblas" in line}
print(json.dumps([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, len(libs)]))
"""


def _one_openblas(parent_src: str, repeats: int) -> dict:
    """Per-step peak RSS and mapped OpenBLAS count, parent against this
    checkout, and the zherk time per OpenBLAS library."""
    import tempfile

    import numpy as np

    sys.path.insert(0, str(REPO / "perfbench"))
    from workloads import SUBCOMMAND, WORKLOADS, make_config

    sides = {"parent": parent_src, "change": str(REPO / "src")}
    steps = {}
    with tempfile.TemporaryDirectory() as tmp:
        for step in WORKLOADS["splice_design"]:
            config = Path(tmp) / f"{step}.json"
            config.write_text(json.dumps(make_config(step, 1)))
            runs = {side: [] for side in sides}
            for k in range(repeats):
                for side in (sides if k % 2 == 0 else reversed(sides)):
                    proc = subprocess.run(
                        [sys.executable, "-c", _STEP_PROBE, sides[side], SUBCOMMAND[step],
                         str(config), str(Path(tmp) / f"out_{side}")],
                        capture_output=True, text=True, check=True)
                    runs[side].append(json.loads(proc.stdout.splitlines()[-1]))
            steps[SUBCOMMAND[step]] = {side: {
                "ru_maxrss_mib": round(statistics.median(r[0] for r in rs), 2),
                "openblas_libs": statistics.median_low(r[1] for r in rs)}
                for side, rs in runs.items()}
    sys.path.insert(0, sides["change"])
    import scipy.linalg.blas
    from sfwm import AssemblySegment, AssemblySpec, PhaseMatchPoint, PumpSpec, _scipy, build_jsa

    # Both pools are parked after every timed call, as the Gram parks its own.
    parks = [getattr(_scipy._vendored_openblas(package), "blas_thread_shutdown_", None)
             for package in (_scipy.NUMPY_DIR, _scipy.SCIPY_DIR)]
    zherk_ms = {}
    for name, labels in CASES.items():
        assembly = AssemblySpec(tuple(
            AssemblySegment(0.3, PhaseMatchPoint.from_signal_and_angle(PUMP_NM, *CATALOG[label]))
            for label in labels))
        a = build_jsa(assembly, PumpSpec(PUMP_NM, 2.0)).amplitude.T
        calls = {"numpy": lambda: _scipy.zherk(1.0, a, 0),
                 "scipy": lambda: scipy.linalg.blas.zherk(1.0, a)}
        if not np.array_equal(calls["numpy"](), calls["scipy"]()):
            raise RuntimeError(f"the two zherk calls differ on {name}")
        times = {library: [] for library in calls}
        for k in range(repeats):  # alternating which library goes first
            for library in (calls if k % 2 == 0 else reversed(calls)):
                t0 = time.perf_counter()
                calls[library]()
                times[library].append((time.perf_counter() - t0) * 1e3)
                for park in filter(None, parks):
                    park()
        zherk_ms[f"{name}@2nm"] = {lib: round(statistics.median(t), 2) for lib, t in times.items()}
    return {"repeats": repeats, "nproc": os.cpu_count(),
            "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "openblas": _openblas(), "steps": steps, "zherk_ms": zherk_ms}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(REPO / "src"))
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--one-openblas", action="store_true")
    args = parser.parse_args()
    if args.one_openblas:
        print(json.dumps({"one_openblas": _one_openblas(args.src, args.repeats)}, indent=1))
        return 0
    sys.path.insert(0, args.src)
    import sfwm
    from sfwm import (AssemblySegment, AssemblySpec, PhaseMatchPoint, PumpSpec, build_jsa,
                      g2_quadrature, marginal)

    streamed = getattr(sfwm, "g2_streamed", None)
    streamed_marginals = getattr(sfwm.spectra, "_streamed_marginals", None)
    cases = {}
    for name, labels in CASES.items():
        assembly = AssemblySpec(tuple(
            AssemblySegment(0.3, PhaseMatchPoint.from_signal_and_angle(PUMP_NM, *CATALOG[label]))
            for label in labels))
        for fwhm in (2.0, 5.0):
            pump = PumpSpec(PUMP_NM, fwhm)
            fill, gram, fill_cpu, gram_cpu = [], [], [], []
            for _ in range(args.repeats):
                t0, c0 = time.perf_counter(), time.process_time()
                jsa = build_jsa(assembly, pump)
                t1, c1 = time.perf_counter(), time.process_time()
                g2_quadrature(jsa)
                t2, c2 = time.perf_counter(), time.process_time()
                fill.append((t1 - t0) * 1e3)
                gram.append((t2 - t1) * 1e3)
                fill_cpu.append((c1 - c0) * 1e3)
                gram_cpu.append((c2 - c1) * 1e3)
            shape = "x".join(map(str, jsa.amplitude.shape))
            if shape != name:
                raise RuntimeError(f"{'+'.join(labels)} gave a {shape} grid, expected {name}")
            del jsa
            case = cases[f"{name}@{fwhm:g}nm"] = {
                "fill_ms": round(statistics.median(fill), 2),
                "fill_cpu_ms": round(statistics.median(fill_cpu), 2),
                "g2_quadrature_ms": round(statistics.median(gram), 2),
                "g2_quadrature_cpu_ms": round(statistics.median(gram_cpu), 2),
                "stored_peak_mib": _traced_peak_mib(
                    lambda: g2_quadrature(build_jsa(assembly, pump)))}
            if streamed is not None:
                def call():
                    return streamed(assembly, pump, sfwm.jsa_grid(assembly, pump))
                case["g2_streamed_ms"], case["g2_streamed_cpu_ms"] = _timed(call, args.repeats)
                case["streamed_peak_mib"] = _traced_peak_mib(call)

            def stored_marginals():
                jsa = build_jsa(assembly, pump)
                return marginal(jsa, "signal"), marginal(jsa, "idler")
            case["stored_marginals_ms"], case["stored_marginals_cpu_ms"] = _timed(
                stored_marginals, args.repeats)
            case["stored_marginals_peak_mib"] = _traced_peak_mib(stored_marginals)
            if streamed_marginals is not None:
                def marginals():
                    return streamed_marginals(assembly, pump, sfwm.jsa_grid(assembly, pump))
                case["streamed_marginals_ms"], case["streamed_marginals_cpu_ms"] = _timed(
                    marginals, args.repeats)
                case["streamed_marginals_peak_mib"] = _traced_peak_mib(marginals)
    print(json.dumps({"repeats": args.repeats, "nproc": os.cpu_count(),
                      "openblas": _openblas(), "cases": cases,
                      "plan_exhaustive": _time_plan(args.repeats)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
