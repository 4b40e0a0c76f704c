"""Per-call cost of the k(omega) evaluator and of the stages built on it.

    python3 tools/bench_dispersion.py [--src DIR] [--repeats N]

Times, on the catalog fiber S1 (r = 947 nm, f = 0.296): one build of the
Chebyshev series of n_eff(omega), 100 scalar evaluations of that series at
each derivative order 0-2, ``gvd`` on 61 wavelengths over 850-1450 nm, ``find_zdw`` on 900-1250 nm,
``solve_phase_match`` at a 1070 nm pump, ``gvm_curve`` over 29 pumps on
955-1095 nm and ``agvm_roots`` on that sweep, each on a new
``FiberSegment``, so that each includes the fiber's series build; the same
sweep on one S1 object whose series is already built
(``gvm_curve_29_built``); the series build of a 200 nm core, which
bisects its guided-mode limit (``series_build_r200``), and the full-model
``build_jsa`` of S2 (0.3 m) on its 512x512 grid, whose point is solved
before; then the in-process ``dispersion`` and ``gvm-curve`` CLI
calls on the configs of the benchmark's seed-1 ``dispersion_curves`` and
``gvm_sweep`` steps (``perfbench/workloads.py``), and the first mode-solver
call of that ``dispersion`` call alone, keyed by its element count
(``solve_neff_65``: one fiber's series nodes; ``solve_neff_504`` where one
call batched 4 fibers x (65 series nodes + 61 table wavelengths)).  Prints
one JSON object: the median over the repeats (ms per call), the mode-solver
(``_solve_neff``) and Brent (``_brentq``, bound in ``dispersion`` or
``phasematch``) calls one of each of those CLI calls makes, the core count
and the OpenBLAS builds and thread counts the process loaded.  ``--src`` times the
package under another checkout's ``src/`` the same way; its fibers must be
structure only (no length).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

from bench_splice_kernel import REPO, _openblas

PUMP_NM = 1070.0


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return round(statistics.median(times), 3)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"))
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import numpy as np

    from sfwm import (AssemblySegment, AssemblySpec, FiberSegment, PumpSpec, agvm_roots,
                      build_jsa, default_grid, find_zdw, gvd, gvm_curve, solve_phase_match)
    from sfwm import dispersion, phasematch

    def s1():
        return FiberSegment("S1", 947.0, 0.296)

    built = s1()
    built.series  # build its series now
    s2 = FiberSegment("S2", 947.5, 0.296)
    pump = PumpSpec(PUMP_NM, 2.0)
    wl = np.linspace(850.0, 1450.0, 61)
    sweep = gvm_curve(s1(), (955.0, 1095.0), 29)
    s2_segments = (AssemblySegment(0.3, solve_phase_match(s2, pump), s2),)
    full = AssemblySpec(s2_segments, "full")
    grid = default_grid(AssemblySpec(s2_segments), pump, 512, 512)
    calls = {
        "gvd_61": lambda: gvd(s1(), wl),
        "find_zdw": lambda: find_zdw(s1(), (900.0, 1250.0)),
        "solve_phase_match": lambda: solve_phase_match(s1(), pump),
        "gvm_curve_29": lambda: gvm_curve(s1(), (955.0, 1095.0), 29),
        "gvm_curve_29_built": lambda: gvm_curve(built, (955.0, 1095.0), 29),
        "agvm_roots": lambda: agvm_roots(s1(), sweep),
        "build_jsa_full_512x512": lambda: build_jsa(full, pump, grid=grid),
    }
    series = dispersion._KSeries(s1())
    small = FiberSegment("small", 200.0, 0.296)
    omegas = [float(w) for w in dispersion._omega(np.linspace(850.0, 1450.0, 100))]
    calls = {"series_build": lambda: dispersion._KSeries(s1()),
             "series_scalar_300": lambda: [series(w, order) for order in range(3)
                                           for w in omegas],
             **calls,
             "series_build_r200": lambda: dispersion._KSeries(small)}

    sys.path.insert(0, str(REPO / "perfbench"))
    from workloads import SUBCOMMAND, make_config

    from sfwm import cli

    def cli_step(step: str, work: Path):
        config = work / f"{step}.json"
        config.write_text(json.dumps(make_config(step, 1)))

        def call():
            if cli.run(SUBCOMMAND[step], config, work / step) != 0:
                raise RuntimeError(f"{step}: the CLI call failed")
        return call

    def counted(module, name, log, seen):
        fn = getattr(module, name)

        def call(*a, **kw):
            log[name] += 1
            seen.append((fn, a, kw))
            return fn(*a, **kw)
        setattr(module, name, call)
        return fn

    work = tempfile.TemporaryDirectory()
    solves, seen = {}, {"_solve_neff": [], "_brentq": []}
    for step in ("dispersion_curves", "gvm_sweep"):
        calls[f"cli_{step}_seed1"] = cli_step(step, Path(work.name))
        log = solves[f"cli_{step}_seed1"] = {"_solve_neff": 0, "_brentq": 0}
        saved = [(m, n, counted(m, n, log, seen[n])) for m, n in (
            (dispersion, "_solve_neff"), (dispersion, "_brentq"), (phasematch, "_brentq"))]
        calls[f"cli_{step}_seed1"]()
        for module, name, fn in saved:
            setattr(module, name, fn)
    solve, solve_args, _ = seen["_solve_neff"][0]  # the dispersion call's first
    calls[f"solve_neff_{np.broadcast(*solve_args).size}"] = lambda: solve(*solve_args)
    layers = {name: _median_ms(fn, args.repeats) for name, fn in calls.items()}
    work.cleanup()
    print(json.dumps({"repeats": args.repeats, "nproc": os.cpu_count(),
                      "openblas": _openblas(), "ms_per_call": layers,
                      "solver_calls_per_cli_call": solves}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
