"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 perfbench/worker.py '<json spec>'`` with the keys ``src``
(directory holding the ``sfwm`` package), ``mode`` (``import``, ``plain``
or ``traced``), and for a run ``subcommand``, ``config``, ``out`` and
optionally ``spans_path``.

Times ``import sfwm.cli`` (set-up), then one ``sfwm.cli.run`` call with
the CLI's default ``--threads 1``, and prints one JSON line.  Nothing from
numpy or scipy is imported before the set-up timer starts.  A fresh
interpreter matters: the mode solver's ``lru_cache`` and the ``k(omega)``
spline cache are process-wide, and every real CLI call starts them cold.
"""

from __future__ import annotations

import json
import sys
import time


def _blas_info() -> dict:
    """Version and thread count of the OpenBLAS that numpy loaded."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and "numpy" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_config.restype = ctypes.c_char_p
                return {"openblas": get_config().decode(), "blas_threads": get_threads()}
    return {"openblas": None, "blas_threads": None}


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    t0 = time.perf_counter()
    import sfwm.cli
    result = {"setup_s": time.perf_counter() - t0}
    if spec["mode"] == "import":
        print(json.dumps(result))
        return 0

    import resource

    import numpy
    import scipy
    from spans import Tracer, summarize

    tracer = Tracer()
    # Untraced runs wrap build_jsa alone, to record the grid each JSA used.
    names = tracer.install(None if spec["mode"] == "traced" else {"spectra.build_jsa"})
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t1 = time.perf_counter()
    rc = sfwm.cli.run(spec["subcommand"], spec["config"], spec["out"])
    run_s = time.perf_counter() - t1
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    result.update(
        rc=rc,
        run_s=run_s,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        grids=tracer.results["spectra.build_jsa"],
        versions={"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, **_blas_info()},
    )
    if spec["mode"] == "traced":
        result["stats"] = summarize(tracer.spans, names)
        if spec.get("spans_path"):
            with open(spec["spans_path"], "w") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "raised"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
