"""Start-up cost of the command line: one fresh ``import sfwm.cli``.

    python3 tools/bench_startup.py --src DIR [--runs N]

Starts 2N fresh interpreters (``python3 -I -B``), alternating the package
under ``--src`` (the baseline, e.g. a parent checkout's ``src/``) and the one
in this checkout's ``src/``.  ``-I`` ignores ``PYTHONDONTWRITEBYTECODE``, so
``-B`` keeps the probes from writing byte-code into either checkout: in
checkouts without a ``__pycache__`` every probe compiles the package, as
perfbench's workers do under ``PYTHONDONTWRITEBYTECODE=1``.  Each imports
``sfwm.cli`` and reports the wall time of that import, the number of loaded
modules, ``ru_maxrss`` after it, which of the heavy SciPy packages were
loaded and how many OpenBLAS libraries were mapped.  Prints one JSON
object: per side the median and quartiles of the import time and the
medians of the rest, with the core count and the Python, numpy and scipy
versions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Nothing but sys and time is imported before the timer starts.
_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import sfwm.cli
import_s = time.perf_counter() - t0
modules = len(sys.modules)
import json, resource
loaded = {name: name in sys.modules for name in json.loads(sys.argv[2])}
with open("/proc/self/maps") as fh:
    openblas = len({line.split()[-1] for line in fh if "openblas" in line.lower()})
maxrss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
import numpy, scipy  # for their versions, after every measurement
print(json.dumps({
    "import_s": import_s, "modules": modules, "maxrss_mib": maxrss_mib,
    "loaded": loaded, "openblas_libs": openblas,
    "numpy": numpy.__version__, "scipy": scipy.__version__,
}))
"""

#: Packages whose import the CLI avoids: scipy itself (its __init__),
#: scipy.optimize (only fit needs it), and scipy.linalg and scipy.special,
#: whose __init__ loads scipy._lib._util and with it numpy.f2py and
#: numpy.testing.
HEAVY = ("scipy", "scipy.optimize", "scipy.linalg", "scipy.special", "scipy._lib._util")


def _probe(src: Path) -> dict:
    out = subprocess.run(
        [sys.executable, "-I", "-B", "-c", _PROBE, str(src), json.dumps(HEAVY)],
        capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def _revision(src: Path) -> str | None:
    """Short commit of the checkout holding src, '+' if its tree has changes."""
    try:
        sha = subprocess.run(["git", "-C", str(src), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(src), "status", "--porcelain"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + ("+" if dirty else "")


def _summary(src: Path, samples: list[dict]) -> dict:
    times = [s["import_s"] for s in samples]
    q1, median, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return {
        "source": _revision(src),
        "import_s": {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)},
        "modules": statistics.median_low(s["modules"] for s in samples),
        "maxrss_mib": round(statistics.median(s["maxrss_mib"] for s in samples), 1),
        "loaded": {name: any(s["loaded"][name] for s in samples) for name in HEAVY},
        "openblas_libs": statistics.median_low(s["openblas_libs"] for s in samples),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path,
                        help="src/ of the baseline checkout")
    parser.add_argument("--runs", type=int, default=10, help="interpreters per side")
    args = parser.parse_args()
    sides = {"before": args.src.resolve(), "after": REPO / "src"}
    samples: dict[str, list[dict]] = {name: [] for name in sides}
    for _ in range(args.runs):
        for name, src in sides.items():
            samples[name].append(_probe(src))
    first = samples["after"][0]
    print(json.dumps({
        "runs_per_side": args.runs, "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "numpy": first["numpy"], "scipy": first["scipy"],
        **{name: _summary(src, samples[name]) for name, src in sides.items()},
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
