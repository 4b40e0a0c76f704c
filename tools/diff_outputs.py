"""Byte diff of the command line's outputs against another checkout's.

    python3 tools/diff_outputs.py --parent DIR

Runs every bundled config of the acceptance suite's ``CONFIG_RUNS``, the
four benchmark steps (``perfbench/workloads.py`` ``make_config``) at seeds 1
and 7, and ``configs/g2_table.json`` without its ``phase_match`` blocks on a
64x64 grid (as ``g2-table``, and as ``jsa`` with ``model: "full"``, so that
each segment's phase matching and k(omega) come from its structure), and
the seed-1 ``splice_plan`` pool as ``plan`` on an explicit 300x700 grid
(signal 1400-1440 nm, idler 845-872 nm: fewer signal rows than idler
columns, so the Gram takes each amplitude in one block and the result's
spectrum is summed in row blocks) through ``python3 -B -m sfwm.cli``, once
with the package under ``--parent`` (the baseline, e.g. a parent
checkout's ``src/``) and once with this checkout's ``src/``, each under
``OPENBLAS_NUM_THREADS=1`` and ``=2``.
Both sides read the same config files from this checkout, so their
manifests record the same config hash.  Prints each output file that
differs or exists on one side only, and each run that fails, then a
summary; exits 1 on any of them and 0 when every file is byte-identical.
A differing CSV also reports the largest relative difference over its
numeric cells, so that a rounding-level change shows its size.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SEEDS = (1, 7)
BLAS_THREADS = ("1", "2")


def _workloads():
    """perfbench/workloads.py, loaded by path as the test suite loads it."""
    path = REPO / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(work: Path) -> list[tuple[str, Path, str]]:
    """(name, config path, subcommand) of every run; writes the benchmark
    steps' and the structural runs' configs into ``work``."""
    sys.dont_write_bytecode = True  # as the runs' -B: no byte-code left in the checkout
    sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]
    from test_acceptance import CONFIG_RUNS

    runs = [(f"{Path(name).stem}:{sub}", REPO / "configs" / name, sub)
            for name, sub in CONFIG_RUNS]
    workloads = _workloads()
    for step in workloads.STEPS:
        for seed in SEEDS:
            path = work / f"{step}_{seed}.json"
            path.write_text(json.dumps(workloads.make_config(step, seed)))
            runs.append((f"{step}:seed{seed}", path, workloads.SUBCOMMAND[step]))
    structural = json.loads((REPO / "configs" / "g2_table.json").read_text())
    for seg in structural["segments"]:
        del seg["phase_match"]
    for subcommand, model in (("g2-table", "linearized"), ("jsa", "full")):
        path = work / f"g2_table_structural_{model}.json"
        path.write_text(json.dumps({**structural, "model": model, "grid": {"ns": 64, "ni": 64}}))
        runs.append((f"g2_table_structural:{subcommand}", path, subcommand))
    wide = workloads.make_config("splice_plan", 1)
    wide["grid"] = {"ns": 300, "ni": 700, "signal_range_nm": [1400.0, 1440.0],
                    "idler_range_nm": [845.0, 872.0]}
    path = work / "splice_plan_wide.json"
    path.write_text(json.dumps(wide))
    runs.append(("splice_plan_wide:plan", path, "plan"))
    return runs


def _run(src: Path, config: Path, subcommand: str, out: Path, threads: str) -> str | None:
    """Runs one subcommand; returns its error record, or None on success."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads}
    proc = subprocess.run(
        [sys.executable, "-B", "-m", "sfwm.cli", subcommand, "--config", str(config),
         "--out", str(out)],
        cwd=REPO, env=env, capture_output=True, text=True)
    return None if proc.returncode == 0 else proc.stderr.strip()


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


def _csv_change(parent: bytes, this: bytes) -> str:
    """How two CSVs differ: the largest relative difference over the numeric
    cells they hold at the same place, or that their shapes differ."""
    rows = [list(csv.reader(io.StringIO(side.decode()))) for side in (parent, this)]
    if [len(row) for row in rows[0]] != [len(row) for row in rows[1]]:
        return "rows or columns differ"
    worst = 0.0
    for a, b in zip(*map(itertools.chain.from_iterable, rows)):
        try:
            x, y = float(a), float(b)
        except ValueError:
            continue
        if x != y and not (math.isnan(x) and math.isnan(y)):
            rel = abs(x - y) / max(abs(x), abs(y))
            worst = max(worst, math.inf if math.isnan(rel) else rel)
    return f"largest relative difference {worst:.3g} over numeric cells"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="src/ of the baseline checkout")
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "this": REPO / "src"}
    problems = compared = 0
    with tempfile.TemporaryDirectory(prefix="diff_outputs_") as tmp:
        work = Path(tmp)
        runs = _runs(work)
        for name, config, subcommand in runs:
            for threads in BLAS_THREADS:
                label = f"{name} (OPENBLAS_NUM_THREADS={threads})"
                files = {}
                for side, src in sides.items():
                    out = work / f"{side}_{name.replace(':', '_')}_{threads}"
                    error = _run(src, config, subcommand, out, threads)
                    if error is not None:
                        print(f"{label}: {side} run failed: {error}")
                        problems += 1
                    files[side] = _files(out)
                for file in sorted(files["parent"].keys() | files["this"].keys()):
                    compared += 1
                    parent, this = files["parent"].get(file), files["this"].get(file)
                    if parent != this:
                        missing = [s for s in sides if file not in files[s]]
                        if missing:
                            change = f"missing on {missing[0]}"
                        elif file.endswith(".csv"):
                            change = f"differs ({_csv_change(parent, this)})"
                        else:
                            change = "differs"
                        print(f"{label}: {file} {change}")
                        problems += 1
    print(f"{len(runs)} runs x {len(BLAS_THREADS)} thread counts, {compared} files compared, "
          f"{problems} differences or failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
