"""Smoke test of the benchmark itself, on tiny seeded configs (about a minute).

    python3 perfbench/smoke.py

Checks that:
- the config generator is deterministic per seed and keeps work fixed
  (the same JSA grids for two seeds);
- one command prints every end-to-end and per-layer metric of
  ``BENCHMARK.json`` with its unit, for every workload, and finds no
  failed rows;
- the output checker rejects deliberately corrupted CSVs and references;
- the benchmark refuses to run, without printing a result, in a directory
  holding only ``BENCHMARK.json`` and the benchmark's own files.

Exits 0 when every check passes.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys

import check
import workloads
from run import HERE, ROOT, WORK

RUN = [sys.executable, str(HERE / "run.py")]
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def _run(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(RUN + args, cwd=cwd, capture_output=True, text=True, timeout=600)


def metrics_printed(bench: dict) -> None:
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        proc = _run(["--workload", "all", "--seed", "5", "--seconds", "1", "--tiny",
                     "--trace", str(trace)])
        expect(proc.returncode == 0, f"--trace {trace} exits 0 ({proc.stderr.strip()[-300:]})")
        if proc.returncode != 0:
            continue
        lines = proc.stdout.strip().splitlines()
        results = json.loads(lines[-1])
        want = {m["name"]: m["unit"] for m in bench[kind]}
        for workload in workloads.WORKLOADS:
            res = results[workload]
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}
                   and res["correct"] and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{workload} trace={trace}: correct, no failed rows")
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            expect(got == want, f"{workload} trace={trace}: every {kind} metric with its unit")
            expect(all(isinstance(m["value"], (int, float)) for m in res["metrics"].values()),
                   f"{workload} trace={trace}: numeric values")
        table = "\n".join(lines[:-1])
        expect(all(name in table for name in want) and "failed_frac" in table,
               f"trace={trace}: the table names every metric and failed_frac")
        if trace == 1:
            for workload, idle in (("fiber_design", ("spectra.build_jsa",
                                                     "correlation.schmidt_decompose",
                                                     "planner.evaluate_plan")),
                                   ("splice_design", ("dispersion.gvd",
                                                      "phasematch.solve_phase_match"))):
                got = results[workload]["metrics"]
                expect(all(got[f"{name}.calls"]["value"] == 0 for name in idle),
                       f"{workload}: explicit zero calls for unused layers {idle}")


def generator_fixed_work() -> None:
    for step in workloads.STEPS:
        expect(workloads.make_config(step, 7) == workloads.make_config(step, 7),
               f"{step}: same seed, same config")
        expect(workloads.make_config(step, 7) != workloads.make_config(step, 8),
               f"{step}: another seed, another config")
    grids = []
    for seed in ("5", "6"):
        proc = _run(["--workload", "splice_design", "--seed", seed, "--seconds", "1",
                     "--tiny"])
        env = [line for line in proc.stdout.splitlines() if line.startswith("env ")]
        grids.append(json.loads(env[0][4:])["jsa_grids"] if env else None)
    expect(grids[0] is not None and grids[0] == grids[1],
           f"splice_design grids fixed across seeds {grids}")


def checker_rejects_corruption() -> None:
    work = WORK / "smoke-check"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = workloads.make_config("g2_table", 5, tiny=True)
        (work / "config.json").write_text(json.dumps(config))
        spec = {"src": str(ROOT / "src"), "mode": "plain", "subcommand": "g2-table",
                "config": str(work / "config.json"), "out": str(work / "out")}
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        expect(proc.returncode == 0 and json.loads(proc.stdout.splitlines()[-1])["rc"] == 0,
               "tiny g2-table runs")
        out = work / "out"
        clean = check.check("g2_table", config, out)
        expect(clean.failed == 0 and clean.rows == 2, "clean output passes every check")
        reference = check.extract("g2_table", config, out)
        expect(check.check("g2_table", config, out, reference).failed == 0,
               "clean output matches its own reference")
        bad_ref = json.loads(json.dumps(reference))
        bad_ref["rows"][0][2] *= 1.0 + 1e-6
        expect(check.check("g2_table", config, out, bad_ref).failed == 1,
               "a g2 off its reference by 1e-6 is rejected")

        path = out / "g2_table.csv"
        rows = list(csv.reader(path.open()))
        for col, value, what in ((3, "2.5", "g2 above 2"),
                                 (5, str(float(rows[1][5]) * 1.001), "g2 != 1 + purity"),
                                 (4, str(float(rows[1][4]) * 1.001), "K != 1/purity")):
            bad = [r[:] for r in rows]
            bad[1][col] = value
            with path.open("w", newline="") as fh:
                csv.writer(fh).writerows(bad)
            expect(check.check("g2_table", config, out).failed == 1, f"corrupted CSV: {what}")
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows[:-1])
        expect(check.check("g2_table", config, out).failed >= 1, "corrupted CSV: row dropped")
        path.unlink()
        expect(check.check("g2_table", config, out).failed == 2, "missing CSV fails every row")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def refuses_without_program() -> None:
    bare = WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"),
                               "--workload", "splice_design", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
        expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
               "refuses to run where there is no program")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    generator_fixed_work()
    checker_rejects_corruption()
    metrics_printed(bench)
    refuses_without_program()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
