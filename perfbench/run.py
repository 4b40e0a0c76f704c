"""Benchmark of the ``sfwm`` command line, measured from outside.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  A workload is a design session
of two CLI calls, its steps (see ``workloads.py``); their configs are made
once from the seed.  Each repetition then runs every step as one
``sfwm.cli.run`` call in a fresh interpreter started from this process,
one at a time, until ``--seconds`` are used; a repetition's times are the
sums over its steps.  The outputs of every step are checked (see
``check.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, with the traced/untraced wall-time gap as
``trace.overhead_frac``.  Timings are medians over the repetitions of the
run.  The last line of standard output is the JSON result; the lines
before it are a readable table and the environment record, which is also
written with the full result under ``.perfbench_work/results/``.

``--workload all`` runs every workload in turn.  ``--tiny`` shrinks every
step's shapes (for the smoke test); ``--record-references`` rewrites
``references.json`` from the default seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import workloads
from spans import layer_table, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCES = HERE / "references.json"

DEFAULT_SEED = 1
#: Set-up samples per run (import-only interpreters top up the repetitions').
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark cannot run here or a repetition broke down."""


def _worker(spec: dict) -> dict:
    spec = dict(spec, src=str(SRC))
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped it
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    if result.get("rc", 0) != 0:
        print(f"sfwm run failed: {proc.stderr.strip()[-2000:]}", file=sys.stderr)
    return result


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "sfwm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _references(step: str, seed: int, tiny: bool) -> dict | None:
    if tiny or not REFERENCES.is_file():
        return None
    refs = json.loads(REFERENCES.read_text()).get(step)
    return refs["values"] if refs and refs["seed"] == seed else None


def _repetition(kind: str, configs: dict, work: Path, tag: str, references: dict,
                results_dir: Path) -> dict:
    """Run every step of the workload once, each in a fresh interpreter, and
    check its outputs.  Times add up over the steps; memory is the largest."""
    steps = []
    for step, config in configs.items():
        cfg_path = work / f"{step}.json"
        out = work / f"{step}-out"
        rep = _worker({"mode": kind, "subcommand": workloads.SUBCOMMAND[step],
                       "config": str(cfg_path), "out": str(out),
                       "spans_path": str(results_dir / f"{tag}-{step}-spans.json")})
        if rep["rc"] == 0:
            verdict = check.check(step, config, out, references.get(step))
            rep["rows"], rep["failed"], rep["problems"] = (
                verdict.rows, verdict.failed, verdict.problems[:20])
        else:
            rep["rows"] = rep["failed"] = check.expected_rows(step, config)
            rep["problems"] = [f"{step} exited {rep['rc']}"]
        shutil.rmtree(out, ignore_errors=True)
        steps.append(rep)
    grids = [g for rep in steps for g in rep["grids"]]
    return {
        "kind": kind,
        "rc": max(abs(rep["rc"]) for rep in steps),
        "run_s": sum(rep["run_s"] for rep in steps),
        "cpu_s": sum(rep["cpu_s"] for rep in steps),
        "peak_rss_mb": max(rep["peak_rss_mb"] for rep in steps),
        "setup_s": [rep["setup_s"] for rep in steps],
        "rows": sum(rep["rows"] for rep in steps),
        "failed": sum(rep["failed"] for rep in steps),
        "problems": [msg for rep in steps for msg in rep["problems"]],
        "grids": grids,
        "versions": steps[0]["versions"],
        "layers": (layer_table(merge([rep["stats"] for rep in steps]),
                               {"spectra.build_jsa": grids})
                   if kind == "traced" else None),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
                 bench: dict) -> dict:
    configs = {step: workloads.make_config(step, seed, tiny)
               for step in workloads.WORKLOADS[workload]}
    items = sum(workloads.item_count(step, config) for step, config in configs.items())
    references = {step: ref for step in configs
                  if (ref := _references(step, seed, tiny)) is not None}
    work = WORK / f"{workload}-{seed}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    work.mkdir(parents=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    try:
        for step, config in configs.items():
            (work / f"{step}.json").write_text(json.dumps(config, indent=2))

        _worker({"mode": "import"})  # untimed: fills byte-code and file caches
        kinds = ("plain", "traced") if trace else ("plain",)
        reps: list[dict] = []
        start = time.perf_counter()
        while True:
            kind = kinds[len(reps) % len(kinds)]
            reps.append(_repetition(kind, configs, work, tag, references, results_dir))
            elapsed = time.perf_counter() - start
            mean = elapsed / len(reps)
            # Stop where the run ends nearest to ``seconds``, after at least two
            # repetitions (one of each kind when tracing), so one slow stretch
            # of a shared machine does not set the median alone.
            if len(reps) >= 2 and elapsed + mean / 2 > seconds:
                break
        setups = [s for r in reps for s in r["setup_s"]]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_worker({"mode": "import"})["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["rows"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [msg for r in reps for msg in r["problems"]]
    plain = [r for r in reps if r["kind"] == "plain"]
    samples = {
        "run_s": [r["run_s"] for r in plain],
        "items_per_s": [items / r["run_s"] for r in plain],
        "setup_s": setups,
        "cpu_s": [r["cpu_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    failed_frac = failed / attempted if attempted else 1.0
    if trace:
        traced = [r for r in reps if r["kind"] == "traced"]
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace.overhead_frac"] = (statistics.median(r["run_s"] for r in traced)
                                         / statistics.median(samples["run_s"]) - 1.0)
        layers["failed_frac"] = failed_frac
        wanted, values = bench["per_layer"], layers
    else:
        wanted = bench["end_to_end"]
        values = {name: statistics.median(vals) for name, vals in samples.items()}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")

    grids = [[g["ns"], g["ni"]] for g in reps[0]["grids"]]
    env = {
        "workload": workload, "steps": list(configs), "seed": seed, "tiny": tiny,
        "trace": trace, "seconds": seconds, "items_per_run": items,
        "repetitions": {k: sum(r["kind"] == k for r in reps) for k in kinds},
        "setup_samples": len(setups),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        **reps[0]["versions"],
        "env_blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "cli_threads": 1, "git_sha": _git_sha(), "source_sha256": _source_sha256(),
        "jsa_grids": grids,
        "jsa_grids_same_every_repetition": all(
            [[g["ns"], g["ni"]] for g in r["grids"]] == grids for r in reps),
        "references_checked": sorted(references),
    }
    result = {
        "correct": failed == 0 and all(r["rc"] == 0 for r in reps),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    (results_dir / f"{tag}.json").write_text(json.dumps(
        {"env": env, "result": result, "samples": samples, "failed_frac": failed_frac,
         "problems": problems}, indent=2))
    _print_table(workload, samples, failed_frac, attempted, failed, bench, result, trace)
    for msg in problems[:10]:
        print(f"  check: {msg}")
    print("env " + json.dumps(env, sort_keys=True))
    return result


def _print_table(workload, samples, failed_frac, attempted, failed, bench, result, trace):
    print(f"== {workload}")
    if not trace:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        print(f"  {'metric':<13}{'median':>12}{'q1':>12}{'q3':>12}{'n':>4}  unit")
        for name, vals in samples.items():
            q1, q2, q3 = _quartiles(vals)
            print(f"  {name:<13}{q2:>12.5g}{q1:>12.5g}{q3:>12.5g}{len(vals):>4}  {units[name]}")
    else:
        for name, metric in result["metrics"].items():
            print(f"  {name:<44}{metric['value']:>14.6g}  {metric['unit']}")
    print(f"  {'failed_frac':<13}{failed_frac:>12.5g}  ({failed} of {attempted} rows)  ratio")


def record_references() -> None:
    """Run each step once at the default seed and store its outputs' values."""
    refs = {}
    for step in workloads.STEPS:
        config = workloads.make_config(step, DEFAULT_SEED)
        work = WORK / f"references-{step}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            cfg_path = work / "config.json"
            cfg_path.write_text(json.dumps(config, indent=2))
            rep = _worker({"mode": "plain", "subcommand": workloads.SUBCOMMAND[step],
                           "config": str(cfg_path), "out": str(work / "out")})
            if rep["rc"] != 0:
                raise BenchError(f"{step} failed at seed {DEFAULT_SEED}")
            values = check.extract(step, config, work / "out")
            verdict = check.check(step, config, work / "out", values)
            if verdict.failed:
                raise BenchError(f"{step} fails its own checks: {verdict.problems[:5]}")
            refs[step] = {"seed": DEFAULT_SEED, "values": values}
        finally:
            shutil.rmtree(work, ignore_errors=True)
    REFERENCES.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {REFERENCES.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink every shape")
    parser.add_argument("--record-references", action="store_true")
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "sfwm" / "cli.py").is_file() or not bench_file.is_file():
        print(f"error: no sfwm sources under {SRC} or no {bench_file.name}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    if args.record_references:
        record_references()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = tuple(workloads.WORKLOADS) if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, seconds, bool(args.trace), args.tiny, bench)
                   for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
