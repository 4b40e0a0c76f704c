"""Span recording at the layer boundaries of ``sfwm``.

``Tracer.install`` wraps every public function of the layer modules at
every module binding it is looked up through: the defining module's own
global (so internal calls such as ``find_zdw`` -> ``gvd`` are seen) and
each name another ``sfwm`` module imported (``sfwm.cli.build_jsa``,
``sfwm.planner.build_jsa``, ...).  Spans are kept in memory as
``[name, start, end, parent_index, raised]`` and summarised when the run
ends.  Private helpers are not wrapped, so their time lands in the self
time of the public function that called them.

Single-threaded: the benchmark runs the CLI with its default ``--threads 1``.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time

LAYERS = ("dispersion", "phasematch", "spectra", "correlation", "planner", "cli")

#: Calls needed before a 99th percentile is reported (ten samples beyond it).
P99_MIN_CALLS = 1000


def _jsa_cells(result) -> dict:
    ns, ni = result.amplitude.shape
    return {"ns": ns, "ni": ni}


#: Per-function hooks that keep a small record of each call's result.
RESULT_HOOKS = {"spectra.build_jsa": _jsa_cells}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.results: dict[str, list] = {name: [] for name in RESULT_HOOKS}
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = RESULT_HOOKS.get(name)
        kept = self.results.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if hook is not None:
                kept.append(hook(result))
            return result

        return traced

    def install(self, names=None) -> list[str]:
        """Wrap the layer functions (all public ones, or only ``names``) and
        rebind them in every loaded ``sfwm`` module; returns the names."""
        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"sfwm.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and (names is None or name in names)):
                    originals[obj] = self._wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "sfwm" and not modname.startswith("sfwm."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in originals:
                    setattr(mod, attr, originals[obj])
        return sorted(f"{fn.__module__.split('.')[-1]}.{fn.__name__}" for fn in originals)


def summarize(spans, names) -> dict:
    """Per-function totals: calls, errors, busy_s, self_s and durations (s).

    ``busy_s`` counts each interval once even when a function runs inside
    another call of itself; ``self_s`` subtracts the direct children.
    ``names`` lists every wrapped function; those that never ran have zero calls.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {n: {"calls": 0, "errors": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}
             for n in names}
    for i, (name, start, end, parent, raised) in enumerate(spans):
        s = stats[name]
        dur = end - start
        s["calls"] += 1
        s["errors"] += int(raised)
        s["self_s"] += dur - child_time[i]
        s["durations"].append(dur)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            s["busy_s"] += dur
    return stats


def merge(stats_list) -> dict:
    """One ``summarize`` table from several runs' tables (counts and times
    add up, durations are pooled)."""
    merged: dict = {}
    for stats in stats_list:
        for name, s in stats.items():
            m = merged.setdefault(name, {"calls": 0, "errors": 0, "busy_s": 0.0,
                                         "self_s": 0.0, "durations": []})
            for key in ("calls", "errors", "busy_s", "self_s"):
                m[key] += s[key]
            m["durations"].extend(s["durations"])
    return merged


def percentile_ms(durations, q: float) -> float:
    """Nearest-rank percentile in ms; 0.0 when there are no samples."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)] * 1e3


def layer_table(stats: dict, results: dict) -> dict:
    """Flat ``<layer>.<function>.<stat>`` metrics from traced runs' ``summarize`` table."""
    out = {}
    for name, s in stats.items():
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.errors"] = s["errors"]
        out[f"{name}.busy_s"] = s["busy_s"]
        out[f"{name}.self_s"] = s["self_s"]
        out[f"{name}.ms_p50"] = statistics.median(s["durations"]) * 1e3 if s["calls"] else 0.0
        # Below P99_MIN_CALLS the slowest call stands in for the 99th percentile.
        out[f"{name}.ms_p99"] = percentile_ms(
            s["durations"], 99 if s["calls"] >= P99_MIN_CALLS else 100)
    spm = stats.get("phasematch.solve_phase_match")
    out["phasematch.no_root_frac"] = spm["errors"] / spm["calls"] if spm and spm["calls"] else 0.0
    cells = sum(g["ns"] * g["ni"] for g in results.get("spectra.build_jsa", []))
    busy = stats.get("spectra.build_jsa", {}).get("busy_s", 0.0)
    out["spectra.build_jsa.cells"] = cells
    out["spectra.build_jsa.mcells_per_s"] = cells / busy / 1e6 if busy > 0 else 0.0
    return out
