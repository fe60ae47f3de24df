"""Shared machine-readable trajectory state for the benchmark suite.

This lives outside ``conftest.py`` on purpose: pytest imports the conftest
under its own module name while benchmark modules import
``benchmarks.conftest`` as a package module, which yields *two* module
instances.  Keeping the accumulator here — a single module in
``sys.modules`` — makes ``emit_bench`` from either side land in the same
dict the session-finish writer drains.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from statistics import median
from typing import Callable, Dict, Optional, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# Allow quick smoke runs of the benchmark suite: REPRO_BENCH_SCALE=small
SCALE = os.environ.get("REPRO_BENCH_SCALE", "normal")

#: experiment name -> accumulated BENCH_<experiment>.json payload
_BENCH_JSON: Dict[str, dict] = {}


def emit_bench(
    experiment: str,
    *,
    timings_ms: Optional[Dict[str, float]] = None,
    counters: Optional[Dict[str, float]] = None,
    tables: Optional[Dict[str, dict]] = None,
    asserts: Optional[Dict[str, float]] = None,
) -> None:
    """Accumulate results for ``BENCH_<experiment>.json`` (written at session
    end).  *timings_ms* are median-of-k wall-clock medians, *counters* the
    deterministic model counters the experiment asserts on, *tables* the
    scaling tables, *asserts* the floors/ceilings the experiment enforced
    (e.g. ``{"rebuild_speedup_min": 10}``)."""
    rec = _BENCH_JSON.setdefault(
        experiment,
        {
            "schema": 1,
            "experiment": experiment,
            "scale": SCALE,
            "timings_ms": {},
            "counters": {},
            "tables": {},
            "asserts": {},
        },
    )
    for key, update in (
        ("timings_ms", timings_ms),
        ("counters", counters),
        ("tables", tables),
        ("asserts", asserts),
    ):
        if update:
            rec[key].update(update)


def timed_median(fn: Callable[[], object], k: int = 5, warmup: int = 1) -> Tuple[float, object]:
    """Run *fn* ``warmup`` untimed times then ``k`` timed times; return
    ``(median_ms, last_result)``.  The warmup round absorbs one-shot costs
    (allocator page faults, lazy caches) that are not the steady-state claim
    the large-tier assertions are about."""
    result = None
    for _ in range(warmup):
        result = fn()
    samples = []
    for _ in range(k):
        t0 = time.perf_counter()
        result = fn()
        samples.append((time.perf_counter() - t0) * 1000.0)
    samples.sort()
    return samples[len(samples) // 2], result


def timed_ratio(
    slow: Callable[[], object], fast: Callable[[], object], k: int = 5, warmup: int = 1
) -> Tuple[float, float, float, object, object]:
    """Time *slow* and then *fast* in each of ``k`` rounds; each timed call
    comes right after ``warmup`` untimed calls of the same side.

    Returns ``(slow_ms, fast_ms, ratio, slow_result, fast_result)``: the
    median time of each side and the median of the per-round ``slow / fast``
    ratios.  The two sides of a round share one speed window of the machine,
    so a slow phase cancels out of that round's ratio instead of landing on
    one side of the comparison only.  The per-side warm-up keeps each timed
    call out of the cache and allocator state the other side left behind,
    which is not part of either side's steady-state cost."""

    def timed(fn: Callable[[], object]) -> Tuple[float, object]:
        for _ in range(warmup):
            fn()
        t0 = time.perf_counter()
        result = fn()
        return (time.perf_counter() - t0) * 1000.0, result

    slow_ms, fast_ms, ratios = [], [], []
    for _ in range(k):
        s_ms, slow_result = timed(slow)
        f_ms, fast_result = timed(fast)
        slow_ms.append(s_ms)
        fast_ms.append(f_ms)
        ratios.append(s_ms / f_ms)
    return median(slow_ms), median(fast_ms), median(ratios), slow_result, fast_result


def write_bench_files() -> None:
    """Write one ``BENCH_<experiment>.json`` per accumulated experiment."""
    if os.environ.get("REPRO_BENCH_JSON", "1") == "0" or not _BENCH_JSON:
        return
    outdir = pathlib.Path(os.environ.get("REPRO_BENCH_JSON_DIR", str(REPO_ROOT)))
    outdir.mkdir(parents=True, exist_ok=True)
    for experiment, rec in sorted(_BENCH_JSON.items()):
        path = outdir / f"BENCH_{experiment}.json"
        path.write_text(json.dumps(rec, indent=2, sort_keys=True) + "\n")
