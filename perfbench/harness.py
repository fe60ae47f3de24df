"""Workloads, timed phases and correctness checks of the end-to-end benchmark.

One run of a workload, in one process and on one thread:

1. **setup** - build the driver on the workload graph (plus the
   ``DFSTreeService`` and ``BatchingQueryFront`` where the workload serves
   reads while it writes) several times, and keep the last one;
2. **serve phase** - closed-loop reader coroutines on one asyncio loop, each
   awaiting one query at a time on the front; where the workload writes while
   it serves, a writer coroutine on the same loop applies the next update
   after every ``reads_per_update`` answered reads;
3. **writer phase** - a closed loop with one writer: the stream's updates go
   to the driver back to back in windows, each window then to the
   static-recompute yardstick, and each ``apply`` is timed on its own.

Every timing is scaled to a reference machine speed by :class:`SpeedProbe`.
Every correctness check runs outside the timed regions: each committed tree
is checked with ``check_dfs_tree``, a seeded sample of reads is compared with
``DFSTree.lca`` / ``DFSTree.path_length`` on the tree of the answering
version, and the parent map after exactly ``checkpoint`` updates is compared
with the digest pinned for the seed in ``pinned.json``.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import json
import math
import os
import random
import resource
from array import array
from collections import deque
from dataclasses import dataclass
from statistics import median
from time import perf_counter
from typing import Callable, Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.static_recompute import StaticRecomputeDFS
from repro.constants import is_virtual_root
from repro.core import FullyDynamicDFS
from repro.core.overlay import apply_update
from repro.graph.validation import check_dfs_tree
from repro.service import BatchingQueryFront, DFSTreeService
from repro.tree.dfs_tree import DFSTree
from repro.workloads.scenarios import build_scenario
from repro.workloads.updates import edge_churn, vertex_churn

from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED_PATH = os.path.join(HERE, "pinned.json")

#: Loop seconds between speed probes in the serve phase.  The machine's speed
#: can change within a tenth of a second: across ten runs, windows of 0.1 s
#: spread read_ms.p99 0.157, windows of 0.02 s 0.076.
PROBE_EVERY_S = 0.02
#: Writer-phase updates applied back to back between checks.
WINDOW = 32
#: Share of the run's seconds the serve phase gets; the writer phase gets the rest.
SERVE_SHARE = 0.25

#: The driver counters recorded at the checkpoint and pinned per seed.
PINNED_COUNTERS = (
    "queries",
    "d_vertex_queries",
    "d_probes",
    "reduction_tasks",
    "traversal_rounds",
    "d_builds",
    "overlay_served_updates",
    "snapshots_published",
)


@dataclass(frozen=True)
class Workload:
    """One named workload: a fixed scenario graph, the scenario's kind of
    update stream drawn from the seed, a storage backend, and whether a
    writer shares the serve phase's event loop."""

    name: str
    why: str
    scenario: str
    n: int
    backend: str
    stream: Callable
    stream_len: int
    serve_with_writer: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "edge_churn_dict",
            "the headline case: edge churn on a sparse random graph, where "
            "query answering dominates update time and most updates leave the tree unchanged",
            "sustained_churn",
            500,
            "dict",
            edge_churn,
            6000,
            False,
        ),
        Workload(
            "vertex_churn_array",
            "vertex arrivals and departures on the numpy core: every update changes "
            "the tree, runs the vertex reductions and reroots, and rebuilds the DFSTree",
            "social_network_churn",
            600,
            "array",
            vertex_churn,
            1000,
            False,
        ),
        Workload(
            "read_mostly_serve",
            "128 readers and one writer share one asyncio loop, so snapshot publish, "
            "lazy index builds and the batching front carry the time",
            "sustained_churn",
            500,
            "dict",
            edge_churn,
            4000,
            True,
        ),
    )
}


@dataclass(frozen=True)
class Plan:
    """Run sizes.  :data:`FULL` is the benchmark; :data:`TINY` the smoke test."""

    #: Key of this plan's digests in ``pinned.json``.
    name: str = "full"
    #: Writer-phase updates at least (so p95 has >= 10 samples beyond it),
    #: and the update count at which the checkpoint digest is taken.
    checkpoint: int = 200
    #: Graph size override (None = the workload's own).
    n: Optional[int] = None
    #: Cap on the generated stream (None = the workload's own).
    stream_len: Optional[int] = None
    setup_reps: int = 21
    readers: int = 128
    reads_per_update: int = 100_000
    #: Serve-phase writes at least (workloads with a writer only).
    serve_writes: int = 3
    #: Random vertex ids the readers draw their pairs from.
    pool_size: int = 1 << 16
    #: Every ``sample_every``-th read of each reader is checked by the oracle.
    sample_every: int = 64


FULL = Plan()
TINY = Plan(
    name="tiny",
    checkpoint=6,
    n=60,
    stream_len=40,
    setup_reps=2,
    readers=8,
    reads_per_update=2000,
    serve_writes=2,
    pool_size=256,
    sample_every=4,
)


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def digest(parent: Dict) -> str:
    """Order-independent digest of a parent map."""
    items = sorted((repr(v), repr(p)) for v, p in parent.items())
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile (NaN when there are no values)."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if not len(arr):
        return math.nan
    return float(arr[max(math.ceil(q / 100.0 * len(arr)) - 1, 0)])


def windowed_percentile(values, starts: Sequence[int], q: float) -> float:
    """Median over the windows ``values[starts[i]:starts[i + 1]]`` (the last
    one running to the end) of each window's *q*-th percentile, counting only
    windows with at least ten values beyond it.  A tail percentile of the
    serve loop moves with sub-second hiccups of a shared machine; the median
    over windows keeps the typical tail and drops the hiccups."""
    bounds = [*starts, len(values)]
    need = math.ceil(10 / (1 - q / 100.0))
    tails = [
        percentile(values[lo:hi], q) for lo, hi in zip(bounds, bounds[1:]) if hi - lo >= need
    ]
    return median(tails) if tails else percentile(values, q)


def centered_scale(times: Sequence[float], ratios: Sequence[float], half: int = 2) -> List[float]:
    """Scale ``times[i]`` by the median of the probe ratios
    ``ratios[i - half : i + half + 1]``: the probes just before and just
    after it.  ``ratios[i]`` is taken right before ``times[i]``."""
    return [t * median(ratios[max(i - half, 0) : i + half + 1]) for i, t in enumerate(times)]


def rate(count: float, seconds: float) -> float:
    """*count* per second (NaN for an empty or failed measurement)."""
    return count / seconds if seconds > 0 else math.nan


def pinned_counters(driver: FullyDynamicDFS) -> Dict[str, int]:
    counters = driver.metrics.as_dict()
    return {k: int(counters.get(k, 0)) for k in PINNED_COUNTERS}


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def add(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(what)

    def record(self, ok: bool, what: str) -> None:
        self.add(1, 0 if ok else 1, what)

    def tree(self, graph, tree, what: str) -> None:
        problems = check_dfs_tree(graph, tree.parent_map())
        self.record(not problems, f"{what}: {problems[:1]}")


class SpeedProbe:
    """Times a fixed pure-Python DFS that belongs to the benchmark, not to the
    program, to follow how fast this machine runs Python right now.

    The shared machines this benchmark runs on switch between a fast and a
    slow state every few seconds to minutes: the same static DFS took
    0.8-1.0 ms in one state and 1.5-1.9 ms in the other.  So every timing is
    scaled by the :meth:`factor` probed next to it (the probe's reference
    time over its time now) to what it would read at the reference speed.

    A probe runs right after program work, so it must not pay for that work.
    It runs with the garbage collector off (a bigger live heap would make a
    collection inside the probe dearer), and it times the faster of two
    passes after a warm-up pass (a program that touches more memory would
    leave the probe's data out of cache).  After adverse work (32 MB touched
    and 10^4 objects kept per step) a cold probe read 0.54 of its ratio after
    light work, and this probe 0.99.
    """

    #: Probe seconds at the reference speed (the fast state of a 2-core
    #: x86-64 VM at 2.0 GHz under CPython 3.11); a fixed scale, nothing more.
    REFERENCE_S = 2.0e-4

    def __init__(self, recent: int = 5) -> None:
        rng = random.Random(20170724)
        n, m = 300, 1200
        self._adj: Dict[int, List[int]] = {v: [] for v in range(n)}
        for _ in range(m):
            a, b = rng.randrange(n), rng.randrange(n)
            self._adj[a].append(b)
            self._adj[b].append(a)
        self._recent: Deque[float] = deque(maxlen=recent)
        self.factor()  # warm-up, not kept
        self._recent.clear()

    def factor(self) -> float:
        """Run the probe once; the factor that scales a time measured now to
        the reference speed (divide a rate by it): the median of the last
        *recent* probes, so that one disturbed probe does not scale a
        timing."""
        self._recent.append(self.ratio())
        return median(self._recent)

    def ratio(self) -> float:
        """Run the probe once: its reference time over its time now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._dfs()
            best = min(self._timed_dfs() for _ in range(2))
        finally:
            if enabled:
                gc.enable()
        return self.REFERENCE_S / best

    def _timed_dfs(self) -> float:
        t0 = perf_counter()
        self._dfs()
        return perf_counter() - t0

    def _dfs(self) -> None:
        adj = self._adj
        parent: Dict[int, Optional[int]] = {}
        for root in adj:
            if root in parent:
                continue
            parent[root] = None
            stack = [(root, iter(adj[root]))]
            while stack:
                v, it = stack[-1]
                for w in it:
                    if w not in parent:
                        parent[w] = v
                        stack.append((w, iter(adj[w])))
                        break
                else:
                    stack.pop()


@dataclass
class Inputs:
    """Everything a run needs, generated from the seed before any timing."""

    graph: object
    stream: list
    pool: List


def make_inputs(workload: Workload, seed: int, plan: Plan) -> Inputs:
    """The scenario's graph at its default seed, and an update stream and
    reader pairs drawn from *seed*.

    The graph stays fixed because the cost of a stream depends on the graph
    as much as on the stream: across eight seeds, the D range searches of
    200 vertex-churn updates spread (quartile distance over median) 0.26
    with a graph per seed and 0.095 on one graph."""
    graph = build_scenario(workload.scenario, n=plan.n or workload.n).graph
    stream = workload.stream(graph, plan.stream_len or workload.stream_len, seed=seed)
    verts = sorted(graph.vertices())
    rng = random.Random(seed * 1_000_003 + 7)
    pool = [verts[rng.randrange(len(verts))] for _ in range(2 * plan.pool_size)]
    return Inputs(graph, stream, pool)


#: Stands for ``None`` among the int-encoded read answers.
_NONE = -(1 << 62)


def _encode(answer) -> int:
    """A read answer (a vertex id, a bool, a length or None) as an int."""
    return _NONE if answer is None else int(answer)


# --------------------------------------------------------------------------- #
# Setup
# --------------------------------------------------------------------------- #
@dataclass
class System:
    driver: FullyDynamicDFS
    service: Optional[DFSTreeService] = None
    front: Optional[BatchingQueryFront] = None
    applied: int = 0
    #: Tree and pinned counters after exactly ``plan.checkpoint`` updates.
    checkpoint_tree: Optional[DFSTree] = None
    checkpoint_counters: Optional[Dict[str, int]] = None

    def committed(self, plan: "Plan") -> None:
        """Count one applied update; keep the checkpoint state when due
        (committed trees are immutable, so keeping one costs nothing)."""
        self.applied += 1
        if self.applied == plan.checkpoint:
            self.checkpoint_tree = self.driver.tree
            self.checkpoint_counters = pinned_counters(self.driver)

    def checkpoint(self) -> Optional[dict]:
        if self.checkpoint_tree is None:
            return None
        return {"digest": digest(self.checkpoint_tree.parent_map()), "counters": self.checkpoint_counters}


def build(workload: Workload, graph) -> System:
    """Construct the system under test on *graph* (not mutated)."""
    driver = FullyDynamicDFS(graph, backend=workload.backend)
    if not workload.serve_with_writer:
        return System(driver)
    service = DFSTreeService(driver, metrics=driver.metrics)
    front = BatchingQueryFront(service)
    # Build the initial snapshot's lazy indices: LCA (lca, path_length) and
    # the component intervals (connected).
    snap = service.snapshot()
    v = next(iter(driver.graph.vertices()))
    snap.lca(v, v)
    snap.connected(v, v)
    return System(driver, service, front)


@dataclass
class Setup:
    """Raw construction seconds and the probe factor taken before each."""

    raw: List[float]
    factors: List[float]

    def seconds(self, scaled: bool) -> float:
        """Median construction seconds, scaled (see :class:`SpeedProbe`) or raw."""
        return median([t * f for t, f in zip(self.raw, self.factors)] if scaled else self.raw)


def timed_setup(workload: Workload, graph, reps: int):
    """The last system built, and the :class:`Setup` timings of *reps*
    constructions (after one warm-up, not kept)."""
    probe = SpeedProbe()
    timings = Setup([], [])
    system = None
    for rep in range(reps + 1):
        system = None
        gc.collect()
        f = probe.factor()
        t0 = perf_counter()
        system = build(workload, graph)
        if rep:
            timings.raw.append(perf_counter() - t0)
            timings.factors.append(f)
    return system, timings


# --------------------------------------------------------------------------- #
# Serve phase
# --------------------------------------------------------------------------- #
@dataclass
class ServeResult:
    """Raw read latencies and serve-loop time, split into probe windows:
    window ``i`` holds ``latencies[starts[i]:starts[i + 1]]``, lasted
    ``spans[i]`` seconds and is scaled by ``factors[i]`` (see
    :class:`SpeedProbe`).  ``writer_s`` is the writer's raw ``apply`` time."""

    latencies: array
    starts: List[int]
    spans: List[float]
    factors: List[float]
    writer_s: float
    writes: int

    def reads(self, scaled: bool):
        """Read latencies and loop seconds, scaled or raw."""
        lat = np.asarray(self.latencies, dtype=np.float64)
        if not scaled:
            return lat, sum(self.spans)
        counts = np.diff([*self.starts, len(lat)])
        return lat * np.repeat(self.factors, counts), sum(t * f for t, f in zip(self.spans, self.factors))


def serve_phase(
    workload: Workload,
    system: System,
    inputs: Inputs,
    plan: Plan,
    tally: Tally,
    *,
    budget_s: float,
    exact_writes: bool,
) -> ServeResult:
    """Readers (and, on workloads that serve while writing, one writer) on one
    loop for *budget_s* seconds and at least ``plan.serve_writes`` writes;
    with *exact_writes* the writer stops at exactly that many.  A write that
    raises counts as failed and stops the phase."""
    driver = system.driver
    service, front = system.service, system.front
    detach = service is None
    if detach:
        service = DFSTreeService(driver, metrics=driver.metrics)
        front = BatchingQueryFront(service)
    with_writer = workload.serve_with_writer
    base_version = service.committed_version
    graph_before = driver.graph.copy() if with_writer else None
    trees = [driver.tree]
    applied: list = []
    # Sampled reads as (kind, a, b, answer, version) columns: arrays, not
    # tuples, so the benchmark adds no objects the garbage collector tracks
    # (surviving tuples would trigger full collections inside the loop).
    samples = [array("q") for _ in range(5)]
    lat = array("f")  # float32: ample for latencies, half the memory
    pool = inputs.pool
    stream = inputs.stream
    min_writes = plan.serve_writes if with_writer else 0
    state = {"stop": False, "next_write": plan.reads_per_update, "writer_s": 0.0, "errors": 0}
    # Seconds the loop spent in probes: taken out of read latencies and loop
    # time, which measure the program, not the benchmark.
    state.update(mark=0.0, probe_s=0.0)
    result = ServeResult(lat, [], [], [], 0.0, 0)

    async def reader(r: int) -> None:
        methods = (front.lca, front.connected, front.path_length)
        i = (2 * 997 * r) % len(pool)
        k = r
        every = plan.sample_every
        while not state["stop"]:
            a, b = pool[i], pool[i + 1]
            i = (i + 2) % len(pool)
            kind = k % 3
            k += 1
            t0, p0 = perf_counter(), state["probe_s"]
            try:
                res = await methods[kind](a, b)
            except Exception:
                state["errors"] += 1
                continue
            lat.append(perf_counter() - t0 - (state["probe_s"] - p0))
            if k % every == 0:
                for column, value in zip(samples, (kind, a, b, _encode(res.answer), res.version)):
                    column.append(value)
            if with_writer and len(lat) >= state["next_write"]:
                wake.set()

    async def writer() -> None:
        try:
            while True:
                await wake.wait()
                wake.clear()
                if state["stop"]:
                    return
                if len(applied) >= len(stream):
                    raise RuntimeError("update stream exhausted in the serve phase")
                update = stream[len(applied)]
                t0 = perf_counter()
                driver.apply(update)
                state["writer_s"] += perf_counter() - t0
                system.committed(plan)
                applied.append(update)
                trees.append(driver.tree)
                state["next_write"] += plan.reads_per_update
                if len(applied) >= min_writes:
                    enough.set()
                    if exact_writes:
                        return
        except Exception as exc:
            tally.record(False, f"serve write {len(applied)} raised {exc!r}")
            state["stop"] = True
        finally:
            # However the writer ends, the phase must not wait for it.
            enough.set()

    def reprobe(reopen: bool = True) -> None:
        """Close the current probe window (if any) and, with *reopen*, open
        the next one."""
        now = perf_counter()
        if result.starts:
            result.spans.append(now - state["mark"])
        if reopen:
            result.starts.append(len(lat))
            result.factors.append(probe.factor())
            state["mark"] = perf_counter()
            state["probe_s"] += state["mark"] - now

    async def prober() -> None:
        # A probe (about 0.55 ms) holds up the reads in flight, a few % of
        # the reads: enough to set read_ms.p99 if it were not taken out.
        while not state["stop"]:
            await asyncio.sleep(PROBE_EVERY_S)
            reprobe()

    async def main() -> None:
        reprobe()
        tasks = [asyncio.create_task(reader(r)) for r in range(plan.readers)]
        tasks.append(asyncio.create_task(prober()))
        if with_writer:
            tasks.append(asyncio.create_task(writer()))
        else:
            enough.set()
        await asyncio.sleep(0.0 if exact_writes and with_writer else budget_s)
        await enough.wait()
        state["stop"] = True
        wake.set()
        await asyncio.gather(*tasks)
        reprobe(reopen=False)

    wake = asyncio.Event()
    enough = asyncio.Event()
    # Probes come every PROBE_EVERY_S here, so a shorter median keeps up
    # with the machine's state changes.
    probe = SpeedProbe(recent=3)
    gc.collect()
    asyncio.run(main())
    if detach:
        service.close()
    result.writer_s = state["writer_s"]
    result.writes = len(applied)

    # Checks, outside the timed loop.
    errors = state["errors"]
    tally.add(len(lat) + errors, errors, f"{errors} reads raised")
    for j, update in enumerate(applied):
        apply_update(graph_before, update)
        tally.tree(graph_before, trees[j + 1], f"serve write {j}")
    for kind, a, b, answer, version in zip(*samples):
        tree = trees[version - base_version]
        lca = tree.lca(a, b)
        apart = is_virtual_root(lca)
        if kind == 0:
            want = None if apart else lca
        elif kind == 1:
            want = not apart
        else:
            want = None if apart else tree.path_length(a, b)
        if answer != _encode(want):
            query = f"{('lca', 'connected', 'path_length')[kind]}({a!r}, {b!r})"
            tally.add(0, 1, f"read {query} at v{version}: got {answer!r}, want {want!r}")
    return result


# --------------------------------------------------------------------------- #
# Writer phase
# --------------------------------------------------------------------------- #
@dataclass
class WriterResult:
    """Raw update and yardstick latencies, the probe ratio taken right before
    each (plus one after the last), and the updates that changed the tree."""

    latencies: List[float]
    static_latencies: List[float]
    ratios: List[float]
    static_ratios: List[float]
    changed: int

    def updates(self, scaled: bool):
        """Update and yardstick latencies, scaled (see :func:`centered_scale`) or raw."""
        if not scaled:
            return self.latencies, self.static_latencies
        return centered_scale(self.latencies, self.ratios), centered_scale(self.static_latencies, self.static_ratios)


def writer_phase(
    system: System,
    graph,
    stream: Sequence,
    plan: Plan,
    tally: Tally,
    *,
    offset: int,
    budget_s: float,
    exact: bool,
    yardstick: bool,
) -> WriterResult:
    """Apply ``stream[offset:]`` until at least ``plan.checkpoint`` updates
    and *budget_s* seconds of ``apply`` (exactly ``plan.checkpoint`` updates
    with *exact*), and with *yardstick* the same updates to the static
    yardstick, which starts from the workload *graph* (a plain
    ``UndirectedGraph`` whatever the driver's backend) with
    ``stream[:offset]`` applied.

    Updates run back to back in windows of :data:`WINDOW` updates, as a
    writer applies them; after each window the yardstick applies the same
    updates back to back, then the window's trees are checked against a
    replay of its updates.  Windowing keeps both timings close in time and
    the kept trees few."""
    driver = system.driver
    static = None
    if yardstick:
        static = StaticRecomputeDFS(graph)
        for update in stream[:offset]:
            apply_update(static.graph, update)
    replay = driver.graph.copy()
    # Probe ratios are taken right before each update and each yardstick
    # update; the probe before the next one follows it, so each timing is
    # scaled post hoc by the median of the ratios around it.
    result = WriterResult([], [], [], [], 0)
    busy = 0.0
    probe = SpeedProbe()
    todo = stream[offset:]
    if len(todo) < plan.checkpoint:
        raise ValueError(f"stream too short: {len(todo)} updates left, need {plan.checkpoint}")
    window: list = []

    def close_window() -> bool:
        if static is not None:
            for update, _ in window:
                try:
                    result.static_ratios.append(probe.ratio())
                    t0 = perf_counter()
                    static.apply(update)
                    result.static_latencies.append(perf_counter() - t0)
                except Exception as exc:
                    tally.record(False, f"static {update.describe()} raised {exc!r}")
                    return False
        for update, tree in window:
            apply_update(replay, update)
            tally.tree(replay, tree, f"after {update.describe()}")
        window.clear()
        return True

    gc.collect()
    for i, update in enumerate(todo):
        if i >= plan.checkpoint and (exact or busy >= budget_s):
            break
        before = driver.tree
        try:
            result.ratios.append(probe.ratio())
            t0 = perf_counter()
            driver.apply(update)
            dt = perf_counter() - t0
        except Exception as exc:
            tally.record(False, f"update {offset + i} ({update.describe()}) raised {exc!r}")
            break
        system.committed(plan)
        busy += dt
        result.latencies.append(dt)
        result.changed += driver.tree is not before
        window.append((update, driver.tree))
        if len(window) == WINDOW and not close_window():
            break
    if window:
        close_window()
    if static is not None:
        # The yardstick recomputes from scratch, so its last tree stands for
        # all of them; checking each would double the run's checking time.
        tally.tree(static.graph, static.tree, "static yardstick")
    result.ratios.append(probe.ratio())
    result.static_ratios.append(probe.ratio())
    return result


# --------------------------------------------------------------------------- #
# Runs
# --------------------------------------------------------------------------- #
def load_pinned() -> Dict:
    with open(PINNED_PATH) as fh:
        return json.load(fh)


def check_pinned(workload: Workload, plan: Plan, seed: int, checkpoint: Optional[dict], tally: Tally) -> None:
    """Compare the checkpoint with the pin for *seed*, when one exists."""
    pin = load_pinned().get(plan.name, {}).get(workload.name, {}).get(str(seed))
    if pin is None:
        return
    tally.record(
        checkpoint == pin,
        f"checkpoint {checkpoint} differs from pinned {pin}",
    )


@dataclass
class Pass:
    system: System
    setup: Optional[Setup]
    serve: ServeResult
    writer: WriterResult

    def throughput(self, workload: Workload) -> float:
        """Scaled ``reads_per_s`` where a writer shares the serve loop, else
        scaled ``updates_per_s``: the rate the workload is chosen for."""
        if workload.serve_with_writer:
            reads, loop_s = self.serve.reads(scaled=True)
            return rate(len(reads), loop_s)
        lat, _ = self.writer.updates(scaled=True)
        return rate(len(lat), sum(lat))


def phases(workload, system, inputs, plan, tally, *, seconds, exact, yardstick, setup=None) -> Pass:
    """Serve phase -> writer phase on *system*."""
    serve_s = seconds * SERVE_SHARE
    serve = serve_phase(workload, system, inputs, plan, tally, budget_s=serve_s, exact_writes=exact)
    writer = writer_phase(
        system,
        inputs.graph,
        inputs.stream,
        plan,
        tally,
        offset=serve.writes,
        budget_s=seconds - serve_s,
        exact=exact,
        yardstick=yardstick,
    )
    tally.record(system.checkpoint_tree is not None, "checkpoint not reached")
    return Pass(system, setup, serve, writer)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Units of the end-to-end metrics, in the order they are reported.
UNITS = {
    "setup_s": "s",
    "update_ms.p50": "ms",
    "update_ms.p95": "ms",
    "updates_per_s": "1/s",
    "static_update_ms.p50": "ms",
    "read_ms.p50": "ms",
    "read_ms.p99": "ms",
    "reads_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def timing_metrics(run: Pass, scaled: bool) -> Dict[str, float]:
    """Every timed end-to-end metric of *run*, from its scaled or raw timings."""
    lat, static_lat = run.writer.updates(scaled)
    reads, loop_s = run.serve.reads(scaled)
    return {
        "setup_s": run.setup.seconds(scaled),
        "update_ms.p50": percentile(lat, 50) * 1e3,
        "update_ms.p95": percentile(lat, 95) * 1e3,
        "updates_per_s": rate(len(lat), sum(lat)),
        "static_update_ms.p50": percentile(static_lat, 50) * 1e3,
        "read_ms.p50": percentile(reads, 50) * 1e3,
        "read_ms.p99": windowed_percentile(reads, run.serve.starts, 99) * 1e3,
        "reads_per_s": rate(len(reads), loop_s),
    }


def end_to_end(workload: Workload, inputs: Inputs, plan: Plan, seed: int, seconds: float, tally: Tally):
    """The untraced run: every end-to-end metric."""
    system, setup = timed_setup(workload, inputs.graph, plan.setup_reps)
    run = phases(workload, system, inputs, plan, tally, seconds=seconds, exact=False, yardstick=True, setup=setup)
    checkpoint = run.system.checkpoint()
    check_pinned(workload, plan, seed, checkpoint, tally)
    values = {**timing_metrics(run, scaled=True), "peak_rss_mb": peak_rss_mb()}
    metrics = {k: (values[k], unit) for k, unit in UNITS.items()}
    details = {
        "raw": timing_metrics(run, scaled=False),
        "speed": {"serve": median(run.serve.factors), "writer": median(run.writer.ratios)},
        "updates": len(run.writer.latencies),
        "reads": len(run.serve.latencies),
        "serve_writes": run.serve.writes,
        "checkpoint": checkpoint,
        "final_digest": digest(run.system.driver.tree.parent_map()),
    }
    return metrics, details


def traced(workload: Workload, inputs: Inputs, plan: Plan, seed: int, seconds: float, tally: Tally, out_dir: str):
    """The traced run: the same work untraced, traced, and untraced again;
    every per-layer metric.  All passes run the same phases, yardstick
    included, so the tracer is the only difference between them, and the
    untraced passes on both sides of the traced one cancel the drift of the
    machine's speed and the first pass's warm-up."""

    def untraced() -> Pass:
        return phases(
            workload, build(workload, inputs.graph), inputs, plan, tally, seconds=seconds, exact=True, yardstick=True
        )

    before = untraced()
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            system = build(workload, inputs.graph)
        run = phases(workload, system, inputs, plan, tally, seconds=seconds, exact=True, yardstick=True)
    finally:
        tracer.uninstall()
    after = untraced()
    serve, writer = run.serve, run.writer
    checkpoint = system.checkpoint()
    check_pinned(workload, plan, seed, checkpoint, tally)
    final = digest(system.driver.tree.parent_map())
    # Tracing must not change what the program computes.
    for ref in (before, after):
        tally.record(checkpoint == ref.system.checkpoint(), "traced checkpoint differs from untraced")
        tally.record(final == digest(ref.system.driver.tree.parent_map()), "traced final tree differs from untraced")
    ref_rate = (before.throughput(workload) + after.throughput(workload)) / 2

    agg = tracer.summary()
    writer_roots = ("setup", "core.engine.apply")

    def total(name: str, field: int, roots=None) -> float:
        return sum(v[field] for (root, n), v in agg.items() if n == name and (roots is None or root in roots))

    counters = system.driver.metrics.as_dict()

    def count(key: str) -> int:
        return int(counters.get(key, 0))

    updates = count("updates")
    apply_ms = total("core.engine.apply", 1)
    flushes = int(total("service.batch.flush", 0))
    metrics = {
        "core.engine.updates": (updates, "count"),
        "core.engine.apply.ms": (apply_ms, "ms"),
        "core.engine.apply.self_ms": (total("core.engine.apply", 2), "ms"),
        "core.engine.tree_changed_frac": (writer.changed / max(len(writer.latencies), 1), "ratio"),
        "core.engine.overlay_served_frac": (count("overlay_served_updates") / max(updates, 1), "ratio"),
        "core.overlay.validate_update.ms": (total("core.overlay.validate_update", 1), "ms"),
        "core.overlay.apply_update.ms": (total("core.overlay.apply_update", 1), "ms"),
        "core.queries.answer_batch.self_ms": (total("core.queries.answer_batch", 2), "ms"),
        "core.queries.update_share": (
            total("core.queries.answer_batch", 2, ("core.engine.apply",)) / max(apply_ms, 1e-9),
            "ratio",
        ),
        "core.queries.queries": (count("queries"), "count"),
        "core.queries.vertex_queries_per_query": (
            count("d_vertex_queries") / max(count("queries"), 1),
            "ratio",
        ),
        "core.structure_d.vertex_queries": (count("d_vertex_queries"), "count"),
        "core.structure_d.probes": (count("d_probes"), "count"),
        "core.structure_d.build.ms": (total("core.structure_d.build", 1), "ms"),
        "core.structure_d.build.calls": (count("d_builds"), "count"),
        "core.reduction.reduce_update.self_ms": (total("core.reduction.reduce_update", 2), "ms"),
        "core.reduction.tasks": (count("reduction_tasks"), "count"),
        "core.reroot_parallel.reroot_many.self_ms": (total("core.reroot_parallel.reroot_many", 2), "ms"),
        "core.reroot_parallel.traversal_rounds": (count("traversal_rounds"), "count"),
        "tree.dfs_tree.init.ms": (total("tree.dfs_tree.init", 1, writer_roots), "ms"),
        "tree.dfs_tree.init.calls": (int(total("tree.dfs_tree.init", 0, writer_roots)), "count"),
        "tree.dfs_tree.parent_map.ms": (total("tree.dfs_tree.parent_map", 1, writer_roots), "ms"),
        "graph.traversal.static_dfs_forest.ms": (total("graph.traversal.static_dfs_forest", 1), "ms"),
        "service.publish.ms": (total("service.publish", 1), "ms"),
        "service.snapshot.index_build_ms": (counters.get("snapshot_build_ms", 0.0), "ms"),
        "service.snapshots_published": (count("snapshots_published"), "count"),
        "service.batch.flush.ms": (total("service.batch.flush", 1), "ms"),
        "service.batch.flush.calls": (flushes, "count"),
        "service.batch.queries_per_flush": (count("queries_served") / max(flushes, 1), "ratio"),
        "service.batch.wait_ms": (tracer.wait_s / max(tracer.waits, 1) * 1e3, "ms"),
        "service.writer_share": (rate(serve.writer_s, sum(serve.spans)), "ratio"),
        # Scaled rates, so that a change of machine state between the passes
        # does not pass for tracing overhead.
        "trace.overhead_frac": (ref_rate / run.throughput(workload) - 1.0, "ratio"),
    }
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.json"))
    details = {
        "updates": len(writer.latencies),
        "reads": len(serve.latencies),
        "serve_writes": serve.writes,
        "checkpoint": checkpoint,
        "final_digest": final,
        "spans": len(tracer.spans),
    }
    return metrics, details


def run(name: str, seed: int, seconds: float, trace: bool, *, plan: Plan = FULL, out_dir: str = ".bench_out") -> Dict:
    """Run one workload; returns the result line plus ``details``."""
    workload = WORKLOADS[name]
    inputs = make_inputs(workload, seed, plan)
    tally = Tally()
    if trace:
        metrics, details = traced(workload, inputs, plan, seed, seconds, tally, out_dir)
    else:
        metrics, details = end_to_end(workload, inputs, plan, seed, seconds, tally)
    for key, (value, _) in metrics.items():
        tally.record(math.isfinite(value), f"metric {key} is {value}")
    details["problems"] = tally.problems
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "details": details,
    }
