"""Span tracer for the traced benchmark run.

The program itself carries no spans yet, so the benchmark records them from
outside: :meth:`Tracer.install` replaces each public function listed in
:data:`LAYERS` with a wrapper, at the name its caller looks it up by (a
class attribute, or the module global the calling module imported), and
:meth:`Tracer.uninstall` puts the originals back.

A span is ``(name, start, end, parent, root)``: ``parent`` and ``root`` are
indices into :attr:`Tracer.spans` (``-1`` for none), so every span of one
update or one batch flush shares the index of its root span.  Only the
functions marked as roots open a span on their own; a non-root function
called outside any span (the benchmark's own correctness checks call
``DFSTree.parent_map``, for instance) is not recorded.  Spans stay in memory
until :meth:`Tracer.dump` writes them out.

Every wrapped function runs synchronously (no ``await`` inside), so one stack
serves the single-threaded asyncio loop of the serve phase as well.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List, Tuple

#: (module, attribute path, span name, opens a span outside any other span)
LAYERS: Tuple[Tuple[str, str, str, bool], ...] = (
    ("repro.core.engine", "UpdateEngine.apply", "core.engine.apply", True),
    ("repro.core.engine", "validate_update", "core.overlay.validate_update", False),
    ("repro.core.dynamic_dfs", "apply_update", "core.overlay.apply_update", False),
    ("repro.core.engine", "reduce_update", "core.reduction.reduce_update", False),
    ("repro.core.queries", "DQueryService.answer_batch", "core.queries.answer_batch", False),
    (
        "repro.core.reroot_parallel",
        "ParallelRerootEngine.reroot_many",
        "core.reroot_parallel.reroot_many",
        False,
    ),
    # ArrayStructureD inherits __init__, so this one patch covers both cores.
    ("repro.core.structure_d", "StructureD.__init__", "core.structure_d.build", False),
    ("repro.tree.dfs_tree", "DFSTree.__init__", "tree.dfs_tree.init", False),
    ("repro.tree.dfs_tree", "DFSTree.parent_map", "tree.dfs_tree.parent_map", False),
    ("repro.core.dynamic_dfs", "static_dfs_forest", "graph.traversal.static_dfs_forest", False),
    (
        "repro.baselines.static_recompute",
        "static_dfs_forest",
        "graph.traversal.static_dfs_forest",
        False,
    ),
    (
        "repro.baselines.static_recompute",
        "StaticRecomputeDFS.apply",
        "baselines.static_recompute.apply",
        True,
    ),
    ("repro.service.service", "DFSTreeService._publish", "service.publish", False),
    ("repro.service.batch", "BatchingQueryFront.flush", "service.batch.flush", True),
)

Span = Tuple[str, float, float, int, int]


class Tracer:
    """Records layer spans and the batching front's queueing delay."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._enqueued: List[float] = []
        #: Total and count of enqueue-to-flush-start delays (seconds).
        self.wait_s = 0.0
        self.waits = 0

    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> Tuple[int, float]:
        spans, stack = self.spans, self._stack
        idx = len(spans)
        parent, root = (stack[-1], stack[0]) if stack else (-1, idx)
        spans.append((name, 0.0, 0.0, parent, root))
        stack.append(idx)
        return idx, perf_counter()

    def _close(self, idx: int, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        name, _, _, parent, root = self.spans[idx]
        self.spans[idx] = (name, start, end, parent, root)

    def wrap(self, name: str, fn, *, root: bool = False):
        """*fn* wrapped so that each call records a span called *name*."""
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and not root:
                return fn(*args, **kwargs)
            idx, start = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, start)

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as a span (a root when none is open)."""
        idx, start = self._open(name)
        try:
            yield
        finally:
            self._close(idx, start)

    # ------------------------------------------------------------------ #
    def _patch(self, owner: object, attr: str, replacement: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every function of :data:`LAYERS` and the front's enqueue."""
        for module_name, path, name, root in LAYERS:
            owner: object = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            self._patch(owner, attr, self.wrap(name, vars(owner)[attr], root=root))

        from repro.service.batch import BatchingQueryFront

        enqueue = vars(BatchingQueryFront)["_enqueue"]
        flush = vars(BatchingQueryFront)["flush"]
        enqueued = self._enqueued

        def timed_enqueue(front, kind, args):
            enqueued.append(perf_counter())
            return enqueue(front, kind, args)

        def timed_flush(front):
            # flush() answers everything pending, so every stamped enqueue
            # waited from its stamp until now.
            if enqueued:
                now = perf_counter()
                self.wait_s += now * len(enqueued) - sum(enqueued)
                self.waits += len(enqueued)
                enqueued.clear()
            return flush(front)

        self._patch(BatchingQueryFront, "_enqueue", timed_enqueue)
        self._patch(BatchingQueryFront, "flush", timed_flush)

    def uninstall(self) -> None:
        """Restore every patched name (latest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def summary(self) -> Dict[Tuple[str, str], List[float]]:
        """``(root span name, span name) -> [calls, total ms, self ms]``.

        Self time is a span's duration minus the durations of its direct
        children; children run inside their parent one after another, so
        their durations never overlap."""
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[Tuple[str, str], List[float]] = {}
        for i, (name, start, end, _, root) in enumerate(spans):
            agg = out.setdefault((spans[root][0], name), [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += (end - start) * 1e3
            agg[2] += (end - start - child_s[i]) * 1e3
        return out

    def dump(self, path: str) -> None:
        """Write every span as JSON (times in seconds from the first span)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "root": r}
            for n, s, e, p, r in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh)
