"""Differential test of the clean-row probe path of :class:`DQueryService`.

``DQueryService._probe_segment`` answers every range search on a row no
Theorem 9 overlay has touched from the row's cached ancestor list
(:meth:`StructureD.up_neighbors`) instead of calling
:meth:`StructureD.neighbor_on_segment`, and adds the Theorem 8 counts of
those searches in bulk.  The reference here is the same driver on a
structure that reports *every* row dirty, so every search takes the scalar
call.  After every update both must hold the same tree and the same
``d_vertex_queries`` / ``d_probes``, on both backends, with the default and
the per-update rebuild policy.  The update streams cover all four overlay
kinds and re-insert deleted vertex ids.
"""

from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.backends import HAVE_NUMPY, structure_class
from repro.core import dynamic_dfs
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.overlay import apply_update
from repro.core.structure_d import StructureD
from repro.core.updates import EdgeDeletion, EdgeInsertion, VertexDeletion, VertexInsertion
from repro.graph.generators import gnm_random_graph
from repro.metrics.counters import MetricsRecorder
from repro.workloads.scenarios import build_scenario

BACKENDS = ["dict"] + (["array"] if HAVE_NUMPY else [])
REBUILD_POLICIES = (None, 1)
MODEL_COUNTERS = ("d_vertex_queries", "d_probes")


class _EveryVertex:
    def __contains__(self, v) -> bool:
        return True


class _EveryRowDirty:
    """Structure mixin that sends every search down the scalar path."""

    def dirty_rows(self):
        return _EveryVertex()


def _scalar_class(backend: str) -> type:
    base = structure_class(backend)
    return type(f"Scalar{base.__name__}", (_EveryRowDirty, base), {})


def _driver(graph, backend, rebuild_every, *, scalar):
    cls = _scalar_class(backend) if scalar else structure_class(backend)
    metrics = MetricsRecorder("probe", strict=True)
    with mock.patch.object(dynamic_dfs, "structure_class", lambda _name: cls):
        driver = FullyDynamicDFS(
            graph,
            backend=backend,
            rebuild_every=rebuild_every,
            metrics=metrics,
        )
    return driver, metrics


def _decode(graph, ops):
    """Integer triples -> a valid update stream, like ``tests.helpers.decode_ops``
    plus one more op kind that re-inserts the most recently deleted vertex id."""
    scratch = graph.copy()
    deleted = []
    next_vertex = 10**6
    updates = []
    for kind, a, b in ops:
        verts = sorted(scratch.vertices())
        kind %= 5
        if kind in (0, 3):  # edge toggle
            if len(verts) < 2:
                continue
            u = verts[a % len(verts)]
            v = verts[b % len(verts)]
            if u == v:
                v = verts[(b + 1) % len(verts)]
            update = EdgeDeletion(u, v) if scratch.has_edge(u, v) else EdgeInsertion(u, v)
        elif kind == 1:  # vertex deletion
            if len(verts) <= 3:
                continue
            update = VertexDeletion(verts[a % len(verts)])
            deleted.append(update.v)
        else:  # vertex insertion: a re-used id (kind 4) or a fresh one
            neighbors = tuple(verts[i] for i in range(min(len(verts), 6)) if (b >> i) & 1)
            if kind == 4 and deleted:
                v = deleted.pop()
            else:
                v = next_vertex
                next_vertex += 1
            update = VertexInsertion(v, neighbors)
        apply_update(scratch, update)
        updates.append(update)
    return updates


def _assert_identical(graph, updates, backend, rebuild_every):
    fast, fast_m = _driver(graph, backend, rebuild_every, scalar=False)
    ref, ref_m = _driver(graph, backend, rebuild_every, scalar=True)
    label = f"{backend}/rebuild_every={rebuild_every}"
    for step, update in enumerate(updates):
        fast.apply(update)
        ref.apply(update)
        where = f"{label} step {step} ({update.describe()})"
        assert fast.parent_map() == ref.parent_map(), where
        for key in MODEL_COUNTERS:
            assert fast_m.get(key) == ref_m.get(key), f"{where}: {key}"
    return fast


@st.composite
def _cases(draw):
    n = draw(st.integers(min_value=4, max_value=12))
    m = draw(st.integers(min_value=n - 1, max_value=min(3 * n, n * (n - 1) // 2)))
    seed = draw(st.integers(min_value=0, max_value=999))
    ops = draw(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 15), st.integers(0, 63)),
            min_size=1,
            max_size=10,
        )
    )
    return gnm_random_graph(n, m, seed=seed), ops


@settings(max_examples=25)
@given(_cases())
def test_fast_path_matches_scalar_reference_at_every_step(case):
    graph, ops = case
    updates = _decode(graph, ops)
    assume(updates)
    for backend in BACKENDS:
        for rebuild_every in REBUILD_POLICIES:
            _assert_identical(graph, updates, backend, rebuild_every)


def _trajectory(graph, updates, backend, *, scalar):
    """Per-update (parent map, model counters) with a rebuild every 4th
    update, and the number of scalar ``neighbor_on_segment`` calls."""
    calls = 0
    original = StructureD.neighbor_on_segment

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        return original(self, *args, **kwargs)

    steps = []
    with mock.patch.object(StructureD, "neighbor_on_segment", counting):
        driver, metrics = _driver(graph, backend, 4, scalar=scalar)
        for update in updates:
            driver.apply(update)
            counters = tuple(metrics.get(key) for key in MODEL_COUNTERS)
            steps.append((driver.parent_map(), counters))
    assert driver.is_valid()
    return steps, calls


@pytest.mark.parametrize("backend", BACKENDS)
def test_fast_path_skips_scalar_calls_with_reused_rows(backend):
    """The fast path really runs (fewer scalar calls, same trees and
    counters), also with a re-used vertex id."""
    scenario = build_scenario("social_network_churn", n=60, seed=0, updates=30)
    final = scenario.graph.copy()
    for update in scenario.updates:
        apply_update(final, update)
    victim = max(sorted(final.vertices()), key=final.degree)
    keep = tuple(sorted(final.neighbors(victim))[:2])
    updates = list(scenario.updates) + [VertexDeletion(victim), VertexInsertion(victim, keep)]
    fast, fast_calls = _trajectory(scenario.graph, updates, backend, scalar=False)
    ref, ref_calls = _trajectory(scenario.graph, updates, backend, scalar=True)
    assert fast == ref
    assert fast[-1][1][1] > 0  # d_probes
    assert fast_calls < ref_calls / 2
