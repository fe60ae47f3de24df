"""Recovery from invariant violations: one catch point in ``UpdateEngine``.

The traversal layer and the reroot engines raise :class:`InvariantViolation`
instead of patching a broken paper invariant.  These tests force such a
violation on chosen updates of ``social_network_churn`` that reroot, by
patching :meth:`TraversalPlanner.step`, for every driver on every
storage backend:

* ``validate=False`` — the update commits a static DFS of the updated graph,
  ``update_recoveries`` counts the injections, every later tree is valid,
  parent maps stay byte-identical across drivers, ``DFSTreeService``
  publishes one snapshot per commit with monotone versions, and a raising
  commit listener stays isolated;
* ``validate=True`` — the violation propagates out of ``apply``.
"""

from __future__ import annotations

import pytest

from repro.backends import HAVE_NUMPY
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.fault_tolerant import FaultTolerantDFS
from repro.core.traversals import TraversalPlanner
from repro.distributed.distributed_dfs import DistributedDynamicDFS
from repro.exceptions import InvariantViolation
from repro.graph.traversal import static_dfs_forest
from repro.graph.validation import check_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.service import DFSTreeService
from repro.streaming.semi_streaming_dfs import SemiStreamingDynamicDFS
from repro.workloads.scenarios import build_scenario

BACKENDS = ["dict"] + (["array"] if HAVE_NUMPY else [])

#: 0-based indices of the updates whose first traversal step raises (each of
#: them reroots, so the injection fires on that very update).
INJECT_AT = (2, 9, 17)

#: label -> driver factory; ``FaultTolerantDFS`` replays the whole batch
#: through :meth:`query` instead of taking updates one by one.
COMBOS = [
    ("core", lambda g, m, b, v: FullyDynamicDFS(g, metrics=m, backend=b, validate=v)),
    ("core_rebuild_every_4", lambda g, m, b, v: FullyDynamicDFS(g, rebuild_every=4, metrics=m, backend=b, validate=v)),
    ("stream", lambda g, m, b, v: SemiStreamingDynamicDFS(g, metrics=m, backend=b, validate=v)),
    ("dist", lambda g, m, b, v: DistributedDynamicDFS(g, metrics=m, backend=b, validate=v)),
    ("fault_tolerant", lambda g, m, b, v: FaultTolerantDFS(g, metrics=m, backend=b, validate=v)),
]


def _scenario():
    scenario = build_scenario("social_network_churn", n=60, seed=0, updates=24)
    return scenario.graph, scenario.updates[:24]


class Injector:
    """Makes the first traversal step of each update in ``at`` raise.

    The update index is the number of commits seen so far, so
    :meth:`listener` must be registered on the driver.
    """

    def __init__(self, step):
        self._step = step
        self.at = set()
        self.commits = 0
        self.fired_at = []

    def reset(self, at):
        self.at = set(at)
        self.commits = 0
        self.fired_at = []

    def listener(self, tree):
        self.commits += 1

    def step(self, planner, comp):
        if self.commits in self.at:
            self.at.discard(self.commits)
            self.fired_at.append(self.commits)
            raise InvariantViolation(f"injected at update {self.commits}")
        return self._step(planner, comp)


@pytest.fixture
def inject(monkeypatch):
    injector = Injector(TraversalPlanner.step)
    monkeypatch.setattr(TraversalPlanner, "step", lambda planner, comp: injector.step(planner, comp))
    return injector


def _run(label, factory, backend, inject, validate):
    graph, updates = _scenario()
    metrics = MetricsRecorder(label, strict=True)
    driver = factory(graph, metrics, backend, validate)
    service = DFSTreeService(driver)
    maps, versions = [], []

    def record(tree):
        maps.append(tree.parent_map())
        versions.append(service.version)
        assert service.snapshot().parent_map() == maps[-1]

    def broken(tree):
        raise RuntimeError("a misbehaving observer")

    driver.add_commit_listener(inject.listener)
    driver.add_commit_listener(broken)
    driver.add_commit_listener(record)
    if label == "fault_tolerant":
        tree, final_graph = driver.query_with_graph(updates)
        assert check_dfs_tree(final_graph, tree.parent_map()) == []
    else:
        for i, update in enumerate(updates):
            driver.apply(update)
            assert driver.is_valid(), f"{label}/{backend}: invalid tree after update {i}"
            if i in INJECT_AT:
                assert driver.parent_map() == static_dfs_forest(driver.update_engine.backend.graph)
    return maps, versions, metrics


def test_injected_violations_recover_identically_everywhere(inject):
    reference = None
    for backend in BACKENDS:
        for label, factory in COMBOS:
            inject.reset(INJECT_AT)
            maps, versions, metrics = _run(label, factory, backend, inject, validate=False)
            assert inject.fired_at == list(INJECT_AT), f"{label}/{backend}"
            assert metrics["update_recoveries"] == len(INJECT_AT), f"{label}/{backend}"
            assert versions == list(range(1, len(maps) + 1)), f"{label}/{backend}"
            assert metrics["commit_listener_errors"] == len(maps), f"{label}/{backend}"
            if reference is None:
                reference = maps
            assert maps == reference, f"{label}/{backend} diverged from core/dict"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("label, factory", COMBOS, ids=[label for label, _ in COMBOS])
def test_injected_violation_propagates_under_validate(inject, label, factory, backend):
    inject.reset(INJECT_AT[:1])
    with pytest.raises(InvariantViolation, match="injected"):
        _run(label, factory, backend, inject, validate=True)
    assert inject.fired_at == list(INJECT_AT[:1])
