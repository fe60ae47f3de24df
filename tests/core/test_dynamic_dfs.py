"""Integration tests for the fully dynamic DFS driver."""

import pytest

from tests.helpers import make_updates, small_graph_family
from repro.constants import VIRTUAL_ROOT
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.core.updates import EdgeInsertion
from repro.exceptions import UpdateError
from repro.graph.generators import gnp_random_graph, path_graph
from repro.graph.validation import is_valid_dfs_forest


def test_maintains_valid_forest_under_mixed_updates_all_engines():
    for name, graph in small_graph_family():
        updates = make_updates(graph, 12, seed=hash(name) % 10**6)
        for engine in ("parallel", "sequential"):
            dyn = FullyDynamicDFS(graph, engine=engine, validate=True)
            dyn.apply_all(updates)
            assert dyn.is_valid(), (name, engine)


def test_d_service_and_brute_service_both_stay_valid():
    graph = gnp_random_graph(45, 0.1, seed=3, connected=True)
    updates = make_updates(graph, 20, seed=11)
    for service in ("d", "brute"):
        dyn = FullyDynamicDFS(graph, service=service, validate=True)
        dyn.apply_all(updates)
        assert dyn.is_valid()


def test_vertex_set_tracks_graph():
    graph = gnp_random_graph(30, 0.12, seed=5, connected=True)
    dyn = FullyDynamicDFS(graph, validate=True)
    dyn.delete_vertex(7)
    assert 7 not in dyn.tree
    assert not dyn.graph.has_vertex(7)
    dyn.insert_vertex("x", [0, 3])
    assert "x" in dyn.tree
    parent = dyn.parent_map(include_virtual_root=False)
    assert set(parent) == set(dyn.graph.vertices())


def test_back_edge_updates_do_not_change_tree():
    graph = path_graph(10)
    dyn = FullyDynamicDFS(graph, validate=True)
    before = dyn.parent_map()
    dyn.insert_edge(0, 9)  # back edge of the path DFS tree
    assert dyn.parent_map() == before
    dyn.delete_edge(0, 9)
    assert dyn.parent_map() == before


def test_disconnection_and_reconnection():
    graph = path_graph(8)
    dyn = FullyDynamicDFS(graph, validate=True)
    dyn.delete_edge(3, 4)
    roots = dyn.roots()
    assert len(roots) == 2
    assert is_valid_dfs_forest(dyn.graph, dyn.tree.parent_map())
    dyn.insert_edge(0, 7)
    assert len(dyn.roots()) == 1
    assert dyn.is_valid()


def test_error_propagation_and_graph_isolation():
    graph = path_graph(5)
    dyn = FullyDynamicDFS(graph)
    # Malformed updates surface as UpdateError (the update-API taxonomy), not
    # as the underlying graph-store exception types.
    with pytest.raises(UpdateError):
        dyn.delete_edge(0, 4)
    with pytest.raises(UpdateError):
        dyn.insert_edge(2, 2)  # self loop
    with pytest.raises(UpdateError):
        dyn.insert_vertex(3)  # duplicate id
    # The original graph object is untouched by the driver's updates.
    dyn.delete_edge(0, 1)
    assert graph.has_edge(0, 1)


def test_failed_updates_do_not_skew_metrics():
    graph = path_graph(6)
    dyn = FullyDynamicDFS(graph)
    before = dyn.metrics.as_dict()
    for bad in range(3):
        with pytest.raises(UpdateError):
            dyn.delete_edge(0, 5)
    delta = dyn.metrics.snapshot_delta(before)
    # A rejected update must not consume an `updates` tick nor enter the
    # update timer: benchmark denominators stay exact.
    assert delta.get("updates", 0) == 0
    assert delta.get("time_update", 0) == 0
    dyn.delete_edge(0, 1)
    assert dyn.metrics.snapshot_delta(before)["updates"] == 1


def test_invalid_configuration_rejected():
    graph = path_graph(4)
    with pytest.raises(ValueError):
        FullyDynamicDFS(graph, engine="quantum")
    with pytest.raises(ValueError):
        FullyDynamicDFS(graph, service="oracle")


def test_metrics_accumulate_per_update():
    graph = gnp_random_graph(40, 0.1, seed=9, connected=True)
    dyn = FullyDynamicDFS(graph, rebuild_every=1, validate=True)
    updates = make_updates(graph, 10, seed=2)
    before = dyn.metrics.as_dict()
    dyn.apply_all(updates)
    delta = dyn.metrics.snapshot_delta(before)
    assert delta["updates"] == 10
    assert delta.get("d_builds", 0) == 10  # rebuild_every=1: D rebuilt per update
    assert delta.get("overlay_served_updates", 0) == 0


def test_amortized_policy_rebuilds_less():
    graph = gnp_random_graph(40, 0.1, seed=9, connected=True)
    dyn = FullyDynamicDFS(graph, rebuild_every=5, validate=True)
    updates = make_updates(graph, 10, seed=2, vertex_updates=False)
    before = dyn.metrics.as_dict()
    dyn.apply_all(updates)
    delta = dyn.metrics.snapshot_delta(before)
    assert delta["updates"] == 10
    assert delta.get("d_builds", 0) == 2  # every 5th update refreshes D
    assert delta.get("overlay_served_updates", 0) == 8


def test_roots_are_children_of_virtual_root():
    graph = gnp_random_graph(30, 0.05, seed=13)  # likely disconnected
    dyn = FullyDynamicDFS(graph, validate=True)
    assert set(dyn.roots()) == set(dyn.tree.children(VIRTUAL_ROOT))
    dyn.apply(EdgeInsertion(*next(iter(_non_edge(dyn)))))
    assert dyn.is_valid()


def _non_edge(dyn):
    verts = list(dyn.graph.vertices())
    for i, u in enumerate(verts):
        for v in verts[i + 1 :]:
            if not dyn.graph.has_edge(u, v):
                yield (u, v)
                return
