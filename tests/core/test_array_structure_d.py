"""ArrayStructureD: the flat postorder-sorted core behind ``backend="array"``.

Everything here is differential against the dict reference ``StructureD`` —
identical rows, identical query answers, identical probe counters — plus the
array-only machinery: the batched re-anchor path and its scalar fallbacks.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.constants import VIRTUAL_ROOT
from repro.core.array_structure_d import ArrayStructureD
from repro.core.structure_d import StructureD
from repro.graph.array_graph import ArrayGraph
from repro.graph.generators import gnp_random_graph
from repro.graph.traversal import static_dfs_forest
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree


def _pair(n=24, p=0.25, seed=3):
    g = gnp_random_graph(n, p, seed=seed)
    ag = ArrayGraph.from_graph(g)
    tree = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
    return g, ag, tree


def _interval(tree, root):
    hi = tree.postorder(root)
    return hi - tree.subtree_size(root) + 1, hi


def _assert_same_rows(da, dd, verts, label):
    for v in verts:
        rd = dd._row(v)
        ra = da._row(v)
        if rd is None:
            assert ra is None, (label, v)
        else:
            assert list(ra[0]) == list(rd[0]), (label, v)  # postorders
            assert list(ra[1]) == list(rd[1]), (label, v)  # neighbour ids


def _assert_same_batch(da, dd, us, tree, rng, label):
    tverts = [v for v in tree.vertices() if v != VIRTUAL_ROOT]
    los, his = [], []
    for _ in us:
        lo, hi = _interval(tree, rng.choice(tverts))
        los.append(lo)
        his.append(hi)
    assert da.min_post_alive_neighbor_batch(
        us, los, his
    ) == StructureD.min_post_alive_neighbor_batch(dd, us, los, his), label


def test_build_matches_dict_reference_exactly():
    g, ag, tree = _pair()
    md, ma = MetricsRecorder(), MetricsRecorder()
    dd = StructureD(g, tree, metrics=md)
    da = ArrayStructureD(ag, tree, metrics=ma)
    assert da.size() == dd.size()
    assert ma["d_build_work"] == md["d_build_work"]
    _assert_same_rows(da, dd, g.vertices(), "build")


def test_scalar_queries_identical_with_and_without_overlays():
    rng = random.Random(9)
    g, ag, tree = _pair(seed=11)
    dd = StructureD(g, tree)
    da = ArrayStructureD(ag, tree)
    verts = list(g.vertices())
    for round_ in range(3):
        for _ in range(80):
            u = verts[rng.randrange(len(verts))]
            lo, hi = _interval(tree, verts[rng.randrange(len(verts))])
            assert da.min_post_alive_neighbor(u, lo, hi) == dd.min_post_alive_neighbor(u, lo, hi)
        # dirty some rows between rounds; answers must keep matching
        for v in rng.sample(verts, 3):
            dd.note_vertex_deleted(v)
            da.note_vertex_deleted(v)


def test_batch_reanchor_identical_and_counts_fallbacks():
    rng = random.Random(21)
    g, ag, tree = _pair(n=40, seed=5)
    dd = StructureD(g, tree)
    ma = MetricsRecorder()
    da = ArrayStructureD(ag, tree, metrics=ma)
    verts = list(g.vertices())
    for v in rng.sample(verts, 4):
        dd.note_vertex_deleted(v)
        da.note_vertex_deleted(v)
    us, los, his = [], [], []
    for _ in range(200):
        us.append(verts[rng.randrange(len(verts))])
        lo, hi = _interval(tree, verts[rng.randrange(len(verts))])
        los.append(lo)
        his.append(hi)
    expect = StructureD.min_post_alive_neighbor_batch(dd, us, los, his)
    got_lists = da.min_post_alive_neighbor_batch(us, los, his)
    got_arrays = da.min_post_alive_neighbor_batch(
        us, np.asarray(los, dtype=np.int64), np.asarray(his, dtype=np.int64)
    )
    assert got_lists == expect  # answers AND probe count
    assert got_arrays == expect
    assert ma["d_batch_queries"] == 2
    assert ma["d_batch_query_fallbacks"] == 0


def test_overlay_epochs_match_dict_and_rebuild_stays_flat():
    """Overlay epochs mixing edge deletions and insertions, vertex deletions,
    and fresh and re-used vertex insertions: the array core's rows and batched
    re-anchor answers equal the dict core's after every epoch, and its base
    rows stay flat.  A structure rebuilt on the updated graph answers from
    flat arrays with no batch fallback."""
    rng = random.Random(4242)
    for trial in range(25):
        n = rng.randrange(4, 40)
        g, ag, tree = _pair(n=n, p=rng.uniform(0.05, 0.5), seed=rng.randrange(10**6))
        dd = StructureD(g, tree)
        da = ArrayStructureD(ag, tree)
        known = list(g.vertices())
        alive = set(known)
        deleted = set()
        present = {frozenset(e) for e in g.edges()}
        next_id = max(known) + 1
        for epoch in range(rng.randrange(1, 5)):
            for _ in range(rng.randrange(0, 14)):
                r = rng.random()
                if r < 0.35 and present:
                    u, v = tuple(rng.choice(sorted(present, key=sorted)))
                    present.discard(frozenset((u, v)))
                    for s, gr in ((dd, g), (da, ag)):
                        s.note_edge_deleted(u, v)
                        gr.remove_edge(u, v)
                elif r < 0.65 and len(alive) >= 2:
                    u, v = rng.sample(sorted(alive), 2)
                    if frozenset((u, v)) in present:
                        continue
                    present.add(frozenset((u, v)))
                    for s, gr in ((dd, g), (da, ag)):
                        s.note_edge_inserted(u, v)
                        gr.add_edge(u, v)
                elif r < 0.8 and len(alive) >= 2:
                    v = rng.choice(sorted(alive))
                    alive.discard(v)
                    deleted.add(v)
                    present = {e for e in present if v not in e}
                    for s, gr in ((dd, g), (da, ag)):
                        s.note_vertex_deleted(v)
                        gr.remove_vertex(v)
                else:
                    if deleted and rng.random() < 0.5:
                        v = rng.choice(sorted(deleted))  # re-used id
                        deleted.discard(v)
                    else:
                        v = next_id
                        next_id += 1
                        known.append(v)
                    nbrs = rng.sample(sorted(alive), min(len(alive), rng.randrange(0, 4)))
                    alive.add(v)
                    present.update(frozenset((v, w)) for w in nbrs)
                    for s, gr in ((dd, g), (da, ag)):
                        s.note_vertex_inserted(v, nbrs)
                        gr.add_vertex_with_edges(v, nbrs)
            label = (trial, epoch)
            assert da._flat_indptr is not None, label
            _assert_same_rows(da, dd, known, label)
            us = [rng.choice(sorted(alive)) for _ in range(25)]
            _assert_same_batch(da, dd, us, tree, rng, label)
        # A rebuild on the updated graph starts from fresh flat arrays.
        tree2 = DFSTree(static_dfs_forest(g), root=VIRTUAL_ROOT)
        ma2 = MetricsRecorder()
        da2 = ArrayStructureD(ag, tree2, metrics=ma2)
        dd2 = StructureD(g, tree2)
        assert da2._flat_indptr is not None, trial
        assert all(isinstance(da2._row(v)[0], np.ndarray) for v in alive), trial
        _assert_same_rows(da2, dd2, known, trial)
        us = [rng.choice(sorted(alive)) for _ in range(25)]
        _assert_same_batch(da2, dd2, us, tree2, rng, trial)
        assert ma2["d_batch_query_fallbacks"] == 0, trial


def test_dict_graph_build_takes_the_python_path():
    """Built from a non-ArrayGraph, the array core holds the dict core's
    python rows, and the batched re-anchor falls back to the scalar path."""
    g, ag, tree = _pair()
    ma = MetricsRecorder()
    da = ArrayStructureD(g, tree, metrics=ma)
    dd = StructureD(g, tree)
    assert da._flat_indptr is None
    assert da.size() == dd.size()
    _assert_same_rows(da, dd, g.vertices(), "dict graph")
    verts = list(g.vertices())
    u, w = verts[0], verts[1]
    dd.note_vertex_deleted(u)
    da.note_vertex_deleted(u)
    lo, hi = _interval(tree, w)
    assert da.min_post_alive_neighbor_batch([w], [lo], [hi]) == StructureD.min_post_alive_neighbor_batch(
        dd, [w], [lo], [hi]
    )
    assert ma["d_batch_query_fallbacks"] == 1


def test_non_int_vertices_take_the_python_path():
    g = gnp_random_graph(10, 0.4, seed=2)
    relabel = {v: f"v{v}" for v in g.vertices()}
    h = type(g)(edges=[(relabel[u], relabel[v]) for u, v in g.edges()])
    ah = ArrayGraph.from_graph(h)
    tree = DFSTree(static_dfs_forest(h), root=VIRTUAL_ROOT)
    dd = StructureD(h, tree)
    da = ArrayStructureD(ah, tree)
    verts = list(h.vertices())
    us = verts * 2
    los, his = [], []
    rng = random.Random(0)
    for _ in us:
        lo, hi = _interval(tree, verts[rng.randrange(len(verts))])
        los.append(lo)
        his.append(hi)
    assert da.min_post_alive_neighbor_batch(us, los, his) == StructureD.min_post_alive_neighbor_batch(
        dd, us, los, his
    )


def test_batch_rejects_silently_truncating_inputs():
    """Float vertex queries must not be truncated into the int fast path."""
    g, ag, tree = _pair(n=12, seed=8)
    dd = StructureD(g, tree)
    da = ArrayStructureD(ag, tree)
    verts = list(g.vertices())
    lo, hi = _interval(tree, verts[0])
    us = [float(verts[0]) + 0.5, verts[1]]
    expect = StructureD.min_post_alive_neighbor_batch(dd, us, [lo, lo], [hi, hi])
    assert da.min_post_alive_neighbor_batch(us, [lo, lo], [hi, hi]) == expect


def test_differential_fuzz_scalar_and_batch():
    rng = random.Random(77)
    for trial in range(40):
        n = rng.randrange(2, 30)
        g, ag, tree = _pair(n=n, p=rng.uniform(0.05, 0.6), seed=rng.randrange(10**6))
        dd = StructureD(g, tree)
        da = ArrayStructureD(ag, tree)
        verts = list(g.vertices())
        for v in rng.sample(verts, rng.randrange(0, min(4, len(verts)) + 1)):
            dd.note_vertex_deleted(v)
            da.note_vertex_deleted(v)
        us, los, his = [], [], []
        for _ in range(50):
            us.append(verts[rng.randrange(len(verts))])
            lo, hi = _interval(tree, verts[rng.randrange(len(verts))])
            los.append(lo)
            his.append(hi)
        assert da.min_post_alive_neighbor_batch(us, los, his) == StructureD.min_post_alive_neighbor_batch(
            dd, us, los, his
        ), trial
