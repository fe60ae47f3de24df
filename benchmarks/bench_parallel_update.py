"""E1 — Theorems 1/12/13: per-update cost of the parallel algorithm.

Documented in ``docs/benchmarks.md`` (E1).

Reproduces the paper's headline claim: after any single update the DFS tree is
repaired with a poly-logarithmic number of parallel query rounds (the paper's
``O(log^2 n)`` sets of independent queries and ``O(log^3 n)`` EREW time), while
the sequential rerooting baseline needs a dependency chain that grows linearly
on adversarial inputs.  Absolute wall-clock numbers are incidental (CPython,
one core); the *shape* — polylog vs linear growth — is the reproduced result.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_table, scale_sizes
from repro.core.dynamic_dfs import FullyDynamicDFS
from repro.graph.generators import comb_with_tip_back_edges, gnp_random_graph
from repro.metrics.counters import MetricsRecorder
from repro.workloads.updates import edge_churn


def _one_churn_round(graph, engine):
    metrics = MetricsRecorder()
    dyn = FullyDynamicDFS(graph, engine=engine, metrics=metrics)
    updates = edge_churn(graph, 10, seed=42)
    dyn.apply_all(updates)
    return metrics


@pytest.mark.benchmark(group="E1-parallel-update")
def test_parallel_update_random_graphs(benchmark):
    """Per-update query rounds on random graphs stay polylogarithmic in n."""
    sizes = scale_sizes([256, 512, 1024, 2048], [128, 256])
    rounds, queries, seq_rounds = [], [], []
    for n in sizes:
        graph = gnp_random_graph(n, 4.0 / n, seed=1, connected=True)
        par = _one_churn_round(graph, "parallel")
        seq = _one_churn_round(graph, "sequential")
        rounds.append(par["query_rounds"] / max(par["updates"], 1))
        queries.append(par["queries"] / max(par["updates"], 1))
        seq_rounds.append(seq["query_rounds"] / max(seq["updates"], 1))
        assert par["update_recoveries"] == 0

    record_table(
        benchmark,
        "E1_random_graphs_per_update",
        sizes,
        {
            "parallel_query_rounds": rounds,
            "parallel_queries": queries,
            "sequential_query_rounds": seq_rounds,
        },
    )

    graph = gnp_random_graph(sizes[-1], 4.0 / sizes[-1], seed=1, connected=True)
    dyn = FullyDynamicDFS(graph, engine="parallel")
    u0, v0 = next(iter(graph.edges()))

    def run():
        # An idempotent delete/insert pair so the benchmark can repeat it.
        dyn.delete_edge(u0, v0)
        dyn.insert_edge(u0, v0)

    benchmark(run)


@pytest.mark.benchmark(group="E1-parallel-update")
def test_parallel_vs_sequential_on_adversarial_comb(benchmark):
    """On combs, rerooting the tree at the tip of the first tooth (the core
    primitive every update reduces to, Theorem 3) forces the sequential
    baseline through a Θ(teeth)-long dependency chain, while the parallel
    engine's round count stays poly-logarithmic — the separation motivating the
    paper."""
    from repro.constants import VIRTUAL_ROOT
    from repro.core.queries import BruteForceQueryService
    from repro.core.reduction import RerootTask
    from repro.core.reroot_parallel import ParallelRerootEngine
    from repro.core.reroot_sequential import SequentialRerootEngine
    from repro.graph.traversal import static_dfs_forest
    from repro.tree.dfs_tree import DFSTree

    teeth_sizes = scale_sizes([16, 32, 64, 128], [8, 16])
    tooth = 6
    par_rounds, seq_depth = [], []
    for teeth in teeth_sizes:
        # Tip back edges that *survive* canonical re-anchoring: each tip
        # reaches only the spine vertex before its own tooth, so whichever
        # source endpoint the canonical answer picks, the sequential baseline
        # still peels one tooth per dependent reroot (Θ(teeth) chain).
        graph = comb_with_tip_back_edges(teeth, tooth)
        tree = DFSTree(static_dfs_forest(graph), root=VIRTUAL_ROOT)
        task = RerootTask(subtree_root=0, new_root=teeth + tooth - 1, attach=VIRTUAL_ROOT)
        service = BruteForceQueryService(graph, tree)

        par = MetricsRecorder()
        ParallelRerootEngine(tree, service, metrics=par).reroot_many([task])
        seq = MetricsRecorder()
        SequentialRerootEngine(tree, service, metrics=seq).reroot_many([task])
        par_rounds.append(par["query_rounds"])
        seq_depth.append(seq["sequential_chain_depth"])
    record_table(
        benchmark,
        "E1_adversarial_comb",
        teeth_sizes,
        {"parallel_query_rounds": par_rounds, "sequential_chain_rounds": seq_depth},
    )
    # The separation the paper proves: the ratio grows with the input size.
    assert seq_depth[-1] / max(par_rounds[-1], 1) > seq_depth[0] / max(par_rounds[0], 1)

    graph = comb_with_tip_back_edges(teeth_sizes[-1], tooth)
    tree = DFSTree(static_dfs_forest(graph), root=VIRTUAL_ROOT)
    task = RerootTask(subtree_root=0, new_root=teeth_sizes[-1] + tooth - 1, attach=VIRTUAL_ROOT)
    service = BruteForceQueryService(graph, tree)

    def run():
        engine = ParallelRerootEngine(tree, service)
        engine.reroot_many([task])

    benchmark(run)
