"""E8 — ablation of the traversal mix (Section 4 design choices).

Documented in ``docs/benchmarks.md`` (E8).

The phase/stage machinery is what keeps the number of rounds poly-logarithmic:

* disabling *path halving* (walking to the nearer endpoint instead) makes the
  leftover path shrink by O(1) per round, so rounds blow up on long paths;
* disabling the *heavy-subtree scenarios* (treating the heavy case like a
  disintegrating traversal) breaks the C1/C2 invariant, and the reroot engine
  raises :class:`~repro.exceptions.InvariantViolation`.

The heavy ablation runs on vertex deletions that do reach the heavy case
(Section 4.4).  The full engine must take a heavy traversal on each of them
and never raise; the ablated engine must raise on at least one.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import record_table, scale_sizes
from repro.constants import VIRTUAL_ROOT
from repro.core.queries import BruteForceQueryService
from repro.core.reduction import RerootTask, reduce_update
from repro.core.reroot_parallel import ParallelRerootEngine
from repro.core.updates import VertexDeletion
from repro.exceptions import InvariantViolation
from repro.graph.generators import caterpillar_graph, gnp_random_graph
from repro.graph.traversal import static_dfs_forest
from repro.graph.validation import check_dfs_tree
from repro.metrics.counters import MetricsRecorder
from repro.tree.dfs_tree import DFSTree

#: ``(n, p, seed)``: deleting the max-degree vertex of ``gnp(n, p)`` reroots
#: into the heavy case.
HEAVY_INPUTS = [(90, 0.05, 36), (400, 0.0125, 25), (400, 0.0125, 38)]


def _run(graph, task, **kwargs):
    tree = DFSTree(static_dfs_forest(graph), root=VIRTUAL_ROOT)
    return _reroot(graph, tree, [task], (), **kwargs)


def _reroot(graph, tree, tasks, removed, **kwargs):
    metrics = MetricsRecorder()
    engine = ParallelRerootEngine(tree, BruteForceQueryService(graph, tree), metrics=metrics, **kwargs)
    assignment = engine.reroot_many(tasks)
    parent = tree.parent_map()
    for v in removed:
        del parent[v]
    parent.update(assignment)
    assert check_dfs_tree(graph, parent) == []
    return metrics


def _heavy_input(n, p, seed):
    """The graph after the deletion, the tree before it, the deleted vertex
    and the rerooting tasks the deletion reduces to."""
    graph = gnp_random_graph(n, p, seed=seed, connected=True)
    tree = DFSTree(static_dfs_forest(graph), root=VIRTUAL_ROOT)
    victim = max(graph.vertices(), key=graph.degree)
    graph.remove_vertex(victim)
    tasks = reduce_update(VertexDeletion(victim), tree, BruteForceQueryService(graph, tree)).tasks
    return graph, tree, tasks, [victim]


@pytest.mark.benchmark(group="E8-ablation")
def test_path_halving_ablation(benchmark):
    spines = scale_sizes([64, 128, 256], [32, 64])
    full_rounds, crippled_rounds = [], []
    for spine in spines:
        graph = caterpillar_graph(spine, 2)
        task = RerootTask(subtree_root=0, new_root=spine - 1, attach=VIRTUAL_ROOT)
        full_rounds.append(_run(graph, task)["traversal_rounds"])
        crippled_rounds.append(
            _run(graph, task, enable_path_halving=False)["traversal_rounds"]
        )
    record_table(
        benchmark,
        "E8_path_halving_ablation",
        spines,
        {"full_engine_rounds": full_rounds, "no_path_halving_rounds": crippled_rounds},
    )
    assert crippled_rounds[-1] > full_rounds[-1]

    graph = caterpillar_graph(spines[-1], 2)
    task = RerootTask(subtree_root=0, new_root=spines[-1] - 1, attach=VIRTUAL_ROOT)
    benchmark(lambda: _run(graph, task))


@pytest.mark.benchmark(group="E8-ablation")
def test_heavy_scenarios_ablation(benchmark):
    sizes, full_rounds, full_heavy, ablated_raised = [], [], [], []
    for n, p, seed in HEAVY_INPUTS:
        heavy_input = _heavy_input(n, p, seed)
        full = _reroot(*heavy_input)
        assert full["traversal_heavy"] > 0
        try:
            _reroot(*heavy_input, enable_heavy=False)
            raised = 0
        except InvariantViolation:
            raised = 1
        sizes.append(n)
        full_rounds.append(full["traversal_rounds"])
        full_heavy.append(full["traversal_heavy"])
        ablated_raised.append(raised)
    record_table(
        benchmark,
        "E8_heavy_scenarios_ablation",
        sizes,
        {
            "full_engine_rounds": full_rounds,
            "full_engine_heavy_traversals": full_heavy,
            "heavy_disabled_raised": ablated_raised,
        },
    )
    assert any(ablated_raised)

    heavy_input = _heavy_input(*HEAVY_INPUTS[-1])
    benchmark(lambda: _reroot(*heavy_input))
