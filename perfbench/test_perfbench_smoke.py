"""Smoke test of the end-to-end benchmark at a tiny size (n = 60).

Runs every workload untraced and traced with :data:`harness.TINY`, and
checks that each run emits exactly the metrics ``BENCHMARK.json`` names, with
their units, that no operation failed, and that the traced run ends on the
same parent-map digest as the untraced one::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

# The harness sorts timings with numpy, and one workload runs the numpy core.
pytest.importorskip("numpy")

import harness  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCHMARK = json.load(fh)


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_benchmark_names_the_harness_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == harness.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_tiny_run_emits_every_metric_and_traced_agrees(name, tmp_path):
    untraced = harness.run(name, 1, 0.2, False, plan=harness.TINY, out_dir=str(tmp_path))
    traced = harness.run(name, 1, 0.2, True, plan=harness.TINY, out_dir=str(tmp_path))
    for result, section in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["failed"] == 0, result["details"]["problems"]
        assert result["correct"] and result["attempted"] > 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == _units(section)
    assert untraced["details"]["checkpoint"] == traced["details"]["checkpoint"]
    pinned = harness.load_pinned()["tiny"][name]["1"]
    assert traced["details"]["checkpoint"] == pinned
    assert (tmp_path / f"trace-{name}-seed1.json").exists()


@pytest.mark.parametrize("trace", [False, True])
def test_raising_serve_write_fails_the_run_and_ends_it(trace, monkeypatch, tmp_path):
    from repro.core.updates import VertexDeletion

    make_inputs = harness.make_inputs

    def with_bad_first_update(workload, seed, plan):
        inputs = make_inputs(workload, seed, plan)
        inputs.stream[0] = VertexDeletion("not a vertex")
        return inputs

    monkeypatch.setattr(harness, "make_inputs", with_bad_first_update)
    result = harness.run("read_mostly_serve", 1, 0.2, trace, plan=harness.TINY, out_dir=str(tmp_path))
    assert not result["correct"] and result["failed"] > 0
    assert any("serve write 0 raised" in p for p in result["details"]["problems"])


def test_tracer_uninstall_restores_every_patched_name():
    import importlib

    from tracer import LAYERS, Tracer

    def current():
        out = []
        for module_name, path, _, _ in LAYERS:
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part)
            out.append(owner)
        return out

    before = current()
    tracer = Tracer()
    tracer.install()
    try:
        assert all(a is not b for a, b in zip(before, current()))
    finally:
        tracer.uninstall()
    assert all(a is b for a, b in zip(before, current()))


def test_tracer_self_time_excludes_children():
    from tracer import Tracer

    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer_calls, outer_ms, outer_self), (inner_calls, inner_ms, inner_self) = (
        tracer.summary()[("outer", "outer")],
        tracer.summary()[("outer", "inner")],
    )
    assert outer_calls == inner_calls == 1
    assert inner_self == pytest.approx(inner_ms)
    assert outer_self == pytest.approx(outer_ms - inner_ms)
