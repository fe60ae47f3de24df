"""Recompute the checkpoint pins in ``pinned.json``.

For every workload, plan and pinned seed, apply exactly ``checkpoint``
updates of the seed's stream and record the digest of the parent map and the
driver counters named in ``harness.PINNED_COUNTERS``.  Run it from the root
of a checkout when a change is meant to alter the maintained tree or those
counts, and commit the new file with the change that explains why::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402

#: The default seed and a held-out seed for rechecking a claim.
SEEDS = (1, 2)


def pin(workload: harness.Workload, plan: harness.Plan, seed: int) -> dict:
    # The tree after the first ``checkpoint`` updates does not depend on how
    # the serve and writer phases split them, so one writer phase suffices.
    inputs = harness.make_inputs(workload, seed, plan)
    tally = harness.Tally()
    system = harness.build(workload, inputs.graph)
    harness.writer_phase(
        system, inputs.graph, inputs.stream, plan, tally, offset=0, budget_s=0.0, exact=True, yardstick=False
    )
    if tally.failed:
        raise SystemExit(f"{workload.name} seed {seed}: {tally.problems}")
    return system.checkpoint()


def main() -> None:
    pins = {
        plan.name: {
            name: {str(seed): pin(workload, plan, seed) for seed in SEEDS}
            for name, workload in harness.WORKLOADS.items()
        }
        for plan in (harness.FULL, harness.TINY)
    }
    with open(harness.PINNED_PATH, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
