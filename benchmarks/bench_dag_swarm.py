"""Swarm vs centralized DAG scheduling benchmark.

Three graph shapes, each run under both schedulers from the same seed
with chaos off (shape builders shared with ``bench_dag_pipeline.py``):

* **merge tree** — the Fig. 4 mergesort: 8 uneven sort leaves feeding a
  binary merge tree.  Exercises the fan-in path (done-marker decrements
  racing on each merge node's fire token).
* **100-level chain** — the adversarial shape for a centralized
  scheduler: every level costs the client a poll round plus two WAN
  round-trips, so scheduling overhead compounds 100 times along the
  critical path.  Swarm turns each hop into one in-cloud conditional
  PUT plus a ~4 ms trusted-gateway invoke.
* **wide-then-deep** — an ML-style graph: 12 skewed feature-extraction
  shards reduce into one aggregate, then a 12-epoch training chain.

For every shape the client-side gateway's invocation counter is
recorded separately from total activations: under swarm the difference
is the number of activations launched *by workers*.  A depth sweep over
the chain (10/25/50/100) feeds the PERFORMANCE.md table.

Acceptance: swarm beats centralized on the 100-chain virtual wall
clock, the swarm chain needs exactly one client invocation (the root —
per-level client round-trips drop to zero), neither tree shape gets
slower, and two same-seed traced swarm runs export byte-identical
JSONL.  Run via ``make bench-dag-swarm``; writes
``BENCH_dag_swarm.json``.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys

import repro as pw
from repro.core.environment import CloudEnvironment
from repro.cos.client import COSClient
from repro.dag import DagBuilder

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_dag_pipeline as shapes  # noqa: E402  (sibling bench module)

SEED = 123
CHAIN_DEPTHS = (10, 25, 50, 100)
WIDE, DEEP = 12, 12
OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_dag_swarm.json")


@contextlib.contextmanager
def schedule_reads():
    """Byte counts of every worker read of a swarm schedule object.

    Measured at the COS client boundary by object key, so a whole-object
    GET and a slice range-read are counted alike.
    """
    reads: list[int] = []

    def counting(method):
        def steps(self, bucket, key, *args, **kwargs):
            blob = yield from method(self, bucket, key, *args, **kwargs)
            if key.endswith("/swarm/schedule.pickle"):
                reads.append(len(blob))
            return blob

        return steps

    originals = {
        name: getattr(COSClient, name)
        for name in ("get_object_steps", "read_range_steps")
    }
    for name, method in originals.items():
        setattr(COSClient, name, counting(method))
    try:
        yield reads
    finally:
        for name, method in originals.items():
            setattr(COSClient, name, method)


def run_shape(build, check, scheduler, trace=False):
    """One seeded run of ``build``'s graph under ``scheduler``.

    Returns (report, normalized trace JSONL).  ``client_invocations``
    counts invocations issued through the executor's WAN gateway; worker
    handoffs go through the in-cloud trusted gateway and show up only in
    the activation total.  ``schedule_bytes_read`` sums what workers read
    of the shipped schedule: O(N + E) under swarm, 0 centralized.
    """
    env = CloudEnvironment.create(seed=SEED, trace=trace)

    def main():
        executor = pw.ibm_cf_executor()
        builder = DagBuilder()
        root = build(builder)
        run = builder.submit(executor, scheduler=scheduler)
        value = run.expose(root).result()
        jsonl = executor.trace_jsonl() if trace else ""
        return (
            value,
            len(env.platform.activations()),
            executor._functions.invocations,
            executor.executor_id,
            jsonl,
        )

    with schedule_reads() as reads:
        value, activations, client_invocations, executor_id, jsonl = env.run(main)
    check(value)
    report = {
        "makespan_s": round(env.now(), 1),
        "activations": activations,
        "client_invocations": client_invocations,
        "worker_invocations": activations - client_invocations,
        "schedule_bytes_read": sum(reads),
    }
    return report, jsonl.replace(executor_id, "EXEC")


def run_merge_tree(scheduler, trace=False):
    array = shapes._array()

    def check(value):
        assert value == sorted(array), f"{scheduler} mergesort mismatch"

    return run_shape(
        lambda b: shapes.build_merge_tree(b, array), check, scheduler, trace
    )


def run_chain(scheduler, depth):
    def check(value):
        assert value == depth, f"{scheduler} chain[{depth}] mismatch"

    report, _ = run_shape(
        lambda b: shapes.build_chain(b, depth=depth), check, scheduler
    )
    return report


def run_wide_deep(scheduler):
    expected = sum(range(1, WIDE + 1)) + DEEP

    def check(value):
        assert value == expected, f"{scheduler} wide-deep mismatch"

    report, _ = run_shape(
        lambda b: shapes.build_wide_deep(b, width=WIDE, depth=DEEP),
        check,
        scheduler,
    )
    return report


def main() -> int:
    tree_central, _ = run_merge_tree("centralized")
    tree_swarm, trace_a = run_merge_tree("swarm", trace=True)
    _again, trace_b = run_merge_tree("swarm", trace=True)

    sweep = []
    for depth in CHAIN_DEPTHS:
        central = run_chain("centralized", depth)
        swarm = run_chain("swarm", depth)
        sweep.append(
            {
                "depth": depth,
                "centralized_s": central["makespan_s"],
                "swarm_s": swarm["makespan_s"],
                "speedup": round(
                    central["makespan_s"] / max(swarm["makespan_s"], 1e-9), 2
                ),
                "centralized_client_invocations": central["client_invocations"],
                "swarm_client_invocations": swarm["client_invocations"],
                "swarm_schedule_bytes_read": swarm["schedule_bytes_read"],
            }
        )
    chain_central = next(s for s in sweep if s["depth"] == 100)

    wd_central = run_wide_deep("centralized")
    wd_swarm = run_wide_deep("swarm")

    report = {
        "seed": SEED,
        "chaos": "none",
        "merge_tree": {
            "shape": "8 uneven sort leaves -> binary merge tree (Fig. 4)",
            "centralized": tree_central,
            "swarm": tree_swarm,
            "speedup": round(
                tree_central["makespan_s"] / max(tree_swarm["makespan_s"], 1e-9),
                2,
            ),
        },
        "chain": {
            "shape": "linear chain of non-fusable 2 s stages",
            "sweep": sweep,
        },
        "wide_deep": {
            "shape": f"{WIDE} extract shards -> aggregate -> {DEEP} epochs",
            "centralized": wd_central,
            "swarm": wd_swarm,
            "speedup": round(
                wd_central["makespan_s"] / max(wd_swarm["makespan_s"], 1e-9), 2
            ),
        },
        "criteria": {
            "swarm_beats_centralized_chain_100": bool(
                chain_central["swarm_s"] < chain_central["centralized_s"]
            ),
            "chain_client_invocations_roots_only": bool(
                chain_central["swarm_client_invocations"] == 1
            ),
            "merge_tree_swarm_not_slower": bool(
                tree_swarm["makespan_s"] <= tree_central["makespan_s"]
            ),
            "merge_tree_no_duplicate_activations": bool(
                tree_swarm["activations"] == tree_central["activations"]
            ),
            "wide_deep_swarm_not_slower": bool(
                wd_swarm["makespan_s"] <= wd_central["makespan_s"]
            ),
            "swarm_trace_byte_identical": bool(
                trace_a == trace_b and trace_a != ""
            ),
        },
    }
    report["criteria_met"] = all(report["criteria"].values())
    path = os.path.abspath(OUTPUT)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {path}")
    return 0 if report["criteria_met"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
