"""Counts and virtual seconds per layer, read from what the program exposes.

Everything here looks at a finished job from outside: the object store's
request tallies, the platform's activation records and billing meter, the
kernel's thread statistics, the exchange backend's counters and — after a
traced iteration — ``env.tracer.events()`` grouped by name.  Of an event
only ``t``, ``dur``, ``attrs["bytes"]`` and ``attrs["node"]`` are read.
An event name that no longer occurs makes its metrics ``None`` and is
listed as unresolved; it never raises.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Optional

from repro.core import cost

#: facts that depend on how the host scheduled real threads, not on the
#: seed: left out of the determinism check
HOST_DEPENDENT = ("vtime.threads_created", "vtime.peak_threads")

Facts = dict[str, Optional[float]]


def job_facts(run: Any) -> Facts:
    """What one job did, from the environment's own counters.  Cheap, and
    deterministic under a seed except for :data:`HOST_DEPENDENT`."""
    env = run.env
    requests = env.storage.request_counts()
    records = env.platform.activations()
    billing = env.platform.billing
    threads = env.kernel.thread_stats()
    exchange = env.exchange.stats()
    return {
        "virt_makespan_s": run.makespan_s,
        "virt_cost_usd": (
            billing.total_cost()
            + cost.cos_request_cost(requests)
            + cost.vm_seconds_cost(
                env.exchange.billing(env.now())["vm_seconds"]
            )
        ),
        "cos.put_requests": requests.get("put", 0),
        "cos.get_requests": requests.get("get", 0),
        "cos.range_requests": requests.get("range", 0),
        "cos.list_requests": requests.get("list", 0),
        "faas.activations": len(records),
        "faas.cold_starts": sum(1 for r in records if r.cold_start),
        "faas.peak_active": env.platform.peak_active,
        "faas.throttled": env.platform.throttled_total,
        "faas.billed_gb_s": billing.total_gb_seconds(),
        "vtime.tasks_spawned": env.kernel.spawned_total,
        "vtime.threads_created": threads["threads_created"],
        "vtime.peak_threads": threads["peak_threads"],
        "exchange.puts": exchange.get("puts", 0),
        "exchange.gets": exchange.get("gets", 0),
        "core.submit_virt_s": run.submit_s,
    }


def traced_facts(job: Any, run: Any) -> tuple[Facts, set[str]]:
    """What the trace spine recorded for one job of a traced iteration:
    (facts, event names looked for and not found)."""
    events = run.env.tracer.events()
    by_name: dict[str, list] = defaultdict(list)
    for event in events:
        by_name[event.name].append(event)
    unresolved: set[str] = set()

    def named(name: str) -> Optional[list]:
        found = by_name.get(name)
        if not found:
            unresolved.add(name)
        return found or None

    def count(name: str) -> Optional[int]:
        found = named(name)
        return None if found is None else len(found)

    def seconds(name: str) -> Optional[float]:
        found = named(name)
        return None if found is None else sum(e.dur for e in found)

    def size(*names: str) -> Optional[int]:
        found = [named(name) for name in names]
        if None in found:
            return None
        return sum(e.get_attr("bytes", 0) for part in found for e in part)

    invokes, accepts = named("client.invoke"), named("controller.accept")
    commits = named("worker.commit")
    facts: Facts = {
        "trace.events": len(events),
        "cos.put_bytes": size("cos.put"),
        "cos.get_bytes": size("cos.get", "cos.range"),
        "cos.virt_span_s": sum(e.dur for e in events if e.layer == "cos"),
        "net.requests": count("net.request"),
        "net.virt_span_s": seconds("net.request"),
        # Fig. 2's metric: first invocation leaves the client -> last one
        # is accepted by the controller
        "faas.invoke_phase_virt_s": (
            max(e.t for e in accepts) - min(e.t for e in invokes)
            if invokes and accepts else None
        ),
        "faas.gateway.virt_span_s": seconds("gateway.invoke"),
        "faas.cold_start.virt_span_s": seconds("container.cold_start"),
        "core.collect_virt_s": (
            run.t0 + run.makespan_s - max(e.t + e.dur for e in commits)
            if commits else None
        ),
        "core.worker.deserialize_virt_s": seconds("worker.deserialize"),
        "core.worker.commit_virt_s": seconds("worker.commit"),
    }
    if job.dag_shape is not None:
        nodes = named("dag.node")
        facts["dag.nodes"] = None if nodes is None else len(nodes)
        facts["dag.client_invocations"] = None if invokes is None else len(invokes)
        facts[f"dag.{job.name}.virt_makespan_s"] = run.makespan_s
        if job.dag_shape == "chain":
            # hand-off latency: a stage's start minus its predecessor's end
            stages = sorted(nodes or (), key=lambda e: e.t)
            gaps = [b.t - (a.t + a.dur) for a, b in zip(stages, stages[1:])]
            facts[f"dag.{job.name}.handoff_virt_s"] = (
                statistics.median(gaps) if gaps else None
            )
    return facts, unresolved


def merge(per_job: list[Facts]) -> Facts:
    """One iteration's facts from its jobs': sums, but peaks are maxima,
    and ``None`` is contagious."""
    merged: Facts = {}
    for facts in per_job:
        for name, value in facts.items():
            if name not in merged:
                merged[name] = value
            elif value is None or merged[name] is None:
                merged[name] = None
            elif ".peak_" in name:
                merged[name] = max(merged[name], value)
            else:
                merged[name] = merged[name] + value
    return merged
