"""The seeded multi-tenant overload storm the fairness criteria run.

200 tenants submit 8 Fig. 3-shaped tasks each into 128 slots, dispatched
first-come (``fifo``) or by deficit round robin (``drr``), optionally
under a chaos profile.  Fairness is Jain's index over per-tenant
*service* inside the saturated window: tasks dispatched per tenant while
every tenant in scope is backlogged.  Makespans cannot tell the
dispatchers apart at 7x overload: every schedule ends near the horizon.
"""

from __future__ import annotations

from repro.config import TenantConfig
from repro.core.cost import tenant_billing_rollup
from repro.core.environment import CloudEnvironment
from repro.faas import CloudFunctionsClient, SystemLimits
from repro.faas.tenants import TenantRegistry
from repro.net import LatencyModel, NetworkLink
from repro.vtime.kernel import vsleep

SEED = 2024
CHAOS_SEED = 9
N_TENANTS = 200
TASKS_PER_TENANT = 8
TASK_S = 60.0
#: scan-, stream- and batch-shaped tasks; DRR equalizes dispatches, not
#: busy-seconds, so fairness is judged within each class
MIXED_CLASSES = (("scan", 20.0), ("stream", 45.0), ("batch", 90.0))
#: arrivals over 10 s: a first-come staircase, short of any fair makespan
ARRIVAL_STAGGER_S = 0.05
ACTION = "fig3"


def fig3_handler(params, ctx):
    """One Fig. 3-shaped task: a fixed slab of modelled compute."""
    yield from ctx.compute_steps(params["task_s"])
    return params["i"]


def _submitter(env, index, namespace, n_tasks, task_s, clients):
    """Model task: one tenant's client submitting its whole job."""
    client = CloudFunctionsClient(
        env.platform,
        NetworkLink(env.kernel, LatencyModel.lan(), seed=10_000 + index),
    )
    clients[namespace] = client
    yield vsleep(index * ARRIVAL_STAGGER_S)
    for i in range(n_tasks):
        yield from client.invoke_steps(namespace, ACTION, {"i": i, "task_s": task_s})


def jain(xs):
    squares = sum(x * x for x in xs)
    return (sum(xs) ** 2) / (len(xs) * squares) if squares else 1.0


def run_mode(policy, chaos=None, n_tenants=N_TENANTS,
             tasks_per_tenant=TASKS_PER_TENANT, task_s=TASK_S, seed=SEED,
             classes=None):
    """One full storm; returns its report dict.

    With ``classes`` (``(name, task_s)`` pairs) tenant *i* runs the
    ``i % len(classes)``-th shape and the report adds ``jain_by_class``.
    """
    # 8 invokers x 4 GB = 128 resident 256 MB actions: 1,600 tasks queue
    limits = SystemLimits(invoker_count=8, invoker_memory_mb=4096)
    env = CloudEnvironment.create(
        seed=seed, limits=limits, chaos=chaos,
        tenants=TenantRegistry(default=TenantConfig("template"), policy=policy),
    )
    namespaces = [f"tenant-{i:03d}" for i in range(n_tenants)]
    shape = {
        ns: classes[i % len(classes)] if classes else ("uniform", task_s)
        for i, ns in enumerate(namespaces)
    }
    for ns in namespaces:
        env.platform.create_action(ns, ACTION, fig3_handler)
    clients: dict[str, CloudFunctionsClient] = {}

    def main():
        for index, ns in enumerate(namespaces):
            env.kernel.spawn_model(_submitter, env, index, ns, tasks_per_tenant,
                                   shape[ns][1], clients, name=f"client-{ns}")

    env.run(main)  # non-daemon submitters and activations drain first

    records = {ns: [] for ns in namespaces}
    for record in env.platform.activations():
        records[record.namespace].append(record)
    for recs in records.values():
        assert len(recs) == tasks_per_tenant and all(r.end_time is not None for r in recs)
    makespans = sorted(
        max(r.end_time for r in recs) - min(r.submit_time for r in recs)
        for recs in records.values()
    )
    horizon = env.now()
    # the saturated window opens at the first slot recycle after the last
    # arrival and closes when the last `capacity` tasks start; only tenants
    # still backlogged at the opening are in scope
    window_start = n_tenants * ARRIVAL_STAGGER_S + max(s for _, s in shape.values())
    starts = sorted(r.dispatch_time for recs in records.values() for r in recs)
    window_end = starts[max(0, len(starts) - limits.cluster_capacity)]
    if window_end <= window_start:  # tiny runs never saturate
        window_start, window_end = 0.0, horizon
    service = {
        ns: sum(1 for r in recs if window_start <= r.dispatch_time < window_end)
        for ns, recs in records.items()
        if any(r.dispatch_time >= window_start for r in recs)
    }
    rollup = tenant_billing_rollup(env.platform.billing)
    report = {
        "policy": policy,
        "chaos": getattr(chaos, "name", "none"),
        "tenants": n_tenants,
        "task_s": dict(classes) if classes else task_s,
        "jain_fairness_index": round(jain(list(service.values())), 4),
        "window_dispatches": (
            len(service), min(service.values()), max(service.values()),
            sum(1 for x in service.values() if x == 0),
        ),
        "makespan_s": tuple(  # min, p50, p95, max
            round(makespans[min(len(makespans) - 1, int(p * len(makespans)))], 1)
            for p in (0.0, 0.5, 0.95, 1.0)
        ),
        "horizon_s": round(horizon, 1),
        "throughput_tasks_per_s": round(len(starts) / horizon, 3),
        "throttle_retries": sum(c.throttle_retries for c in clients.values()),
        "billing": {
            "region_gb_seconds": round(rollup.pop("__region__")["gb_seconds"], 1),
            "tenant_gb_seconds": round(sum(t["gb_seconds"] for t in rollup.values()), 1),
            "tenants_billed": len(rollup),
        },
    }
    if classes:
        report["jain_by_class"] = {
            name: round(jain([x for ns, x in service.items() if shape[ns][0] == name]), 4)
            for name, _ in classes
        }
    if chaos is not None:
        by_tenant = env.chaos.fault_counts_by_tenant()
        report["faults"] = (
            sum(n for counts in by_tenant.values() for n in counts.values()),
            sum(1 for tenant in by_tenant if tenant),
        )
    return report
