"""Bench: serverless vs provisioned cluster for bursty parallel jobs.

Quantifies the paper's motivation (§1/§5): "it is now easy to handle bursty
workloads that require thousands of concurrent function executors without
waiting for machines to spin up."  For a one-off (cold) job, the cluster
pays ~2 minutes of provisioning before computing; IBM-PyWren with massive
spawning starts a thousand functions in seconds.
"""

from __future__ import annotations

from repro.baselines import VMCluster
from repro.bench.fig2_spawning import run_spawning
from repro.bench.reporting import Table
from repro.config import InvokerMode
from repro.vtime import Kernel


def _cluster_time(n_tasks: int, task_seconds: float, n_vms: int) -> float:
    kernel = Kernel()

    def main() -> float:
        cluster = VMCluster(kernel, n_vms=n_vms, slots_per_vm=4, seed=9)
        return cluster.run_map_job(n_tasks, task_seconds).total_s

    return kernel.run(main)


def test_serverless_vs_cluster_cold_job(benchmark, emit):
    """1,000 x 50 s tasks, cold start: functions vs a fresh 64-VM cluster."""

    def run_all():
        serverless = run_spawning(
            InvokerMode.MASSIVE, n_functions=1000, task_seconds=50.0, seed=17
        )
        # a 64-VM x 4-slot cluster: 256 slots for 1,000 tasks
        cluster_total = _cluster_time(1000, 50.0, n_vms=64)
        # a cluster sized for full concurrency (250 VMs), still cold
        big_cluster_total = _cluster_time(1000, 50.0, n_vms=250)
        return serverless.total_s, cluster_total, big_cluster_total

    serverless, cluster, big_cluster = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    table = Table(["platform", "total time (s)"])
    table.add_row("IBM-PyWren (massive spawning)", round(serverless, 1))
    table.add_row("64-VM cluster (256 slots)", round(cluster, 1))
    table.add_row("250-VM cluster (1,000 slots)", round(big_cluster, 1))
    emit(table, "Serverless vs provisioned cluster — 1,000 x 50 s tasks (cold)")

    # serverless wins the cold bursty job even against a right-sized cluster
    assert serverless < big_cluster
    assert serverless < cluster
    # the right-sized cluster's deficit is almost entirely provisioning
    assert big_cluster - serverless > 30.0


def test_cluster_amortizes_for_long_jobs(benchmark, emit):
    """The flip side: once booted, a warm cluster matches function compute —
    the trade is elasticity + zero management, not raw steady-state speed."""

    def run_all():
        kernel = Kernel()

        def main():
            cluster = VMCluster(kernel, n_vms=250, slots_per_vm=4, seed=11)
            cold = cluster.run_map_job(1000, 50.0)
            warm = cluster.run_map_job(1000, 50.0)
            return cold.total_s, warm.total_s

        return kernel.run(main)

    cold, warm = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = Table(["job", "total time (s)"])
    table.add_row("first (cold cluster)", round(cold, 1))
    table.add_row("second (warm cluster)", round(warm, 1))
    emit(table, "Warm-cluster amortization — repeat job on the same cluster")

    assert warm < cold
    assert warm == 50.0  # pure compute once provisioned
