"""A provisioned-cluster baseline (the world PyWren replaces).

The paper's motivation (§1, §5): serverless lets users run bursty parallel
jobs "without waiting for machines to spin up", unlike Spark-style
clusters whose executors take minutes to provision (§2 cites Qubole's
~2-minute cold executor startup).  This module models that alternative: a
VM cluster that must boot before computing, so benches can quantify the
crossover between "spin up a cluster" and "spawn a thousand functions".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.vtime import Kernel, VSemaphore, gather

#: default VM boot time (seconds) — order of the §2 Qubole figure
DEFAULT_BOOT_SECONDS = 120.0
DEFAULT_BOOT_JITTER = 0.15


@dataclass
class ClusterJobResult:
    """Outcome of one map-style job on the cluster."""

    n_tasks: int
    provisioning_s: float
    compute_s: float

    @property
    def total_s(self) -> float:
        return self.provisioning_s + self.compute_s


class VMCluster:
    """A fixed-size VM cluster with cold boot and slot-limited parallelism.

    ``run_map_job`` boots the cluster (once; subsequent jobs reuse it —
    that is exactly the cluster-management burden PyWren's users avoid),
    then executes ``n_tasks`` of ``task_seconds`` each over
    ``n_vms * slots_per_vm`` parallel slots.
    """

    def __init__(
        self,
        kernel: Kernel,
        n_vms: int,
        slots_per_vm: int = 4,
        boot_seconds: float = DEFAULT_BOOT_SECONDS,
        boot_jitter: float = DEFAULT_BOOT_JITTER,
        seed: int = 0,
    ) -> None:
        if n_vms <= 0 or slots_per_vm <= 0:
            raise ValueError("cluster needs at least one VM and one slot")
        self.kernel = kernel
        self.n_vms = n_vms
        self.slots_per_vm = slots_per_vm
        self.boot_seconds = boot_seconds
        self.boot_jitter = boot_jitter
        self._rng = random.Random(seed)
        self._booted = False

    @property
    def slots(self) -> int:
        return self.n_vms * self.slots_per_vm

    @property
    def booted(self) -> bool:
        return self._booted

    def provision(self) -> float:
        """Boot all VMs in parallel; returns the provisioning time.

        Provisioning completes when the *slowest* VM is up.
        """
        if self._booted:
            return 0.0
        start = self.kernel.now()

        def _boot_vm(boot_time: float) -> None:
            self.kernel.sleep(boot_time)

        boots = [
            self.boot_seconds
            * (1 + self._rng.uniform(-self.boot_jitter, self.boot_jitter))
            for _ in range(self.n_vms)
        ]
        gather(
            [self.kernel.spawn(_boot_vm, b, name=f"vm-boot-{i}") for i, b in enumerate(boots)]
        )
        self._booted = True
        return self.kernel.now() - start

    def terminate(self) -> None:
        """Release the cluster (the next job pays provisioning again)."""
        self._booted = False

    def run_map_job(
        self, n_tasks: int, task_seconds: float
    ) -> ClusterJobResult:
        """Run ``n_tasks`` uniform tasks; returns phase timings."""
        if n_tasks < 0:
            raise ValueError("n_tasks must be non-negative")
        provisioning = self.provision()
        start = self.kernel.now()
        if n_tasks:
            slots = VSemaphore(self.kernel, self.slots)

            def _task() -> None:
                with slots:
                    self.kernel.sleep(task_seconds)

            gather(
                [self.kernel.spawn(_task, name=f"cl-task-{i}") for i in range(n_tasks)]
            )
        return ClusterJobResult(
            n_tasks=n_tasks,
            provisioning_s=provisioning,
            compute_s=self.kernel.now() - start,
        )
