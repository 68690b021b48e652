"""Fig. 2 + the §6.1 text numbers: massive function spawning.

The experiment: 1,000 invocations of a 50-second compute-bound function.
From a high-latency client, local invocation needs ~38 s to spawn the job
(whole experiment ~88 s); with massive function spawning the invocation
phase drops to ~8 s (~58 s total).  The §5.1 narrative also gives two more
data points we reproduce: ~8 s from a *low-latency* client, and ~20 s with
the first single-remote-invoker design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analytics.timeline import concurrency_timeline, intervals_from_records
from repro.bench.reporting import Table
from repro.config import InvokerMode
from repro.core import cost
from repro.core.environment import CloudEnvironment
from repro.core.worker import RUNNER_ACTION_BASENAME
from repro.faas.limits import SystemLimits
from repro.net.latency import LatencyModel


@dataclass
class SpawningResult:
    """Measured outcome of one spawning run."""

    label: str
    mode: str
    client: str
    n_functions: int
    #: seconds until the last function *started* (the invocation phase)
    invocation_phase_s: float
    #: seconds until the last function finished (the whole experiment)
    total_s: float
    #: (t, concurrent running functions) samples — Fig. 2's black line
    concurrency: list[tuple[float, int]] = field(default_factory=list)


def run_spawning(
    mode: str = InvokerMode.MASSIVE,
    n_functions: int = 1000,
    task_seconds: Optional[float] = None,
    client_latency: Optional[LatencyModel] = None,
    label: Optional[str] = None,
    seed: int = 42,
    max_concurrent: Optional[int] = None,
) -> SpawningResult:
    """Run one spawning experiment and extract its timeline."""
    client_latency = client_latency or LatencyModel.wan()
    limits = SystemLimits(
        # headroom for the remote invoker functions themselves
        max_concurrent=max_concurrent or (n_functions + 32),
    )
    env = CloudEnvironment.create(
        client_latency=client_latency, limits=limits, seed=seed
    )
    task_time = task_seconds if task_seconds is not None else cost.FIG2_TASK_SECONDS

    def _task(_: object) -> int:
        import repro

        repro.sleep(task_time)
        return 1

    def main() -> tuple[float, float, list[tuple[float, float]]]:
        import repro

        executor = repro.ibm_cf_executor(invoker_mode=mode)
        t0 = env.now()
        futures = executor.map(_task, [0] * n_functions)
        executor.get_result(futures)
        intervals = intervals_from_records(
            env.platform.activations(), RUNNER_ACTION_BASENAME
        )
        assert len(intervals) == n_functions
        last_start = max(start for start, _end in intervals)
        last_end = max(end for _start, end in intervals)
        return last_start - t0, last_end - t0, intervals

    invocation_phase, total, intervals = env.run(main)
    return SpawningResult(
        label=label or f"{mode} ({client_latency.name} client)",
        mode=mode,
        client=client_latency.name,
        n_functions=n_functions,
        invocation_phase_s=invocation_phase,
        total_s=total,
        concurrency=concurrency_timeline(intervals),
    )


#: paper-reported (invocation phase, total) seconds for the four §5.1/§6.1
#: configurations; ``None`` where the paper gives no number
PAPER_NUMBERS = {
    "local (wan client)": (38, 88),
    "local (lan client)": (8, None),
    "remote (wan client)": (20, None),
    "massive (wan client)": (8, 58),
}


def run_fig2(n_functions: int = 1000, seed: int = 42) -> list[SpawningResult]:
    """The two Fig. 2 configurations: local WAN vs massive spawning."""
    return [
        run_spawning(InvokerMode.LOCAL, n_functions, seed=seed),
        run_spawning(InvokerMode.MASSIVE, n_functions, seed=seed),
    ]


def run_invoker_sweep(n_functions: int = 1000, seed: int = 42) -> list[SpawningResult]:
    """All four configurations discussed in §5.1/§6.1."""
    return [
        run_spawning(
            InvokerMode.LOCAL,
            n_functions,
            client_latency=LatencyModel.lan(),
            label="local (lan client)",
            seed=seed,
        ),
        run_spawning(InvokerMode.LOCAL, n_functions, seed=seed),
        run_spawning(InvokerMode.REMOTE, n_functions, seed=seed),
        run_spawning(InvokerMode.MASSIVE, n_functions, seed=seed),
    ]


def report(results: list[SpawningResult]) -> Table:
    table = Table(
        ["configuration", "invocation phase (s)", "total (s)", "paper inv. (s)", "paper total (s)"],
    )
    for result in results:
        table.add_row(
            result.label,
            f"{result.invocation_phase_s:.1f}",
            f"{result.total_s:.1f}",
            *PAPER_NUMBERS.get(result.label, (None, None)),
        )
    return table
