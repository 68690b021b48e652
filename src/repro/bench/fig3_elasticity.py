"""Fig. 3 — elasticity and concurrency (§6.2).

A ~60-second compute-bound function is launched 500, 1,000, 1,500 and
2,000 times (massive spawning enabled).  The claim reproduced: "for all the
workloads, we obtained full concurrency, i.e., the black line met the
target workload size in all the experiments", and the platform scales each
successive +500 step without trouble.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analytics.timeline import concurrency_timeline, intervals_from_records
from repro.bench.reporting import Table
from repro.config import InvokerMode
from repro.core import cost
from repro.core.environment import CloudEnvironment
from repro.core.worker import RUNNER_ACTION_BASENAME
from repro.faas.limits import SystemLimits
from repro.net.latency import LatencyModel

#: §6.2's workload sizes
WORKLOADS = (500, 1000, 1500, 2000)


@dataclass
class ElasticityResult:
    """Outcome of one workload size."""

    n_functions: int
    peak_concurrency: int
    reached_full_concurrency: bool
    total_s: float
    mean_duration_s: float
    concurrency: list[tuple[float, int]] = field(default_factory=list)


def run_workload(n_functions: int, seed: int = 42) -> ElasticityResult:
    """One elasticity run at a given concurrency target."""
    limits = SystemLimits(
        # "the number of concurrent functions can be increased if needed"
        max_concurrent=max(WORKLOADS) + 64,
    )
    env = CloudEnvironment.create(
        client_latency=LatencyModel.wan(), limits=limits, seed=seed
    )

    def _task(_: object) -> int:
        import repro

        repro.sleep(cost.FIG3_TASK_SECONDS)
        return 1

    def main():
        import repro

        executor = repro.ibm_cf_executor(invoker_mode=InvokerMode.MASSIVE)
        t0 = env.now()
        futures = executor.map(_task, [0] * n_functions)
        executor.get_result(futures)
        intervals = intervals_from_records(
            env.platform.activations(), RUNNER_ACTION_BASENAME
        )
        total = max(end for _s, end in intervals) - t0
        durations = [end - start for start, end in intervals]
        return intervals, total, durations

    intervals, total, durations = env.run(main)
    timeline = concurrency_timeline(intervals)
    peak = max(level for _t, level in timeline)
    return ElasticityResult(
        n_functions=n_functions,
        peak_concurrency=peak,
        reached_full_concurrency=peak >= n_functions,
        total_s=total,
        mean_duration_s=sum(durations) / len(durations),
        concurrency=timeline,
    )


def run_fig3(workloads=WORKLOADS, seed: int = 42) -> list[ElasticityResult]:
    return [run_workload(n, seed=seed) for n in workloads]


def report(results: list[ElasticityResult]) -> Table:
    table = Table(
        [
            "workload",
            "peak concurrency",
            "full concurrency?",
            "total (s)",
            "mean fn duration (s)",
        ],
    )
    for result in results:
        table.add_row(
            result.n_functions,
            result.peak_concurrency,
            "yes" if result.reached_full_concurrency else "NO",
            f"{result.total_s:.1f}",
            f"{result.mean_duration_s:.1f}",
        )
    return table
