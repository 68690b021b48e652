"""The client's fan-outs run on model-task lanes: counts, not timings.

``get_result``'s parallel downloads (§4.2) and the ``LOCAL`` / ``MASSIVE``
invokers' client pools (§5.1) go through :func:`repro.vtime.fan_out`.  A
regression back to OS-thread pools shows here as threads created, with no
timing involved; the request tallies pin that the lanes issue exactly the
requests the thread pools did.  The last case pins what the thread pools
could not promise: one seed, one trace, however often it runs.
"""

from __future__ import annotations

import hashlib

import repro as pw
from repro.vtime import vsleep


def step(x):
    """A threadless user function: its activation is a model task too."""
    yield vsleep(1.0)
    return x + 1


def _run(mode, n, collect=True, seed=7, **executor_kwargs):
    env = pw.CloudEnvironment.create(seed=seed, trace=True)

    def main():
        executor = pw.ibm_cf_executor(invoker_mode=mode, **executor_kwargs)
        futures = executor.map(step, range(n))
        threads_after_map = env.kernel.thread_stats()["threads_created"]
        values = executor.get_result(futures) if collect else None
        trace = executor.trace_jsonl().replace(executor.executor_id, "EXEC")
        return threads_after_map, values, trace

    threads_after_map, values, trace = env.run(main)
    net_requests = sum(1 for e in env.tracer.events() if e.name == "net.request")
    return env, threads_after_map, values, trace, net_requests


class TestNoClientThreads:
    def test_massive_map_and_get_result_create_only_the_root_thread(self):
        env, _, values, _, net_requests = _run(pw.InvokerMode.MASSIVE, 1000)
        assert values == [x + 1 for x in range(1000)]
        assert env.kernel.thread_stats()["threads_created"] == 1
        assert env.kernel.thread_stats()["peak_threads"] <= 2
        counts = env.storage.request_counts()
        # what the 32-thread result pool and the 8-thread invoker pool issued
        assert (counts["get"], counts["list"], net_requests) == (3000, 8, 7059)

    def test_local_invoker_creates_no_pooled_thread(self):
        env, threads_after_map, _, _, net_requests = _run(
            pw.InvokerMode.LOCAL, 100, collect=False
        )
        assert threads_after_map == 1
        assert env.kernel.thread_stats()["threads_created"] == 1
        assert net_requests == 503


class TestOneTracePerSeed:
    def test_map_get_result_trace_is_one_hash_in_one_process(self):
        hashes = set()
        for _ in range(20):
            _, _, values, trace, _ = _run(
                pw.InvokerMode.MASSIVE, 200, seed=11, result_fetch_pool_size=32
            )
            assert values == [x + 1 for x in range(200)]
            hashes.add(hashlib.sha256(trace.encode()).hexdigest())
        assert len(hashes) == 1
