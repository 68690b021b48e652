"""Kernel lifecycle: daemon tasks, shutdown, post-run behaviour."""

from __future__ import annotations

import pytest

from repro.vtime import (
    DeadlockError,
    Kernel,
    KernelShutdownError,
    VQueue,
    sleep,
)


class TestDaemonTasks:
    def test_daemon_does_not_keep_run_alive(self, kernel):
        stopped = []

        def background():
            queue = VQueue(kernel)
            try:
                queue.get()  # waits forever
            except (KernelShutdownError, DeadlockError):
                stopped.append(True)
                raise

        def main():
            kernel.spawn(background, daemon=True)
            sleep(5)
            return kernel.now()

        assert kernel.run(main) == 5.0

    def test_nondaemon_descendants_drain_before_run_returns(self, kernel):
        finished = []

        def late_worker():
            sleep(30)
            finished.append(kernel.now())

        def main():
            kernel.spawn(late_worker)  # non-daemon: run() must wait for it
            sleep(1)
            return "main-done"

        assert kernel.run(main) == "main-done"
        assert finished == [30.0]


class TestShutdown:
    def test_spawn_after_shutdown_rejected(self, kernel):
        kernel.run(lambda: None)
        with pytest.raises(KernelShutdownError):
            kernel.spawn(lambda: None)

    def test_now_still_readable_after_run(self, kernel):
        def main():
            sleep(17)

        kernel.run(main)
        assert kernel.now() == 17.0

    def test_tasks_alive_zero_after_run(self, kernel):
        def main():
            sleep(1)

        kernel.run(main)
        assert not kernel._tasks

    def test_no_thread_leak(self):
        import threading

        before = threading.active_count()
        for _ in range(3):
            kernel = Kernel()

            def main():
                from repro.vtime import gather

                gather([kernel.spawn(lambda: sleep(5)) for _ in range(20)])

            kernel.run(main)
        # transient cleanup may lag by a thread or two, not by dozens
        assert threading.active_count() <= before + 3

    def test_shutdown_reclaims_pooled_workers(self):
        """After run() (which shuts down), no pool worker or loop thread
        survives — the pool is drained, not merely idled."""
        import threading

        from repro.vtime import gather, vsleep

        kernel = Kernel()

        def model_job():
            yield vsleep(3)

        def main():
            thread_tasks = [kernel.spawn(lambda: sleep(5)) for _ in range(12)]
            model_tasks = [kernel.spawn_model(model_job) for _ in range(12)]
            gather(thread_tasks + model_tasks)

        kernel.run(main)
        stats = kernel.thread_stats()
        assert stats["threads_created"] >= 1
        assert stats["live_threads"] == 0
        kernel_threads = [
            t
            for t in threading.enumerate()
            if t.name == "vloop" or t.name.startswith("vpool-")
        ]
        assert kernel_threads == []

    def test_explicit_shutdown_kills_blocked_daemons_and_loop(self):
        """shutdown() on a never-run kernel reclaims the model loop and
        unblocks daemon tasks parked on timers."""
        from repro.vtime import vsleep

        kernel = Kernel()

        def model_job():
            yield vsleep(10_000)

        task = kernel.spawn_model(model_job, daemon=True)
        kernel.shutdown()
        assert task.finished
        assert kernel.thread_stats()["live_threads"] == 0
        with pytest.raises(KernelShutdownError):
            kernel.spawn(lambda: None)
