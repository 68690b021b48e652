"""Fast checks of the benchmark's own machinery (tiny sizes, seconds).

    python3 perf/selftest.py          or          pytest perf/selftest.py

Outside ``testpaths`` on purpose: these test the measuring tool, not the
program, and are run when the tool changes.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import boundaries  # noqa: E402
import facts  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402
from boundaries import Recorder, _task_context, _wrap_plain, _wrap_steps  # noqa: E402


def _burn(seconds: float) -> None:
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def test_self_time_accounts_for_all_covered_cpu():
    rec = Recorder()
    inner = _wrap_plain(lambda: _burn(0.05), 1, rec)
    outer = _wrap_plain(lambda: (_burn(0.05), inner(), _burn(0.02)), 0, rec)
    cpu = time.process_time()
    outer()
    cpu = time.process_time() - cpu
    fold = rec.fold()
    first, second = boundaries.LAYERS[:2]
    assert fold.calls[first] == fold.calls[second] == 1
    assert abs(fold.self_cpu_s[first] - 0.07) < 0.005
    assert abs(fold.self_cpu_s[second] - 0.05) < 0.005
    # layers + rest = process CPU, with rest ~ 0 when a boundary covers all
    rest = cpu - sum(fold.self_cpu_s.values())
    assert abs(rest) <= 0.02 * cpu + 0.001


def test_same_layer_call_is_not_a_crossing():
    rec = Recorder()
    inner = _wrap_plain(lambda: 7, 0, rec)
    outer = _wrap_plain(lambda: inner(), 0, rec)
    assert outer() == 7
    fold = rec.fold()
    assert fold.calls[boundaries.LAYERS[0]] == 1 and fold.events == 2


def test_steps_wrapper_forwards_send_throw_close_and_return():
    log = []

    def steps(first):
        try:
            got = yield first
            try:
                yield got * 2
            except KeyError as exc:
                log.append(("caught", exc.args))
                yield "recovered"
            return "done"
        finally:
            log.append("closed")

    wrapped = _wrap_steps(steps, 0, Recorder())
    assert inspect.isgeneratorfunction(wrapped)
    assert wrapped.__name__ == "steps"

    gen = wrapped(1)
    assert gen.send(None) == 1
    assert gen.send(21) == 42
    assert gen.throw(KeyError("k")) == "recovered"
    try:
        gen.send(None)
        raise AssertionError("expected StopIteration")
    except StopIteration as stop:
        assert stop.value == "done"
    assert log == [("caught", ("k",)), "closed"]

    del log[:]
    gen = wrapped(1)
    gen.send(None)
    gen.close()
    assert log == ["closed"]

    def failing():
        yield 1
        raise ValueError("boom")

    gen = _wrap_steps(failing, 0, Recorder())()
    gen.send(None)
    try:
        gen.send(None)
        raise AssertionError("expected ValueError")
    except ValueError:
        pass


def test_task_context_keeps_each_tasks_layer_across_interleaved_steps():
    rec = Recorder()

    def sleeper():  # suspends inside layer 0 without burning CPU there
        yield "op"
        return "a"

    def burner():  # burns CPU outside every layer while the other sleeps
        _burn(0.03)
        yield "op"
        _burn(0.03)
        return "b"

    task_a = _task_context(_wrap_steps(sleeper, 0, rec)(), rec)
    task_b = _task_context(burner(), rec)
    task_a.send(None)  # a is now suspended inside layer 0
    task_b.send(None)  # b's work must not be billed to layer 0
    for task in (task_a, task_b):
        try:
            task.send(None)
        except StopIteration:
            pass
    fold = rec.fold()
    assert fold.calls[boundaries.LAYERS[0]] == 1
    assert fold.self_cpu_s[boundaries.LAYERS[0]] < 0.005


def test_unresolved_boundary_names_are_reported_not_fatal():
    table = boundaries.BOUNDARIES
    table["vtime"] += ("repro.vtime.kernel:Kernel.no_such_method",
                       "repro.no_such_module:anything")
    try:
        installed = boundaries.install()
        boundaries.uninstall(installed)
    finally:
        table["vtime"] = table["vtime"][:-2]
    assert installed.unresolved == [
        "repro.vtime.kernel:Kernel.no_such_method",
        "repro.no_such_module:anything",
    ]


def test_wrappers_uninstall_completely():
    import repro.core.storage_client as storage_client
    from repro.core import serializer
    from repro.vtime.kernel import Kernel

    def snapshot():
        return (vars(Kernel)["sleep"], vars(Kernel)["spawn_model"],
                serializer.serialize, storage_client.serializer.deserialize,
                vars(storage_client.InternalStorage)["get_result"])

    before = snapshot()
    installed = boundaries.install()
    during = snapshot()
    boundaries.uninstall(installed)
    assert installed.unresolved == []
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, snapshot()))


def _tiny_iteration(workload: str, scale: float, wrapped: bool):
    jobs = workloads.WORKLOADS[workload](5, scale)
    probe = measure.SpeedProbe()
    if wrapped:
        record = measure.boundary_pass(jobs, 5, probe)
    else:
        record = measure.run_iteration(jobs, 5, False, probe)
    assert record["failed_calls"] == 0, record["errors"]
    return record


def test_same_seed_model_is_identical_with_wrappers_on_and_off():
    for workload, scale in (("map_fanout", 0.005), ("shuffle_wordcount", 0.01),
                            ("airbnb_mapreduce", 0.01), ("dag_pipeline", 0.05)):
        plain = _tiny_iteration(workload, scale, wrapped=False)
        wrapped = _tiny_iteration(workload, scale, wrapped=True)
        for name, value in plain["facts"].items():
            if name not in facts.HOST_DEPENDENT:
                assert measure.same_fact(wrapped["facts"][name], value), (
                    workload, name)
        boundary = wrapped["boundary"]
        assert boundary["unresolved"] == []
        covered = sum(boundary["self_cpu_raw_s"].values())
        assert 0 < covered <= wrapped["host_cpu_raw_s"] * 1.02


def test_traced_facts_resolve_every_event_name():
    for workload, scale in (("map_fanout", 0.005), ("dag_pipeline", 0.05)):
        jobs = workloads.WORKLOADS[workload](5, scale)
        record = measure.run_iteration(jobs, 5, True, measure.SpeedProbe())
        assert record["failed_calls"] == 0, record["errors"]
        assert record["unresolved_events"] == []
        assert None not in record["traced"].values()


def test_cpu_pinning_falls_back_where_unavailable():
    allowed = os.sched_getaffinity(0)
    real = os.sched_setaffinity
    try:
        os.sched_setaffinity = lambda pid, cpus: (_ for _ in ()).throw(OSError())
        assert measure.pin_to_one_cpu() is None
        del os.sched_setaffinity
        assert measure.pin_to_one_cpu() is None
        os.sched_setaffinity = real
        assert measure.pin_to_one_cpu() == max(allowed)
    finally:
        os.sched_setaffinity = real
        real(0, allowed)


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print("ok", name)
