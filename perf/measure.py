"""Measure one workload in this process and print one JSON record.

``run.py`` starts this file once per workload, in a fresh interpreter:

    set-up   pin to one CPU, import the program, generate the inputs and
             reference answers from the seed, run one warm-up job (~1/10)
    phase A  timed iterations, the program's trace spine off
    phase B  timed iterations with ``CloudEnvironment.create(trace=True)``
    phase C  one boundary pass: spine off, ``boundaries.py`` wrappers on

A timed iteration runs every job of the workload once.  Only ``job.run``
is timed; the answer check and the reading of counters happen between
jobs.  ``gc.collect()`` runs before each iteration and the collector stays
on inside it: users pay for it.

Host seconds are reported at a reference machine speed.  This sandbox's
core speed moves by tens of percent for seconds to minutes at a time (a
fixed pure Python loop: 0.30 s, then 0.40 s for five seconds, then 0.30 s
again), so a probe thread times a fixed piece of Python every 50 ms, in
thread CPU time, while the jobs run.  An iteration's ``speed`` is its mean
probe time over :data:`REFERENCE_PROBE_NS`; its host seconds are divided by
``slowdown = speed ** SPEED_EXPONENT``.  The raw seconds, the speed and the
slowdown stay in the record.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Iterator, Optional

HERE = Path(__file__).resolve().parent

#: iterations of a full run (no ``--seconds``)
DEFAULT_ITERATIONS = {"A": 5, "B": 3}

#: how far two iterations' modelled seconds may differ and still count as
#: the same answer.  Counts must match exactly; modelled seconds carry a
#: host-timing race of the program (README, findings): which result-fetch
#: lane downloads which result depends on real thread timing, and results
#: differ by a few bytes, so the makespan moves by ~1e-7 s on some seeds.
VIRT_REL_TOL = 1e-6

PROBE_PERIOD_S = 0.05
#: thread CPU ns the probe takes on this sandbox's core when it is quiet
REFERENCE_PROBE_NS = 370_000
#: how much of the probe's slow-down the workloads share.  The probe is all
#: interpreter; the workloads also wait for memory, which a slow core does
#: not slow.  Fitted over 40 iterations at speeds 1.0-1.8, iteration time
#: grows as speed^0.61 (map_fanout), ^1.03 (airbnb_mapreduce), ^0.81
#: (shuffle_wordcount), ^0.89 (dag_pipeline); 0.8 leaves every workload
#: within 13 % between speed 1.0 and 1.7 (an exponent of 1 leaves
#: map_fanout 19 % low, no correction leaves the four 38-73 % high).
SPEED_EXPONENT = 0.8


def pin_to_one_cpu() -> Optional[int]:
    """Pin this process to its highest allowed CPU; ``None`` where the
    platform cannot.  The emulator is GIL-bound: left on two cores, its
    thread hand-offs cross cores and the thread-heavy jobs run 2-3x slower
    and bimodal."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def reset_peak_rss() -> None:
    """Start a new peak-RSS measurement, where the kernel allows; where it
    does not, :func:`peak_rss_mb` reports the process's peak so far."""
    try:
        with open("/proc/self/clear_refs", "w") as knob:
            knob.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _probe_kernel() -> None:
    """Attribute, dict, list and call traffic, like the emulator's own."""
    counts: dict[int, int] = {}
    seen: list[int] = []
    for i in range(3000):
        key = i & 255
        counts[key] = counts.get(key, 0) + 1
        seen.append(len(counts))
        if len(seen) > 64:
            seen.clear()


class SpeedProbe(threading.Thread):
    """Samples how fast this core runs a fixed piece of Python right now."""

    def __init__(self) -> None:
        super().__init__(name="perf-speed-probe", daemon=True)
        self.samples_ns: list[int] = []
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(PROBE_PERIOD_S):
            start = time.thread_time_ns()
            _probe_kernel()
            self.samples_ns.append(time.thread_time_ns() - start)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()


class Meter:
    """Host cost of the timed regions of one iteration."""

    def __init__(self, probe: SpeedProbe) -> None:
        self._probe = probe
        self._probe_ns: list[int] = []
        self._gc_started = 0.0
        self.job_wall_s: dict[str, float] = {}
        self.cpu_s = 0.0
        self.ctx_switches = 0
        self.gc_s = 0.0
        self.gc_collections = 0

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    @contextlib.contextmanager
    def timed(self, name: str) -> Iterator[None]:
        first_sample = len(self._probe.samples_ns)
        gc.callbacks.append(self._on_gc)
        before = resource.getrusage(resource.RUSAGE_SELF)
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            self.job_wall_s[name] = time.perf_counter() - wall
            self.cpu_s += time.process_time() - cpu
            after = resource.getrusage(resource.RUSAGE_SELF)
            gc.callbacks.remove(self._on_gc)
            self.ctx_switches += (
                after.ru_nvcsw + after.ru_nivcsw
                - before.ru_nvcsw - before.ru_nivcsw
            )
            self._probe_ns += self._probe.samples_ns[first_sample:]

    def record(self) -> dict[str, Any]:
        # an iteration too short for a single probe sample stays raw
        speed = (statistics.mean(self._probe_ns) / REFERENCE_PROBE_NS
                 if self._probe_ns else 1.0)
        return {
            "host_wall_raw_s": sum(self.job_wall_s.values()),
            "host_cpu_raw_s": self.cpu_s,
            "speed": speed,
            "slowdown": speed ** SPEED_EXPONENT,
            "job_wall_raw_s": self.job_wall_s,
            "ctx_switches": self.ctx_switches,
            "gc_s": self.gc_s,
            "gc_collections": self.gc_collections,
        }


def run_iteration(
    jobs: list, seed: int, trace: bool, probe: SpeedProbe
) -> dict[str, Any]:
    """Run every job once; returns the iteration's record."""
    import facts

    meter = Meter(probe)
    per_job, per_job_traced = [], []
    makespans: dict[str, float] = {}
    unresolved: set[str] = set()
    failed, errors = 0, []
    gc.collect()
    reset_peak_rss()
    for job in jobs:
        try:
            with meter.timed(job.name):
                run = job.run(seed, trace)
            if not job.check(run.answer):
                raise AssertionError("answer differs from the reference")
        except Exception:  # a failed job fails its calls, not the benchmark
            failed += job.calls
            errors.append(f"{job.name}: {traceback.format_exc(limit=3)}")
            continue
        per_job.append(facts.job_facts(run))
        makespans[job.name] = run.makespan_s
        if trace:
            traced, missing = facts.traced_facts(job, run)
            per_job_traced.append(traced)
            unresolved |= missing
        del run
    return {
        **meter.record(),
        "peak_rss_mb": peak_rss_mb(),
        "job_makespan_s": makespans,
        "facts": facts.merge(per_job),
        "traced": facts.merge(per_job_traced),
        "unresolved_events": sorted(unresolved),
        "failed_calls": failed,
        "errors": errors,
    }


def boundary_pass(jobs: list, seed: int, probe: SpeedProbe) -> dict[str, Any]:
    """Phase C: one untraced iteration under the boundary wrappers."""
    import boundaries

    installed = boundaries.install()
    try:
        record = run_iteration(jobs, seed, False, probe)
    finally:
        unresolved = list(installed.unresolved)
        boundaries.uninstall(installed)
    fold = installed.recorder.fold()
    record["boundary"] = {
        "calls": fold.calls,
        "self_cpu_raw_s": fold.self_cpu_s,
        "bytes": fold.bytes,
        "events": fold.events,
        "unresolved": unresolved,
    }
    return record


def measure(args: argparse.Namespace) -> dict[str, Any]:
    cpu = pin_to_one_cpu()
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    import workloads  # imports the program: part of set-up

    prepare = workloads.WORKLOADS[args.workload]
    probe = SpeedProbe()
    probe.start()
    warm_up = run_iteration(prepare(args.seed, 0.1), args.seed, False, probe)
    record: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "python_version": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "setup_s": time.monotonic() - args.spawned_at,
        "errors": warm_up["errors"],
        "iterations": {},
    }
    if args.setup_only or warm_up["errors"]:
        probe.stop()
        return record
    # the measured inputs and their reference answers are the benchmark's
    # own work, not the program's: generated after set-up is timed
    jobs = prepare(args.seed, 1.0)
    record.update(
        calls=sum(job.calls for job in jobs),
        paper_s={job.name: job.paper_s for job in jobs if job.paper_s},
        dag_jobs=[job.name for job in jobs if job.dag_shape],
    )
    started = time.monotonic()

    def elapsed() -> float:
        return time.monotonic() - started

    def phase(name: str, trace: bool, enough: Any) -> None:
        done = record["iterations"].setdefault(name, [])
        while not enough(done):
            done.append(run_iteration(jobs, args.seed, trace, probe))

    if args.seconds is None:
        phase("A", False, lambda done: len(done) >= DEFAULT_ITERATIONS["A"])
        phase("B", True, lambda done: len(done) >= DEFAULT_ITERATIONS["B"])
    else:
        # a time budget: after its first, a phase starts another iteration
        # only if one as long as the last still fits.  Phase A has a share
        # of the budget, phase B the rest; with a boundary pass to follow,
        # phase B stops at one.
        def fits(done: list, budget: float) -> bool:
            return elapsed() + done[-1]["host_wall_raw_s"] <= budget

        share = 0.3 if args.boundaries else 0.55
        phase("A", False,
              lambda done: done and not fits(done, share * args.seconds))
        phase("B", True, lambda done: done and (
            args.boundaries or not fits(done, args.seconds)))
    if args.boundaries:
        record["iterations"]["C"] = [boundary_pass(jobs, args.seed, probe)]
    probe.stop()
    return record


def _median(values: list) -> Optional[float]:
    return statistics.median(values) if values else None


def same_fact(a: Any, b: Any) -> bool:
    """Whether two runs of one seed agree on a fact: counts exactly,
    modelled seconds within :data:`VIRT_REL_TOL`."""
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=VIRT_REL_TOL)
    return a == b


def gate(record: dict[str, Any]) -> None:
    """Count the record's failed calls: those of failed jobs, or all of
    them when the modelled answer differs between iterations.  Adds
    ``attempted_calls``, ``failed_calls`` and ``host_dependent``."""
    from facts import HOST_DEPENDENT

    phases = record["iterations"]
    every = [it for name in "ABC" for it in phases.get(name, [])]
    record["host_dependent"] = list(HOST_DEPENDENT)
    errors = record["errors"]
    for iteration in every:
        errors += iteration["errors"]

    # the modelled answer may not depend on the iteration, on the trace
    # spine being on, or on the boundary wrappers being installed
    def seeded(facts: dict) -> dict:
        return {k: v for k, v in facts.items() if k not in HOST_DEPENDENT}

    for key, group in (("facts", every), ("traced", phases.get("B", []))):
        for iteration in group[1:]:
            moved = {
                name: (value, iteration[key].get(name))
                for name, value in seeded(group[0][key]).items()
                if not same_fact(iteration[key].get(name), value)
            }
            if moved:
                errors.append(f"not deterministic across iterations: {moved}")
    record["attempted_calls"] = record["calls"] * len(every)
    record["failed_calls"] = (
        record["attempted_calls"] if errors
        else sum(iteration["failed_calls"] for iteration in every)
    )


def derive(record: dict[str, Any]) -> None:
    """Derive every metric from a gated record.  Adds ``samples`` (the
    host metrics' per-iteration values, at reference speed) and
    ``metrics`` (their medians and everything else; ``None`` where a
    metric does not apply)."""
    from boundaries import LAYERS
    from facts import HOST_DEPENDENT

    phases = record["iterations"]
    A, B, C = (phases.get(name, []) for name in "ABC")
    every = A + B + C

    def at_reference_speed(iterations: list, key: str) -> list[float]:
        return [it[key] / it["slowdown"] for it in iterations]

    samples = record["samples"] = {
        "host_wall_s": at_reference_speed(A, "host_wall_raw_s"),
        "host_cpu_s": at_reference_speed(A, "host_cpu_raw_s"),
        "host_wall_traced_s": at_reference_speed(B, "host_wall_raw_s"),
    }
    facts = every[0]["facts"]
    traced = B[-1]["traced"] if B else {}
    metrics = record["metrics"] = {
        **facts,
        **traced,
        **{name: _median(values) for name, values in samples.items()},
        "setup_s": record["setup_s"],
        "host_peak_rss_mb": _median([it["peak_rss_mb"] for it in A]),
        "failed_calls": record["failed_calls"],
    }
    wall, traced_wall = metrics["host_wall_s"], metrics["host_wall_traced_s"]
    makespans = every[0]["job_makespan_s"]
    if record["paper_s"]:
        metrics["paper_err_pct"] = statistics.mean(
            abs(makespans[job] - paper_s) / paper_s * 100
            for job, paper_s in record["paper_s"].items()
        )
    for name in HOST_DEPENDENT:
        metrics[name] = _median([it["facts"][name] for it in A])
    metrics["vtime.ctx_switches"] = _median([it["ctx_switches"] for it in A])
    metrics["py.gc_collections"] = _median([it["gc_collections"] for it in A])
    metrics["py.gc_s"] = _median(at_reference_speed(A, "gc_s"))
    metrics["vtime.host_us_per_task"] = (
        wall / facts["vtime.tasks_spawned"] * 1e6
    )
    for job in record["dag_jobs"]:
        metrics[f"dag.{job}.host_wall_s"] = _median(
            [it["job_wall_raw_s"][job] / it["slowdown"] for it in A]
        )
    if B:
        metrics["trace.overhead_pct"] = (traced_wall / wall - 1) * 100
        metrics["trace.host_us_per_event"] = (
            (traced_wall - wall) / traced["trace.events"] * 1e6
        )
    if C:
        pass_, boundary = C[0], C[0]["boundary"]
        slowdown = pass_["slowdown"]
        cpu = pass_["host_cpu_raw_s"] / slowdown
        covered = 0.0
        for layer in LAYERS:
            self_cpu = boundary["self_cpu_raw_s"][layer] / slowdown
            covered += self_cpu
            metrics[f"{layer}.calls"] = boundary["calls"][layer]
            metrics[f"{layer}.host_cpu_self_s"] = self_cpu
        metrics["rest.host_cpu_s"] = cpu - covered
        metrics["rest.host_cpu_share"] = (cpu - covered) / cpu
        metrics["core.serializer.bytes"] = boundary["bytes"]["core.serializer"]
        metrics["bench.boundary_overhead_pct"] = (
            pass_["host_wall_raw_s"] / slowdown / wall - 1
        ) * 100
        metrics["bench.unresolved"] = len(boundary["unresolved"]) + len(
            B[-1]["unresolved_events"] if B else ()
        )
    metrics["bench.virt_jitter_s"] = max(
        abs(it["facts"]["virt_makespan_s"] - facts["virt_makespan_s"])
        for it in every
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() when run.py started this process")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget for phases A and B; default: "
                        f"{DEFAULT_ITERATIONS} iterations")
    parser.add_argument("--boundaries", type=int, choices=(0, 1), default=1,
                        help="run phase C")
    parser.add_argument("--setup-only", action="store_true")
    record = measure(parser.parse_args(argv))
    if "calls" in record:
        gate(record)
        derive(record)
    else:  # set-up only, or the warm-up failed
        record["failed_calls"] = len(record["errors"])
    print(json.dumps(record))
    return 1 if record["failed_calls"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
