"""``repro.chaos`` — deterministic, seed-driven fault injection.

The paper's headline experiments only work because IBM-PyWren tolerates
platform pushback: throttling, cold-start variance, transient COS errors
and outright lost invocations over the WAN.  This module lets the
reproduction *cause* those failures on demand, repeatably:

* container **crashes** and **hangs** mid-execution (consumed by the
  controller in :mod:`repro.faas.controller`);
* **invoker-node blackouts** — scheduled windows during which a node
  accepts no placements (:mod:`repro.faas.invoker_node`);
* COS transient **503/SlowDown** errors and **slow reads**
  (:mod:`repro.cos.client` / :mod:`repro.cos.object_store`);
* **link degradation** — inflated RTTs and extra transient drops
  (:mod:`repro.net.link`);
* synthetic **429 throttles** from the controller;
* **client crashes** — the *driver* dies at a seeded virtual time while
  cloud-side work keeps running (consumed by the executor's submit/wait
  paths and the DAG watcher; recover with the event journal's
  ``reattach``, see :mod:`repro.events`);
* **exchange store-VM crashes** — a provisioned ephemeral-store node of
  the VM exchange backend dies at a seeded time, losing its memory
  (:mod:`repro.exchange.vm`; readers fall back to COS transparently).

Determinism contract: every decision is drawn from a private RNG keyed by
``(profile seed, fault site, stable per-event key)`` — an activation id, a
link's seed plus its request index, a node id.  Decisions therefore do not
depend on thread interleavings or on each other, so a given
``(profile, seed)`` pair reproduces the exact same fault timeline on the
virtual-time kernel, and an inert profile leaves every existing RNG stream
untouched (``profile="none"`` is byte-identical to running without chaos).

Usage::

    profile = ChaosProfile("storm", seed=7)
    env = CloudEnvironment.create(chaos=profile)
    ...
    env.chaos.timeline          # the reproducible fault record
"""

from __future__ import annotations

import hashlib
import random
import threading
from dataclasses import dataclass
from typing import Any, Optional

__all__ = ["ChaosProfile", "ChaosPlane", "FaultEvent", "PROFILE_PRESETS"]

#: horizon (virtual seconds) over which node blackout windows are scheduled
BLACKOUT_HORIZON_S = 4 * 3600.0

#: knob presets for the named profiles
PROFILE_PRESETS: dict[str, dict[str, float]] = {
    "none": {},
    "flaky-cos": {
        "cos_error_prob": 0.08,
        "cos_slow_read_prob": 0.05,
        "cos_slow_read_factor": 4.0,
    },
    "crashy-workers": {
        "crash_prob": 0.08,
        "hang_prob": 0.02,
        "hang_s": 45.0,
    },
    "storm": {
        "crash_prob": 0.05,
        "hang_prob": 0.01,
        "hang_s": 45.0,
        "cos_error_prob": 0.05,
        "cos_slow_read_prob": 0.03,
        "cos_slow_read_factor": 3.0,
        "throttle_prob": 0.05,
        "link_latency_factor": 1.5,
        "link_failure_boost": 0.01,
        "blackout_rate_per_hour": 2.0,
        "blackout_duration_s": 60.0,
    },
    "client-crash": {
        "client_crash_window_s": 60.0,
    },
    "vm-node-crash": {
        "vm_crash_prob": 1.0,
        "vm_crash_window_s": 60.0,
    },
    # A multi-tenant region having a bad day: heavy synthetic throttling
    # plus background container churn, the regime the tenant-storm bench
    # and the slow fairness suite run the fair dispatcher under.
    "tenant-storm": {
        "throttle_prob": 0.10,
        "crash_prob": 0.02,
        "hang_prob": 0.005,
        "hang_s": 30.0,
        "link_latency_factor": 1.25,
    },
}


def _stream_seed(*key: Any) -> int:
    """Stable 64-bit seed for a fault-site RNG (independent of PYTHONHASHSEED)."""
    digest = hashlib.sha256(repr(key).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, as recorded on the timeline."""

    #: virtual time the fault was injected (window start for blackouts)
    t: float
    #: fault site: "container" | "cos" | "link" | "throttle" | "blackout"
    #: | "client" | "vm"
    site: str
    #: fault kind: "crash" | "hang" | "503" | "slowdown" | "slow-read" |
    #: "drop" | "429" | "window"
    kind: str
    #: what was hit (activation id, link seed, node id, ...)
    target: str
    #: owning tenant namespace, when the injecting layer knows it
    #: (multi-tenant regions stamp throttles and container faults)
    tenant: Optional[str] = None

    def key(self) -> tuple[str, str, str]:
        """Time-free identity, for comparing timelines across runs."""
        return (self.site, self.kind, self.target)


class ChaosProfile:
    """A named bundle of fault-injection knobs plus the master seed.

    ``ChaosProfile("storm", seed=7)`` looks up the preset; keyword
    overrides tweak individual knobs (``ChaosProfile("crashy-workers",
    seed=1, crash_prob=1.0)``).  All probabilities are per-event.
    """

    #: knob names and their inert defaults
    KNOBS = {
        "crash_prob": 0.0,          # container dies mid-execution
        "hang_prob": 0.0,           # container wedges, reaped after hang_s
        "hang_s": 45.0,             # how long a hung container lingers
        "cos_error_prob": 0.0,      # COS request answered 503/SlowDown
        "cos_slow_read_prob": 0.0,  # COS transfer runs slow
        "cos_slow_read_factor": 3.0,  # slowdown multiple on transfer time
        "throttle_prob": 0.0,       # synthetic 429 on invoke
        "link_latency_factor": 1.0,  # RTT multiplier on every request
        "link_failure_boost": 0.0,  # extra transient-drop probability
        "blackout_rate_per_hour": 0.0,  # node blackout windows per hour
        "blackout_duration_s": 60.0,    # blackout window length
        "client_crash_at_s": 0.0,       # kill the driver at this vtime (0 = off)
        "client_crash_window_s": 0.0,   # ... or at a seeded time in (0, window]
        "vm_crash_prob": 0.0,           # an exchange store VM dies (per node)
        "vm_crash_window_s": 120.0,     # ... at a seeded time in (0, window]
    }

    def __init__(self, name: str = "none", seed: int = 0, **overrides: float) -> None:
        if name not in PROFILE_PRESETS:
            raise ValueError(
                f"unknown chaos profile {name!r} "
                f"(known: {sorted(PROFILE_PRESETS)})"
            )
        unknown = set(overrides) - set(self.KNOBS)
        if unknown:
            raise ValueError(
                f"unknown chaos knobs: {sorted(unknown)} "
                f"(known: {sorted(self.KNOBS)})"
            )
        self.name = name
        self.seed = seed
        knobs = {**self.KNOBS, **PROFILE_PRESETS[name], **overrides}
        for knob, value in knobs.items():
            setattr(self, knob, float(value))
        self._validate()

    def _validate(self) -> None:
        for knob in (
            "crash_prob",
            "hang_prob",
            "cos_error_prob",
            "cos_slow_read_prob",
            "throttle_prob",
            "link_failure_boost",
        ):
            p = getattr(self, knob)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{knob} must be in [0, 1], got {p}")
        if self.crash_prob + self.hang_prob > 1.0:
            raise ValueError("crash_prob + hang_prob must not exceed 1")
        if self.hang_s <= 0:
            raise ValueError("hang_s must be positive")
        if self.cos_slow_read_factor < 1.0:
            raise ValueError("cos_slow_read_factor must be >= 1")
        if self.link_latency_factor < 1.0:
            raise ValueError("link_latency_factor must be >= 1")
        if self.blackout_rate_per_hour < 0:
            raise ValueError("blackout_rate_per_hour must be non-negative")
        if self.blackout_duration_s <= 0:
            raise ValueError("blackout_duration_s must be positive")
        if self.client_crash_at_s < 0:
            raise ValueError("client_crash_at_s must be non-negative")
        if self.client_crash_window_s < 0:
            raise ValueError("client_crash_window_s must be non-negative")
        if not (0.0 <= self.vm_crash_prob <= 1.0):
            raise ValueError(
                f"vm_crash_prob must be in [0, 1], got {self.vm_crash_prob}"
            )
        if self.vm_crash_window_s <= 0:
            raise ValueError("vm_crash_window_s must be positive")

    @property
    def enabled(self) -> bool:
        """Whether this profile injects any fault at all."""
        return (
            self.crash_prob > 0
            or self.hang_prob > 0
            or self.cos_error_prob > 0
            or self.cos_slow_read_prob > 0
            or self.throttle_prob > 0
            or self.link_latency_factor > 1.0
            or self.link_failure_boost > 0
            or self.blackout_rate_per_hour > 0
            or self.client_crash_at_s > 0
            or self.client_crash_window_s > 0
            or self.vm_crash_prob > 0
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ChaosProfile {self.name!r} seed={self.seed}>"


class ChaosPlane:
    """The live fault injector one :class:`ChaosProfile` drives.

    One plane per environment; every layer consults it through narrow
    hooks.  All hooks are cheap no-ops when the profile is inert.  Faults
    actually injected are appended to :attr:`timeline`.
    """

    def __init__(self, profile: ChaosProfile) -> None:
        self.profile = profile
        self.timeline: list[FaultEvent] = []
        self._lock = threading.Lock()
        self._blackouts: dict[int, list[tuple[float, float]]] = {}
        #: optional :class:`repro.trace.Tracer`; injected faults are mirrored
        #: onto the trace spine as ``chaos.<site>`` points
        self.tracer = None
        #: driver generation: 0 is the original client process; each
        #: ``begin_new_client()`` (a reattach) starts a new one.  The
        #: client-crash fault only ever kills generation 0.
        self.client_epoch = 0
        self._client_crash_recorded = False

    # -- bookkeeping -------------------------------------------------------
    def record(
        self,
        t: float,
        site: str,
        kind: str,
        target: str,
        tenant: Optional[str] = None,
    ) -> None:
        with self._lock:
            self.timeline.append(FaultEvent(t, site, kind, target, tenant))
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            attrs = {"kind": kind, "target": target}
            if tenant is not None:
                attrs["tenant"] = tenant
            tracer.point(f"chaos.{site}", "chaos", t=t, **attrs)

    def timeline_key(self) -> list[tuple[str, str, str]]:
        """Order-insensitive timeline identity (sorted event keys)."""
        with self._lock:
            return sorted(event.key() for event in self.timeline)

    def fault_counts(self) -> dict[str, int]:
        """Injected faults by ``site:kind`` (e.g. ``{"cos:503": 4}``)."""
        counts: dict[str, int] = {}
        with self._lock:
            for event in self.timeline:
                label = f"{event.site}:{event.kind}"
                counts[label] = counts.get(label, 0) + 1
        return counts

    def fault_counts_by_tenant(self) -> dict[str, dict[str, int]]:
        """Per-tenant fault counts by ``site:kind``.

        Only events stamped with a tenant appear (multi-tenant regions
        stamp throttles and container faults); others aggregate under
        ``""``.
        """
        counts: dict[str, dict[str, int]] = {}
        with self._lock:
            for event in self.timeline:
                label = f"{event.site}:{event.kind}"
                bucket = counts.setdefault(event.tenant or "", {})
                bucket[label] = bucket.get(label, 0) + 1
        return counts

    def _rng(self, site: str, *key: Any) -> random.Random:
        return random.Random(_stream_seed(self.profile.seed, site, *key))

    # -- container faults (controller) ------------------------------------
    def container_fate(self, activation_id: str) -> tuple[str, float]:
        """Decide this activation's fate: ``("run", 0)``, ``("crash", t)``
        (dies ``t`` seconds in), or ``("hang", t)`` (wedges, reaped after
        ``t``).  Keyed by activation id, so the decision is independent of
        scheduling order."""
        p = self.profile
        if p.crash_prob <= 0 and p.hang_prob <= 0:
            return "run", 0.0
        rng = self._rng("container", activation_id)
        draw = rng.random()
        if draw < p.crash_prob:
            return "crash", rng.uniform(0.1, 2.0)
        if draw < p.crash_prob + p.hang_prob:
            return "hang", p.hang_s
        return "run", 0.0

    # -- COS faults (cos client/object store) ------------------------------
    def cos_fault(self, stream: int, index: int) -> Optional[tuple[str, float]]:
        """Fault for the ``index``-th request of COS-client stream
        ``stream``: ``("503"| "slowdown", 0)`` or ``("slow-read", factor)``,
        or ``None``."""
        p = self.profile
        if p.cos_error_prob <= 0 and p.cos_slow_read_prob <= 0:
            return None
        rng = self._rng("cos", stream, index)
        draw = rng.random()
        if draw < p.cos_error_prob:
            kind = "503" if rng.random() < 0.5 else "slowdown"
            return kind, 0.0
        if draw < p.cos_error_prob + p.cos_slow_read_prob:
            return "slow-read", p.cos_slow_read_factor
        return None

    # -- link degradation (net) --------------------------------------------
    def link_degradation(self, link_seed: int, index: int) -> tuple[float, bool]:
        """(RTT multiplier, extra transient drop?) for one link request."""
        p = self.profile
        if p.link_latency_factor <= 1.0 and p.link_failure_boost <= 0:
            return 1.0, False
        drop = False
        if p.link_failure_boost > 0:
            drop = self._rng("link", link_seed, index).random() < p.link_failure_boost
        return p.link_latency_factor, drop

    # -- throttling (controller) -------------------------------------------
    def should_throttle(self, invoke_index: int) -> bool:
        """Synthetic 429 for the ``invoke_index``-th accepted invoke."""
        p = self.profile
        if p.throttle_prob <= 0:
            return False
        return self._rng("throttle", invoke_index).random() < p.throttle_prob

    # -- client crash (executor / DAG watcher) ------------------------------
    def client_crash_time(self) -> Optional[float]:
        """Virtual time the original driver dies, or ``None`` (no crash).

        An explicit ``client_crash_at_s`` wins; otherwise a time is drawn
        once, uniformly from ``(0, client_crash_window_s]``, from an RNG
        keyed by the profile seed — "kill the client at a seeded virtual
        time".
        """
        p = self.profile
        if p.client_crash_at_s > 0:
            return p.client_crash_at_s
        if p.client_crash_window_s > 0:
            rng = self._rng("client-crash")
            return p.client_crash_window_s * (1.0 - rng.random())
        return None

    def client_dead(self, epoch: int, now: float) -> bool:
        """Whether the driver of generation ``epoch`` is dead at ``now``.

        Only the original generation (epoch 0) is subject to the crash;
        reattached drivers (``begin_new_client()``) run to completion.
        """
        if epoch != 0:
            return False
        t = self.client_crash_time()
        return t is not None and now >= t

    def kill_client(self, now: float) -> None:
        """Raise :class:`~repro.core.errors.ClientCrashError` for a driver
        that :meth:`client_dead` says is dead at virtual time ``now``.

        The fault is recorded on the timeline once, at the first check
        that observes the crash.
        """
        from repro.core.errors import ClientCrashError

        t = self.client_crash_time()
        with self._lock:
            record = not self._client_crash_recorded
            self._client_crash_recorded = True
        if record:
            self.record(t, "client", "crash", f"driver@{t:.3f}")
        raise ClientCrashError(
            f"client-crash chaos killed the driver at t={t:.3f}s "
            f"(observed at t={now:.3f}s)"
        )

    def begin_new_client(self) -> int:
        """Register a replacement driver; returns its (crash-immune) epoch."""
        with self._lock:
            self.client_epoch += 1
            return self.client_epoch

    # -- exchange store-VM crashes (repro.exchange.vm) -----------------------
    def vm_node_crash_time(self, node_id: int) -> Optional[float]:
        """Virtual time exchange store-VM ``node_id`` dies, or ``None``.

        Drawn once per node from an RNG keyed by ``("vm", node_id)``:
        with probability ``vm_crash_prob`` the node crashes at a seeded
        time in ``(0, vm_crash_window_s]``.  The VM exchange backend
        applies it — memory contents vanish, readers fall back to COS,
        and the node rejoins empty after its startup delay.
        """
        p = self.profile
        if p.vm_crash_prob <= 0:
            return None
        rng = self._rng("vm", node_id)
        if rng.random() >= p.vm_crash_prob:
            return None
        return p.vm_crash_window_s * (1.0 - rng.random())

    # -- invoker-node blackouts (invoker_node/controller) -------------------
    def blackout_windows(self, node_id: int) -> list[tuple[float, float]]:
        """Scheduled ``(start, end)`` blackout windows for one node.

        Poisson arrivals at ``blackout_rate_per_hour`` over
        ``BLACKOUT_HORIZON_S``, generated once per node and recorded on the
        timeline at generation time."""
        with self._lock:
            cached = self._blackouts.get(node_id)
        if cached is not None:
            return cached
        p = self.profile
        windows: list[tuple[float, float]] = []
        if p.blackout_rate_per_hour > 0:
            rng = self._rng("blackout", node_id)
            t = 0.0
            mean_gap = 3600.0 / p.blackout_rate_per_hour
            while True:
                t += rng.expovariate(1.0 / mean_gap)
                if t >= BLACKOUT_HORIZON_S:
                    break
                windows.append((t, t + p.blackout_duration_s))
        with self._lock:
            if node_id not in self._blackouts:
                self._blackouts[node_id] = windows
                recorded = windows
                for start, _end in windows:
                    self.timeline.append(
                        FaultEvent(
                            start, "blackout", "window", f"node-{node_id}@{start:.3f}"
                        )
                    )
            else:
                recorded = []
            result = self._blackouts[node_id]
        tracer = self.tracer
        if tracer is not None and tracer.enabled:
            for start, _end in recorded:
                tracer.point(
                    "chaos.blackout", "chaos", t=start,
                    kind="window", target=f"node-{node_id}@{start:.3f}",
                )
        return result


def build_plane(chaos) -> Optional[ChaosPlane]:
    """Normalize a ``chaos=`` argument into an active plane or ``None``.

    Accepts ``None``, a profile name (``"storm"``), a
    :class:`ChaosProfile`, or a ready :class:`ChaosPlane`.  Inert profiles
    yield ``None`` so the simulation stays byte-identical to a chaos-free
    run.
    """
    if chaos is None:
        return None
    if isinstance(chaos, ChaosPlane):
        return chaos if chaos.profile.enabled else None
    if isinstance(chaos, str):
        chaos = ChaosProfile(chaos)
    if not isinstance(chaos, ChaosProfile):
        raise TypeError(
            "chaos must be None, a profile name, a ChaosProfile or a ChaosPlane"
        )
    return ChaosPlane(chaos) if chaos.enabled else None
