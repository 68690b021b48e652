"""A network link that charges virtual time for requests and transfers."""

from __future__ import annotations

import random
import struct
import threading
from typing import Optional

from repro.net.latency import LatencyModel, TransientNetworkError
from repro.vtime import Kernel
from repro.vtime.kernel import vsleep

# Default service bandwidth seen by one flow (COS single-stream throughput).
DEFAULT_BANDWIDTH_BPS = 100.0 * 1024 * 1024  # 100 MiB/s

#: guards every link's draws.  The critical section never blocks or nests,
#: so one lock serves all links instead of one per in-flight activation.
_DRAW_LOCK = threading.Lock()

#: draws a link keeps before it falls back to a full Mersenne state.  An
#: activation's in-cloud link draws one per request: 4 for a map call, up
#: to 8 for a DAG node.  The few links that draw more (client links, remote
#: invokers, reducers) mostly draw hundreds, so a longer prefix would only
#: delay their rebuild.
_KEPT_DRAWS = 8
#: the kept draws, packed: ``bytes`` are never tracked by the collector
_PACKED = struct.Struct(f"{_KEPT_DRAWS}d")
_DRAW = struct.Struct("d")


class NetworkLink:
    """Models one endpoint's path to a cloud service.

    Every request costs one sampled RTT plus payload-size / bandwidth.
    Transient failures raise :class:`TransientNetworkError` *after* the RTT
    has been paid (the request had to travel to fail).  A link is cheap;
    components create one per (endpoint, latency-profile) pair.

    The link is its own seeded stream: :meth:`random` and :meth:`uniform`
    return exactly what ``random.Random(seed)`` would, draw for draw, so
    :class:`LatencyModel` samples from the link itself.  A seeded
    Mersenne-Twister state is ~2.5 KB and every in-flight activation owns a
    link, yet most links draw a handful of times.  So at its first draw the
    link seeds one ``random.Random(seed)``, keeps its first
    :data:`_KEPT_DRAWS` ``random()`` outputs packed in ``bytes`` and drops
    the state.  A link that draws past the prefix re-seeds once, skips the
    draws it has used and keeps the state from then on.
    """

    __slots__ = (
        "kernel", "latency", "bandwidth_bps", "seed", "chaos", "tracer",
        "_kept", "_used", "_rng", "_requests", "_failures",
    )

    def __init__(
        self,
        kernel: Kernel,
        latency: LatencyModel,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        seed: int = 0,
        chaos=None,
        tracer=None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        self.kernel = kernel
        self.latency = latency
        self.bandwidth_bps = float(bandwidth_bps)
        self.seed = seed
        #: optional :class:`repro.chaos.ChaosPlane` degrading this link
        self.chaos = chaos
        #: optional :class:`repro.trace.Tracer` receiving ``net.request`` spans
        self.tracer = tracer
        self._kept: Optional[bytes] = None
        self._used = 0
        self._rng: Optional[random.Random] = None
        self._requests = 0
        self._failures = 0

    # -- statistics ------------------------------------------------------
    @property
    def requests(self) -> int:
        return self._requests

    @property
    def failures(self) -> int:
        return self._failures

    # -- the seeded stream ------------------------------------------------
    def random(self) -> float:
        """``random.Random(seed).random()``'s next draw."""
        if self._rng is not None:
            return self._rng.random()
        if self._kept is None:
            draw = random.Random(self.seed).random
            self._kept = _PACKED.pack(*[draw() for _ in range(_KEPT_DRAWS)])
        used = self._used
        if used < _KEPT_DRAWS:
            self._used = used + 1
            return _DRAW.unpack_from(self._kept, used * _DRAW.size)[0]
        # past the prefix: rebuild the state once, and keep it
        rng = self._rng = random.Random(self.seed)
        for _ in range(used):
            rng.random()
        self._kept = None
        return rng.random()

    def uniform(self, a: float, b: float) -> float:
        """CPython's ``Random.uniform``, over this stream."""
        return a + (b - a) * self.random()

    # -- behaviour ---------------------------------------------------------
    def request(self, payload_bytes: int = 0, allow_failure: bool = True) -> None:
        self.kernel.drive(self.request_steps(payload_bytes, allow_failure))

    def request_steps(self, payload_bytes: int = 0, allow_failure: bool = True):
        """Charge virtual time for one round trip moving ``payload_bytes``.

        All RNG draws happen up front under the link lock — exactly the
        blocking path's draw order — then the latency is paid via kernel
        ops, so a transfer in flight holds no OS thread.  A successful
        request books its RTT and its payload's transfer as one kernel
        timer; a failed one pays only the RTT.
        """
        with _DRAW_LOCK:
            rtt = self.latency.sample_rtt(self)
            fails = allow_failure and self.latency.sample_failure(self)
            if self.chaos is not None:
                # chaos draws come from the plane's own streams, keyed by
                # (link seed, request index): the link's RNG is untouched
                factor, drop = self.chaos.link_degradation(
                    self.seed, self._requests
                )
                rtt *= factor
                if allow_failure and drop and not fails:
                    fails = True
                    self.chaos.record(
                        self.kernel.now(), "link", "drop",
                        f"link-{self.seed}#{self._requests}",
                    )
            self._requests += 1
            if fails:
                self._failures += 1
        tracer = self.tracer
        t0 = self.kernel.now() if tracer is not None and tracer.enabled else None
        if fails:
            yield vsleep(rtt)
            if t0 is not None:
                tracer.span_at(
                    "net.request", "net", t0, self.kernel.now(),
                    bytes=payload_bytes, failed=True, profile=self.latency.name,
                )
            raise TransientNetworkError(
                f"transient failure on {self.latency.name} link"
            )
        yield vsleep(rtt, payload_bytes / self.bandwidth_bps)
        if t0 is not None:
            tracer.span_at(
                "net.request", "net", t0, self.kernel.now(),
                bytes=payload_bytes, failed=False, profile=self.latency.name,
            )

    def request_with_retries(
        self,
        payload_bytes: int = 0,
        retries: int = 5,
        backoff: float = 1.0,
    ) -> int:
        return self.kernel.drive(
            self.request_with_retries_steps(payload_bytes, retries, backoff)
        )

    def request_with_retries_steps(
        self,
        payload_bytes: int = 0,
        retries: int = 5,
        backoff: float = 1.0,
    ):
        """Like :meth:`request_steps` but retrying transient failures.

        Returns the number of attempts made.  Mirrors the retry loop the
        paper attributes the extra WAN invocation time to.
        """
        attempts = 0
        while True:
            attempts += 1
            try:
                yield from self.request_steps(payload_bytes)
                return attempts
            except TransientNetworkError:
                if attempts > retries:
                    raise
                yield vsleep(backoff)

    def transfer_time(self, payload_bytes: int) -> float:
        """Pure bandwidth cost (no RTT) for ``payload_bytes``, in seconds."""
        return payload_bytes / self.bandwidth_bps
