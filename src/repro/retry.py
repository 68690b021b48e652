"""Shared retry engine: exponential backoff, full jitter, error classes.

Every client-side component that talks to the emulated cloud — the COS
client, the Cloud Functions gateway, the executor's lost-call recovery —
retries through one :class:`RetryPolicy` built from the single documented
:class:`~repro.config.RetryConfig`.  This mirrors how real serverless
frameworks centralize "is this error worth retrying, and how long do we
wait?" instead of sprinkling constants per call site.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.config import RetryConfig
from repro.cos.errors import ServiceUnavailable, SlowDown
from repro.net.latency import TransientNetworkError
from repro.vtime.kernel import vsleep

#: errors a client may safely retry: the request either never reached the
#: service or was rejected before any state change.  ThrottledError (the
#: platform's 429) joins lazily — importing repro.faas here would be
#: circular, since its gateway builds on this module.
_RETRYABLE_ERRORS: Optional[tuple] = None


def retryable_errors() -> tuple:
    global _RETRYABLE_ERRORS
    if _RETRYABLE_ERRORS is None:
        from repro.faas.errors import ThrottledError

        _RETRYABLE_ERRORS = (
            TransientNetworkError,  # request lost on the wire
            ServiceUnavailable,     # COS 503
            SlowDown,               # COS 503 SlowDown (rate pushback)
            ThrottledError,         # Cloud Functions 429
        )
    return _RETRYABLE_ERRORS


#: the schedule a policy built without a config follows: the config is
#: frozen, so every such policy shares this one instance
_DEFAULT_CONFIG = RetryConfig()


def is_retryable(exc: BaseException) -> bool:
    """Classify an exception as transient (retry) or terminal (raise)."""
    return isinstance(exc, retryable_errors())


class RetryPolicy:
    """Executes callables under a :class:`RetryConfig` schedule.

    Deterministic under a fixed ``seed`` — the jitter stream is private to
    the policy, so enabling retries never perturbs any other RNG stream in
    the simulation.
    """

    __slots__ = ("config", "_seed", "_rng", "retries")

    def __init__(self, config: Optional[RetryConfig] = None, seed: int = 0) -> None:
        self.config = config or _DEFAULT_CONFIG
        self.config.validate()
        self._seed = seed
        # The jitter RNG materializes on first backoff: most policies never
        # retry, and a seeded Mersenne state is ~2.5 KB — at 50k concurrent
        # activations (one policy per in-cloud client) eagerness costs >100 MB.
        self._rng: Optional[random.Random] = None
        #: total backoff sleeps taken by this policy (observability)
        self.retries = 0

    def backoff(self, attempt: int, retry_after: Optional[float] = None) -> float:
        """Delay before retry number ``attempt`` (1-based).

        A server-supplied ``retry_after`` hint (e.g. from a 429) overrides
        the computed schedule — the service knows its own load better than
        the client's exponential guess.
        """
        if retry_after is not None and retry_after > 0:
            return float(retry_after)
        cfg = self.config
        base = min(
            cfg.max_backoff_s,
            cfg.initial_backoff_s * cfg.multiplier ** (max(1, attempt) - 1),
        )
        if cfg.jitter == "full":
            if self._rng is None:
                self._rng = random.Random(self._seed ^ 0x5E77E7)
            return self._rng.uniform(0.0, base)
        return base

    def run_steps(
        self,
        attempt_factory: Callable[[], object],
        classify: Callable[[BaseException], bool] = is_retryable,
        on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
    ):
        """Run attempts until one succeeds or the attempt budget is spent.

        ``attempt_factory()`` returns a *fresh* steps generator per attempt
        (the attempt itself may block via kernel ops); ``classify`` decides
        retryability; ``on_retry(attempt, exc, delay)`` observes each retry.
        Non-retryable errors and the final failed attempt propagate.
        Backoff sleeps are yielded as ops, so the loop runs as — or inside —
        a model task, or under ``kernel.drive`` in a thread task.
        """
        try:
            return (yield from attempt_factory())
        except Exception as exc:  # noqa: BLE001 - classified by retry_steps
            failure = exc
        return (yield from self.retry_steps(failure, attempt_factory, classify, on_retry))

    def retry_steps(
        self,
        failure: BaseException,
        attempt_factory: Callable[[], object],
        classify: Callable[[BaseException], bool] = is_retryable,
        on_retry: Optional[Callable[[int, BaseException, float], None]] = None,
    ):
        """:meth:`run_steps` from its first attempt's ``failure`` on.

        A caller that runs its first attempt bare builds no policy, closure
        or retry generator until that attempt fails.
        """
        attempt = 1
        while True:
            if not classify(failure) or attempt >= self.config.max_attempts:
                raise failure
            delay = self.backoff(attempt, getattr(failure, "retry_after", None))
            self.retries += 1
            if on_retry is not None:
                on_retry(attempt, failure, delay)
            yield vsleep(delay)
            attempt += 1
            try:
                return (yield from attempt_factory())
            except Exception as exc:  # noqa: BLE001 - classified above
                failure = exc
