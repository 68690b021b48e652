"""Unit tests for the shared retry engine and its configuration."""

from __future__ import annotations

import pytest

from repro.config import PyWrenConfig, RetryConfig
from repro.cos.errors import NoSuchKey, ServiceUnavailable, SlowDown
from repro.faas.errors import ThrottledError
from repro.net.latency import TransientNetworkError
from repro.retry import RetryPolicy, is_retryable
from repro.vtime import Kernel


class TestRetryConfig:
    def test_defaults_validate(self):
        RetryConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"initial_backoff_s": -1.0},
            {"max_backoff_s": 0.5},  # below initial_backoff_s
            {"multiplier": 0.5},
            {"jitter": "gaussian"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryConfig(**kwargs).validate()

    def test_pywren_config_carries_retry(self):
        cfg = PyWrenConfig(retry=RetryConfig(max_attempts=2))
        cfg.validate()
        assert cfg.retry.max_attempts == 2

    def test_pywren_config_rejects_non_retryconfig(self):
        with pytest.raises(ValueError, match="RetryConfig"):
            PyWrenConfig(retry={"max_attempts": 3}).validate()

    def test_from_dict_builds_nested_retry(self):
        cfg = PyWrenConfig.from_dict(
            {"retry": {"max_attempts": 4, "jitter": "none"}}
        )
        assert cfg.retry == RetryConfig(max_attempts=4, jitter="none")

    def test_from_dict_rejects_unknown_retry_keys(self):
        with pytest.raises(ValueError, match="unknown retry config keys"):
            PyWrenConfig.from_dict({"retry": {"attempts": 4}})

    def test_to_dict_roundtrip(self):
        cfg = PyWrenConfig(retry=RetryConfig(max_attempts=3), invocation_retries=7)
        again = PyWrenConfig.from_dict(cfg.to_dict())
        assert again.retry == cfg.retry
        assert again.invocation_retries == 7


class TestClassification:
    @pytest.mark.parametrize(
        "exc",
        [
            TransientNetworkError("lost"),
            ServiceUnavailable("503"),
            SlowDown("slow down"),
            ThrottledError("429"),
        ],
    )
    def test_transient_errors_are_retryable(self, exc):
        assert is_retryable(exc)

    @pytest.mark.parametrize(
        "exc", [NoSuchKey("k"), ValueError("boom"), KeyError("k")]
    )
    def test_terminal_errors_are_not(self, exc):
        assert not is_retryable(exc)


class TestBackoff:
    def test_exponential_growth_without_jitter(self):
        policy = RetryPolicy(
            RetryConfig(initial_backoff_s=1.0, multiplier=2.0, jitter="none")
        )
        assert [policy.backoff(a) for a in (1, 2, 3, 4)] == [1.0, 2.0, 4.0, 8.0]

    def test_cap_applies(self):
        policy = RetryPolicy(
            RetryConfig(initial_backoff_s=1.0, max_backoff_s=5.0, jitter="none")
        )
        assert policy.backoff(10) == 5.0

    def test_full_jitter_stays_within_base(self):
        policy = RetryPolicy(
            RetryConfig(initial_backoff_s=1.0, multiplier=2.0, jitter="full"),
            seed=3,
        )
        for attempt in range(1, 6):
            base = min(30.0, 2.0 ** (attempt - 1))
            for _ in range(20):
                assert 0.0 <= policy.backoff(attempt) <= base

    def test_retry_after_hint_overrides_schedule(self):
        policy = RetryPolicy(RetryConfig(jitter="none"))
        assert policy.backoff(1, retry_after=12.5) == 12.5

    def test_deterministic_under_seed(self):
        a = RetryPolicy(RetryConfig(), seed=11)
        b = RetryPolicy(RetryConfig(), seed=11)
        assert [a.backoff(i) for i in range(1, 8)] == [
            b.backoff(i) for i in range(1, 8)
        ]


def run_both_ways(policy_factory, attempt_factory_of):
    """Run one retry loop twice on fresh kernels: driven from a thread task
    and ``yield from``-ed in a model task.  Asserts the two ways agree and
    returns the outcome (``("ok", value)`` or ``("raised", exc)``), elapsed
    virtual time, the attempt count and the policy's retry counter."""
    outcomes = []
    for way in ("thread", "model"):
        kernel = Kernel()
        policy = policy_factory()
        calls = []

        def attempt():
            calls.append(1)
            return attempt_factory_of(len(calls))

        def body():
            t0 = kernel.now()
            try:
                value = yield from policy.run_steps(attempt)
            except Exception as exc:  # noqa: BLE001 - compared below
                return ("raised", exc), kernel.now() - t0
            return ("ok", value), kernel.now() - t0

        if way == "thread":
            outcome, elapsed = kernel.run(lambda: kernel.drive(body()))
        else:
            def main():
                task = kernel.spawn_model(body)
                task.join()
                return task.result()

            outcome, elapsed = kernel.run(main)
        outcomes.append((outcome, elapsed, len(calls), policy.retries))
    thread, model = outcomes
    assert thread[0][0] == model[0][0]
    assert type(thread[0][1]) is type(model[0][1])
    assert thread[1:] == model[1:]
    return thread


def steps_of(fn):
    """An attempt: a steps generator that takes no time and calls ``fn``."""
    yield from ()
    return fn()


class TestRun:
    def test_retries_until_success(self):
        def flaky(n):
            if n < 3:
                raise TransientNetworkError("lost")
            return "ok"

        outcome, elapsed, calls, retries = run_both_ways(
            lambda: RetryPolicy(RetryConfig(jitter="none")),
            lambda n: steps_of(lambda: flaky(n)),
        )
        assert outcome == ("ok", "ok")
        assert calls == 3
        assert retries == 2
        assert elapsed == pytest.approx(1.0 + 2.0)  # the two backoff sleeps

    def test_exhaustion_raises_last_error(self):
        def always_down(n):
            raise ServiceUnavailable(f"503 #{n}")

        (kind, exc), _, calls, _ = run_both_ways(
            lambda: RetryPolicy(RetryConfig(max_attempts=3, jitter="none")),
            lambda n: steps_of(lambda: always_down(n)),
        )
        assert kind == "raised" and isinstance(exc, ServiceUnavailable)
        assert str(exc) == "503 #3"
        assert calls == 3

    def test_non_retryable_raises_immediately(self):
        def broken():
            raise ValueError("logic bug")

        (kind, exc), elapsed, calls, retries = run_both_ways(
            lambda: RetryPolicy(RetryConfig()),
            lambda n: steps_of(broken),
        )
        assert kind == "raised" and isinstance(exc, ValueError)
        assert calls == 1
        assert retries == 0
        assert elapsed == 0.0

    def test_retry_after_honored_in_run(self):
        def throttled_once(n):
            if n == 1:
                raise ThrottledError("429", retry_after=7.0)
            return "done"

        outcome, elapsed, _, _ = run_both_ways(
            lambda: RetryPolicy(RetryConfig(jitter="none")),
            lambda n: steps_of(lambda: throttled_once(n)),
        )
        assert outcome == ("ok", "done")
        assert elapsed == pytest.approx(7.0)
