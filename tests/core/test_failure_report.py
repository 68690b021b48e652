"""FailureReport <-> COS dead-letter round-trip must be lossless JSON."""

from __future__ import annotations

import json

import pytest

import repro as pw
from repro.core.futures import CallFailure, FailureReport


def _report() -> FailureReport:
    return FailureReport(
        executor_id="exec-ab12cd34",
        retries_total=5,
        failures=[
            CallFailure(
                call_id="00001",
                callset_id="M000",
                executor_id="exec-ab12cd34",
                activation_id="act-00000007",
                attempts=3,
                error=(
                    "Traceback (most recent call last):\n"
                    '  File "<task>", line 1, in <module>\n'
                    "ZeroDivisionError: division by zéro — ∞"
                ),
                lost=False,
            ),
            CallFailure(
                call_id="00002",
                callset_id="M000",
                executor_id="exec-ab12cd34",
                activation_id=None,
                attempts=2,
                error="container crashed (activation lost)",
                lost=True,
            ),
        ],
    )


class TestJsonRoundTrip:
    def test_lossless(self):
        report = _report()
        restored = FailureReport.from_json(report.to_json())
        assert restored == report

    def test_exception_text_exact(self):
        restored = FailureReport.from_json(_report().to_json())
        assert "ZeroDivisionError: division by zéro — ∞" in (
            restored.failures[0].error
        )
        assert restored.failures[0].error.count("\n") == 2

    def test_retry_counters_exact(self):
        restored = FailureReport.from_json(_report().to_json())
        assert restored.retries_total == 5
        assert [f.attempts for f in restored.failures] == [3, 2]
        assert [f.lost for f in restored.failures] == [False, True]

    def test_plain_json_not_pickle(self):
        # any process — a different Python, curl + jq — can read it
        raw = json.loads(_report().to_json())
        assert raw["executor_id"] == "exec-ab12cd34"
        assert len(raw["failures"]) == 2

    def test_empty_report(self):
        report = FailureReport(executor_id="exec-0", failures=[])
        restored = FailureReport.from_json(report.to_json())
        assert restored == report
        assert not restored


class TestCosDeadLetter:
    def test_put_get_round_trip(self, env):
        report = _report()

        def main():
            executor = pw.ibm_cf_executor()
            executor._storage.put_deadletter(
                executor.executor_id, "M000", report
            )
            stored_raw = executor._cos.get_object(
                executor.config.storage_bucket,
                executor._storage.deadletter_key(executor.executor_id, "M000"),
            )
            return stored_raw

        raw = env.run(main)
        stored = FailureReport.from_json(raw.decode("utf-8"))
        assert stored == report
        # the stored object itself is JSON text, not a pickle blob
        parsed = json.loads(raw.decode("utf-8"))
        assert parsed["retries_total"] == 5

    def test_missing_deadletter_is_none(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            return executor._cos.object_exists(
                executor.config.storage_bucket,
                executor._storage.deadletter_key(executor.executor_id, "M999"),
            )

        assert env.run(main) is False

    def test_key_is_json_named(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            return executor._storage.deadletter_key(
                executor.executor_id, "M000"
            )

        key = env.run(main)
        assert key.endswith("deadletter.json")
        assert not key.endswith(".pickle")
