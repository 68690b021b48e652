"""The journal: append-once COS log, executor journaling, liveness."""

from __future__ import annotations

import pytest

import repro as pw
from repro.config import EventsConfig
from repro.events import EventJournal, JournalConflictError
from repro.events import records as ev


def _square(x):
    return x * x


class TestEventsConfig:
    def test_disabled_by_default(self):
        config = pw.PyWrenConfig()
        assert config.events.enabled is False

    def test_from_dict(self):
        config = pw.PyWrenConfig.from_dict({"events": {"enabled": True}})
        assert config.events.enabled
        # the COS log is the one journal store: there is no backend to pick
        with pytest.raises(ValueError, match="unknown events config keys"):
            pw.PyWrenConfig.from_dict({"events": {"backend": "mq"}})


class TestCOSBackend:
    """The journal's one store: an append-once object log in COS."""

    def test_append_once_and_replay(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            journal = EventJournal(executor._storage, "job-x", executor.kernel)
            journal.append("a")
            journal.append("b")
            # a second writer that believes slot 1 is free loses it
            rival = EventJournal(
                executor._storage, "job-x", executor.kernel, start_seq=1
            )
            with pytest.raises(JournalConflictError, match="slot 1"):
                rival.append("c")
            return [r.kind for r in journal.replay()]

        assert env.run(main) == ["a", "b"]

    def test_replay_is_per_executor(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            EventJournal(executor._storage, "job-a", executor.kernel).append("a")
            return EventJournal(executor._storage, "job-b", executor.kernel).replay()

        assert env.run(main) == []


class TestEventJournal:
    def test_executor_journals_a_map(self, cloud):
        env = cloud()
        env.config = env.config.with_overrides(
            events=EventsConfig(enabled=True)
        )

        def main():
            executor = pw.ibm_cf_executor()
            executor.map(_square, [1, 2, 3])
            result = executor.get_result()
            return result, [r.kind for r in executor.journal.replay()]

        result, kinds = env.run(main)
        assert result == [1, 4, 9]
        # the submission only: waiting and collecting journal nothing
        assert kinds == [
            ev.EXECUTOR_CREATED,
            ev.JOB_SUBMITTED,
            ev.CALLS_INVOKED,
            ev.FUTURES_EXPOSED,
        ]

    def test_seqs_contiguous_from_zero(self, cloud):
        env = cloud()
        env.config = env.config.with_overrides(
            events=EventsConfig(enabled=True)
        )

        def main():
            executor = pw.ibm_cf_executor()
            executor.map(_square, [1, 2])
            executor.get_result()
            return [r.seq for r in executor.journal.replay()]

        seqs = env.run(main)
        assert seqs == list(range(len(seqs)))

    def test_disabled_means_no_journal_no_objects(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            executor.map(_square, [1])
            executor.get_result()
            prefix = executor._storage.journal_prefix(executor.executor_id)
            keys = executor._cos.list_objects(
                executor.config.storage_bucket, prefix
            )
            return executor.journal, list(keys)

        journal, keys = env.run(main)
        assert journal is None
        assert keys == []

    def test_dead_driver_appends_are_dropped(self, cloud):
        """A driver killed by client-crash chaos stops writing: its
        in-flight watcher threads must not race the adopter for slots."""
        from repro.chaos import ChaosProfile

        env = cloud(
            chaos=ChaosProfile("client-crash", seed=1, client_crash_at_s=2.0)
        )
        env.config = env.config.with_overrides(
            events=EventsConfig(enabled=True)
        )

        def main():
            executor = pw.ibm_cf_executor()
            journal = executor.journal
            before = journal._seq
            pw.sleep(3.0)  # past the crash instant
            assert journal.append(ev.CALLS_INVOKED, calls=[]) is None
            return before, journal._seq, len(journal.replay())

        before, after, stored = env.run(main)
        assert after == before  # no slot consumed
        assert stored == before

    def test_in_cloud_executor_never_journals(self, cloud):
        env = cloud()
        env.config = env.config.with_overrides(
            events=EventsConfig(enabled=True)
        )

        def _nested(x):
            executor = pw.ibm_cf_executor()
            executor.map(_square, [x, x + 1])
            return executor.journal is None, executor.get_result()

        def main():
            executor = pw.ibm_cf_executor()
            executor.map(_nested, [3])
            return executor.get_result()

        no_journal, inner = env.run(main)
        assert no_journal
        assert inner == [9, 16]
