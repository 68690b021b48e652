"""repro.events — durable event-sourced orchestration (ARCHITECTURE §11).

What the driver alone knows and a replacement driver needs — jobs
submitted, calls invoked, futures promised to the user, DAG edges and
retry budgets — is appended to a durable journal as deterministic
:class:`EventRecord` entries.  The journal records nothing else: what a
call did is its committed COS status, which resume reads directly.  A
DAG's edges ("when all N map statuses commit, fire the reducer") are
journaled with it, so the workflow's control state survives the client:
after a crash, :func:`repro.events.resume.attach` (via
``FunctionExecutor.reattach(job_id)``) folds the journal back into an
ordinary DAG, which :meth:`repro.dag.DagScheduler.adopt` reconciles
against committed statuses in COS and drives to completion with zero
lost work.

Off by default (``EventsConfig.enabled=False``): nothing here runs and
no request pattern changes unless the journal is switched on.
"""

from repro.events.journal import EventJournal, JournalConflictError
from repro.events.records import EventRecord, from_jsonl, to_jsonl
from repro.events.resume import CallEntry, JobLedger, ResumedJob, attach

__all__ = [
    "EventRecord",
    "EventJournal",
    "JournalConflictError",
    "JobLedger",
    "CallEntry",
    "ResumedJob",
    "attach",
    "to_jsonl",
    "from_jsonl",
]
