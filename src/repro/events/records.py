"""Event records: the deterministic unit the orchestration journal stores.

The journal is a replay log: it holds exactly the facts a replacement
driver needs to rebuild the job (:meth:`repro.events.JobLedger.from_records`
reads every kind below but ``executor.created``, which marks the log's
owner and seed).  What a call did is not journaled — its COS status
object is the ground truth, and the trace spine has the audit trail.
Each fact is one :class:`EventRecord` — a ``(seq, t, kind, data)`` tuple
with a canonical JSON form.  Canonical means *byte-stable*: keys sorted,
no whitespace, floats via ``repr`` round-trip — so two same-seed runs of
the same workload produce byte-identical journals, which is the
regression oracle the resume tests pin.

Record payloads (``data``) are plain JSON values only; anything that
needs pickling (functions, payload blobs) stays in COS where the normal
execution record already keeps it — the journal stores *references*
(bucket/key/call ids), never code or data.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "EventRecord",
    "to_jsonl",
    "from_jsonl",
    # event kinds
    "EXECUTOR_CREATED",
    "JOB_SUBMITTED",
    "CALLS_INVOKED",
    "FUTURES_EXPOSED",
    "DAG_SUBMITTED",
    "RESUME_STARTED",
]

# -- event kinds -----------------------------------------------------------
#: a new executor (driver) came up and owns this journal
EXECUTOR_CREATED = "executor.created"
#: a callset was serialized + uploaded: carries every call's params dict
JOB_SUBMITTED = "job.submitted"
#: invocations were issued (activation id and attempt per call); a DAG
#: round's firings carry the DAG's ``dag_id``
CALLS_INVOKED = "calls.invoked"
#: futures became user-visible results, in exposure order
FUTURES_EXPOSED = "futures.exposed"
#: a DAG was submitted: node -> dependency edges, and its ``node_retries``
DAG_SUBMITTED = "dag.submitted"
#: a replacement driver adopted this journal (reattach)
RESUME_STARTED = "resume.started"


@dataclass(frozen=True)
class EventRecord:
    """One journaled orchestration transition."""

    #: position in the log; contiguous from 0, assigned by the journal
    seq: int
    #: virtual time of the append
    t: float
    #: event kind (one of the module constants)
    kind: str
    #: JSON-safe payload
    data: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        """Canonical (byte-stable) one-line JSON form."""
        return json.dumps(
            {"seq": self.seq, "t": self.t, "kind": self.kind, "data": self.data},
            sort_keys=True,
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "EventRecord":
        raw = json.loads(text)
        return cls(
            seq=int(raw["seq"]),
            t=float(raw["t"]),
            kind=str(raw["kind"]),
            data=dict(raw.get("data") or {}),
        )


def to_jsonl(records: list[EventRecord]) -> str:
    """The journal as JSONL text, one canonical line per record."""
    return "".join(record.to_json() + "\n" for record in records)


def from_jsonl(text: str) -> list[EventRecord]:
    return [
        EventRecord.from_json(line)
        for line in text.splitlines()
        if line.strip()
    ]
