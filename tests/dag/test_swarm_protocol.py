"""Property test: the counter-decrement protocol fires exactly once.

The protocol under test is :func:`repro.dag.swarm.ready_dependents_steps`
— the generator every finishing worker runs against COS's append-once
primitive.  Here it runs against an in-memory twin of the conditional
store whose operations are the generator's yield points, so hypothesis
can schedule *arbitrary interleavings* of concurrent handoffs and kill
workers at any point mid-protocol.  Each handoff is handed only the
finishing node's own slice (:class:`NeighbourSlice`), proving the
counter protocol needs no global view of the graph.

Invariants, per drawn DAG + schedule + crash pattern:

* **no double-invoke** — across all concurrent, repeated, and partially
  crashed handoffs, each node is returned (won) by at most one caller;
* **no orphan** — every node either gets worker-invoked or is left
  dependency-complete with an unclaimed-or-unfired token, which the
  supervisor sweep (modelled after ``DagScheduler._redrive_orphans``)
  then picks up: afterwards every node has run exactly once.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dag.swarm import ready_dependents_steps


class MemoryConditionalStore:
    """In-memory twin of the swarm plane's conditional-PUT objects.

    Each operation yields once before touching state, giving the driver
    a preemption point between *deciding* to do an operation and the
    operation landing — the window where real workers race and crash.
    """

    def __init__(self) -> None:
        self.objects: set[tuple] = set()

    def _put_once(self, obj: tuple) -> bool:
        if obj in self.objects:
            return False
        self.objects.add(obj)
        return True

    def put_marker_steps(self, key, dep_key, payload):
        yield "put_marker"
        return self._put_once(("marker", key, dep_key))

    def count_markers_steps(self, key):
        yield "count_markers"
        return sum(
            1 for o in self.objects if o[0] == "marker" and o[1] == key
        )

    def claim_token_steps(self, key, payload):
        yield "claim_token"
        return self._put_once(("token", key))

    def token_claimed(self, key) -> bool:
        return ("token", key) in self.objects


class NeighbourSlice(dict):
    """The finishing node's schedule slice: its drivable dependents only.

    A worker never sees more of the graph than this, so any lookup of a
    non-neighbour key is a protocol bug, not a ``KeyError`` to swallow.
    """

    def __init__(self, nodes: dict[str, dict], done_key: str) -> None:
        super().__init__(
            (child, {"dep_count": nodes[child]["dep_count"]})
            for child in nodes[done_key]["dependents"]
        )
        self._done_key = done_key

    def __missing__(self, key):
        raise AssertionError(
            f"handoff of {self._done_key} looked up non-neighbour {key!r}"
        )


def dags(draw) -> dict[str, dict]:
    """A random schedule: nodes ``n0..nK``, edges only forward."""
    n = draw(st.integers(min_value=1, max_value=10))
    nodes = {f"n{i}": {"dep_count": 0, "deps": [], "dependents": []}
             for i in range(n)}
    for i in range(1, n):
        parents = draw(
            st.sets(
                st.integers(min_value=0, max_value=i - 1),
                min_size=0,
                max_size=min(i, 3),
            )
        )
        for p in parents:
            nodes[f"n{p}"]["dependents"].append(f"n{i}")
            nodes[f"n{i}"]["deps"].append(f"n{p}")
            nodes[f"n{i}"]["dep_count"] += 1
    return nodes


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_every_node_fires_exactly_once_under_crashes(data):
    nodes = dags(data.draw)
    store = MemoryConditionalStore()
    worker_fired: dict[str, int] = {}   # node -> worker invocations
    completed: set[str] = set()         # nodes whose work finished
    invoked: set[str] = set()           # nodes some invocation reached
    # handoffs still runnable: node_key -> live generator
    handoffs: dict[str, object] = {}

    def invoke(key: str) -> None:
        assert key not in invoked, f"{key} invoked twice by workers"
        invoked.add(key)

    def start_handoff(done_key: str) -> None:
        completed.add(done_key)
        if nodes[done_key]["dependents"]:
            handoffs[done_key] = ready_dependents_steps(
                store, NeighbourSlice(nodes, done_key), done_key,
                {"by": done_key},
            )

    # roots are client-invoked at submit; model them as already running
    runnable = [k for k, v in nodes.items() if v["dep_count"] == 0]
    for key in runnable:
        invoked.add(key)

    # -- chaos phase: hypothesis schedules completions, handoff steps,
    #    and crashes in any order it likes
    running = set(runnable)
    for _ in range(120):
        choices = []
        if running:
            choices.append("complete")
        if handoffs:
            choices.extend(["step", "crash"])
        if not choices:
            break
        action = data.draw(st.sampled_from(choices), label="action")
        if action == "complete":
            key = data.draw(
                st.sampled_from(sorted(running)), label="completing"
            )
            running.remove(key)
            start_handoff(key)
        else:
            key = data.draw(
                st.sampled_from(sorted(handoffs)), label="handoff"
            )
            if action == "crash":
                del handoffs[key]  # worker dies mid-protocol
                continue
            gen = handoffs[key]
            try:
                next(gen)
            except StopIteration as stop:
                del handoffs[key]
                for child in stop.value or []:
                    worker_fired[child] = worker_fired.get(child, 0) + 1
                    invoke(child)
                    running.add(child)

    # -- supervisor sweep: drive the surviving system to quiescence.
    #    Remaining live handoffs run to completion (no more crashes) and
    #    the supervisor re-drives any dependency-complete node that never
    #    produced a status — exactly _redrive_orphans after the grace.
    while True:
        for key in sorted(handoffs):
            gen = handoffs.pop(key)
            try:
                while True:
                    next(gen)
            except StopIteration as stop:
                for child in stop.value or []:
                    worker_fired[child] = worker_fired.get(child, 0) + 1
                    invoke(child)
                    running.add(child)
        for key in sorted(running):
            running.remove(key)
            start_handoff(key)
        if not running and not handoffs:
            orphans = [
                key
                for key, spec in nodes.items()
                if key not in completed
                and all(dep in completed for dep in spec["deps"])
            ]
            if not orphans:
                break
            for key in orphans:
                # never worker-invoked (crash before the token fired) or
                # invoked-then-lost; duplicate supervisor invocation is
                # absorbed by the at-most-once status commit
                invoked.add(key)
                running.add(key)

    # no double-invoke: at most one *worker* invocation per node (the
    # invoke() assertion also enforced this at fire time)
    assert all(count == 1 for count in worker_fired.values())
    # no orphan: with the supervisor tail, everything ran exactly once
    assert completed == set(nodes)
    assert invoked == set(nodes)
    # a root or supervisor-driven node must never also win a worker fire
    roots = {k for k, v in nodes.items() if v["dep_count"] == 0}
    assert not (roots & set(worker_fired))
