"""DAG node model: handles returned by :class:`repro.dag.DagBuilder`.

A node names one unit of work — a function (or a fused chain of
functions) applied to either a literal payload or the results of its
dependency nodes.  Edges are *data* dependencies: a node becomes ready
the moment every in-edge has resolved, which is what lets the scheduler
hand stages off without a client-side barrier.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

# How a node's single positional argument is assembled at execution time.
ARG_VALUE = "value"        # the literal payload shipped with the node
ARG_DEP = "dep"            # the (single) dependency's result
ARG_DEPS = "deps"          # list of dependency results, in edge order
ARG_FUTURES = "futures"    # list of the dependencies' resolved futures
ARG_EXTERNAL = "external"  # wraps an already-submitted ResponseFuture

_ARG_MODES = (ARG_VALUE, ARG_DEP, ARG_DEPS, ARG_FUTURES, ARG_EXTERNAL)


class NodeState:
    """Lifecycle of a node inside a running DAG."""

    PENDING = "pending"      # waiting on at least one dependency
    READY = "ready"          # all in-edges resolved, not yet invoked
    SUBMITTED = "submitted"  # invocation in flight
    #: swarm mode only: all in-edges resolved and the invocation is the
    #: finishing *worker's* job — the supervisor just watches for the
    #: status, re-driving the node itself if none appears within the
    #: orphan grace (worker died mid-handoff)
    DELEGATED = "delegated"
    DONE = "done"
    FAILED = "failed"

    TERMINAL = (DONE, FAILED)
    #: believed in flight somewhere in the cloud
    IN_FLIGHT = (SUBMITTED, DELEGATED)


class DagNode:
    """One vertex of a :class:`repro.dag.Dag`; returned by builder calls.

    Treat instances as opaque handles: pass them back into the builder
    (``builder.reduce(fn, [a, b])``) or chain with :meth:`then`.  After
    :meth:`DagBuilder.build` the scheduler owns all mutable state.
    """

    __slots__ = (
        "node_id", "name", "stage", "fns", "mode", "value", "deps",
        "dependents", "fusable", "metadata", "external_future", "_builder",
        # runtime fields, owned by the scheduler
        "state", "future", "call_params", "level", "unresolved",
        "error_attempts", "node_retries", "retry_at", "invoker_id",
        "submit_time", "swarm_ready_at", "swarm_token_seen",
    )

    def __init__(
        self,
        builder,
        node_id: int,
        fn: Optional[Callable[[Any], Any]],
        mode: str,
        *,
        value: Any = None,
        deps: Optional[list["DagNode"]] = None,
        name: Optional[str] = None,
        stage: Optional[str] = None,
        fusable: bool = True,
        external_future: Any = None,
    ) -> None:
        if mode not in _ARG_MODES:
            raise ValueError(f"unknown arg mode {mode!r}")
        self._builder = builder
        self.node_id = node_id
        self.fns: list[Callable[[Any], Any]] = [fn] if fn is not None else []
        self.mode = mode
        self.value = value
        self.deps: list[DagNode] = list(deps or [])
        self.dependents: list[DagNode] = []
        self.fusable = bool(fusable)
        self.stage = stage
        self.metadata: dict[str, Any] = {}
        self.external_future = external_future
        if name is not None:
            self.name = name
        elif fn is not None:
            self.name = getattr(fn, "__name__", "fn")
        else:
            self.name = "external"

        self.state = NodeState.PENDING
        self.future = None
        self.call_params = None
        self.level = 0
        self.unresolved = 0
        self.error_attempts = 0
        #: how many error finishes are re-run (``DagScheduler(node_retries=)``
        #: at submit, the journaled budget at adoption)
        self.node_retries = 0
        self.retry_at = 0.0
        self.invoker_id: Optional[int] = None
        self.submit_time = 0.0
        #: swarm mode: when the supervisor saw the last dependency commit
        #: (start of the orphan-grace clock); 0.0 until then
        self.swarm_ready_at = 0.0
        #: swarm mode: the supervisor observed a claimed fire token for
        #: this node, i.e. some worker committed to invoking it
        self.swarm_token_seen = False

    # -- builder sugar -------------------------------------------------------
    def then(
        self,
        fn: Callable[[Any], Any],
        *,
        name: Optional[str] = None,
        stage: Optional[str] = None,
        fusable: bool = True,
    ) -> "DagNode":
        """Chain ``fn`` after this node (``fn ∘ self``); returns the new node."""
        return self._builder.then(
            self, fn, name=name, stage=stage, fusable=fusable
        )

    # -- introspection -------------------------------------------------------
    @property
    def external(self) -> bool:
        return self.mode == ARG_EXTERNAL

    @property
    def display_name(self) -> str:
        """Fusion-aware label: ``g∘f`` when two functions share the node."""
        if len(self.fns) > 1:
            return "∘".join(
                getattr(fn, "__name__", "fn") for fn in reversed(self.fns)
            )
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DagNode({self.node_id}, {self.display_name!r}, mode={self.mode},"
            f" deps={[d.node_id for d in self.deps]}, state={self.state})"
        )
