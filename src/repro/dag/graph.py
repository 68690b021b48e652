"""Declarative DAG construction: :class:`DagBuilder` and :class:`Dag`.

The builder's verbs mirror the executor API (``call``/``map``/``reduce``)
but return :class:`~repro.dag.node.DagNode` handles instead of futures —
edges between handles are data dependencies, and nothing runs until a
:class:`~repro.dag.scheduler.DagScheduler` submits the built graph.

``build()`` also performs *fusion*: a linear ``f2 ∘ f1`` chain (single
producer whose only consumer takes exactly that producer's result)
collapses into one node running both functions in a single activation,
skipping the intermediate COS round-trip entirely.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional

from repro.dag.node import (
    ARG_DEP,
    ARG_DEPS,
    ARG_EXTERNAL,
    ARG_FUTURES,
    ARG_VALUE,
    DagNode,
)


class DagBuilder:
    """Accumulates nodes; ``build()`` freezes them into a :class:`Dag`."""

    def __init__(self) -> None:
        self._nodes: list[DagNode] = []
        self._built = False

    # -- construction verbs --------------------------------------------------
    def call(
        self,
        fn: Callable[[Any], Any],
        data: Any = None,
        *,
        name: Optional[str] = None,
        stage: Optional[str] = None,
        fusable: bool = True,
    ) -> DagNode:
        """A single function application.

        ``data`` may be a plain value (shipped with the node) or another
        :class:`DagNode`, in which case the new node consumes its result.
        """
        if isinstance(data, DagNode):
            return self.then(data, fn, name=name, stage=stage, fusable=fusable)
        return self._add(
            DagNode(
                self, len(self._nodes), fn, ARG_VALUE,
                value=data, name=name, stage=stage, fusable=fusable,
            )
        )

    def map(
        self,
        fn: Callable[[Any], Any],
        iterdata: Iterable[Any],
        *,
        name: Optional[str] = None,
        stage: Optional[str] = None,
        fusable: bool = True,
    ) -> list[DagNode]:
        """One node per element; elements may themselves be nodes."""
        base = name or getattr(fn, "__name__", "fn")
        out = []
        for i, item in enumerate(iterdata):
            out.append(
                self.call(
                    fn, item, name=f"{base}[{i}]", stage=stage, fusable=fusable
                )
            )
        return out

    def reduce(
        self,
        fn: Callable[..., Any],
        nodes: Iterable[DagNode],
        *,
        name: Optional[str] = None,
        stage: Optional[str] = None,
        fusable: bool = True,
        pass_futures: bool = False,
    ) -> DagNode:
        """A node consuming *all* of ``nodes``.

        By default ``fn`` receives the list of dependency results in edge
        order.  With ``pass_futures=True`` it instead receives the resolved
        :class:`~repro.core.futures.ResponseFuture` handles — the shuffle
        reducers use this to fetch their partitions by (callset, call) id
        without re-downloading every map result.
        """
        deps = list(nodes)
        if not deps:
            raise ValueError("reduce() needs at least one input node")
        self._check_foreign(deps)
        mode = ARG_FUTURES if pass_futures else ARG_DEPS
        return self._add(
            DagNode(
                self, len(self._nodes), fn, mode,
                deps=deps, name=name, stage=stage, fusable=fusable,
            )
        )

    def then(
        self,
        node: DagNode,
        fn: Callable[[Any], Any],
        *,
        name: Optional[str] = None,
        stage: Optional[str] = None,
        fusable: bool = True,
    ) -> DagNode:
        """Chain ``fn`` after ``node``: the new node gets its result."""
        self._check_foreign([node])
        return self._add(
            DagNode(
                self, len(self._nodes), fn, ARG_DEP,
                deps=[node], name=name, stage=stage, fusable=fusable,
            )
        )

    def external(
        self,
        future,
        *,
        name: Optional[str] = None,
        stage: Optional[str] = None,
    ) -> DagNode:
        """Adopt an already-submitted future as a level-0 graph node.

        Lets DAG stages depend on work launched through the plain executor
        API (e.g. reducers over ``executor.map`` futures).
        """
        return self._add(
            DagNode(
                self, len(self._nodes), None, ARG_EXTERNAL,
                name=name, stage=stage, fusable=False,
                external_future=future,
            )
        )

    # -- freeze --------------------------------------------------------------
    def build(self, fuse: bool = True) -> "Dag":
        """Validate, optionally fuse linear chains, and compute levels."""
        if self._built:
            raise ValueError("DagBuilder.build() may only be called once")
        self._built = True
        nodes = list(self._nodes)
        for node in nodes:
            for dep in node.deps:
                dep.dependents.append(node)
        if fuse:
            nodes = _fuse_chains(nodes)
        compute_levels(nodes)
        return Dag(nodes)

    def submit(
        self,
        executor,
        *,
        fuse: bool = True,
        scheduler: Optional[str] = None,
        **scheduler_kwargs,
    ):
        """Build and submit in one call; returns the :class:`DagRun`.

        ``scheduler`` picks the driving mode per submission —
        ``"centralized"`` (default) or ``"swarm"`` — overriding the
        executor's :class:`~repro.config.DagConfig`; the remaining
        keyword arguments go to :class:`~repro.dag.DagScheduler` (e.g.
        ``node_retries``, ``retries``).  The built graph stays
        reachable as ``run.dag``.
        """
        from repro.dag.scheduler import DagScheduler

        if scheduler is not None:
            scheduler_kwargs["scheduler"] = scheduler
        dag = self.build(fuse=fuse)
        return DagScheduler(executor, **scheduler_kwargs).submit(dag)

    # -- internals -----------------------------------------------------------
    def _add(self, node: DagNode) -> DagNode:
        if self._built:
            raise ValueError("cannot add nodes after build()")
        self._nodes.append(node)
        return node

    def _check_foreign(self, deps: list[DagNode]) -> None:
        for dep in deps:
            if dep._builder is not self:
                raise ValueError(
                    f"node {dep.name!r} belongs to a different DagBuilder"
                )


def _fuse_chains(nodes: list[DagNode]) -> list[DagNode]:
    """Collapse linear ``producer -> consumer`` edges into single nodes.

    An edge fuses when the consumer takes exactly the producer's result
    (mode ``dep``), the producer feeds nothing else, and both sides opted
    in.  The consumer absorbs the producer: it inherits the producer's
    functions (run first), argument mode, payload, and in-edges.  Applied
    repeatedly, a whole ``f1 -> f2 -> f3`` chain becomes one activation.
    """
    removed: set[int] = set()
    changed = True
    while changed:
        changed = False
        for consumer in nodes:
            if consumer.node_id in removed or consumer.mode != ARG_DEP:
                continue
            if len(consumer.deps) != 1 or not consumer.fusable:
                continue
            producer = consumer.deps[0]
            if (
                producer.node_id in removed
                or not producer.fusable
                or producer.external
                or len(producer.dependents) != 1
            ):
                continue
            # consumer absorbs producer
            consumer.fns = producer.fns + consumer.fns
            consumer.mode = producer.mode
            consumer.value = producer.value
            consumer.deps = producer.deps
            for dep in consumer.deps:
                dep.dependents = [
                    consumer if d is producer else d for d in dep.dependents
                ]
            consumer.name = f"{producer.name}∘{consumer.name}"
            if consumer.stage is None:
                consumer.stage = producer.stage
            removed.add(producer.node_id)
            changed = True
    return [n for n in nodes if n.node_id not in removed]


def compute_levels(nodes: list[DagNode]) -> None:
    """Topological levels: sources at 0, else 1 + max over in-edges.

    Builder order is already topological (a node can only depend on nodes
    created before it), so one forward pass suffices.
    """
    for node in nodes:
        node.unresolved = len(node.deps)
        node.level = (
            0 if not node.deps else 1 + max(d.level for d in node.deps)
        )


class Dag:
    """A frozen, validated graph ready for :class:`DagScheduler.submit`."""

    def __init__(self, nodes: list[DagNode]) -> None:
        self.nodes = nodes

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def internal_nodes(self) -> list[DagNode]:
        """Nodes that require an activation (everything non-external)."""
        return [n for n in self.nodes if not n.external]

    def levels(self) -> list[list[DagNode]]:
        """Nodes grouped by topological level, ascending."""
        by_level: dict[int, list[DagNode]] = {}
        for node in self.nodes:
            by_level.setdefault(node.level, []).append(node)
        return [by_level[level] for level in sorted(by_level)]

    def stage_name(self, node: DagNode) -> str:
        """Display stage: the user label, else ``stage<level>``."""
        return node.stage if node.stage is not None else f"stage{node.level}"
