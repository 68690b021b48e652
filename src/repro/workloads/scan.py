"""Predicate-pushdown scan operator over zone-mapped table objects.

``ScanSpec(columns, predicate, aggregate)`` describes a BI-style query —
projection, selection, optional aggregation with ``group_by`` — and
:func:`scan` compiles it against a table's zone-map manifest:

1. **plan**: row groups whose min/max statistics rule the predicate out
   are pruned; surviving groups coalesce into contiguous byte ranges and
   become :class:`~repro.core.partitioner.StoragePartition` units;
2. **push down**: each partition runs as one activation that reads only
   its byte range, applies selection + projection in the worker, and
   returns a pre-aggregated *partial*;
3. **merge**: partials meet in a single DAG reduce node (the same
   dependency-watched path ``map_reduce`` uses), so the client downloads
   one small result instead of every row.

``pushdown=False`` is the honest baseline the bench compares against:
no pruning, workers ship projected-but-unfiltered rows, and the client
filters and aggregates — the "full scan + client filter" shape naive
map-over-objects code produces.

Selectivity and byte counts are stamped on the ``scan`` trace layer
(``scan.plan`` / ``scan.partition`` / ``scan.merge`` / ``scan.result``).

The predicate/aggregation core (:class:`Col`, :func:`scan_rows`,
:func:`merge_partials`, :func:`plan_ranges`) is environment-free on
purpose: property tests check pushdown results against an in-memory
reference without spinning up a cloud.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional, Union

from repro.core import context as ambient
from repro.core.partitioner import StoragePartition
from repro.workloads import table as tbl

AGGREGATES = ("count", "sum", "min", "max", "avg")

_OPS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

_NEGATED = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


# ---------------------------------------------------------------------------
# Predicate algebra
# ---------------------------------------------------------------------------


class Predicate:
    """A boolean expression over row columns.

    Implementations provide :meth:`matches` (exact, per row) and
    :meth:`possible` (conservative, per zone: may this predicate hold for
    *some* row whose column values lie within ``[lo, hi]``?).  ``possible``
    must never return ``False`` for a zone containing a matching row —
    that soundness contract is what makes pruning safe, and is what the
    hypothesis property in ``tests/workloads`` checks.
    """

    def matches(self, row: dict) -> bool:
        raise NotImplementedError

    def possible(self, lo: dict, hi: dict) -> bool:
        raise NotImplementedError

    def negated(self) -> "Predicate":
        raise NotImplementedError

    def columns(self) -> set[str]:
        raise NotImplementedError

    def __and__(self, other: "Predicate") -> "Predicate":
        return And(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or(self, other)

    def __invert__(self) -> "Predicate":
        return self.negated()


@dataclass(frozen=True)
class Cmp(Predicate):
    """``column <op> value`` — the predicate leaves :class:`Col` builds."""

    col: str
    op: str
    value: Any

    def matches(self, row: dict) -> bool:
        return _OPS[self.op](row[self.col], self.value)

    def possible(self, lo: dict, hi: dict) -> bool:
        if self.col not in lo or self.col not in hi:
            return True  # no statistics for this column: cannot prune
        low, high = lo[self.col], hi[self.col]
        if self.op == "<":
            return low < self.value
        if self.op == "<=":
            return low <= self.value
        if self.op == ">":
            return high > self.value
        if self.op == ">=":
            return high >= self.value
        if self.op == "==":
            return low <= self.value <= high
        # "!=": only an all-equal zone pinned to exactly `value` is prunable
        return not (low == high == self.value)

    def negated(self) -> Predicate:
        return Cmp(self.col, _NEGATED[self.op], self.value)

    def columns(self) -> set[str]:
        return {self.col}

    def __repr__(self) -> str:
        return f"({self.col} {self.op} {self.value!r})"


@dataclass(frozen=True)
class And(Predicate):
    left: Predicate
    right: Predicate

    def matches(self, row: dict) -> bool:
        return self.left.matches(row) and self.right.matches(row)

    def possible(self, lo: dict, hi: dict) -> bool:
        return self.left.possible(lo, hi) and self.right.possible(lo, hi)

    def negated(self) -> Predicate:
        return Or(self.left.negated(), self.right.negated())

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} & {self.right!r})"


@dataclass(frozen=True)
class Or(Predicate):
    left: Predicate
    right: Predicate

    def matches(self, row: dict) -> bool:
        return self.left.matches(row) or self.right.matches(row)

    def possible(self, lo: dict, hi: dict) -> bool:
        return self.left.possible(lo, hi) or self.right.possible(lo, hi)

    def negated(self) -> Predicate:
        return And(self.left.negated(), self.right.negated())

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def __repr__(self) -> str:
        return f"({self.left!r} | {self.right!r})"


class Col:
    """Column reference: ``Col("price") < 100`` builds a :class:`Cmp`.

    Comparison operators return predicates (pandas-style), so ``Col``
    instances deliberately do not support equality-based hashing.
    """

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, name: str) -> None:
        self.name = name

    def __lt__(self, value: Any) -> Cmp:
        return Cmp(self.name, "<", value)

    def __le__(self, value: Any) -> Cmp:
        return Cmp(self.name, "<=", value)

    def __gt__(self, value: Any) -> Cmp:
        return Cmp(self.name, ">", value)

    def __ge__(self, value: Any) -> Cmp:
        return Cmp(self.name, ">=", value)

    def __eq__(self, value: Any) -> Cmp:  # type: ignore[override]
        return Cmp(self.name, "==", value)

    def __ne__(self, value: Any) -> Cmp:  # type: ignore[override]
        return Cmp(self.name, "!=", value)

    def __repr__(self) -> str:
        return f"Col({self.name!r})"


# ---------------------------------------------------------------------------
# Scan specification and the environment-free execution core
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanSpec:
    """What to project, filter and aggregate.

    * ``columns`` — projection (also the tuple order of returned rows);
    * ``predicate`` — selection, or ``None`` for all rows;
    * ``aggregate`` — one of ``count|sum|min|max|avg`` (``None`` returns
      the projected rows themselves);
    * ``agg_column`` — the aggregated column (required except ``count``);
    * ``group_by`` — optional grouping column for the aggregate.
    """

    columns: tuple[str, ...]
    predicate: Optional[Predicate] = None
    aggregate: Optional[str] = None
    agg_column: Optional[str] = None
    group_by: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.columns:
            raise ValueError("ScanSpec needs at least one projected column")
        if self.aggregate is not None:
            if self.aggregate not in AGGREGATES:
                raise ValueError(
                    f"aggregate must be one of {AGGREGATES}, "
                    f"got {self.aggregate!r}"
                )
            if self.aggregate != "count" and self.agg_column is None:
                raise ValueError(f"aggregate {self.aggregate!r} needs agg_column")
        elif self.agg_column is not None:
            raise ValueError("agg_column without aggregate")
        if self.group_by is not None and self.aggregate is None:
            raise ValueError("group_by without aggregate")

    def required_columns(self) -> set[str]:
        """Columns a worker must materialize to evaluate this spec."""
        needed = set(self.columns)
        if self.predicate is not None:
            needed |= self.predicate.columns()
        if self.agg_column is not None:
            needed.add(self.agg_column)
        if self.group_by is not None:
            needed.add(self.group_by)
        return needed


def _empty_partial(spec: ScanSpec) -> Any:
    if spec.group_by is not None:
        return {}
    return _empty_leaf(spec)


def _empty_leaf(spec: ScanSpec) -> Any:
    if spec.aggregate is None:
        return []
    if spec.aggregate == "count":
        return 0
    if spec.aggregate == "sum":
        return 0
    if spec.aggregate == "avg":
        return [0, 0]
    return None  # min/max over zero rows


def _fold_leaf(spec: ScanSpec, leaf: Any, row: dict) -> Any:
    if spec.aggregate is None:
        leaf.append(tuple(row[c] for c in spec.columns))
        return leaf
    if spec.aggregate == "count":
        return leaf + 1
    value = row[spec.agg_column]
    if spec.aggregate == "sum":
        return leaf + value
    if spec.aggregate == "avg":
        leaf[0] += value
        leaf[1] += 1
        return leaf
    if leaf is None:
        return value
    return min(leaf, value) if spec.aggregate == "min" else max(leaf, value)


def _merge_leaf(spec: ScanSpec, a: Any, b: Any) -> Any:
    if spec.aggregate is None:
        return a + b
    if spec.aggregate in ("count", "sum"):
        return a + b
    if spec.aggregate == "avg":
        return [a[0] + b[0], a[1] + b[1]]
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b) if spec.aggregate == "min" else max(a, b)


def scan_rows(spec: ScanSpec, rows: list[dict]) -> tuple[Any, int, int]:
    """Apply a spec to in-memory rows → ``(partial, scanned, matched)``."""
    partial = _empty_partial(spec)
    matched = 0
    for row in rows:
        if spec.predicate is not None and not spec.predicate.matches(row):
            continue
        matched += 1
        if spec.group_by is not None:
            key = row[spec.group_by]
            partial[key] = _fold_leaf(
                spec, partial.get(key, _empty_leaf(spec)), row
            )
        else:
            partial = _fold_leaf(spec, partial, row)
    return partial, len(rows), matched


def scan_partition_bytes(spec: ScanSpec, data: bytes) -> tuple[Any, int, int]:
    """Apply a spec to a group-aligned byte range of a table object."""
    return scan_rows(spec, tbl.parse_rows(data))


def merge_partials(spec: ScanSpec, partials: list[Any]) -> Any:
    """Associatively merge per-partition partials (order-insensitive for
    aggregates; row lists concatenate in partition order)."""
    merged = _empty_partial(spec)
    for partial in partials:
        if spec.group_by is not None:
            for key, leaf in partial.items():
                if key in merged:
                    merged[key] = _merge_leaf(spec, merged[key], leaf)
                else:
                    merged[key] = leaf
        else:
            merged = _merge_leaf(spec, merged, partial)
    return merged


def finalize(spec: ScanSpec, partial: Any) -> Any:
    """Turn a merged partial into the user-facing result value."""
    if spec.group_by is not None:
        return {k: _finalize_leaf(spec, v) for k, v in sorted(partial.items())}
    return _finalize_leaf(spec, partial)


def _finalize_leaf(spec: ScanSpec, leaf: Any) -> Any:
    if spec.aggregate == "avg":
        total, count = leaf
        return total / count if count else None
    return leaf


# ---------------------------------------------------------------------------
# Planning: zone maps → pruned, coalesced byte-range partitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScanPlan:
    partitions: tuple[StoragePartition, ...]
    groups_total: int
    groups_pruned: int
    bytes_total: int
    bytes_planned: int


def plan_ranges(
    groups: list[dict], predicate: Optional[Predicate]
) -> list[tuple[int, int]]:
    """Surviving-group byte ranges for one object, adjacent runs coalesced."""
    ranges: list[tuple[int, int]] = []
    for group in groups:
        if predicate is not None and not predicate.possible(
            group["min"], group["max"]
        ):
            continue
        if ranges and ranges[-1][1] == group["start"]:
            ranges[-1] = (ranges[-1][0], group["end"])
        else:
            ranges.append((group["start"], group["end"]))
    return ranges


def plan_scan(
    manifest: dict,
    bucket: str,
    predicate: Optional[Predicate],
    groups_per_partition: int,
) -> ScanPlan:
    """Prune row groups against zone maps and cut survivors into partitions."""
    group_bytes = manifest["rows_per_group"] * manifest["row_bytes"]
    chunk = groups_per_partition * group_bytes
    partitions: list[StoragePartition] = []
    groups_total = groups_pruned = bytes_total = bytes_planned = 0
    for key in sorted(manifest["objects"]):
        obj = manifest["objects"][key]
        groups_total += len(obj["groups"])
        bytes_total += obj["size"]
        ranges = plan_ranges(obj["groups"], predicate)
        kept = sum(
            1
            for g in obj["groups"]
            if predicate is None or predicate.possible(g["min"], g["max"])
        )
        groups_pruned += len(obj["groups"]) - kept
        object_parts: list[tuple[int, int]] = []
        for start, end in ranges:
            bytes_planned += end - start
            cursor = start
            while cursor < end:
                object_parts.append((cursor, min(end, cursor + chunk)))
                cursor += chunk
        for i, (start, end) in enumerate(object_parts):
            partitions.append(
                StoragePartition(
                    bucket=bucket,
                    key=key,
                    range_start=start,
                    range_end=end,
                    object_size=obj["size"],
                    partition_index=i,
                    partitions_of_object=len(object_parts),
                )
            )
    return ScanPlan(
        partitions=tuple(partitions),
        groups_total=groups_total,
        groups_pruned=groups_pruned,
        bytes_total=bytes_total,
        bytes_planned=bytes_planned,
    )


# ---------------------------------------------------------------------------
# The distributed operator
# ---------------------------------------------------------------------------


@dataclass
class ScanResult:
    """What :func:`scan` returns: the value plus execution statistics."""

    value: Any
    rows_scanned: int
    rows_matched: int
    bytes_read: int
    partitions: int
    groups_total: int
    groups_pruned: int
    pushdown: bool

    @property
    def selectivity(self) -> float:
        if self.rows_scanned == 0:
            return 0.0
        return self.rows_matched / self.rows_scanned


def _worker_tracer():
    """The environment tracer as seen from inside a running activation."""
    ctx = ambient.require_context()
    ec = ctx.execution_context
    tracer = getattr(ctx.environment, "tracer", None)
    if tracer is not None and not tracer.enabled:
        tracer = None
    return tracer, ec


def _make_scan_worker(spec: ScanSpec, pushdown: bool):
    if pushdown:
        worker_spec = spec
    else:
        # baseline workers only project: selection/aggregation happen at
        # the client, so every (projected) row crosses the network
        worker_spec = ScanSpec(columns=tuple(sorted(spec.required_columns())))

    def scan_partition(partition: StoragePartition):
        tracer, ec = _worker_tracer()
        t0 = ec.kernel.now()
        data = partition.read()
        partial, scanned, matched = scan_partition_bytes(worker_spec, data)
        if tracer is not None:
            tracer.span_at(
                "scan.partition",
                "scan",
                t0,
                ec.kernel.now(),
                key=partition.key,
                bytes_read=len(data),
                rows_scanned=scanned,
                rows_matched=matched,
                selectivity=round(matched / scanned, 6) if scanned else 0.0,
                pushdown=pushdown,
            )
        return {
            "partial": partial,
            "rows_scanned": scanned,
            "rows_matched": matched,
            "bytes_read": len(data),
        }

    return scan_partition


def _make_scan_merge(spec: ScanSpec):
    def merge_scan(results: list[dict]):
        tracer, ec = _worker_tracer()
        t0 = ec.kernel.now()
        merged = {
            "partial": merge_partials(spec, [r["partial"] for r in results]),
            "rows_scanned": sum(r["rows_scanned"] for r in results),
            "rows_matched": sum(r["rows_matched"] for r in results),
            "bytes_read": sum(r["bytes_read"] for r in results),
        }
        if tracer is not None:
            tracer.span_at(
                "scan.merge",
                "scan",
                t0,
                ec.kernel.now(),
                partials=len(results),
                rows_matched=merged["rows_matched"],
            )
        return merged

    return merge_scan


def scan(
    executor,
    table: Union[str, tbl.TableInfo],
    spec: ScanSpec,
    *,
    pushdown: bool = True,
    groups_per_partition: int = 8,
    retries: Optional[int] = None,
) -> ScanResult:
    """Run a scan over a zone-mapped table (see the module docstring).

    ``table`` is a bucket name or the :class:`~repro.workloads.table.TableInfo`
    handle ``load_table`` returned; the zone-map manifest is fetched from
    the bucket.  ``groups_per_partition`` sets how many surviving row
    groups one activation covers.
    """
    if groups_per_partition < 1:
        raise ValueError("groups_per_partition must be positive")
    bucket = table if isinstance(table, str) else table.bucket
    manifest = json.loads(executor._cos.get_object(bucket, tbl.MANIFEST_KEY))
    plan = plan_scan(
        manifest,
        bucket,
        spec.predicate if pushdown else None,
        groups_per_partition,
    )
    tracer = executor.tracer
    if tracer is not None and tracer.enabled:
        tracer.point(
            "scan.plan",
            "scan",
            executor.kernel.now(),
            groups_total=plan.groups_total,
            groups_pruned=plan.groups_pruned,
            partitions=len(plan.partitions),
            bytes_planned=plan.bytes_planned,
            pushdown=pushdown,
        )
    if not plan.partitions:
        return ScanResult(
            value=finalize(spec, _empty_partial(spec)),
            rows_scanned=0,
            rows_matched=0,
            bytes_read=0,
            partitions=0,
            groups_total=plan.groups_total,
            groups_pruned=plan.groups_pruned,
            pushdown=pushdown,
        )
    futures = executor.map_partitions(
        _make_scan_worker(spec, pushdown),
        list(plan.partitions),
        retries=retries,
    )
    if pushdown:
        merge = _make_scan_merge(spec)
        merged_future = executor._reduce_stage([(merge, merge.__name__, futures)], "R", retries)[0]
        merged = executor.get_result(merged_future)
        partial = merged["partial"]
    else:
        results = executor.get_result(futures)
        baseline_columns = tuple(sorted(spec.required_columns()))
        rows = [
            dict(zip(baseline_columns, values))
            for result in results
            for values in result["partial"]
        ]
        partial, _, matched = scan_rows(spec, rows)
        merged = {
            "partial": partial,
            "rows_scanned": sum(r["rows_scanned"] for r in results),
            "rows_matched": matched,
            "bytes_read": sum(r["bytes_read"] for r in results),
        }
    result = ScanResult(
        value=finalize(spec, partial),
        rows_scanned=merged["rows_scanned"],
        rows_matched=merged["rows_matched"],
        bytes_read=merged["bytes_read"],
        partitions=len(plan.partitions),
        groups_total=plan.groups_total,
        groups_pruned=plan.groups_pruned,
        pushdown=pushdown,
    )
    if tracer is not None and tracer.enabled:
        tracer.point(
            "scan.result",
            "scan",
            executor.kernel.now(),
            rows_scanned=result.rows_scanned,
            rows_matched=result.rows_matched,
            selectivity=round(result.selectivity, 6),
            bytes_read=result.bytes_read,
            pushdown=pushdown,
        )
    return result
