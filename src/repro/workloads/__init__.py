"""BI/analytics workload suite on top of the IBM-PyWren core.

The paper's §6 use cases are one-shot batch shapes (mergesort, wordcount,
tone maps).  This package adds the workload families that BI work is
actually made of underneath:

* :mod:`repro.workloads.table` — a partitioned tabular dataset hosted as
  fixed-width-row virtual COS objects with a *zone-map* manifest (per
  row-group min/max statistics), the substrate scans prune against;
* :mod:`repro.workloads.scan` — a predicate-pushdown scan operator:
  ``ScanSpec(columns, predicate, aggregate)`` compiled to per-partition
  activations that read only the byte ranges the zone maps cannot rule
  out, apply selection/projection in the worker, and merge pre-aggregated
  partials through the DAG path;
* :mod:`repro.workloads.streaming` — micro-batch streaming: a virtual-time
  source appends objects on a schedule and ``windowed_map_reduce`` submits
  one DAG per window, with watermark/late-arrival handling and partial
  reuse across overlapping windows;
* :mod:`repro.workloads.reviewlens` — a review-analytics pipeline
  composing scan → tone analysis → per-city roll-ups over the Airbnb
  dataset, runnable under the centralized and swarm DAG schedulers.

See ``docs/WORKLOADS.md`` for the guide and
``tests/bench/test_workloads_smoke.py`` for the measured claims.
"""

from repro.workloads.reviewlens import review_analytics
from repro.workloads.scan import (
    Col,
    Predicate,
    ScanResult,
    ScanSpec,
    scan,
)
from repro.workloads.streaming import (
    StreamSource,
    WindowResult,
    windowed_map_reduce,
    windows_for,
)
from repro.workloads.table import TableInfo, load_table

__all__ = [
    "Col",
    "Predicate",
    "ScanResult",
    "ScanSpec",
    "scan",
    "StreamSource",
    "WindowResult",
    "windowed_map_reduce",
    "windows_for",
    "TableInfo",
    "load_table",
    "review_analytics",
]
