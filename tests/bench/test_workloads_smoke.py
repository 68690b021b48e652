"""BI/analytics workloads: pushdown scans and windowed streaming, seed 77.

* **Scan** — a ``count`` over a 160,000-row zone-mapped table (4 cities,
  64 rows/group) with a date predicate keeping ~1% / ~10% / ~50% of rows,
  x groups per partition (8, 16) x exchange backend.  Pushdown prunes
  row groups by zone map, filters and pre-aggregates in the workers; the
  baseline ships every projected row to the client and filters there.
  Tier-1 runs one cell (10%, 8 groups per partition, ``cos``);
  ``TestFullScanMatrix`` (slow) runs all of it.
* **Streaming** — ``windowed_map_reduce`` over 18 objects arriving every
  10 s with jitter and stragglers on ``cached-cos``: tumbling 30/30
  windows, and overlapping 60/20 windows with partial reuse on and off.
"""

from __future__ import annotations

import pytest

import repro as pw
from tests.bench import storm

SEED = 77
SCAN_ROWS = 8_000
#: selectivity -> the ``day`` bound keeping that share of rows
DAY_BOUND = {"1pct": 4, "10pct": 37, "50pct": 183}
BACKENDS = ("cos", "cached-cos", "vm")
STREAM_CONFIGS = {  # window s, slide s, partial reuse
    "tumbling": (30.0, 30.0, True),
    "overlap_reuse": (60.0, 20.0, True),
    "overlap_noreuse": (60.0, 20.0, False),
}
#: cell -> (value, baseline wall s, pushdown wall s per backend, pushdown
#: bytes); every baseline reads 5,760,000 B in 316 (gpp 8) or 160 partitions
SCAN_PINNED = {
    "1pct/gpp8": (1756, 18.56, (5.02, 5.02, 7.19), 64512),
    "1pct/gpp16": (1756, 9.98, (5.02, 5.02, 7.19), 64512),
    "10pct/gpp8": (16220, 18.56, (4.61, 4.61, 8.29), 589824),
    "10pct/gpp16": (16220, 9.98, (4.13, 4.13, 7.79), 589824),
    "50pct/gpp8": (80220, 18.56, (11.98, 10.77, 11.93), 2893824),
    "50pct/gpp16": (80220, 9.98, (6.89, 6.89, 8.07), 2893824),
}


def scan_spec(selectivity):
    return pw.ScanSpec(columns=("city",), predicate=pw.Col("day") < DAY_BOUND[selectivity],
                       aggregate="count")


def run_scan_cell(selectivity, gpp, backend, pushdown, table_rows=160_000):
    """One scan in a fresh environment; wall time is ``env.now()``."""
    env = pw.CloudEnvironment.create(seed=SEED, exchange=backend)
    info = pw.load_table(env.storage, total_rows=table_rows, n_cities=4, rows_per_group=64)
    result = env.run(lambda: pw.scan(pw.ibm_cf_executor(), info, scan_spec(selectivity),
                                     pushdown=pushdown, groups_per_partition=gpp))
    return {
        "value": result.value, "wall_s": round(env.now(), 2),
        "bytes_read": result.bytes_read, "rows_scanned": result.rows_scanned,
        "partitions": result.partitions, "groups_pruned": result.groups_pruned,
    }


def scan_cells(selectivities, backends, partitionings=(8, 16)):
    """``{selectivity/gppN: (baseline, {backend: pushdown})}``, each cell
    checked against ``SCAN_PINNED``; the baseline runs on direct COS."""
    cells = {}
    for selectivity in selectivities:
        for gpp in partitionings:
            name = f"{selectivity}/gpp{gpp}"
            value, base_wall, push_walls, push_bytes = SCAN_PINNED[name]
            base = run_scan_cell(selectivity, gpp, "cos", pushdown=False)
            assert (base["value"], base["wall_s"], base["bytes_read"]) == (
                value, base_wall, 5_760_000)
            pushed = {b: run_scan_cell(selectivity, gpp, b, pushdown=True) for b in backends}
            for backend, push in pushed.items():
                assert (push["value"], push["wall_s"], push["bytes_read"]) == (
                    value, push_walls[BACKENDS.index(backend)], push_bytes)
            cells[name] = (base, pushed)
    return cells


def assert_pushdown_wins(cells, wall_backends):
    """In every <= 10% cell pushdown reads fewer bytes than the baseline,
    and on ``wall_backends`` it also finishes sooner."""
    for name, (base, pushed) in cells.items():
        if name.startswith("50pct/"):
            continue
        for backend, push in pushed.items():
            assert push["bytes_read"] < base["bytes_read"]
            if backend in wall_backends:
                assert push["wall_s"] < base["wall_s"]


def window_sum(payload):
    return sum(payload)


def sum_partials(parts):
    return sum(parts)


def run_stream_config(name):
    window_s, slide_s, reuse = STREAM_CONFIGS[name]
    env = pw.CloudEnvironment.create(seed=SEED, exchange="cached-cos")
    source = pw.StreamSource.synthetic(18, 10.0, seed=SEED, jitter_s=2.0,
                                       late_every=7, late_by_s=35.0)
    windows = env.run(lambda: pw.windowed_map_reduce(
        pw.ibm_cf_executor(), source, window_sum, sum_partials, window_s=window_s,
        slide_s=slide_s, late_policy="refire", reuse_partials=reuse,
    ))
    stats = env.exchange.stats()
    return {
        "makespan_s": round(env.now(), 1),
        "map_activations": sum(len(w.keys) - w.reused_partials for w in windows),
        "reused_partials": sum(w.reused_partials for w in windows),
        "late_refires": sum(1 for w in windows if w.revision > 0),
        "cache_hits": (stats["local_hits"], stats["peer_hits"], stats["cos_misses"]),
        "window_values": [w.value for w in windows],
    }


def traced_jsonl(kind):
    """A small traced scan or stream run, executor id normalized."""
    env = pw.CloudEnvironment.create(seed=SEED, trace=True)

    def main():
        executor = pw.ibm_cf_executor()
        if kind == "scan":
            info = pw.load_table(env.storage, total_rows=3_200, n_cities=2, rows_per_group=64)
            pw.scan(executor, info, scan_spec("10pct"))
        else:
            source = pw.StreamSource.synthetic(6, 10.0, seed=SEED)
            pw.windowed_map_reduce(executor, source, window_sum, sum_partials,
                                   window_s=40.0, slide_s=20.0)
        return executor.trace_jsonl().replace(executor.executor_id, "EXEC")

    return env.run(main)


class TestScanHarness:
    @pytest.fixture(scope="class")
    def cells(self):
        return scan_cells(["10pct"], ["cos"], partitionings=(8,))

    def test_pushdown_beats_full_scan_wall_at_low_selectivity(self, cells):
        assert_pushdown_wins(cells, ["cos"])

    def test_pushdown_beats_full_scan_bytes_at_low_selectivity(self, cells):
        assert_pushdown_wins(cells, [])
        assert cells["10pct/gpp8"][1]["cos"]["partitions"] == 32

    def test_pushdown_cell_beats_baseline_bytes(self):
        base = run_scan_cell("10pct", 8, "cos", pushdown=False, table_rows=SCAN_ROWS)
        push = run_scan_cell("10pct", 8, "cos", pushdown=True, table_rows=SCAN_ROWS)
        assert push["value"] == base["value"]
        assert push["bytes_read"] < base["bytes_read"]
        assert push["groups_pruned"] > 0 and base["groups_pruned"] == 0
        assert base["rows_scanned"] == SCAN_ROWS

    def test_same_seed_cell_is_reproducible(self):
        first = run_scan_cell("1pct", 8, "cos", pushdown=True, table_rows=SCAN_ROWS)
        assert run_scan_cell("1pct", 8, "cos", pushdown=True, table_rows=SCAN_ROWS) == first


@pytest.mark.slow
class TestFullScanMatrix:
    @pytest.fixture(scope="class")
    def cells(self):
        return scan_cells(list(DAY_BOUND), BACKENDS)

    def test_pushdown_beats_full_scan_wall_at_low_selectivity(self, cells):
        """The wall criterion covers the COS-shaped planes only: the vm
        plane's per-intermediate round trip swamps pushdown's tiny merge
        partials (the small-volume side of the exchange crossover)."""
        assert_pushdown_wins(cells, ["cos", "cached-cos"])

    def test_pushdown_beats_full_scan_bytes_at_low_selectivity(self, cells):
        assert_pushdown_wins(cells, [])
        # 1%: zone maps prune 2,472 of 2,500 groups, 4 activations answer
        push = cells["1pct/gpp8"][1]["cos"]
        assert (push["groups_pruned"], push["partitions"]) == (2472, 4)

    def test_vm_small_intermediate_overhead_visible(self, cells):
        for name, (_, pushed) in cells.items():
            if not name.startswith("50pct/"):
                assert pushed["vm"]["wall_s"] >= pushed["cos"]["wall_s"]


class TestStreamingHarness:
    @pytest.fixture(scope="class")
    def configs(self):
        return {name: run_stream_config(name) for name in STREAM_CONFIGS}

    def test_reuse_config_reports_reuse(self, configs):
        """Overlapping windows reuse cached partials, served from memory."""
        reuse = configs["overlap_reuse"]
        assert (reuse["reused_partials"], reuse["late_refires"]) == (34, 3)
        assert reuse["cache_hits"] == (52, 11, 0)

    def test_reuse_cuts_map_activations(self, configs):
        assert configs["overlap_reuse"]["map_activations"] == 14
        assert configs["overlap_noreuse"]["map_activations"] == 48
        assert [c["makespan_s"] for c in configs.values()] == [182.2, 184.5, 186.2]

    def test_reuse_preserves_window_values(self, configs):
        values = configs["overlap_reuse"]["window_values"]
        assert len(values) == 9 and values == configs["overlap_noreuse"]["window_values"]

    def test_traced_runs_are_byte_identical(self):
        """Same-seed scan and streaming traces are byte-identical."""
        assert traced_jsonl("scan") == traced_jsonl("scan")
        assert traced_jsonl("stream") == traced_jsonl("stream")


class TestMixedTenantClasses:
    def test_mixed_mode_reports_per_class_jain(self):
        """Scan (20 s), stream (45 s) and batch (90 s) tenants under DRR at
        full storm scale: every class stays fair on its own."""
        report = storm.run_mode("drr", classes=storm.MIXED_CLASSES)
        assert report["task_s"] == {"scan": 20.0, "stream": 45.0, "batch": 90.0}
        assert report["jain_by_class"] == {"scan": 0.9823, "stream": 0.9877, "batch": 0.9798}
        assert report["jain_fairness_index"] == 0.9833
        assert all(jain >= 0.9 for jain in report["jain_by_class"].values())
