"""Small-scale smoke tests of the benchmark harness modules.

The real experiment scales live in ``benchmarks/``; here we verify the
harness machinery (runners, reporting, timeline extraction) on tiny inputs
so the unit suite stays fast.
"""

from __future__ import annotations

import pytest

from repro.bench import fig2_spawning, fig3_elasticity, fig4_mergesort, table3_airbnb
from repro.bench.reporting import Figure, Table, concurrency_timeline


class TestReporting:
    def test_table_render(self):
        table = Table("T", ["a", "b"])
        table.add_row(1, 2.5)
        table.add_row("x", 1_000_000)
        text = table.render()
        assert "T" in text
        assert "2.5" in text
        assert "1,000,000" in text

    def test_table_row_arity_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_figure_render(self):
        fig = Figure("F", x_label="x", y_label="y")
        series = fig.add_series("s1")
        series.add(1, 2)
        text = fig.render()
        assert "s1" in text and "(1, 2)" in text

    def test_concurrency_timeline(self):
        intervals = [(0.0, 10.0), (0.0, 10.0), (5.0, 15.0)]
        timeline = concurrency_timeline(intervals)
        assert timeline[0] == (0.0, 2)
        # at t=5 the third interval started
        assert dict(timeline)[5.0] == 3
        assert dict(timeline)[15.0] == 0

    def test_timeline_empty(self):
        assert concurrency_timeline([]) == []


class TestFig2Harness:
    def test_small_run(self):
        result = fig2_spawning.run_spawning(
            mode="local", n_functions=10, task_seconds=5.0, seed=1
        )
        assert result.n_functions == 10
        assert result.total_s > result.invocation_phase_s
        assert max(level for _t, level in result.concurrency) <= 10

    def test_report_builds(self):
        result = fig2_spawning.run_spawning(
            mode="massive", n_functions=10, task_seconds=2.0, seed=1
        )
        table = fig2_spawning.report([result])
        assert "massive" in table.render()


class TestFig3Harness:
    def test_small_workload(self):
        result = fig3_elasticity.run_workload(20, seed=2)
        assert result.n_functions == 20
        assert result.reached_full_concurrency
        assert result.mean_duration_s >= 60.0


class TestFig4Harness:
    #: ``python -m repro.bench fig4`` at seed 42, one row per N, d=0..4, to
    #: the one decimal EXPERIMENTS.md prints
    GRID = {
        500_000: (13.5, 9.8, 7.4, 7.4, 7.4),
        1_000_000: (25.7, 15.9, 11.1, 9.8, 9.8),
        5_000_000: (135.9, 69.0, 37.9, 24.5, 18.3),
        10_000_000: (281.6, 140.8, 75.1, 43.5, 29.4),
        25_000_000: (739.4, 366.2, 189.2, 104.4, 65.3),
    }

    def test_grid_matches_experiments_md(self):
        grid: dict[int, list[float]] = {}
        for point in fig4_mergesort.run_fig4(seed=42):
            grid.setdefault(point.n, []).append(round(point.seconds, 1))
        assert {n: tuple(row) for n, row in grid.items()} == self.GRID

    def test_single_point(self):
        point = fig4_mergesort.run_point(100_000, 1, seed=3)
        assert point.functions_spawned == 3
        assert point.seconds > 0

    def test_deeper_tree_spawns_more_functions(self):
        shallow = fig4_mergesort.run_point(100_000, 0, seed=3)
        deep = fig4_mergesort.run_point(100_000, 2, seed=3)
        assert deep.functions_spawned > shallow.functions_spawned


class TestTable3Harness:
    def test_sequential_baseline_near_paper(self):
        row = table3_airbnb.run_sequential_baseline(seed=4)
        assert abs(row.exec_time_s - 5160) / 5160 < 0.05

    def test_one_parallel_row(self):
        row = table3_airbnb.run_airbnb("64MB", sample_cap=4096, seed=4)
        assert 40 <= row.concurrency <= 50
        assert row.speedup > 5
        assert row.comments > 1_000_000

    def test_2mb_row_is_over_100x(self):
        """The paper's headline row: 924 maps hand off to 33 reducers of
        one DAG; > 100x over the 5,160 s baseline and at most 45 s."""
        row = table3_airbnb.run_airbnb("2MB")
        assert row.concurrency == 924
        assert round(row.exec_time_s) == 43  # EXPERIMENTS.md, seed 42
        assert row.exec_time_s <= 45.0
        assert row.speedup > 100.0

    def test_report_includes_paper_columns(self):
        rows = [
            table3_airbnb.run_sequential_baseline(seed=4),
            table3_airbnb.run_airbnb("64MB", sample_cap=4096, seed=4),
        ]
        text = table3_airbnb.report(rows).render()
        assert "No / Sequential" in text
        assert "47 executors" in text  # the paper column
