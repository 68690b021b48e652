"""Small-scale smoke tests of the benchmark harness modules.

The full-size experiments live in ``benchmarks/``; here the harness runs
on small inputs, except for the blocks of EXPERIMENTS.md that are cheap to
compute at seed 42 (Fig. 2's sweep, Fig. 4, Fig. 5, and Table 3's
sequential and 2 MB rows), which are compared with the document verbatim.
"""

from __future__ import annotations

import pytest

from repro.analytics.timeline import concurrency_timeline
from repro.bench import (
    fig2_spawning,
    fig3_elasticity,
    fig4_mergesort,
    fig5_tone_map,
    table3_airbnb,
)
from repro.bench.reporting import Table, documented


def assert_documented(experiment: str, table: Table) -> None:
    """The rendered table equals EXPERIMENTS.md's block, line for line."""
    rendered = table.render()
    assert rendered == documented(experiment), (
        f"EXPERIMENTS.md's {experiment} block differs from the code; "
        f"paste `python -m repro.bench {experiment}`:\n{rendered}"
    )


class TestReporting:
    def test_table_render(self):
        table = Table(["a", "b"])
        table.add_row(1, "2.5")
        table.add_row("x", None)
        assert table.render() == "| a | b |\n|---|---|\n| 1 | 2.5 |\n| x | – |"

    def test_table_row_arity_checked(self):
        table = Table(["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

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
        assert "| massive (wan client) |" in table.render()

    def test_sweep_matches_experiments_md(self):
        assert_documented("fig2", fig2_spawning.report(fig2_spawning.run_invoker_sweep()))


class TestFig3Harness:
    def test_small_workload(self):
        result = fig3_elasticity.run_workload(20, seed=2)
        assert result.n_functions == 20
        assert result.reached_full_concurrency
        assert result.mean_duration_s >= 60.0


class TestFig4Harness:
    def test_grid_matches_experiments_md(self):
        assert_documented("fig4", fig4_mergesort.report(fig4_mergesort.run_fig4()))

    def test_single_point(self):
        point = fig4_mergesort.run_point(100_000, 1, seed=3)
        assert point.functions_spawned == 3
        assert point.seconds > 0

    def test_deeper_tree_spawns_more_functions(self):
        shallow = fig4_mergesort.run_point(100_000, 0, seed=3)
        deep = fig4_mergesort.run_point(100_000, 2, seed=3)
        assert deep.functions_spawned > shallow.functions_spawned


class TestFig5Harness:
    def test_block_matches_experiments_md(self):
        assert_documented("fig5", fig5_tone_map.report(fig5_tone_map.run_fig5()))


class TestTable3Harness:
    def test_sequential_baseline_near_paper(self):
        row = table3_airbnb.run_sequential_baseline(seed=4)
        paper = table3_airbnb.PAPER_SEQUENTIAL_S
        assert abs(row.exec_time_s - paper) / paper < 0.05

    def test_one_parallel_row(self):
        row = table3_airbnb.run_airbnb("64MB", sample_cap=4096, seed=4)
        assert 40 <= row.concurrency <= 50
        assert row.speedup > 5
        assert row.comments > 1_000_000

    def test_2mb_row_is_over_100x(self):
        """The paper's headline row: 924 maps hand off to 33 reducers of
        one DAG; > 100x over the sequential baseline and at most 45 s."""
        sequential = table3_airbnb.run_sequential_baseline()
        row = table3_airbnb.run_airbnb("2MB", sequential_s=sequential.exec_time_s)
        assert row.exec_time_s <= 45.0
        assert row.speedup > 100.0
        rendered = table3_airbnb.report([sequential, row]).render().splitlines()
        block = documented("table3").splitlines()
        assert rendered == block[:3] + [line for line in block if line.startswith("| 2MB |")], (
            "\n".join(rendered)
        )

    def test_report_includes_paper_columns(self):
        rows = [
            table3_airbnb.run_sequential_baseline(seed=4),
            table3_airbnb.run_airbnb("64MB", sample_cap=4096, seed=4),
        ]
        first, *_, last = table3_airbnb.report(rows).render().splitlines()
        assert first == documented("table3").splitlines()[0]
        # the paper's 64 MB cells, whatever this run measured
        (paper_row,) = [
            line for line in documented("table3").splitlines() if line.startswith("| 64MB |")
        ]
        assert last.split(" | ")[-3:] == paper_row.split(" | ")[-3:]
