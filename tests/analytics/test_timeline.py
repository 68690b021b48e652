"""Tests for the execution-timeline renderer (Fig. 2/3 visuals)."""

from __future__ import annotations

import hashlib

import pytest

import repro as pw
from repro.analytics.timeline import (
    concurrency_timeline,
    intervals_from_records,
    render_execution_timeline,
    render_staged_timeline,
)


class TestConcurrencyTimeline:
    def test_step_function(self):
        timeline = concurrency_timeline([(0, 4), (2, 6)])
        assert dict(timeline) == {0.0: 1, 2.0: 2, 4.0: 1, 6.0: 0}

    def test_origin_override(self):
        timeline = concurrency_timeline([(10, 12)], t0=8.0)
        assert timeline[0] == (0.0, 0)
        assert dict(timeline)[2.0] == 1

    def test_empty(self):
        assert concurrency_timeline([]) == []

    def test_peak_matches_overlap(self):
        intervals = [(0, 10)] * 7
        timeline = concurrency_timeline(intervals)
        assert max(level for _t, level in timeline) == 7

    def test_event_sweep_emits_exact_change_points(self):
        """One sample per level change, at the exact event times."""
        timeline = concurrency_timeline([(0, 4), (2, 6)])
        assert timeline == [(0.0, 1), (2.0, 2), (4.0, 1), (6.0, 0)]

    def test_no_grid_snapping_on_fractional_times(self):
        # fixed-step sampling would snap 1.05 to the resolution grid (and
        # accumulate float drift on long horizons); the sweep does not
        timeline = concurrency_timeline([(0.0, 1.05), (0.25, 7.3)])
        assert timeline == [(0.0, 1), (0.25, 2), (1.05, 1), (7.3, 0)]

    def test_events_before_origin_fold_into_first_sample(self):
        timeline = concurrency_timeline([(0, 10), (2, 4)], t0=3.0)
        assert timeline == [(0.0, 2), (1.0, 1), (7.0, 0)]

    def test_leading_zero_sample_when_origin_precedes_first_start(self):
        timeline = concurrency_timeline([(5, 6)], t0=0.0)
        assert timeline == [(0.0, 0), (5.0, 1), (6.0, 0)]

    def test_cost_scales_with_intervals_not_horizon(self):
        # a week-long horizon at 1s resolution would be ~600k samples under
        # fixed-step sampling; the sweep emits only the change points
        timeline = concurrency_timeline([(0.0, 604800.0)])
        assert timeline == [(0.0, 1), (604800.0, 0)]


class TestRenderTimeline:
    def test_svg_structure(self):
        svg = render_execution_timeline([(0, 10), (2, 12)], title="Test run")
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "Test run (2 functions)" in svg
        assert svg.count("<line") >= 2 + 1  # rows + axis
        assert "<polyline" in svg  # the concurrency curve

    def test_peak_annotation(self):
        svg = render_execution_timeline([(0, 5), (1, 6), (2, 7)])
        assert "peak concurrency: 3" in svg

    def test_empty_intervals(self):
        svg = render_execution_timeline([])
        assert svg.startswith("<svg")
        assert "<polyline" not in svg

    def test_zero_span(self):
        svg = render_execution_timeline([(5.0, 5.0)])
        assert "nan" not in svg

    def test_title_is_xml_escaped(self):
        svg = render_execution_timeline(
            [(0, 1)], title='Trace <run> & "friends"'
        )
        assert "Trace &lt;run&gt; &amp;" in svg
        assert "<run>" not in svg

    def test_plain_title_unchanged(self):
        svg = render_execution_timeline([(0, 1)], title="Executor exec-1")
        assert "Executor exec-1 (1 functions)" in svg


_FIXED_300 = [
    ((i * 37 % 101) * 0.5, (i * 37 % 101) * 0.5 + 1.0 + (i * 13 % 17) * 0.75)
    for i in range(300)
]


class TestSvgBytesPinned:
    """Both entry points render through one ``_render``; these are the
    bytes each produced when they were two copies (sha256 recorded at the
    commit before the merge)."""

    @pytest.mark.parametrize(
        "intervals, title, flat_sha, staged_sha",
        [
            pytest.param(
                _FIXED_300, "Fig. 3 run",
                "636474d080b34718e3ea59613caeb616527645bfc1e6d922f50d9059df2d17f9",
                "43c8e8ea69dc7eb886030d591d7832f3e188b91c3d3469fc9638923e684d8e6b",
                id="fixed-300",
            ),
            pytest.param(
                [], "Nothing ran",
                "6b4fd39e463192869d47e5f8d49d63b81ed35e597e9ed23d2dbb6261702d68d3",
                "9b25fe90db68c74fe8f63e851eacc2f70701e3d9a220936bc18e0a6972a2501c",
                id="empty",
            ),
            pytest.param(
                [(5.0, 5.0)], "Instant",
                "1838faf76d4d824d75b01ff73e01e83565fc562e6df7e8b222f9e829c9cc0efd",
                "13efbec9b3f7233d414d289a95a5f798947cba2a3042c9b091f47dbc22d45b16",
                id="zero-length",
            ),
            pytest.param(
                [(0.0, 1.0), (0.5, 2.0)], "<&> run",
                "84fd8a1abdbf8f372d7eeaef3ccc5fefaa1a291285b83746f03de3cf4702be09",
                "c0704a52883cfc103545efacae815b3da5e9802720118ba36390461f420cacd7",
                id="escaped",
            ),
        ],
    )
    def test_exact_bytes(self, intervals, title, flat_sha, staged_sha):
        def sha(svg):
            return hashlib.sha256(svg.encode()).hexdigest()

        groups = [
            ("map", intervals[0::3]),
            ("<&> shuffle", intervals[1::3]),
            ("reduce", intervals[2::3]),
        ]
        assert sha(render_execution_timeline(intervals, title=title)) == flat_sha
        assert sha(render_staged_timeline(groups, title=title)) == staged_sha


class TestIntervalsFromRecords:
    def test_extracts_runner_intervals(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            executor.get_result(executor.map(lambda x: x, [1, 2, 3]))
            return intervals_from_records(
                env.platform.activations(), action_prefix="pywren_runner"
            )

        intervals = env.run(main)
        assert len(intervals) == 3
        assert all(end >= start for start, end in intervals)

    def test_prefix_filters(self, env):
        def main():
            executor = pw.ibm_cf_executor(invoker_mode="massive")
            executor.get_result(executor.map(lambda x: x, [1, 2]))
            runners = intervals_from_records(
                env.platform.activations(), action_prefix="pywren_runner"
            )
            everything = intervals_from_records(env.platform.activations())
            return len(runners), len(everything)

        n_runners, n_all = env.run(main)
        assert n_runners == 2
        assert n_all > n_runners  # includes the remote invoker

    def test_end_to_end_svg_from_real_run(self, env):
        def main():
            executor = pw.ibm_cf_executor()

            def busy(x):
                pw.sleep(30)
                return x

            executor.get_result(executor.map(busy, list(range(5))))
            intervals = intervals_from_records(
                env.platform.activations(), action_prefix="pywren_runner"
            )
            return render_execution_timeline(intervals, title="5 x 30s")

        svg = env.run(main)
        assert "5 x 30s (5 functions)" in svg
        assert "peak concurrency: 5" in svg
