"""Tenant storm: weighted-fair vs first-come dispatch under overload (tier-1).

The storm of :mod:`tests.bench.storm`, seed 2024.  Its chaos run is
slow-tier (``tests/integration/test_tenant_storm.py``), its mixed-class
run is in ``tests/bench/test_workloads_smoke.py``.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosProfile
from tests.bench import storm

TINY = dict(n_tenants=6, tasks_per_tenant=2, task_s=5.0, seed=99)


@pytest.fixture(scope="module")
def modes():
    return {policy: storm.run_mode(policy) for policy in ("fifo", "drr")}


def test_drr_jain_at_least_0_9(modes):
    drr = modes["drr"]
    assert drr["jain_fairness_index"] == 0.983
    # 187 tenants in scope, each dispatching 1-7 tasks in the window, 0 starved
    assert drr["window_dispatches"] == (187, 1, 7, 0)


def test_fifo_clearly_below_drr(modes):
    fifo = modes["fifo"]
    assert fifo["jain_fairness_index"] == 0.9034
    assert fifo["window_dispatches"] == (172, 0, 8, 11)  # 11 tenants starved
    assert fifo["jain_fairness_index"] <= modes["drr"]["jain_fairness_index"] - 0.05


def test_work_conserving_throughput(modes):
    fifo, drr = modes["fifo"], modes["drr"]
    assert fifo["throughput_tasks_per_s"] == drr["throughput_tasks_per_s"] == 2.028
    assert fifo["horizon_s"] == drr["horizon_s"] == 789.1


class TestTenantStormHarness:
    @pytest.mark.parametrize("policy", ["fifo", "drr"])
    def test_mode_runs_and_reports(self, policy):
        report = storm.run_mode(policy, **TINY)
        assert report["policy"] == policy
        assert report["tenants"] == TINY["n_tenants"]
        assert 0.0 < report["jain_fairness_index"] <= 1.0
        assert report["throughput_tasks_per_s"] > 0
        assert report["billing"]["tenants_billed"] == TINY["n_tenants"]
        assert list(report["makespan_s"]) == sorted(report["makespan_s"])

    def test_storm_mode_records_faults(self):
        report = storm.run_mode(
            "drr",
            chaos=ChaosProfile("tenant-storm", seed=3, crash_prob=0.0, hang_prob=0.0),
            **TINY,
        )
        assert report["chaos"] == "tenant-storm"
        assert "faults" in report

    def test_same_seed_modes_are_reproducible(self):
        assert storm.run_mode("drr", **TINY) == storm.run_mode("drr", **TINY)
