"""Tenant-isolation contracts for the multi-tenant region.

Three properties a tenant can rely on, pinned end to end:

* **IAM boundary** — a key for tenant A can never invoke in tenant B's
  namespace (and works unchanged in its own);
* **quota blast radius** — a neighbour slamming into its own quotas
  leaves a victim tenant's latency and throughput within tolerance of a
  run without the neighbour;
* **billing exactness** — per-tenant billing rollups sum *exactly*
  (``==``, not approx) to the region total.
"""

from __future__ import annotations

import pytest

import repro as pw
from repro.config import TenantConfig
from repro.core.cost import tenant_billing_rollup
from repro.faas.iam import AuthorizationError
from repro.vtime import gather


class TestIamBoundary:
    def test_cross_namespace_key_denied(self):
        env = pw.CloudEnvironment.create(
            tenants=[TenantConfig("tenant-a"), TenantConfig("tenant-b")]
        )
        env.platform.require_auth = True
        env.credentials = env.platform.iam.create_api_key("tenant-a")

        def main():
            intruder = env.executor(namespace="tenant-b")
            with pytest.raises(AuthorizationError):
                intruder.map(lambda x: x, [1])
            # the same key works unchanged in its own namespace
            home = env.executor(namespace="tenant-a")
            return home.get_result(home.map(lambda x: x + 1, [1]))

        assert env.run(main) == [2]
        # nothing of tenant-b's ever ran or was billed
        billed = {entry.namespace for entry in env.platform.billing.entries()}
        assert "tenant-b" not in billed


class TestQuotaBlastRadius:
    @staticmethod
    def _victim_makespan(env):
        """Tenant B's six 5-second tasks; returns the job makespan."""

        def task(x):
            pw.sleep(5)
            return x

        executor = env.executor(namespace="tenant-b")
        t0 = pw.now()
        futures = executor.map(task, list(range(6)))
        assert executor.get_result(futures) == list(range(6))
        return pw.now() - t0

    def test_neighbour_quota_exhaustion_stays_contained(self):
        """Tenant A hammering its tiny concurrency quota (429 storms and
        all) must not stretch tenant B's makespan: the refusals bound A's
        footprint, so B sees a near-idle cluster."""
        baseline_env = pw.CloudEnvironment.create(
            seed=7, tenants=[TenantConfig("tenant-b")]
        )
        baseline = baseline_env.run(
            lambda: self._victim_makespan(baseline_env)
        )

        env = pw.CloudEnvironment.create(
            seed=7,
            tenants=[
                TenantConfig("tenant-a", max_concurrent=2),
                TenantConfig("tenant-b"),
            ],
        )

        def main():
            def aggressor():
                def hog(x):
                    pw.sleep(5)
                    return x

                executor = env.executor(namespace="tenant-a")
                futures = executor.map(hog, list(range(12)))
                executor.get_result(futures)

            neighbour = env.kernel.spawn(aggressor, name="aggressor")
            makespan = self._victim_makespan(env)
            gather([neighbour])
            return makespan

        contended = env.run(main)
        stats = env.platform.tenants.stats()
        # the neighbour really was quota-bound...
        assert stats["tenant-a"]["throttled"].get("concurrency", 0) > 0
        assert stats["tenant-a"]["completed"] == 12
        # ...and the victim's throughput survived: all tasks done, makespan
        # within tolerance of the neighbour-free baseline
        assert stats["tenant-b"]["completed"] == 6
        assert stats["tenant-b"]["throttled"] == {}
        assert contended <= baseline * 1.25 + 1.0, (
            f"victim makespan {contended:.2f}s vs baseline {baseline:.2f}s"
        )


class TestBillingExactness:
    def test_per_tenant_totals_sum_exactly_to_region(self):
        env = pw.CloudEnvironment.create(
            tenants=[
                TenantConfig("tenant-a"),
                TenantConfig("tenant-b"),
                TenantConfig("tenant-c"),
            ]
        )

        def main():
            for namespace, n in (("tenant-a", 3), ("tenant-b", 2), ("tenant-c", 4)):
                executor = env.executor(namespace=namespace)
                futures = executor.map(lambda x: x * 2, list(range(n)))
                executor.get_result(futures)

        env.run(main)
        rollup = tenant_billing_rollup(env.platform.billing)
        region = rollup.pop("__region__")
        tenants = sorted(rollup)
        assert tenants == ["tenant-a", "tenant-b", "tenant-c"]
        assert [rollup[t]["activations"] for t in tenants] == [3, 2, 4]
        # exact equality, not approx: the region row is defined as the sum
        # of the per-tenant sums, so no float dust may separate them
        assert sum(rollup[t]["activations"] for t in tenants) == region["activations"]
        assert sum(rollup[t]["gb_seconds"] for t in tenants) == region["gb_seconds"]
        assert sum(rollup[t]["cost"] for t in tenants) == region["cost"]
        # and the region row agrees with the flat meter on the exact counters
        assert region["activations"] == env.platform.billing.activations
        assert region["gb_seconds"] > 0.0
