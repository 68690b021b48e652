"""TenantRegistry: quotas, 429 reasons, accounting, platform attachment."""

from __future__ import annotations

import pytest

import repro as pw
from repro.config import TenantConfig
from repro.faas.errors import ThrottledError
from repro.faas.tenants import TenantNotFound, TenantRegistry


class TestTenantConfig:
    def test_defaults_are_unlimited(self):
        config = TenantConfig("acme")
        config.validate()
        assert config.weight == 1.0
        assert config.max_concurrent is None
        assert config.memory_quota_mb is None
        assert config.rate_per_s is None
        assert config.max_pending is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "a", "weight": 0.0},
            {"name": "a", "weight": -1.0},
            {"name": "a", "max_concurrent": 0},
            {"name": "a", "memory_quota_mb": 0},
            {"name": "a", "rate_per_s": 0.0},
            {"name": "a", "rate_burst": 0},
            {"name": "a", "max_pending": 0},
        ],
    )
    def test_validate_rejects(self, kwargs):
        with pytest.raises(ValueError):
            TenantConfig(**kwargs).validate()


class TestRegistryMembership:
    def test_register_and_get(self):
        registry = TenantRegistry([TenantConfig("a", weight=2.0)])
        assert registry.get("a").weight == 2.0
        assert registry.known("a")
        assert not registry.known("b")
        assert len(registry) == 1

    def test_register_by_name_and_idempotence(self):
        registry = TenantRegistry()
        config = registry.register("a")
        assert config == TenantConfig("a")
        assert registry.register(TenantConfig("a")) == config
        with pytest.raises(ValueError):
            registry.register(TenantConfig("a", weight=2.0))

    def test_unknown_namespace_rejected_without_default(self):
        registry = TenantRegistry()
        with pytest.raises(TenantNotFound):
            registry.get("ghost")
        with pytest.raises(TenantNotFound):
            registry.admit("ghost", 256, 0.0)

    def test_default_template_lazily_registers(self):
        registry = TenantRegistry(
            default=TenantConfig("template", max_concurrent=2, weight=0.5)
        )
        config = registry.get("newcomer")
        assert config.name == "newcomer"
        assert config.max_concurrent == 2
        assert config.weight == 0.5
        assert registry.known("newcomer")

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            TenantRegistry(policy="best-effort")


class TestAdmission:
    def test_concurrency_quota(self):
        registry = TenantRegistry([TenantConfig("a", max_concurrent=2)])
        registry.admit("a", 256, 0.0)
        registry.admit("a", 256, 0.0)
        with pytest.raises(ThrottledError) as err:
            registry.admit("a", 256, 0.0)
        assert err.value.reason == "concurrency"
        assert err.value.retry_after is not None
        # completion frees the slot
        registry.on_dispatched("a")
        registry.on_complete("a", 256)
        registry.admit("a", 256, 1.0)

    def test_memory_quota(self):
        registry = TenantRegistry([TenantConfig("a", memory_quota_mb=512)])
        registry.admit("a", 512, 0.0)
        with pytest.raises(ThrottledError) as err:
            registry.admit("a", 1, 0.0)
        assert err.value.reason == "memory"

    def test_rate_quota_token_bucket_refills_on_virtual_time(self):
        registry = TenantRegistry(
            [TenantConfig("a", rate_per_s=2.0, rate_burst=2)]
        )
        registry.admit("a", 256, 0.0)
        registry.admit("a", 256, 0.0)
        with pytest.raises(ThrottledError) as err:
            registry.admit("a", 256, 0.0)
        assert err.value.reason == "rate"
        assert err.value.retry_after == pytest.approx(0.5)
        # half a second refills one token at 2/s
        registry.admit("a", 256, 0.5)

    def test_queue_depth_cap(self):
        registry = TenantRegistry([TenantConfig("a", max_pending=1)])
        registry.admit("a", 256, 0.0)
        with pytest.raises(ThrottledError) as err:
            registry.admit("a", 256, 0.0)
        assert err.value.reason == "queue"
        # dispatch (not completion) is what drains pending
        registry.on_dispatched("a")
        registry.admit("a", 256, 0.0)

    def test_refusal_consumes_nothing(self):
        registry = TenantRegistry(
            [TenantConfig("a", max_concurrent=1, rate_per_s=10.0, rate_burst=5)]
        )
        registry.admit("a", 256, 0.0)
        for _ in range(3):
            with pytest.raises(ThrottledError):
                registry.admit("a", 256, 0.0)
        state = registry.stats()["a"]
        assert state["inflight"] == 1
        assert state["admitted"] == 1
        assert state["throttled"] == {"concurrency": 3}
        assert registry.throttled_total == 3

    def test_release_admission_rolls_back(self):
        registry = TenantRegistry([TenantConfig("a", max_concurrent=1)])
        registry.admit("a", 256, 0.0)
        registry.release_admission("a", 256)
        state = registry.stats()["a"]
        assert state["inflight"] == 0
        assert state["pending"] == 0
        assert state["admitted"] == 0
        registry.admit("a", 256, 0.0)


class TestPlatformAttachment:
    def test_attach_twice_rejected(self):
        env = pw.CloudEnvironment.create(tenants=[TenantConfig("a")])
        with pytest.raises(ValueError):
            env.platform.attach_tenants(TenantRegistry())

    def test_multitenant_run_accounts_per_tenant(self):
        env = pw.CloudEnvironment.create(
            tenants=[TenantConfig("tenant-a", weight=2.0), TenantConfig("tenant-b")]
        )

        def main():
            exa = env.executor(namespace="tenant-a")
            exb = env.executor(namespace="tenant-b")
            fa = exa.map(lambda x: x + 1, [1, 2, 3])
            fb = exb.map(lambda x: x * 2, [4, 5])
            return exa.get_result(fa), exb.get_result(fb)

        ra, rb = env.run(main)
        assert ra == [2, 3, 4]
        assert rb == [8, 10]
        stats = env.platform.tenants.stats()
        assert stats["tenant-a"]["admitted"] == 3
        assert stats["tenant-a"]["dispatched"] == 3
        assert stats["tenant-a"]["completed"] == 3
        assert stats["tenant-b"]["completed"] == 2
        assert stats["tenant-a"]["inflight"] == 0
        assert stats["tenant-b"]["inflight_mb"] == 0
        # every activation carries its dispatch timestamp
        for record in env.platform.activations():
            assert record.dispatch_time is not None
            assert record.dispatch_time >= record.submit_time

    def test_unregistered_namespace_refused_without_template(self):
        env = pw.CloudEnvironment.create(tenants=[TenantConfig("tenant-a")])

        def main():
            executor = env.executor(namespace="intruder")
            executor.map(lambda x: x, [1])
            return executor.get_result()

        with pytest.raises(TenantNotFound):
            env.run(main)

    def test_tenant_quota_throttles_then_recovers(self):
        """A tenant over its concurrency quota gets 429 + retry_after and
        the gateway client rides it out; per-tenant accounting shows the
        throttles and the run still completes."""
        env = pw.CloudEnvironment.create(
            tenants=TenantRegistry(
                [TenantConfig("guest", max_concurrent=2)]
            ),
        )

        def main():
            executor = pw.ibm_cf_executor()

            def task(x):
                pw.sleep(5)
                return x

            return executor.get_result(executor.map(task, list(range(6))))

        assert env.run(main) == list(range(6))
        state = env.platform.tenants.stats()["guest"]
        assert state["completed"] == 6
        assert state["throttled"].get("concurrency", 0) > 0
        assert env.platform.throttled_total >= state["throttled"]["concurrency"]

    def test_trace_tenant_dimension_and_cli_filter(self, tmp_path):
        env = pw.CloudEnvironment.create(
            tenants=[TenantConfig("tenant-a"), TenantConfig("tenant-b")],
            trace=True,
        )

        def main():
            exa = env.executor(namespace="tenant-a")
            exb = env.executor(namespace="tenant-b")
            fa = exa.map(lambda x: x, [1])
            fb = exb.map(lambda x: x, [2])
            exa.get_result(fa), exb.get_result(fb)

        env.run(main)
        from repro.trace import export

        events = env.tracer.events()
        tenants_seen = {e.get_id("tenant") for e in events} - {None}
        assert tenants_seen == {"tenant-a", "tenant-b"}
        # the CLI --tenant filter keeps exactly one tenant's events
        trace_file = tmp_path / "trace.jsonl"
        trace_file.write_text(export.to_jsonl(events), encoding="utf-8")
        from repro.__main__ import main as cli_main

        assert cli_main(["trace", str(trace_file), "--tenant", "tenant-a"]) == 0
        assert cli_main(["trace", str(trace_file), "--tenant", "nobody"]) == 1

    def test_billing_carries_namespace(self):
        env = pw.CloudEnvironment.create(
            tenants=[TenantConfig("tenant-a"), TenantConfig("tenant-b")]
        )

        def main():
            exa = env.executor(namespace="tenant-a")
            exb = env.executor(namespace="tenant-b")
            fa = exa.map(lambda x: x, [1, 2])
            fb = exb.map(lambda x: x, [3])
            exa.get_result(fa), exb.get_result(fb)

        env.run(main)
        namespaces = [entry.namespace for entry in env.platform.billing.entries()]
        assert set(namespaces) == {"tenant-a", "tenant-b"}
        assert namespaces.count("tenant-a") == 2
