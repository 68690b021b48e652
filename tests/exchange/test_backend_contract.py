"""The backend contract, pinned against every exchange implementation.

Each backend — direct COS, the cached-cos memory tier, the VM
ephemeral-store cluster — must satisfy the same observable contract
(see :mod:`repro.exchange.base`): published bytes are visible from any
site, deletion is global, capacity loss and node crashes are invisible
to readers (transparent COS fallback), and same-seed runs are
deterministic.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos import ChaosProfile, build_plane
from repro.config import ExchangeConfig
from repro.cos import CloudObjectStorage, COSClient
from repro.cos.errors import NoSuchKey
from repro.exchange import CachedCosExchange, CosExchange, VmExchange
from repro.net import LatencyModel, NetworkLink
from repro.vtime import Kernel, sleep

BACKENDS = ["cos", "cached-cos", "vm"]
BUCKET = "xchg"

#: a fast-provisioning, small-capacity VM config so contract runs stay tiny
VM_CFG = ExchangeConfig(
    backend="vm",
    vm_nodes=2,
    vm_node_memory_bytes=64 * 1024,
    vm_startup_s=0.5,
)


def make_world(seed: int = 7):
    """One kernel + COS store + an in-cloud-ish client link."""
    kernel = Kernel()
    store = CloudObjectStorage(kernel)
    store.create_bucket(BUCKET)
    link = NetworkLink(kernel, LatencyModel(rtt=0.004, jitter=0.0), seed=seed)
    return kernel, store, COSClient(store, link)


def make_backend(name: str, kernel, chaos=None, vm_cfg: ExchangeConfig = VM_CFG):
    if name == "cos":
        return CosExchange()
    if name == "cached-cos":
        return CachedCosExchange(
            ExchangeConfig(backend="cached-cos", cache_node_budget_bytes=64 * 1024),
            n_nodes=4,
            kernel=kernel,
        )
    return VmExchange(vm_cfg, kernel=kernel, chaos=chaos)


@pytest.mark.parametrize("name", BACKENDS)
class TestContract:
    def test_publish_visible_from_every_site(self, name):
        kernel, _store, cos = make_world()
        backend = make_backend(name, kernel)
        producer = (0, "c0")
        other = (1, "c1")

        def main():
            backend.put(cos, BUCKET, "k/one", b"payload-1", site=producer)
            return (
                backend.get(cos, BUCKET, "k/one", site=producer),  # same site
                backend.get(cos, BUCKET, "k/one", site=other),  # remote in-cloud site
                backend.get(cos, BUCKET, "k/one"),  # client side (no site)
            )

        assert kernel.run(main) == (b"payload-1",) * 3

    def test_delete_then_get_raises_everywhere(self, name):
        kernel, _store, cos = make_world()
        backend = make_backend(name, kernel)
        producer = (0, "c0")

        def main():
            backend.put(cos, BUCKET, "k/gone", b"doomed", site=producer)
            backend.delete(cos, BUCKET, "k/gone")
            with pytest.raises(NoSuchKey):
                backend.get(cos, BUCKET, "k/gone", site=producer)
            with pytest.raises(NoSuchKey):
                backend.get(cos, BUCKET, "k/gone")
            return True

        assert kernel.run(main)

    def test_never_published_key_misses(self, name):
        kernel, _store, cos = make_world()
        backend = make_backend(name, kernel)
        reader = (0, "c0")

        def main():
            with pytest.raises(NoSuchKey):
                backend.get(cos, BUCKET, "k/never", site=reader)
            return True

        assert kernel.run(main)

    def test_capacity_overflow_falls_back_to_cos(self, name):
        """Objects far beyond tier capacity are still served (from COS)."""
        kernel, _store, cos = make_world()
        backend = make_backend(name, kernel)
        producer = (0, "c0")
        blobs = {
            f"k/big/{i:02d}": bytes([i]) * (48 * 1024) for i in range(6)
        }

        def main():
            for key, blob in sorted(blobs.items()):
                backend.put(cos, BUCKET, key, blob, site=producer)
            return {
                key: backend.get(cos, BUCKET, key, site=producer)
                for key in sorted(blobs)
            }

        assert kernel.run(main) == blobs

    def test_chaos_node_crash_is_transparent(self, name):
        """Under the vm-node-crash profile every read still returns the
        published bytes — tier loss degrades to the charged COS GET."""
        chaos = build_plane(
            ChaosProfile("vm-node-crash", seed=11, vm_crash_window_s=2.0)
        )
        kernel, _store, cos = make_world()
        backend = make_backend(name, kernel, chaos=chaos)
        producer = (0, "c0")

        def main():
            backend.put(cos, BUCKET, "k/surv", b"survivor", site=producer)
            sleep(5.0)  # sail past every seeded crash time
            return backend.get(cos, BUCKET, "k/surv", site=producer)

        assert kernel.run(main) == b"survivor"
        if name == "vm":
            # the crashes actually fired and landed on the fault timeline
            assert chaos.fault_counts().get("vm:crash", 0) >= 1

    def test_same_seed_runs_identical(self, name):
        def one_run():
            kernel, _store, cos = make_world(seed=13)
            backend = make_backend(name, kernel)
            producer = (0, "c0")
            reader = (1, "c1")

            def main():
                for i in range(4):
                    backend.put(cos, BUCKET, f"k/d/{i}", b"x" * (100 + i), site=producer)
                for i in range(4):
                    backend.get(cos, BUCKET, f"k/d/{i}", site=reader)
                return kernel.now()

            horizon = kernel.run(main)
            return horizon, backend.stats()

        assert one_run() == one_run()


class TestSiteGating:
    """The tier only engages for callers that pass an in-cloud site."""

    @pytest.mark.parametrize("name", ["cached-cos", "vm"])
    def test_client_side_put_leaves_tier_cold(self, name):
        kernel, _store, cos = make_world()
        backend = make_backend(name, kernel)

        def main():
            backend.put(cos, BUCKET, "k/wan", b"client-side")
            return backend.get(cos, BUCKET, "k/wan")

        assert kernel.run(main) == b"client-side"
        stats = backend.stats()
        assert stats["hits"] == 0
        if name == "vm":
            assert stats["puts"] == 0  # nothing reached the VM tier


class TestVmExchange:
    """VM-plane specifics: provisioning, ring, eviction, crash, billing."""

    def test_first_op_waits_for_provisioning(self):
        kernel, _store, cos = make_world()
        cfg = dataclasses.replace(VM_CFG, vm_startup_s=3.0)
        backend = make_backend("vm", kernel, vm_cfg=cfg)
        producer = (0, "c0")

        def main():
            backend.put(cos, BUCKET, "k/p", b"payload", site=producer)
            return kernel.now()

        assert kernel.run(main) >= 3.0
        assert backend.stats()["startup_waits"] >= 1

    def test_ring_ownership_is_stable(self):
        kernel, _store, _cos = make_world()
        backend = make_backend("vm", kernel)
        owners = [backend.ring.owner(f"k/{i}") for i in range(32)]
        assert owners == [backend.ring.owner(f"k/{i}") for i in range(32)]
        assert set(owners) <= set(range(VM_CFG.vm_nodes))
        assert len(set(owners)) > 1  # keys actually spread across nodes

    def test_lru_eviction_on_full_node(self):
        kernel, _store, cos = make_world()
        backend = make_backend("vm", kernel)
        producer = (0, "c0")

        def main():
            for i in range(8):
                backend.put(cos, BUCKET, f"k/e/{i}", bytes([i]) * (40 * 1024), site=producer)
            return [backend.get(cos, BUCKET, f"k/e/{i}", site=producer) for i in range(8)]

        blobs = kernel.run(main)
        assert blobs == [bytes([i]) * (40 * 1024) for i in range(8)]
        stats = backend.stats()
        assert stats["evictions"] >= 1
        assert stats["misses"] >= 1  # evicted entries re-read from COS
        per_node = backend.describe()["nodes"]
        assert all(
            node["used_bytes"] <= node["capacity_bytes"] for node in per_node
        )

    def test_oversize_object_never_cached(self):
        kernel, _store, cos = make_world()
        backend = make_backend("vm", kernel)
        producer = (0, "c0")
        big = b"z" * (VM_CFG.vm_node_memory_bytes + 1)

        def main():
            backend.put(cos, BUCKET, "k/huge", big, site=producer)
            return backend.get(cos, BUCKET, "k/huge", site=producer)

        assert kernel.run(main) == big
        assert backend.stats()["resident_bytes"] == 0

    def test_seeded_crash_drops_node_state(self):
        chaos = build_plane(
            ChaosProfile("vm-node-crash", seed=5, vm_crash_window_s=1.0)
        )
        kernel, _store, cos = make_world()
        cfg = dataclasses.replace(VM_CFG, vm_startup_s=0.0)
        backend = make_backend("vm", kernel, chaos=chaos, vm_cfg=cfg)
        producer = (0, "c0")
        crash_times = [n.crash_at for n in backend.nodes]
        assert all(t is not None and 0 < t <= 1.0 for t in crash_times)

        def main():
            for i in range(4):
                backend.put(cos, BUCKET, f"k/c/{i}", bytes([i]) * 512, site=producer)
            sleep(2.0)  # past every seeded crash
            return [backend.get(cos, BUCKET, f"k/c/{i}", site=producer) for i in range(4)]

        assert kernel.run(main) == [bytes([i]) * 512 for i in range(4)]
        assert chaos.fault_counts().get("vm:crash", 0) >= 1
        assert backend.stats()["misses"] >= 1

    def test_vm_seconds_and_billing(self):
        kernel, _store, _cos = make_world()
        backend = make_backend("vm", kernel)
        assert backend.vm_seconds(10.0) == VM_CFG.vm_nodes * 10.0
        bill = backend.billing(3600.0)
        assert bill["vm_nodes"] == VM_CFG.vm_nodes
        assert bill["vm_seconds"] == VM_CFG.vm_nodes * 3600.0
        from repro.core.cost import VM_NODE_PRICE_PER_HOUR

        assert bill["vm_cost_usd"] == pytest.approx(
            VM_CFG.vm_nodes * VM_NODE_PRICE_PER_HOUR, rel=1e-6
        )
