"""Unit tests for client configuration."""

from __future__ import annotations

import dataclasses

import pytest

from repro.config import ExchangeConfig, InvokerMode, MonitoringTransport, PyWrenConfig


class TestDefaults:
    def test_defaults_valid(self):
        PyWrenConfig().validate()

    def test_paper_aligned_defaults(self):
        config = PyWrenConfig()
        assert config.runtime == "python-jessie:3"
        assert config.runtime_timeout_s == 600.0
        assert config.invoker_mode == InvokerMode.LOCAL
        assert config.massive_group_size == 100  # §5.1's groups of 100
        assert config.chunk_size is None  # object-granularity by default


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"invoker_mode": "bogus"},
            {"invoker_pool_size": 0},
            {"massive_group_size": 0},
            {"remote_invoker_pool_size": -1},
            {"poll_interval": 0},
            {"chunk_size": 0},
            {"chunk_size": -10},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PyWrenConfig(**kwargs).validate()

    def test_all_invoker_modes_accepted(self):
        for mode in InvokerMode.ALL:
            PyWrenConfig(invoker_mode=mode).validate()


    @pytest.mark.parametrize("constants", [InvokerMode, MonitoringTransport])
    def test_mode_names_are_plain_constants(self, constants):
        assert not dataclasses.is_dataclass(constants)
        assert all(isinstance(name, str) for name in constants.ALL)


class TestExchangeConfig:
    def test_default_is_direct_cos(self):
        config = PyWrenConfig()
        assert config.exchange.backend == "cos"
        config.validate()

    def test_all_backends_accepted(self):
        for backend in ExchangeConfig.BACKENDS:
            PyWrenConfig(exchange=ExchangeConfig(backend=backend)).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"backend": "redis"},
            {"vm_nodes": 0},
            {"vm_node_memory_bytes": -1},
            {"vm_startup_s": -0.5},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PyWrenConfig(exchange=ExchangeConfig(**kwargs)).validate()

    def test_from_dict_nested_section(self):
        config = PyWrenConfig.from_dict(
            {"exchange": {"backend": "vm", "vm_nodes": 5, "vm_startup_s": 2.0}}
        )
        assert isinstance(config.exchange, ExchangeConfig)
        assert config.exchange.backend == "vm"
        assert config.exchange.vm_nodes == 5
        assert config.exchange.vm_startup_s == 2.0

    def test_from_dict_unknown_exchange_key_rejected(self):
        with pytest.raises(ValueError, match="exchange"):
            PyWrenConfig.from_dict({"exchange": {"nodez": 3}})

    @pytest.mark.parametrize(
        "key",
        [
            "cache_hit_latency_s",
            "cache_memory_bandwidth_bps",
            "cache_peer_bandwidth_bps",
            "vm_hit_latency_s",
            "vm_bandwidth_bps",
            "vm_ring_vnodes",
        ],
    )
    def test_model_constants_are_not_config_keys(self, key):
        """Memory-tier and store-VM costs are constants of the exchange
        modules, not settable values."""
        with pytest.raises(ValueError, match="exchange"):
            PyWrenConfig.from_dict({"exchange": {key: 1}})

    def test_roundtrips_through_dict(self):
        config = PyWrenConfig(exchange=ExchangeConfig(backend="cached-cos"))
        again = PyWrenConfig.from_dict(config.to_dict())
        assert again.exchange == config.exchange

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cache_node_budget_bytes": -1},
        ],
    )
    def test_invalid_cache_knobs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            PyWrenConfig(exchange=ExchangeConfig(**kwargs)).validate()

    def test_no_second_cache_section(self):
        """The memory tier is selected by ``exchange.backend`` alone."""
        with pytest.raises(
            ValueError, match=r"unknown config keys: \['cache'\] \(known: \["
        ):
            PyWrenConfig.from_dict({"cache": {"enabled": True}})


class TestExchangeSelector:
    """``create(exchange=<name>)`` picks the backend, keeps the tuning."""

    def test_backend_name_keeps_vm_knobs(self):
        from repro.core.environment import CloudEnvironment

        config = PyWrenConfig(
            exchange=ExchangeConfig(vm_nodes=5, vm_startup_s=2.0)
        )
        env = CloudEnvironment.create(config=config, exchange="vm")
        assert env.config.exchange.backend == "vm"
        assert env.config.exchange.vm_nodes == 5
        nodes = env.exchange.describe()["nodes"]
        assert [node["ready_at_s"] for node in nodes] == [2.0] * 5

    def test_backend_name_keeps_cache_knobs(self):
        from repro.core.environment import CloudEnvironment

        config = PyWrenConfig(
            exchange=ExchangeConfig(cache_node_budget_bytes=4096)
        )
        env = CloudEnvironment.create(config=config, exchange="cached-cos")
        assert env.config.exchange.backend == "cached-cos"
        capacities = {
            node["capacity_bytes"] for node in env.exchange.describe()["nodes"]
        }
        assert capacities == {4096}

    def test_config_section_alone_selects(self):
        from repro.core.environment import CloudEnvironment

        config = PyWrenConfig(exchange=ExchangeConfig(backend="cached-cos"))
        assert CloudEnvironment.create(config=config).exchange.name == "cached-cos"
        assert CloudEnvironment.create().exchange.name == "cos"


class TestOverrides:
    def test_with_overrides_copies(self):
        base = PyWrenConfig()
        derived = base.with_overrides(runtime="custom:1", poll_interval=0.1)
        assert derived.runtime == "custom:1"
        assert derived.poll_interval == 0.1
        assert base.runtime == "python-jessie:3"  # original untouched

    def test_with_overrides_validates(self):
        with pytest.raises(ValueError):
            PyWrenConfig().with_overrides(invoker_mode="nope")

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            PyWrenConfig().with_overrides(not_a_field=1)
