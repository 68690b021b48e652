"""``repro.exchange`` — pluggable backends for intermediate-data exchange.

Selected by :attr:`~repro.config.ExchangeConfig.backend` (see
ARCHITECTURE.md "Exchange backends"):

* ``"cos"`` — :class:`CosExchange`, the paper's direct COS path (default);
* ``"cached-cos"`` — :class:`CachedCosExchange`, the write-through
  memory tier over the invoker nodes' caches;
* ``"vm"`` — :class:`VmExchange`, a provisioned ephemeral-store cluster.
"""

from __future__ import annotations

from typing import Any

from repro.exchange.base import ExchangeBackend
from repro.exchange.cached import CachedCosExchange
from repro.exchange.cos import CosExchange
from repro.exchange.vm import VmExchange

__all__ = [
    "ExchangeBackend",
    "CosExchange",
    "CachedCosExchange",
    "VmExchange",
    "build_exchange",
]


def build_exchange(
    config: Any,
    n_nodes: int,
    kernel: Any = None,
    tracer: Any = None,
    chaos: Any = None,
) -> ExchangeBackend:
    """Build the environment's backend from its :class:`ExchangeConfig`."""
    if config.backend == "cos":
        return CosExchange()
    if config.backend == "cached-cos":
        return CachedCosExchange(config, n_nodes, kernel=kernel, tracer=tracer)
    if config.backend == "vm":
        return VmExchange(config, kernel=kernel, tracer=tracer, chaos=chaos)
    raise ValueError(f"unknown exchange backend {config.backend!r}")
