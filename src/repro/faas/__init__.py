"""Emulated IBM Cloud Functions (Apache OpenWhisk-like FaaS platform)."""

from repro.faas.action import Action, Namespace
from repro.faas.activation import ActivationRecord, ActivationStatus
from repro.faas.billing import (
    PRICE_PER_GB_SECOND,
    BillingEntry,
    BillingMeter,
    billed_duration,
)
from repro.faas.container import Container
from repro.faas.controller import CloudFunctions, ExecutionContext
from repro.faas.dispatch import FairDispatchQueue
from repro.faas.errors import (
    ActionNotFound,
    ActivationNotFound,
    FaaSError,
    NamespaceNotFound,
    RuntimeNotFound,
    ThrottledError,
)
from repro.faas.gateway import CloudFunctionsClient
from repro.faas.iam import (
    IAM,
    ApiKey,
    AuthenticationError,
    AuthorizationError,
)
from repro.faas.invoker_node import InvokerNode
from repro.faas.limits import SystemLimits
from repro.faas.runtime import (
    DEFAULT_RUNTIME_NAME,
    RuntimeImage,
    RuntimeRegistry,
)
from repro.faas.tenants import TenantNotFound, TenantRegistry

__all__ = [
    "Action",
    "Namespace",
    "ActivationRecord",
    "ActivationStatus",
    "Container",
    "CloudFunctions",
    "CloudFunctionsClient",
    "ExecutionContext",
    "InvokerNode",
    "SystemLimits",
    "RuntimeImage",
    "RuntimeRegistry",
    "DEFAULT_RUNTIME_NAME",
    "FaaSError",
    "ActionNotFound",
    "NamespaceNotFound",
    "ActivationNotFound",
    "RuntimeNotFound",
    "ThrottledError",
    "BillingMeter",
    "BillingEntry",
    "billed_duration",
    "PRICE_PER_GB_SECOND",
    "IAM",
    "ApiKey",
    "AuthenticationError",
    "AuthorizationError",
    "FairDispatchQueue",
    "TenantRegistry",
    "TenantNotFound",
]
