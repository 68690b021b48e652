"""Emulated IBM Cloud Object Storage (COS)."""

from repro.cos.bucket import Bucket
from repro.cos.client import COSClient, ObjectSummary
from repro.cos.errors import (
    BucketAlreadyExists,
    InvalidRange,
    NoSuchBucket,
    NoSuchKey,
    PreconditionFailed,
    ServiceUnavailable,
    SlowDown,
    StorageError,
)
from repro.cos.obj import StoredObject
from repro.cos.object_store import CloudObjectStorage

__all__ = [
    "Bucket",
    "COSClient",
    "ObjectSummary",
    "StoredObject",
    "CloudObjectStorage",
    "StorageError",
    "NoSuchBucket",
    "NoSuchKey",
    "BucketAlreadyExists",
    "InvalidRange",
    "ServiceUnavailable",
    "SlowDown",
    "PreconditionFailed",
]
