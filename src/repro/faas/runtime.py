"""Docker-style runtimes and the shared image registry (§3.1).

IBM Cloud Functions runs actions inside Docker images.  Users may publish
custom images (extra Python/system packages) to a hub-like registry and
share them; an invoker node pulls an image the first time it runs it and
caches it afterwards ("the Docker container is cached in an internal
registry").
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Optional

from repro.faas.errors import RuntimeNotFound

#: The default IBM Cloud Functions Python runtime (§3.1).
DEFAULT_RUNTIME_NAME = "python-jessie:3"

#: Packages preinstalled in the default runtime (representative subset of
#: the real image's package list referenced by the paper).
DEFAULT_RUNTIME_PACKAGES = frozenset(
    {
        "numpy",
        "scipy",
        "pandas",
        "scikit-learn",
        "requests",
        "beautifulsoup4",
        "ibm-cos-sdk",
        "redis",
        "elasticsearch",
        "cloudant",
    }
)


@dataclass(frozen=True)
class RuntimeImage:
    """An immutable runtime image published to the registry."""

    name: str
    owner: str = "ibm"
    python_version: str = "3.6"
    packages: frozenset[str] = DEFAULT_RUNTIME_PACKAGES
    size_mb: int = 450

    def with_packages(
        self, extra: Iterable[str], name: str, owner: str, size_mb: Optional[int] = None
    ) -> "RuntimeImage":
        """Derive a custom runtime adding ``extra`` packages (user workflow)."""
        pkgs = frozenset(self.packages) | frozenset(extra)
        return RuntimeImage(
            name=name,
            owner=owner,
            python_version=self.python_version,
            packages=pkgs,
            size_mb=size_mb if size_mb is not None else self.size_mb + 25 * len(set(extra) - set(self.packages)),
        )

    def has_package(self, package: str) -> bool:
        return package in self.packages


class RuntimeRegistry:
    """A Docker-hub-like registry of runtime images.

    Publishing is idempotent per (name) with last-write-wins, matching how
    tags behave on a real registry.  Images are public: any user can pull by
    name, which is precisely the sharing workflow §3.1 describes
    (a user builds ``matplotlib`` into an image and colleagues reuse it).
    """

    def __init__(self) -> None:
        self._images: dict[str, RuntimeImage] = {}
        self._lock = threading.Lock()
        self.publish(RuntimeImage(name=DEFAULT_RUNTIME_NAME))

    def publish(self, image: RuntimeImage) -> None:
        with self._lock:
            self._images[image.name] = image

    def get(self, name: str) -> RuntimeImage:
        with self._lock:
            try:
                return self._images[name]
            except KeyError:
                raise RuntimeNotFound(
                    f"runtime image {name!r} not in registry "
                    f"(available: {sorted(self._images)})"
                ) from None

    def exists(self, name: str) -> bool:
        with self._lock:
            return name in self._images

    def list_images(self) -> list[str]:
        with self._lock:
            return sorted(self._images)

    def build_custom_runtime(
        self,
        name: str,
        owner: str,
        extra_packages: Iterable[str],
        base: str = DEFAULT_RUNTIME_NAME,
        python_version: Optional[str] = None,
    ) -> RuntimeImage:
        """Build-and-push helper: derive from ``base`` and publish."""
        base_image = self.get(base)
        image = base_image.with_packages(extra_packages, name=name, owner=owner)
        if python_version is not None:
            image = RuntimeImage(
                name=image.name,
                owner=image.owner,
                python_version=python_version,
                packages=image.packages,
                size_mb=image.size_mb,
            )
        self.publish(image)
        return image
