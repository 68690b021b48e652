"""Tests for runtime package validation (§3.1's constraint)."""

from __future__ import annotations

import functools
import math

import pytest

import repro as pw
from repro.core.modules import (
    RuntimePackageError,
    missing_packages,
    referenced_modules,
    validate_runtime,
)
from repro.faas.runtime import RuntimeImage, RuntimeRegistry


def stripped_image() -> RuntimeImage:
    return RuntimeImage(name="bare:1", packages=frozenset())


class TestReferencedModules:
    def test_global_module_alias(self):
        import numpy as np

        def fn(x):
            return np.asarray(x)

        assert "numpy" in referenced_modules(fn)

    def test_stdlib_module(self):
        def fn(x):
            return math.sqrt(x)

        assert "math" in referenced_modules(fn)

    def test_inline_import(self):
        def fn(_):
            import numpy

            return numpy.zeros(1)

        assert "numpy" in referenced_modules(fn)

    def test_no_modules(self):
        def fn(x):
            return x + 1

        mods = referenced_modules(fn)
        assert "numpy" not in mods

    def test_transitive_through_helper(self):
        import numpy as np

        def helper(x):
            return np.sum(x)

        def fn(x):
            return helper(x)

        assert "numpy" in referenced_modules(fn)

    def test_partial_is_seen_through(self):
        import numpy as np

        def uses_numpy(x):
            return np.asarray(x)

        def apply(fn, x, scale=1):
            return fn(x) * scale

        assert "numpy" in referenced_modules(functools.partial(uses_numpy, 1))
        assert "numpy" in referenced_modules(functools.partial(apply, uses_numpy))
        assert "numpy" in referenced_modules(functools.partial(apply, fn=uses_numpy))
        assert "numpy" not in referenced_modules(functools.partial(apply, len, scale=2))

    def test_closure_over_module(self):
        import numpy

        mod = numpy

        def fn(x):
            return mod.ones(x)

        assert "numpy" in referenced_modules(fn)


class TestValidation:
    def test_stdlib_always_allowed(self):
        def fn(x):
            return math.floor(x)

        validate_runtime(fn, stripped_image())  # no raise

    def test_repro_always_allowed(self):
        def fn(_):
            import repro

            return repro.now()

        validate_runtime(fn, stripped_image())

    def test_missing_package_flagged(self):
        import numpy as np

        def fn(x):
            return np.asarray(x)

        assert missing_packages(fn, stripped_image()) == ["numpy"]
        with pytest.raises(RuntimePackageError, match="numpy"):
            validate_runtime(fn, stripped_image())

    def test_default_runtime_carries_numpy(self):
        import numpy as np

        registry = RuntimeRegistry()

        def fn(x):
            return np.asarray(x)

        validate_runtime(fn, registry.get("python-jessie:3"))

    def test_error_suggests_custom_runtime(self):
        import numpy as np

        def fn(x):
            return np.asarray(x)

        with pytest.raises(RuntimePackageError, match="build_custom_runtime"):
            validate_runtime(fn, stripped_image())


class TestExecutorIntegration:
    def test_submit_fails_fast_on_missing_package(self, env):
        env.registry.publish(stripped_image())
        import numpy as np

        def main():
            executor = pw.ibm_cf_executor(runtime="bare:1")
            with pytest.raises(RuntimePackageError):
                executor.map(lambda x: np.asarray(x), [1])
            return True

        assert env.run(main)

    @pytest.mark.parametrize("side", ["map", "reduce"])
    def test_shuffle_fails_fast_on_missing_package(self, env, side):
        """The shuffle's shims are bound to the user's functions; checking
        a shim checks the functions it carries."""
        env.registry.publish(stripped_image())
        import numpy as np

        def emit(x):
            return [(x, 1)]

        def emit_numpy(x):
            return [(x, int(np.sum(x)))]

        def count(key, values):
            return sum(values)

        def count_numpy(key, values):
            return int(np.sum(values))

        def main():
            executor = pw.ibm_cf_executor(runtime="bare:1")
            with pytest.raises(RuntimePackageError, match="numpy"):
                executor.map_reduce_shuffle(
                    emit_numpy if side == "map" else emit,
                    [1, 2],
                    count_numpy if side == "reduce" else count,
                    n_reducers=2,
                )
            return True

        assert env.run(main)

    def test_custom_runtime_with_package_accepted(self, env):
        import numpy as np

        env.registry.publish(
            RuntimeImage(name="sci:1", packages=frozenset({"numpy"}))
        )

        def main():
            executor = pw.ibm_cf_executor(runtime="sci:1")
            future = executor.call_async(lambda x: float(np.sum(x)), [1, 2, 3])
            return future.result()

        assert env.run(main) == 6.0

    def test_validation_can_be_disabled(self, env):
        env.registry.publish(stripped_image())
        import numpy as np

        def main():
            executor = pw.ibm_cf_executor(
                runtime="bare:1", validate_runtime_packages=False
            )
            # client-side check skipped; in-process execution still works
            future = executor.call_async(lambda x: float(np.sum(x)), [1, 2])
            return future.result()

        assert env.run(main) == 3.0
