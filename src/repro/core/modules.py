"""Runtime-compatibility checking for shipped functions.

A function serialized by value re-imports its modules *inside the runtime
container* (§3.1): if the user's code needs ``matplotlib`` but the selected
runtime image does not carry it, the real framework fails remotely with an
``ImportError`` after paying an invocation.  We fail fast on the client by
statically collecting the modules a function references and checking them
against the runtime image's package list — exactly the constraint that
motivates the paper's custom-runtime feature.
"""

from __future__ import annotations

import functools
import sys
import types
from typing import Any, Callable

from repro.core.errors import PyWrenError
from repro.faas.runtime import RuntimeImage

#: modules assumed present in every runner (the framework ships itself)
ALWAYS_AVAILABLE = {"repro"}

_STDLIB = set(getattr(sys, "stdlib_module_names", ()))


class RuntimePackageError(PyWrenError):
    """The function needs packages the selected runtime does not carry."""


def _code_names(code: types.CodeType, seen: set[int]) -> set[str]:
    if id(code) in seen:
        return set()
    seen.add(id(code))
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _code_names(const, seen)
    return names


def referenced_modules(fn: Callable[..., Any], _depth: int = 0) -> set[str]:
    """Top-level module names a function (transitively) references.

    Collected from (a) module objects in the function's captured globals
    and (b) global names that resolve to live modules in this process
    (covers ``import x`` statements inside the body).  A
    :func:`functools.partial` is seen through: its function and every
    function among its bound arguments count.  Heuristic by design:
    it can miss dynamic imports, and only ever *flags* names that really
    are importable modules here, so false positives are rare.
    """
    if isinstance(fn, functools.partial):
        parts = (fn.func, *fn.args, *fn.keywords.values())
        return set().union(*(referenced_modules(part, _depth) for part in parts))
    if not isinstance(fn, types.FunctionType) or _depth > 3:
        return set()
    seen_codes: set[int] = set()
    names = _code_names(fn.__code__, seen_codes)
    modules: set[str] = set()
    for name in names:
        value = fn.__globals__.get(name)
        if isinstance(value, types.ModuleType):
            modules.add(value.__name__.split(".")[0])
        elif isinstance(value, types.FunctionType) and value is not fn:
            modules |= referenced_modules(value, _depth + 1)
        elif value is None and name in sys.modules:
            # an `import name` inside the function body
            modules.add(name.split(".")[0])
    if fn.__closure__ is not None:
        for cell in fn.__closure__:
            try:
                content = cell.cell_contents
            except ValueError:
                continue
            if isinstance(content, types.ModuleType):
                modules.add(content.__name__.split(".")[0])
            elif isinstance(content, types.FunctionType) and content is not fn:
                modules |= referenced_modules(content, _depth + 1)
    return modules


def missing_packages(fn: Callable[..., Any], image: RuntimeImage) -> list[str]:
    """Modules ``fn`` needs that ``image`` does not provide."""
    missing = []
    for module in sorted(referenced_modules(fn)):
        if module in _STDLIB or module in ALWAYS_AVAILABLE:
            continue
        if module.startswith("_"):
            continue
        if not image.has_package(module):
            missing.append(module)
    return missing


def validate_runtime(fn: Callable[..., Any], image: RuntimeImage) -> None:
    """Raise :class:`RuntimePackageError` when ``fn`` cannot run on ``image``.

    The error message points at the fix the paper prescribes: build a
    custom runtime with the packages and share it via the registry.
    """
    missing = missing_packages(fn, image)
    if missing:
        name = getattr(getattr(fn, "func", fn), "__name__", fn)
        raise RuntimePackageError(
            f"function {name!r} needs packages "
            f"{missing} not present in runtime {image.name!r}; build a "
            "custom runtime with registry.build_custom_runtime(...) and "
            "pass runtime=<name> to the executor (see §3.1)"
        )
