"""Function and data serialization.

IBM-PyWren ships the user's code to the cloud by value: the client pickles
the function (plus whatever it references) into COS, and the runner action
rebuilds it inside the container.  The standard library pickle refuses
lambdas, nested functions and ``__main__`` functions, so we implement the
relevant subset of cloudpickle ourselves:

* importable functions are pickled by reference (cheap, like real modules
  preinstalled in the runtime);
* everything else is pickled by value — marshalled code object, captured
  globals (only the names the code actually references), closure cells,
  defaults — with self-references broken via late binding;
* modules referenced from captured globals are stored by name and
  re-imported at load time (they must exist in the runtime image, exactly
  the constraint the paper's custom-runtime feature addresses).
"""

from __future__ import annotations

import importlib
import io
import marshal
import pickle
import sys
import types
from typing import Any

__all__ = [
    "SerializationError",
    "serialize",
    "deserialize",
    "is_importable_function",
]


class SerializationError(Exception):
    """The object graph could not be serialized for shipping to the cloud."""


def is_importable_function(fn: types.FunctionType) -> bool:
    """True if ``fn`` can be recovered with ``from module import qualname``.

    Functions from ``__main__`` are treated as non-importable so that user
    scripts exercise the by-value path, matching cloudpickle's policy.
    """
    module_name = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", "")
    if not module_name or module_name == "__main__" or "<locals>" in qualname:
        return False
    module = sys.modules.get(module_name)
    if module is None:
        return False
    obj: Any = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return obj is fn


def _global_names(code: types.CodeType) -> set[str]:
    """All global names referenced by ``code``, including nested code."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


def _import_module(name: str) -> types.ModuleType:
    return importlib.import_module(name)


def _rebuild_function(
    code_bytes: bytes,
    name: str,
    qualname: str,
    defaults: Any,
    kwdefaults: Any,
    closure_values: Any,
    globals_map: dict[str, Any],
    self_names: tuple[str, ...],
    fn_dict: dict[str, Any],
) -> types.FunctionType:
    """Inverse of the by-value reduction in :class:`_Pickler`."""
    code = marshal.loads(code_bytes)
    fn_globals: dict[str, Any] = {"__builtins__": __builtins__}
    fn_globals.update(globals_map)
    closure = None
    if closure_values is not None:
        closure = tuple(types.CellType(v) for v in closure_values)
    fn = types.FunctionType(code, fn_globals, name, defaults, closure)
    fn.__qualname__ = qualname
    fn.__kwdefaults__ = kwdefaults
    if fn_dict:
        fn.__dict__.update(fn_dict)
    for self_name in self_names:
        fn_globals[self_name] = fn
    return fn


class _Pickler(pickle.Pickler):
    """Pickler that serializes non-importable functions by value."""

    def reducer_override(self, obj: Any):  # noqa: ANN401 - pickle protocol
        if isinstance(obj, types.ModuleType):
            return (_import_module, (obj.__name__,))
        if isinstance(obj, types.FunctionType):
            if is_importable_function(obj):
                return NotImplemented  # default by-reference pickling
            return self._reduce_function(obj)
        return NotImplemented

    def _reduce_function(self, fn: types.FunctionType):
        try:
            code_bytes = marshal.dumps(fn.__code__)
        except ValueError as exc:  # pragma: no cover - exotic code objects
            raise SerializationError(f"cannot marshal code of {fn!r}: {exc}")
        wanted = _global_names(fn.__code__)
        globals_map: dict[str, Any] = {}
        self_names: list[str] = []
        for name in wanted:
            if name not in fn.__globals__:
                continue  # builtin or genuinely missing; resolved at runtime
            value = fn.__globals__[name]
            if value is fn:
                # Recursive global function: bind lazily after rebuild to
                # avoid a pickle cycle through the globals dict.
                self_names.append(name)
            else:
                globals_map[name] = value
        closure_values = None
        if fn.__closure__ is not None:
            values = []
            for cell in fn.__closure__:
                try:
                    values.append(cell.cell_contents)
                except ValueError:
                    raise SerializationError(
                        f"function {fn.__qualname__!r} has an empty closure "
                        "cell (still being defined?)"
                    ) from None
            closure_values = tuple(values)
        return (
            _rebuild_function,
            (
                code_bytes,
                fn.__name__,
                fn.__qualname__,
                fn.__defaults__,
                fn.__kwdefaults__,
                closure_values,
                globals_map,
                tuple(self_names),
                dict(fn.__dict__),
            ),
        )


def serialize(obj: Any) -> bytes:
    """Serialize an arbitrary object graph (functions included) to bytes."""
    buffer = io.BytesIO()
    try:
        _Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    except SerializationError:
        raise
    except RecursionError as exc:
        raise SerializationError(
            "object graph too deeply recursive (mutually recursive "
            "non-importable functions are not supported)"
        ) from exc
    except Exception as exc:  # noqa: BLE001 - normalize pickle errors
        raise SerializationError(f"cannot serialize {type(obj).__name__}: {exc}") from exc
    return buffer.getvalue()


def deserialize(blob: bytes) -> Any:
    """Inverse of :func:`serialize`."""
    return pickle.loads(blob)
