"""Every definition and every import in ``src/repro`` has a user.

A ``def`` or ``class`` whose name appears nowhere else — not in ``src/``
outside its own definition and the packages' re-exports, nor in
``tests/``, ``perf/``, ``benchmarks/``, ``examples/``, ``scripts/`` or
``docs/`` — is dead surface, and this test names it.  The match is by
name: a name counts as used wherever it appears as a word, so a method
shares its users with every same-named definition.

Each file set is scanned once into a ``Counter`` of ``\\w+`` tokens, so
the whole check is a dictionary lookup per definition.

An import is dead when its module never names what it binds: every name a
module under ``src/repro`` (packages' ``__init__`` re-exports aside) binds
by ``import`` must appear in that module's code as a name.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
USER_DIRS = ("tests", "perf", "benchmarks", "examples", "scripts", "docs")
USER_SUFFIXES = (".py", ".md")
TOKEN = re.compile(r"\w+")

#: names defined in ``src/repro`` that nothing names, each with the reason
#: it stays
ALLOWED_UNUSED = {
    "reducer_override": "pickle calls this hook on the serializer's Pickler subclass",
}

#: ``path:name`` imports that their module never names, each with the reason
#: it stays
ALLOWED_UNUSED_IMPORTS: dict[str, str] = {}


def _files(root: Path, suffixes: tuple[str, ...]) -> list[Path]:
    return sorted(
        path
        for path in root.rglob("*")
        if path.suffix in suffixes and "__pycache__" not in path.parts
    )


def _is_reexport(node: ast.stmt) -> bool:
    """An import, or the ``__all__`` list, at the top of a package."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets
    )


def _source_tokens(trees: dict[Path, ast.Module], texts: dict[Path, str]) -> Counter:
    tokens: Counter = Counter()
    for path, tree in trees.items():
        text = texts[path]
        if path.name != "__init__.py":
            tokens.update(TOKEN.findall(text))
            continue
        for node in tree.body:
            if not _is_reexport(node):
                tokens.update(TOKEN.findall(ast.get_source_segment(text, node) or ""))
    return tokens


def _definitions(trees: dict[Path, ast.Module]) -> list[tuple[str, str]]:
    found = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            found.append((node.name, f"{path.relative_to(REPO)}:{node.lineno}"))
    return found


def unused_definitions() -> dict[str, str]:
    """``{name: "path:line"}`` for every definition nothing names."""
    texts = {path: path.read_text(encoding="utf-8") for path in _files(SRC, (".py",))}
    trees = {path: ast.parse(text) for path, text in texts.items()}
    definitions = _definitions(trees)
    defined = Counter(name for name, _ in definitions)
    in_source = _source_tokens(trees, texts)
    in_users: Counter = Counter()
    this_file = Path(__file__).resolve()
    for directory in USER_DIRS:
        for path in _files(REPO / directory, USER_SUFFIXES):
            if path.resolve() != this_file:
                in_users.update(TOKEN.findall(path.read_text(encoding="utf-8")))
    return {
        name: where
        for name, where in definitions
        if in_source[name] <= defined[name] and not in_users[name]
    }


def test_every_definition_has_a_user():
    unused = {
        name: where
        for name, where in unused_definitions().items()
        if name not in ALLOWED_UNUSED
    }
    assert not unused, (
        "definitions nothing uses (delete them, or add them to "
        f"ALLOWED_UNUSED with a reason): {unused}"
    )


def test_allowlist_names_only_unused_definitions():
    stale = set(ALLOWED_UNUSED) - set(unused_definitions())
    assert not stale, f"ALLOWED_UNUSED entries that are used or gone: {stale}"


def unused_imports() -> list[str]:
    """``path:name`` for every import binding its module never names."""
    found = []
    for path in _files(SRC, (".py",)):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names if a.name != "*")
        named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.relative_to(REPO)}:{name}" for name in sorted(bound - named)]
    return found


def test_every_import_is_used():
    unused = [name for name in unused_imports() if name not in ALLOWED_UNUSED_IMPORTS]
    assert not unused, (
        "imports their module never uses (delete them, or add them to "
        f"ALLOWED_UNUSED_IMPORTS with a reason): {unused}"
    )
