#!/usr/bin/env python3
"""Documentation guards, run by the CI docs job and `make docs-check`.

Six checks, all offline:

1. **Link check** — every relative markdown link in README.md and
   docs/*.md must resolve to a file (or directory) in the repository.
   External (http/https/mailto) and intra-page (#anchor) links are left
   alone; anchors on relative links are checked against the target file's
   headings.
2. **API coverage** — every public symbol in ``repro.__all__`` (parsed
   statically from ``src/repro/__init__.py``, no import needed) must be
   mentioned in docs/API.md.  New exports therefore fail CI until they
   are documented.
3. **Example coverage** — every ``examples/*.py`` must be referenced by
   name from at least one doc (README.md or docs/*.md).  New examples
   therefore fail CI until a doc says what they demonstrate.
4. **Claim tests** — every row of docs/REPRODUCING.md's "Beyond the
   paper" table names its test as ``path::name``, and every such id in
   that doc resolves statically: the file exists and each ``::`` part is
   a ``def`` or ``class`` nested in the one before it (a ``[param]``
   suffix is ignored).  A claim whose test is renamed or deleted
   therefore fails CI until the doc says so.
5. **Knob surface** — the names in the first column of docs/API.md's
   ``PyWrenConfig`` table (split on ``/``) must be exactly
   ``PyWrenConfig``'s fields, and the keywords of its
   ``CloudEnvironment.create(`` snippet exactly that method's parameters
   (both parsed statically from ``src/repro``).  A knob added or deleted
   in code therefore fails CI until the reference says so.
6. **Journal record kinds** — the backticked ``kind.name`` record kinds
   in docs/ARCHITECTURE.md §11's "The log." paragraph must be exactly the
   kinds ``repro.events.records`` defines (its module-level string
   constants, parsed statically).  A kind added to or deleted from the
   journal therefore fails CI until the architecture says so.

Exits non-zero listing every violation.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
API_DOC = REPO / "docs" / "API.md"
ARCHITECTURE_DOC = REPO / "docs" / "ARCHITECTURE.md"
REPRODUCING_DOC = REPO / "docs" / "REPRODUCING.md"
CLAIMS_HEADING = "## Beyond the paper"
RECORDS_SRC = REPO / "src" / "repro" / "events" / "records.py"
PACKAGE_INIT = REPO / "src" / "repro" / "__init__.py"
CONFIG_SRC = REPO / "src" / "repro" / "config.py"
ENVIRONMENT_SRC = REPO / "src" / "repro" / "core" / "environment.py"
CONFIG_HEADING = "## Configuration (`pw.PyWrenConfig`)"
CREATE_CALL = "CloudEnvironment.create("
JOURNAL_HEADING = "## 11. Event journal & resume"
LOG_PARAGRAPH = "**The log.**"

# [text](target) — but not images' inner parens and not reference defs
LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
# `tests/x/test_y.py::TestZ::test_w[param]`
TEST_ID_RE = re.compile(r"`([\w/.-]+\.py(?:::\w+)+)(?:\[[^\]`]*\])?`")


def github_anchor(heading: str) -> str:
    """GitHub's heading → anchor slug (close enough for our headings)."""
    slug = heading.strip().lower()
    slug = re.sub(r"[`*_~]", "", slug)
    slug = re.sub(r"[^\w\- ]", "", slug)
    return slug.replace(" ", "-")


def check_links() -> list[str]:
    errors = []
    for doc in DOC_FILES:
        text = doc.read_text(encoding="utf-8")
        rel = doc.relative_to(REPO)
        for match in LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):
                anchors = {github_anchor(h) for h in HEADING_RE.findall(text)}
                if target[1:] not in anchors:
                    errors.append(f"{rel}: dead anchor {target!r}")
                continue
            path_part, _, fragment = target.partition("#")
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(f"{rel}: dead link {target!r}")
                continue
            if fragment and resolved.suffix == ".md":
                other = resolved.read_text(encoding="utf-8")
                anchors = {github_anchor(h) for h in HEADING_RE.findall(other)}
                if fragment not in anchors:
                    errors.append(f"{rel}: dead anchor in link {target!r}")
    return errors


def public_symbols() -> list[str]:
    tree = ast.parse(PACKAGE_INIT.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    return [ast.literal_eval(elt) for elt in node.value.elts]
    raise SystemExit(f"could not find __all__ in {PACKAGE_INIT}")


def check_api_coverage() -> list[str]:
    text = API_DOC.read_text(encoding="utf-8")
    rel = API_DOC.relative_to(REPO)
    errors = []
    for symbol in public_symbols():
        if not re.search(rf"(?<!\w){re.escape(symbol)}(?!\w)", text):
            errors.append(f"{rel}: public symbol {symbol!r} is undocumented")
    return errors


def check_example_references() -> list[str]:
    corpus = "\n".join(
        doc.read_text(encoding="utf-8") for doc in DOC_FILES
    )
    return [
        f"examples/{example.name}: not referenced from any doc"
        for example in sorted((REPO / "examples").glob("*.py"))
        if example.name not in corpus
    ]


def resolves(test_id: str) -> bool:
    """True if ``path::name[::name]`` names a def or class in that file."""
    path, *names = test_id.split("::")
    if not (REPO / path).is_file():
        return False
    body = ast.parse((REPO / path).read_text(encoding="utf-8")).body
    for name in names:
        defs = (node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
        body = next((node.body for node in defs if node.name == name), None)
        if body is None:
            return False
    return True


def check_claim_tests() -> list[str]:
    text = REPRODUCING_DOC.read_text(encoding="utf-8")
    rel = REPRODUCING_DOC.relative_to(REPO)
    _, _, section = text.partition(CLAIMS_HEADING)
    lines = [line for line in section.split("\n## ", 1)[0].splitlines() if line.startswith("|")]
    rows = [  # neither a separator nor the header row above one
        line for line, after in zip(lines, lines[1:] + [""])
        if not line.startswith("|---") and not after.startswith("|---")
    ]
    errors = [
        f"{rel}: claim row names no test id: {row[:60]!r}"
        for row in rows if not TEST_ID_RE.search(row)
    ]
    return errors + [
        f"{rel}: test id {test_id!r} does not resolve"
        for test_id in sorted(set(TEST_ID_RE.findall(text)))
        if not resolves(test_id)
    ]


def _class_def(path: Path, name: str) -> ast.ClassDef:
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    raise SystemExit(f"could not find class {name} in {path}")


def config_fields() -> set[str]:
    """``PyWrenConfig``'s dataclass fields: its annotated class attributes."""
    return {
        stmt.target.id
        for stmt in _class_def(CONFIG_SRC, "PyWrenConfig").body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def create_parameters() -> set[str]:
    for stmt in _class_def(ENVIRONMENT_SRC, "CloudEnvironment").body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "create":
            args = stmt.args
            names = [a.arg for a in args.args + args.kwonlyargs]
            return set(names[1:])  # drop ``cls``
    raise SystemExit(f"could not find CloudEnvironment.create in {ENVIRONMENT_SRC}")


def documented_config_fields(text: str) -> set[str]:
    """First-column names of the table under the configuration heading."""
    _, _, section = text.partition(CONFIG_HEADING)
    names: set[str] = set()
    for line in section.splitlines():
        if line.startswith("## "):
            break
        if not line.startswith("|"):
            continue
        first = line.split("|")[1]
        for part in first.split("/"):
            match = re.fullmatch(r"`(\w+)`", part.strip())
            if match:  # the header row's plain "field" is not a name
                names.add(match.group(1))
    return names


def documented_create_keywords(text: str) -> set[str]:
    """Keywords of the first ``CloudEnvironment.create(`` snippet, one per line."""
    start = text.find(CREATE_CALL)
    if start < 0:
        return set()
    names: set[str] = set()
    for line in text[start + len(CREATE_CALL):].splitlines()[1:]:
        if line.strip().startswith(")"):
            break
        match = re.match(r"\s*(\w+)=", line)
        if match:
            names.add(match.group(1))
    return names


def check_knob_surface() -> list[str]:
    text = API_DOC.read_text(encoding="utf-8")
    rel = API_DOC.relative_to(REPO)
    errors = []
    for what, documented, actual in (
        ("PyWrenConfig table", documented_config_fields(text), config_fields()),
        (f"{CREATE_CALL} snippet", documented_create_keywords(text),
         create_parameters()),
    ):
        for name in sorted(actual - documented):
            errors.append(f"{rel}: {what} lacks {name!r}")
        for name in sorted(documented - actual):
            errors.append(f"{rel}: {what} names {name!r}, which the code lacks")
    return errors


def record_kinds() -> set[str]:
    """The kinds ``repro.events.records`` defines: ``NAME = "kind"`` lines."""
    tree = ast.parse(RECORDS_SRC.read_text(encoding="utf-8"))
    return {
        stmt.value.value
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and isinstance(stmt.value, ast.Constant)
        and isinstance(stmt.value.value, str)
        and all(isinstance(t, ast.Name) and t.id.isupper() for t in stmt.targets)
    }


def documented_record_kinds(text: str) -> set[str]:
    """Backticked ``kind.name`` words of §11's "The log." paragraph."""
    _, _, section = text.partition(JOURNAL_HEADING)
    _, _, paragraph = section.partition(LOG_PARAGRAPH)
    return set(re.findall(r"`([a-z]+\.[a-z]+)`", paragraph.split("\n\n", 1)[0]))


def check_record_kinds() -> list[str]:
    documented = documented_record_kinds(
        ARCHITECTURE_DOC.read_text(encoding="utf-8")
    )
    actual = record_kinds()
    rel = ARCHITECTURE_DOC.relative_to(REPO)
    return [
        f"{rel}: §11 lacks journal record kind {kind!r}"
        for kind in sorted(actual - documented)
    ] + [
        f"{rel}: §11 names record kind {kind!r}, which repro.events.records lacks"
        for kind in sorted(documented - actual)
    ]


def main() -> int:
    errors = (
        check_links()
        + check_api_coverage()
        + check_example_references()
        + check_claim_tests()
        + check_knob_surface()
        + check_record_kinds()
    )
    for error in errors:
        print(f"FAIL {error}")
    checked = ", ".join(str(d.relative_to(REPO)) for d in DOC_FILES)
    if errors:
        print(f"{len(errors)} documentation problem(s) in: {checked}")
        return 1
    print(
        "docs OK: links + API + example + claim-test + knob + record-kind "
        "coverage over "
        f"{checked}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
