#!/usr/bin/env python3
"""Reference checker for the repository's docs and docstrings.

Docs rot when code moves; this tool fails CI the moment README.md,
ARCHITECTURE.md or a docstring in ``src/repro`` mentions something the
tree no longer has.  For each file given on the command line — a
Markdown file line by line, a ``.py`` file through its module, class
and function docstrings (read with :mod:`ast`) — it extracts

* **file paths** — any token ending in a known source extension
  (``.py``, ``.md``, ``.json``, ``.yml``, ``.ini``) — and requires the
  path to exist relative to the repository root;
* **dotted ``repro.*`` names** — modules, and functions/classes reached
  through them — and requires the name to import (the longest prefix
  is imported as a module, remaining segments are resolved with
  ``getattr``).

Usage::

    python tools/check_docs.py README.md ARCHITECTURE.md $(git ls-files 'src/repro/*.py')

Exit status 0 when every reference resolves, 1 otherwise (each failure
is printed as ``path:line: reference — reason``, the path relative to
the repository root).
"""

from __future__ import annotations

import ast
import importlib
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT))  # for `tests.*` / `benchmarks.*` mentions

#: Tokens ending in one of these are treated as repository file paths.
_PATH_RE = re.compile(
    r"\.?[A-Za-z0-9_][A-Za-z0-9_./-]*\.(?:py|md|json|yml|ini)\b"
)
#: Dotted names rooted at the package.
_MODULE_RE = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")
#: Inline placeholders that are obviously not real paths.
_SKIP_SUBSTRINGS = ("http://", "https://", "<", ">")


def _check_path(token: str) -> str | None:
    """Return an error string if ``token`` is not a real repo path."""
    if (REPO_ROOT / token).exists():
        return None
    return f"path does not exist: {token}"


def _check_dotted(token: str) -> str | None:
    """Return an error string if ``token`` does not import/resolve."""
    parts = token.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return f"{module_name!r} has no attribute {attr!r}"
            obj = getattr(obj, attr)
        return None
    return f"module {token!r} does not import"


def _doc_lines(path: pathlib.Path) -> list[tuple[int, str]]:
    """``(line number, text)`` of every line the checker reads.

    All lines of a Markdown file; the docstring lines of a ``.py`` file.
    """
    text = path.read_text()
    if path.suffix != ".py":
        return list(enumerate(text.splitlines(), start=1))
    lines: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(text, filename=str(path))):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:  # it starts on its opening quotes' line
                lines.extend(
                    enumerate(doc.splitlines(), start=node.body[0].lineno)
                )
    return sorted(lines)


def check_file(path: pathlib.Path) -> list[str]:
    """All unresolved references in one Markdown or Python file."""
    name = (
        path.relative_to(REPO_ROOT).as_posix()
        if path.is_relative_to(REPO_ROOT) else str(path)
    )
    errors: list[str] = []
    for lineno, line in _doc_lines(path):
        if any(s in line for s in _SKIP_SUBSTRINGS):
            continue
        seen: set[str] = set()
        for m in _PATH_RE.finditer(line):
            token = m.group(0)
            if token.startswith("./"):
                token = token[2:]
            if token in seen:
                continue
            seen.add(token)
            err = _check_path(token)
            if err:
                errors.append(f"{name}:{lineno}: {err}")
        for m in _MODULE_RE.finditer(line):
            token = m.group(0).rstrip(".")
            if token in seen:
                continue
            seen.add(token)
            err = _check_dotted(token)
            if err:
                errors.append(f"{name}:{lineno}: {err}")
    return errors


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_docs.py FILE [FILE ...]", file=sys.stderr)
        return 2
    errors: list[str] = []
    for name in argv:
        path = (REPO_ROOT / name).resolve()
        if not path.exists():
            errors.append(f"{name}: file not found")
            continue
        errors.extend(check_file(path))
    if errors:
        print(f"{len(errors)} stale doc reference(s):", file=sys.stderr)
        for err in errors:
            print(f"  {err}", file=sys.stderr)
        return 1
    print(f"docs ok: {len(argv)} file(s), all references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
