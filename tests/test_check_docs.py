"""``tools/check_docs.py`` reads Markdown lines and Python docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"


def _check_docs():
    spec = importlib.util.spec_from_file_location("check_docs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_python_file_checks_docstrings_only(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text(
        '"""Module docstring: repro.graphs.graph.Graph resolves."""\n'
        "\n"
        "# A comment may name repro.no_such_module.\n"
        "X = 'or a string: tests/no_such_file.py'\n"
        "\n"
        "def f():\n"
        '    """One line,\n'
        "    then repro.graphs.graph.no_such_name.\n"
        '    """\n'
        "\n"
        "class C:\n"
        '    """Tested in tests/no_such_file.py."""\n'
    )
    assert _check_docs().check_file(src) == [
        f"{src}:8: 'repro.graphs.graph' has no attribute 'no_such_name'",
        f"{src}:12: path does not exist: tests/no_such_file.py",
    ]


def test_markdown_file_checks_every_line(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("# Title\n\nSee `repro.graphs.graph.no_such_name`.\n")
    assert _check_docs().check_file(doc) == [
        f"{doc}:3: 'repro.graphs.graph' has no attribute 'no_such_name'",
    ]
