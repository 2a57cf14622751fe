"""Every name a trinls module imports is used there.

No linter ships with the project, so this stands in for pyflakes' F401: an
imported name must be referenced in its module, listed in its `__all__`, or
sit on a line marked `# noqa: F401`.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "trinls"


def unused_imports(path):
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported, excused = set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.add(name)
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    excused.add(name)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            excused.update(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - excused)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path) == []


def test_guard_flags_an_unused_name(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os\nimport sys  # noqa: F401\n"
                    "from math import pi, tau\n__all__ = ['tau']\n")
    assert unused_imports(path) == ["os", "pi"]
