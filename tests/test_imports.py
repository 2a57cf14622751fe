"""Every name a trinls module imports is used there, and every definition
is reached from the program.

No linter ships with the project, so this stands in for pyflakes' F401: an
imported name must be referenced in its module, listed in its `__all__`, or
sit on a line marked `# noqa: F401`.  The reachability guard keeps code that
only the tests call out of the library.
"""

import ast
import importlib.util
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


def rule_idiom_sites():
    """(modules importing `numbers`, f-strings holding `must be ..., got`) of
    src/trinls, one `module:line` entry per site."""
    imports, messages = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import) and any(
                    a.name == "numbers" for a in node.names) or (
                    isinstance(node, ast.ImportFrom) and node.module == "numbers"):
                imports.append(path.name)
            elif isinstance(node, ast.JoinedStr):
                text = "".join(v.value for v in node.values
                               if isinstance(v, ast.Constant))
                if "must be" in text and ", got" in text:
                    messages.append(f"{path.name}:{node.lineno}")
    return imports, messages


def test_one_home_for_argument_rules():
    """The rules' type tests (the one `numbers` import) and their message
    format live in spectral, beside `check_args`; every other module states
    its rules to `check_args`, so the format cannot drift per module."""
    imports, messages = rule_idiom_sites()
    assert imports == ["spectral.py"]
    assert len(messages) == 1 and messages[0].startswith("spectral.py:"), messages


def test_one_home_for_transforms():
    """Only spectral imports from scipy.fft; every other module calls its
    `fft`/`ifft`, which tests/test_spectral.py holds to scipy.fft's bits."""
    importers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(f"{name}.".startswith("scipy.fft.") for name in names):
                importers.add(path.name)
    assert importers == {"spectral.py"}


BENCH = SRC.parents[1] / "bench"


def src_bindings():
    """The top-level bindings of the trinls modules, keyed (module, name),
    each with whether it is a `def`/`class` and the names its statement
    reads; and each module's imports from its siblings, as local name ->
    (module, name there)."""
    bindings, imports = {}, {}
    for path in sorted(SRC.glob("*.py")):
        mod = "trinls" if path.stem == "__init__" else f"trinls.{path.stem}"
        imports[mod] = {}
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                src = "trinls" + (f".{node.module}" if node.module else "")
                for alias in node.names:
                    imports[mod][alias.asname or alias.name] = (src, alias.name)
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names, is_def = [node.name], True
            elif isinstance(node, ast.Assign):
                names = [n.id for t in node.targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
                node, is_def = node.value, False
            else:
                continue
            reads = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            for name in names:
                bindings[mod, name] = (is_def, reads)
    return bindings, imports


def bench_uses():
    """(module, name) of every trinls name that bench/*.py reads as an
    attribute of a trinls module or imports from one, plus the call
    boundaries bench/tracing.py wraps (its BOUNDARIES, loaded as a file)."""
    uses = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "trinls":
                        aliases[alias.asname or "trinls"] = (
                            alias.name if alias.asname else "trinls")
            elif isinstance(node, ast.ImportFrom) and (
                    node.module or "").split(".")[0] == "trinls":
                uses.update((node.module, a.name) for a in node.names)
        for node in ast.walk(tree):
            parts = []
            while isinstance(node, ast.Attribute):
                parts.insert(0, node.attr)
                node = node.value
            if parts and isinstance(node, ast.Name) and node.id in aliases:
                mod = ".".join([aliases[node.id]] + parts[:-1])
                uses.add((mod, parts[-1]))
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return uses | set(tracing.BOUNDARIES)


def test_every_definition_is_reached_from_cli_or_bench():
    """Each top-level `def`/`class` of src/trinls is reached from
    `cli.main` or from a name the benchmark uses, following the names each
    definition reads through the modules' imports.  Helpers that only the
    tests need belong in tests/oracles.py."""
    bindings, imports = src_bindings()

    def resolve(mod, name):
        while (mod, name) not in bindings and name in imports.get(mod, {}):
            mod, name = imports[mod][name]
        return (mod, name) if (mod, name) in bindings else None

    todo = [resolve(*use) for use in {("trinls.cli", "main")} | bench_uses()]
    reached = set()
    while todo:
        key = todo.pop()
        if key is None or key in reached:
            continue
        reached.add(key)
        todo.extend(resolve(key[0], name) for name in bindings[key][1])
    unreached = sorted(f"{mod}.{name}" for (mod, name), (is_def, _)
                       in bindings.items() if is_def and (mod, name) not in reached)
    assert not unreached, ("not reached from cli.main or the benchmark: "
                           + ", ".join(unreached))
