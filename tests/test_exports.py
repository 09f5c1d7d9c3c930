import ast
import importlib
import inspect
import typing
from pathlib import Path

import frobsig

SRC = Path(__file__).resolve().parents[1] / "src" / "frobsig"


def _unused_imports(source: str) -> list[str]:
    """Names ``source`` imports and never reads, skipping ``__future__``.

    A read is a Name node anywhere, annotations and TYPE_CHECKING blocks
    included, or a name inside a quoted annotation.
    """
    imported, used = {}, set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        note = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(note, ast.Constant) and isinstance(note.value, str):
            used.update(name.id for name in ast.walk(ast.parse(note.value, mode="eval"))
                        if isinstance(name, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_every_export_resolves_to_its_module():
    # the package imports each public name lazily, so a stale entry in its
    # table would fail only on first access
    assert len(frobsig.__all__) == len(set(frobsig.__all__))
    for module, names in frobsig._EXPORTS.items():
        home = importlib.import_module(f"frobsig.{module}")
        for name in names:
            value = getattr(frobsig, name)
            assert value is getattr(home, name), name
            assert value.__module__ == home.__name__, name
    assert sorted(frobsig.__all__) == sorted(
        name for names in frobsig._EXPORTS.values() for name in names
    )


def test_readme_python_example_prints_its_comments():
    # each expression line of the README's example shows, in its comment,
    # the str() of what it evaluates to
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python", 1)[1].split("```", 1)[0]
    scope = {}
    shown = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not code.strip():
            continue
        (node,) = ast.parse(code).body
        if isinstance(node, ast.Expr):
            shown.append((str(eval(code, scope)), comment.strip()))
        else:
            exec(code, scope)
    assert len(shown) >= 2
    for got, want in shown:
        assert got == want


def test_no_module_imports_a_name_it_never_uses():
    # each CLI call compiles and runs every import of the modules it loads
    found = {path.name: _unused_imports(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert len(found) >= 8
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _unused_imports("import os\nfrom typing import TYPE_CHECKING\n"
                           "if TYPE_CHECKING:\n    from x import A\n"
                           "def g(a: 'A') -> int:\n    return 1\n") == ["line 1: os"]


def test_every_annotation_resolves():
    # typing.get_type_hints evaluates each annotation in its module; a name
    # a module never imports raises NameError there
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"frobsig.{path.stem}")
        for value in vars(module).values():
            if getattr(value, "__module__", None) != module.__name__:
                continue
            found = [value]
            if inspect.isclass(value):
                found += [getattr(member, "fget", member) for member in vars(value).values()]
            for item in found:
                item = getattr(item, "__func__", item)
                if inspect.isfunction(item) or inspect.isclass(item):
                    typing.get_type_hints(item)
                    checked += 1
    assert checked > 100
