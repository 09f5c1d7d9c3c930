import ast
import importlib
from pathlib import Path

import frobsig


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
