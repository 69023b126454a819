"""Every name a library module imports is used in that module, and the
package exports exactly what ``__init__.py`` imports.

No lint tool runs in this project's test suite, so an import left behind
by a removal would otherwise go unnoticed.  ``__init__.py`` imports names
to re-export them, so it is checked against ``__all__`` instead.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "twrnoma"


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        (1, "os"), (2, "tau")]


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_package_exports_exactly_what_it_imports():
    """``__init__.py`` imports each exported name once, and ``__all__``
    lists exactly those names, so dropping a name from one without the
    other fails here."""
    import twrnoma

    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imported) == len(set(imported))
    assert len(twrnoma.__all__) == len(set(twrnoma.__all__))
    assert sorted(twrnoma.__all__) == sorted(imported)
    assert all(hasattr(twrnoma, name) for name in twrnoma.__all__)
