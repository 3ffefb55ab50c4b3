"""Source hygiene: every name a module imports is used in that module, and
no module reaches into another object's private attributes."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "nilharmonics"


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom math import pi, tau\n"
                          "print(pi)\n") == [(1, "os"), (2, "tau")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def private_attributes(source):
    """(line, expression) of each x._name where x is not self or cls;
    dunder names are not private."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and not (isinstance(node.value, ast.Name)
                         and node.value.id in ("self", "cls"))):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


def test_private_attributes_are_found():
    source = ("class A:\n"
              "    def f(self, x):\n"
              "        x._tag = type(x).__name__\n"
              "        return self._a + x._b + cls._c\n")
    assert private_attributes(source) == [(3, "x._tag"), (4, "x._b")]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_private_attribute_access(module):
    assert private_attributes((SRC / module).read_text(encoding="utf-8")) \
        == []
