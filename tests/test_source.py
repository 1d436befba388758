"""Static checks on the package source, read with the stdlib ``ast``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rsthl"


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads; a name listed in
    ``__all__`` counts as read."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0]
                         for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys\n"
              "from .a import b, c as d\nfrom .e import f, g\n"
              "__all__ = ['f']\nprint(sys.argv, b)\n")
    assert unused_imports(source) == ["os", "d", "g"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# Builtins that walk their arguments.
ITERATING = {"all", "any", "dict", "enumerate", "filter", "list", "map", "max",
             "min", "set", "sorted", "sum", "tuple", "zip"}


def dense_entry_reads(source: str) -> list[int]:
    """Lines that subscript or iterate ``x.entries``, the dense view of a
    table.  ``self.entries`` is exempt: outside ``tensors`` it is the entry
    list of a report or a suite stage, not a table."""
    def dense(node) -> bool:
        return (isinstance(node, ast.Attribute) and node.attr == "entries"
                and not (isinstance(node.value, ast.Name) and node.value.id == "self"))

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and dense(node.value):
            lines.append(node.lineno)
        elif isinstance(node, (ast.For, ast.comprehension)) and dense(node.iter):
            lines.append(node.iter.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ITERATING and any(dense(a) for a in node.args)):
            lines.append(node.lineno)
    return sorted(lines)


def test_dense_entry_reads_are_found():
    source = ("a = t.entries[0]\n"
              "b = [c for c in t.cell(0).entries]\n"
              "for c in t.entries:\n    pass\n"
              "d = list(enumerate(t.entries))\n"
              "e = sum(t.entries, ZERO)\n"
              "rows = [t.entries for t in tables]\n"
              "for entry in self.entries:\n    f = self.entries[0]\n")
    assert dense_entry_reads(source) == [1, 2, 3, 5, 6]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "tensors.py"], ids=lambda p: p.name)
def test_only_tensors_subscripts_or_iterates_entries(path):
    """Tables keep only their nonzero entries; outside ``tensors`` a single
    component is ``entry(...)`` and a walk is over ``nonzero``, so no module
    builds the dense view to pick from it."""
    assert dense_entry_reads(path.read_text(encoding="utf-8")) == []


def scalar_part_reads(source: str) -> list[int]:
    """Lines that read the ``num`` or ``den`` of a scalar."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("num", "den"))


def test_scalar_part_reads_are_found():
    source = ("a = x.num\n"
              "b = len(y.den) == 1\n"
              "c = numerator(x)\n"
              "d = [t.num for t in ts]\n")
    assert scalar_part_reads(source) == [1, 2, 4]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py"))
                                  if p.name != "scalars.py"], ids=lambda p: p.name)
def test_only_scalars_reads_num_or_den(path):
    """The stored polynomials of a scalar are private to ``scalars``, so a
    change of representation stays inside that module."""
    assert scalar_part_reads(path.read_text(encoding="utf-8")) == []
