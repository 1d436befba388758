"""Static checks on the package source, read with the stdlib ``ast``, and
one check of the modules a fresh interpreter loads with the package."""

import ast
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from rsthl.builtin import example_model
from rsthl.model import save_model

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "rsthl"


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


def umbilical_data_takers(source: str) -> list[str]:
    """The functions and methods that take the sectional invariants
    (``pair``), the screen factor (``gamma`` or ``gamma_screen``) and ``mu``
    as separate parameters, by qualified name."""
    found = []

    def visit(node, scope: tuple[str, ...]):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = scope + (child.name,)
                params = ({a.arg for a in child.args.args + child.args.kwonlyargs}
                          if isinstance(child, ast.FunctionDef) else set())
                if {"pair", "mu"} <= params and params & {"gamma", "gamma_screen"}:
                    found.append(".".join(name))
                visit(child, name)

    visit(ast.parse(source), ())
    return found


def test_umbilical_data_takers_are_found():
    source = ("def f(pair, gamma_screen, mu, n): pass\n"
              "def g(pair, mu): pass\n"
              "class R:\n    def __init__(self, pair, gamma, mu): pass\n"
              "    def h(self, screen): pass\n")
    assert umbilical_data_takers(source) == ["f", "R.__init__"]


def test_only_the_screen_umbilical_record_takes_its_data_apart():
    """The closed forms of thm-4.4, eq-18 to eq-24 and thm-4.6 read one
    ``ScreenUmbilical``: its constructor is the one function of ``lightlike``
    and ``associated`` that takes the pair, gamma and mu apart, so
    mu^2 gamma^2 is formed in one place."""
    takers = [name for module in ("lightlike.py", "associated.py")
              for name in umbilical_data_takers(
                  (PACKAGE / module).read_text(encoding="utf-8"))]
    assert takers == ["ScreenUmbilical.__init__"]


def imported_modules(source: str) -> set[str]:
    """The top-level names of the modules a source imports, relative
    imports left out."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imported_modules_are_found():
    source = ("import os.path\nfrom dataclasses import field\n"
              "from . import report\nfrom .tensors import Frame\n"
              "def f():\n    import inspect\n")
    assert imported_modules(source) == {"os", "dataclasses", "inspect"}


# Each costs a fresh process milliseconds of import before its first check:
# ``dataclasses`` brings ``inspect`` with it and compiles code per class.
SLOW_IMPORTS = {"dataclasses", "inspect"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses_or_inspect(path):
    assert imported_modules(path.read_text(encoding="utf-8")) & SLOW_IMPORTS == set()


# The package has one exact number type, ``RationalFunction``: these
# modules would bring a second arithmetic, and ``fractions`` also loads
# ``decimal`` (with ``_decimal``) and ``numbers`` into a fresh process.
NUMBER_MODULES = {"fractions", "decimal", "numbers"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_second_number_type(path):
    assert imported_modules(path.read_text(encoding="utf-8")) & NUMBER_MODULES == set()


def test_loading_a_model_imports_neither_dataclasses_nor_inspect(tmp_path):
    """Nor a second number type.  Against a bare interpreter, so modules
    that the host's start-up files import count on both sides."""
    model = tmp_path / "example47.json"
    save_model(example_model(), str(model))
    listed = "import sys; print(' '.join(sys.modules))"
    load = ("import sys; sys.path.insert(0, sys.argv[1]); import rsthl, rsthl.cli; "
            "from rsthl.model import load_model; load_model(sys.argv[2]); ")

    def modules(code: str, *args: str) -> set[str]:
        run = subprocess.run([sys.executable, "-I", "-c", code, *args],
                             capture_output=True, text=True, check=True, timeout=60)
        return set(run.stdout.split())

    joined = modules(load + listed, str(PACKAGE.parent), str(model)) - modules(listed)
    assert "rsthl.model" in joined
    assert joined & (SLOW_IMPORTS | NUMBER_MODULES | {"_decimal"}) == set()


# The functions that assign an attribute outside ``__init__`` on purpose,
# by module: a table or a scalar built without ``__init__``, a memoized
# hash, the parser's token cursor, the size a model load has spent and a
# stage's blocker, set once.
ATTRIBUTE_WRITERS = {
    "tensors.py": {"MultilinearForm._of"},
    "scalars.py": {"RationalFunction._of", "_Parser._next", "SizeBudget.charge"},
    "suite.py": {"_Stage.run"},
}


def attribute_writers(source: str) -> list[tuple[str, int]]:
    """(qualified name, line) of every attribute assignment or deletion,
    and every ``setattr`` or ``__setattr__`` call, other than an assignment
    to ``self.x`` directly inside ``__init__``."""
    found = []

    def visit(node, scope: tuple[str, ...], in_init: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + (child.name,), child.name == "__init__"
                      and not isinstance(child, ast.ClassDef))
                continue
            where = ".".join(scope) or "<module>"
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.ctx, (ast.Store, ast.Del))
                    and not (in_init and isinstance(child.ctx, ast.Store)
                             and isinstance(child.value, ast.Name)
                             and child.value.id == "self")):
                found.append((where, child.lineno))
            elif isinstance(child, ast.Call) and (
                    isinstance(child.func, ast.Name)
                    and child.func.id in ("setattr", "delattr")
                    or isinstance(child.func, ast.Attribute)
                    and child.func.attr in ("__setattr__", "__delattr__")):
                found.append((where, child.lineno))
            visit(child, scope, in_init)

    visit(ast.parse(source), (), False)
    return found


def test_attribute_writers_are_found():
    source = ("class A:\n"
              "    def __init__(self, x):\n"
              "        self.x = x\n"
              "        other.y = x\n"
              "        def inner():\n"
              "            self.z = 1\n"
              "    def move(self):\n"
              "        self.x += 1\n"
              "        del self.x\n"
              "        object.__setattr__(self, 'x', 2)\n"
              "a.b, c = 1, 2\n"
              "setattr(a, 'b', 3)\n")
    assert attribute_writers(source) == [
        ("A.__init__", 4), ("A.__init__.inner", 6), ("A.move", 8), ("A.move", 9),
        ("A.move", 10), ("<module>", 11), ("<module>", 12)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_attributes_are_set_only_in_init(path):
    """Package objects are immutable by convention: each is complete when
    ``__init__`` returns, so sharing one between callers is safe."""
    writers = {name for name, _ in attribute_writers(path.read_text(encoding="utf-8"))}
    assert writers == ATTRIBUTE_WRITERS.get(path.name, set())


def raised_names(source: str) -> set[str]:
    """The names a module raises, as ``raise X(...)`` or ``raise X``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
    return names


def class_bases(source: str) -> dict[str, set[str]]:
    """Each class a module defines, with the names of its bases."""
    return {node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)}


def test_raised_names_and_class_bases_are_found():
    source = ("class A(GeometryError):\n    pass\n"
              "def f():\n    raise A('x')\n"
              "def g():\n    raise B from None\n"
              "def h():\n    raise\n")
    assert raised_names(source) == {"A", "B"}
    assert class_bases(source) == {"A": {"GeometryError"}}


def test_every_exception_class_is_raised():
    """Each exception class of ``errors`` but the base is raised somewhere
    in the package, so a class whose last raise is deleted fails here, and
    no other module defines a subclass of ``GeometryError``."""
    errors = class_bases((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    raised, elsewhere = set(), {}
    for path in PACKAGE.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        raised |= raised_names(source)
        if path.name != "errors.py":
            elsewhere.update(class_bases(source))
    assert set(errors) - {"GeometryError"} - raised == set()
    assert {name for name, bases in elsewhere.items() if bases & set(errors)} == set()


def test_only_the_suite_stage_writes_a_blocking_reason():
    """Conditions are decided by ``suite._Stage``: no other module writes
    the "blocked by NAME (fail)" skip reason."""
    writers = {path.name for path in PACKAGE.glob("*.py")
               if "blocked by" in path.read_text(encoding="utf-8")}
    assert writers == {"suite.py"}


def unreferenced_definitions(sources: list[str], entry_points=()) -> list[str]:
    """The functions, methods and classes the sources define and never
    name, as a variable or an attribute.  Dunders, names listed in
    ``__all__`` and the given entry points count as named."""
    defined, named = set(), set(entry_points)
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                named |= set(ast.literal_eval(node.value))
    return sorted(name for name in defined - named
                  if not (name.startswith("__") and name.endswith("__")))


def test_unreferenced_definitions_are_found():
    source = ("__all__ = ['exported']\n"
              "def exported(): pass\ndef used(): pass\ndef dead(): pass\n"
              "def main(): pass\n"
              "class C:\n    def __init__(self): pass\n"
              "    def method(self): pass\n    def stale(self): pass\n"
              "used()\nC().method()\n")
    assert unreferenced_definitions([source], {"main"}) == ["dead", "stale"]


def unread_attributes(sources: list[str]) -> list[str]:
    """The attributes an ``__init__`` of the sources assigns to ``self``
    and no source reads as an attribute.  A read is matched by name alone,
    on any object, so a dead attribute whose name another object's
    attribute shares goes unseen."""
    assigned, read = set(), set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                assigned |= {child.attr for child in ast.walk(node)
                             if isinstance(child, ast.Attribute)
                             and isinstance(child.ctx, ast.Store)
                             and isinstance(child.value, ast.Name)
                             and child.value.id == "self"}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(assigned - read)


def test_unread_attributes_are_found():
    source = ("class A:\n"
              "    def __init__(self, x):\n"
              "        self.used = x\n        self.dead = x\n"
              "        self.shared = x\n        self.written = x\n"
              "    def move(self):\n"
              "        return self.used\n"
              "class B:\n"
              "    def __init__(self):\n        self.stale = 1\n"
              "other.shared\nother.written = 2\n")
    assert unread_attributes([source]) == ["dead", "stale", "written"]


# The attributes read only outside the package on purpose: the offending
# field path of a ``ModelError`` and the offset of a ``ScalarParseError``,
# for a caller that catches them.
CALLER_ATTRIBUTES = ["path", "position"]


def test_every_attribute_is_read_in_the_package():
    """An attribute that ``__init__`` sets and no package code reads is
    dead state, built on every construction."""
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")]
    assert unread_attributes(sources) == CALLER_ATTRIBUTES


def test_every_definition_has_a_caller_in_the_package():
    """A function, method or class that only tests use is dead code: the
    package has no caller for it.  The console script's function is the
    one entry point from outside."""
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    entry_points = {target.rsplit(":", 1)[1]
                    for target in scripts["project"]["scripts"].values()}
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")]
    assert unreferenced_definitions(sources, entry_points) == []
