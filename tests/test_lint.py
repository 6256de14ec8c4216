"""Static checks that need no installed linter."""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "leviflat").glob("*.py"))
# __init__.py imports only to re-export
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
CALLERS = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))


def unused_imports(source):
    """Names bound by the module-level imports of source that nothing in it
    reads."""
    tree = ast.parse(source)
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                bound[alias.asname or alias.name] = stmt.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "import os\nimport sys as system\nfrom math import pi, tau\nprint(system.argv, tau)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def function_level_imports(source):
    """Line of each import statement inside a function or method of source,
    nested functions included."""
    return sorted(
        {
            node.lineno
            for fn in ast.walk(ast.parse(source))
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_function_level_import_in_package(path):
    """An import inside a function hides an import cycle between modules."""
    assert function_level_imports(path.read_text(encoding="utf-8")) == []


def test_function_level_import_is_found():
    source = (
        "import os\n\n\ndef f():\n    from math import pi\n    return pi\n\n\n"
        "class C:\n    def m(self):\n        import sys\n        return sys\n"
    )
    assert function_level_imports(source) == [5, 11]


def unset_defaults(sources, callers):
    """(function, parameter) for each defaulted parameter of a module-level
    function of sources that no call in callers passes, by position or by
    keyword; calls are matched to functions by name."""
    defaults = {}
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.FunctionDef):
                args = stmt.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], first):
                    defaults[stmt.name, arg.arg] = i
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        defaults[stmt.name, arg.arg] = None
    passed = set()
    for source in callers:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", getattr(call.func, "attr", None))
            starred = any(isinstance(arg, ast.Starred) for arg in call.args)
            keywords = {kw.arg for kw in call.keywords}
            for (fn, param), pos in defaults.items():
                if fn == name and (
                    param in keywords
                    or None in keywords
                    or (pos is not None and (starred or pos < len(call.args)))
                ):
                    passed.add((fn, param))
    return sorted(set(defaults) - passed)


def test_every_default_is_passed_by_some_call():
    def read(paths):
        return [p.read_text(encoding="utf-8") for p in paths]

    assert unset_defaults(read(PACKAGE), read(CALLERS)) == []


def test_unset_default_is_found():
    source = "def f(a, b=1, c=2, *, d=3):\n    pass\n\n\ndef g(x=0):\n    pass\n"
    calls = "f(0, 1)\nm.f(0, d=4)\ng(*args)\n"
    assert unset_defaults([source], [source, calls]) == [("f", "c")]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unreferenced_names(sources, exported):
    """Qualified name of each module-level definition and non-dunder method
    of sources that no source references outside that definition and that
    exported does not list; references are matched by bare name."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.append((stmt.name, stmt.name, stmt))
            if isinstance(stmt, ast.ClassDef):
                defined += [
                    (f"{stmt.name}.{sub.name}", sub.name, sub)
                    for sub in stmt.body
                    if isinstance(sub, ast.FunctionDef) and not _is_dunder(sub.name)
                ]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined += [
                    (node.id, node.id, stmt)
                    for target in targets
                    for node in ast.walk(target)
                    if isinstance(node, ast.Name) and not _is_dunder(node.id)
                ]

    def references(node):
        return Counter(
            getattr(sub, "id", None) or getattr(sub, "attr", None) for sub in ast.walk(node)
        )

    total = sum((references(tree) for tree in trees), Counter())
    return sorted(
        qualified
        for qualified, name, node in defined
        if name not in exported and total[name] == references(node)[name]
    )


def test_no_name_used_only_by_tests():
    import leviflat

    sources = [p.read_text(encoding="utf-8") for p in PACKAGE if p.name != "__init__.py"]
    assert unreferenced_names(sources, set(leviflat.__all__)) == []


def test_name_used_only_by_tests_is_found():
    source = (
        "X = 1\nY = 2\n\n\ndef f():\n    return g()\n\n\ndef g():\n    return X\n\n\n"
        "class C:\n    def m(self):\n        return self.m()\n\n    def n(self):\n        pass\n\n"
        "    def __repr__(self):\n        return ''\n"
    )
    caller = "def h():\n    return f() + C().n()\n"
    assert unreferenced_names([source, caller], {"h"}) == ["C.m", "Y"]
