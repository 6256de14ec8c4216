"""Static checks that need no installed linter."""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "leviflat").glob("*.py"))
# __init__.py imports only to re-export
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"] + sorted((ROOT / "tests").glob("*.py"))
BENCH = sorted((ROOT / "bench").rglob("*.py"))
# production code: the package and the benchmark, not the benchmark's tests
PRODUCTION = PACKAGE + [p for p in BENCH if "tests" not in p.relative_to(ROOT / "bench").parts]
CALLERS = PACKAGE + sorted((ROOT / "tests").glob("*.py")) + BENCH


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


def _decorator_names(node):
    return {
        getattr(d, "id", None) or getattr(d, "attr", None)
        for d in (getattr(dec, "func", dec) for dec in node.decorator_list)
    }


def _function_defaults(fn, skip):
    """{parameter: positional index or None} for the defaulted parameters
    of fn, the first skip positional parameters not counted."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = {arg.arg: i - skip for i, arg in enumerate(positional) if i >= first}
    out.update(
        (arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default
    )
    return out


def _field_defaults(cls):
    """{field: positional index} for the defaulted fields of a dataclass; a
    field with init=False takes no argument and is skipped."""
    out, index = {}, 0
    for stmt in cls.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
            keywords = {kw.arg: kw.value for kw in value.keywords}
            if getattr(keywords.get("init"), "value", True) is False:
                continue
            value = keywords.get("default") or keywords.get("default_factory")
        if value is not None:
            out[stmt.target.id] = index
        index += 1
    return out


def defaulted_parameters(sources):
    """{(qualified name, parameter): (called name, positional index or None,
    whether a dataclass field)} for each defaulted parameter of a
    module-level function, a method or a constructor of sources, and each
    defaulted dataclass field; a constructor, __init__ or the dataclass's
    own, is called by its class name."""
    out = {}
    for source in sources:
        for stmt in ast.parse(source).body:
            if isinstance(stmt, ast.FunctionDef):
                for param, pos in _function_defaults(stmt, 0).items():
                    out[stmt.name, param] = (stmt.name, pos, False)
            if not isinstance(stmt, ast.ClassDef):
                continue
            if "dataclass" in _decorator_names(stmt):
                for param, pos in _field_defaults(stmt).items():
                    out[stmt.name, param] = (stmt.name, pos, True)
            for sub in stmt.body:
                if not isinstance(sub, ast.FunctionDef) or (
                    _is_dunder(sub.name) and sub.name != "__init__"
                ):
                    continue
                called = stmt.name if sub.name == "__init__" else sub.name
                skip = 0 if "staticmethod" in _decorator_names(sub) else 1
                for param, pos in _function_defaults(sub, skip).items():
                    out[f"{stmt.name}.{sub.name}", param] = (called, pos, False)
    return out


def _calls(tree):
    """(called name, call) for each call in tree; cls(...) inside a class
    calls that class."""
    owner = {
        call: node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "cls"
    }
    for call in ast.walk(tree):
        if isinstance(call, ast.Call):
            yield owner.get(call) or getattr(call.func, "id", getattr(call.func, "attr", None)), call


def default_uses(defaults, callers):
    """(passed, unpassed): the keys of defaults that some call in callers
    may pass, and those that some call may leave unpassed.  Calls are
    matched by name; a call with *args or **kwargs may do either, and
    replace(obj, name=value) passes every dataclass field of that name."""
    passed, unpassed = set(), set()
    for source in callers:
        for name, call in _calls(ast.parse(source)):
            keywords = {kw.arg for kw in call.keywords}
            stars = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
            known = stars[0] if stars else len(call.args)
            starred = None in keywords or bool(stars)
            for key, (called, pos, is_field) in defaults.items():
                if name == "replace" and is_field and key[1] in keywords:
                    passed.add(key)
                if called != name:
                    continue
                certain = key[1] in keywords or (pos is not None and pos < known)
                if certain or starred:
                    passed.add(key)
                if not certain:
                    unpassed.add(key)
    return passed, unpassed


def _read(paths):
    return [p.read_text(encoding="utf-8") for p in paths]


# Defaults that only tests override, each kept as a seam for a reason.
SEAMS = {
    ("main", "argv"): "the console script calls main(); tests drive the CLI through argv",
    ("integrate_flow", "h"): "the RK4 step-count and parameter tests vary the step",
}


def test_every_default_is_passed_by_production_code():
    """R1: a default that no production call overrides is an option only
    tests set, or nobody."""
    defaults = defaulted_parameters(_read(PACKAGE))
    passed, _ = default_uses(defaults, _read(PRODUCTION))
    unset = set(defaults) - passed
    assert set(SEAMS) <= unset, "a seam is passed by production code; drop it from SEAMS"
    assert sorted(unset - set(SEAMS)) == []


def test_every_default_is_left_unpassed_by_some_call():
    """R2: a default that every call overrides is dead."""
    defaults = defaulted_parameters(_read(PACKAGE))
    _, unpassed = default_uses(defaults, _read(CALLERS))
    assert sorted(set(defaults) - unpassed) == []


def test_every_default_is_left_unpassed_by_production_code():
    """R3: a default that every production call overrides has a fallback
    only tests use."""
    defaults = defaulted_parameters(_read(PACKAGE))
    _, unpassed = default_uses(defaults, _read(PRODUCTION))
    assert sorted(set(defaults) - unpassed) == []


DOCTORED = """\
from dataclasses import dataclass, field


def f(a, b=1, c=2, *, d=3):
    pass


class C:
    def __init__(self, x, y=0):
        pass

    def m(self, u, v=None):
        pass

    @staticmethod
    def g(p, q=5):
        pass


@dataclass
class D:
    a: int
    b: int = 0
    c: list = field(default_factory=list)
    n: int = field(default=0, init=False)
    e: str = ""


@dataclass
class E:
    a: int
    f: bool = False

    @classmethod
    def make(cls):
        return cls(1)
"""


def test_unset_default_is_found():
    production = (
        DOCTORED + "f(0, 1)\nC(1).m(0, v=2)\nC.g(*args)\nD(1, 2, e='x')\nC(1)\nreplace(E(0), f=True)\n"
    )
    defaults = defaulted_parameters([DOCTORED])
    assert defaults[("C.__init__", "y")] == ("C", 1, False)
    assert defaults[("C.g", "q")] == ("g", 1, False)
    assert defaults[("D", "e")] == ("D", 3, True)
    assert ("D", "n") not in defaults
    passed, _ = default_uses(defaults, [production])
    assert sorted(set(defaults) - passed) == [("C.__init__", "y"), ("D", "c"), ("f", "c"), ("f", "d")]


def test_default_every_call_passes_is_found():
    calls = "f(0, 1, c=2, d=4)\nf(0, *rest)\nC(1, 2)\nx.m(0)\nC.g(0)\nD(0, 1, e='')\n"
    defaults = defaulted_parameters([DOCTORED])
    _, unpassed = default_uses(defaults, [DOCTORED, calls])
    assert sorted(set(defaults) - unpassed) == [("C.__init__", "y"), ("D", "b"), ("D", "e")]
    # cls(1) inside E leaves E.f unpassed
    assert ("E", "f") in unpassed


def test_default_only_tests_leave_unpassed_is_found():
    """R3 reads production calls only, so a test that leaves C's y or D's b
    and e unpassed does not save them."""
    production = "f(0, 1, d=4)\nf(0, *rest)\nC(1, 2)\nx.m(0)\nC.g(0)\nD(0, 1, e='')\n"
    tests = "C(1)\nD(0)\n"
    defaults = defaulted_parameters([DOCTORED])
    _, unpassed = default_uses(defaults, [DOCTORED, production])
    assert sorted(set(defaults) - unpassed) == [("C.__init__", "y"), ("D", "b"), ("D", "e")]
    _, unpassed = default_uses(defaults, [DOCTORED, production, tests])
    assert sorted(set(defaults) - unpassed) == []


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


def shared_method_names(sources):
    """Non-dunder method names that more than one class of sources defines."""
    owners = Counter(
        name
        for source in sources
        for stmt in ast.parse(source).body
        if isinstance(stmt, ast.ClassDef)
        for name in {
            sub.name
            for sub in stmt.body
            if isinstance(sub, ast.FunctionDef) and not _is_dunder(sub.name)
        }
    )
    return sorted(name for name, count in owners.items() if count > 1)


# unreferenced_names matches references by bare name, so a method only tests
# call escapes it while another class's method of the same name is used.
# Each of these was checked by hand to be read by production code on every
# class that defines it; a new shared name needs the same check.
SHARED_METHODS = ["_diff", "at", "diff", "draw", "scaled"]


def test_shared_method_names_are_reviewed():
    assert shared_method_names(_read(PACKAGE)) == SHARED_METHODS


def test_shared_method_name_is_found():
    source = (
        "class A:\n    def m(self):\n        pass\n\n    def __eq__(self, o):\n        pass\n\n"
        "class B:\n    def m(self):\n        pass\n\n    def n(self):\n        pass\n\n"
        "    def __eq__(self, o):\n        pass\n"
    )
    assert shared_method_names([source, "class C:\n    def n(self):\n        pass\n"]) == ["m", "n"]


def _called_name(call):
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def builds_in_instance_loops(source):
    """R4: (runner, line) of each call to a random_* builder, small_scalar or
    streams inside a `for _ in range(...)` loop of a run_* function.  A
    runner builds its fields once over Parameters and draws one row of
    values per instance, so an instance loop never builds."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("run_")):
            continue
        for loop in ast.walk(fn):
            if not (
                isinstance(loop, ast.For)
                and isinstance(loop.target, ast.Name)
                and loop.target.id == "_"
                and isinstance(loop.iter, ast.Call)
                and _called_name(loop.iter) == "range"
            ):
                continue
            for call in ast.walk(loop):
                name = _called_name(call) if isinstance(call, ast.Call) else None
                if name and (name.startswith("random_") or name in ("small_scalar", "streams")):
                    found.append((fn.name, call.lineno))
    return sorted(set(found))


def test_no_instance_loop_builds_random_fields():
    assert builds_in_instance_loops((ROOT / "src" / "leviflat" / "suites.py").read_text(encoding="utf-8")) == []


def test_build_in_instance_loop_is_found():
    source = (
        "def run_a(scenario, acc, streams):\n"
        "    rng = streams('a')\n"
        "    for _ in range(3):\n"
        "        f = random_scalar(chart, Drawn(rng))\n"
        "        g = sampling.random_form(chart, 1, draws)\n"
        "        acc.add(f)\n"
        "\n"
        "def run_b(scenario, acc, streams):\n"
        "    for _ in range(2):\n"
        "        if True:\n"
        "            S = small_scalar(chart, Drawn(streams('b')), 0.1)\n"
        "    for k in range(2):\n"
        "        f = random_scalar(chart, draws)\n"
        "\n"
        "def helper(streams):\n"
        "    for _ in range(2):\n"
        "        random_scalar(chart, draws)\n"
    )
    assert builds_in_instance_loops(source) == [("run_a", 4), ("run_a", 5), ("run_b", 11)]


def adds_in_loops(source):
    """R5: (runner, line) of each acc.add call inside a `for` statement of a
    run_* function.  A runner hands each instance set's pairs over in one
    call, so an add per loop turn splits one evaluation into many tapes.
    A comprehension is no `for` statement, and add_each, one call per
    Parameters set, may sit in a loop over those sets."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("run_")):
            continue
        for loop in ast.walk(fn):
            if not isinstance(loop, ast.For):
                continue
            for call in ast.walk(loop):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr == "add"
                    and getattr(call.func.value, "id", None) == "acc"
                ):
                    found.append((fn.name, call.lineno))
    return sorted(set(found))


def test_no_runner_adds_in_a_loop():
    assert adds_in_loops((ROOT / "src" / "leviflat" / "suites.py").read_text(encoding="utf-8")) == []


def test_add_in_a_loop_is_found():
    source = (
        "def run_a(scenario, acc, streams):\n"
        "    for lhs, rhs in pairs:\n"
        "        acc.add(lhs, rhs)\n"
        "    for t in times:\n"
        "        if t:\n"
        "            for k in range(2):\n"
        "                acc.add(t)\n"
        "\n"
        "def run_b(scenario, acc, streams):\n"
        "    [acc.add(lhs) for lhs in sides]\n"
        "    for k in (1, 2):\n"
        "        draws = Parameters()\n"
        "        acc.add_each(draws.rows(rng, 3), pairs)\n"
        "        node = add(node, other.add(k))\n"
        "    acc.add(sides)\n"
        "\n"
        "def helper(acc):\n"
        "    for side in sides:\n"
        "        acc.add(side)\n"
    )
    assert adds_in_loops(source) == [("run_a", 3), ("run_a", 7)]


def _accumulates(stmt):
    """Whether stmt adds a term into its own target by hand: a sum of
    products `x = add(x, mul(...))`, a keyed sum `x[k] = add(x[k], ...)`,
    bare or in a conditional expression, or a carrier fold
    `x = t if x is None else ...`."""
    if not (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1):
        return False
    target, value = stmt.targets[0], stmt.value
    name = ast.unparse(target)
    if isinstance(target, ast.Name) and isinstance(value, ast.IfExp):
        return ast.unparse(value.test) == f"{name} is None"
    for call in (value.body, value.orelse) if isinstance(value, ast.IfExp) else (value,):
        if not (isinstance(call, ast.Call) and _called_name(call) == "add" and len(call.args) == 2):
            continue
        acc, term = call.args
        if ast.unparse(acc) == name and (
            isinstance(target, ast.Subscript) or (isinstance(term, ast.Call) and _called_name(term) == "mul")
        ):
            return True
    return False


def accumulations_in_loops(source):
    """R6: (function, line) of each hand-written accumulation inside a `for`
    statement, attributed to the innermost function.  Each kind has one
    rule: a symbolic sum of products goes through symfield.dot, which adds
    from the first product; a form's coefficient terms through
    excalc._form_of_terms; and carriers through functools.reduce(operator.add,
    ...)."""
    found = {}
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for loop in ast.walk(fn):
            if not isinstance(loop, ast.For):
                continue
            for stmt in ast.walk(loop):
                if _accumulates(stmt):
                    # ast.walk reaches a nested function after its parent
                    found[stmt.lineno] = fn.name
    return sorted((name, line) for line, name in found.items())


# Functions allowed to accumulate by hand, with the reason.
ACCUMULATIONS = {
    "random_scalar": "its constant term is added as drawn: dot(first, [ONE, *waves]) "
    "would fold a drawn constant times ONE into a second Const node",
    "_form_of_terms": "the rule for a form's coefficient terms itself",
    "minor": "it is generic over the number and node rings, and the sign of each "
    "permutation picks plus or minus",
}


def test_sums_of_products_go_through_dot():
    found = [
        (path.name, fn, line)
        for path in PACKAGE
        for fn, line in accumulations_in_loops(path.read_text(encoding="utf-8"))
    ]
    assert [entry for entry in found if entry[1] not in ACCUMULATIONS] == []
    # an allowlist entry that matches nothing is stale
    assert {fn for _, fn, _ in found} == set(ACCUMULATIONS)


def test_accumulation_in_a_loop_is_found():
    source = (
        "def combination(coeffs, term):\n"
        "    node = ZERO\n"
        "    for i, c in enumerate(coeffs):\n"
        "        node = add(node, mul(c, term(i)))\n"
        "    return node\n"
        "\n"
        "def outer(rows):\n"
        "    for row in rows:\n"
        "        def inner(xs):\n"
        "            for x in xs:\n"
        "                total = sf.add(total, sf.mul(x, x))\n"
        "        out = add(out, mul(row, row))\n"
        "\n"
        "def keyed(terms):\n"
        "    for k, x in terms:\n"
        "        nodes[k] = add(nodes[k], mul(x, x))\n"
        "        out[k] = add(out[k], x) if k in out else x\n"
        "        out[k] = x if k not in out else sf.add(out[k], neg(x))\n"
        "\n"
        "def carrier(terms):\n"
        "    for t in terms:\n"
        "        out = t if out is None else out + t\n"
        "        det = t if det is None else plus(det, t) if t else minus(det, t)\n"
        "\n"
        "def fine(xs):\n"
        "    total = add(total, mul(a, b))\n"
        "    out = t if out is None else out + t\n"
        "    for x in xs:\n"
        "        total = add(other, mul(x, x))\n"
        "        total = add(total, neg(x))\n"
        "        total = [add(total, mul(x, y)) for y in xs]\n"
        "        nodes[i] = add(other[i], x)\n"
        "        out = t if other is None else out + t\n"
        "        out = x if x is None else out + x\n"
    )
    assert accumulations_in_loops(source) == [
        ("carrier", 22),
        ("carrier", 23),
        ("combination", 4),
        ("inner", 11),
        ("keyed", 16),
        ("keyed", 17),
        ("keyed", 18),
        ("outer", 12),
    ]
