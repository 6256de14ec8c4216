"""Symbolic scalar fields: parsing, exact differentiation, evaluation."""

import math
import os
from functools import partial
from itertools import combinations, islice
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import leviflat
from leviflat import suites, symfield as sf
from leviflat.errors import (
    ArityError,
    EvaluationRangeError,
    ExprSyntaxError,
    SingularEvaluationError,
    UnknownIdentifierError,
)
from leviflat.report import ResidualAccumulator
from leviflat.excalc import matrix_mul, wedge
from leviflat.sampling import Drawn, Parameters, random_form, random_scalar, random_vector_field, sample_points, stream
from leviflat.scenarios import builtin
from leviflat.suites import REGISTRY, random_anticommuting_S, random_xi_field, random_z_form, small_scalar
from leviflat.symfield import Chart, PointEvaluator, ScalarField, fix_coordinate, parse_expr, torus
from tests.fields import coordinate, cos_of, sin_of

CHART = torus("x", "y", "t")


def test_chart_validation():
    with pytest.raises(ValueError):
        Chart(("x", "x", "t"))
    with pytest.raises(ValueError):
        Chart(("x",), (True, True))
    assert CHART.dim == 3
    assert CHART.index("t") == 2


def test_parse_cos_at_origin():
    f = parse_expr("cos(t)", CHART)
    assert f([(0.0, 0.0, 0.0)]).tolist() == [1.0]


def test_parse_polynomial_plus_sin():
    f = parse_expr("x*x + sin(y)", CHART)
    assert f([(2.0, 0.0, 0.0)]) == pytest.approx(4.0, abs=1e-14)


def test_parse_reciprocal():
    # 1/(2 + cos(pi)) = 1/(2 - 1)
    f = parse_expr("1/(2+cos(t))", CHART)
    assert f([(0.0, 0.0, math.pi)]) == pytest.approx(1.0, abs=1e-14)


def test_parse_precedence_and_power():
    f = parse_expr("2*x^2 - -3", CHART)
    assert f([(2.0, 0.0, 0.0)]) == pytest.approx(11.0)
    g = parse_expr("-x^2", CHART)
    assert g([(2.0, 0.0, 0.0)]) == pytest.approx(-4.0)


def test_parse_pi_constant():
    f = parse_expr("cos(pi)", CHART)
    assert f([(0.0, 0.0, 0.0)]) == pytest.approx(-1.0)


def test_parse_syntax_error_reports_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x + * y", CHART)
    assert err.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse_expr("sin(x", CHART)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x ? y", CHART)
    # str.isdigit accepts '²', which float() rejects
    with pytest.raises(ExprSyntaxError):
        parse_expr("2²", CHART)


# text -> its value at POINT, or (exception class, position or None)
POINT = (0.5, 1.25, 2.0)
LEXICAL_CASES = {
    "1.e5": 1e5,
    ".5": 0.5,
    "5.": 5.0,
    "007": 7.0,
    "2e-3": 2e-3,
    "2E+2": 200.0,
    "1e": (ExprSyntaxError, 1),
    "1e+": (ExprSyntaxError, 1),
    "1.2.3": (ExprSyntaxError, 3),
    "1..2": (ExprSyntaxError, 2),
    "2²": (ExprSyntaxError, 1),
    "x²": (UnknownIdentifierError, None),
    "é": (UnknownIdentifierError, None),
    "½": (ExprSyntaxError, 0),
    "٣": (ExprSyntaxError, 0),
    "x٣": (UnknownIdentifierError, None),
    "1٣": (ExprSyntaxError, 1),
    "_a1": (UnknownIdentifierError, None),
    "x\ty": (ExprSyntaxError, 2),
    "x + y\n": 1.75,
    "x ^ -2": 4.0,
    "x^2.0": (ExprSyntaxError, 2),
    "3x": (ExprSyntaxError, 1),
    ".": (ExprSyntaxError, 0),
    "x $": (ExprSyntaxError, 2),
    "": (ExprSyntaxError, 0),
    "  ": (ExprSyntaxError, 2),
}


@pytest.mark.parametrize("text", LEXICAL_CASES)
def test_parse_lexical_rules(text):
    expected = LEXICAL_CASES[text]
    if isinstance(expected, float):
        assert parse_expr(text, CHART)([POINT]).tolist() == [expected]
        return
    cls, position = expected
    with pytest.raises(cls) as err:
        parse_expr(text, CHART)
    assert type(err.value) is cls
    assert getattr(err.value, "position", None) == position


def test_parse_unknown_identifier():
    with pytest.raises(UnknownIdentifierError):
        parse_expr("z + 1", CHART)
    with pytest.raises(UnknownIdentifierError):
        parse_expr("tan(x)", CHART)


def test_parse_arity_mismatch():
    with pytest.raises(ArityError):
        parse_expr("sin(x, y)", CHART)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x ^ y", CHART)


def test_differentiate_cos():
    f = parse_expr("cos(t)", CHART)
    df = f.diff(2)
    tv = np.array([0.0, 0.7, 2.1])
    points = np.stack([np.zeros(3), np.zeros(3), tv], axis=1)
    assert df(points) == pytest.approx(-np.sin(tv), abs=1e-15)


def test_second_derivative():
    f = parse_expr("cos(t)", CHART)
    d2 = f.diff(2).diff(2)
    assert d2([(0.0, 0.0, 0.0)]) == pytest.approx(-1.0, abs=1e-15)


def test_derivative_of_independent_coordinate_is_zero():
    f = parse_expr("x*x", CHART)
    assert f.diff(1).is_zero


def test_differentiate_index_out_of_range():
    f = parse_expr("x", CHART)
    with pytest.raises(IndexError):
        f.diff(3)


def test_evaluate_trivial_values():
    assert parse_expr("sin(x)", CHART)([(math.pi / 2, 0.0, 0.0)]) == pytest.approx(1.0)
    assert parse_expr("exp(0)", CHART)([(0.0, 0.0, 0.0)]).tolist() == [1.0]
    f = parse_expr("sin(x)*cos(t)", CHART)
    assert f([(math.pi / 2, 0.3, math.pi)]) == pytest.approx(-1.0)


def test_evaluate_reduces_periodic_coordinates():
    f = parse_expr("x*x", CHART)
    assert f([(2.0 + 2.0 * math.pi, 0.0, 0.0)]) == pytest.approx(4.0, abs=1e-12)


def test_division_guard():
    f = parse_expr("1/(1+cos(t))", CHART)
    with pytest.raises(SingularEvaluationError):
        f([(0.0, 0.0, math.pi)])


def test_finite_difference_consistency():
    """100 seeded (f, p, i): exact derivative against Richardson differences."""
    rng = stream(202, "fd")
    points = sample_points(CHART, 100, rng)
    h = 1e-3
    for k, p in enumerate(points):
        f = random_scalar(CHART, Drawn(rng))
        i = k % CHART.dim
        # p shifted along coordinate i by h, -h, h/2, -h/2
        shifted = np.tile(p, (4, 1))
        shifted[:, i] += [h, -h, h / 2, -h / 2]
        fp, fm, fp2, fm2 = f(shifted)
        d1 = (fp - fm) / (2 * h)
        d2 = (fp2 - fm2) / h
        richardson = (4 * d2 - d1) / 3
        value = f.diff(i)([p])[0]
        assert abs(value - richardson) <= 1e-6 * (1.0 + abs(value))


def test_linearity_exact():
    rng = stream(203, "lin")
    points = sample_points(CHART, 20, rng)
    f = random_scalar(CHART, Drawn(rng))
    g = random_scalar(CHART, Drawn(rng))
    a, b = 1.7, -0.3
    combo = a * f + b * g
    for i in range(CHART.dim):
        lhs = combo.diff(i)
        rhs = a * f.diff(i) + b * g.diff(i)
        assert np.all(np.abs(lhs(points) - rhs(points)) <= 1e-12)


def test_clairaut_symmetry():
    rng = stream(204, "clairaut")
    points = sample_points(CHART, 20, rng)
    for _ in range(10):
        f = random_scalar(CHART, Drawn(rng))
        for i in range(CHART.dim):
            for j in range(i + 1, CHART.dim):
                dij = f.diff(i).diff(j)
                dji = f.diff(j).diff(i)
                assert np.all(np.abs(dij(points) - dji(points)) <= 1e-10)


@given(
    a=st.floats(-5, 5, allow_nan=False),
    b=st.floats(-5, 5, allow_nan=False),
    xv=st.floats(0, 6.28, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_product_rule_property(a, b, xv):
    x = coordinate(CHART, "x")
    f = a * sin_of(x) + b
    g = cos_of(x) * x
    product = f * g
    lhs = product.diff(0)
    rhs = f.diff(0) * g + f * g.diff(0)
    p = [(xv, 0.0, 0.0)]
    assert lhs(p) == pytest.approx(rhs(p), abs=1e-10)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_parse_matches_operator_build(data):
    """Random expression strings agree with the same field built by operators."""
    c1 = data.draw(st.floats(-3, 3, allow_nan=False))
    c2 = data.draw(st.floats(-3, 3, allow_nan=False))
    text = f"{c1!r}*sin(x) + cos(y)*{c2!r} - x/2"
    parsed = parse_expr(text, CHART)
    x, y = coordinate(CHART, "x"), coordinate(CHART, "y")
    built = c1 * sin_of(x) + cos_of(y) * c2 - x / 2
    p = [tuple(data.draw(st.floats(0, 6.2, allow_nan=False)) for _ in range(3))]
    assert parsed(p) == pytest.approx(built(p), abs=1e-12)


def test_point_evaluator_shares_cache():
    f = parse_expr("sin(x)*cos(y) + sin(x)", CHART)
    # the operands of f's top node are shared subtrees of f
    left, right = (ScalarField(CHART, node) for node in (f.node.a, f.node.b))
    ev = PointEvaluator(CHART, [(1.0, 2.0, 0.0)], [f, left, right])
    assert ev(f) == pytest.approx(math.sin(1.0) * math.cos(2.0) + math.sin(1.0))
    assert ev(left) == pytest.approx(math.sin(1.0) * math.cos(2.0))
    assert ev(right) == pytest.approx(math.sin(1.0))


def test_point_evaluator_answers_only_for_its_fields():
    """A field the evaluator was not given is an error, and its message does
    not spell the field out: a node's repr expands the DAG into a tree, which
    grows exponentially with depth."""
    x = coordinate(CHART, "x")
    f = x
    for _ in range(8):
        f = f * f + sin_of(f)
    ev = PointEvaluator(CHART, [(1.0, 2.0, 0.0)], [x])
    assert ev(x) == pytest.approx([1.0])
    with pytest.raises(LookupError) as info:
        ev(f)
    message = str(info.value)
    assert repr(f.node) not in message and len(message) < 80


def test_fix_coordinate_substitution():
    ext = CHART.extend("s")
    s = coordinate(ext, "s")
    x = coordinate(ext, "x")
    f = s * sin_of(x) + s * s
    at_half = fix_coordinate(f, 3, 0.5)
    assert at_half.chart.names == CHART.names
    assert at_half([(1.0, 0.0, 0.0)]) == pytest.approx(0.5 * math.sin(1.0) + 0.25)
    tangent = fix_coordinate(f.diff(3), 3, 0.0)
    assert tangent([(1.0, 0.0, 0.0)]) == pytest.approx(math.sin(1.0))


# --------------------------------------------------------------------------
# Batch evaluation against a recursive one-point reference
# --------------------------------------------------------------------------


def _reference(node, x):
    """Recursive evaluation of one expression node at one reduced point,
    with Python floats and the math module."""
    kind = type(node)
    if kind is sf.Const:
        return node.value
    if kind is sf.Coord:
        return x[node.index]
    if kind is sf.Neg:
        return -_reference(node.a, x)
    if kind is sf.Sin:
        return math.sin(_reference(node.a, x))
    if kind is sf.Cos:
        return math.cos(_reference(node.a, x))
    if kind is sf.Exp:
        return math.exp(_reference(node.a, x))
    if kind is sf.Pow:
        base = _reference(node.a, x)
        if node.n < 0 and abs(base) < sf.DIVISION_GUARD:
            raise SingularEvaluationError("negative power")
        return base**node.n
    a, b = _reference(node.a, x), _reference(node.b, x)
    if kind is sf.Add:
        return a + b
    if kind is sf.Sub:
        return a - b
    if kind is sf.Mul:
        return a * b
    if abs(b) < sf.DIVISION_GUARD:
        raise SingularEvaluationError("division")
    return a / b


_LEAVES = st.one_of(
    st.integers(0, 2).map(sf.Coord),
    st.floats(-3, 3, allow_nan=False).map(sf.const),
)


def _build(fn, *args):
    # constant folding can fail while building (0^-1, exp(1e3)); keep the
    # first operand then
    try:
        return fn(*args)
    except (SingularEvaluationError, EvaluationRangeError):
        return args[0]


def _grow(children):
    unary = st.sampled_from([sf.neg, sf.sin, sf.cos, sf.exp])
    binary = st.sampled_from([sf.add, sf.sub, sf.mul, sf.div])
    return st.one_of(
        st.builds(_build, unary, children),
        st.builds(_build, binary, children, children),
        st.builds(_build, st.just(sf.powi), children, st.integers(-3, 4)),
    )


@given(
    node=st.recursive(_LEAVES, _grow, max_leaves=12),
    points=st.lists(
        st.tuples(*[st.floats(-10, 10, allow_nan=False)] * 3), min_size=1, max_size=30
    ),
)
@settings(max_examples=200, deadline=None)
def test_batch_evaluation_matches_recursive_reference_bitwise(node, points):
    f = ScalarField(CHART, node)
    try:
        expected = [
            _reference(node, tuple(c % (2.0 * math.pi) for c in p)) for p in points
        ]
    except (SingularEvaluationError, OverflowError):
        assume(False)
    got = PointEvaluator(CHART, points, [f])(f)
    assert got.shape == (len(points),)
    assert np.array(expected, dtype=float).tobytes() == got.tobytes()


# The smart factories as they were written with one `_is_const` call per
# rule, kept as the reference for the shape of every tree they build.


def _is_const(node, value=None):
    if not isinstance(node, sf.Const):
        return False
    return True if value is None else node.value == value


def _ref_const(v):
    if v == 0.0:
        return sf.ZERO
    if v == 1.0:
        return sf.ONE
    return sf.Const(v)


def _ref_add(a, b):
    if _is_const(a) and _is_const(b):
        return _ref_const(a.value + b.value)
    if _is_const(a, 0.0):
        return b
    if _is_const(b, 0.0):
        return a
    return sf.Add(a, b)


def _ref_sub(a, b):
    if _is_const(a) and _is_const(b):
        return _ref_const(a.value - b.value)
    if _is_const(b, 0.0):
        return a
    if _is_const(a, 0.0):
        return _ref_neg(b)
    if a is b:
        return sf.ZERO
    return sf.Sub(a, b)


def _ref_mul(a, b):
    if _is_const(a) and _is_const(b):
        return _ref_const(a.value * b.value)
    if _is_const(a, 0.0) or _is_const(b, 0.0):
        return sf.ZERO
    if _is_const(a, 1.0):
        return b
    if _is_const(b, 1.0):
        return a
    if _is_const(b):
        a, b = b, a
    if _is_const(a) and isinstance(b, sf.Mul) and _is_const(b.a):
        return _ref_mul(_ref_const(a.value * b.a.value), b.b)
    return sf.Mul(a, b)


def _ref_div(a, b):
    if _is_const(b):
        if b.value == 0.0:
            raise SingularEvaluationError("symbolic division by constant zero")
        if _is_const(a):
            return _ref_const(a.value / b.value)
        return _ref_mul(_ref_const(1.0 / b.value), a)
    if _is_const(a, 0.0):
        return sf.ZERO
    return sf.Div(a, b)


def _ref_neg(a):
    if _is_const(a):
        return _ref_const(-a.value)
    if isinstance(a, sf.Neg):
        return a.a
    return sf.Neg(a)


def _ref_powi(a, n):
    n = int(n)
    if n == 0:
        return sf.ONE
    if n == 1:
        return a
    if _is_const(a):
        if n < 0 and a.value == 0.0:
            raise SingularEvaluationError("negative power of constant zero")
        return _ref_fold(lambda v: v**n, a.value)
    return sf.Pow(a, n)


def _ref_fold(fn, v):
    # a folded constant out of range is a package error
    try:
        return _ref_const(fn(v))
    except (OverflowError, ValueError):
        raise EvaluationRangeError("out of range") from None


# the reference's own memo of sin/cos/exp nodes by (type, argument): the
# factories give the same argument the same node
_REF_UNARY = {}


def _ref_unary(fn, node_type):
    def build(a):
        if _is_const(a):
            return _ref_fold(fn, a.value)
        return _REF_UNARY.setdefault((node_type, a), node_type(a))

    return build


# factory -> its reference; powi's second operand is an exponent, the others
# are unary or binary in nodes
_FACTORIES = {
    sf.const: _ref_const,
    sf.add: _ref_add,
    sf.sub: _ref_sub,
    sf.mul: _ref_mul,
    sf.div: _ref_div,
    sf.neg: _ref_neg,
    sf.powi: _ref_powi,
    sf.sin: _ref_unary(math.sin, sf.Sin),
    sf.cos: _ref_unary(math.cos, sf.Cos),
    sf.exp: _ref_unary(math.exp, sf.Exp),
}
_BINARY = (sf.add, sf.sub, sf.mul, sf.div)
_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, 0.5]


def _leaf(kind, v):
    # "x": the one coordinate node of its index (x0 for a non-finite v);
    # "c": a fresh Const (0 and 1 not the shared ZERO and ONE); "k": through
    # const, which shares them
    if kind == "x":
        return sf.coord(int(abs(v)) % 3 if math.isfinite(v) else 0)
    return sf.Const(v) if kind == "c" else sf.const(v)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (SingularEvaluationError, EvaluationRangeError) as exc:
        return type(exc)


def _factory_leaves(values):
    return st.lists(st.tuples(st.sampled_from("xck"), values), min_size=1, max_size=6)


_FACTORY_LEAVES = _factory_leaves(
    st.one_of(st.sampled_from(_SPECIAL), st.floats(-3, 3, allow_nan=False))
)
_FACTORY_PROGRAM = st.lists(
    st.tuples(st.sampled_from(list(_FACTORIES)), st.integers(0, 40), st.integers(-3, 40)),
    max_size=40,
)


def _step_args(fn, i, j, pool):
    """The arguments of one program step (fn, i, j) over the node pool."""
    i %= len(pool)
    if fn is sf.const:
        return (float(j),)
    if fn is sf.powi:
        return (pool[i], j)
    if fn in _BINARY:
        return (pool[i], pool[j % len(pool)])
    return (pool[i],)


@given(leaves=_FACTORY_LEAVES, program=_FACTORY_PROGRAM)
# one pinned program per rule: folding, 0/1 absorption, constants moved left
# and nested constant factors folded, neg(neg(a)), sub(a, a), division by a
# constant and by constant zero
@example(leaves=[("x", 0), ("c", 0.0), ("k", 1.0), ("c", 2.0)],
         program=[(sf.add, 1, 3), (sf.mul, 0, 3), (sf.mul, 2, 0), (sf.add, 0, 1)])
@example(leaves=[("x", 0), ("c", 2.0), ("c", 3.0)],
         program=[(sf.mul, 0, 1), (sf.mul, 2, 3), (sf.mul, 4, 2), (sf.div, 0, 2)])
@example(leaves=[("x", 1), ("c", 0.0)],
         program=[(sf.neg, 0, 0), (sf.neg, 2, 0), (sf.sub, 0, 0), (sf.sub, 1, 0), (sf.div, 0, 1)])
@settings(max_examples=300, deadline=None)
def test_factories_build_the_reference_trees(leaves, program):
    pool = [_leaf(kind, v) for kind, v in leaves]
    assert all(_leaf(kind, v) is n for (kind, v), n in zip(leaves, pool) if kind == "x")
    ref_pool = list(pool)
    for fn, i, j in program:
        args, ref_args = _step_args(fn, i, j, pool), _step_args(fn, i, j, ref_pool)
        got, want = _outcome(fn, *args), _outcome(_FACTORIES[fn], *ref_args)
        if isinstance(want, type):
            assert got is want
            continue
        assert type(got) is type(want) and repr(got) == repr(want)
        # a factory that returns an operand returns the same one, so sharing
        # (which sub(a, a) tests) is the same on both sides
        assert [k for k, n in enumerate(pool) if n is got] == [
            k for k, n in enumerate(ref_pool) if n is want
        ]
        if fn in (sf.sin, sf.cos, sf.exp) and type(got) is not sf.Const:
            # the same argument gives the same node; a folded constant is new
            assert fn(*args) is got
        pool.append(got)
        ref_pool.append(want)


# --------------------------------------------------------------------------
# Support masks: Node.diff skips a subtree without the coordinate
# --------------------------------------------------------------------------


def _unpruned_diff(node, i, memo):
    """d/dx_i by the rules of each node's _diff, recursing into every
    operand whatever its support mask, built with the smart factories."""
    if node in memo:
        return memo[node]
    kind = type(node)
    if kind is sf.Const:
        d = sf.ZERO
    elif kind is sf.Coord:
        d = sf.ONE if node.index == i else sf.ZERO
    else:
        a, da = node.a, _unpruned_diff(node.a, i, memo)
        if kind is sf.Neg:
            d = sf.neg(da)
        elif kind is sf.Sin:
            d = sf.mul(sf.cos(a), da)
        elif kind is sf.Cos:
            d = sf.neg(sf.mul(sf.sin(a), da))
        elif kind is sf.Exp:
            d = sf.mul(node, da)
        elif kind is sf.Pow:
            d = sf.mul(sf.mul(sf.Const(node.n), sf.powi(a, node.n - 1)), da)
        else:
            b, db = node.b, _unpruned_diff(node.b, i, memo)
            if kind is sf.Add:
                d = sf.add(da, db)
            elif kind is sf.Sub:
                d = sf.sub(da, db)
            elif kind is sf.Mul:
                d = sf.add(sf.mul(da, b), sf.mul(a, db))
            else:
                d = sf.div(sf.sub(sf.mul(da, b), sf.mul(a, db)), sf.mul(b, b))
    memo[node] = d
    return d


def _tree_ids():
    """A function from nodes to ids that are equal exactly when the nodes'
    reprs are: it interns each tree by its type, its constant, index or
    exponent and its operands' ids, so shared subtrees are not expanded."""
    table, ids = {}, {}

    def tree_id(node):
        if node not in ids:
            kind = type(node)
            if kind is sf.Const:
                key = (kind, repr(node.value))
            elif kind is sf.Coord:
                key = (kind, node.index)
            elif kind is sf.Pow:
                key = (kind, tree_id(node.a), node.n)
            elif isinstance(node, sf._Binary):
                key = (kind, tree_id(node.a), tree_id(node.b))
            else:
                key = (kind, tree_id(node.a))
            ids[node] = table.setdefault(key, len(table))
        return ids[node]

    return tree_id


_NON_FINITE = [math.inf, -math.inf, math.nan, 1e200]


@given(
    leaves=_factory_leaves(
        st.one_of(st.sampled_from(_SPECIAL + _NON_FINITE), st.floats(-3, 3, allow_nan=False))
    ),
    program=_FACTORY_PROGRAM,
)
# 1e200 * 1e200 * sin(y): the folded inf times the zero derivative of sin(y)
# is NaN, so the product's mask must hold x as well
@example(leaves=[("c", 1e200), ("x", 1)],
         program=[(sf.mul, 0, 0), (sf.sin, 1, 0), (sf.mul, 2, 3)])
@settings(max_examples=300, deadline=None)
def test_support_mask_prunes_only_zero_derivatives(leaves, program):
    pool = [_leaf(kind, v) for kind, v in leaves]
    for fn, i, j in program:
        got = _outcome(fn, *_step_args(fn, i, j, pool))
        if not isinstance(got, type):
            pool.append(got)
    tree_id = _tree_ids()
    for i in range(3):
        memo = {}
        for node in pool:
            got, want = node.diff(i), _unpruned_diff(node, i, memo)
            assert tree_id(got) == tree_id(want)
            assert (got is sf.ZERO) == (want is sf.ZERO)


def test_derivative_through_a_non_finite_constant_stays_nan():
    f = parse_expr("1e200*1e200*sin(y)", CHART)
    assert f.node.mask == -1
    d = f.diff(0).node
    assert type(d) is sf.Const and math.isnan(d.value)
    assert parse_expr("2*sin(y)", CHART).diff(0).node is sf.ZERO


def test_threads_share_one_node_per_coordinate_and_argument():
    """coord and the sin/cos/exp memo hand every thread of a pool the same
    node, with thread switches forced between bytecodes."""
    args = [sf.add(sf.coord(0), sf.const(float(k + 2))) for k in range(1000)]

    def build(_):
        return [(sf.coord(1000 + k), sf.sin(a), sf.cos(a), sf.exp(a)) for k, a in enumerate(args)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            built = list(pool.map(build, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    first = built[0]
    assert all(n is m for other in built[1:] for row, row0 in zip(other, first) for n, m in zip(row, row0))


# --------------------------------------------------------------------------
# Tapes compiled in creation order
# --------------------------------------------------------------------------

_DAG_KINDS = (sf.Add, sf.Sub, sf.Mul, sf.Neg, sf.Sin, sf.Cos)


def _dag_plan(rng, first, size):
    """size interior nodes (kind, operand ids); node id first + k takes its
    operands among the ids below it, so operands often repeat."""
    plan = []
    for k in range(size):
        kind = _DAG_KINDS[int(rng.integers(len(_DAG_KINDS)))]
        arity = 2 if issubclass(kind, sf._Binary) else 1
        plan.append((kind, [int(rng.integers(first + k)) for _ in range(arity)]))
    return plan


def _build_shuffled(plan, nodes, rng):
    """Build the plan's nodes on top of nodes (id -> node), each as soon as
    a random pick among those whose operands exist chooses it, with the node
    constructors, so neither folding nor the memo merges any of them."""
    first = len(nodes)
    waiting = list(range(len(plan)))
    while waiting:
        ready = [k for k in waiting if all(o in nodes for o in plan[k][1])]
        k = ready[int(rng.integers(len(ready)))]
        waiting.remove(k)
        kind, ops = plan[k]
        nodes[first + k] = kind(*(nodes[o] for o in ops))
    return nodes


def _dag_values(node, coords, memo):
    """Recursive reference: each node's batch operation on its operands'
    values, numbers for constants."""
    if node not in memo:
        kind = type(node)
        if kind is sf.Const:
            memo[node] = node.value
        elif kind is sf.Coord:
            memo[node] = coords[node.index]
        else:
            ops = sf._RULES[kind][0](node)
            memo[node] = sf._RULES[kind][1](*(_dag_values(k, coords, memo) for k in ops))
    return memo[node]


def _interior_nodes(roots):
    seen, todo = set(), list(roots)
    while todo:
        node = todo.pop()
        if node not in seen and type(node) not in (sf.Const, sf.Coord):
            seen.add(node)
            todo.extend(sf._RULES[type(node)][0](node))
    return seen


@pytest.mark.parametrize("seed", range(4))
def test_creation_order_tapes_compute_every_value_before_reading_it(seed):
    """Shared subtrees built in a shuffled order, then two threads building
    on them at once: the tape writes each register before reading it, never
    reuses one that still holds a live value, matches the recursive
    reference bitwise, and has one instruction per distinct interior node."""
    rng = np.random.default_rng(seed)
    leaves = [sf.coord(0), sf.coord(1), sf.coord(2), sf.Const(0.5), sf.Const(-1.25)]
    shared = _build_shuffled(_dag_plan(rng, len(leaves), 60), dict(enumerate(leaves)), rng)
    plans = [_dag_plan(rng, len(shared), 400) for _ in range(2)]
    rngs = [np.random.default_rng([seed, t]) for t in range(2)]

    def build(t):
        return _build_shuffled(plans[t], dict(shared), rngs[t])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            built = list(pool.map(build, range(2), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    tops = [nodes[max(nodes)] for nodes in built]
    # a join of both threads' nodes, nodes of one thread and of the shared
    # part, a coordinate and a constant
    roots = [sf.Add(*tops), *tops, built[0][len(shared) + 7], shared[len(shared) - 1]]
    roots += [leaves[1], leaves[3]]

    tape = sf.Tape(roots)
    template, loads, params, code, outputs = tape._compile()
    assert params == []
    assert len(code) == len(_interior_nodes(roots))

    # symbolic run: each register holds the id of the operation it computed
    interned = {}
    regs = [None if v is None else ("value", repr(v)) for v in template]
    for r, i in loads:
        regs[r] = ("coord", i)
    for op, out, a, b in code:
        assert regs[a] is not None and (b < 0 or regs[b] is not None)
        regs[out] = interned.setdefault((op, regs[a], regs[b] if b >= 0 else None), len(interned))
    ids = {}

    def expected(node):
        if node not in ids:
            kind = type(node)
            if kind is sf.Const:
                ids[node] = ("value", repr(node.value))
            elif kind is sf.Coord:
                ids[node] = ("coord", node.index)
            else:
                a, *b = (expected(k) for k in sf._RULES[kind][0](node))
                key = (sf._RULES[kind][1], a, b[0] if b else None)
                ids[node] = interned.setdefault(key, len(interned))
        return ids[node]

    assert [regs[r] for r in outputs] == [expected(n) for n in roots]

    points = rng.uniform(-4.0, 4.0, (7, 3))
    coords = tuple(np.ascontiguousarray(points[:, i]) for i in range(3))
    got = tape.run(coords, (), (7,))
    memo = {}
    with np.errstate(all="ignore"):
        for node, value in zip(roots, got):
            want = np.broadcast_to(np.asarray(_dag_values(node, coords, memo), dtype=float), (7,))
            assert value.tobytes() == np.ascontiguousarray(want).tobytes()


ONE_POINT = (0.1, 0.2, 0.3)
X = coordinate(CHART, "x")


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: PointEvaluator(CHART, ONE_POINT, [X]),
        lambda: X(ONE_POINT),
    ],
    ids=["PointEvaluator", "ScalarField.__call__"],
)
def test_single_point_is_rejected(evaluate):
    with pytest.raises(ValueError, match=r"\(N, 3\) batch"):
        evaluate()


def test_singular_division_names_first_offending_sample():
    f = 1.0 / sin_of(coordinate(CHART, "x"))
    points = [(1.0, 0.0, 0.0), (math.pi, 0.0, 0.0), (1.5, 0.0, 0.0), (0.0, 0.0, 0.0)]
    with pytest.raises(SingularEvaluationError, match=repr(math.sin(math.pi))):
        f(points)
    assert f(points[2:3]).tolist() == [1.0 / math.sin(1.5)]


def test_sample_points_are_python_floats():
    # a message that names a point prints 2.5, not np.float64(2.5)
    points = sample_points(CHART, 5, stream(3, "floats"))
    assert len(points) == 5
    assert all(type(p) is tuple and len(p) == 3 for p in points)
    assert all(type(v) is float for p in points for v in p)


def _per_draw_points(chart, n, rng):
    # one draw of dim values per point
    return [tuple(rng.uniform(0.0, 2.0 * math.pi, chart.dim)) for _ in range(n)]


def _per_draw_scalar(chart, rng, amplitude):
    # random_scalar with one draw per coefficient; the cross harmonic takes
    # its pair in increasing order, as a one-hot row over unordered pairs does
    coeff = lambda: rng.uniform(-amplitude, amplitude)
    node = sf.const(coeff())
    for i in range(chart.dim):
        node = sf.add(node, sf.mul(sf.const(coeff()), sf.sin(sf.coord(i))))
        node = sf.add(node, sf.mul(sf.const(coeff()), sf.cos(sf.coord(i))))
    m = int(rng.integers(0, chart.dim))
    node = sf.add(node, sf.mul(sf.const(coeff()), sf.cos(sf.mul(sf.const(2.0), sf.coord(m)))))
    j = int(rng.integers(0, chart.dim))
    k = int(rng.integers(0, chart.dim - 1))
    if k >= j:
        k += 1
    j, k = min(j, k), max(j, k)
    return sf.add(node, sf.mul(sf.const(coeff()), sf.sin(sf.add(sf.coord(j), sf.coord(k)))))


@pytest.mark.parametrize("dim", [3, 5, 6])
def test_batched_draws_take_the_per_draw_stream(dim):
    # repr prints every float so that it reads back to the same bits
    chart = torus(*(f"x{i}" for i in range(dim)))
    for seed in range(50):
        rng, ref = stream(seed, "draws"), stream(seed, "draws")
        assert repr(sample_points(chart, 7, rng)) == repr(_per_draw_points(chart, 7, ref))
        for amplitude in (1.0, 0.3):
            f = random_scalar(chart, Drawn(rng), amplitude)
            assert repr(f.node) == repr(_per_draw_scalar(chart, ref, amplitude))
        assert rng.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)


# The builders as they drew before parameters: each call draws from rng and
# builds constants, and the cross harmonic takes its pair in drawn order.


def _ref_scalar(chart, rng, amplitude=1.0):
    coeff = lambda: rng.uniform(-amplitude, amplitude)
    first = rng.uniform(-amplitude, amplitude, 2 * chart.dim + 1)
    node = sf.const(first[0])
    for i in range(chart.dim):
        node = sf.add(node, sf.mul(sf.const(first[2 * i + 1]), sf.sin(sf.coord(i))))
        node = sf.add(node, sf.mul(sf.const(first[2 * i + 2]), sf.cos(sf.coord(i))))
    m = int(rng.integers(0, chart.dim))
    node = sf.add(node, sf.mul(sf.const(coeff()), sf.cos(sf.mul(sf.const(2.0), sf.coord(m)))))
    if chart.dim >= 2:
        j = int(rng.integers(0, chart.dim))
        k = int(rng.integers(0, chart.dim - 1))
        if k >= j:
            k += 1
        node = sf.add(node, sf.mul(sf.const(coeff()), sf.sin(sf.add(sf.coord(j), sf.coord(k)))))
    return sf.ScalarField(chart, node)


def _ref_small_scalar(chart, rng, amplitude):
    j = int(rng.integers(0, chart.dim))
    k = int(rng.integers(0, chart.dim))
    node = sf.add(
        sf.const(rng.uniform(-amplitude, amplitude)),
        sf.add(
            sf.mul(sf.const(rng.uniform(-amplitude, amplitude)), sf.sin(sf.coord(j))),
            sf.mul(sf.const(rng.uniform(-amplitude, amplitude)), sf.cos(sf.coord(k))),
        ),
    )
    return sf.ScalarField(chart, node)


def _ref_z_form(s, k, rng, amplitude=1.0):
    out = None
    for idx in combinations(range(s.n_leaf), k):
        term = s.coframe[idx[0]]
        f = _ref_scalar(s.chart, rng, amplitude)
        for i in idx[1:]:
            term = wedge(term, s.coframe[i])
        term = term.scaled(f)
        out = term if out is None else out + term
    return out


def _ref_anticommuting_S(s, rng):
    n = s.n_leaf
    C = [[_ref_small_scalar(s.chart, rng, 0.03) for _ in range(n)] for _ in range(n)]
    JCJ = matrix_mul(s.chart, matrix_mul(s.chart, s.Jmat, C), s.Jmat)
    return [[C[r][c] + JCJ[r][c] for c in range(n)] for r in range(n)]


def _builder_fields(chart, s, draws):
    fields = [random_scalar(chart, draws), *random_vector_field(chart, draws, 0.6).components]
    fields += [f for k in (1, 2) for f in random_form(chart, k, draws).coeffs.values()]
    fields.append(small_scalar(chart, draws, 0.03))
    if s is not None:
        fields += random_z_form(s, 1, draws, amplitude=0.4).coeffs.values()
        fields += random_xi_field(s, draws, amplitude=0.5).components
        fields += [f for row in random_anticommuting_S(s, draws) for f in row]
    return fields


def _ref_builder_fields(chart, s, rng):
    fields = [_ref_scalar(chart, rng), *(_ref_scalar(chart, rng, 0.6) for _ in range(chart.dim))]
    for k in (1, 2):
        fields += [_ref_scalar(chart, rng) for _ in combinations(range(chart.dim), k)]
    fields.append(_ref_small_scalar(chart, rng, 0.03))
    if s is not None:
        fields += _ref_z_form(s, 1, rng, amplitude=0.4).coeffs.values()
        fields += s.from_xi_coefficients([_ref_scalar(chart, rng, 0.5) for _ in range(s.n_leaf)]).components
        fields += [f for row in _ref_anticommuting_S(s, rng) for f in row]
    return fields


@pytest.mark.parametrize("where", ["t3_twisted_shifted", "t5_product", 6])
def test_one_parameter_build_gives_every_instance_bitwise(where):
    """Every builder built once over Parameters, with K rows of values
    replayed from a stream, gives each instance's values bit for bit as K
    builds that draw constants from the same stream, and leaves the stream
    where they leave it."""
    s = None if where == 6 else builtin(where).structure
    chart = torus(*(f"x{i}" for i in range(where))) if s is None else s.chart
    draws = Parameters()
    fields = _builder_fields(chart, s, draws)
    tape = sf.Tape(f.node for f in fields)
    points = sample_points(chart, 2, stream("builders", "points"))
    K = 2
    for seed in range(50):
        rng, ref = stream(seed, "builders"), stream(seed, "builders")
        ev = PointEvaluator(chart, points, tape, draws.rows(rng, K))
        got = np.array([ev(f) for f in fields]).reshape(len(fields), K, len(points))
        builds = [_ref_builder_fields(chart, s, ref) for _ in range(K)]
        want = PointEvaluator(chart, points, [f for build in builds for f in build])
        for k, build in enumerate(builds):
            assert len(build) == len(fields)
            for f, g in zip(build, got[:, k]):
                assert want(f).tobytes() == g.tobytes()
        assert rng.uniform(0.0, 1.0) == ref.uniform(0.0, 1.0)



# Runners that build over Parameters but cannot be rebuilt with constants.
NOT_REBUILT = {
    "lemma.gauge_S": "it reads a draw back as an index, the frame vector each instance picks",
}


class _Logged(ResidualAccumulator):
    """An accumulator that keeps the two sides of every comparison as raw
    bytes, and logs (count, start, end) for each add_instances call: its
    instance count and the span of comparisons it made."""

    def __init__(self, points):
        super().__init__(points)
        self.sides = []
        self.calls = []

    def _compare(self, lhs, rhs):
        self.sides.append(tuple(np.asarray(side, dtype=float).tobytes() for side in (lhs, rhs)))
        return super()._compare(lhs, rhs)

    def add_instances(self, count, pairs):
        start = len(self.sides)
        super().add_instances(count, pairs)
        self.calls.append((count, start, len(self.sides)))
        return self


def _run_runner(spec, scenario, allocator):
    """spec's runner on scenario at 2 points and seed 42, as run_identity
    streams it, with suites.Parameters replaced by allocator."""
    streams = partial(stream, 42, scenario.name, spec.identity)
    acc = _Logged(sample_points(scenario.structure.chart, 2, streams("points")))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(suites, "Parameters", allocator)
        spec.runner(scenario, acc, streams)
    return acc


def _instance_sides(acc, counts, k):
    """The compared sides of instance k: each add_instances call's share of
    instance k, where counts[j] instances ran in call j of the parameter
    build; every comparison of a call of one instance or made outside a
    call; nothing of a call that had no instance k."""
    out, pos = [], 0
    for (count, start, end), c in zip(acc.calls, counts, strict=True):
        out += acc.sides[pos:start]
        if c == 1 or k < c:
            n = (end - start) // count
            share = k if count > 1 else 0
            out += acc.sides[start + share * n : start + (share + 1) * n]
        pos = end
    return out + acc.sides[pos:]


def _constant_build(rows, k):
    """An allocator for one build of instance k: the i-th one that the runner
    makes is a Drawn whose values are instance k's row of rows[i], and gives
    that row back as its one row of values.  An instance beyond rows[i]
    takes row 0; its calls are not compared."""
    made = iter(rows)

    class Constants(Drawn):
        def __init__(self):
            recorded = next(made)
            self.row = recorded[min(k, len(recorded) - 1)]
            super().__init__(iter(self.row.tolist()))

        def draw(self, count, values):
            return super().draw(count, lambda row: list(islice(row, count)))

        def rows(self, rng, instances):
            return self.row[None]

    return Constants


@pytest.mark.parametrize("name,rebuilt", [("t5_perturbedJ", 23), ("t3_twisted_shifted", 33)])
def test_one_parameter_build_gives_every_identity_bitwise(name, rebuilt):
    """Every registry identity whose runner builds over Parameters gives each
    instance's sides bit for bit as one build of that instance does, with its
    recorded row of parameter values as constants, so its samples too."""
    scenario = builtin(name)
    checked = []
    for spec in REGISTRY:
        if not spec.applies(scenario):
            continue
        rows = []

        class Recorded(Parameters):
            def rows(self, rng, instances):
                rows.append(super().rows(rng, instances))
                return rows[-1]

        acc = _run_runner(spec, scenario, Recorded)
        if spec.identity in NOT_REBUILT:
            assert rows, f"{spec.identity} does not build over Parameters"
            continue
        if not rows:
            continue
        counts = [count for count, _, _ in acc.calls]
        for k in range(max(map(len, rows))):
            one = _run_runner(spec, scenario, _constant_build(rows, k))
            assert _instance_sides(one, counts, k) == _instance_sides(acc, counts, k), (spec.identity, k)
        checked.append(spec.identity)
    assert len(checked) == rebuilt


def test_empty_batch_has_no_samples():
    f = parse_expr("sin(x) / (2 + cos(y))", CHART)
    assert f([]).shape == (0,)
    acc = ResidualAccumulator([]).add([f], 1.0)
    assert acc.samples == [] and acc.max_abs == 0.0


def test_exp_overflow_raises():
    f = parse_expr("exp(1000*x)", CHART)
    with pytest.raises(EvaluationRangeError, match="exp overflows at sample 1, argument 1000.0"):
        f([(0.1, 0.0, 0.0), (1.0, 0.0, 0.0)])
    with pytest.raises(EvaluationRangeError, match="sample 0"):
        f([(1.0, 0.0, 0.0)])
    with pytest.raises(EvaluationRangeError, match="power 3 overflows at sample 1"):
        parse_expr("(1e120*x)^3", CHART)([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)])
    for text in ("exp(750)", "sin(exp(700)*exp(700))", "(1e200)^2"):
        with pytest.raises(EvaluationRangeError, match="out of range"):
            parse_expr(text, CHART)


def test_import_leaves_recursion_limit_alone():
    src = os.path.dirname(os.path.dirname(leviflat.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); n = sys.getrecursionlimit(); "
        "import leviflat; assert sys.getrecursionlimit() == n"
    )
    assert subprocess.run([sys.executable, "-I", "-c", code]).returncode == 0
