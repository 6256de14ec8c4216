"""An independent oracle for symfield: sympy's diff and lambdify against
ScalarField.diff and tape evaluation, on the generated trees of
test_expr_fuzz at its points.  Skipped where sympy is not installed.

sympy's side is evaluated in 50-digit arithmetic, so its own rounding (it
reorders sums, folds constants and may underflow where the tape does not)
does not count.  The tape's side is compared within a bound on the rounding
error its float evaluation can pick up: a small multiple of machine epsilon
times the magnitudes the evaluation passes through.  That keeps cancelling
sums such as (x + 1e308) - 1e308 from counting as mismatches."""

import numpy as np
import pytest
from hypothesis import given, settings

from leviflat.errors import LeviFlatError
from leviflat.symfield import Add, Const, Coord, Cos, Div, Exp, Mul, Neg, Pow, ScalarField, Sin, Sub

from .test_expr_fuzz import CHART, POINTS, TREES, node_of

sympy = pytest.importorskip("sympy")
import mpmath  # noqa: E402  (installed with sympy)

SYMBOLS = sympy.symbols(CHART.names)
COLUMNS = tuple(np.array(POINTS).T)
# rounding errors of a few operations per magnitude bound, with room to spare
RELATIVE = 1e-12


def to_sympy(node, memo):
    """The sympy expression of a node and a bound on the magnitudes its float
    evaluation passes through, memoized on node objects: an id is reused once
    its node is freed, a node held as a key is not."""
    if node in memo:
        return memo[node]
    kind = type(node)
    if kind is Const:
        v = sympy.Float(node.value)
        out = v, abs(v)
    elif kind is Coord:
        v = SYMBOLS[node.index]
        out = v, abs(v)
    elif kind is Pow:
        a, ma = to_sympy(node.a, memo)
        v = a**node.n
        out = v, abs(v) + abs(node.n) * abs(a) ** (node.n - 1) * ma
    elif kind in (Neg, Sin, Cos, Exp):
        a, ma = to_sympy(node.a, memo)
        if kind is Neg:
            out = -a, ma
        elif kind is Exp:
            v = sympy.exp(a)
            out = v, abs(v) * (1 + ma)
        else:
            out = (sympy.sin if kind is Sin else sympy.cos)(a), 1 + ma
    else:
        (a, ma), (b, mb) = to_sympy(node.a, memo), to_sympy(node.b, memo)
        if kind in (Add, Sub):
            out = (a + b if kind is Add else a - b), ma + mb
        elif kind is Mul:
            out = a * b, abs(b) * ma + abs(a) * mb
        else:
            assert kind is Div
            out = a / b, ma / abs(b) + abs(a / b) * mb / abs(b)
    memo[node] = out
    return out


def in_floats(expr):
    """expr evaluated in floats by lambdify at POINTS, as an (N,) array."""
    with np.errstate(all="ignore"):
        values = sympy.lambdify(SYMBOLS, expr, "numpy")(*COLUMNS)
    return np.broadcast_to(np.asarray(values, dtype=float), (len(POINTS),))


def in_50_digits(expr):
    """expr evaluated in 50-digit arithmetic by lambdify at POINTS, rounded
    to an (N,) float array."""
    fn = sympy.lambdify(SYMBOLS, expr, "mpmath")
    with mpmath.workdps(50):
        return np.array([float(fn(*map(mpmath.mpf, p))) for p in POINTS])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(TREES)
def test_values_and_derivatives_match_sympy(tree):
    try:
        f = ScalarField(CHART, node_of(tree))
        fields = [f, *(f.diff(i) for i in range(CHART.dim))]
        ours = [g(POINTS) for g in fields]
    except LeviFlatError:
        return  # a package error is the fuzz tests' business
    memo = {}
    expr, _ = to_sympy(f.node, memo)
    theirs = [expr, *(sympy.diff(expr, x) for x in SYMBOLS)]
    for g, mine, other in zip(fields, ours, theirs):
        bound = RELATIVE * in_floats(to_sympy(g.node, memo)[1])
        want = in_50_digits(other)
        finite = np.isfinite(mine) & np.isfinite(want) & np.isfinite(bound)
        assert np.all(np.abs(mine[finite] - want[finite]) <= bound[finite]), (tree, g.node)
