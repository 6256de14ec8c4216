"""Generated expression text: parsing, differentiating along every
coordinate and evaluating on a seeded batch raise only package errors, and a
parsed expression evaluates bit for bit like the same tree built through the
factories."""

import math

from hypothesis import given, settings, strategies as st

from leviflat.errors import LeviFlatError
from leviflat.sampling import sample_points, stream
from leviflat.symfield import (
    Coord,
    ScalarField,
    add,
    const,
    cos,
    div,
    exp,
    mul,
    neg,
    parse_expr,
    powi,
    sin,
    sub,
    torus,
)

CHART = torus("x", "y", "t")
POINTS = [(0.0, 0.0, 0.0)] + sample_points(CHART, 15, stream(77, "expr_fuzz"))

NUMBERS = ["0", "1", "2.5", "0.3", "700", "1e308", "1e-300", "1e999", "pi"]
BINARY = {"+": add, "-": sub, "*": mul, "/": div}
UNARY = {"sin": sin, "cos": cos, "exp": exp}

# A tree is a leaf (a number or coordinate name) or a tuple whose first entry
# names the operation.
TREES = st.recursive(
    st.sampled_from(NUMBERS + list(CHART.names)),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(sorted(BINARY)), inner, inner),
        st.tuples(st.sampled_from(sorted(UNARY)), inner),
        st.tuples(st.just("neg"), inner),
        st.tuples(st.just("^"), inner, st.sampled_from([0, 1, 2, 3, -1, -2, 1000])),
    ),
    max_leaves=8,
)
# Text near the grammar: tokens of it in any order, and stray characters.
TOKENS = ["x", "y", "t", "s", "pi", "1", "0", ".5", "1e3", "2e", "+", "-", "*", "/", "^",
          "(", ")", ",", "sin", "cos", "exp", "log", " ", "_", "#", "1.2.3"]
NOISE = st.one_of(st.lists(st.sampled_from(TOKENS), max_size=10).map("".join), st.text(max_size=10))


def text_of(tree):
    if isinstance(tree, str):
        return tree
    op, *args = tree
    if op in BINARY:
        return f"({text_of(args[0])} {op} {text_of(args[1])})"
    if op in UNARY:
        return f"{op}({text_of(args[0])})"
    if op == "neg":
        return f"(-{text_of(args[0])})"
    return f"({text_of(args[0])})^{args[1]}"


def node_of(tree):
    """The tree built directly through the smart factories."""
    if isinstance(tree, str):
        if tree in CHART.names:
            return Coord(CHART.index(tree))
        return const(math.pi if tree == "pi" else float(tree))
    op, *args = tree
    if op in BINARY:
        return BINARY[op](node_of(args[0]), node_of(args[1]))
    if op in UNARY:
        return UNARY[op](node_of(args[0]))
    if op == "neg":
        return neg(node_of(args[0]))
    return powi(node_of(args[0]), args[1])


def outcome(build):
    """The values of the field and of its derivatives along every coordinate
    at the points, as bytes, or the type of the package error raised on the
    way; any other exception propagates."""
    try:
        f = build()
        return [g(POINTS).tobytes() for g in (f, *(f.diff(i) for i in range(CHART.dim)))]
    except LeviFlatError as exc:
        return type(exc)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(TREES.map(text_of), NOISE))
def test_expression_text_raises_only_package_errors(text):
    outcome(lambda: parse_expr(text, CHART))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(TREES)
def test_parsed_expression_evaluates_like_its_factory_tree(tree):
    parsed = outcome(lambda: parse_expr(text_of(tree), CHART))
    assert parsed == outcome(lambda: ScalarField(CHART, node_of(tree)))
