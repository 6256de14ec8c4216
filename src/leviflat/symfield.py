"""Symbolic scalar fields on periodic coordinate charts.

Fields are immutable expression trees over {constants, coordinates, +, -, *,
/, sin, cos, exp, integer powers} with exact differentiation.  Construction
goes through smart factories that fold constants and absorb 0/1, which keeps
the trees produced by repeated bracket/derivative composition small enough to
evaluate quickly.

Evaluation is batched: the DAG of every field a check needs is linearised
into one tape, in topological order, and each tape entry is one numpy
operation over all sample points at once.

A random coefficient is a parameter leaf (Param): a tape loads it from an
input column of its own, so one tree, built and compiled once, serves every
instance of a random field.  A point of a batch carries the parameter values
of its instance after its coordinates.  A parameter-only subtree stands for the
constant that folding would have made of it and rounds as folding does,
except sin and cos, which numpy computes: no builder takes the sine of a
coefficient.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArityError,
    ChartMismatchError,
    EvaluationRangeError,
    ExprSyntaxError,
    SingularEvaluationError,
    UnknownIdentifierError,
)

TWO_PI = 2.0 * math.pi

# Division guard: |denominator| below this raises SingularEvaluationError.
DIVISION_GUARD = 1e-12


@dataclass(frozen=True)
class Chart:
    """A single global periodic chart; every built-in chart is a flat torus."""

    names: tuple
    periodic: tuple = ()

    def __post_init__(self):
        if not self.names:
            raise ValueError("chart needs at least one coordinate")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"coordinate names not unique: {self.names}")
        if not self.periodic:
            object.__setattr__(self, "periodic", (True,) * len(self.names))
        if len(self.periodic) != len(self.names):
            raise ValueError("periodic flags must match coordinate count")

    @property
    def dim(self):
        return len(self.names)

    def index(self, name):
        try:
            return self.names.index(name)
        except ValueError:
            raise UnknownIdentifierError(
                f"unknown coordinate {name!r} on chart {self.names}"
            ) from None

    def extend(self, name):
        """Chart with one extra (non-periodic) coordinate, for family parameters."""
        return Chart(self.names + (name,), self.periodic + (False,))


def torus(*names):
    return Chart(tuple(names))


# --------------------------------------------------------------------------
# Expression nodes
# --------------------------------------------------------------------------


class Node:
    """An expression node.  mask has bit i set when the subtree mentions
    coordinate i; a non-finite constant sets every bit (-1), since inf * 0
    folds to NaN, not to zero."""

    __slots__ = ("_d", "mask")

    def diff(self, i):
        # with finite constants, every rule folds zero operand derivatives
        # to ZERO, so a subtree without coordinate i has derivative ZERO
        if not self.mask >> i & 1:
            return ZERO
        cache = self._d
        d = cache.get(i)
        if d is None:
            d = cache[i] = self._diff(i)
        return d


class Const(Node):
    __slots__ = ("value",)

    def __init__(self, value):
        self._d = {}
        self.value = v = float(value)
        self.mask = 0 if math.isfinite(v) else -1

    def _diff(self, i):
        return ZERO

    def __repr__(self):
        return repr(self.value)


class Coord(Node):
    __slots__ = ("index",)

    def __init__(self, index):
        self._d = {}
        self.index = index
        self.mask = 1 << index

    def _diff(self, i):
        return ONE if i == self.index else ZERO

    def __repr__(self):
        return f"x{self.index}"


class Param(Node):
    """A random coefficient, loaded from parameter column index of a tape
    run.  It mentions no coordinate, so its mask is 0 and its derivative
    ZERO; an interior node of mask 0 is a parameter expression."""

    __slots__ = ("index",)

    def __init__(self, index):
        self._d = {}
        self.index = index
        self.mask = 0

    def _diff(self, i):
        return ZERO

    def __repr__(self):
        return f"p{self.index}"


class _Unary(Node):
    __slots__ = ("a",)

    def __init__(self, a):
        self._d = {}
        self.a = a
        self.mask = a.mask

    def __repr__(self):
        return f"{self.symbol}({self.a!r})"


class _Binary(Node):
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self._d = {}
        self.a, self.b = a, b
        self.mask = a.mask | b.mask

    def __repr__(self):
        return f"({self.a!r} {self.symbol} {self.b!r})"


class Add(_Binary):
    __slots__ = ()
    symbol = "+"

    def _diff(self, i):
        return add(self.a.diff(i), self.b.diff(i))


class Sub(_Binary):
    __slots__ = ()
    symbol = "-"

    def _diff(self, i):
        return sub(self.a.diff(i), self.b.diff(i))


class Mul(_Binary):
    __slots__ = ()
    symbol = "*"

    def _diff(self, i):
        return add(mul(self.a.diff(i), self.b), mul(self.a, self.b.diff(i)))


class Div(_Binary):
    __slots__ = ()
    symbol = "/"

    def _diff(self, i):
        num = sub(mul(self.a.diff(i), self.b), mul(self.a, self.b.diff(i)))
        return div(num, mul(self.b, self.b))


class Neg(_Unary):
    __slots__ = ()
    symbol = "-"

    def _diff(self, i):
        return neg(self.a.diff(i))


class Pow(Node):
    __slots__ = ("a", "n")

    def __init__(self, a, n):
        self._d = {}
        self.a, self.n = a, int(n)
        self.mask = a.mask

    def _diff(self, i):
        return mul(mul(Const(self.n), powi(self.a, self.n - 1)), self.a.diff(i))

    def __repr__(self):
        return f"({self.a!r} ^ {self.n})"


class Sin(_Unary):
    __slots__ = ()
    symbol = "sin"

    def _diff(self, i):
        return mul(cos(self.a), self.a.diff(i))


class Cos(_Unary):
    __slots__ = ()
    symbol = "cos"

    def _diff(self, i):
        return neg(mul(sin(self.a), self.a.diff(i)))


class Exp(_Unary):
    __slots__ = ()
    symbol = "exp"

    def _diff(self, i):
        return mul(self, self.a.diff(i))


ZERO = Const(0.0)
ONE = Const(1.0)


# Smart factories: constant folding plus 0/1 absorption.  No CAS-style
# normal forms are attempted.  Each operand's type is tested once; the rules
# apply in this order: fold two constants, absorb 0 and 1, then (mul) keep
# the constant factor on the left and fold it into a nested constant factor.
# A parameter expression (mask 0) takes a constant's place in mul and div,
# and where two constants would fold it builds the node that computes the
# folded value, so a tree over parameters rounds as its constant copy does.


def _folded(fn, *args):
    """const(fn(*args)); a result out of range raises EvaluationRangeError."""
    try:
        return const(fn(*args))
    except (OverflowError, ValueError):
        text = ", ".join(map(repr, args))
        raise EvaluationRangeError(f"{fn.__name__}({text}) is out of range") from None


def is_zero_node(node):
    return type(node) is Const and node.value == 0.0


def const(v):
    if v == 0.0:
        return ZERO
    if v == 1.0:
        return ONE
    return Const(v)


def add(a, b):
    if type(a) is Const:
        if type(b) is Const:
            return const(a.value + b.value)
        if a.value == 0.0:
            return b
    elif type(b) is Const and b.value == 0.0:
        return a
    return Add(a, b)


def sub(a, b):
    if type(b) is Const:
        if type(a) is Const:
            return const(a.value - b.value)
        if b.value == 0.0:
            return a
    elif type(a) is Const and a.value == 0.0:
        return neg(b)
    if a is b:
        return ZERO
    return Sub(a, b)


def mul(a, b):
    if type(a) is Const:
        if type(b) is Const:
            return const(a.value * b.value)
    elif type(b) is Const:
        a, b = b, a
    elif a.mask and b.mask:
        return Mul(a, b)
    elif a.mask or b.mask:
        # one parameter expression: it is the constant factor
        return _scaled(b, a) if a.mask else _scaled(a, b)
    else:
        # two parameter expressions: a product of constants
        return Mul(a, b)
    # a is the one constant factor
    v = a.value
    if v == 0.0:
        return ZERO
    if v == 1.0:
        return b
    return Mul(a, b) if not b.mask else _scaled(a, b)


def _scaled(a, b):
    """a * b for a constant factor a (a Const or a parameter expression) and
    a b that mentions a coordinate: a folds into b's constant factor."""
    if type(b) is Mul and (type(b.a) is Const or not b.a.mask):
        return mul(mul(a, b.a), b.b)
    return Mul(a, b)


def div(a, b):
    if type(b) is Const:
        if b.value == 0.0:
            raise SingularEvaluationError("symbolic division by constant zero")
        if type(a) is Const:
            return const(a.value / b.value)
        return mul(const(1.0 / b.value), a)
    if type(a) is Const and a.value == 0.0:
        return ZERO
    if not b.mask and a.mask and type(a) is not Const:
        # a parameter divisor: its reciprocal is the constant factor
        return mul(Div(ONE, b), a)
    return Div(a, b)


def dot(xs, ys):
    """The sum of mul(x, y) over two node iterables of equal length, added
    left to right from the first product; ZERO when they are empty.  Every
    symbolic sum of products goes through it: starting from ZERO instead
    would copy a first product that folds to a constant into a new Const."""
    products = map(mul, xs, ys)
    out = next(products, ZERO)
    for term in products:
        out = add(out, term)
    return out


def neg(a):
    if type(a) is Const:
        return const(-a.value)
    if type(a) is Neg:
        return a.a
    return Neg(a)


def powi(a, n):
    n = int(n)
    if n == 0:
        return ONE
    if n == 1:
        return a
    if type(a) is Const:
        if n < 0 and a.value == 0.0:
            raise SingularEvaluationError("symbolic negative power of constant zero")
        return _folded(operator.pow, a.value, n)
    return Pow(a, n)


# The one Coord node of each index, so fields built apart share their
# coordinates and, through the memo below, the sin/cos/exp of them.
_COORDS = {}


def coord(i):
    node = _COORDS.get(i)
    return node if node is not None else _COORDS.setdefault(i, Coord(i))


def _unary(kind, a):
    """The one kind(a) node, kept in a's derivative cache under its type:
    the same argument gives the same node.  neg is not memoized: it saves
    little and holds on to more memory."""
    cache = a._d
    node = cache.get(kind)
    return node if node is not None else cache.setdefault(kind, kind(a))


def sin(a):
    if type(a) is Const:
        return _folded(math.sin, a.value)
    return _unary(Sin, a)


def cos(a):
    if type(a) is Const:
        return _folded(math.cos, a.value)
    return _unary(Cos, a)


def exp(a):
    if type(a) is Const:
        return _folded(math.exp, a.value)
    return _unary(Exp, a)


# --------------------------------------------------------------------------
# ScalarField: chart + expression
# --------------------------------------------------------------------------


class ScalarField:
    """Immutable smooth function on a chart with exact differentiation."""

    __slots__ = ("chart", "node")

    def __init__(self, chart, node):
        self.chart = chart
        self.node = node

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.chart is not self.chart and other.chart != self.chart:
                raise ChartMismatchError("scalar fields on different charts")
            return other.node
        if isinstance(other, (int, float)):
            return const(float(other))
        return NotImplemented

    def __add__(self, other):
        node = self._coerce(other)
        return NotImplemented if node is NotImplemented else ScalarField(self.chart, add(self.node, node))

    __radd__ = __add__

    def __sub__(self, other):
        node = self._coerce(other)
        return NotImplemented if node is NotImplemented else ScalarField(self.chart, sub(self.node, node))

    def __rsub__(self, other):
        node = self._coerce(other)
        return NotImplemented if node is NotImplemented else ScalarField(self.chart, sub(node, self.node))

    def __mul__(self, other):
        node = self._coerce(other)
        return NotImplemented if node is NotImplemented else ScalarField(self.chart, mul(self.node, node))

    __rmul__ = __mul__

    def __truediv__(self, other):
        node = self._coerce(other)
        return NotImplemented if node is NotImplemented else ScalarField(self.chart, div(self.node, node))

    def __rtruediv__(self, other):
        node = self._coerce(other)
        return NotImplemented if node is NotImplemented else ScalarField(self.chart, div(node, self.node))

    def __neg__(self):
        return ScalarField(self.chart, neg(self.node))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ArityError("only integer powers are supported")
        return ScalarField(self.chart, powi(self.node, n))

    # -- calculus ------------------------------------------------------------

    def diff(self, i):
        if not 0 <= i < self.chart.dim:
            raise IndexError(f"coordinate index {i} out of range for dim {self.chart.dim}")
        return ScalarField(self.chart, self.node.diff(i))

    def __call__(self, points):
        """Values at an (N, dim) batch of points, as an (N,) array."""
        return PointEvaluator(self.chart, points, (self,))(self)

    @property
    def is_zero(self):
        return is_zero_node(self.node)

    def __repr__(self):
        return f"ScalarField({self.node!r})"


def constant(chart, v):
    return ScalarField(chart, const(float(v)))


def exp_of(f):
    return ScalarField(f.chart, exp(f.node))


# --------------------------------------------------------------------------
# Batch evaluation: DAGs linearised into tapes of numpy operations
# --------------------------------------------------------------------------


def point_batch(chart, points):
    """points as a float (N, dim + P) array: each point's dim coordinates,
    then the values of its P parameters; an empty sequence is an empty
    batch."""
    pts = np.array(points, dtype=float)
    if pts.size == 0:
        pts = pts.reshape(0, chart.dim)
    if pts.ndim != 2 or pts.shape[1] < chart.dim:
        raise ValueError(
            f"points must be an (N, {chart.dim}) batch, with any parameter values after"
            f" the coordinates, got shape {pts.shape}"
        )
    return pts


def first_flagged(bad):
    """Index of the first True entry of a boolean batch, in point order
    (instance by instance for a batch of instances), or None."""
    return int(np.argmax(bad)) if bad.any() else None


def _div(a, b):
    k = first_flagged(np.abs(b) < DIVISION_GUARD)
    if k is not None:
        raise SingularEvaluationError(f"division by {float(b.flat[k])!r}")
    return a / b


def _each(fn, a, name):
    """fn element by element over Python floats; an OverflowError becomes an
    EvaluationRangeError naming the first sample that overflows."""
    values = a.ravel().tolist()
    try:
        return np.array([fn(v) for v in values]).reshape(a.shape)
    except OverflowError:
        pass
    for k, v in enumerate(values):
        try:
            fn(v)
        except OverflowError:
            raise EvaluationRangeError(f"{name} overflows at sample {k}, argument {v!r}") from None


def _pow(a, n):
    # Python's float power, bit for bit unlike numpy's, overflows with an error
    k = first_flagged(np.abs(a) < DIVISION_GUARD) if n < 0 else None
    if k is not None:
        raise SingularEvaluationError(f"negative power of {float(a.flat[k])!r}")
    return _each(lambda v: v**n, a, f"power {n}")


def _exp(a):
    # math.exp: numpy's exp differs from it by an ulp on some inputs, and
    # math.exp overflows with an error where numpy gives inf
    return _each(math.exp, a, "exp")


def _a(node):
    return (node.a,)


_ab = operator.attrgetter("a", "b")
_an = operator.attrgetter("a", "n")

# node type -> (operands, batch operation, smart factory).  Operands are
# child nodes, plus the integer exponent of a power.
_RULES = {
    Add: (_ab, operator.add, add),
    Sub: (_ab, operator.sub, sub),
    Mul: (_ab, operator.mul, mul),
    Div: (_ab, _div, div),
    Neg: (_a, operator.neg, neg),
    Pow: (_an, _pow, powi),
    Sin: (_a, np.sin, sin),
    Cos: (_a, np.cos, cos),
    Exp: (_a, _exp, exp),
}


def _topological(roots):
    """Distinct nodes under the roots, each after its operands, in the order
    a depth-first walk pushing operands in _RULES order finishes them: the
    DAG alone fixes it.  Also returns, for each interior node, its rule and
    operands (None for leaves), and how many entries use each node."""
    order = []
    info = {}
    uses = {}
    # (node, True) comes back off the stack once the node's operands are done
    stack = [(root, False) for root in roots]
    push, pop, done, rules = stack.append, stack.pop, order.append, _RULES
    while stack:
        node, finished = pop()
        if finished:
            done(node)
            continue
        if node in info:
            continue
        rule = rules.get(type(node))
        if rule is None:
            info[node] = None
            done(node)
            continue
        ops = rule[0](node)
        info[node] = (rule, ops)
        push((node, True))
        for k in ops:
            if type(k) is not int:
                uses[k] = uses.get(k, 0) + 1
                if k not in info:
                    push((k, False))
    return order, info, uses


class Tape:
    """The DAG of some root nodes as a straight-line program, compiled on the
    first run: one entry per distinct node, in _topological's order, which
    no thread's build order moves.  An interior value's register is reused
    once its last consumer has run, so only the roots' values outlive a run.
    A tape compiles once and runs on any number of point batches and
    parameter values.  Of two entries that would each raise, a division
    guard and an overflow, the first in that order is the error reported."""

    __slots__ = ("roots", "program")

    def __init__(self, roots):
        self.roots = dict.fromkeys(roots)
        self.program = None

    def _compile(self):
        order, info, uses = _topological(self.roots)
        # a root's register and a leaf's are never reused: neither is counted
        for root in self.roots:
            uses.pop(root, None)
        template, loads, params, code, free = [], [], [], [], []
        reg = {}
        for node in order:
            entry = info[node]
            if entry is None:
                uses.pop(node, None)
                if type(node) is Coord:
                    loads.append((len(template), node.index))
                elif type(node) is Param:
                    params.append((len(template), node.index))
                reg[node] = len(template)
                template.append(getattr(node, "value", None))
                continue
            rule, ops = entry
            k = ops[0]
            a = reg[k]
            left = uses.get(k)
            if left == 1:
                free.append(a)
            elif left:
                uses[k] = left - 1
            b = -1
            if len(ops) == 2:
                k = ops[1]
                if type(k) is int:
                    b = len(template)
                    template.append(k)
                else:
                    b = reg[k]
                    left = uses.get(k)
                    if left == 1:
                        free.append(b)
                    elif left:
                        uses[k] = left - 1
            if free:
                out = free.pop()
            else:
                out = len(template)
                template.append(None)
            reg[node] = out
            code.append((rule[1], out, a, b))
        return template, loads, params, code, [reg[r] for r in self.roots]

    def run(self, coords, params, shape):
        """Root values, as arrays of shape, at the N points whose coordinate
        columns are coords: shape (N,), with parameter k's (N,) column
        params[k], or (K, N) for K instances, with params[k] the (K, 1)
        column of its values, shared by the points."""
        if self.program is None:
            self.program = self._compile()
        template, loads, param_loads, code, outputs = self.program
        regs = list(template)
        for r, i in loads:
            regs[r] = coords[i]
        for r, k in param_loads:
            regs[r] = params[k]
        with np.errstate(all="ignore"):
            for op, out, a, b in code:
                regs[out] = op(regs[a]) if b < 0 else op(regs[a], regs[b])
        # a root's register holds a number, or an array that broadcasts
        return [
            v if isinstance(v, np.ndarray) and v.shape == shape else np.array(np.broadcast_to(v, shape))
            for v in (regs[r] for r in outputs)
        ]


class PointEvaluator:
    """Evaluates the fields it is given (or the roots of a Tape) at an (N,
    dim + P) batch of points, together, through one tape, on the first call;
    each field's values are an (N,) array.  It answers for those fields only.

    The fields' parameter values follow each point's coordinates.  Or rows,
    a (K, P) array, holds K instances' values, each shared by every point:
    the evaluator then answers for the K*N samples, instance by instance, and
    a subtree without parameters is computed once for all K."""

    __slots__ = ("coords", "params", "shape", "zero", "tape", "values")

    def __init__(self, chart, points, fields, rows=()):
        pts = point_batch(chart, points)
        # coordinate columns, periodic ones reduced modulo 2*pi
        self.coords = tuple(
            np.remainder(pts[:, i], TWO_PI) if per else np.ascontiguousarray(pts[:, i])
            for i, per in enumerate(chart.periodic)
        )
        if len(rows) and len(rows[0]):
            # (K, 1) parameter columns broadcast against (N,) coordinates
            self.params = np.asarray(rows, dtype=float).T[:, :, None]
            self.shape = (len(rows), len(pts))
        else:
            self.params = pts[:, chart.dim :].T
            self.shape = (len(pts),)
        # the values of the zero field
        self.zero = np.zeros(math.prod(self.shape))
        self.tape = fields if isinstance(fields, Tape) else Tape(f.node for f in fields)
        self.values = None

    def __call__(self, f):
        if self.values is None:
            values = self.tape.run(self.coords, self.params, self.shape)
            if len(self.shape) > 1:
                # K instances' values of a field, instance by instance
                values = [v.reshape(-1) for v in values]
            self.values = dict(zip(self.tape.roots, values))
        value = self.values.get(f.node)
        if value is None:
            # not the node's repr: it expands the DAG into a tree
            raise LookupError("field was not given to this evaluator")
        return value


def substitute(node, images):
    """node with each coordinate whose index is a key of images replaced by
    that node: the DAG rebuilt over _topological through the smart
    factories, children before parents.  A subtree that mentions none of
    the replaced coordinates is kept as it is.  The one rule for a change of
    coordinates: a family's fields at a time, a pullback along a map."""
    order, info, _ = _topological([node])
    new = {}
    for n in order:
        entry = info[n]
        if entry is None:
            new[n] = images.get(n.index, n) if type(n) is Coord else n
            continue
        rule, ops = entry
        args = [k if type(k) is int else new[k] for k in ops]
        new[n] = n if all(a is k for a, k in zip(args, ops)) else rule[2](*args)
    return new[node]


# --------------------------------------------------------------------------
# Expression parser: precedence ^  >  unary-  >  * /  >  + -
# --------------------------------------------------------------------------

_FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp}
_CONSTANTS = {"pi": math.pi}
_BINARY = {"+": add, "-": sub, "*": mul, "/": div}
# After any whitespace: a number in ASCII digits (float rejects '²'), a name,
# an operator or any other character.  \w also admits numerals such as '½',
# so _tokens checks that a name starts with a letter or '_'.
_TOKEN = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<name>\w+)|(?P<op>[-+*/^(),])|(?P<other>\S))"
)


def _tokens(text):
    """The (kind, text, position) triples of text, closed by ("end", "",
    len(text)); kind is "num", "name" or the operator character itself."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        tok, pos = m[kind], m.start(kind)
        if kind == "other" or (kind == "name" and tok[0] != "_" and not tok[0].isalpha()):
            raise ExprSyntaxError(f"unexpected character {tok[0]!r}", pos)
        tokens.append((tok if kind == "op" else kind, tok, pos))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text, chart):
        self.tokens = _tokens(text)
        self.cursor = 0
        self.chart = chart

    def peek(self):
        return self.tokens[self.cursor]

    def next(self):
        tok = self.tokens[self.cursor]
        self.cursor += 1
        return tok

    def parse(self):
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError(f"unexpected token {val!r}", pos)
        return node

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            node = _BINARY[self.next()[0]](node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            node = _BINARY[self.next()[0]](node, self.unary())
        return node

    def unary(self):
        kind = self.peek()[0]
        if kind not in ("+", "-"):
            return self.power()
        self.next()
        return neg(self.unary()) if kind == "-" else self.unary()

    def power(self):
        base = self.atom()
        kind, _, pos = self.peek()
        if kind != "^":
            return base
        self.next()
        sign = 1
        kind, val, pos = self.next()
        if kind == "-":
            sign = -1
            kind, val, pos = self.next()
        if kind != "num" or any(ch in val for ch in ".eE"):
            raise ExprSyntaxError("exponent must be an integer literal", pos)
        return powi(base, sign * int(val))

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return const(float(val))
        if kind == "(":
            node = self.expr()
            kind, _, pos = self.next()
            if kind != ")":
                raise ExprSyntaxError("expected ')'", pos)
            return node
        if kind == "name":
            if self.peek()[0] == "(":
                fn = _FUNCTIONS.get(val)
                if fn is None:
                    raise UnknownIdentifierError(f"unknown function {val!r}")
                self.next()
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.next()
                    args.append(self.expr())
                kind, _, pos = self.next()
                if kind != ")":
                    raise ExprSyntaxError("expected ')'", pos)
                if len(args) != 1:
                    raise ArityError(f"{val} takes 1 argument, got {len(args)}")
                return fn(args[0])
            if val in self.chart.names:
                return coord(self.chart.index(val))
            if val in _CONSTANTS:
                return const(_CONSTANTS[val])
            raise UnknownIdentifierError(f"unknown identifier {val!r} on chart {self.chart.names}")
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)


def parse_expr(text, chart):
    """Parse infix expression text into a ScalarField on the chart."""
    try:
        return ScalarField(chart, _Parser(text, chart).parse())
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply", 0) from None
