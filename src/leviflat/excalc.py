"""Vector fields and differential forms with the classical operators.

Forms are stored sparsely on strictly increasing multi-indices, so
antisymmetry holds by construction.  All operations are pure functions over
immutable values.
"""

from __future__ import annotations

import operator
from functools import cache
from itertools import combinations, permutations

import numpy as np

from .errors import ChartMismatchError
from .symfield import (
    ONE,
    ZERO,
    Const,
    PointEvaluator,
    ScalarField,
    add,
    constant,
    div,
    dot,
    is_zero_node,
    mul,
    neg,
    sub,
)


def as_field(chart, v):
    if isinstance(v, ScalarField):
        if v.chart is not chart and v.chart != chart:
            raise ChartMismatchError("fields on different charts")
        return v
    return constant(chart, v)


def _merge_sign(left, right):
    """Merge two strictly increasing index tuples.

    Returns (sign, merged) or (0, None) when they overlap.
    """
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        a, b = left[i], right[j]
        if a == b:
            return 0, None
        if a < b:
            merged.append(a)
            i += 1
        else:
            # right[j] jumps over the remaining len(left) - i entries
            sign *= -1 if (len(left) - i) % 2 else 1
            merged.append(b)
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


def _same_chart(chart, args):
    """Raise ChartMismatchError unless every VectorField of args is on chart."""
    if any(arg.chart is not chart and arg.chart != chart for arg in args):
        raise ChartMismatchError("form applied to vector fields on another chart")


def vector_of_nodes(chart, nodes):
    """The VectorField whose components have these nodes.  The nodes are not
    re-validated: they come from the factories, on the chart."""
    V = object.__new__(VectorField)
    V.chart = chart
    V.components = tuple([ScalarField(chart, node) for node in nodes])
    return V


def _form_of_terms(chart, degree, terms):
    """The DifferentialForm whose coefficients sum the (sign, index, node)
    terms, unvalidated: the one rule for a form's coefficients.  Each term is
    negated where sign < 0 and added at its index in the order given;
    literal-zero terms and sums are dropped.  The coefficients are stored in
    increasing index order, so no later sum depends on which were zero."""
    sums = {}
    for sign, idx, term in terms:
        if sign < 0:
            term = neg(term)
        if is_zero_node(term):
            continue
        sums[idx] = add(sums[idx], term) if idx in sums else term
    omega = object.__new__(DifferentialForm)
    omega.chart = chart
    omega.degree = degree
    omega.coeffs = {
        idx: ScalarField(chart, sums[idx]) for idx in sorted(sums) if not is_zero_node(sums[idx])
    }
    return omega


def _support(V):
    """V's nonzero component nodes and their coordinate indices: V(f) takes
    the derivatives of f along these only, so no other one is built."""
    live = [i for i, c in enumerate(V.components) if not is_zero_node(c.node)]
    return [V.components[i].node for i in live], live


def _derivative(support, node):
    """The node of V(f), for the _support of V and the node of f."""
    comps, live = support
    return dot(comps, [node.diff(i) for i in live])


class VectorField:
    """Vector field as a tuple of ScalarField chart components."""

    __slots__ = ("chart", "components")

    def __init__(self, chart, components):
        comps = tuple(as_field(chart, c) for c in components)
        if len(comps) != chart.dim:
            raise ValueError("component count must equal chart dim")
        self.chart = chart
        self.components = comps

    def __add__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        if other.chart != self.chart:
            raise ChartMismatchError("vector fields on different charts")
        return vector_of_nodes(
            self.chart, [add(a.node, b.node) for a, b in zip(self.components, other.components)]
        )

    def __sub__(self, other):
        if not isinstance(other, VectorField):
            return NotImplemented
        if other.chart != self.chart:
            raise ChartMismatchError("vector fields on different charts")
        return vector_of_nodes(
            self.chart, [sub(a.node, b.node) for a, b in zip(self.components, other.components)]
        )

    def __neg__(self):
        return vector_of_nodes(self.chart, [neg(a.node) for a in self.components])

    def scaled(self, f):
        """Multiply by a ScalarField or number."""
        f = as_field(self.chart, f).node
        return vector_of_nodes(self.chart, [mul(f, a.node) for a in self.components])

    def __rmul__(self, f):
        return self.scaled(f)

    def apply(self, f):
        """Directional derivative V(f) as a ScalarField."""
        return ScalarField(self.chart, _derivative(_support(self), as_field(self.chart, f).node))

    def at(self, points, ev=None):
        """Numeric components at an (N, dim) batch of points, as a (dim, N)
        array."""
        ev = ev or PointEvaluator(self.chart, points, self.components)
        return np.array([ev(c) for c in self.components])

    def __repr__(self):
        return f"VectorField({self.components!r})"


def zero_vector(chart):
    return VectorField(chart, [0.0] * chart.dim)


class DifferentialForm:
    """Degree-k form with coefficients on strictly increasing index tuples."""

    __slots__ = ("chart", "degree", "coeffs")

    def __init__(self, chart, degree, coeffs):
        if degree < 0:
            raise ValueError("negative degree")
        self.chart = chart
        self.degree = degree
        clean = {}
        for idx, f in coeffs.items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise ValueError(f"index {idx} has wrong length for degree {degree}")
            if any(a >= b for a, b in zip(idx, idx[1:])):
                raise ValueError(f"index {idx} is not strictly increasing")
            if idx and idx[-1] >= chart.dim:
                raise ValueError(f"index {idx} out of range for dim {chart.dim}")
            f = as_field(chart, f)
            if not f.is_zero:
                clean[idx] = f
        self.coeffs = dict(sorted(clean.items()))

    def coefficient(self, idx):
        return self.coeffs.get(tuple(idx), ScalarField(self.chart, ZERO))

    def __add__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        if other.chart != self.chart or other.degree != self.degree:
            raise ChartMismatchError("cannot add forms of different chart/degree")
        terms = ((1, idx, f.node) for form in (self, other) for idx, f in form.coeffs.items())
        return _form_of_terms(self.chart, self.degree, terms)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        # each term is its coefficient's negation, not a -1 sign: a rule that
        # drops the signs must not drop this one
        terms = ((1, i, neg(f.node)) for i, f in self.coeffs.items())
        return _form_of_terms(self.chart, self.degree, terms)

    def scaled(self, f):
        f = as_field(self.chart, f).node
        terms = ((1, i, mul(f, g.node)) for i, g in self.coeffs.items())
        return _form_of_terms(self.chart, self.degree, terms)

    def __rmul__(self, f):
        return self.scaled(f)

    def apply_symbolic(self, args):
        """Evaluate on symbolic VectorField arguments, returning a ScalarField."""
        if len(args) != self.degree:
            raise ValueError(f"degree {self.degree} form applied to {len(args)} arguments")
        _same_chart(self.chart, args)
        rows = [[c.node for c in arg.components] for arg in args]
        minors = [minor(rows, idx, _NODE_RING) for idx in self.coeffs]
        return ScalarField(self.chart, dot([f.node for f in self.coeffs.values()], minors))

    def at(self, points, numeric_args, ev=None):
        """Values, an (N,) array, at an (N, dim) batch of points on numeric
        argument vectors: sequences of (N,) component arrays."""
        if len(numeric_args) != self.degree:
            raise ValueError(f"degree {self.degree} form applied to {len(numeric_args)} arguments")
        ev = ev or PointEvaluator(self.chart, points, self.coeffs.values())
        total = ev.zero
        for idx, f in self.coeffs.items():
            total = total + ev(f) * minor(numeric_args, idx)
        return total

    def __repr__(self):
        return f"DifferentialForm(deg={self.degree}, {self.coeffs!r})"


class XiValuedForm:
    """(0,p)-form on the frame of xi, its values stored on increasing frame
    tuples: VectorFields in xi for a xi-valued form, ScalarFields (the real
    part; the imaginary part is the real part at a J-rotated first argument)
    for a scalar one.

    Values on arbitrary xi-arguments come from multilinear expansion; the
    antilinearity property is a checkable residual, not an enforcement.
    """

    __slots__ = ("degree", "values")

    def __init__(self, degree, values):
        self.degree = degree
        self.values = {tuple(idx): v for idx, v in values.items()}

    def value(self, idx):
        return self.values[tuple(idx)]

    def __add__(self, other):
        if other.degree != self.degree:
            raise ValueError("cannot add xi-forms of different degree")
        return XiValuedForm(
            self.degree,
            {idx: self.values[idx] + other.values[idx] for idx in self.values},
        )

    def __sub__(self, other):
        if other.degree != self.degree:
            raise ValueError("cannot subtract xi-forms of different degree")
        return XiValuedForm(
            self.degree,
            {idx: self.values[idx] - other.values[idx] for idx in self.values},
        )

    def __neg__(self):
        return XiValuedForm(self.degree, {idx: -v for idx, v in self.values.items()})

    def scaled(self, f):
        return XiValuedForm(self.degree, {idx: v.scaled(f) for idx, v in self.values.items()})


# (one, add, sub, mul) of the entries minor multiplies: ScalarFields, floats
# and (N,) arrays through their operators, or nodes through the factories
_NUMBER_RING = (1.0, operator.add, operator.sub, operator.mul)
_NODE_RING = (ONE, add, sub, mul)


def minor(rows, idx, ring=_NUMBER_RING):
    """Determinant of the idx-entries of the argument vectors rows[0..k-1],
    in the arithmetic of ring."""
    one, plus, minus, times = ring
    if not idx:
        return one
    if len(idx) == 1:
        return rows[0][idx[0]]
    if len(idx) == 2:
        a, b = idx
        return minus(times(rows[0][a], rows[1][b]), times(rows[0][b], rows[1][a]))
    det = None
    for perm, sign in _signed_permutations(len(idx)):
        term = rows[0][idx[perm[0]]]
        for r in range(1, len(idx)):
            term = times(term, rows[r][idx[perm[r]]])
        det = term if det is None else plus(det, term) if sign > 0 else minus(det, term)
    return det


@cache
def _signed_permutations(k):
    """(perm, sign) for each permutation of range(k), in lexicographic order;
    a tuple, since every caller shares the cached result."""
    perms = []
    for perm in permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        perms.append((perm, sign))
    return tuple(perms)


def zero_form(chart, degree):
    return DifferentialForm(chart, degree, {})


def scalar_form(f):
    """Wrap a ScalarField as a 0-form."""
    return DifferentialForm(f.chart, 0, {(): f})


def one_form(chart, components):
    return DifferentialForm(chart, 1, {(i,): c for i, c in enumerate(components)})


def exterior_derivative(omega):
    """Coordinate exterior derivative; the gradient for 0-forms."""
    chart = omega.chart
    if omega.degree >= chart.dim:
        return zero_form(chart, omega.degree + 1)
    terms = (
        (*_merge_sign((j,), idx), f.node.diff(j))
        for idx, f in omega.coeffs.items()
        for j in range(chart.dim)
        if j not in idx
    )
    return _form_of_terms(chart, omega.degree + 1, terms)


def wedge(alpha, beta):
    """Graded-antisymmetric wedge product in the standard sign convention."""
    if alpha.chart != beta.chart:
        raise ChartMismatchError("wedge of forms on different charts")
    chart = alpha.chart
    degree = alpha.degree + beta.degree
    if degree > chart.dim:
        return zero_form(chart, degree)
    terms = (
        (*_merge_sign(i_idx, j_idx), mul(f.node, g.node))
        for i_idx, f in alpha.coeffs.items()
        for j_idx, g in beta.coeffs.items()
        if set(i_idx).isdisjoint(j_idx)
    )
    return _form_of_terms(chart, degree, terms)


def interior_product(X, omega):
    """(iota_X omega)(V1..Vk-1) = omega(X, V1..Vk-1)."""
    if X.chart != omega.chart:
        raise ChartMismatchError("interior product across charts")
    if omega.degree == 0:
        raise ValueError("interior product needs a form of degree >= 1")
    terms = (
        ((-1) ** pos, idx[:pos] + idx[pos + 1 :], mul(X.components[i].node, f.node))
        for idx, f in omega.coeffs.items()
        for pos, i in enumerate(idx)
    )
    return _form_of_terms(omega.chart, omega.degree - 1, terms)


def lie_bracket(V, W):
    """[V, W]^i = sum_j V^j d_j W^i - W^j d_j V^i."""
    if V.chart != W.chart:
        raise ChartMismatchError("bracket of fields on different charts")
    sv, sw = _support(V), _support(W)
    return vector_of_nodes(
        V.chart,
        [sub(_derivative(sv, w.node), _derivative(sw, v.node)) for v, w in zip(V.components, W.components)],
    )


def lie_derivative_form(X, omega):
    """Cartan's formula L_X = d iota_X + iota_X d."""
    if X.chart != omega.chart:
        raise ChartMismatchError("Lie derivative across charts")
    d_omega = exterior_derivative(omega)
    ix_d = interior_product(X, d_omega)
    if omega.degree == 0:
        return ix_d
    return exterior_derivative(interior_product(X, omega)) + ix_d


def evaluate_form(omega, points, args):
    """Multilinear antisymmetric evaluation at an (N, dim) batch of points on
    VectorField arguments, as an (N,) array."""
    _same_chart(omega.chart, args)
    fields = [*omega.coeffs.values(), *(c for arg in args for c in arg.components)]
    ev = PointEvaluator(omega.chart, points, fields)
    numeric = [arg.at(points, ev) for arg in args]
    return omega.at(points, numeric, ev)


def form_components(omega, ev):
    """Numeric coefficients of omega on all increasing index tuples at the
    points of ev, an evaluator holding omega's coefficients, as a
    (components, N) array."""
    values = [
        ev(omega.coeffs[idx]) if idx in omega.coeffs else ev.zero
        for idx in combinations(range(omega.chart.dim), omega.degree)
    ]
    return np.array(values).reshape(len(values), len(ev.zero))


def invert_matrix(chart, entries, probe=None):
    """Symbolic Gauss-Jordan inverse of a matrix of ScalarFields or numbers,
    as rows of ScalarFields.  The row operations run on bare nodes, and each
    entry of the inverse is wrapped once.

    Pivots prefer nonzero-constant entries so that the near-identity frames
    used by the built-in scenarios invert without division nodes.  When a
    probe (a batch of one point) is supplied, the pivot with the largest
    magnitude there is chosen instead, which keeps division nodes away from
    zero crossings for matrices like J + Jtilde whose diagonal vanishes.
    Failing both, the first nonzero entry is the pivot.
    """
    n = len(entries)
    a = [[as_field(chart, entries[r][c]).node for c in range(n)] for r in range(n)]
    inv = [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]
    for col in range(n):
        pivot_row = None
        if probe is not None:
            best = 0.0
            for r in range(col, n):
                if is_zero_node(a[r][col]):
                    continue
                mag = abs(float(ScalarField(chart, a[r][col])(probe)[0]))
                if mag > best:
                    best, pivot_row = mag, r
        if pivot_row is None:
            for r in range(col, n):
                node = a[r][col]
                if type(node) is Const and node.value != 0.0:
                    pivot_row = r
                    break
        if pivot_row is None:
            for r in range(col, n):
                if not is_zero_node(a[r][col]):
                    pivot_row = r
                    break
        if pivot_row is None:
            raise ValueError("matrix is structurally singular")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            inv[col], inv[pivot_row] = inv[pivot_row], inv[col]
        pivot = a[col][col]
        if not (type(pivot) is Const and pivot.value == 1.0):
            a[col] = [div(f, pivot) for f in a[col]]
            inv[col] = [div(f, pivot) for f in inv[col]]
        for r in range(n):
            factor = a[r][col]
            if r == col or is_zero_node(factor):
                continue
            a[r] = [sub(f, mul(factor, g)) for f, g in zip(a[r], a[col])]
            inv[r] = [sub(f, mul(factor, g)) for f, g in zip(inv[r], inv[col])]
    return [[ScalarField(chart, node) for node in row] for row in inv]


def matrix_mul(chart, A, B):
    """The product of two matrices of ScalarFields or numbers, as rows of
    ScalarFields: each entry one dot of a row of A with a column of B."""
    A = [[as_field(chart, f).node for f in row] for row in A]
    B = [[as_field(chart, f).node for f in row] for row in B]
    return [[ScalarField(chart, dot(row, col)) for col in zip(*B)] for row in A]
