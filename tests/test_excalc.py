"""Exterior calculus: d, wedge, interior product, brackets, Lie derivative."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from leviflat.errors import ChartMismatchError
from leviflat.excalc import (
    DifferentialForm,
    VectorField,
    evaluate_form,
    exterior_derivative,
    interior_product,
    invert_matrix,
    lie_bracket,
    lie_derivative_form,
    matrix_mul,
    one_form,
    scalar_form,
    wedge,
)
from leviflat.report import ResidualAccumulator
from leviflat.sampling import Drawn, random_form, random_scalar, random_vector_field, sample_points, stream
from leviflat.scenarios import builtin
from leviflat.symfield import Node, PointEvaluator, constant, parse_expr, torus
from tests.fields import basis_vector, coordinate, cos_of, sin_of

CHART = torus("x", "y", "t")
DX, DY, DT = (one_form(CHART, np.eye(3)[i]) for i in range(3))
E_X, E_Y, E_T = (basis_vector(CHART, i) for i in range(3))
EPS = 0.3


def pts(n=12, label="pts"):
    return np.array(sample_points(CHART, n, stream(7, label)))


def test_d_of_coordinate_differential_is_zero():
    assert exterior_derivative(DT).coeffs == {}


def test_d_of_cos_t_dx():
    omega = DX.scaled(cos_of(coordinate(CHART, "t")))
    d_omega = exterior_derivative(omega)
    # d(cos t dx) = -sin t dt ^ dx
    P = pts()
    assert evaluate_form(d_omega, P, [E_T, E_X]) == pytest.approx(-np.sin(P[:, 2]), abs=1e-14)


def test_d_squared_explicit():
    f = sin_of(coordinate(CHART, "x")) * cos_of(coordinate(CHART, "t"))
    dd = exterior_derivative(exterior_derivative(scalar_form(f)))
    assert ResidualAccumulator(pts()).add(dd).max_abs <= 1e-12


def test_derivatives_are_built_only_where_read(monkeypatch):
    """d(f dx) never differentiates f along x, and V(f) differentiates f only
    along V's nonzero components."""
    asked = []
    diff = Node.diff

    def recording(node, i):
        asked.append(i)
        return diff(node, i)

    monkeypatch.setattr(Node, "diff", recording)
    x, y, t = (coordinate(CHART, name) for name in ("x", "y", "t"))
    f = sin_of(x) * cos_of(t) + y
    d = exterior_derivative(one_form(CHART, [f, 0.0, 0.0]))
    assert sorted(d.coeffs) == [(0, 1), (0, 2)]
    assert asked and 0 not in asked
    asked.clear()
    basis_vector(CHART, 2).apply(f)
    assert set(asked) == {2}


def test_d_above_top_degree_is_zero():
    top = wedge(wedge(DX, DY), DT)
    assert exterior_derivative(top).coeffs == {}


def test_wedge_self_is_zero():
    assert wedge(DX, DX).coeffs == {}


def test_wedge_basis_duality():
    w = wedge(DT, DX)
    assert evaluate_form(w, [(0.1, 0.2, 0.3)], [E_T, E_X]) == pytest.approx(1.0)


def test_wedge_coefficient_readoff():
    w = wedge(DX.scaled(cos_of(coordinate(CHART, "t"))), DY)
    assert evaluate_form(w, [(0.4, 0.5, 0.0)], [E_X, E_Y]) == pytest.approx(1.0)


def test_wedge_chart_mismatch():
    other = torus("u", "v")
    with pytest.raises(ChartMismatchError):
        wedge(DX, one_form(other, [1.0, 0.0]))


def test_interior_product_basics():
    assert evaluate_form(interior_product(E_T, DT), [(0, 0, 0)], []) == pytest.approx(1.0)
    contracted = interior_product(E_T, wedge(DT, DX))
    P = pts(4)
    assert evaluate_form(contracted, P, [E_X]) == pytest.approx(1.0)
    assert evaluate_form(contracted, P, [E_Y]) == pytest.approx(0.0)


def test_interior_product_twisted_term():
    t = coordinate(CHART, "t")
    omega = wedge(DT, DX).scaled(-EPS * sin_of(t))
    contracted = interior_product(E_T, omega)
    # iota_dt(-eps sin t dt^dx) = -eps sin t dx
    P = pts(6)
    assert evaluate_form(contracted, P, [E_X]) == pytest.approx(-EPS * np.sin(P[:, 2]), abs=1e-14)


def test_interior_product_degree_zero_rejected():
    with pytest.raises(ValueError):
        interior_product(E_T, scalar_form(constant(CHART, 1.0)))


def test_lie_bracket_coordinate_fields_commute():
    b = lie_bracket(E_X, E_T)
    for c in b.components:
        assert c.is_zero


def test_lie_bracket_hand_example():
    x = coordinate(CHART, "x")
    W = E_Y.scaled(cos_of(x))
    b = lie_bracket(E_X, W)
    # [d_x, cos x d_y] = -sin x d_y
    P = pts(6)
    vals = b.at(P)
    assert vals[0] == pytest.approx(0.0, abs=1e-15)
    assert vals[1] == pytest.approx(-np.sin(P[:, 0]), abs=1e-14)
    assert vals[2] == pytest.approx(0.0, abs=1e-15)


def test_lie_bracket_antisymmetry_seeded():
    rng = stream(11, "antisym")
    for _ in range(5):
        V = random_vector_field(CHART, Drawn(rng))
        W = random_vector_field(CHART, Drawn(rng))
        lhs = lie_bracket(V, W)
        rhs = -lie_bracket(W, V)
        assert np.abs(lhs.at(pts(6)) - rhs.at(pts(6))).max() <= 1e-12


def test_jacobi_identity_seeded():
    rng = stream(12, "jacobi")
    for _ in range(4):
        U = random_vector_field(CHART, Drawn(rng))
        V = random_vector_field(CHART, Drawn(rng))
        W = random_vector_field(CHART, Drawn(rng))
        total = (
            lie_bracket(U, lie_bracket(V, W))
            + lie_bracket(V, lie_bracket(W, U))
            + lie_bracket(W, lie_bracket(U, V))
        )
        assert np.abs(total.at(pts(6))).max() <= 1e-10


def test_lie_derivative_basics():
    assert lie_derivative_form(E_T, DT).coeffs == {}
    t = coordinate(CHART, "t")
    ld = lie_derivative_form(E_T, DX.scaled(cos_of(t)))
    P = pts(6)
    assert evaluate_form(ld, P, [E_X]) == pytest.approx(-np.sin(P[:, 2]), abs=1e-14)


def test_lie_derivative_of_scalar_is_directional():
    rng = stream(13, "lie0")
    f = random_scalar(CHART, Drawn(rng))
    X = random_vector_field(CHART, Drawn(rng))
    lhs = lie_derivative_form(X, scalar_form(f)).coefficient(())
    rhs = X.apply(f)
    assert np.abs(lhs(pts(6)) - rhs(pts(6))).max() <= 1e-12


def test_leibniz_wedge_seeded():
    rng = stream(14, "leibniz")
    for ka, kb in ((0, 1), (1, 1), (1, 2)):
        a = random_form(CHART, ka, Drawn(rng))
        b = random_form(CHART, kb, Drawn(rng))
        lhs = exterior_derivative(wedge(a, b))
        signed = wedge(a, exterior_derivative(b))
        rhs = wedge(exterior_derivative(a), b) + (signed if ka % 2 == 0 else -signed)
        # d of a 3-form on the 3-torus has no components
        assert ResidualAccumulator(pts(6)).add(lhs, rhs).max_abs <= 1e-10


def test_unsigned_coefficient_terms_fail_d_squared_and_leibniz(monkeypatch):
    """Negative control for the rule that sums a form's coefficient terms:
    with each term's sign ignored, excalc.d_squared and excalc.leibniz_wedge
    fail on t3_twisted at 2 points, and with the signs both pass."""
    from leviflat import excalc
    from leviflat.scenarios import builtin
    from leviflat.suites import REGISTRY, run_identity

    scenario = builtin("t3_twisted")
    specs = [spec for spec in REGISTRY if spec.identity in ("excalc.d_squared", "excalc.leibniz_wedge")]
    assert len(specs) == 2
    assert all(run_identity(spec, scenario, 42, 2).passed for spec in specs)
    signed = excalc._form_of_terms

    def unsigned(chart, degree, terms):
        return signed(chart, degree, ((1, idx, node) for _, idx, node in terms))

    monkeypatch.setattr(excalc, "_form_of_terms", unsigned)
    for spec in specs:
        report = run_identity(spec, scenario, 42, 2)
        assert not report.passed and not report.error and report.max_rel > 1e-3, spec.identity


def test_evaluate_form_examples():
    assert evaluate_form(DT, [(1.0, 2.0, 3.0)], [E_T]) == pytest.approx(1.0)
    assert evaluate_form(wedge(DT, DX), [(0, 0, 0)], [E_X, E_T]) == pytest.approx(-1.0)


def test_twisted_gamma_annihilates_frame():
    t = coordinate(CHART, "t")
    gamma = DT + DX.scaled(EPS * cos_of(t))
    E1 = VectorField(CHART, [constant(CHART, 1.0), constant(CHART, 0.0), -EPS * cos_of(t)])
    val = gamma.apply_symbolic([E1])
    assert np.abs(val(pts(8))).max() <= 1e-15


def test_evaluate_form_arity_mismatch():
    with pytest.raises(ValueError):
        evaluate_form(DT, [(0, 0, 0)], [E_T, E_X])


def test_form_applied_across_charts_raises():
    """sin(y) dx on (x, y, t) applied to cos(b) d/da on (a, b, c) would mix
    the charts' coordinates; it is refused, as interior_product refuses it."""
    other = torus("a", "b", "c")
    omega = one_form(CHART, [parse_expr("sin(y)", CHART), 0.0, 0.0])
    V = VectorField(other, [parse_expr("cos(b)", other), 0.0, 0.0])
    with pytest.raises(ChartMismatchError):
        omega.apply_symbolic([V])
    with pytest.raises(ChartMismatchError):
        evaluate_form(omega, [(0.1, 0.2, 0.3)], [V])
    # an equal chart built apart is the same chart
    V = VectorField(torus("x", "y", "t"), [2.0, 0.0, 0.0])
    assert evaluate_form(omega, [(0.0, 0.5, 0.0)], [V]) == pytest.approx(2.0 * np.sin(0.5))


# Live-sided oracles: each checks an operator against a rule that shares none
# of its sign bookkeeping, at 20 points, on sides of order one or more.


def _assert_live_equal(chart, lhs, rhs, label):
    points = sample_points(chart, 20, stream(42, label, "points"))
    ev = PointEvaluator(chart, points, [lhs, rhs])
    a, b = ev(lhs), ev(rhs)
    side = np.maximum(np.abs(a), np.abs(b))
    assert np.max(np.abs(a - b) / (1.0 + side)) <= 1e-12
    assert side.max() >= 1.0


def _palais(omega, fields):
    """d omega(X_0, ..., X_k) by Palais' invariant formula:
    sum_i (-1)^i X_i(omega(..., no X_i, ...))
    + sum_{i<j} (-1)^(i+j) omega([X_i, X_j], ..., no X_i or X_j, ...)."""
    terms = []
    for i, X in enumerate(fields):
        term = X.apply(omega.apply_symbolic(fields[:i] + fields[i + 1 :]))
        terms.append(term if i % 2 == 0 else -term)
    for i, j in combinations(range(len(fields)), 2):
        rest = [V for m, V in enumerate(fields) if m not in (i, j)]
        term = omega.apply_symbolic([lie_bracket(fields[i], fields[j]), *rest])
        terms.append(term if (i + j) % 2 == 0 else -term)
    return sum(terms[1:], terms[0])


@pytest.mark.parametrize(
    "name,k",
    [("t3_twisted_shifted", 1), ("t3_twisted_shifted", 2), ("t5_product", 1), ("t5_product", 2), ("t5_product", 3)],
)
def test_exterior_derivative_matches_palais_formula(name, k):
    """R. S. Palais, Proc. AMS 5 (1954) 902-908."""
    chart = builtin(name).structure.chart
    draws = Drawn(stream(42, "palais", name, k))
    omega = random_form(chart, k, draws)
    fields = [random_vector_field(chart, draws) for _ in range(k + 1)]
    lhs = exterior_derivative(omega).apply_symbolic(fields)
    _assert_live_equal(chart, lhs, _palais(omega, fields), f"palais {name} {k}")


@pytest.mark.parametrize("name", ["t3_twisted_shifted", "t5_product"])
def test_lie_bracket_is_the_commutator_of_derivations(name):
    """[X, Y](f) = X(Y f) - Y(X f)."""
    chart = builtin(name).structure.chart
    draws = Drawn(stream(42, "commutator", name))
    X, Y = random_vector_field(chart, draws), random_vector_field(chart, draws)
    f = random_scalar(chart, draws)
    lhs = lie_bracket(X, Y).apply(f)
    _assert_live_equal(chart, lhs, X.apply(Y.apply(f)) - Y.apply(X.apply(f)), f"commutator {name}")


def _cartan_by_coordinates(X, omega):
    """L_X omega by its coordinate formula: (L_X omega)_I = X(omega_I)
    + sum_m sum_j omega(..., e_j at slot m, ...) d_{i_m} X^j, with the
    frame e_I in the other slots."""
    chart, k = omega.chart, omega.degree
    E = [basis_vector(chart, j) for j in range(chart.dim)]
    coeffs = {}
    for idx in combinations(range(chart.dim), k):
        terms = [X.apply(omega.apply_symbolic([E[i] for i in idx]))]
        for m, i in enumerate(idx):
            for j in range(chart.dim):
                slots = [E[n] for n in idx]
                slots[m] = E[j]
                terms.append(omega.apply_symbolic(slots) * X.components[j].diff(i))
        coeffs[idx] = sum(terms[1:], terms[0])
    return DifferentialForm(chart, k, coeffs)


@pytest.mark.parametrize(
    "name,k",
    [("t3_twisted_shifted", 1), ("t3_twisted_shifted", 2), ("t5_product", 1), ("t5_product", 2), ("t5_product", 3)],
)
def test_lie_derivative_matches_the_coordinate_formula(name, k):
    """Cartan's L_X = d i_X + i_X d against the coordinate formula, both
    applied to the same random vector fields."""
    chart = builtin(name).structure.chart
    draws = Drawn(stream(42, "cartan", name, k))
    X, omega = random_vector_field(chart, draws), random_form(chart, k, draws)
    fields = [random_vector_field(chart, draws) for _ in range(k)]
    lhs = lie_derivative_form(X, omega).apply_symbolic(fields)
    rhs = _cartan_by_coordinates(X, omega).apply_symbolic(fields)
    _assert_live_equal(chart, lhs, rhs, f"cartan {name} {k}")


@pytest.mark.parametrize("name,k", [("t3_twisted_shifted", 2), ("t5_product", 2), ("t5_product", 3)])
def test_interior_product_fills_the_first_slot(name, k):
    """(i_X omega)(Y, ...) = omega(X, Y, ...); at degree 1 both sides are
    omega(X) by definition."""
    chart = builtin(name).structure.chart
    draws = Drawn(stream(42, "interior", name, k))
    X, omega = random_vector_field(chart, draws), random_form(chart, k, draws)
    fields = [random_vector_field(chart, draws) for _ in range(k - 1)]
    lhs = interior_product(X, omega).apply_symbolic(fields)
    _assert_live_equal(chart, lhs, omega.apply_symbolic([X, *fields]), f"interior {name} {k}")


@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
    c=st.floats(-3, 3, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_wedge_antisymmetry_property(a, b, c):
    alpha = one_form(CHART, [a, b, c])
    beta = one_form(CHART, [c, a, -b])
    w1 = wedge(alpha, beta)
    w2 = wedge(beta, alpha)
    p = [(0.3, 1.2, 2.5)]
    assert ResidualAccumulator(p).add(w1, -w2).max_abs <= 1e-12


def test_invert_matrix_roundtrip():
    t = coordinate(CHART, "t")
    entries = [
        [constant(CHART, 1.0), constant(CHART, 0.0), constant(CHART, 0.0)],
        [sin_of(t), constant(CHART, 1.0), constant(CHART, 0.0)],
        [-EPS * cos_of(t), constant(CHART, 0.0), constant(CHART, 1.0)],
    ]
    inv = invert_matrix(CHART, entries)
    product = matrix_mul(CHART, entries, inv)
    ev = PointEvaluator(CHART, pts(6), [f for row in product for f in row])
    for r in range(3):
        for c in range(3):
            assert ev(product[r][c]) == pytest.approx(1.0 if r == c else 0.0, abs=1e-13)


def test_invert_matrix_with_probe_handles_zero_diagonal():
    entries = [
        [constant(CHART, 0.0), constant(CHART, -1.0)],
        [constant(CHART, 1.0), sin_of(coordinate(CHART, "x"))],
    ]
    inv = invert_matrix(CHART, entries, probe=[(0.2, 0.0, 0.0)])
    product = matrix_mul(CHART, entries, inv)
    ev = PointEvaluator(CHART, pts(5), [f for row in product for f in row])
    for r in range(2):
        for c in range(2):
            assert ev(product[r][c]) == pytest.approx(1.0 if r == c else 0.0, abs=1e-13)
