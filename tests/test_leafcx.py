"""Leafwise complex-structure calculus: J, Nijenhuis, dbar, H, beth, the
deformed bracket and the S-parametrization."""

import math
from dataclasses import replace

import numpy as np
import pytest

from leviflat.errors import ConjugationSingularError, ScenarioError, ZMembershipError
from leviflat.excalc import (
    XiValuedForm,
    lie_bracket,
    one_form,
)
from leviflat.leafcx import (
    LeviFlatStructure,
    antilinearity_residual,
    beth,
    beth_conjugation_residual,
    change_couple,
    change_couple_h_residual,
    conjugate_J,
    dbar0,
    dbar0_apply,
    dbar1,
    dbar_scalar,
    deformed_bracket,
    deformed_bracket_expanded,
    derivation_pairing,
    h_apply,
    h_form,
    ix_dgamma01,
    make_deformed_bracket,
    n_alpha_residual,
    nijenhuis,
    proj01_scalar,
    s_from_structures,
    s_terms,
    t_endo,
    wedge01,
    xi_form_apply,
    xi_form_from_matrix,
)
from leviflat.report import ResidualAccumulator
from leviflat.foliation_dgla import DefiningCouple
from leviflat.sampling import Drawn, random_scalar, random_vector_field, sample_points, stream
from leviflat.scenarios import Scenario, builtin, check
from leviflat.suites import random_anticommuting_S, random_xi_field, random_z_form
from leviflat.symfield import PointEvaluator, constant
from tests.fields import coordinate, cos_of, sin_of

FLAT = builtin("t3_flat").structure
TWISTED = builtin("t3_twisted").structure
SHIFTED = builtin("t3_twisted_shifted").structure
T5 = builtin("t5_product").structure
T5P = builtin("t5_perturbedJ").structure
EPS = 0.3


def pts(s, n=8, label="pts"):
    return np.array(sample_points(s.chart, n, stream(51, s.chart.names, label)))


def vec_close(V, W, points, tol=1e-12):
    ev = PointEvaluator(V.chart, points, V.components + W.components)
    assert np.all(np.abs(V.at(points, ev) - W.at(points, ev)) <= tol)


def vec_zero(V, points, tol=1e-12):
    assert np.all(np.abs(V.at(points)) <= tol)


# -- J -----------------------------------------------------------------------


def test_apply_J_standard():
    E1, E2 = FLAT.frame
    vec_close(FLAT.apply_J(E1), E2, pts(FLAT))
    vec_close(FLAT.apply_J(FLAT.apply_J(E1)), -E1, pts(FLAT))


def test_apply_J_function_linear():
    x = coordinate(FLAT.chart, "x")
    E1, E2 = FLAT.frame
    vec_close(FLAT.apply_J(E1.scaled(cos_of(x))), E2.scaled(cos_of(x)), pts(FLAT))


def _loaded(structure):
    """A scenario holding structure, through the load check."""
    return check(Scenario("probe", structure, None, None, None), "probe")


def test_load_check_flags_frame_outside_xi():
    """A frame vector with a transverse part is no section of xi: the load
    check keeps the scenario but measures it as not foliation-integrable."""
    assert _loaded(FLAT).foliation_integrable
    frame = (FLAT.frame[0] + FLAT.X, FLAT.frame[1])
    transverse = LeviFlatStructure.build(FLAT.chart, FLAT.couple, frame, FLAT.Jmat)
    assert not _loaded(transverse).foliation_integrable


def test_structure_validation_rejects_bad_J():
    bad = FLAT.with_J(((0.0, -1.0), (1.0, 1.0)))
    with pytest.raises(ScenarioError, match="probe: not a Levi flat structure: J_squared"):
        _loaded(bad)


def test_structure_validation_rejects_bad_normalization():
    couple = DefiningCouple(FLAT.gamma.scaled(2.0), FLAT.X)
    bad = replace(FLAT, couple=couple)
    with pytest.raises(ScenarioError, match="gamma_X"):
        _loaded(bad)


def test_structure_validation_rejects_near_singular_frame():
    frame = (FLAT.frame[0], FLAT.frame[1].scaled(constant(FLAT.chart, 1e-7)))
    thin = LeviFlatStructure.build(FLAT.chart, FLAT.couple, frame, FLAT.Jmat)
    with pytest.raises(ScenarioError, match="frame_determinant = 1.000e-07"):
        _loaded(thin)


def test_replaced_J_is_not_assumed_integrable():
    assert FLAT.leafwise_integrable
    assert not FLAT.with_J(FLAT.Jmat).leafwise_integrable
    assert _loaded(FLAT.with_J(FLAT.Jmat)).structure.leafwise_integrable


# -- Nijenhuis ----------------------------------------------------------------


def test_nijenhuis_vanishes_on_flat():
    rng = stream(52, "nflat")
    V, W = random_xi_field(FLAT, Drawn(rng)), random_xi_field(FLAT, Drawn(rng))
    vec_zero(nijenhuis(FLAT, V, W), pts(FLAT), tol=1e-13)


def test_nijenhuis_nonzero_on_perturbed_t5():
    E = T5P.frame
    N = nijenhuis(T5P, E[0], E[2])
    # N(e1, e3) = -cos(x1) e2 for the nilpotent-conjugated J
    P = pts(T5P, 6)
    assert N.at(P)[1] == pytest.approx(-np.cos(P[:, 0]), abs=1e-12)


def test_nijenhuis_function_bilinear():
    rng = stream(53, "nbil")
    f = random_scalar(T5P.chart, Drawn(rng))
    V, W = random_xi_field(T5P, Drawn(rng)), random_xi_field(T5P, Drawn(rng))
    vec_close(nijenhuis(T5P, V.scaled(f), W), nijenhuis(T5P, V, W).scaled(f), pts(T5P), tol=1e-10)
    vec_close(
        nijenhuis(T5P, T5P.apply_J(V), W),
        -T5P.apply_J(nijenhuis(T5P, V, W)),
        pts(T5P),
        tol=1e-10,
    )


# -- dbar ----------------------------------------------------------------------


def test_dbar0_of_constant_frame_field():
    omega = dbar0(FLAT, FLAT.frame[0])
    for i in range(2):
        vec_zero(omega.value((i,)), pts(FLAT))


def test_dbar0_hand_example():
    # dbar(cos x E1)(E1) = -sin(x)/2 E1 on the flat 3-torus
    x = coordinate(FLAT.chart, "x")
    W = FLAT.frame[0].scaled(cos_of(x))
    val = dbar0_apply(FLAT, W, FLAT.frame[0])
    P = pts(FLAT, 6)
    got = val.at(P)
    assert got[0] == pytest.approx(-0.5 * np.sin(P[:, 0]), abs=1e-13)
    assert np.all(np.abs(got[1:]) <= 1e-13)


def _nijenhuis_unshared(s, V, W, bk):
    JV, JW = s.apply_J(V), s.apply_J(W)
    return bk(JV, JW) - bk(V, W) - s.apply_J(bk(JV, W)) - s.apply_J(bk(V, JW))


def _dbar0_apply_unshared(s, W, V, bk):
    """(dbar W)(V) with every bracket and J built afresh: six brackets."""
    JV = s.apply_J(V)
    half = (bk(V, W) + s.apply_J(bk(JV, W))).scaled(0.5)
    return half + _nijenhuis_unshared(s, V, W, bk).scaled(0.25)


@pytest.mark.parametrize("deformed", [False, True], ids=["lie", "deformed"])
def test_shared_brackets_match_six_bracket_formula_bitwise(deformed):
    """dbar0_apply and nijenhuis build each bracket once; their values must
    be the unshared formula's to the bit (sharing must not newly trigger
    sub(a, a) -> 0).  dbar0_apply takes the Lie bracket only; the deformed
    bracket reaches dbar through s_terms, checked below."""
    s = T5
    rng = stream(72, "shared")
    bracket = make_deformed_bracket(s.couple, random_z_form(s, 1, Drawn(rng), amplitude=0.5)) if deformed else None
    bk = bracket or lie_bracket
    V, W = random_xi_field(s, Drawn(rng)), random_xi_field(s, Drawn(rng))
    points = pts(s, 6)
    for A, B in ((V, W), (s.frame[0], W), (s.frame[1], s.frame[3])):
        pairs = [(nijenhuis(s, A, B, bracket), _nijenhuis_unshared(s, A, B, bk))]
        if not deformed:
            pairs.append((dbar0_apply(s, B, A), _dbar0_apply_unshared(s, B, A, bk)))
        for got, want in pairs:
            assert got.at(points).tobytes() == want.at(points).tobytes()


def test_dbar_commutes_with_J():
    rng = stream(54, "dbarJ")
    for s in (FLAT, TWISTED, SHIFTED):
        W = random_xi_field(s, Drawn(rng))
        lhs = dbar0(s, s.apply_J(W))
        rhs = dbar0(s, W)
        for i in range(s.n_leaf):
            vec_close(lhs.value((i,)), s.apply_J(rhs.value((i,))), pts(s), tol=1e-11)


def test_dbar0_antilinearity_property():
    rng = stream(55, "dbar01")
    for s in (FLAT, SHIFTED, T5):
        W = random_xi_field(s, Drawn(rng))
        acc = ResidualAccumulator(pts(s)).add(*antilinearity_residual(s, dbar0(s, W)))
        assert acc.max_rel <= 1e-11


def test_dbar1_squared_zero_seeded():
    rng = stream(56, "dbarsq")
    for s in (FLAT, TWISTED, SHIFTED, T5):
        W = random_xi_field(s, Drawn(rng))
        dd = dbar1(s, dbar0(s, W))
        for ij in s.frame_pairs():
            vec_zero(dd.value(ij), pts(s), tol=1e-11)


def test_dbar1_leibniz_with_H():
    """dbar(f H) = dbar f ^ H + f dbar H on the shifted couple (H != 0)."""
    s = SHIFTED
    rng = stream(57, "leibH")
    f = random_scalar(s.chart, Drawn(rng))
    H = h_form(s)
    lhs = dbar1(s, H.scaled(f))
    rhs = wedge01(s, dbar_scalar(s, f), H) + dbar1(s, H).scaled(f)
    acc = ResidualAccumulator(pts(s)).add(lhs, rhs)
    assert acc.max_rel <= 1e-11


def test_dbar1_constant_values_flat():
    omega = XiValuedForm(1, {(0,): FLAT.frame[1], (1,): FLAT.frame[0]})
    dd = dbar1(FLAT, omega)
    vec_zero(dd.value((0, 1)), pts(FLAT))


# -- projections and wedge -----------------------------------------------------


def test_proj01_gamma_vanishes():
    for s in (FLAT, TWISTED, SHIFTED):
        A = proj01_scalar(s, s.gamma)
        for i in range(s.n_leaf):
            assert np.all(np.abs(A.values[(i,)](pts(s))) <= 1e-14)


def test_ix_dgamma01_twisted_value():
    # (iota_X dgamma)^{0,1}(E1) has real part -eps sin(t) / 2 on the twisted couple
    A = ix_dgamma01(TWISTED)
    P = pts(TWISTED, 6)
    assert A.values[(0,)](P) == pytest.approx(-0.5 * EPS * np.sin(P[:, 2]), abs=1e-13)
    assert np.all(np.abs(A.values[(1,)](P)) <= 1e-14)


def test_wedge01_zero_cases():
    H = h_form(SHIFTED)
    zero01 = XiValuedForm(1, {(i,): constant(SHIFTED.chart, 0.0) for i in range(2)})
    out = wedge01(SHIFTED, zero01, H)
    vec_zero(out.value((0, 1)), pts(SHIFTED))
    gam01 = proj01_scalar(SHIFTED, SHIFTED.gamma)
    out2 = wedge01(SHIFTED, gam01, H)
    assert np.all(np.abs(out2.value((0, 1)).at(pts(SHIFTED))) <= 1e-13)


def test_wedge01_hand_expansion():
    # alpha = dx, P the constant E1-valued (0,1)-form on flat T3:
    # (alpha^{0,1} ^ P)(E1,E2) = (E1 + E2)/2
    dx = one_form(FLAT.chart, [1.0, 0.0, 0.0])
    A = proj01_scalar(FLAT, dx)
    P = XiValuedForm(1, {(0,): FLAT.frame[0], (1,): FLAT.frame[0]})
    out = wedge01(FLAT, A, P)
    got = out.value((0, 1)).at(pts(FLAT, 4)).T
    assert got == pytest.approx(np.tile([0.5, 0.5, 0.0], (4, 1)), abs=1e-14)


# -- T_Y and H ------------------------------------------------------------------


def test_t_endo_examples():
    T = t_endo(FLAT.couple, FLAT.X)
    vec_zero(T(FLAT.frame[0]), pts(FLAT))
    t = coordinate(FLAT.chart, "t")
    V = FLAT.frame[0].scaled(cos_of(t))
    out = T(V)
    P = pts(FLAT, 6)
    assert out.at(P)[0] == pytest.approx(np.sin(P[:, 2]), abs=1e-13)
    T_tw = t_endo(TWISTED.couple, TWISTED.X)
    vec_zero(T_tw(TWISTED.frame[0]), pts(TWISTED), tol=1e-13)


def test_H_vanishes_flat_and_twisted():
    for s in (FLAT, TWISTED, T5):
        H = h_form(s)
        for i in range(s.n_leaf):
            vec_zero(H.value((i,)), pts(s), tol=1e-13)


def test_H_nonzero_on_shifted_and_matches_change_couple():
    s = TWISTED
    y = coordinate(s.chart, "y")
    U = s.frame[0].scaled(sin_of(y))
    shifted = change_couple(s, constant(s.chart, 0.0), U)
    H_new = h_form(shifted)
    expected = dbar0(s, U) - wedge01(s, ix_dgamma01(s), XiValuedForm(0, {(): U}))
    acc = ResidualAccumulator(pts(s)).add(H_new, expected)
    assert acc.max_rel <= 1e-12
    assert acc.max_abs >= 0.0
    worst = max(np.abs(H_new.value((i,)).at(pts(s))).max() for i in range(2))
    assert worst > 0.1


def test_H_of_tangent_field_is_dbar():
    rng = stream(58, "HV")
    for s in (FLAT, SHIFTED):
        V = random_xi_field(s, Drawn(rng))
        for i in range(s.n_leaf):
            lhs = h_apply(s, V, s.frame[i])
            rhs = dbar0_apply(s, V, s.frame[i])
            vec_close(lhs, rhs, pts(s), tol=1e-11)


def test_h_linearity():
    rng = stream(59, "hlin")
    s = SHIFTED
    Y = random_vector_field(s.chart, Drawn(rng))
    f = random_scalar(s.chart, Drawn(rng))
    V = random_xi_field(s, Drawn(rng))
    vec_close(h_apply(s, Y, V.scaled(f)), h_apply(s, Y, V).scaled(f), pts(s), tol=1e-11)


# -- beth ------------------------------------------------------------------------


def test_beth_equals_dbar_when_untwisted():
    rng = stream(60, "beth")
    W = random_xi_field(FLAT, Drawn(rng))
    P = XiValuedForm(0, {(): W})
    lhs = beth(FLAT, P)
    rhs = dbar0(FLAT, W)
    acc = ResidualAccumulator(pts(FLAT)).add(lhs, rhs)
    assert acc.max_rel <= 1e-13


def test_beth_squared_and_bethH():
    rng = stream(61, "beth2")
    for s in (FLAT, TWISTED, SHIFTED, T5):
        W = random_xi_field(s, Drawn(rng))
        bb = beth(s, beth(s, XiValuedForm(0, {(): W})))
        assert ResidualAccumulator(pts(s)).add(bb).max_rel <= 1e-11
        bH = beth(s, h_form(s))
        assert ResidualAccumulator(pts(s)).add(bH).max_rel <= 1e-12


def test_beth_rejects_degree_two():
    W = random_xi_field(FLAT, Drawn(stream(62, "b3")))
    P2 = XiValuedForm(2, {(0, 1): W})
    with pytest.raises(ValueError):
        beth(FLAT, P2)


# -- changes of couple -------------------------------------------------------------


def test_change_couple_h_residual_cases():
    zero = constant(FLAT.chart, 0.0)
    from leviflat.excalc import zero_vector

    r0 = change_couple_h_residual(FLAT, zero, zero_vector(FLAT.chart))
    assert ResidualAccumulator(pts(FLAT)).add(*r0).max_rel <= 1e-14
    y = coordinate(FLAT.chart, "y")
    r1 = change_couple_h_residual(FLAT, zero, FLAT.frame[0].scaled(sin_of(y)))
    assert ResidualAccumulator(pts(FLAT)).add(*r1).max_rel <= 1e-12
    t = coordinate(TWISTED.chart, "t")
    r2 = change_couple_h_residual(TWISTED, cos_of(t), zero_vector(TWISTED.chart))
    assert ResidualAccumulator(pts(TWISTED)).add(*r2).max_rel <= 1e-12


def test_beth_conjugation_cases():
    rng = stream(63, "conj")
    from leviflat.excalc import zero_vector

    zero = constant(TWISTED.chart, 0.0)
    U = random_xi_field(TWISTED, Drawn(rng), amplitude=0.5)
    P0 = XiValuedForm(0, {(): random_xi_field(TWISTED, Drawn(rng))})
    r0 = beth_conjugation_residual(TWISTED, zero, U, P0)
    assert ResidualAccumulator(pts(TWISTED)).add(*r0).max_rel <= 1e-11
    x, y = coordinate(FLAT.chart, "x"), coordinate(FLAT.chart, "y")
    lam = sin_of(x + y)
    P0_flat = XiValuedForm(0, {(): random_xi_field(FLAT, Drawn(rng))})
    r1 = beth_conjugation_residual(FLAT, lam, zero_vector(FLAT.chart), P0_flat)
    assert ResidualAccumulator(pts(FLAT)).add(*r1).max_rel <= 1e-11
    P1 = XiValuedForm(1, {(i,): random_xi_field(FLAT, Drawn(rng)) for i in range(2)})
    r2 = beth_conjugation_residual(FLAT, lam, random_xi_field(FLAT, Drawn(rng), 0.4), P1)
    assert ResidualAccumulator(pts(FLAT)).add(*r2).max_rel <= 1e-11


# -- deformed bracket ----------------------------------------------------------------


def test_deformed_bracket_at_zero_is_lie():
    from leviflat.excalc import zero_form

    rng = stream(64, "dbz")
    V, W = random_xi_field(FLAT, Drawn(rng)), random_xi_field(FLAT, Drawn(rng))
    vec_close(
        deformed_bracket(FLAT.couple, zero_form(FLAT.chart, 1), V, W),
        lie_bracket(V, W),
        pts(FLAT),
    )


def test_deformed_bracket_flat_constant_alpha():
    # T = 0 on the flat couple, so the alpha-correction vanishes on the frame
    alpha = one_form(FLAT.chart, [0.4, -0.1, 0.0])
    E1, E2 = FLAT.frame
    lhs = deformed_bracket(FLAT.couple, alpha, E1, E2)
    vec_zero(lhs - lie_bracket(E1, E2), pts(FLAT), tol=1e-13)


def test_deformed_bracket_expansion_oracle():
    rng = stream(65, "dbx")
    for s in (FLAT, TWISTED, SHIFTED):
        alpha = random_z_form(s, 1, Drawn(rng), amplitude=0.5)
        V, W = random_xi_field(s, Drawn(rng)), random_xi_field(s, Drawn(rng))
        vec_close(
            deformed_bracket(s.couple, alpha, V, W),
            deformed_bracket_expanded(s.couple, alpha, V, W),
            pts(s),
            tol=1e-11,
        )


def test_deformed_bracket_leibniz():
    rng = stream(66, "dbl")
    s = TWISTED
    alpha = random_z_form(s, 1, Drawn(rng), amplitude=0.5)
    a = random_scalar(s.chart, Drawn(rng))
    V, W = random_xi_field(s, Drawn(rng)), random_xi_field(s, Drawn(rng))
    lhs = deformed_bracket(s.couple, alpha, V.scaled(a), W)
    rhs = deformed_bracket(s.couple, alpha, V, W).scaled(a) - V.scaled(
        derivation_pairing(s.couple, alpha, W, a)
    )
    vec_close(lhs, rhs, pts(s), tol=1e-11)


def test_n_alpha_zero_alpha():
    from leviflat.excalc import zero_form

    pair = n_alpha_residual(FLAT, zero_form(FLAT.chart, 1), pts(FLAT))
    assert ResidualAccumulator(pts(FLAT)).add(*pair).max_rel <= 1e-13


def test_n_alpha_rejects_non_mc():
    s = FLAT
    alpha = one_form(s.chart, [0.0, 0.0, 0.0]) + one_form(s.chart, [0.0, 1.0, 0.0]).scaled(
        sin_of(coordinate(s.chart, "x"))
    )
    with pytest.raises(ZMembershipError):
        n_alpha_residual(s, alpha, pts(s))


# -- S-calculus ------------------------------------------------------------------------


def test_s_from_structures_identity():
    S = s_from_structures(T5, T5.Jmat, pts(T5))
    ev = PointEvaluator(T5.chart, pts(T5, 4), [f for row in S for f in row])
    for row in S:
        for entry in row:
            assert np.all(np.abs(ev(entry)) <= 1e-14)


def test_s_from_structures_rotation_roundtrip():
    # Jtilde = R J R^{-1} with R a rotation mixing the (E1, E3) plane
    th = 0.3
    c, s_ = math.cos(th), math.sin(th)
    R = [
        [c, 0.0, -s_, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [s_, 0.0, c, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
    Rinv = [
        [c, 0.0, s_, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-s_, 0.0, c, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
    chart = T5.chart
    from leviflat.excalc import matrix_mul

    Jt = matrix_mul(chart, matrix_mul(chart, R, T5.Jmat), Rinv)
    S = s_from_structures(T5, Jt, pts(T5))
    rebuilt = conjugate_J(T5, S, pts(T5))
    ev = PointEvaluator(chart, pts(T5, 4), [f for m in (rebuilt, Jt) for row in m for f in row])
    for r in range(4):
        for col in range(4):
            assert ev(rebuilt[r][col]) == pytest.approx(ev(Jt[r][col]), abs=1e-11)


def test_s_from_structures_singular():
    minus_J = [[-f for f in row] for row in T5.Jmat]
    with pytest.raises(ConjugationSingularError):
        s_from_structures(T5, minus_J, pts(T5))


def test_s_operators_vanish_at_zero():
    from leviflat.excalc import zero_vector

    S0 = XiValuedForm(1, {(i,): zero_vector(T5.chart) for i in range(4)})
    rng = stream(67, "s0")
    V, W = random_xi_field(T5, Drawn(rng)), random_xi_field(T5, Drawn(rng))
    terms = s_terms(T5, S0, V, W)
    for term in (terms.n_SS, terms.dbar, terms.square, terms.double):
        vec_zero(term, pts(T5))


def test_double_bracket_equals_square_when_N_zero():
    rng = stream(68, "dbss")
    Smat = random_anticommuting_S(T5, Drawn(rng))
    S = xi_form_from_matrix(T5, Smat)
    V, W = random_xi_field(T5, Drawn(rng)), random_xi_field(T5, Drawn(rng))
    terms = s_terms(T5, S, V, W)
    vec_close(terms.double, terms.square, pts(T5), tol=1e-11)


def _larger_S(s, rng):
    """A seeded S of amplitude 0.05: random_anticommuting_S draws amplitude
    0.03."""
    return [[f * (0.05 / 0.03) for f in row] for row in random_anticommuting_S(s, Drawn(rng))]


def test_double_bracket_quarter_variant_fails_on_nonintegrable_J():
    """The -1/2 correction makes the conjugated-integrability identity hold;
    the -1/4 variant from the deformed display leaves an order-one defect on
    a structure with N != 0."""
    s = T5P
    rng = stream(69, "oq")
    points = pts(s, 5)
    Smat = _larger_S(s, rng)
    S = xi_form_from_matrix(s, Smat)
    Jt = conjugate_J(s, Smat, points)
    s_tilde = s.with_J(Jt)
    V, W = random_xi_field(s, Drawn(rng)), random_xi_field(s, Drawn(rng))
    terms = s_terms(s, S, V, W)
    Ntilde = nijenhuis(s_tilde, V + terms.SV, W + terms.SW)
    rhs = -(Ntilde - xi_form_apply(s, S, [Ntilde])).scaled(0.25)
    inner = terms.n - terms.n_SS

    def residual(double):
        lhs = terms.dbar + double.scaled(0.5) - terms.n.scaled(0.25)
        ev = PointEvaluator(s.chart, points, lhs.components + rhs.components)
        return np.abs(lhs.at(points, ev) - rhs.at(points, ev)).max()

    def variant(correction):
        """[[S, S]] with another coefficient on S(N - N(S, S))."""
        return terms.square - xi_form_apply(s, S, [inner]).scaled(correction)

    assert residual(terms.double) <= 1e-11
    assert residual(variant(0.5)) <= 1e-11
    assert residual(variant(0.25)) > 1e-4


def _dbar_S_unshared(s, S, V, W, bk):
    """dbar_J S (V, W) with every bracket, J-image and dbar built afresh."""
    SV = xi_form_apply(s, S, [V])
    SW = xi_form_apply(s, S, [W])
    mixed = bk(V, W) - bk(s.apply_J(V), s.apply_J(W))
    return (
        _dbar0_apply_unshared(s, SW, V, bk)
        - _dbar0_apply_unshared(s, SV, W, bk)
        - xi_form_apply(s, S, [mixed]).scaled(0.5)
    )


def _square_bracket_unshared(s, S, V, W, bk):
    """[S, S](V, W) with N(SV, SW) and its brackets built afresh."""
    SV = xi_form_apply(s, S, [V])
    SW = xi_form_apply(s, S, [W])
    JSV, JSW = s.apply_J(SV), s.apply_J(SW)
    middle = bk(SV, W) + bk(V, SW) + s.apply_J(bk(V, JSW)) + s.apply_J(bk(JSV, W))
    n_terms = (
        xi_form_apply(s, S, [_nijenhuis_unshared(s, SV, W, bk)])
        + xi_form_apply(s, S, [_nijenhuis_unshared(s, V, SW, bk)])
        - _nijenhuis_unshared(s, SV, SW, bk)
    )
    return bk(SV, SW) - bk(JSV, JSW) - xi_form_apply(s, S, [middle]) - n_terms.scaled(0.5)


def _double_bracket_unshared(s, S, V, W, bk):
    """[[S, S]](V, W) with SV, SW and N(SV, SW) built again."""
    SV = xi_form_apply(s, S, [V])
    SW = xi_form_apply(s, S, [W])
    inner = _nijenhuis_unshared(s, V, W, bk) - _nijenhuis_unshared(s, SV, SW, bk)
    return _square_bracket_unshared(s, S, V, W, bk) - xi_form_apply(s, S, [inner]).scaled(0.5)


@pytest.mark.parametrize("deformed", [False, True], ids=["lie", "deformed"])
def test_shared_S_brackets_match_unshared_formula_bitwise(deformed):
    """s_terms builds each bracket and J-image once; every term must be the
    unshared formula's to the bit."""
    s = T5P
    rng = stream(74, "shared_S")
    bracket = make_deformed_bracket(s.couple, random_z_form(s, 1, Drawn(rng), amplitude=0.5)) if deformed else None
    bk = bracket or lie_bracket
    S = xi_form_from_matrix(s, _larger_S(s, rng))
    V, W = random_xi_field(s, Drawn(rng)), random_xi_field(s, Drawn(rng))
    points = pts(s, 6)
    for A, B in ((V, W), (s.frame[0], s.frame[2])):
        terms = s_terms(s, S, A, B, bracket)
        SA, SB = xi_form_apply(s, S, [A]), xi_form_apply(s, S, [B])
        pairs = (
            (terms.n, _nijenhuis_unshared(s, A, B, bk)),
            (terms.n_SS, _nijenhuis_unshared(s, SA, SB, bk)),
            (terms.dbar, _dbar_S_unshared(s, S, A, B, bk)),
            (terms.square, _square_bracket_unshared(s, S, A, B, bk)),
            (terms.double, _double_bracket_unshared(s, S, A, B, bk)),
            (terms.SV, SA),
            (terms.SW, SB),
        )
        for got, want in pairs:
            assert got.at(points).tobytes() == want.at(points).tobytes()


def test_dbar_leibniz_display_variant_is_inconsistent():
    """The displayed scalar-Leibniz term (with J acting on the value twice)
    collapses to zero in the real encoding; only the variant differentiating
    along JV satisfies the Leibniz rule."""
    s = FLAT
    rng = stream(70, "display")
    a = random_scalar(s.chart, Drawn(rng))
    W = random_xi_field(s, Drawn(rng))
    lhs = dbar0(s, W.scaled(a))
    corrected = dbar0(s, W).scaled(a) + wedge01(
        s, dbar_scalar(s, a), XiValuedForm(0, {(): W})
    )
    display = dbar0(s, W).scaled(a)  # the displayed term contributes nothing
    good = ResidualAccumulator(pts(s)).add(lhs, corrected)
    bad = ResidualAccumulator(pts(s)).add(lhs, display)
    assert good.max_rel <= 1e-11
    assert bad.max_rel > 1e-3


def test_xi_form_values_stay_in_xi():
    rng = stream(71, "xivals")
    for s in (TWISTED, SHIFTED):
        W = random_xi_field(s, Drawn(rng))
        for form in (dbar0(s, W), h_form(s), beth(s, XiValuedForm(0, {(): W}))):
            for idx, val in form.values.items():
                gv = s.couple.gamma_of(val)
                assert np.all(np.abs(gv(pts(s, 5))) <= 1e-11)


def test_antilinearity_of_dbar1_output():
    rng = stream(72, "anti2")
    s = T5
    W = random_xi_field(s, Drawn(rng))
    out = dbar1(s, dbar0(s, W))
    # trivially antilinear (it is ~0); use H_Y instead for substance
    Y = random_vector_field(s.chart, Drawn(rng))
    HY = h_form(s, Y)
    acc = ResidualAccumulator(pts(s, 5)).add(*antilinearity_residual(s, HY))
    assert acc.max_rel <= 1e-11

def test_dbar1_rejects_nonintegrable_structure():
    rng = stream(73, "guard")
    omega = dbar0(T5P, random_xi_field(T5P, Drawn(rng)))
    with pytest.raises(ValueError):
        dbar1(T5P, omega)


@pytest.mark.parametrize("s", [T5, SHIFTED], ids=["t5_product", "t3_twisted_shifted"])
def test_dbar1_matches_its_s_terms_oracle_on_every_frame_pair(s):
    """dbar1 and s_terms' dbar are two rules for dbar_J of a (0,1)-form: J
    images of frame vectors with the Lie bracket, and apply_J with the
    given bracket.  On random (0,1)-forms, the frame matrices C + JCJ, they
    agree on every frame pair.  On a 3-torus every (0,2)-form vanishes, so
    there both rules must give 0."""
    rng = stream(71, "dbar1_oracle", s.chart.names)
    for _ in range(3):
        omega = xi_form_from_matrix(s, random_anticommuting_S(s, Drawn(rng)))
        got = dbar1(s, omega)
        pairs = s.frame_pairs()
        want = [s_terms(s, omega, s.frame[i], s.frame[j]).dbar for i, j in pairs]
        sides = [got.value(ij) for ij in pairs]
        acc = ResidualAccumulator(pts(s, 6)).add(sides, want)
        assert len(acc.samples) == 6 * len(pairs) and acc.max_rel <= 1e-12
        size = ResidualAccumulator(pts(s, 6)).add(sides).max_abs
        assert size > 1e-3 if s.n_leaf >= 4 else size <= 1e-15
