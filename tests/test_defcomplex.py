"""Deformation complex: the coupled differential, Maurer-Cartan system,
infinitesimal and gauge-witness residuals, exactness witnesses."""

import pytest

from leviflat.defcomplex import (
    CochainPair,
    dfrak,
    dbar_hY_residual,
    exactness_witness_check,
    gauge_witness_residual,
    hY_decomposition_residual,
    infinitesimal_residuals,
    levi_flat_mc_residual_pair,
    phiH_residual,
    tangent_witness_image,
)
from leviflat.excalc import (
    XiValuedForm,
    one_form,
    scalar_form,
    zero_form,
    zero_vector,
)
from leviflat.foliation_dgla import delta
from leviflat.leafcx import (
    dbar0,
    h_form,
    xi_form_from_matrix,
)
from leviflat.report import ResidualAccumulator
from leviflat.sampling import Drawn, random_scalar, random_vector_field, sample_points, stream
from leviflat.scenarios import builtin
from leviflat.suites import random_xi_field, random_z_form
from leviflat.symfield import constant
from tests.fields import coordinate, cos_of, sin_of

FLAT = builtin("t3_flat").structure
SHIFTED = builtin("t3_twisted_shifted").structure


def pts(s, n=8):
    return sample_points(s.chart, n, stream(91, s.chart.names))


def residual(points, *pairs):
    """The accumulator of the (lhs, rhs) pairs recorded at the points."""
    acc = ResidualAccumulator(points)
    for lhs, rhs in pairs:
        acc.add(lhs, rhs)
    return acc


def zero_pair(s, degree):
    if degree == 0:
        return CochainPair(
            scalar_form(constant(s.chart, 0.0)), XiValuedForm(0, {(): zero_vector(s.chart)})
        )
    return CochainPair(
        zero_form(s.chart, 1),
        XiValuedForm(1, {(i,): zero_vector(s.chart) for i in range(s.n_leaf)}),
    )


def test_dfrak_of_vector_part_is_dbar():
    rng = stream(92, "d0")
    V = random_xi_field(FLAT, Drawn(rng))
    pair = CochainPair(scalar_form(constant(FLAT.chart, 0.0)), XiValuedForm(0, {(): V}))
    image = dfrak(pair, FLAT)
    assert image.alpha.coeffs == {}
    expected = dbar0(FLAT, V)
    assert residual(pts(FLAT), (image.P, expected)).max_rel <= 1e-13


def test_dfrak_degree_mismatch_rejected():
    with pytest.raises(ValueError):
        CochainPair(zero_form(FLAT.chart, 1), XiValuedForm(0, {(): zero_vector(FLAT.chart)}))


def test_dfrak_degree_two_unsupported():
    pair = CochainPair(
        zero_form(FLAT.chart, 2),
        XiValuedForm(2, {(0, 1): zero_vector(FLAT.chart)}),
    )
    with pytest.raises(ValueError):
        dfrak(pair, FLAT)


def test_dfrak_squared_seeded():
    rng = stream(93, "dd")
    for s in (FLAT, SHIFTED):
        for _ in range(4):
            f = random_scalar(s.chart, Drawn(rng))
            pair = CochainPair(scalar_form(f), XiValuedForm(0, {(): random_xi_field(s, Drawn(rng))}))
            dd = dfrak(dfrak(pair, s), s)
            assert ResidualAccumulator(pts(s)).add(dd.alpha).max_abs <= 1e-11
            assert ResidualAccumulator(pts(s)).add(dd.P).max_rel <= 1e-11


def test_tangent_witness_formula_seeded():
    rng = stream(94, "witness")
    for s in (FLAT, SHIFTED):
        for _ in range(4):
            Y = random_vector_field(s.chart, Drawn(rng))
            image = tangent_witness_image(Y, s)
            target_alpha = delta(s.couple.gamma_of(Y), s.couple)
            HY = h_form(s, Y)
            P = pts(s, 5)
            assert ResidualAccumulator(P).add(image.alpha, target_alpha).max_abs <= 1e-11
            assert residual(pts(s, 5), (image.P, -HY)).max_rel <= 1e-11


def test_levi_flat_mc_zero_pair():
    pair = CochainPair(zero_form(FLAT.chart, 1), zero_pair(FLAT, 1).P)
    mc, *structure = levi_flat_mc_residual_pair(pair, FLAT, pts(FLAT))
    assert residual(pts(FLAT), mc).max_rel <= 1e-14
    assert residual(pts(FLAT), *structure).max_rel <= 1e-14


def test_levi_flat_mc_constant_tilt():
    alpha = one_form(FLAT.chart, [0.3, -0.2, 0.0])
    pair = CochainPair(alpha, zero_pair(FLAT, 1).P)
    mc, *structure = levi_flat_mc_residual_pair(pair, FLAT, pts(FLAT))
    assert residual(pts(FLAT), mc).max_rel <= 1e-12
    assert residual(pts(FLAT), *structure).max_rel <= 1e-12


def test_levi_flat_mc_constant_S_rotation_quadratic():
    """alpha = 0, S = eps S0 constant and anticommuting: the complex-structure
    equation holds to all orders here (two-dimensional leaves)."""
    p_, q_ = 0.6, -0.35
    for eps in (1e-1, 1e-2):
        entries = [
            [constant(FLAT.chart, p_ * eps), constant(FLAT.chart, q_ * eps)],
            [constant(FLAT.chart, q_ * eps), constant(FLAT.chart, -p_ * eps)],
        ]
        S = xi_form_from_matrix(FLAT, entries)
        pair = CochainPair(zero_form(FLAT.chart, 1), S)
        mc, *structure = levi_flat_mc_residual_pair(pair, FLAT, pts(FLAT))
        assert residual(pts(FLAT), mc).max_rel <= 1e-14
        assert residual(pts(FLAT), *structure).max_rel <= max(1.0 * eps**2, 1e-12)


def test_infinitesimal_zero():
    report = residual(pts(FLAT), *infinitesimal_residuals(zero_pair(FLAT, 1), FLAT, pts(FLAT)))
    assert report.max_rel <= 1e-14


def test_infinitesimal_constant_tilt():
    beta = one_form(FLAT.chart, [0.7, -0.4, 0.0])
    pair = CochainPair(beta, zero_pair(FLAT, 1).P)
    report = residual(pts(FLAT), *infinitesimal_residuals(pair, FLAT, pts(FLAT)))
    assert report.max_rel <= 1e-13


def test_gauge_witness_trivial():
    pair = zero_pair(SHIFTED, 1)
    report = residual(
        pts(SHIFTED), *gauge_witness_residual(pair, pair, zero_vector(SHIFTED.chart), SHIFTED)
    )
    assert report.max_rel <= 1e-14


def test_gauge_witness_constructed_pairs():
    rng = stream(95, "gw")
    s = SHIFTED
    Y = random_vector_field(s.chart, Drawn(rng))
    beta = random_z_form(s, 1, Drawn(rng))
    P = XiValuedForm(1, {(i,): random_xi_field(s, Drawn(rng)) for i in range(s.n_leaf)})
    t = CochainPair(beta, P)
    image = tangent_witness_image(Y, s)
    t_prime = CochainPair(beta - image.alpha, P - image.P)
    report = residual(pts(s), *gauge_witness_residual(t, t_prime, Y, s))
    assert report.max_rel <= 1e-11


def test_gauge_witness_tangential_Y():
    """Y in xi: the form parts agree and P - P' = -dbar(Y)."""
    rng = stream(96, "gwt")
    s = SHIFTED
    Y = random_xi_field(s, Drawn(rng))
    image = tangent_witness_image(Y, s)
    assert ResidualAccumulator(pts(s, 5)).add(image.alpha).max_abs <= 1e-12
    expected = dbar0(s, Y)
    assert residual(pts(s, 5), (image.P, -expected)).max_rel <= 1e-11


def test_hY_decomposition_cases():
    s = SHIFTED
    rng = stream(97, "hy")
    # Y in xi reduces to H_V = dbar V; Y = X gives the identity H = H
    for Y in (random_xi_field(s, Drawn(rng)), s.X):
        assert residual(pts(s), hY_decomposition_residual(Y, s)).max_rel <= 1e-11
    t = coordinate(s.chart, "t")
    y = coordinate(s.chart, "y")
    Y = s.X.scaled(cos_of(t)) + s.frame[0].scaled(sin_of(y))
    assert residual(pts(s), hY_decomposition_residual(Y, s)).max_rel <= 1e-11


def test_dbar_hY_cases():
    rng = stream(98, "dhy")
    # H = 0 scenario: both sides vanish
    Y = random_vector_field(FLAT.chart, Drawn(rng))
    report = residual(pts(FLAT), dbar_hY_residual(Y, FLAT))
    assert report.max_rel <= 1e-12
    # tangential Y on the shifted couple
    report = residual(pts(SHIFTED), dbar_hY_residual(random_xi_field(SHIFTED, Drawn(rng)), SHIFTED))
    assert report.max_rel <= 1e-11
    # generic Y on the shifted couple
    report = residual(
        pts(SHIFTED), dbar_hY_residual(random_vector_field(SHIFTED.chart, Drawn(rng)), SHIFTED)
    )
    assert report.max_rel <= 1e-11


def test_phiH_cases():
    rng = stream(99, "phiH")
    s = SHIFTED
    beta = random_z_form(s, 1, Drawn(rng))
    zero_phi = constant(s.chart, 0.0)
    assert residual(pts(s), phiH_residual(beta, zero_phi, s)).max_rel <= 1e-14
    x = coordinate(s.chart, "x")
    assert residual(pts(s), phiH_residual(zero_form(s.chart, 1), sin_of(x), s)).max_rel <= 1e-11
    assert residual(pts(FLAT), phiH_residual(beta, random_scalar(s.chart, Drawn(rng)), FLAT)).max_rel <= 1e-12


def test_exactness_witness_flat_zero():
    report = residual(pts(FLAT), *exactness_witness_check(zero_vector(FLAT.chart), FLAT))
    assert report.samples and report.max_rel <= 1e-9


def test_exactness_witness_shifted():
    y = coordinate(SHIFTED.chart, "y")
    witness = SHIFTED.frame[0].scaled(sin_of(y))
    report = residual(pts(SHIFTED), *exactness_witness_check(witness, SHIFTED))
    assert report.samples and report.max_rel <= 1e-11


def test_exactness_wrong_witness_fails():
    report = residual(pts(SHIFTED), *exactness_witness_check(SHIFTED.frame[1], SHIFTED))
    assert report.max_rel > 1e-3
