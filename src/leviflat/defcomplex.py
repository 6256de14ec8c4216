"""The coupled deformation complex: pairs (form, xi-valued form), the
differential mixing the twisted foliation differential with the leafwise
dbar through the couple's (0,1)-form, and the residual checks for the full
Levi-flat Maurer-Cartan system, infinitesimal deformations, gauge witnesses
and exactness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .excalc import DifferentialForm, add_form_residual, scalar_form
from .foliation_dgla import delta, mc_residual
from .leafcx import (
    XiValuedForm,
    beth,
    change_couple,
    dbar0,
    dbar1,
    double_bracket_SS,
    dbarJ_S,
    h_form,
    make_deformed_bracket,
    nijenhuis,
    proj01_scalar,
    wedge01,
    xi_form_residual,
    xi_form_zero_residual,
)
from .report import ResidualAccumulator
from .symfield import PointEvaluator


@dataclass
class CochainPair:
    """Element of the degree-p term: a form annihilated by iota_X plus a
    xi-valued (0,p)-form."""

    alpha: DifferentialForm
    P: XiValuedForm

    def __post_init__(self):
        if self.alpha.degree != self.P.degree:
            raise ValueError(
                f"degree mismatch: form {self.alpha.degree}, xi-form {self.P.degree}"
            )

    @property
    def degree(self):
        return self.alpha.degree


@dataclass
class DeformationPair:
    """A candidate deformation: alpha in Z^1 plus the anticommuting
    endomorphism S encoded as a (0,1) xi-valued form."""

    alpha: DifferentialForm
    S: XiValuedForm


def dfrak(pair, s):
    """d(alpha, P) = (delta alpha, dbar P + (-1)^{p+1} alpha^{0,p} ^ H)."""
    p = pair.degree
    H = h_form(s)
    if p == 0:
        a = pair.alpha.coefficient(())
        out_alpha = delta(pair.alpha, s.couple)
        out_P = dbar0(s, pair.P.value(())) - H.scaled(a)
        return CochainPair(out_alpha, out_P)
    if p == 1:
        out_alpha = delta(pair.alpha, s.couple)
        out_P = dbar1(s, pair.P) + wedge01(s, proj01_scalar(s, pair.alpha), H)
        return CochainPair(out_alpha, out_P)
    raise ValueError("the differential is implemented for degrees 0 and 1 only")


def levi_flat_mc_residual_pair(d, s, points):
    """The two Maurer-Cartan residuals of a deformation pair:
    the foliation residual of alpha and the complex-structure residual of S
    computed with the deformed bracket throughout."""
    mc = mc_residual(d.alpha, s.couple, points)
    acc1 = add_form_residual(ResidualAccumulator(), mc, points)

    bk = make_deformed_bracket(s.couple, d.alpha)
    H = h_form(s)
    rhs_form = wedge01(s, proj01_scalar(s, d.alpha), H).scaled(-1.0)
    acc2 = ResidualAccumulator()
    for i, j in s.frame_pairs():
        V, W = s.frame[i], s.frame[j]
        lhs = dbarJ_S(s, d.S, V, W, bk) + double_bracket_SS(s, d.S, V, W, bk).scaled(0.5)
        quarter_n = nijenhuis(s, V, W, bk).scaled(0.25)
        rhs = rhs_form.value((i, j))
        ev = PointEvaluator(s.chart, points, lhs.components + quarter_n.components + rhs.components)
        lv = lhs.at(points, ev)
        # two samples per point, in point order: lhs against N/4, then against rhs
        both = np.stack([quarter_n.at(points, ev), rhs.at(points, ev)], axis=2)
        acc2.add(np.repeat(lv, 2, axis=1), both.reshape(len(lv), -1))
    return acc1, acc2


def infinitesimal_residuals(t, s, points):
    """Cocycle conditions for a tangent pair: delta beta = 0 and
    dbar P = -beta^{0,1} ^ H; asserted consistent with the degree-1
    differential."""
    beta, P = t.alpha, t.P
    acc = add_form_residual(ResidualAccumulator(), delta(beta, s.couple), points)

    H = h_form(s)
    lhs = dbar1(s, P)
    rhs = wedge01(s, proj01_scalar(s, beta), H).scaled(-1.0)
    acc.merge(xi_form_residual(s, lhs, rhs, points))

    image = dfrak(t, s)
    consistency = xi_form_residual(s, image.P, lhs - rhs, points)
    if consistency.max_rel > 1e-12:
        raise AssertionError("degree-1 differential disagrees with the direct cocycle formula")
    return acc


def gauge_witness_residual(t, t_prime, Y, s, points):
    """Check beta - beta' = delta(gamma(Y)) and P - P' = -H_Y for a proposed
    witness field Y."""
    gY = s.couple.gamma_of(Y)
    acc = add_form_residual(
        ResidualAccumulator(), t.alpha - t_prime.alpha, points, delta(gY, s.couple)
    )
    diff_P = t.P - t_prime.P
    HY = h_form(s, Y)
    acc.merge(xi_form_residual(s, diff_P, -HY, points))
    return acc


def hY_decomposition_residual(Y, s, points):
    """Check H_Y = dbar(Y - gamma(Y) X) + gamma(Y) H."""
    gY = s.couple.gamma_of(Y)
    tangential = Y - s.X.scaled(gY)
    lhs = h_form(s, Y)
    rhs = dbar0(s, tangential) + h_form(s).scaled(gY)
    return xi_form_residual(s, lhs, rhs, points)


def dbar_hY_residual(Y, s, points):
    """Check dbar H_Y = (delta gamma(Y))^{0,1} ^ H."""
    gY = s.couple.gamma_of(Y)
    lhs = dbar1(s, h_form(s, Y))
    rhs = wedge01(s, proj01_scalar(s, delta(gY, s.couple)), h_form(s))
    return xi_form_residual(s, lhs, rhs, points)


def phiH_residual(beta, phi, s, points):
    """Check (beta + delta phi)^{0,1} ^ H = beta^{0,1} ^ H + dbar(phi H)."""
    H = h_form(s)
    shifted = beta + delta(phi, s.couple)
    lhs = wedge01(s, proj01_scalar(s, shifted), H)
    rhs = wedge01(s, proj01_scalar(s, beta), H) + dbar1(s, H.scaled(phi))
    return xi_form_residual(s, lhs, rhs, points)


def exactness_witness_check(U, s, points):
    """Check that U witnesses exactness: H = beth(U); additionally rebuilds
    the couple (gamma, X - U) and asserts its associated (0,1)-form
    vanishes."""
    H = h_form(s)
    candidate = beth(s, XiValuedForm(0, {(): U}))
    acc = xi_form_residual(s, H, candidate, points)

    from .symfield import constant

    s_shifted = change_couple(s, constant(s.chart, 0.0), -U)
    acc.merge(xi_form_zero_residual(s_shifted, h_form(s_shifted), points))
    return acc


def tangent_witness_image(Y, s):
    """The coboundary d^0(gamma(Y), -(Y - gamma(Y) X)); its second component
    must equal -H_Y."""
    gY = s.couple.gamma_of(Y)
    tangential = Y - s.X.scaled(gY)
    pair = CochainPair(scalar_form(gY), XiValuedForm(0, {(): -tangential}))
    return dfrak(pair, s)
