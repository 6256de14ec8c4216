"""The coupled deformation complex: pairs (form, xi-valued form), the
differential mixing the twisted foliation differential with the leafwise
dbar through the couple's (0,1)-form, and the residual checks for the full
Levi-flat Maurer-Cartan system, infinitesimal deformations, gauge witnesses
and exactness."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .excalc import DifferentialForm, XiValuedForm, scalar_form
from .foliation_dgla import delta, mc_residual
from .leafcx import (
    beth,
    change_couple,
    dbar0,
    dbar1,
    deformed_bracket,
    h_form,
    proj01_scalar,
    s_terms,
    wedge01,
)
from .report import ResidualAccumulator
from .symfield import constant


@dataclass
class CochainPair:
    """Element of the degree-p term: a form annihilated by iota_X plus a
    xi-valued (0,p)-form.  A deformation is one of degree 1: alpha in Z^1
    and the anticommuting endomorphism S as the (0,1)-form P."""

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
    """The two Maurer-Cartan residuals of a deformation d = (alpha, S), a
    CochainPair of degree 1, as a list of (lhs, rhs): the foliation residual
    of alpha, then per frame pair the complex-structure residual of S,
    computed with the deformed bracket
    throughout, against N/4 and against the rhs.  alpha's membership in Z^1
    is checked at the points."""
    pairs = [(mc_residual(d.alpha, s.couple, points), 0.0)]
    bk = partial(deformed_bracket, s.couple, d.alpha)
    H = h_form(s)
    rhs_form = wedge01(s, proj01_scalar(s, d.alpha), H).scaled(-1.0)
    for i, j in s.frame_pairs():
        terms = s_terms(s, d.P, s.frame[i], s.frame[j], bk)
        lhs = terms.dbar + terms.double.scaled(0.5)
        pairs.append(([lhs, lhs], [terms.n.scaled(0.25), rhs_form.value((i, j))]))
    return pairs


def infinitesimal_residuals(t, s, points):
    """Cocycle conditions for a tangent pair, as a list of (lhs, rhs):
    delta beta = 0 and dbar P = -beta^{0,1} ^ H.  Raises unless they agree
    with the degree-1 differential at the points."""
    beta, P = t.alpha, t.P
    H = h_form(s)
    lhs = dbar1(s, P)
    rhs = wedge01(s, proj01_scalar(s, beta), H).scaled(-1.0)
    consistency = ResidualAccumulator(points).add(dfrak(t, s).P, lhs - rhs)
    if consistency.max_rel > 1e-12:
        raise AssertionError("degree-1 differential disagrees with the direct cocycle formula")
    return [(delta(beta, s.couple), 0.0), (lhs, rhs)]


def gauge_witness_residual(t, t_prime, Y, s):
    """beta - beta' = delta(gamma(Y)) and P - P' = -H_Y for a proposed
    witness field Y, as a list of (lhs, rhs)."""
    gY = s.couple.gamma_of(Y)
    return [
        (t.alpha - t_prime.alpha, delta(gY, s.couple)),
        (t.P - t_prime.P, -h_form(s, Y)),
    ]


def hY_decomposition_residual(Y, s):
    """H_Y = dbar(Y - gamma(Y) X) + gamma(Y) H, as (lhs, rhs)."""
    gY = s.couple.gamma_of(Y)
    tangential = Y - s.X.scaled(gY)
    return h_form(s, Y), dbar0(s, tangential) + h_form(s).scaled(gY)


def dbar_hY_residual(Y, s):
    """dbar H_Y = (delta gamma(Y))^{0,1} ^ H, as (lhs, rhs)."""
    gY = s.couple.gamma_of(Y)
    lhs = dbar1(s, h_form(s, Y))
    return lhs, wedge01(s, proj01_scalar(s, delta(gY, s.couple)), h_form(s))


def phiH_residual(beta, phi, s):
    """(beta + delta phi)^{0,1} ^ H = beta^{0,1} ^ H + dbar(phi H), as
    (lhs, rhs)."""
    H = h_form(s)
    shifted = beta + delta(phi, s.couple)
    lhs = wedge01(s, proj01_scalar(s, shifted), H)
    return lhs, wedge01(s, proj01_scalar(s, beta), H) + dbar1(s, H.scaled(phi))


def exactness_witness_check(U, s):
    """U witnesses exactness, as a list of (lhs, rhs): H = beth(U), and the
    (0,1)-form of the rebuilt couple (gamma, X - U) vanishes."""
    H = h_form(s)
    candidate = beth(s, XiValuedForm(0, {(): U}))
    s_shifted = change_couple(s, constant(s.chart, 0.0), -U)
    return [(H, candidate), (h_form(s_shifted), 0.0)]


def tangent_witness_image(Y, s):
    """The coboundary d^0(gamma(Y), -(Y - gamma(Y) X)); its second component
    must equal -H_Y."""
    gY = s.couple.gamma_of(Y)
    tangential = Y - s.X.scaled(gY)
    pair = CochainPair(scalar_form(gY), XiValuedForm(0, {(): -tangential}))
    return dfrak(pair, s)
