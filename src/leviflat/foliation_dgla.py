"""Codimension-1 foliation calculus: defining couples, the graded bracket,
the twisted differential, Maurer-Cartan and Frobenius residuals, and the
differential along the leaves."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ZMembershipError
from .excalc import (
    DifferentialForm,
    VectorField,
    exterior_derivative,
    interior_product,
    lie_derivative_form,
    scalar_form,
    wedge,
)
from .report import ONE_INSTANCE, ResidualAccumulator
from .symfield import ScalarField

MEMBERSHIP_TOL = 1e-8


def _as_form(x):
    return scalar_form(x) if isinstance(x, ScalarField) else x


@dataclass(frozen=True)
class DefiningCouple:
    """A 1-form gamma and vector field X with ker gamma = xi and gamma(X) = 1.

    The constructor performs no validation: negative controls need
    non-integrable couples.
    """

    gamma: DifferentialForm
    X: VectorField

    def gamma_of(self, V):
        return self.gamma.apply_symbolic([V])


def dgla_bracket(alpha, beta, couple):
    """{alpha, beta} = L_X alpha ^ beta - alpha ^ L_X beta."""
    alpha, beta = _as_form(alpha), _as_form(beta)
    X = couple.X
    return wedge(lie_derivative_form(X, alpha), beta) - wedge(alpha, lie_derivative_form(X, beta))


def dgla_bracket_reduced(alpha, beta, couple):
    """Reduced formula iota_X d(alpha) ^ beta - alpha ^ iota_X d(beta),
    valid when both inputs are annihilated by iota_X."""
    alpha, beta = _as_form(alpha), _as_form(beta)
    X = couple.X

    def ix_d(omega):
        return interior_product(X, exterior_derivative(omega))

    return wedge(ix_d(alpha), beta) - wedge(alpha, ix_d(beta))


def delta(alpha, couple):
    """Twisted differential d + {gamma, .}."""
    alpha = _as_form(alpha)
    return exterior_derivative(alpha) + dgla_bracket(couple.gamma, alpha, couple)


def z_membership_residual(alpha, couple, points, rows):
    """Max absolute value of iota_X alpha over the sample points (the raw
    deviation from Z^* membership; 0-forms always belong to Z^0), for each
    row of alpha's parameter values."""
    alpha = _as_form(alpha)
    if alpha.degree == 0:
        return 0.0
    residual = [(interior_product(couple.X, alpha), 0.0)]
    return ResidualAccumulator(points).add_each(rows, residual).max_abs


def mc_residual(alpha, couple, points, rows=ONE_INSTANCE):
    """Maurer-Cartan 2-form delta(alpha) + 1/2 {alpha, alpha}.

    Zero iff ker(gamma + alpha) is integrable.  Raises when alpha is not in
    Z^1 within MEMBERSHIP_TOL at the points, for some row of its parameter
    values.
    """
    if alpha.degree != 1:
        raise ZMembershipError("Maurer-Cartan input must be a 1-form")
    zres = z_membership_residual(alpha, couple, points, rows)
    if not zres <= MEMBERSHIP_TOL:
        raise ZMembershipError(f"iota_X alpha residual {zres:.3e} exceeds {MEMBERSHIP_TOL:.1e}")
    bracket = dgla_bracket(alpha, alpha, couple)
    return delta(alpha, couple) + bracket.scaled(0.5)


def frobenius_residuals(gamma, X, points):
    """The three computable integrability residuals, as floats:
    (iii) d(gamma) ^ gamma = 0,
    (iv)  d(gamma) + iota_X d(gamma) ^ gamma = 0,
    (v)   Maurer-Cartan for gamma in the untwisted DGLA.
    """
    couple = DefiningCouple(gamma, X)
    d_gamma = exterior_derivative(gamma)
    conds = (
        wedge(d_gamma, gamma),
        d_gamma + wedge(interior_product(X, d_gamma), gamma),
        d_gamma + dgla_bracket(gamma, gamma, couple).scaled(0.5),
    )
    return tuple(ResidualAccumulator(points).add(form).max_rel for form in conds)


def leafwise_d(alpha, couple):
    """Differential along the leaves: d(alpha) - gamma ^ iota_X d(alpha)."""
    alpha = _as_form(alpha)
    d_alpha = exterior_derivative(alpha)
    return d_alpha - wedge(couple.gamma, interior_product(couple.X, d_alpha))


def omega_alpha(V, alpha, couple):
    """omega_alpha(V) = V - alpha(V) X, mapping xi onto ker(gamma + alpha)."""
    return V - couple.X.scaled(alpha.apply_symbolic([V]))


def omega_alpha_inverse(V, alpha, couple):
    """Inverse map V + alpha(V) X."""
    return V + couple.X.scaled(alpha.apply_symbolic([V]))


def mc_oracle_form(alpha, couple):
    """Independent integrability oracle: d(beta) ^ beta for beta = gamma + alpha.

    On an integrable base couple, iota_X of this 3-form equals the
    Maurer-Cartan 2-form of alpha; it is used to certify mc_residual without
    reusing the bracket code path.
    """
    beta = couple.gamma + alpha
    return wedge(exterior_derivative(beta), beta)
