"""Leafwise complex-structure calculus.

Carries the structure (xi, J, gamma, X) on a single chart, the bracket-based
antiholomorphic derivative on xi-valued objects, the associated (0,1)-form of
a defining couple, the twisted complex in which that form is always closed,
the deformed bracket, and the S-parametrization of nearby complex structures.

Complex scalars never appear: every (0,q) object is held in a real encoding
where multiplication by i acts as J on vector values and as argument rotation
on scalar forms.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from functools import reduce
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import ConjugationSingularError, ZMembershipError
from .excalc import (
    XiValuedForm,
    as_field,
    exterior_derivative,
    interior_product,
    invert_matrix,
    lie_bracket,
    matrix_mul,
    minor,
    one_form,
    scalar_form,
    vector_of_nodes,
)
from .foliation_dgla import (
    DefiningCouple,
    frobenius_residuals,
    leafwise_d,
    mc_residual,
    omega_alpha,
    omega_alpha_inverse,
)
from .report import ResidualAccumulator
from .symfield import PointEvaluator, ScalarField, constant, dot, exp_of, first_flagged

DET_GUARD = 1e-6


@dataclass(frozen=True)
class LeviFlatStructure:
    """Chart, defining couple, a frame of xi, the J-matrix on that frame
    (ScalarField entries; a number given there becomes a constant field), and
    the dual coframe (computed symbolically once at construction).

    N_J = 0 is not assumed: leafwise_integrable is set only where a
    scenario's load check measured it (scenarios.check), and a J replaced
    by with_J drops it."""

    chart: object
    couple: DefiningCouple
    frame: tuple
    Jmat: tuple
    coframe: tuple
    leafwise_integrable: bool = False

    def __post_init__(self):
        J = tuple(tuple(as_field(self.chart, f) for f in row) for row in self.Jmat)
        object.__setattr__(self, "Jmat", J)

    @property
    def gamma(self):
        return self.couple.gamma

    @property
    def X(self):
        return self.couple.X

    @property
    def n_leaf(self):
        return len(self.frame)

    @classmethod
    def build(cls, chart, couple, frame, Jmat):
        frame = tuple(frame)
        if chart.dim < 3:
            raise ValueError("a codimension-1 structure with complex leaves needs dim >= 3")
        if len(frame) != chart.dim - 1 or len(frame) % 2:
            raise ValueError(
                f"frame must span the even-dimensional kernel: got {len(frame)} "
                f"vectors on a dim-{chart.dim} chart"
            )
        basis = list(frame) + [couple.X]
        entries = [[basis[j].components[i] for j in range(chart.dim)] for i in range(chart.dim)]
        inv = invert_matrix(chart, entries)
        coframe = tuple(one_form(chart, inv[j]) for j in range(len(frame)))
        return cls(chart, couple, frame, Jmat, coframe)

    def with_J(self, Jmat):
        return replace(self, Jmat=Jmat, leafwise_integrable=False)

    # -- frame bookkeeping ---------------------------------------------------

    def xi_coefficients(self, V):
        """Frame coefficients of V via the dual coframe (the gamma-component
        is discarded, so this composes J with the projection onto xi)."""
        return [eta.apply_symbolic([V]) for eta in self.coframe]

    def from_xi_coefficients(self, coeffs):
        """The vector field sum_i coeffs[i] E_i; a coefficient is a
        ScalarField or a number."""
        c = [as_field(self.chart, f).node for f in coeffs]
        columns = zip(*[E.components for E in self.frame])
        return vector_of_nodes(self.chart, [dot(c, [f.node for f in col]) for col in columns])

    def project_xi(self, V):
        return V - self.X.scaled(self.couple.gamma_of(V))

    def apply_J(self, V):
        """J acting through the coframe expansion; the gamma-component of V
        is discarded, so this composes J with the projection onto xi."""
        nodes = [c.node for c in self.xi_coefficients(V)]
        return self.from_xi_coefficients(
            [ScalarField(self.chart, dot([f.node for f in row], nodes)) for row in self.Jmat]
        )

    def J_frame(self, i):
        """J E_i, assembled directly from the J-matrix column."""
        return self.from_xi_coefficients([self.Jmat[r][i] for r in range(self.n_leaf)])

    def frame_pairs(self):
        return list(combinations(range(self.n_leaf), 2))

    def basis_matrix_at(self, points, ev=None):
        """Numeric (frame | X) matrices, columns = basis vectors, at an
        (N, dim) batch of points: an (N, dim, dim) stack, each matrix laid out
        in memory as its transpose (BLAS rounds products by layout)."""
        basis = self.frame + (self.X,)
        ev = ev or PointEvaluator(self.chart, points, [c for V in basis for c in V.components])
        cols = np.array([V.at(points, ev) for V in basis])
        return np.ascontiguousarray(cols.transpose(2, 0, 1)).transpose(0, 2, 1)

    def invariants(self, points):
        """Residuals of the structure's defining properties at a batch of
        points, keyed by name."""

        def max_rel(lhs, rhs=0.0):
            return ResidualAccumulator(points).add(lhs, rhs).max_rel

        n = self.n_leaf
        # eta_i(E_j) = delta_ij and eta_i(X) = 0, one component per entry
        basis = self.frame + (self.X,)
        duality = [eta.apply_symbolic([V]) for eta in self.coframe for V in basis]
        jj = [f for row in matrix_mul(self.chart, self.Jmat, self.Jmat) for f in row]
        frob = frobenius_residuals(self.gamma, self.X, points)
        return {
            "gamma_X": max_rel([self.couple.gamma_of(self.X)], 1.0),
            "coframe_duality": max_rel(duality, np.eye(n, n + 1).reshape(-1, 1)),
            "J_squared": max_rel(jj, -np.eye(n).reshape(-1, 1)),
            "gamma_frame": max_rel([self.couple.gamma_of(E) for E in self.frame]),
            "frobenius_iii": frob[0],
            "frobenius_iv": frob[1],
            "frobenius_v": frob[2],
            "nijenhuis": max_rel(
                [nijenhuis(self, self.frame[i], self.frame[j]) for i, j in self.frame_pairs()]
            ),
        }


# --------------------------------------------------------------------------
# Bracket-level operators
# --------------------------------------------------------------------------


def _nijenhuis_terms(s, V, JV, W, JW, bk):
    """[V, W], [JV, JW], J[JV, W], J[V, JW] and N(V, W), each of the four
    brackets built once from the given J-images JV and JW."""
    b, b_JJ = bk(V, W), bk(JV, JW)
    Jb_JV, Jb_JW = s.apply_J(bk(JV, W)), s.apply_J(bk(V, JW))
    return b, b_JJ, Jb_JV, Jb_JW, b_JJ - b - Jb_JV - Jb_JW


def nijenhuis(s, V, W, bracket=None):
    """N(V, W) = [JV, JW] - [V, W] - J[JV, W] - J[V, JW]."""
    return _nijenhuis_terms(s, V, s.apply_J(V), W, s.apply_J(W), bracket or lie_bracket)[4]


def _dbar0_value(b, Jb_JV, N):
    """(dbar W)(V) from [V, W], J[JV, W] and N(V, W)."""
    return (b + Jb_JV).scaled(0.5) + N.scaled(0.25)


def dbar0_apply(s, W, V):
    """(dbar W)(V) = 1/2([V, W] + J[JV, W]) + 1/4 N(V, W)."""
    b, _, Jb_JV, _, N = _nijenhuis_terms(s, V, s.apply_J(V), W, s.apply_J(W), lie_bracket)
    return _dbar0_value(b, Jb_JV, N)


def dbar0(s, W):
    """dbar of a xi-field, as a (0,1)-form on the frame."""
    return XiValuedForm(1, {(i,): dbar0_apply(s, W, E) for i, E in enumerate(s.frame)})


def xi_form_apply(s, form, args):
    """Multilinear evaluation of a XiValuedForm, xi-valued or scalar, on
    symbolic xi-arguments: the sum over increasing frame tuples idx of the
    idx-minor of the args' frame coefficients times the value on idx."""
    if form.degree > 2:
        raise ValueError(f"unsupported degree {form.degree}")
    rows = [s.xi_coefficients(arg) for arg in args]
    idxs = combinations(range(s.n_leaf), form.degree)
    return reduce(operator.add, (minor(rows, idx) * form.values[idx] for idx in idxs))


def dbar1(s, omega):
    """dbar of a (0,1)-form on integrable leaves:
    dbar(omega)(V, W) = dbar(omega(W))(V) - dbar(omega(V))(W)
                        - 1/2 omega([V, W] - [JV, JW]).
    The rule the identities use; s_terms' dbar is its oracle."""
    if not s.leafwise_integrable:
        raise ValueError("dbar on (0,1)-forms needs leafwise integrability (N_J = 0)")
    values = {}
    for i, j in s.frame_pairs():
        Ei, Ej = s.frame[i], s.frame[j]
        wi, wj = omega.value((i,)), omega.value((j,))
        mixed = lie_bracket(Ei, Ej) - lie_bracket(s.J_frame(i), s.J_frame(j))
        values[(i, j)] = (
            dbar0_apply(s, wj, Ei)
            - dbar0_apply(s, wi, Ej)
            - xi_form_apply(s, omega, [mixed]).scaled(0.5)
        )
    return XiValuedForm(2, values)


# --------------------------------------------------------------------------
# (0,q) projections and products
# --------------------------------------------------------------------------


def proj01_scalar(s, alpha):
    """(0,1)-projection of a real 1-form: stored real part is alpha(E_i)/2."""
    return XiValuedForm(
        1, {(i,): alpha.apply_symbolic([E]) * 0.5 for i, E in enumerate(s.frame)}
    )


def _im01(s, A):
    """The imaginary part of the scalar (0,1)-form A at each E_i, i.e. its
    real part at J E_i."""
    return [xi_form_apply(s, A, [s.J_frame(i)]) for i in range(s.n_leaf)]


def wedge01(s, A, P):
    """Real wedge of a scalar (0,1)-form with a xi-valued (0,p)-form, p <= 1;
    multiplication by i acts as J on values."""
    if A.degree == 1 and P.degree == 0:
        U = P.value(())
        JU = s.apply_J(U)
        im = _im01(s, A)
        values = {}
        for i in range(s.n_leaf):
            values[(i,)] = U.scaled(A.values[(i,)]) + JU.scaled(im[i])
        return XiValuedForm(1, values)
    if A.degree == 1 and P.degree == 1:
        im = _im01(s, A)
        JP = {idx: s.apply_J(V) for idx, V in P.values.items()}
        values = {}
        for i, j in s.frame_pairs():
            values[(i, j)] = (
                P.value((j,)).scaled(A.values[(i,)])
                + JP[(j,)].scaled(im[i])
                - P.value((i,)).scaled(A.values[(j,)])
                - JP[(i,)].scaled(im[j])
            )
        return XiValuedForm(2, values)
    raise ValueError(f"unsupported degrees q={A.degree}, p={P.degree}")


def dbar_scalar(s, a):
    """dbar of a scalar: the (0,1)-projection of its differential."""
    return proj01_scalar(s, exterior_derivative(scalar_form(a)))


def dbar_scalar01(s, A):
    """dbar of a scalar (0,1)-form, through the leafwise differential of its
    real encoding:  Re dbar(alpha)(V,W) =
    (d_b r(V,W) - d_b r(JV,JW) - d_b rJ(JV,W) - d_b rJ(V,JW)) / 4 with
    r the real part as an ambient 1-form and rJ its J-rotated partner."""
    r_amb = _ambient_from_re(s, A.values)
    rj_amb = _ambient_from_re(s, {(i,): f for i, f in enumerate(_im01(s, A))})
    dr = leafwise_d(r_amb, s.couple)
    drj = leafwise_d(rj_amb, s.couple)
    re = {}
    for i, j in s.frame_pairs():
        V, W, JV, JW = s.frame[i], s.frame[j], s.J_frame(i), s.J_frame(j)
        re[(i, j)] = (
            dr.apply_symbolic([V, W])
            - dr.apply_symbolic([JV, JW])
            - drj.apply_symbolic([JV, W])
            - drj.apply_symbolic([V, JW])
        ) * 0.25
    return XiValuedForm(2, re)


def _ambient_from_re(s, re_values):
    """Ambient 1-form with the given frame values and zero on X."""
    return reduce(operator.add, (s.coframe[i].scaled(re_values[(i,)]) for i in range(s.n_leaf)))


# --------------------------------------------------------------------------
# The (0,1)-form of a couple and the twisted complex
# --------------------------------------------------------------------------


def t_endo(couple, Y):
    """T_Y(V) = [V, Y] - gamma([V, Y]) X."""

    def apply(V):
        b = lie_bracket(V, Y)
        return b - couple.X.scaled(couple.gamma_of(b))

    return apply


def h_apply(s, Y, V):
    """H_Y(V) = (T_Y(V) + J T_Y(JV)) / 2."""
    T = t_endo(s.couple, Y)
    return (T(V) + s.apply_J(T(s.apply_J(V)))).scaled(0.5)


def h_form(s, Y=None):
    """The (0,1)-form associated to the couple (Y = X), or H_Y in general."""
    Y = s.X if Y is None else Y
    T = t_endo(s.couple, Y)
    values = {}
    for i, E in enumerate(s.frame):
        values[(i,)] = (T(E) + s.apply_J(T(s.J_frame(i)))).scaled(0.5)
    return XiValuedForm(1, values)


def ix_dgamma(s):
    return interior_product(s.X, exterior_derivative(s.gamma))


def ix_dgamma01(s):
    return proj01_scalar(s, ix_dgamma(s))


def beth(s, P):
    """Twisted derivative: dbar(P) - (iota_X d gamma)^{0,1} wedge P, p <= 1."""
    if P.degree > 1:
        raise ValueError("beth is implemented for degrees 0 and 1 only")
    dbar = dbar0(s, P.value(())) if P.degree == 0 else dbar1(s, P)
    return dbar - wedge01(s, ix_dgamma01(s), P)


# --------------------------------------------------------------------------
# Deformed bracket
# --------------------------------------------------------------------------


def deformed_bracket(couple, alpha, V, W):
    """[V, W]_alpha = omega_alpha^{-1} [omega_alpha V, omega_alpha W]."""
    return omega_alpha_inverse(
        lie_bracket(omega_alpha(V, alpha, couple), omega_alpha(W, alpha, couple)),
        alpha,
        couple,
    )


def make_deformed_bracket(couple, alpha):
    def bk(V, W):
        return deformed_bracket(couple, alpha, V, W)

    return bk


def deformed_bracket_expanded(couple, alpha, V, W):
    """Ten-term expansion of the deformed bracket, used as an independent
    oracle for the conjugation route."""
    X = couple.X
    aV = alpha.apply_symbolic([V])
    aW = alpha.apply_symbolic([W])
    bVW = lie_bracket(V, W)
    bXW = lie_bracket(X, W)
    bVX = lie_bracket(V, X)
    out = bVW
    out = out - bXW.scaled(aV)
    out = out + X.scaled(W.apply(aV))
    out = out - bVX.scaled(aW)
    out = out - X.scaled(V.apply(aW))
    out = out + X.scaled(aV * X.apply(aW))
    out = out - X.scaled(aW * X.apply(aV))
    out = out + X.scaled(alpha.apply_symbolic([bVW]))
    out = out - X.scaled(aV * alpha.apply_symbolic([bXW]))
    out = out - X.scaled(aW * alpha.apply_symbolic([bVX]))
    return out


def derivation_pairing(couple, alpha, V, f):
    """<V, f>_alpha = omega_alpha(V)(f)."""
    return omega_alpha(V, alpha, couple).apply(f)


def alpha_wedge_T(s, alpha, V, W):
    """(alpha ^ T)(V, W) = alpha(V) T(W) - alpha(W) T(V)."""
    T = t_endo(s.couple, s.X)
    return T(W).scaled(alpha.apply_symbolic([V])) - T(V).scaled(alpha.apply_symbolic([W]))


# --------------------------------------------------------------------------
# S-calculus
# --------------------------------------------------------------------------


def s_from_structures(s, Jtilde, points):
    """Unique S with Jtilde = (I+S) J (I+S)^{-1} and SJ + JS = 0.

    Solving Jtilde (I+S) = (I+S) J for S gives S = (J + Jtilde)^{-1}
    (J - Jtilde); the transposed factor order only agrees when J and Jtilde
    commute, and fails the round-trip contract otherwise."""
    n = s.n_leaf
    J = s.Jmat
    total = [[J[r][c] + Jtilde[r][c] for c in range(n)] for r in range(n)]
    entries = [f for row in total for f in row]
    ev = PointEvaluator(s.chart, points, entries)
    det = np.linalg.det(np.array([ev(f) for f in entries]).T.reshape(-1, n, n))
    k = first_flagged(np.abs(det) < DET_GUARD)
    if k is not None:
        raise ConjugationSingularError(f"det(J + Jtilde) = {float(det[k])!r} at {points[k]}")
    diff = [[J[r][c] - Jtilde[r][c] for c in range(n)] for r in range(n)]
    inv = invert_matrix(s.chart, total, probe=points[:1])
    return matrix_mul(s.chart, inv, diff)


def conjugate_J(s, Smat, points):
    """(I + S) J (I + S)^{-1} as a frame matrix; the first of the sample
    points picks the pivots of the inverse (see invert_matrix)."""
    n = s.n_leaf
    one = constant(s.chart, 1.0)
    zero = constant(s.chart, 0.0)
    i_plus = [[Smat[r][c] + (one if r == c else zero) for c in range(n)] for r in range(n)]
    inv = invert_matrix(s.chart, i_plus, probe=points[:1])
    return matrix_mul(s.chart, matrix_mul(s.chart, i_plus, s.Jmat), inv)


def xi_form_from_matrix(s, mat):
    """Frame matrix -> (0,1) xi-valued form, column i = value on E_i."""
    n = s.n_leaf
    return XiValuedForm(
        1,
        {(i,): s.from_xi_coefficients([mat[r][i] for r in range(n)]) for i in range(n)},
    )


def anticommutator_residual(s, Smat):
    """The entries of SJ + JS, which vanish when S anticommutes with J."""
    n = s.n_leaf
    SJ = matrix_mul(s.chart, Smat, s.Jmat)
    JS = matrix_mul(s.chart, s.Jmat, Smat)
    return [SJ[r][c] + JS[r][c] for r in range(n) for c in range(n)]


class STerms(NamedTuple):
    """The S-calculus terms at (V, W), with SV and SW."""

    n: object  # N(V, W)
    n_SS: object  # N(SV, SW)
    dbar: object  # (dbar_J S)(V, W)
    square: object  # [S, S](V, W)
    double: object  # [[S, S]](V, W)
    SV: object
    SW: object


def s_terms(s, S, V, W, bracket=None):
    """N(V,W), N(SV,SW), dbar_J S, [S,S] and [[S,S]] at (V, W), from one set
    of brackets and J-images:
        dbar_J S (V, W) = dbar(SW)(V) - dbar(SV)(W) - S([V,W] - [JV,JW])/2
        [S, S](V, W) = [SV,SW] - [JSV,JSW]
                       - S([SV,W] + [V,SW] + J[V,JSW] + J[JSV,W])
                       - (S N(SV,W) + S N(V,SW) - N(SV,SW)) / 2
        [[S, S]] = [S, S] - S(N - N(SV, SW)) / 2.
    Its dbar, from apply_J and the given bracket, is the oracle for dbar1."""
    bk = bracket or lie_bracket
    SV = xi_form_apply(s, S, [V])
    SW = xi_form_apply(s, S, [W])
    JV, JW, JSV, JSW = (s.apply_J(U) for U in (V, W, SV, SW))
    b_VW, b_JVJW, _, _, n = _nijenhuis_terms(s, V, JV, W, JW, bk)
    b_VSW, _, Jb_JVSW, Jb_VJSW, n_VSW = _nijenhuis_terms(s, V, JV, SW, JSW, bk)
    b_SVW, _, Jb_JSVW, _, n_SVW = _nijenhuis_terms(s, SV, JSV, W, JW, bk)
    b_WSV, _, Jb_JWSV, _, n_WSV = _nijenhuis_terms(s, W, JW, SV, JSV, bk)
    b_SS, b_JSJS, _, _, n_SS = _nijenhuis_terms(s, SV, JSV, SW, JSW, bk)
    dbar = (
        _dbar0_value(b_VSW, Jb_JVSW, n_VSW)
        - _dbar0_value(b_WSV, Jb_JWSV, n_WSV)
        - xi_form_apply(s, S, [b_VW - b_JVJW]).scaled(0.5)
    )
    middle = b_SVW + b_VSW + Jb_VJSW + Jb_JSVW
    n_terms = xi_form_apply(s, S, [n_SVW]) + xi_form_apply(s, S, [n_VSW]) - n_SS
    square = b_SS - b_JSJS - xi_form_apply(s, S, [middle]) - n_terms.scaled(0.5)
    double = square - xi_form_apply(s, S, [n - n_SS]).scaled(0.5)
    return STerms(n, n_SS, dbar, square, double, SV, SW)


# --------------------------------------------------------------------------
# Couple changes and the residual checks built on them
# --------------------------------------------------------------------------


def change_couple(s, lam, U):
    """New structure for the couple (e^lam gamma, e^-lam X + U), U in xi.

    The coframe transforms as eta_i - eta_i(U) * e^lam gamma, which keeps the
    symbolic trees small."""
    e_plus = exp_of(lam)
    e_minus = exp_of(-lam)
    gamma_hat = s.gamma.scaled(e_plus)
    X_hat = s.X.scaled(e_minus) + U
    couple = DefiningCouple(gamma_hat, X_hat)
    coframe = tuple(
        eta - gamma_hat.scaled(eta.apply_symbolic([U])) for eta in s.coframe
    )
    return replace(s, couple=couple, coframe=coframe)


def change_couple_h_residual(s, lam, U):
    """H_{J,ghat,Xhat} = e^-lam H + dbar U - ((iota_X dgamma)^{0,1} - dbar lam) wedge U,
    as (lhs, rhs)."""
    s_hat = change_couple(s, lam, U)
    lhs = h_form(s_hat)
    factor = exp_of(-lam)
    mu = ix_dgamma01(s) - dbar_scalar(s, lam)
    rhs = h_form(s).scaled(factor) + dbar0(s, U) - wedge01(s, mu, XiValuedForm(0, {(): U}))
    return lhs, rhs


def beth_conjugation_residual(s, lam, U, P):
    """beth_{ghat,Xhat}(e^-lam P) = e^-lam beth_{g,X}(P), as (lhs, rhs)."""
    s_hat = change_couple(s, lam, U)
    factor = exp_of(-lam)
    return beth(s_hat, P.scaled(factor)), beth(s, P).scaled(factor)


def n_alpha_residual(s, alpha, points):
    """N_J^alpha = -4 alpha^{0,1} wedge H, as (lhs, rhs) lists over the frame
    pairs; raises unless alpha is Maurer-Cartan flat at the points."""
    flatness = ResidualAccumulator(points).add(mc_residual(alpha, s.couple, points)).max_rel
    if not flatness <= 1e-8:
        raise ZMembershipError(f"alpha is not Maurer-Cartan flat (residual {flatness:.3e})")

    bk = make_deformed_bracket(s.couple, alpha)
    H = h_form(s)
    a01 = proj01_scalar(s, alpha)
    rhs_form = wedge01(s, a01, H).scaled(-4.0)
    pairs = s.frame_pairs()
    lhs = [nijenhuis(s, s.frame[i], s.frame[j], bk) for i, j in pairs]
    return lhs, [rhs_form.value(ij) for ij in pairs]


def antilinearity_residual(s, form):
    """(0,1)-property: the value at J E_i equals -J (the value at E_i), as
    (lhs, rhs) lists over the frame."""
    if form.degree != 1:
        raise ValueError("antilinearity is checked on (0,1)-forms only")
    lhs = [xi_form_apply(s, form, [s.J_frame(i)]) for i in range(s.n_leaf)]
    return lhs, [-s.apply_J(form.value((i,))) for i in range(s.n_leaf)]
