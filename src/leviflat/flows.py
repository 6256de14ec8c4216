"""Numerical diffeomorphism flows and the gauge action along them.

The flow map and its Jacobian are integrated together with a classical
4th-order one-step scheme (variational equation alongside the trajectory).
Finite-difference derivatives of the gauge action use central differences at
t in {+-h_fd, +-h_fd/2} with one Richardson level, so the documented
tolerances are reproducible.

The pullback realizing the gauge action runs along the inverse flow: the
normalized pullback of gamma + alpha by the time-(-t) map.  This matches the
convention in which the transformed kernel distribution is the pushforward of
the original one, and gives d/dt chi(0) = -delta(gamma(Y)) at t = 0.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConjugationSingularError, FlowParameterError, GaugeDomainError
from .excalc import exterior_derivative, wedge
from .symfield import PointEvaluator

DEFAULT_STEP = 1e-3
FD_OFFSET = 1e-3
GAUGE_GUARD = 1e-6


def _jacobian_fields(Y):
    return [[c.diff(j) for j in range(Y.chart.dim)] for c in Y.components]


def integrate_flow(Y, t, p, h=DEFAULT_STEP):
    """Integrate dp/ds = Y(p), dA/ds = DY(p) A from (p, I) for time t.

    Returns (point, Jacobian) as numpy arrays; classical RK4, global error
    O(h^4).
    """
    if h <= 0:
        raise FlowParameterError(f"step must be positive, got {h!r}")
    if abs(t) / h > 1e6:
        raise FlowParameterError(f"|t|/h = {abs(t) / h:.3e} exceeds 1e6")
    chart = Y.chart
    dim = chart.dim
    x = np.array([float(c) for c in p])
    A = np.eye(dim)
    if t == 0.0:
        return x, A
    jac = _jacobian_fields(Y)

    def field(xv):
        ev = PointEvaluator(chart, tuple(xv))
        f = np.array([ev(c) for c in Y.components])
        J = np.array([[ev(jac[i][j]) for j in range(dim)] for i in range(dim)])
        return f, J

    steps = max(1, math.ceil(abs(t) / h))
    ds = t / steps
    for _ in range(steps):
        f1, J1 = field(x)
        K1 = J1 @ A
        f2, J2 = field(x + 0.5 * ds * f1)
        K2 = J2 @ (A + 0.5 * ds * K1)
        f3, J3 = field(x + 0.5 * ds * f2)
        K3 = J3 @ (A + 0.5 * ds * K2)
        f4, J4 = field(x + ds * f3)
        K4 = J4 @ (A + ds * K3)
        x = x + (ds / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        A = A + (ds / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    return x, A


def pullback_form_numeric(Y, t, omega, p, args, h=DEFAULT_STEP):
    """((Phi_t^Y)* omega)(p; args) = omega(Phi_t(p); DPhi_t args)."""
    q, A = integrate_flow(Y, t, p, h)
    ev_p = PointEvaluator(omega.chart, p)
    numeric = [A @ np.array(arg.at(p, ev_p)) for arg in args]
    return omega.at(tuple(q), [list(v) for v in numeric])


def gauge_action_numeric(Y, t, alpha, couple, p, arg, h=DEFAULT_STEP):
    """chi(Phi_t^Y)(alpha) evaluated at (p, arg).

    chi(Phi)(alpha) = (Phi* (gamma+alpha)(X))^{-1} Phi*(gamma+alpha) - gamma
    with the pullback taken along the inverse flow.
    """
    beta = couple.gamma if alpha is None or alpha.is_zero else couple.gamma + alpha
    q, B = integrate_flow(Y, -t, p, h)
    ev_p = PointEvaluator(beta.chart, p)
    ev_q = PointEvaluator(beta.chart, tuple(q))
    Xp = np.array(couple.X.at(p, ev_p))
    den = beta.at(tuple(q), [list(B @ Xp)], ev_q)
    if abs(den) < GAUGE_GUARD:
        raise GaugeDomainError(f"pullback normalization {den!r} below {GAUGE_GUARD}")
    v = np.array(arg.at(p, ev_p))
    pulled = beta.at(tuple(q), [list(B @ v)], ev_q)
    return pulled / den - couple.gamma.at(p, [list(v)], ev_p)


def _richardson(values_at, tau):
    """One Richardson level over central differences at tau and tau/2.

    values_at maps a time offset to a float or numpy array.
    """
    d1 = (values_at(tau) - values_at(-tau)) / (2.0 * tau)
    d2 = (values_at(0.5 * tau) - values_at(-0.5 * tau)) / tau
    return (4.0 * d2 - d1) / 3.0


def gauge_derivative_fd(Y, couple, p, arg, h=DEFAULT_STEP, tau=FD_OFFSET):
    """Richardson central difference of t -> chi(Phi_t^Y)(0) at t = 0.

    Contract: equals -delta(iota_Y gamma) evaluated at (p, arg).
    """

    def value(t):
        return gauge_action_numeric(Y, t, None, couple, p, arg, h)

    return _richardson(value, tau)


def _chi_numeric(Y, t, couple, p, h):
    """Numeric chi(Phi_t^Y)(0) at p, as a function of numeric vectors, plus
    shared point data (q, B, evaluators)."""
    chart = couple.gamma.chart
    q, B = integrate_flow(Y, -t, p, h)
    ev_p = PointEvaluator(chart, p)
    ev_q = PointEvaluator(chart, tuple(q))
    Xp = np.array(couple.X.at(p, ev_p))
    den = couple.gamma.at(tuple(q), [list(B @ Xp)], ev_q)
    if abs(den) < GAUGE_GUARD:
        raise GaugeDomainError(f"pullback normalization {den!r} below {GAUGE_GUARD}")

    def chi(v):
        pulled = couple.gamma.at(tuple(q), [list(B @ v)], ev_q)
        return pulled / den - couple.gamma.at(p, [list(v)], ev_p)

    return chi, q, B, ev_p, ev_q, Xp


def _conjugated_S_matrix(Y, t, s, p, h):
    """S_{chi(Phi_t^Y)(0)} at p as a numeric frame matrix."""
    n = s.n_leaf
    ev_p = PointEvaluator(s.chart, p)
    Mp = s.basis_matrix_at(p, ev_p)
    Jp = np.array([[ev_p(f) if hasattr(f, "node") else float(f) for f in row] for row in s.Jmat])
    if t == 0.0:
        return np.zeros((n, n))
    chi, q, B, _, ev_q, Xp = _chi_numeric(Y, t, s.couple, p, h)
    Mq = s.basis_matrix_at(tuple(q), ev_q)
    Jq = np.array([[ev_q(f) if hasattr(f, "node") else float(f) for f in row] for row in s.Jmat])
    cols = []
    for i in range(n):
        e = np.array(s.frame[i].at(p, ev_p))
        w = e - chi(e) * Xp
        u = B @ w
        c = np.linalg.solve(Mq, u)
        Ju = Mq[:, :n] @ (Jq @ c[:n])
        z = np.linalg.solve(B, Ju)
        v2 = z + chi(z) * Xp
        cols.append(np.linalg.solve(Mp, v2)[:n])
    Jtilde = np.array(cols).T
    total = Jp + Jtilde
    if abs(np.linalg.det(total)) < 1e-6:
        raise ConjugationSingularError(f"det(J + Jtilde) too small at t={t!r}")
    return (Jp - Jtilde) @ np.linalg.inv(total)


def s_gauge_fd(Y, s, p, frame_index, h=DEFAULT_STEP, tau=FD_OFFSET):
    """Richardson central difference of t -> S_{chi(Phi_t^Y)(0)} at t = 0,
    applied to the frame vector; returned in chart components.

    Contract: equals -H_Y(E_frame_index) at p.
    """

    def value(t):
        return _conjugated_S_matrix(Y, t, s, p, h)

    Sdot = _richardson(value, tau)
    ev_p = PointEvaluator(s.chart, p)
    Mp = s.basis_matrix_at(p, ev_p)
    return Mp[:, : s.n_leaf] @ Sdot[:, frame_index]


def gauge_mc_value(Y, t, alpha, couple, p, V, W, h=DEFAULT_STEP):
    """Maurer-Cartan 2-form of chi(Phi_t^Y)(alpha) at (p; V, W), through the
    exact identity MC(chi(alpha)) = iota_X (f^2 Phi* (d(gamma+alpha) ^
    (gamma+alpha))) with f the pullback normalization.  Avoids finite
    differencing the transported form."""
    beta = couple.gamma if alpha is None or alpha.is_zero else couple.gamma + alpha
    three_form = wedge(exterior_derivative(beta), beta)
    chart = beta.chart
    q, B = integrate_flow(Y, -t, p, h)
    ev_p = PointEvaluator(chart, p)
    ev_q = PointEvaluator(chart, tuple(q))
    Xp = np.array(couple.X.at(p, ev_p))
    den = beta.at(tuple(q), [list(B @ Xp)], ev_q)
    if abs(den) < GAUGE_GUARD:
        raise GaugeDomainError(f"pullback normalization {den!r} below {GAUGE_GUARD}")
    args = [list(B @ Xp), list(B @ np.array(V.at(p, ev_p))), list(B @ np.array(W.at(p, ev_p)))]
    return three_form.at(tuple(q), args, ev_q) / (den * den)
