"""Numerical diffeomorphism flows and the gauge action along them.

The flow map and its Jacobian are integrated together with a classical
4th-order one-step scheme (variational equation alongside the trajectory).
Its global error is C h^4 |t|, and DEFAULT_STEP is the largest h that keeps
it far under the tolerances of the flows that take many steps.  The rule:
flow.group_law, which compares flows over -0.05 then 0.07 with one over
0.02, keeps its worst max_rel at most 1e-12.  That is 5 digits under its
tolerance of 1e-7, a wider margin than the 4 digits of excalc.jacobi_vector
(8.9e-15 against 1e-10), the tightest in a report.  Over seeds 1-10 and 42
at 20 points on the six 3-torus built-ins its worst max_rel reads

    h       worst flow.group_law max_rel
    1e-3    1.0e-15
    4e-3    4.4e-13
    5e-3    7.2e-13   (t3_twisted, seed 7)
    1e-2    2.7e-11

and remark.gauge_mc at most 1.1e-16 at every step (see gauge_mc_value).  The
Richardson flows below move at most FD_OFFSET <= DEFAULT_STEP, so they take
exactly one step of length t whatever DEFAULT_STEP is.  Reference: Hairer,
Norsett & Wanner, Solving Ordinary Differential Equations I, 2nd ed., II.4.

Finite-difference derivatives of the gauge action use central differences at
t in {+-h_fd, +-h_fd/2} with one Richardson level, so the documented
tolerances are reproducible; the four offsets flow as one batch, one time per
point.

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
from .leafcx import DET_GUARD
from .symfield import PointEvaluator, Tape, first_flagged, point_batch

# The largest h for which flow.group_law's worst max_rel stays at most 1e-12
# (7.2e-13 here; 1e-2 reads 2.7e-11): the table in the module docstring.  A
# flow over |t| <= h takes one step of length t, so the FD_OFFSET flows are
# the same for any DEFAULT_STEP >= FD_OFFSET.
DEFAULT_STEP = 5e-3
FD_OFFSET = 1e-3
GAUGE_GUARD = 1e-6


def matvec(M, v):
    """Stacked matrix-vector products: (N, m, k) with (N, k) -> (N, m)."""
    return (M @ np.ascontiguousarray(v)[..., None])[..., 0]


def _columns(V, points, ev):
    """Components of a VectorField at a batch, as an (N, dim) array."""
    return np.ascontiguousarray(V.at(points, ev).T)


def integrate_flow(Y, t, points, h=DEFAULT_STEP, jacobian=True):
    """Integrate dp/ds = Y(p), dA/ds = DY(p) A from (p, I) for time t, for
    every p of an (N, dim + P) batch together; a point's parameter values
    ride along unmoved.

    Returns (points, Jacobians) as numpy arrays of shapes (N, dim + P) and
    (N, dim, dim); classical RK4, global error O(h^4).  With jacobian=False
    only the trajectory is integrated and the Jacobians come back as None.
    t is one time for every point or an (N,) array of one time per point;
    every point then takes the ceil(max|t| / h) steps of the longest time,
    each of its own length.
    """
    if not 0.0 < h < math.inf:
        raise FlowParameterError(f"step must be positive and finite, got {h!r}")
    chart = Y.chart
    dim = chart.dim
    x = point_batch(chart, points)
    # the parameter columns: fixed along the flow
    fixed = x[:, dim:]
    x = x[:, :dim]
    times = np.asarray(t, dtype=float)
    if times.shape not in ((), (len(x),)):
        raise FlowParameterError(f"t must be one time or one per point, got shape {times.shape}")
    k = first_flagged(~np.isfinite(times))
    if k is not None:
        raise FlowParameterError(f"time must be finite, got {float(times.flat[k])!r}")
    span = float(np.abs(times).max()) if times.size else 0.0
    if span / h > 1e6:
        raise FlowParameterError(f"|t|/h = {span / h:.3e} exceeds 1e6")
    A = np.tile(np.eye(dim), (len(x), 1, 1)) if jacobian else None
    if span == 0.0:
        return np.hstack([x, fixed]), A
    jac = [[c.diff(j) for j in range(dim)] for c in Y.components] if jacobian else []
    tape = Tape([f.node for f in Y.components + tuple(f for row in jac for f in row)])

    def field(xv):
        ev = PointEvaluator(chart, np.hstack([xv, fixed]) if fixed.size else xv, tape)
        f = np.ascontiguousarray(np.array([ev(c) for c in Y.components]).T)
        if not jacobian:
            return f, None
        J = np.array([[ev(jac[i][j]) for j in range(dim)] for i in range(dim)])
        return f, np.ascontiguousarray(J.transpose(2, 0, 1))

    steps = max(1, math.ceil(span / h))
    # one step length per point, shaped to scale its rows of x and of A
    ds = (np.broadcast_to(times, len(x)) / steps)[:, None]
    dA = ds[:, :, None]
    for _ in range(steps):
        f1, J1 = field(x)
        f2, J2 = field(x + 0.5 * ds * f1)
        f3, J3 = field(x + 0.5 * ds * f2)
        f4, J4 = field(x + ds * f3)
        x = x + (ds / 6.0) * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        if jacobian:
            K1 = J1 @ A
            K2 = J2 @ (A + 0.5 * dA * K1)
            K3 = J3 @ (A + 0.5 * dA * K2)
            K4 = J4 @ (A + dA * K3)
            A = A + (dA / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    return np.hstack([x, fixed]), A


def pullback_form_numeric(Y, t, omega, points, args):
    """((Phi_t^Y)* omega)(p; args) = omega(Phi_t(p); DPhi_t args) at an
    (N, dim) batch of points p, for one time t or an (N,) array of them."""
    q, A = integrate_flow(Y, t, points)
    ev_p = PointEvaluator(omega.chart, points, [c for arg in args for c in arg.components])
    numeric = [matvec(A, _columns(arg, points, ev_p)).T for arg in args]
    return omega.at(q, numeric)


class _Pullback:
    """The inverse flow of Y over time t from a batch of points, with what
    every gauge function needs there: the images q and Jacobians B,
    evaluators at the points and at the images (primed with beta, gamma, X
    and the given fields), X at the points and the normalization
    beta_q(B X_p), checked against GAUGE_GUARD."""

    def __init__(self, Y, t, couple, beta, pts, fields):
        gamma = couple.gamma
        coeffs = [*beta.coeffs.values(), *gamma.coeffs.values(), *fields]
        self.couple, self.beta, self.pts = couple, beta, pts
        self.q, self.B = integrate_flow(Y, -t, pts)
        self.ev_p = PointEvaluator(gamma.chart, pts, [*couple.X.components, *coeffs])
        self.ev_q = PointEvaluator(gamma.chart, self.q, coeffs)
        self.Xp = _columns(couple.X, pts, self.ev_p)
        self.den = self.pushed(beta, self.Xp)
        k = first_flagged(np.abs(self.den) < GAUGE_GUARD)
        if k is not None:
            den = float(self.den[k])
            raise GaugeDomainError(f"pullback normalization {den!r} below {GAUGE_GUARD}")

    def pushed(self, form, *vectors):
        """form at the images on B applied to (N, dim) vector arrays."""
        return form.at(self.q, [matvec(self.B, v).T for v in vectors], self.ev_q)

    def chi(self, v):
        """chi(Phi)(beta - gamma) on (N, dim) vector arrays."""
        pulled = self.pushed(self.beta, v) / self.den
        return pulled - self.couple.gamma.at(self.pts, [v.T], self.ev_p)


def gauge_action_numeric(Y, t, couple, points, arg):
    """chi(Phi_t^Y)(0) evaluated at (p, arg) for p in an (N, dim) batch, for
    one time t or an (N,) array of them.

    chi(Phi)(0) = (Phi* gamma(X))^{-1} Phi* gamma - gamma with the pullback
    taken along the inverse flow.
    """
    pull = _Pullback(Y, t, couple, couple.gamma, points, arg.components)
    return pull.chi(_columns(arg, points, pull.ev_p))


def richardson(values_at, points, tau):
    """One Richardson level over central differences at tau and tau/2, at an
    (N, dim) batch of points.

    The four offsets run as one batch: values_at maps 4N points (the batch
    four times over) and one time per point, tau, -tau, tau/2 and -tau/2 in
    blocks of N, to a numpy array over those 4N points.
    """
    pts = np.asarray(points, dtype=float)
    offsets = np.array([tau, -tau, 0.5 * tau, -0.5 * tau])
    plus, minus, half_plus, half_minus = np.split(
        values_at(np.tile(pts, (4, 1)), np.repeat(offsets, len(pts))), 4
    )
    d1 = (plus - minus) / (2.0 * tau)
    d2 = (half_plus - half_minus) / tau
    return (4.0 * d2 - d1) / 3.0


def gauge_derivative_fd(Y, couple, points, arg):
    """Richardson central difference of t -> chi(Phi_t^Y)(0) at t = 0, at an
    (N, dim) batch of points.

    Contract: equals -delta(iota_Y gamma) evaluated at (p, arg).
    """

    def value(pts, t):
        return gauge_action_numeric(Y, t, couple, pts, arg)

    return richardson(value, points, FD_OFFSET)


def _frame_matrices(s, ev, points):
    """The (frame | X) basis matrices and the J-matrices of the structure at
    a batch, each laid out per point as at one point."""
    J = [[ev(f) for f in row] for row in s.Jmat]
    return s.basis_matrix_at(points, ev), np.ascontiguousarray(np.transpose(J, (2, 0, 1)))


def _conjugated_S_matrix(Y, t, s, pts):
    """S_{chi(Phi_t^Y)(0)} on a batch, as (N, n, n) numeric frame matrices,
    with t an (N,) array of one time per point.

    Sign convention: this is (J - Jtilde)(J + Jtilde)^{-1}, which is -S for
    the S of leafcx.conjugate_J and leafcx.s_from_structures, where
    Jtilde = (I + S) J (I + S)^{-1}.  lemma.gauge_S, d/dt of this matrix
    against -H_Y, therefore checks d/dt S = H_Y in the S-calculus'
    convention."""
    n = s.n_leaf
    fields = [c for V in (*s.frame, s.X) for c in V.components]
    fields += [f for row in s.Jmat for f in row]
    pull = _Pullback(Y, t, s.couple, s.gamma, pts, fields)
    Mp, Jp = _frame_matrices(s, pull.ev_p, pts)
    Mq, Jq = _frame_matrices(s, pull.ev_q, pull.q)
    Xp, B = pull.Xp, pull.B
    cols = []
    for i in range(n):
        e = _columns(s.frame[i], pts, pull.ev_p)
        u = matvec(B, e - pull.chi(e)[:, None] * Xp)
        c = np.linalg.solve(Mq, u[..., None])[..., 0]
        z = np.linalg.solve(B, matvec(Mq[:, :, :n], matvec(Jq, c[:, :n]))[..., None])[..., 0]
        v2 = z + pull.chi(z)[:, None] * Xp
        cols.append(np.linalg.solve(Mp, v2[..., None])[:, :n, 0])
    # Jtilde has the columns cols[i]; each point's matrix is laid out as a
    # transpose, as at one point, since the products below round by layout
    Jtilde = np.ascontiguousarray(np.transpose(cols, (1, 0, 2))).transpose(0, 2, 1)
    total = Jp + Jtilde
    k = first_flagged(np.abs(np.linalg.det(total)) < DET_GUARD)
    if k is not None:
        raise ConjugationSingularError(f"det(J + Jtilde) too small at t={float(t[k])!r}")
    return (Jp - Jtilde) @ np.linalg.inv(total)


def s_gauge_fd(Y, s, points, frame_index):
    """Richardson central difference of t -> S_{chi(Phi_t^Y)(0)} at t = 0,
    applied to the frame vector, one index or an (N,) array of one index per
    point; returned in chart components, an (N, dim) array at an (N, dim)
    batch of points.

    Contract: equals -H_Y(E_frame_index) at p.
    """
    Sdot = richardson(lambda pts, t: _conjugated_S_matrix(Y, t, s, pts), points, FD_OFFSET)
    Mp = s.basis_matrix_at(points)
    return matvec(Mp[:, :, : s.n_leaf], Sdot[np.arange(len(Sdot)), :, frame_index])


def gauge_mc_value(Y, t, alpha, couple, points, V, W):
    """Maurer-Cartan 2-form of chi(Phi_t^Y)(alpha) at (p; V, W) for p in an
    (N, dim) batch, through the exact identity MC(chi(alpha)) = iota_X (f^2
    Phi* (d(gamma+alpha) ^ (gamma+alpha))) with f the pullback
    normalization.  Avoids finite differencing the transported form.

    For an integrable beta = gamma + alpha the residual does not depend on
    the RK4 step: d(beta) ^ beta vanishes at every point, so its value at whatever image q
    and on whatever Jacobian B the flow returns is round-off (at most 1.1e-16
    on the integrable 3-torus built-ins, with one step of 0.05 as with 50 of
    1e-3).  remark.gauge_mc therefore cannot see a step that is too large;
    flow.group_law sets DEFAULT_STEP."""
    beta = couple.gamma + alpha
    three_form = wedge(exterior_derivative(beta), beta)
    fields = [*V.components, *W.components, *three_form.coeffs.values()]
    pull = _Pullback(Y, t, couple, beta, points, fields)
    vectors = (pull.Xp, _columns(V, points, pull.ev_p), _columns(W, points, pull.ev_p))
    return pull.pushed(three_form, *vectors) / (pull.den * pull.den)
