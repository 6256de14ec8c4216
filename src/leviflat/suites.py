"""Catalogue of named identity checks.

Each identity has a stable id, a human-readable anchor formula, a default
tolerance, the named CONDITIONS it needs of a scenario, and a runner that
fills a ResidualAccumulator; run_identity turns the accumulator into the
identity's CheckReport.  Seeds are derived per (seed, scenario, identity),
so reports are reproducible and independent of execution order.
"""

from __future__ import annotations

import fnmatch
import math
import operator
from dataclasses import dataclass
from functools import partial, reduce
from itertools import combinations

import numpy as np

from . import defcomplex as dc
from . import flows
from . import foliation_dgla as fd
from . import leafcx as lc
from .errors import ConfigError
from .excalc import (
    DifferentialForm,
    XiValuedForm,
    evaluate_form,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    matrix_mul,
    scalar_form,
    wedge,
)
from .report import ONE_INSTANCE, CheckReport, ResidualAccumulator, instance_batch, shared_floats
from .sampling import Drawn, Parameters, random_form, random_scalar, random_vector_field, sample_points, stream
from .scenarios import FAMILY_TIMES
from .symfield import ONE, PointEvaluator, ScalarField, add, const, constant, coord, cos as cos_node, dot, exp_of, mul
from .symfield import sin as sin_node, substitute


# --------------------------------------------------------------------------
# Seeded objects living on a structure
# --------------------------------------------------------------------------


def random_z_form(s, k, draws, amplitude=1.0):
    """Seeded element of Z^k, k >= 1: coefficients on wedges of the dual
    coframe, drawn in index order."""

    def term(idx):
        f = random_scalar(s.chart, draws, amplitude)
        return reduce(wedge, [s.coframe[i] for i in idx]).scaled(f)

    return reduce(operator.add, map(term, combinations(range(s.n_leaf), k)))


def random_xi_field(s, draws, amplitude=1.0):
    coeffs = [random_scalar(s.chart, draws, amplitude) for _ in range(s.n_leaf)]
    return s.from_xi_coefficients(coeffs)


def small_scalar(chart, draws, amplitude):
    """Compact random field for matrix entries: a constant plus sin(x_j) and
    cos(x_k), each harmonic a one-hot row over the coordinates."""
    dim = chart.dim

    def values(rng):
        j = int(rng.integers(0, dim))
        k = int(rng.integers(0, dim))
        out = [rng.uniform(-amplitude, amplitude)] + [0.0] * (2 * dim)
        out[1 + j] = rng.uniform(-amplitude, amplitude)
        out[1 + dim + k] = rng.uniform(-amplitude, amplitude)
        return out

    c = draws.draw(2 * dim + 1, values)
    sines = dot(c[1 : 1 + dim], (sin_node(coord(i)) for i in range(dim)))
    cosines = dot(c[1 + dim :], (cos_node(coord(i)) for i in range(dim)))
    return ScalarField(chart, add(c[0], add(sines, cosines)))


def random_anticommuting_S(s, draws):
    """Seeded frame matrix anticommuting with J: C + J C J."""
    n = s.n_leaf
    C = [[small_scalar(s.chart, draws, 0.03) for _ in range(n)] for _ in range(n)]
    JCJ = matrix_mul(s.chart, matrix_mul(s.chart, s.Jmat, C), s.Jmat)
    return [[C[r][c] + JCJ[r][c] for c in range(n)] for r in range(n)]


# The amplitude of mc_flat_alpha's shear.
SHEAR = 0.3


def mc_flat_alpha(scenario):
    """A Maurer-Cartan-flat element of Z^1 for the scenario's couple, by
    construction: alpha = phi^*gamma / (phi^*gamma)(X) - gamma, for the shear
    phi(x) = x + SHEAR f(x) e_t, with f = sin(x_1) + cos(x_{d-1}) and t the
    last of the d coordinates.

    f does not mention t, so phi is a diffeomorphism of the torus (its
    inverse is x - SHEAR f e_t).  d commutes with pullbacks, so ker(phi^*gamma)
    is integrable wherever ker(gamma) is, and gamma + alpha, a multiple of
    phi^*gamma, is flat on any couple with integrable kernel; normalizing
    against X puts alpha into Z^1, as gamma(X) = 1.  The coefficients are
    (phi^*gamma)_j = gamma_j o phi + (gamma_t o phi) SHEAR d_j f.  The
    normalization needs (phi^*gamma)(X) != 0: where it nears zero, evaluating
    alpha raises a SingularEvaluationError, and the identity that uses it
    fails with that error.
    """
    s = scenario.structure
    chart = s.chart
    t = chart.dim - 1
    shear = mul(const(SHEAR), add(sin_node(coord(0)), cos_node(coord(t - 1))))
    moved = {t: add(coord(t), shear)}
    pulled = [substitute(s.gamma.coefficient((j,)).node, moved) for j in range(chart.dim)]
    coeffs = {(j,): ScalarField(chart, dot((g, pulled[t]), (ONE, shear.diff(j)))) for j, g in enumerate(pulled)}
    beta = DifferentialForm(chart, 1, coeffs)
    return beta.scaled(constant(chart, 1.0) / beta.apply_symbolic([s.X])) - s.gamma


# --------------------------------------------------------------------------
# Runners: exterior calculus and DGLA axioms
# --------------------------------------------------------------------------
#
# A runner that checks an identity on several random instances builds its
# fields once over Parameters and hands the accumulator one row of
# parameter values per instance; a runner of one instance draws constants,
# which gives the same values bit for bit from smaller trees, since a
# one-hot selector's zeros fold away (on t5_product, prop.n_ntilde builds
# 5,977 nodes so; a build over Parameters took 7,159).  Either hands each
# instance set's pairs over in one call.


def run_d_squared(scenario, acc, streams):
    chart = scenario.structure.chart
    rng = streams("d_squared")
    for k in range(0, chart.dim - 1):
        draws = Parameters()
        omega = random_form(chart, k, draws)
        acc.add_each(draws.rows(rng, 3), [(exterior_derivative(exterior_derivative(omega)), 0.0)])


def run_leibniz_wedge(scenario, acc, streams):
    chart = scenario.structure.chart
    rng = streams("leibniz_wedge")
    for ka, kb in ((0, 1), (1, 1), (1, 2)):
        draws = Parameters()
        a = random_form(chart, ka, draws)
        b = random_form(chart, kb, draws)
        lhs = exterior_derivative(wedge(a, b))
        rhs = wedge(exterior_derivative(a), b)
        signed = wedge(a, exterior_derivative(b))
        acc.add_each(draws.rows(rng, 4), [(lhs, rhs + (signed if ka % 2 == 0 else -signed))])


def run_jacobi_vector(scenario, acc, streams):
    chart = scenario.structure.chart
    draws = Parameters()
    U = random_vector_field(chart, draws)
    V = random_vector_field(chart, draws)
    W = random_vector_field(chart, draws)
    total = (
        lie_bracket(U, lie_bracket(V, W))
        + lie_bracket(V, lie_bracket(W, U))
        + lie_bracket(W, lie_bracket(U, V))
    )
    acc.add_each(draws.rows(streams("jacobi_vector"), 4), [(total, 0.0)])


def run_bracket_antisym(scenario, acc, streams):
    couple = scenario.structure.couple
    chart = scenario.structure.chart
    rng = streams("antisym")
    for ka, kb in ((1, 1), (1, 2), (2, 2)):
        draws = Parameters()
        a = random_form(chart, ka, draws)
        b = random_form(chart, kb, draws)
        lhs = fd.dgla_bracket(a, b, couple)
        rhs = fd.dgla_bracket(b, a, couple).scaled(-((-1.0) ** (ka * kb)))
        acc.add_each(draws.rows(rng, 5), [(lhs, rhs)])


def run_bracket_jacobi(scenario, acc, streams):
    couple = scenario.structure.couple
    chart = scenario.structure.chart
    rng = streams("jacobi")
    for degrees, count in (((1, 1, 1), 8), ((1, 1, 2), 7)):
        draws = Parameters()
        a = random_form(chart, degrees[0], draws)
        b = random_form(chart, degrees[1], draws)
        c = random_form(chart, degrees[2], draws)
        lhs = fd.dgla_bracket(a, fd.dgla_bracket(b, c, couple), couple)
        rhs = fd.dgla_bracket(fd.dgla_bracket(a, b, couple), c, couple)
        signed = fd.dgla_bracket(b, fd.dgla_bracket(a, c, couple), couple)
        sign = (-1.0) ** (degrees[0] * degrees[1])
        acc.add_each(draws.rows(rng, count), [(lhs, rhs + (signed if sign > 0 else -signed))])


def run_leibniz(scenario, acc, streams, use_delta):
    couple = scenario.structure.couple
    chart = scenario.structure.chart
    rng = streams("leibniz_delta" if use_delta else "leibniz_d")
    diff = (lambda w: fd.delta(w, couple)) if use_delta else exterior_derivative
    for ka, kb in ((1, 1), (1, 2), (0, 1)):
        draws = Parameters()
        a = random_form(chart, ka, draws)
        b = random_form(chart, kb, draws)
        lhs = diff(fd.dgla_bracket(a, b, couple))
        rhs = fd.dgla_bracket(diff(a), b, couple)
        signed = fd.dgla_bracket(a, diff(b), couple)
        acc.add_each(draws.rows(rng, 5), [(lhs, rhs + (signed if ka % 2 == 0 else -signed))])


def run_delta_squared(scenario, acc, streams):
    couple = scenario.structure.couple
    chart = scenario.structure.chart
    rng = streams("delta_squared")
    for k in (0, 1):
        draws = Parameters()
        a = random_form(chart, k, draws)
        acc.add_each(draws.rows(rng, 5), [(fd.delta(fd.delta(a, couple), couple), 0.0)])


def run_z_closure(scenario, acc, streams):
    s = scenario.structure
    couple = s.couple
    X = couple.X
    draws = Parameters()
    a = random_z_form(s, 1, draws)
    b = random_z_form(s, 1, draws)
    da = fd.delta(a, couple)
    bracket = fd.dgla_bracket(a, b, couple)
    acc.add_each(
        draws.rows(streams("z_closure"), 10),
        [(interior_product(X, da), 0.0), (interior_product(X, bracket), 0.0)],
    )


def run_z_reduced_bracket(scenario, acc, streams):
    s = scenario.structure
    couple = s.couple
    rng = streams("z_reduced")
    for ka, kb in ((1, 1), (1, 2)):
        draws = Parameters()
        a = random_z_form(s, ka, draws)
        b = random_z_form(s, kb, draws)
        lhs = fd.dgla_bracket(a, b, couple)
        acc.add_each(draws.rows(rng, 5), [(lhs, fd.dgla_bracket_reduced(a, b, couple))])


def run_z_reduced_gamma(scenario, acc, streams):
    s = scenario.structure
    couple = s.couple
    X, gamma = couple.X, couple.gamma
    d_gamma = exterior_derivative(gamma)
    draws = Parameters()
    a = random_z_form(s, 1, draws)
    lhs = fd.dgla_bracket(gamma, a, couple)
    rhs = wedge(interior_product(X, d_gamma), a) - wedge(
        gamma, interior_product(X, exterior_derivative(a))
    )
    acc.add_each(draws.rows(streams("z_gamma"), 8), [(lhs, rhs)])


def run_frobenius(scenario, acc, streams):
    s = scenario.structure
    residuals = fd.frobenius_residuals(s.gamma, s.X, acc.points)
    acc.record(list(residuals), max(residuals))


def run_mc_oracle(scenario, acc, streams):
    """mc form of alpha against the independent integrability oracle
    iota_X(d(gamma+alpha) ^ (gamma+alpha))."""
    s = scenario.structure
    couple = s.couple
    draws = Parameters()
    a = random_z_form(s, 1, draws, amplitude=0.4)
    rows = draws.rows(streams("mc_oracle"), 6)
    mc = fd.mc_residual(a, couple, acc.points, rows)
    acc.add_each(rows, [(mc, interior_product(couple.X, fd.mc_oracle_form(a, couple)))])


def run_db_closed(scenario, acc, streams):
    s = scenario.structure
    acc.add(fd.leafwise_d(lc.ix_dgamma(s), s.couple))


def run_omega_alpha_inverse(scenario, acc, streams):
    s = scenario.structure
    draws = Parameters()
    a = random_z_form(s, 1, draws, amplitude=0.5)
    V = random_vector_field(s.chart, draws)
    round_trip = fd.omega_alpha_inverse(fd.omega_alpha(V, a, s.couple), a, s.couple)
    # omega_alpha maps xi into ker(gamma + a)
    W = random_xi_field(s, draws)
    beta = s.gamma + a
    acc.add_each(
        draws.rows(streams("omega_alpha"), 6),
        [(round_trip, V), ([beta.apply_symbolic([fd.omega_alpha(W, a, s.couple)])], 0.0)],
    )


# --------------------------------------------------------------------------
# Runners: flows and the gauge action
# --------------------------------------------------------------------------
#
# Every instance flows in one instance_batch of points that carry their
# instance's parameter values; add_instances splits the values back into
# instances to record.


def run_flow_group_law(scenario, acc, streams):
    chart = scenario.structure.chart
    draws = Parameters()
    Y = random_vector_field(chart, draws, amplitude=0.6)
    rows = draws.rows(streams("flow_group"), 3)
    t1, t2 = 0.07, -0.05
    points = instance_batch(acc.points[:4], rows)
    q1, _ = flows.integrate_flow(Y, t2, points, jacobian=False)
    q2, _ = flows.integrate_flow(Y, t1, q1, jacobian=False)
    q12, _ = flows.integrate_flow(Y, t1 + t2, points, jacobian=False)
    dim = chart.dim
    acc.add_instances(len(rows), [(q2[:, :dim].T, q12[:, :dim].T)])


def run_flow_pullback_identity(scenario, acc, streams):
    """Phi_0^* omega = omega.  At t = 0 integrate_flow returns (x, I) without
    an RK4 step, so this guards that zero-time exit and pullback_form_numeric's
    evaluation of omega on the pushed arguments against evaluate_form; the RK4
    steps are checked by flow.group_law and flow.lie_oracle."""
    s = scenario.structure
    draws = Drawn(streams("pullback_id"))
    Y = random_vector_field(s.chart, draws, amplitude=0.6)
    omega = random_form(s.chart, 1, draws)
    args = [random_vector_field(s.chart, draws)]
    points = acc.points[:6]
    lhs = flows.pullback_form_numeric(Y, 0.0, omega, points, args)
    acc.add_instances(1, [(lhs[None], evaluate_form(omega, points, args)[None])])


def run_flow_lie_oracle(scenario, acc, streams):
    s = scenario.structure
    draws = Parameters()
    Y = random_vector_field(s.chart, draws, amplitude=0.6)
    omega = random_form(s.chart, 1, draws)
    args = [random_vector_field(s.chart, draws)]
    rows = draws.rows(streams("lie_oracle"), 3)
    lie = lie_derivative_form(Y, omega)
    points = instance_batch(acc.points[:4], rows)
    fd_val = flows.richardson(
        lambda pts, t: flows.pullback_form_numeric(Y, t, omega, pts, args), points, 1e-3
    )
    acc.add_instances(len(rows), [(fd_val[None], evaluate_form(lie, points, args)[None])])


def run_gauge_chi(scenario, acc, streams):
    s = scenario.structure
    couple = s.couple
    draws = Parameters()
    Y = random_vector_field(s.chart, draws, amplitude=0.6)
    target = -fd.delta(couple.gamma_of(Y), couple)
    arg = random_vector_field(s.chart, draws)
    tval = target.apply_symbolic([arg])
    rows = draws.rows(streams("gauge_chi"), 10)
    points = instance_batch(acc.points[:3], rows)
    lhs = flows.gauge_derivative_fd(Y, couple, points, arg)
    acc.add_instances(len(rows), [(lhs[None], tval(points)[None])])


def run_gauge_S(scenario, acc, streams):
    """The S-parametrization describes complex structures near a Levi flat
    one, so this runs only where N_J = 0 too, although it passes on a
    non-integrable J as well."""
    s = scenario.structure
    n = s.n_leaf
    draws = Parameters()
    Y = random_vector_field(s.chart, draws, amplitude=0.6)
    # which frame vector; a value read back, in no field
    pick = draws.draw(1, lambda rng: [int(rng.integers(0, n))])[0]
    HY = lc.h_form(s, Y)
    minus_HY = [-HY.value((i,)) for i in range(n)]
    rows = draws.rows(streams("gauge_S"), 10)
    idx = rows[:, pick.index].astype(int)
    own = acc.points[:2]
    points = instance_batch(own, rows)
    frame_index = np.repeat(idx, len(own))
    lhs = flows.s_gauge_fd(Y, s, points, frame_index).T
    # each point's instance picks its frame vector's -H_Y
    rhs = np.array([V.at(points) for V in minus_HY])[frame_index, :, np.arange(len(points))].T
    acc.add_instances(len(rows), [(lhs, rhs)])


def run_gauge_preserves_mc(scenario, acc, streams):
    s = scenario.structure
    alpha = mc_flat_alpha(scenario)
    acc.add(fd.mc_residual(alpha, s.couple, acc.points))
    draws = Parameters()
    Y = random_vector_field(s.chart, draws, amplitude=0.6)
    V = random_vector_field(s.chart, draws)
    W = random_vector_field(s.chart, draws)
    rows = draws.rows(streams("gauge_mc"), 3)
    values = flows.gauge_mc_value(Y, 0.05, alpha, s.couple, instance_batch(acc.points[:3], rows), V, W)
    acc.add_instances(len(rows), [(values[None], 0.0)])


# --------------------------------------------------------------------------
# Runners: leafwise dbar calculus
# --------------------------------------------------------------------------


def run_dbar_antilinearity(scenario, acc, streams):
    s = scenario.structure
    draws = Parameters()
    W = random_xi_field(s, draws)
    pair = lc.antilinearity_residual(s, lc.dbar0(s, W))
    acc.add_each(draws.rows(streams("dbar_antilin"), 4), [pair])


def run_dbar_commutes_J(scenario, acc, streams):
    s = scenario.structure
    draws = Parameters()
    W = random_xi_field(s, draws)
    lhs = lc.dbar0(s, s.apply_J(W))
    rhs = lc.dbar0(s, W)
    pair = (lhs, [s.apply_J(rhs.value((i,))) for i in range(s.n_leaf)])
    acc.add_each(draws.rows(streams("dbar_J"), 4), [pair])


def run_dbar_leibniz(scenario, acc, streams):
    s = scenario.structure
    draws = Parameters()
    a = random_scalar(s.chart, draws)
    W = random_xi_field(s, draws)
    lhs = lc.dbar0(s, W.scaled(a))
    da = lc.dbar_scalar(s, a)
    rhs = lc.dbar0(s, W).scaled(a) + lc.wedge01(s, da, XiValuedForm(0, {(): W}))
    acc.add_each(draws.rows(streams("dbar_leibniz"), 4), [(lhs, rhs)])


def run_nijenhuis_bilinear(scenario, acc, streams):
    s = scenario.structure
    draws = Parameters()
    f = random_scalar(s.chart, draws)
    V = random_xi_field(s, draws)
    W = random_xi_field(s, draws)
    pair = (
        [lc.nijenhuis(s, V.scaled(f), W), lc.nijenhuis(s, s.apply_J(V), W)],
        [lc.nijenhuis(s, V, W).scaled(f), -s.apply_J(lc.nijenhuis(s, V, W))],
    )
    acc.add_each(draws.rows(streams("nijenhuis_bilinear"), 4), [pair])


def run_dbar_squared(scenario, acc, streams):
    s = scenario.structure
    draws = Parameters()
    W = random_xi_field(s, draws)
    acc.add_each(draws.rows(streams("dbar_squared"), 3), [(lc.dbar1(s, lc.dbar0(s, W)), 0.0)])


def run_h_linear(scenario, acc, streams):
    s = scenario.structure
    draws = Parameters()
    Y = random_vector_field(s.chart, draws)
    f = random_scalar(s.chart, draws)
    V = random_xi_field(s, draws)
    lhs = lc.h_apply(s, Y, V.scaled(f))
    acc.add_each(draws.rows(streams("h_linear"), 4), [(lhs, lc.h_apply(s, Y, V).scaled(f))])


def run_h_alternative(scenario, acc, streams):
    """H(V) = ([V,X] + J P [JV,X]) / 2 - iota_X dgamma(V) X / 2; the real
    encoding of the projected alternative formula."""
    s = scenario.structure
    ix = lc.ix_dgamma(s)
    H = lc.h_form(s)
    rhs = []
    for i, E in enumerate(s.frame):
        bVX = lie_bracket(E, s.X)
        bJVX = lie_bracket(s.J_frame(i), s.X)
        rhs.append(
            (bVX + s.apply_J(s.project_xi(bJVX))).scaled(0.5)
            - s.X.scaled(ix.apply_symbolic([E]) * 0.5)
        )
    acc.add(H, rhs)


def run_dbarH(scenario, acc, streams):
    s = scenario.structure
    H = lc.h_form(s)
    lhs = lc.dbar1(s, H)
    acc.add(lhs, lc.wedge01(s, lc.ix_dgamma01(s), H))


def run_ixdgamma01_closed(scenario, acc, streams):
    s = scenario.structure
    closed = lc.dbar_scalar01(s, lc.ix_dgamma01(s))
    parts = []
    for i, j in s.frame_pairs():
        # the real part, then the imaginary part
        parts += [[closed.values[(i, j)]], [lc.xi_form_apply(s, closed, [s.J_frame(i), s.frame[j]])]]
    acc.add(parts)


def run_beth_squared(scenario, acc, streams):
    s = scenario.structure
    draws = Parameters()
    W = random_xi_field(s, draws)
    twice = lc.beth(s, lc.beth(s, XiValuedForm(0, {(): W})))
    acc.add_each(draws.rows(streams("beth_squared"), 3), [(twice, 0.0)])


def run_bethH(scenario, acc, streams):
    s = scenario.structure
    acc.add(lc.beth(s, lc.h_form(s)))


def run_change_couple(scenario, acc, streams):
    s = scenario.structure
    draws = Drawn(streams("change_couple"))
    lam = random_scalar(s.chart, draws, amplitude=0.4)
    U = random_xi_field(s, draws, amplitude=0.5)
    acc.add(*lc.change_couple_h_residual(s, lam, U))


def run_iso_cohomology(scenario, acc, streams):
    s = scenario.structure
    draws = Drawn(streams("iso_cohomology"))
    lam = random_scalar(s.chart, draws, amplitude=0.4)
    U = random_xi_field(s, draws, amplitude=0.5)
    P0 = XiValuedForm(0, {(): random_xi_field(s, draws)})
    P1 = XiValuedForm(1, {(i,): random_xi_field(s, draws) for i in range(s.n_leaf)})
    acc.add_each(ONE_INSTANCE, [lc.beth_conjugation_residual(s, lam, U, P) for P in (P0, P1)])


def run_exact_witness(scenario, acc, streams):
    s = scenario.structure
    acc.add_each(ONE_INSTANCE, dc.exactness_witness_check(scenario.exact_witness, s))


def run_exact_transport(scenario, acc, streams):
    """Transported witness for (e^lam gamma, e^-lam X + U'): e^-lam U + U'."""
    s = scenario.structure
    draws = Drawn(streams("exact_transport"))
    lam = random_scalar(s.chart, draws, amplitude=0.3)
    U_prime = random_xi_field(s, draws, amplitude=0.4)
    s_hat = lc.change_couple(s, lam, U_prime)
    witness = scenario.exact_witness.scaled(exp_of(-lam)) + U_prime
    acc.add_each(ONE_INSTANCE, dc.exactness_witness_check(witness, s_hat))


# --------------------------------------------------------------------------
# Runners: deformed bracket and the coupled system
# --------------------------------------------------------------------------


def run_bracket_alpha(scenario, acc, streams):
    """[V,W]_alpha = [V,W] + (alpha ^ T)(V,W) for Maurer-Cartan flat alpha."""
    s = scenario.structure
    alpha = mc_flat_alpha(scenario)
    draws = Parameters()
    V = random_xi_field(s, draws)
    W = random_xi_field(s, draws)
    lhs = lc.deformed_bracket(s.couple, alpha, V, W)
    rhs = lie_bracket(V, W) + lc.alpha_wedge_T(s, alpha, V, W)
    acc.add_each(draws.rows(streams("bracket_alpha"), 4), [(lhs, rhs)])


def run_bracket_alpha_expansion(scenario, acc, streams):
    """Conjugation route against the ten-term expansion (any alpha in Z^1)."""
    s = scenario.structure
    draws = Parameters()
    alpha = random_z_form(s, 1, draws, amplitude=0.4)
    V = random_xi_field(s, draws)
    W = random_xi_field(s, draws)
    lhs = lc.deformed_bracket(s.couple, alpha, V, W)
    rhs = lc.deformed_bracket_expanded(s.couple, alpha, V, W)
    acc.add_each(draws.rows(streams("bracket_expansion"), 4), [(lhs, rhs)])


def run_bracket_alpha_leibniz(scenario, acc, streams):
    """[aV, W]_alpha = a [V,W]_alpha - <W, a>_alpha V."""
    s = scenario.structure
    draws = Parameters()
    alpha = random_z_form(s, 1, draws, amplitude=0.4)
    a = random_scalar(s.chart, draws)
    V = random_xi_field(s, draws)
    W = random_xi_field(s, draws)
    lhs = lc.deformed_bracket(s.couple, alpha, V.scaled(a), W)
    pairing = lc.derivation_pairing(s.couple, alpha, W, a)
    rhs = lc.deformed_bracket(s.couple, alpha, V, W).scaled(a) - V.scaled(pairing)
    acc.add_each(draws.rows(streams("bracket_leibniz"), 4), [(lhs, rhs)])


def run_n_alpha(scenario, acc, streams):
    s = scenario.structure
    alpha = mc_flat_alpha(scenario)
    acc.add(*lc.n_alpha_residual(s, alpha, acc.points))


def run_levi_flat_mc(scenario, acc, streams):
    s = scenario.structure
    pairs = []
    for t in FAMILY_TIMES:
        pairs += dc.levi_flat_mc_residual_pair(scenario.family.at(s, t), s, acc.points)
    acc.add_each(ONE_INSTANCE, pairs)


def run_tangent_eqP1(scenario, acc, streams):
    """delta(beta) = 0 for the family tangent at the origin."""
    s = scenario.structure
    acc.add(fd.delta(scenario.family.tangent(s).alpha, s.couple))


def run_tangent_eqP2(scenario, acc, streams):
    """dbar P = -beta^{0,1} ^ H for the family tangent; consistency with the
    full cocycle operator is asserted inside infinitesimal_residuals."""
    s = scenario.structure
    acc.add_each(ONE_INSTANCE, dc.infinitesimal_residuals(scenario.family.tangent(s), s, acc.points))


def run_dfrak_squared(scenario, acc, streams):
    s = scenario.structure
    draws = Parameters()
    f = random_scalar(s.chart, draws)
    P = XiValuedForm(0, {(): random_xi_field(s, draws)})
    dd = dc.dfrak(dc.dfrak(dc.CochainPair(scalar_form(f), P), s), s)
    acc.add_each(draws.rows(streams("dfrak_squared"), 8), [(dd.alpha, 0.0), (dd.P, 0.0)])


def run_tangent_witness(scenario, acc, streams):
    """d^0(gamma(Y), -(Y - gamma(Y)X)) = (delta gamma(Y), -H_Y), seeded Y."""
    s = scenario.structure
    # the first six points, as in the flow and gauge runners
    acc.points = acc.points[:6]
    draws = Parameters()
    Y = random_vector_field(s.chart, draws)
    image = dc.tangent_witness_image(Y, s)
    pairs = [(image.alpha, fd.delta(s.couple.gamma_of(Y), s.couple)), (image.P, -lc.h_form(s, Y))]
    acc.add_each(draws.rows(streams("tangent_witness"), 10), pairs)


def run_gauge_witness(scenario, acc, streams):
    s = scenario.structure
    draws = Parameters()
    Y = random_vector_field(s.chart, draws)
    beta = random_z_form(s, 1, draws)
    P = XiValuedForm(1, {(i,): random_xi_field(s, draws) for i in range(s.n_leaf)})
    t = dc.CochainPair(beta, P)
    image = dc.tangent_witness_image(Y, s)
    t_prime = dc.CochainPair(beta - image.alpha, P - image.P)
    pairs = dc.gauge_witness_residual(t, t_prime, Y, s)
    acc.add_each(draws.rows(streams("gauge_witness"), 4), pairs)


def run_hY_decomposition(scenario, acc, streams):
    s = scenario.structure
    draws = Parameters()
    Y = random_vector_field(s.chart, draws)
    pair = dc.hY_decomposition_residual(Y, s)
    acc.add_each(draws.rows(streams("hY_decomposition"), 4), [pair])


def run_dbar_hY(scenario, acc, streams):
    s = scenario.structure
    draws = Parameters()
    Y = random_vector_field(s.chart, draws)
    acc.add_each(draws.rows(streams("dbar_hY"), 3), [dc.dbar_hY_residual(Y, s)])


def run_phiH(scenario, acc, streams):
    s = scenario.structure
    draws = Parameters()
    beta = random_z_form(s, 1, draws)
    phi = random_scalar(s.chart, draws)
    acc.add_each(draws.rows(streams("phiH"), 3), [dc.phiH_residual(beta, phi, s)])


# --------------------------------------------------------------------------
# Runners: S-calculus
# --------------------------------------------------------------------------


def run_s_roundtrip(scenario, acc, streams):
    s = scenario.structure
    Smat = random_anticommuting_S(s, Drawn(streams("s_roundtrip")))
    Jt = lc.conjugate_J(s, Smat, acc.points)
    recovered = lc.s_from_structures(s, Jt, acc.points)
    acc.add([f for row in recovered for f in row], [f for row in Smat for f in row])
    # SJ + JS = 0 is one sample: its worst entry over the points
    anticommutator = ResidualAccumulator(acc.points).add(lc.anticommutator_residual(s, recovered))
    acc.add_instances(1, [(np.array([[anticommutator.max_rel]]), 0.0)])


def run_n_ntilde(scenario, acc, streams):
    """The conjugated-Nijenhuis identity, both sides independently evaluated."""
    s = scenario.structure
    rng = streams("n_ntilde")
    Smat = random_anticommuting_S(s, Drawn(rng))
    S = lc.xi_form_from_matrix(s, Smat)
    Jt = lc.conjugate_J(s, Smat, acc.points)
    s_tilde = s.with_J(Jt)
    n = s.n_leaf
    draws = Parameters()
    V = random_xi_field(s, draws)
    W = random_xi_field(s, draws)
    terms = lc.s_terms(s, S, V, W)
    lhs = lc.nijenhuis(s_tilde, V + terms.SV, W + terms.SW)
    core = (
        terms.n
        + lc.xi_form_apply(s, S, [terms.n - terms.n_SS])
        - (terms.dbar + terms.square.scaled(0.5)).scaled(4.0)
    )
    entries = [f for row in Smat for f in row]
    fields = [*lhs.components, *core.components, *entries]
    fields += [c for E in (*s.frame, s.X) for c in E.components]
    rows = draws.rows(rng, 2)
    ev = PointEvaluator(s.chart, acc.points, fields, rows)
    M = s.basis_matrix_at(acc.points, ev)
    Sp = np.array([ev(f) for f in entries]).T.reshape(-1, n, n)
    coeffs = np.linalg.solve(M, core.at(acc.points, ev).T[..., None])[..., 0]
    transformed = np.linalg.solve(np.eye(n) - Sp, coeffs[:, :n, None])[..., 0]
    rhs_chart = flows.matvec(M[:, :, :n], transformed)
    acc.add_instances(len(rows), [(lhs.at(acc.points, ev), rhs_chart.T)])


def run_n_jtilde_identity(scenario, acc, streams):
    """dbar_J S + [[S,S]]/2 - N_J/4 = -(I-S) N_Jt((I+S)V,(I+S)W)/4, the
    identity behind the integrability criterion for the conjugated J; it
    pins the -1/2 coefficient in [[S,S]]."""
    s = scenario.structure
    rng = streams("n_jtilde")
    Smat = random_anticommuting_S(s, Drawn(rng))
    S = lc.xi_form_from_matrix(s, Smat)
    Jt = lc.conjugate_J(s, Smat, acc.points)
    s_tilde = s.with_J(Jt)
    draws = Parameters()
    V = random_xi_field(s, draws)
    W = random_xi_field(s, draws)
    terms = lc.s_terms(s, S, V, W)
    lhs = terms.dbar + terms.double.scaled(0.5) - terms.n.scaled(0.25)
    Ntilde = lc.nijenhuis(s_tilde, V + terms.SV, W + terms.SW)
    rhs = -(Ntilde - lc.xi_form_apply(s, S, [Ntilde])).scaled(0.25)
    acc.add_each(draws.rows(rng, 2), [(lhs, rhs)])


def run_n_jtilde_quadratic(scenario, acc, streams):
    """N of the conjugated structure must shrink quadratically with the size
    of a dbar-closed S0: the ratio of max |N| at eps=1e-2 vs 1e-3 sits near
    100.  The stored residual is |ratio/100 - 1|."""
    s = scenario.structure
    entries = scenario.quadratic_S0
    n = s.n_leaf
    maxima = []
    for eps in (1e-2, 1e-3):
        Smat = [[entries[r][c] * eps for c in range(n)] for r in range(n)]
        Jt = lc.conjugate_J(s, Smat, acc.points)
        s_tilde = s.with_J(Jt)
        fields = []
        for i, j in s.frame_pairs():
            fields += lc.nijenhuis(s_tilde, s.frame[i], s.frame[j]).components
        # max |N| over every field and point; a NaN anywhere stays NaN
        maxima.append(ResidualAccumulator(acc.points).add(fields).max_abs)
    ratio = maxima[0] / maxima[1]
    acc.record([maxima[0], maxima[1], abs(ratio / 100.0 - 1.0)], abs(ratio - 100.0))


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentitySpec:
    identity: str
    anchor: str
    tolerance: float
    needs: tuple
    runner: object

    def applies(self, sc):
        return all(CONDITIONS[name](sc) for name in self.needs)


# The hypotheses an identity may need, each a test of the scenario; an
# identity applies where every condition it needs holds.
CONDITIONS = {
    # xi = ker gamma is integrable, so Z*(L) is a DGLA
    "couple": lambda sc: sc.foliation_integrable,
    # N_J = 0 on the leaves, so dbar_J squares to zero
    "J": lambda sc: sc.structure.leafwise_integrable,
    # N_J vanishes identically on complex curves, so the S-calculus is
    # informative only from complex dimension 2 on
    "dim2": lambda sc: sc.structure.n_leaf >= 4,
    "family": lambda sc: sc.family is not None,
    "witness": lambda sc: sc.exact_witness is not None,
    "S0": lambda sc: sc.quadratic_S0 is not None,
}


REGISTRY = [
    IdentitySpec("excalc.d_squared", "d(d(omega)) = 0", 1e-10, (), run_d_squared),
    IdentitySpec("excalc.leibniz_wedge", "d(a^b) = da^b + (-1)^|a| a^db", 1e-10, (), run_leibniz_wedge),
    IdentitySpec("excalc.jacobi_vector", "[U,[V,W]] + [V,[W,U]] + [W,[U,V]] = 0", 1e-10, (), run_jacobi_vector),
    IdentitySpec("dgla.antisym", "{a,b} = -(-1)^{|a||b|} {b,a}", 1e-9, ("couple",), run_bracket_antisym),
    IdentitySpec("dgla.jacobi", "{a,{b,c}} = {{a,b},c} + (-1)^{|a||b|} {b,{a,c}}", 1e-9, ("couple",), run_bracket_jacobi),
    IdentitySpec("dgla.leibniz_d", "d{a,b} = {da,b} + (-1)^|a| {a,db}", 1e-9, ("couple",), partial(run_leibniz, use_delta=False)),
    IdentitySpec("dgla.leibniz_delta", "delta{a,b} = {delta a,b} + (-1)^|a| {a,delta b}", 1e-9, ("couple",), partial(run_leibniz, use_delta=True)),
    IdentitySpec("dgla.delta_squared", "delta(delta(a)) = 0", 1e-9, ("couple",), run_delta_squared),
    IdentitySpec("zsub.closure", "iota_X delta(a) = 0 and iota_X {a,b} = 0 on Z*", 1e-10, ("couple",), run_z_closure),
    IdentitySpec("zsub.reduced_bracket", "{a,b} = i_X da ^ b - a ^ i_X db on Z*", 1e-10, ("couple",), run_z_reduced_bracket),
    IdentitySpec("zsub.reduced_gamma", "{gamma,a} = i_X dgamma ^ a - gamma ^ i_X da", 1e-10, ("couple",), run_z_reduced_gamma),
    IdentitySpec("frobenius", "d gamma ^ gamma = 0 ; d gamma = -i_X dgamma ^ gamma ; MC(gamma) = 0", 1e-9, (), run_frobenius),
    IdentitySpec("lemma.mc_oracle", "delta a + {a,a}/2 = i_X(d(gamma+a) ^ (gamma+a))", 1e-10, ("couple",), run_mc_oracle),
    IdentitySpec("lemma.db_closed", "d_b(iota_X d gamma) = 0", 1e-9, ("couple",), run_db_closed),
    IdentitySpec("lemma.omega_alpha", "omega_a^{-1} omega_a = id ; (gamma+a)(omega_a xi) = 0", 1e-10, ("couple",), run_omega_alpha_inverse),
    IdentitySpec("flow.group_law", "Phi_{s+t} = Phi_s o Phi_t", 1e-7, ("couple",), run_flow_group_law),
    IdentitySpec("flow.pullback_identity", "Phi_0^* omega = omega", 1e-12, ("couple",), run_flow_pullback_identity),
    IdentitySpec("flow.lie_oracle", "d/dt|0 Phi_t^* omega = L_Y omega", 1e-5, ("couple",), run_flow_lie_oracle),
    IdentitySpec("lemma.gauge_chi", "d/dt|0 chi(Phi_t^Y)(0) = -delta(gamma(Y))", 1e-4, ("couple",), run_gauge_chi),
    IdentitySpec("lemma.gauge_S", "d/dt|0 S_{chi(Phi_t^Y)(0)} = -H_Y", 1e-4, ("couple", "J"), run_gauge_S),
    IdentitySpec("remark.gauge_mc", "MC(chi(Phi)(a)) stays within MC(a) + 1e-6", 1e-6, ("couple",), run_gauge_preserves_mc),
    IdentitySpec("dbar.antilinearity", "(dbar W)(JV) = -J (dbar W)(V)", 1e-9, ("couple",), run_dbar_antilinearity),
    IdentitySpec("dbar.commutes_J", "dbar(JW) = J dbar(W)", 1e-9, ("couple",), run_dbar_commutes_J),
    IdentitySpec("dbar.leibniz", "dbar(aW) = (dbar a)(x)W + a dbar(W)", 1e-9, ("couple",), run_dbar_leibniz),
    IdentitySpec("nijenhuis.bilinear", "N(fV,W) = f N(V,W) ; N(JV,W) = -J N(V,W)", 1e-10, ("couple",), run_nijenhuis_bilinear),
    IdentitySpec("dbar.squared", "dbar(dbar W) = 0 on integrable leaves", 1e-9, ("couple", "J"), run_dbar_squared),
    IdentitySpec("remark.h_linear", "H_Y(fV) = f H_Y(V)", 1e-10, ("couple", "J"), run_h_linear),
    IdentitySpec("remark.h_alternative", "H(V) = ([V,X] + J P[JV,X])/2 - (i_X dgamma)(V) X/2", 1e-9, ("couple", "J"), run_h_alternative),
    IdentitySpec("lemma.dbarH", "dbar H = (i_X dgamma)^{0,1} ^ H", 1e-9, ("couple", "J"), run_dbarH),
    IdentitySpec("remark.ixdgamma01_closed", "dbar (i_X dgamma)^{0,1} = 0", 1e-9, ("couple", "J"), run_ixdgamma01_closed),
    IdentitySpec("prop.beth_squared", "beth(beth(W)) = 0", 1e-9, ("couple", "J"), run_beth_squared),
    IdentitySpec("prop.bethH", "beth(H) = 0", 1e-9, ("couple", "J"), run_bethH),
    IdentitySpec("prop.change_couple", "H(ghat,Xhat) = e^-lam H + dbar U - ((i_X dg)^{0,1} - dbar lam)(x)U", 1e-9, ("couple", "J"), run_change_couple),
    IdentitySpec("prop.iso_cohomology", "beth(ghat,Xhat) e^-lam P = e^-lam beth(g,X) P", 1e-9, ("couple", "J"), run_iso_cohomology),
    IdentitySpec("lemma.exact.witness", "H = beth(U); H = 0 for (gamma, X-U)", 1e-9, ("witness",), run_exact_witness),
    IdentitySpec("lemma.exact.transport", "beth(g,X)(e^lam U) = e^lam H(ghat,Xhat)", 1e-8, ("witness",), run_exact_transport),
    IdentitySpec("lemma.bracket_alpha", "[.,.]_a = [.,.] + a ^ T for MC-flat a", 1e-9, ("couple", "J"), run_bracket_alpha),
    IdentitySpec("defbracket.expansion", "conjugated bracket = ten-term expansion", 1e-10, ("couple", "J"), run_bracket_alpha_expansion),
    IdentitySpec("defbracket.leibniz", "[aV,W]_a = a[V,W]_a - <W,a>_a V", 1e-9, ("couple", "J"), run_bracket_alpha_leibniz),
    IdentitySpec("cor.n_alpha", "N_J^a = -4 a^{0,1} ^ H", 1e-8, ("couple", "J"), run_n_alpha),
    IdentitySpec("cor.levi_flat_mc", "delta a + {a,a}/2 = 0 ; dbar^a S + [[S,S]]_a/2 = -a^{0,1}^H", 1e-9, ("couple", "J", "family"), run_levi_flat_mc),
    IdentitySpec("thm.tangent.eqP1", "delta beta = 0 for family tangents", 1e-7, ("couple", "J", "family"), run_tangent_eqP1),
    IdentitySpec("thm.tangent.eqP2", "dbar P = -beta^{0,1} ^ H for family tangents", 1e-7, ("couple", "J", "family"), run_tangent_eqP2),
    IdentitySpec("prop.dfrak_squared", "d(d(a, P)) = 0", 1e-9, ("couple", "J"), run_dfrak_squared),
    IdentitySpec("thm.tangent.witness", "d^0(gamma(Y), -(Y-gamma(Y)X)) = (delta gamma(Y), -H_Y)", 1e-9, ("couple", "J"), run_tangent_witness),
    IdentitySpec("thm.moduli.gauge_witness", "beta - beta' = delta i_Y gamma ; P - P' = -H_Y", 1e-9, ("couple", "J"), run_gauge_witness),
    IdentitySpec("lemma.hY_decomposition", "H_Y = dbar(Y - gamma(Y)X) + gamma(Y) H", 1e-9, ("couple", "J"), run_hY_decomposition),
    IdentitySpec("cor.dbar_hY", "dbar H_Y = (delta gamma(Y))^{0,1} ^ H", 1e-9, ("couple", "J"), run_dbar_hY),
    IdentitySpec("cor.phiH", "(beta + delta phi)^{0,1}^H = beta^{0,1}^H + dbar(phi H)", 1e-9, ("couple", "J"), run_phiH),
    IdentitySpec("scalc.s_roundtrip", "S = (J - Jt)(J + Jt)^{-1} ; (I+S)J(I+S)^{-1} = Jt ; SJ+JS = 0", 1e-9, ("couple", "dim2"), run_s_roundtrip),
    IdentitySpec("prop.n_ntilde", "N_Jt((I+S)V,(I+S)W) = (I-S)^{-1}(N + S(N - N(S,S)) - 4(dbar S + [S,S]/2))", 1e-8, ("couple", "dim2"), run_n_ntilde),
    IdentitySpec("cor.n_jtilde_identity", "dbar S + [[S,S]]/2 - N/4 = -(I-S) N_Jt((I+S).,(I+S).)/4", 1e-8, ("couple", "dim2"), run_n_jtilde_identity),
    IdentitySpec("cor.n_jtilde_quadratic", "max|N_Jt| scales as eps^2 for S = eps S0, dbar S0 = 0", 0.2, ("S0",), run_n_jtilde_quadratic),
]

def select_identities(selector, tolerances):
    """Comma-separated identity-id globs; 'all' selects everything.  A glob
    that matches no identity id raises ConfigError naming it, and so does a
    tolerance override (id -> value) whose id is not in the registry or whose
    value is not a finite number >= 0."""
    unknown = sorted(set(tolerances) - {spec.identity for spec in REGISTRY})
    if unknown:
        raise ConfigError(f"--tol names no identity: {', '.join(unknown)}")
    bad = [f"{k}={v}" for k, v in sorted(tolerances.items()) if not math.isfinite(v) or v < 0]
    if bad:
        raise ConfigError(f"--tol must be a finite number >= 0: {', '.join(bad)}")
    if not selector or selector == "all":
        return list(REGISTRY)
    patterns = [pat.strip() for pat in selector.split(",") if pat.strip()]
    unmatched = [pat for pat in patterns if not any(fnmatch.fnmatchcase(spec.identity, pat) for spec in REGISTRY)]
    if unmatched:
        raise ConfigError(f"--suite names no identity: {', '.join(unmatched)}")
    return [spec for spec in REGISTRY if any(fnmatch.fnmatchcase(spec.identity, pat) for pat in patterns)]


def run_identity(spec, scenario, seed, n_points, tolerance=None):
    """Execute one identity on one scenario, never raising: failures inside
    a runner are recorded as a failing report with the diagnostic.  An
    identity that recorded no sample does not pass."""
    tol = spec.tolerance if tolerance is None else tolerance
    streams = partial(stream, seed, scenario.name, spec.identity)
    acc = ResidualAccumulator(sample_points(scenario.structure.chart, n_points, streams("points")))
    error = ""
    try:
        spec.runner(scenario, acc, streams)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    max_rel = float(acc.max_rel)
    return CheckReport(
        suite=scenario.name,
        identity=spec.identity,
        anchor=spec.anchor,
        samples=shared_floats(acc.samples),
        max_abs=float(acc.max_abs),
        max_rel=max_rel,
        tolerance=float(tol),
        passed=bool(acc.samples) and not error and bool(max_rel <= tol),
        seed=int(seed),
        error=error,
    )
