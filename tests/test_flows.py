"""Flows, pullbacks and the finite-difference gauge oracles."""

import numpy as np
import pytest

from leviflat import flows
from leviflat.errors import ConjugationSingularError, FlowParameterError, GaugeDomainError
from leviflat.excalc import evaluate_form, one_form, zero_vector
from leviflat.flows import (
    gauge_action_numeric,
    gauge_derivative_fd,
    gauge_mc_value,
    integrate_flow,
    pullback_form_numeric,
    s_gauge_fd,
)
from leviflat.foliation_dgla import delta
from leviflat.leafcx import h_form
from leviflat.sampling import Drawn, random_vector_field, sample_points, stream
from leviflat.scenarios import builtin
from leviflat.suites import REGISTRY, run_identity
from tests.fields import basis_vector, coordinate, cos_of, sin_of

FLAT = builtin("t3_flat").structure
TWISTED = builtin("t3_twisted").structure
CHART = FLAT.chart
E_X, E_Y, E_T = (basis_vector(CHART, i) for i in range(3))
DX, DY, DT = (one_form(CHART, np.eye(3)[i]) for i in range(3))


def pts(n=5, label="fp"):
    return np.array(sample_points(CHART, n, stream(81, label)))


def test_translation_flow():
    q, A = integrate_flow(E_X, 1.0, [(0.2, 0.3, 0.4)])
    assert q == pytest.approx(np.array([[1.2, 0.3, 0.4]]), abs=1e-12)
    assert A == pytest.approx(np.eye(3)[None], abs=1e-12)


def test_zero_field_flow_is_identity():
    q, A = integrate_flow(zero_vector(CHART), 0.7, [(0.2, 0.3, 0.4)])
    assert q == pytest.approx(np.array([[0.2, 0.3, 0.4]]), abs=1e-15)
    assert A == pytest.approx(np.eye(3)[None], abs=1e-15)


def test_flow_at_time_zero_exactly_identity():
    Y = random_vector_field(CHART, Drawn(stream(82, "t0")))
    q, A = integrate_flow(Y, 0.0, [(0.5, 0.6, 0.7)])
    assert q.tolist() == [[0.5, 0.6, 0.7]]
    assert (A == np.eye(3)).all()


def test_small_time_taylor_expansion():
    # Y = cos(x) d_t: DY.Y = 0, so image = p + t Y(p) and A = I + t DY(p)
    # hold through second order.
    Y = E_T.scaled(cos_of(coordinate(CHART, "x")))
    t = 1e-3
    q, A = integrate_flow(Y, t, [(0.4, 0.1, 0.2)])
    expected_q = [0.4, 0.1, 0.2 + t * np.cos(0.4)]
    assert q[0] == pytest.approx(np.array(expected_q), abs=1e-8)
    expected_A = np.eye(3)
    expected_A[2, 0] = -t * np.sin(0.4)
    assert A[0] == pytest.approx(expected_A, abs=1e-8)


def test_one_point_flows_as_a_batch_of_one():
    # a batch of one is a row of a larger batch; a bare point is not a batch,
    # at the zero-time exit too
    Y = random_vector_field(CHART, Drawn(stream(83, "one")))
    p = (0.2, 0.3, 0.4)
    for t in (0.35, 0.0):
        q1, A1 = integrate_flow(Y, t, [p], h=0.05)
        q, A = integrate_flow(Y, t, [p, (0.5, 0.1, 0.7)], h=0.05)
        assert q1.shape == (1, 3) and A1.shape == (1, 3, 3)
        assert q1.tobytes() == q[:1].tobytes() and A1.tobytes() == A[:1].tobytes()
        for point in (p, (0.2, 0.3)):
            with pytest.raises(ValueError, match=r"\(N, 3\) batch"):
                integrate_flow(Y, t, point, h=0.05)


def test_flow_without_jacobian_gives_the_same_points():
    Y = random_vector_field(CHART, Drawn(stream(90, "nojac")), amplitude=0.6)
    P = pts(4)
    q, A = integrate_flow(Y, 0.07, P)
    q_only, none = integrate_flow(Y, 0.07, P, jacobian=False)
    assert none is None and np.array_equal(q_only, q)
    assert integrate_flow(Y, 0.0, P, jacobian=False)[1] is None


def test_per_point_times_equal_one_call_per_point():
    # every time takes 3 steps of h = 0.01, alone and in the batch
    Y = random_vector_field(CHART, Drawn(stream(91, "times")), amplitude=0.6)
    P = pts(4)
    times = np.array([0.03, -0.025, 0.021, -0.03])
    for jacobian in (True, False):
        q, A = integrate_flow(Y, times, P, h=0.01, jacobian=jacobian)
        for k, t in enumerate(times):
            q1, A1 = integrate_flow(Y, float(t), P[k : k + 1], h=0.01, jacobian=jacobian)
            assert np.array_equal(q[k : k + 1], q1)
            assert (A is None and A1 is None) or np.array_equal(A[k : k + 1], A1)


def _four_calls(value_at, tau):
    """The Richardson formula with one call per time offset."""
    d1 = (value_at(tau) - value_at(-tau)) / (2.0 * tau)
    d2 = (value_at(0.5 * tau) - value_at(-0.5 * tau)) / tau
    return (4.0 * d2 - d1) / 3.0


def test_batched_stencils_equal_one_call_per_offset():
    rng = stream(92, "stencil")
    P = pts(3)
    for s in (FLAT, TWISTED):
        Y = random_vector_field(CHART, Drawn(rng), amplitude=0.6)
        arg = random_vector_field(CHART, Drawn(rng))
        chi = _four_calls(lambda t: gauge_action_numeric(Y, t, s.couple, P, arg), flows.FD_OFFSET)
        assert np.array_equal(gauge_derivative_fd(Y, s.couple, P, arg), chi)
        Sdot = _four_calls(
            lambda t: flows._conjugated_S_matrix(Y, np.full(len(P), t), s, P), flows.FD_OFFSET
        )
        Mp = s.basis_matrix_at(P)
        for idx in range(s.n_leaf):
            want = flows.matvec(Mp[:, :, : s.n_leaf], Sdot[:, :, idx])
            assert np.array_equal(s_gauge_fd(Y, s, P, idx), want)
        omega = DX.scaled(cos_of(coordinate(CHART, "t")))
        lie = _four_calls(lambda t: pullback_form_numeric(Y, t, omega, P, [arg]), 1e-3)
        batched = flows.richardson(
            lambda q, t: pullback_form_numeric(Y, t, omega, q, [arg]), P, 1e-3
        )
        assert np.array_equal(batched, lie)


def test_singular_conjugation_names_one_time(monkeypatch):
    # every row fails; the first is at t = +FD_OFFSET
    monkeypatch.setattr(flows, "DET_GUARD", np.inf)
    with pytest.raises(ConjugationSingularError, match=r"too small at t=0\.001$"):
        s_gauge_fd(E_X, TWISTED, pts(2), 0)


def test_flow_parameter_validation():
    with pytest.raises(FlowParameterError):
        integrate_flow(E_X, 1.0, [(0, 0, 0)], h=0.0)
    with pytest.raises(FlowParameterError):
        integrate_flow(E_X, 2e3, [(0, 0, 0)], h=1e-3)
    with pytest.raises(FlowParameterError, match="one per point"):
        integrate_flow(E_X, [0.1, 0.2], [(0, 0, 0)])
    # a non-finite time or step is named, not left to math.ceil
    with pytest.raises(FlowParameterError, match="time must be finite, got nan"):
        integrate_flow(E_X, float("nan"), [(0, 0, 0)])
    with pytest.raises(FlowParameterError, match="step must be positive and finite, got nan"):
        integrate_flow(E_X, 1.0, [(0, 0, 0)], h=float("nan"))
    with pytest.raises(FlowParameterError, match="time must be finite, got nan"):
        integrate_flow(E_X, [0.1, float("nan")], [(0, 0, 0), (1, 1, 1)])


def test_rk4_converges_at_fourth_order_on_a_closed_form_flow():
    """The error model DEFAULT_STEP is derived from.  Y = sin(x) d_x flows
    x0 to x(t) = 2 arctan(tan(x0/2) e^t), with
    dx/dx0 = e^t / (cos^2(x0/2) + e^(2t) sin^2(x0/2)); halving the step
    divides the error of the points and of the Jacobians by 2^4."""
    Y = E_X.scaled(sin_of(coordinate(CHART, "x")))
    P = np.array([(0.3, 0.1, 0.2), (1.2, 2.0, 0.5), (2.5, 4.0, 6.0), (-1.0, 3.0, 1.0)])
    t, x0 = 0.5, P[:, 0]
    q_exact = P.copy()
    q_exact[:, 0] = 2.0 * np.arctan(np.tan(x0 / 2) * np.exp(t))
    A_exact = np.tile(np.eye(3), (len(P), 1, 1))
    A_exact[:, 0, 0] = np.exp(t) / (np.cos(x0 / 2) ** 2 + np.exp(2 * t) * np.sin(x0 / 2) ** 2)
    errors = []
    for h in (0.1, 0.05, 0.025, 0.0125):
        q, A = integrate_flow(Y, t, P, h=h)
        errors.append((np.abs(q - q_exact).max(), np.abs(A - A_exact).max()))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.abs(orders - 4.0).max() <= 0.2, orders


def test_flow_group_law():
    rng = stream(84, "group")
    Y = random_vector_field(CHART, Drawn(rng), amplitude=0.6)
    P = pts(3)
    q1, _ = integrate_flow(Y, 0.04, P)
    q2, _ = integrate_flow(Y, 0.06, q1)
    q12, _ = integrate_flow(Y, 0.1, P)
    assert q2 == pytest.approx(q12, abs=1e-7)


def test_euler_flows_fail_the_group_law(monkeypatch):
    """flow.group_law must see a first-order flow at DEFAULT_STEP: with its
    trajectories taken by Euler steps it fails by orders of magnitude."""
    rk4 = flows.integrate_flow

    def euler(Y, t, points, h=flows.DEFAULT_STEP, jacobian=True):
        if jacobian:
            return rk4(Y, t, points, h, jacobian)
        x = np.array(points, dtype=float)
        dim = Y.chart.dim
        steps = max(1, int(np.ceil(abs(t) / h)))
        for _ in range(steps):
            x[:, :dim] += (t / steps) * Y.at(x).T
        return x, None

    spec = next(spec for spec in REGISTRY if spec.identity == "flow.group_law")
    for name in ("t3_twisted", "t3_flat", "t5_product"):
        scenario = builtin(name)
        assert run_identity(spec, scenario, 42, 2).passed, name
        with monkeypatch.context() as m:
            m.setattr(flows, "integrate_flow", euler)
            report = run_identity(spec, scenario, 42, 2)
        assert report.samples and not report.passed, name
        assert report.max_rel > 100 * report.tolerance, (name, report.max_rel)


def test_pullback_of_dt_along_translation():
    val = pullback_form_numeric(E_X, 0.5, DT, pts(4), [E_T])
    assert val == pytest.approx(1.0, abs=1e-8)


def test_pullback_at_zero_is_identity():
    rng = stream(85, "pb0")
    omega = one_form(CHART, [0.3, -1.2, 0.7])
    arg = random_vector_field(CHART, Drawn(rng))
    P = pts(4)
    assert pullback_form_numeric(E_X, 0.0, omega, P, [arg]) == pytest.approx(
        evaluate_form(omega, P, [arg]), abs=1e-14
    )


def test_pullback_derivative_is_lie_derivative():
    from leviflat.excalc import lie_derivative_form

    t_coord = coordinate(CHART, "t")
    omega = DX.scaled(cos_of(t_coord))
    lie = lie_derivative_form(E_T, omega)
    # d/dt|0 of the pullback along d_t equals -sin(t) dx
    P = pts(4)
    tau = 1e-3
    d1 = (
        pullback_form_numeric(E_T, tau, omega, P, [E_X])
        - pullback_form_numeric(E_T, -tau, omega, P, [E_X])
    ) / (2 * tau)
    assert d1 == pytest.approx(-np.sin(P[:, 2]), abs=1e-5)
    assert evaluate_form(lie, P, [E_X]) == pytest.approx(-np.sin(P[:, 2]), abs=1e-12)


def test_gauge_action_translation_preserves_flat():
    couple = FLAT.couple
    for t in (0.0, 0.05, -0.1):
        assert gauge_action_numeric(E_X, t, couple, pts(3), E_X) == pytest.approx(0.0, abs=1e-10)


def test_gauge_derivative_hand_example():
    # Y = cos(x) d_t on the flat couple: -delta(iota_Y gamma) = sin(x) dx
    couple = FLAT.couple
    Y = E_T.scaled(cos_of(coordinate(CHART, "x")))
    P = pts(4)
    val = gauge_derivative_fd(Y, couple, P, E_X)
    assert val == pytest.approx(np.sin(P[:, 0]), abs=1e-4)
    assert gauge_derivative_fd(Y, couple, P, E_Y) == pytest.approx(0.0, abs=1e-6)


def test_gauge_derivative_tangent_and_transverse_trivial_cases():
    couple = FLAT.couple
    P = pts(3)
    # Y tangent to xi: iota_Y gamma = 0
    assert gauge_derivative_fd(E_X, couple, P, E_X) == pytest.approx(0.0, abs=1e-8)
    # Y = X: -delta(1) = 0 on the flat couple
    assert gauge_derivative_fd(E_T, couple, P, E_X) == pytest.approx(0.0, abs=1e-8)


def test_gauge_derivative_matches_delta_seeded():
    rng = stream(86, "chi")
    for s in (FLAT, TWISTED):
        couple = s.couple
        for _ in range(3):
            Y = random_vector_field(CHART, Drawn(rng), amplitude=0.6)
            target = -delta(couple.gamma_of(Y), couple)
            arg = random_vector_field(CHART, Drawn(rng))
            tval = target.apply_symbolic([arg])
            assert gauge_derivative_fd(Y, couple, pts(2), arg) == pytest.approx(
                tval(pts(2)), abs=1e-4
            )


def test_gauge_domain_guard():
    couple = FLAT.couple
    # beta = gamma + alpha nearly annihilates X: the normalization blows up
    alpha = DT.scaled(-1.0) + DX.scaled(1e-9)
    with pytest.raises(GaugeDomainError):
        gauge_mc_value(E_X, 0.01, alpha, couple, [(0.1, 0.2, 0.3)], E_X, E_Y)


def test_s_gauge_trivial_cases():
    P = pts(3)
    # translations and the X-flow leave the flat structure alone
    assert s_gauge_fd(E_X, FLAT, P, 0) == pytest.approx(np.zeros((3, 3)), abs=1e-8)
    assert s_gauge_fd(E_T, FLAT, P, 0) == pytest.approx(np.zeros((3, 3)), abs=1e-8)


def test_s_gauge_matches_minus_HY():
    y = coordinate(CHART, "y")
    for s in (FLAT, TWISTED):
        Y = s.frame[0].scaled(sin_of(y))
        HY = h_form(s, Y)
        for idx in range(2):
            target = -HY.value((idx,))
            got = s_gauge_fd(Y, s, pts(2), idx)
            assert got == pytest.approx(target.at(pts(2)).T, abs=1e-4)


def test_s_gauge_seeded_against_h_form():
    rng = stream(87, "sg")
    for s in (FLAT, TWISTED):
        for _ in range(2):
            Y = random_vector_field(CHART, Drawn(rng), amplitude=0.6)
            HY = h_form(s, Y)
            idx = int(rng.integers(0, 2))
            got = s_gauge_fd(Y, s, pts(2), idx)
            assert got == pytest.approx((-HY.value((idx,))).at(pts(2)).T, abs=1e-4)


def test_gauge_mc_value_integrable_alpha_stays_flat():
    couple = FLAT.couple
    alpha = one_form(CHART, [0.2, 0.1, 0.0])
    rng = stream(88, "mcv")
    Y = random_vector_field(CHART, Drawn(rng), amplitude=0.6)
    V, W = random_vector_field(CHART, Drawn(rng)), random_vector_field(CHART, Drawn(rng))
    assert np.abs(gauge_mc_value(Y, 0.05, alpha, couple, pts(3), V, W)).max() <= 1e-6


def test_gauge_mc_value_detects_nonintegrable_alpha():
    couple = FLAT.couple
    alpha = DY.scaled(sin_of(coordinate(CHART, "x")))
    rng = stream(89, "mcv2")
    Y = random_vector_field(CHART, Drawn(rng), amplitude=0.6)
    worst = np.abs(gauge_mc_value(Y, 0.05, alpha, couple, pts(4), E_X, E_Y)).max()
    assert worst > 0.1
