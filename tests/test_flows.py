"""Flows, pullbacks and the finite-difference gauge oracles."""

import math

import numpy as np
import pytest

from leviflat.errors import FlowParameterError, GaugeDomainError
from leviflat.excalc import (
    basis_vector,
    coordinate_differential,
    evaluate_form,
    one_form,
    zero_vector,
)
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
from leviflat.sampling import random_vector_field, sample_points, stream
from leviflat.scenarios import builtin
from leviflat.symfield import coordinate, cos_of, sin_of

FLAT = builtin("t3_flat").structure
TWISTED = builtin("t3_twisted").structure
CHART = FLAT.chart
E_X, E_Y, E_T = (basis_vector(CHART, i) for i in range(3))
DX, DY, DT = (coordinate_differential(CHART, i) for i in range(3))


def pts(n=5, label="fp"):
    return sample_points(CHART, n, stream(81, label))


def test_translation_flow():
    q, A = integrate_flow(E_X, 1.0, (0.2, 0.3, 0.4))
    assert list(q) == pytest.approx([1.2, 0.3, 0.4], abs=1e-12)
    assert A == pytest.approx(np.eye(3), abs=1e-12)


def test_zero_field_flow_is_identity():
    q, A = integrate_flow(zero_vector(CHART), 0.7, (0.2, 0.3, 0.4))
    assert list(q) == pytest.approx([0.2, 0.3, 0.4], abs=1e-15)
    assert A == pytest.approx(np.eye(3), abs=1e-15)


def test_flow_at_time_zero_exactly_identity():
    Y = random_vector_field(CHART, stream(82, "t0"))
    q, A = integrate_flow(Y, 0.0, (0.5, 0.6, 0.7))
    assert list(q) == [0.5, 0.6, 0.7]
    assert (A == np.eye(3)).all()


def test_small_time_taylor_expansion():
    # Y = cos(x) d_t: DY.Y = 0, so image = p + t Y(p) and A = I + t DY(p)
    # hold through second order.
    Y = E_T.scaled(cos_of(coordinate(CHART, "x")))
    t = 1e-3
    p = (0.4, 0.1, 0.2)
    q, A = integrate_flow(Y, t, p)
    expected_q = [0.4, 0.1, 0.2 + t * math.cos(0.4)]
    assert list(q) == pytest.approx(expected_q, abs=1e-8)
    expected_A = np.eye(3)
    expected_A[2, 0] = -t * math.sin(0.4)
    assert A == pytest.approx(expected_A, abs=1e-8)


def test_flow_parameter_validation():
    with pytest.raises(FlowParameterError):
        integrate_flow(E_X, 1.0, (0, 0, 0), h=0.0)
    with pytest.raises(FlowParameterError):
        integrate_flow(E_X, 2e3, (0, 0, 0), h=1e-3)


def test_flow_group_law():
    rng = stream(84, "group")
    Y = random_vector_field(CHART, rng, amplitude=0.6)
    for p in pts(3):
        q1, _ = integrate_flow(Y, 0.04, p)
        q2, _ = integrate_flow(Y, 0.06, tuple(q1))
        q12, _ = integrate_flow(Y, 0.1, p)
        assert list(q2) == pytest.approx(list(q12), abs=1e-7)


def test_pullback_of_dt_along_translation():
    for p in pts(4):
        val = pullback_form_numeric(E_X, 0.5, DT, p, [E_T])
        assert val == pytest.approx(1.0, abs=1e-8)


def test_pullback_at_zero_is_identity():
    rng = stream(85, "pb0")
    omega = one_form(CHART, [0.3, -1.2, 0.7])
    arg = random_vector_field(CHART, rng)
    for p in pts(4):
        assert pullback_form_numeric(E_X, 0.0, omega, p, [arg]) == pytest.approx(
            evaluate_form(omega, p, [arg]), abs=1e-14
        )


def test_pullback_derivative_is_lie_derivative():
    from leviflat.excalc import lie_derivative_form

    t_coord = coordinate(CHART, "t")
    omega = DX.scaled(cos_of(t_coord))
    lie = lie_derivative_form(E_T, omega)
    # d/dt|0 of the pullback along d_t equals -sin(t) dx
    for p in pts(4):
        tau = 1e-3
        d1 = (
            pullback_form_numeric(E_T, tau, omega, p, [E_X])
            - pullback_form_numeric(E_T, -tau, omega, p, [E_X])
        ) / (2 * tau)
        assert d1 == pytest.approx(-math.sin(p[2]), abs=1e-5)
        assert evaluate_form(lie, p, [E_X]) == pytest.approx(-math.sin(p[2]), abs=1e-12)


def test_gauge_action_translation_preserves_flat():
    couple = FLAT.couple
    for t in (0.0, 0.05, -0.1):
        for p in pts(3):
            assert gauge_action_numeric(E_X, t, None, couple, p, E_X) == pytest.approx(
                0.0, abs=1e-10
            )


def test_gauge_action_at_zero_returns_alpha():
    couple = FLAT.couple
    alpha = one_form(CHART, [0.3, 0.0, 0.0])
    for p in pts(3):
        got = gauge_action_numeric(E_X, 0.0, alpha, couple, p, E_X)
        assert got == pytest.approx(0.3, abs=1e-14)


def test_gauge_derivative_hand_example():
    # Y = cos(x) d_t on the flat couple: -delta(iota_Y gamma) = sin(x) dx
    couple = FLAT.couple
    Y = E_T.scaled(cos_of(coordinate(CHART, "x")))
    for p in pts(4):
        val = gauge_derivative_fd(Y, couple, p, E_X)
        assert val == pytest.approx(math.sin(p[0]), abs=1e-4)
        assert gauge_derivative_fd(Y, couple, p, E_Y) == pytest.approx(0.0, abs=1e-6)


def test_gauge_derivative_tangent_and_transverse_trivial_cases():
    couple = FLAT.couple
    for p in pts(3):
        # Y tangent to xi: iota_Y gamma = 0
        assert gauge_derivative_fd(E_X, couple, p, E_X) == pytest.approx(0.0, abs=1e-8)
        # Y = X: -delta(1) = 0 on the flat couple
        assert gauge_derivative_fd(E_T, couple, p, E_X) == pytest.approx(0.0, abs=1e-8)


def test_gauge_derivative_matches_delta_seeded():
    rng = stream(86, "chi")
    for s in (FLAT, TWISTED):
        couple = s.couple
        for _ in range(3):
            Y = random_vector_field(CHART, rng, amplitude=0.6)
            target = -delta(couple.gamma_of(Y), couple)
            arg = random_vector_field(CHART, rng)
            tval = target.apply_symbolic([arg])
            for p in pts(2):
                assert gauge_derivative_fd(Y, couple, p, arg) == pytest.approx(
                    tval(p), abs=1e-4
                )


def test_gauge_domain_guard():
    couple = FLAT.couple
    # beta = gamma + alpha nearly annihilates X: the normalization blows up
    alpha = DT.scaled(-1.0) + DX.scaled(1e-9)
    with pytest.raises(GaugeDomainError):
        gauge_action_numeric(E_X, 0.01, alpha, couple, (0.1, 0.2, 0.3), E_X)


def test_s_gauge_trivial_cases():
    for p in pts(3):
        # translations and the X-flow leave the flat structure alone
        assert list(s_gauge_fd(E_X, FLAT, p, 0)) == pytest.approx([0, 0, 0], abs=1e-8)
        assert list(s_gauge_fd(E_T, FLAT, p, 0)) == pytest.approx([0, 0, 0], abs=1e-8)


def test_s_gauge_matches_minus_HY():
    y = coordinate(CHART, "y")
    for s in (FLAT, TWISTED):
        Y = s.frame[0].scaled(sin_of(y))
        HY = h_form(s, Y)
        for idx in range(2):
            target = -HY.value((idx,))
            for p in pts(2):
                got = s_gauge_fd(Y, s, p, idx)
                assert list(got) == pytest.approx(target.at(p), abs=1e-4)


def test_s_gauge_seeded_against_h_form():
    rng = stream(87, "sg")
    for s in (FLAT, TWISTED):
        for _ in range(2):
            Y = random_vector_field(CHART, rng, amplitude=0.6)
            HY = h_form(s, Y)
            idx = int(rng.integers(0, 2))
            for p in pts(2):
                got = s_gauge_fd(Y, s, p, idx)
                assert list(got) == pytest.approx((-HY.value((idx,))).at(p), abs=1e-4)


def test_gauge_mc_value_integrable_alpha_stays_flat():
    couple = FLAT.couple
    alpha = one_form(CHART, [0.2, 0.1, 0.0])
    rng = stream(88, "mcv")
    Y = random_vector_field(CHART, rng, amplitude=0.6)
    V, W = random_vector_field(CHART, rng), random_vector_field(CHART, rng)
    for p in pts(3):
        assert abs(gauge_mc_value(Y, 0.05, alpha, couple, p, V, W)) <= 1e-6


def test_gauge_mc_value_detects_nonintegrable_alpha():
    couple = FLAT.couple
    alpha = DY.scaled(sin_of(coordinate(CHART, "x")))
    rng = stream(89, "mcv2")
    Y = random_vector_field(CHART, rng, amplitude=0.6)
    worst = 0.0
    for p in pts(4):
        worst = max(worst, abs(gauge_mc_value(Y, 0.05, alpha, couple, p, E_X, E_Y)))
    assert worst > 0.1
