"""Foliation DGLA: bracket, twisted differential, Frobenius, Maurer-Cartan."""

import pathlib

import numpy as np
import pytest

from leviflat import suites, symfield as sf
from leviflat.errors import ZMembershipError
from leviflat.excalc import (
    DifferentialForm,
    evaluate_form,
    exterior_derivative,
    interior_product,
    one_form,
    scalar_form,
)
from leviflat.foliation_dgla import (
    dgla_bracket,
    dgla_bracket_reduced,
    delta,
    frobenius_residuals,
    leafwise_d,
    mc_oracle_form,
    mc_residual,
    omega_alpha,
    omega_alpha_inverse,
    z_membership_residual,
)
from leviflat.report import ONE_INSTANCE, ResidualAccumulator
from leviflat.sampling import Drawn, random_form, random_scalar, sample_points, stream
from leviflat.scenarios import BUILTIN_NAMES, builtin, load_scenario_file
from leviflat.suites import SHEAR, mc_flat_alpha
from leviflat.symfield import ScalarField, constant, torus
from tests.fields import basis_vector, coordinate, cos_of, sin_of

CHART = torus("x", "y", "t")
DX, DY, DT = (one_form(CHART, np.eye(3)[i]) for i in range(3))
E_X, E_Y, E_T = (basis_vector(CHART, i) for i in range(3))
EPS = 0.3


def pts(n=10, label="pts"):
    return np.array(sample_points(CHART, n, stream(31, label)))


def flat_couple():
    return builtin("t3_flat").structure.couple


def twisted_couple():
    return builtin("t3_twisted").structure.couple


def test_bracket_flat_constants_vanish():
    b = dgla_bracket(DX, DY, flat_couple())
    assert b.coeffs == {}


def test_bracket_gamma_dy_twisted():
    c = twisted_couple()
    b = dgla_bracket(c.gamma, DY, c)
    # {gamma, dy} = -eps sin t dx ^ dy
    P = pts(8)
    assert evaluate_form(b, P, [E_X, E_Y]) == pytest.approx(-EPS * np.sin(P[:, 2]), abs=1e-13)


def test_bracket_graded_antisymmetry_seeded():
    c = twisted_couple()
    rng = stream(32, "anti")
    for ka, kb in ((1, 1), (1, 2)):
        a = random_form(CHART, ka, Drawn(rng))
        b = random_form(CHART, kb, Drawn(rng))
        lhs = dgla_bracket(a, b, c)
        rhs = dgla_bracket(b, a, c).scaled(-((-1.0) ** (ka * kb)))
        assert ResidualAccumulator(pts(6)).add(lhs, rhs).max_abs <= 1e-12


def test_reduced_bracket_formula_on_z():
    scenario = builtin("t3_twisted")
    s, c = scenario.structure, scenario.structure.couple
    from leviflat.suites import random_z_form

    rng = stream(33, "reduced")
    a = random_z_form(s, 1, Drawn(rng))
    b = random_z_form(s, 1, Drawn(rng))
    lhs = dgla_bracket(a, b, c)
    rhs = dgla_bracket_reduced(a, b, c)
    assert ResidualAccumulator(pts(6)).add(lhs, rhs).max_abs <= 1e-12


def test_delta_of_zero_form():
    assert delta(scalar_form(constant(CHART, 0.0)), flat_couple()).coeffs == {}


def test_delta_dy_twisted():
    c = twisted_couple()
    d = delta(DY, c)
    P = pts(8)
    assert evaluate_form(d, P, [E_X, E_Y]) == pytest.approx(-EPS * np.sin(P[:, 2]), abs=1e-13)


def test_delta_scalar_flat():
    c = flat_couple()
    rng = stream(34, "scalar")
    f = random_scalar(CHART, Drawn(rng))
    d = delta(f, c)
    # delta f = df - (d_t f) dt on the flat couple
    P = pts(8)
    assert evaluate_form(d, P, [E_X]) == pytest.approx(f.diff(0)(P), abs=1e-12)
    assert evaluate_form(d, P, [E_Y]) == pytest.approx(f.diff(1)(P), abs=1e-12)
    assert evaluate_form(d, P, [E_T]) == pytest.approx(0.0, abs=1e-12)


def test_z_membership_values():
    c = flat_couple()
    assert z_membership_residual(DX, c, pts(), ONE_INSTANCE) == 0.0
    assert z_membership_residual(DT, c, pts(), ONE_INSTANCE) == pytest.approx(1.0)
    tw = twisted_couple()
    a = DX.scaled(cos_of(coordinate(CHART, "t")))
    assert z_membership_residual(a, tw, pts(), ONE_INSTANCE) <= 1e-15


def test_mc_residual_zero_for_zero():
    from leviflat.excalc import zero_form

    mc = mc_residual(zero_form(CHART, 1), flat_couple(), pts())
    assert mc.coeffs == {}


def test_mc_residual_constant_alpha_flat():
    alpha = one_form(CHART, [0.4, -0.2, 0.0])
    mc = mc_residual(alpha, flat_couple(), pts())
    assert ResidualAccumulator(pts(8)).add(mc).max_abs <= 1e-14


def test_mc_residual_rejects_non_z():
    alpha = DT.scaled(0.5)
    with pytest.raises(ZMembershipError):
        mc_residual(alpha, flat_couple(), pts())


def test_mc_sin_t_dx_is_integrable_and_matches_oracle():
    """ker(dt + sin t dx) is integrable: the Maurer-Cartan form vanishes, and
    the independent d(beta)^beta oracle agrees."""
    c = flat_couple()
    alpha = DX.scaled(sin_of(coordinate(CHART, "t")))
    mc = mc_residual(alpha, c, pts())
    oracle = interior_product(c.X, mc_oracle_form(alpha, c))
    assert ResidualAccumulator(pts(10)).add(mc).max_abs <= 1e-13
    assert ResidualAccumulator(pts(10)).add(mc, oracle).max_abs <= 1e-13


def test_mc_sin_x_dy_is_not_integrable_and_matches_oracle():
    c = flat_couple()
    alpha = DY.scaled(sin_of(coordinate(CHART, "x")))
    mc = mc_residual(alpha, c, pts())
    oracle = interior_product(c.X, mc_oracle_form(alpha, c))
    P = pts(10)
    assert ResidualAccumulator(P).add(mc, oracle).max_abs <= 1e-12
    # the nonzero coefficient is cos(x) on dx^dy
    assert evaluate_form(mc, P, [E_X, E_Y]) == pytest.approx(np.cos(P[:, 0]), abs=1e-12)
    assert ResidualAccumulator(P).add(mc).max_abs > 0.3


def test_frobenius_flat_and_twisted_pass():
    for name in ("t3_flat", "t3_twisted"):
        c = builtin(name).structure.couple
        r3, r4, r5 = frobenius_residuals(c.gamma, c.X, pts())
        assert max(r3, r4, r5) <= 1e-10


def test_frobenius_broken_fails_condition_iii():
    gamma = DT + DY.scaled(coordinate(CHART, "x"))
    r3, _, _ = frobenius_residuals(gamma, E_T, pts())
    assert r3 > 0.1


def test_leafwise_d_scalar_flat():
    c = flat_couple()
    rng = stream(35, "db")
    f = random_scalar(CHART, Drawn(rng))
    db = leafwise_d(f, c)
    P = pts(6)
    assert evaluate_form(db, P, [E_X]) == pytest.approx(f.diff(0)(P), abs=1e-12)
    assert evaluate_form(db, P, [E_T]) == pytest.approx(0.0, abs=1e-12)


def test_leafwise_d_of_ix_dgamma_closed():
    for name in ("t3_flat", "t3_twisted"):
        c = builtin(name).structure.couple
        ix = interior_product(c.X, exterior_derivative(c.gamma))
        closed = leafwise_d(ix, c)
        assert ResidualAccumulator(pts(6)).add(closed).max_abs <= 1e-13


def test_leafwise_d_dx_flat():
    assert leafwise_d(DX, flat_couple()).coeffs == {}


def test_omega_alpha_identity_at_zero():
    from leviflat.excalc import zero_form

    V = E_X
    out = omega_alpha(V, zero_form(CHART, 1), flat_couple())
    assert out.at(pts(4)).T == pytest.approx(np.tile([1.0, 0.0, 0.0], (4, 1)))


def test_omega_alpha_lands_in_deformed_kernel():
    scenario = builtin("t3_twisted")
    s, c = scenario.structure, scenario.structure.couple
    from leviflat.suites import random_z_form, random_xi_field

    rng = stream(36, "omega")
    alpha = random_z_form(s, 1, Drawn(rng), amplitude=0.5)
    V = random_xi_field(s, Drawn(rng))
    beta = c.gamma + alpha
    val = beta.apply_symbolic([omega_alpha(V, alpha, c)])
    assert np.all(np.abs(val(pts(8))) <= 1e-10)


def test_omega_alpha_round_trip():
    c = flat_couple()
    from leviflat.sampling import random_vector_field
    from leviflat.suites import random_z_form

    scenario = builtin("t3_flat")
    rng = stream(37, "roundtrip")
    alpha = random_z_form(scenario.structure, 1, Drawn(rng))
    V = random_vector_field(CHART, Drawn(rng))
    back = omega_alpha_inverse(omega_alpha(V, alpha, c), alpha, c)
    assert np.all(np.abs(back.at(pts(6)) - V.at(pts(6))) <= 1e-12)


def test_mc_flat_family_matches_frobenius_of_tilted_couple():
    """On the built-in integrable couples the Maurer-Cartan residual
    vanishes, and the renormalized tilted couple passes the Frobenius test;
    the two certificates agree."""
    for name in ("t3_flat", "t3_twisted", "t3_twisted_shifted", "t5_product", "t5_perturbedJ"):
        scenario = builtin(name)
        c = scenario.structure.couple
        chart = scenario.structure.chart
        points = np.array(sample_points(chart, 10, stream(31, name)))
        alpha = mc_flat_alpha(scenario)
        mc = mc_residual(alpha, c, points)
        assert ResidualAccumulator(points).add(mc).max_abs <= 1e-12
        beta = c.gamma + alpha
        scale = beta.apply_symbolic([c.X])
        one = constant(chart, 1.0)
        X_hat = c.X.scaled(one / scale)
        r = frobenius_residuals(beta, X_hat, points)
        assert max(r) <= 1e-9


# --------------------------------------------------------------------------
# mc_flat_alpha is the pullback along the shear phi(x) = x + SHEAR f(x) e_t
# --------------------------------------------------------------------------

# every integrable built-in, and the benchmark's scenario file
TILTED = [name for name in BUILTIN_NAMES if builtin(name).foliation_integrable] + ["bench/my_twisted.scn"]
ROOT = pathlib.Path(__file__).resolve().parent.parent


def tilted_scenario(name):
    return load_scenario_file(ROOT / name) if name.endswith(".scn") else builtin(name)


def shear(points):
    """phi at the points, and grad f there, from closed-form derivatives of
    f = sin(x_1) + cos(x_{d-1})."""
    t = points.shape[1] - 1
    moved = points.copy()
    moved[:, t] += SHEAR * (np.sin(points[:, 0]) + np.cos(points[:, t - 1]))
    grad = np.zeros_like(points)
    grad[:, 0] += np.cos(points[:, 0])
    grad[:, t - 1] -= np.sin(points[:, t - 1])
    return moved, grad


def sign_flipped_tilt(scenario):
    """mc_flat_alpha's tilt with the chain-rule term's sign flipped:
    gamma_j o phi - (gamma_t o phi) SHEAR d_j f, which is no pullback."""
    s = scenario.structure
    chart = s.chart
    t = chart.dim - 1
    f = sf.add(sf.sin(sf.coord(0)), sf.cos(sf.coord(t - 1)))
    moved = {t: sf.add(sf.coord(t), sf.mul(sf.const(SHEAR), f))}
    pulled = [sf.substitute(s.gamma.coefficient((j,)).node, moved) for j in range(chart.dim)]
    coeffs = {
        (j,): ScalarField(chart, sf.sub(g, sf.mul(pulled[t], sf.mul(sf.const(SHEAR), f.diff(j)))))
        for j, g in enumerate(pulled)
    }
    beta = DifferentialForm(chart, 1, coeffs)
    return beta.scaled(constant(chart, 1.0) / beta.apply_symbolic([s.X])) - s.gamma


@pytest.mark.parametrize("name", TILTED)
def test_mc_flat_alpha_is_the_shear_pullback(name):
    """alpha(V) = gamma(phi(p); Dphi V) / gamma(phi(p); Dphi X_p) - gamma(p; V)
    on every coordinate vector V, with phi applied to the points numerically
    and Dphi = I + SHEAR e_t (x) grad f."""
    scenario = tilted_scenario(name)
    s = scenario.structure
    chart = s.chart
    t = chart.dim - 1
    points = np.array(sample_points(chart, 12, stream(33, name)))
    moved, grad = shear(points)
    gamma = s.couple.gamma

    def pushed(v):
        # Dphi v for an (N, dim) array of vectors
        out = v.copy()
        out[:, t] += SHEAR * np.sum(grad * v, axis=1)
        return out

    X = s.X.at(points).T
    normalization = gamma.at(moved, [pushed(X).T])
    alpha = mc_flat_alpha(scenario)
    for i in range(chart.dim):
        V = np.zeros_like(points)
        V[:, i] = 1.0
        expected = gamma.at(moved, [pushed(V).T]) / normalization - gamma.at(points, [V.T])
        got = evaluate_form(alpha, points, [basis_vector(chart, i)])
        assert np.max(np.abs(got - expected)) <= 1e-13 * max(1.0, np.max(np.abs(expected))), (name, i)


@pytest.mark.parametrize("name", ["t3_twisted", "t3_twisted_shifted", "bench/my_twisted.scn"])
def test_gauge_mc_fails_on_a_tilt_that_is_no_pullback(monkeypatch, name):
    """A negative control for remark.gauge_mc: with the chain-rule term's
    sign flipped, the tilt is no longer Maurer-Cartan flat."""
    scenario = tilted_scenario(name)
    spec = next(spec for spec in suites.REGISTRY if spec.identity == "remark.gauge_mc")
    assert suites.run_identity(spec, scenario, 42, 2).passed
    monkeypatch.setattr(suites, "mc_flat_alpha", sign_flipped_tilt)
    report = suites.run_identity(spec, scenario, 42, 2)
    assert not report.passed and report.max_rel > 1e-2, report
