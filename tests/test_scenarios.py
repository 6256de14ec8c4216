"""Built-in scenarios, their hand-verified properties, and the file loader."""

import numpy as np
import pytest

from leviflat.defcomplex import exactness_witness_check
from leviflat.errors import ScenarioError
from leviflat.excalc import form_components
from leviflat.foliation_dgla import frobenius_residuals, mc_residual
from leviflat.leafcx import h_form, ix_dgamma
from leviflat.report import ResidualAccumulator
from leviflat.sampling import sample_points, stream
from leviflat.scenarios import (
    BUILTIN_NAMES,
    builtin,
    load_scenario_file,
    resolve,
    t5_quadratic_S0,
)

ORIGIN = [(0.0, 0.0, 0.0)]

# The properties each built-in is constructed to have.
EXPECTED = {
    "t3_flat": ("H=0", "ixdgamma=0"),
    "t3_twisted": ("H=0", "ixdgamma!=0"),
    "t3_twisted_shifted": ("H!=0", "ixdgamma!=0", "exact_witness"),
    "t5_product": ("H=0", "ixdgamma=0"),
    "t5_perturbedJ": ("nijenhuis!=0", "J_squared"),
    "family_t3_tilt": ("H=0", "family_mc_flat"),
    "family_t3_Jrotation": ("H=0", "family_mc_flat"),
    "broken_nonintegrable": ("not_integrable",),
}


def check_expectation(scenario, prop, points):
    """Evaluate one expected property; returns (ok, residual)."""
    s = scenario.structure
    if prop == "H=0":
        acc = ResidualAccumulator(points).add(h_form(s))
        return acc.max_rel <= 1e-9, acc.max_rel
    if prop == "H!=0":
        ok, res = check_expectation(scenario, "H=0", points)
        return (not ok), res
    if prop == "ixdgamma=0":
        acc = ResidualAccumulator(points).add(ix_dgamma(s))
        return acc.max_rel <= 1e-9, acc.max_rel
    if prop == "ixdgamma!=0":
        ok, res = check_expectation(scenario, "ixdgamma=0", points)
        return (not ok), res
    if prop == "exact_witness":
        acc = ResidualAccumulator(points)
        for lhs, rhs in exactness_witness_check(scenario.exact_witness, s):
            acc.add(lhs, rhs)
        return acc.max_rel <= 1e-9, acc.max_rel
    if prop == "nijenhuis!=0":
        res = s.invariants(points)["nijenhuis"]
        return res > 1e-3, res
    if prop == "J_squared":
        inv = s.invariants(points)
        return inv["J_squared"] <= 1e-10, inv["J_squared"]
    if prop == "not_integrable":
        r3, _, _ = frobenius_residuals(s.gamma, s.X, points)
        return r3 > 1e-2, r3
    if prop == "family_mc_flat":
        acc = ResidualAccumulator(points)
        for t in (0.0, 0.1, -0.1, 0.3, -0.3):
            alpha = scenario.family.alpha_at(t)
            acc.add(mc_residual(alpha, s.couple, points))
        return acc.max_rel <= 1e-9, acc.max_rel
    raise ValueError(f"unknown expectation {prop!r}")


def pts(chart, n=8, label="sc"):
    return sample_points(chart, n, stream(101, label))


def test_unknown_name_raises():
    with pytest.raises(ScenarioError):
        builtin("nope")
    with pytest.raises(ScenarioError):
        resolve("also_nope")


def test_all_builtins_construct():
    for name in BUILTIN_NAMES:
        sc = builtin(name)
        assert sc.name == name


def test_structure_invariants_validate():
    for name in ("t3_flat", "t3_twisted", "t3_twisted_shifted", "t5_product"):
        sc = builtin(name)
        sc.structure.validate(pts(sc.structure.chart))


def test_perturbedJ_validates_with_flag():
    sc = builtin("t5_perturbedJ")
    inv = sc.structure.validate(pts(sc.structure.chart))
    assert inv["nijenhuis"] > 1e-3
    with pytest.raises(ValueError):
        sc.structure.with_J(sc.structure.Jmat, leafwise_integrable=True).validate(
            pts(sc.structure.chart)
        )


def test_every_declared_expectation_passes():
    assert sorted(EXPECTED) == sorted(BUILTIN_NAMES)
    for name in BUILTIN_NAMES:
        sc = builtin(name)
        points = pts(sc.structure.chart, 10, name)
        for prop in EXPECTED[name]:
            ok, residual = check_expectation(sc, prop, points)
            assert ok, f"{name}: expectation {prop} failed (residual {residual:.3e})"


def test_twisted_frobenius_residuals_tiny():
    sc = builtin("t3_twisted")
    r = frobenius_residuals(sc.structure.gamma, sc.structure.X, pts(sc.structure.chart))
    assert max(r) <= 1e-10


def test_family_values_and_tangent():
    fam = builtin("family_t3_tilt").family
    a = fam.alpha_at(0.5)
    assert a.coefficient((0,))(ORIGIN) == pytest.approx(0.35)
    assert a.coefficient((1,))(ORIGIN) == pytest.approx(-0.2)
    tangent = fam.alpha_tangent()
    assert tangent.coefficient((0,))(ORIGIN) == pytest.approx(0.7)
    assert fam.alpha_at(0.0).is_zero

    fam2 = builtin("family_t3_Jrotation").family
    S = fam2.S_matrix_at(0.2)
    assert S[0][0](ORIGIN) == pytest.approx(0.12)
    St = fam2.S_matrix_tangent()
    assert St[1][0](ORIGIN) == pytest.approx(-0.35)


def test_quadratic_S0_is_anticommuting_and_dbar_closed():
    from leviflat.leafcx import dbar1, xi_form_from_matrix
    from leviflat.symfield import PointEvaluator

    s = builtin("t5_product").structure
    entries = t5_quadratic_S0(s)
    points = pts(s.chart, 6, "S0")
    J = np.array([[float(v) for v in row] for row in s.Jmat])
    ev = PointEvaluator(s.chart, points, [f for row in entries for f in row])
    # (N, n, n): one S matrix per point
    S = np.array([[ev(f) for f in row] for row in entries]).transpose(2, 0, 1)
    assert np.abs(S @ J + J @ S).max() <= 1e-14
    S_form = xi_form_from_matrix(s, entries)
    closed = dbar1(s, S_form)
    assert ResidualAccumulator(points).add(closed).max_rel <= 1e-13


SCENARIO_TEXT = """
# the twisted 3-torus, written as a scenario file
[scenario]
name = twisted_from_file

[chart]
names = x y t
periodic = 1 1 1

[gamma]
x = 0.3*cos(t)
t = 1

[X]
t = 1

[frame E1]
x = 1
t = -0.3*cos(t)

[frame E2]
y = 1

[J]
row = 0, -1
row = 1, 0

[family tilt.alpha]
# only the dx tilt stays integrable against the twisted couple
x = 0.7*s
"""


def test_scenario_file_roundtrip(tmp_path):
    path = tmp_path / "twisted.scn"
    path.write_text(SCENARIO_TEXT)
    sc = load_scenario_file(str(path))
    assert sc.name == "twisted_from_file"
    points = pts(sc.structure.chart, 8, "file")
    sc.structure.validate(points)
    builtin_tw = builtin("t3_twisted").structure
    # the loaded couple matches the built-in twisted couple pointwise
    got = form_components(sc.structure.gamma, points)
    want = form_components(builtin_tw.gamma, points)
    assert got == pytest.approx(want, abs=1e-14)
    assert sc.family is not None
    assert sc.family.alpha_at(0.1).coefficient((0,))(ORIGIN) == pytest.approx(0.07)
    assert resolve(str(path)).name == "twisted_from_file"


def test_scenario_file_errors(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("[chart]\nnames = x y t\n")
    with pytest.raises(ScenarioError):
        load_scenario_file(str(bad))
    bad2 = tmp_path / "bad2.scn"
    bad2.write_text("key = value\n")
    with pytest.raises(ScenarioError):
        load_scenario_file(str(bad2))
    bad3 = tmp_path / "bad3.scn"
    bad3.write_text(SCENARIO_TEXT.replace("[gamma]\nx = 0.3*cos(t)", "[gamma]\nw = 1"))
    with pytest.raises(ScenarioError):
        load_scenario_file(str(bad3))


def test_family_jrotation_S_anticommutes_with_J():
    from leviflat.leafcx import anticommutator_residual

    sc = builtin("family_t3_Jrotation")
    s = sc.structure
    Smat = sc.family.S_matrix_at(0.2)
    acc = ResidualAccumulator(pts(s.chart, 6)).add(anticommutator_residual(s, Smat))
    assert acc.max_rel <= 1e-14
