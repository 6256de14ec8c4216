"""Built-in scenarios, their hand-verified properties, and the file loader."""

import json
import os
import pathlib
import shutil

import numpy as np
import pytest

from leviflat.cli import RunConfig, main, run
from leviflat.defcomplex import exactness_witness_check
from leviflat.errors import ScenarioError
from leviflat.excalc import DifferentialForm, VectorField, XiValuedForm
from leviflat.foliation_dgla import frobenius_residuals, mc_residual
from leviflat.leafcx import h_form, ix_dgamma
from leviflat.report import ResidualAccumulator
from leviflat.sampling import sample_points, stream
from leviflat.scenarios import (
    BUILTIN_DIR,
    BUILTIN_NAMES,
    FAMILY_TIMES,
    builtin,
    load_scenario_file,
    resolve,
)
from leviflat.suites import REGISTRY, run_identity
from leviflat.symfield import ScalarField

ROOT = pathlib.Path(__file__).resolve().parent.parent

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
        for t in FAMILY_TIMES:
            alpha = scenario.family.at(s, t).alpha
            acc.add(mc_residual(alpha, s.couple, points))
        return acc.max_rel <= 1e-9, acc.max_rel
    raise ValueError(f"unknown expectation {prop!r}")


def pts(chart, n=8, label="sc"):
    return sample_points(chart, n, stream(101, label))


def family_S_matrix(s, pair):
    """The S matrix of a family's CochainPair, read back from its (0,1)-form
    through the coframe: column i holds the frame coefficients of S E_i."""
    cols = [s.xi_coefficients(pair.P.value((i,))) for i in range(s.n_leaf)]
    return [[col[r] for col in cols] for r in range(s.n_leaf)]


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
    """Every built-in passes the load check, which measures the negative
    control as not foliation-integrable and t5_perturbedJ as not
    leafwise-integrable."""
    for name in BUILTIN_NAMES:
        sc = builtin(name)
        assert sc.foliation_integrable == (name != "broken_nonintegrable")
        assert sc.structure.leafwise_integrable == (name != "t5_perturbedJ")


def test_perturbedJ_validates_with_flag():
    sc = builtin("t5_perturbedJ")
    inv = sc.structure.invariants(pts(sc.structure.chart))
    assert inv["J_squared"] <= 1e-10 and inv["nijenhuis"] > 1e-3
    assert not sc.structure.leafwise_integrable


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
    sc = builtin("family_t3_tilt")
    s, fam = sc.structure, sc.family
    a = fam.at(s, 0.5)
    assert a.degree == 1 and a.alpha.chart == s.chart
    assert a.alpha.coefficient((0,))(ORIGIN) == pytest.approx(0.35)
    assert a.alpha.coefficient((1,))(ORIGIN) == pytest.approx(-0.2)
    # a family without S entries has S = 0
    assert all(c.is_zero for V in a.P.values.values() for c in V.components)
    tangent = fam.tangent(s)
    assert tangent.alpha.coefficient((0,))(ORIGIN) == pytest.approx(0.7)
    assert fam.at(s, 0.0).alpha.coeffs == {}

    sc2 = builtin("family_t3_Jrotation")
    s2 = sc2.structure
    S = family_S_matrix(s2, sc2.family.at(s2, 0.2))
    assert S[0][0](ORIGIN) == pytest.approx(0.12)
    St = family_S_matrix(s2, sc2.family.tangent(s2))
    assert St[1][0](ORIGIN) == pytest.approx(-0.35)
    assert sc2.family.tangent(s2).alpha.coeffs == {}


def test_quadratic_S0_is_anticommuting_and_dbar_closed():
    from leviflat.leafcx import dbar1, xi_form_from_matrix
    from leviflat.symfield import PointEvaluator

    sc = builtin("t5_product")
    s, entries = sc.structure, sc.quadratic_S0
    points = pts(s.chart, 6, "S0")
    ev = PointEvaluator(s.chart, points, [f for m in (entries, s.Jmat) for row in m for f in row])
    # (N, n, n): one matrix per point
    S, J = (np.array([[ev(f) for f in row] for row in m]).transpose(2, 0, 1) for m in (entries, s.Jmat))
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
    assert sc.foliation_integrable and sc.structure.leafwise_integrable
    builtin_tw = builtin("t3_twisted").structure
    # the loaded couple matches the built-in twisted couple pointwise
    assert ResidualAccumulator(points).add(sc.structure.gamma, builtin_tw.gamma).max_abs <= 1e-14
    assert sc.family is not None
    assert sc.family.at(sc.structure, 0.1).alpha.coefficient((0,))(ORIGIN) == pytest.approx(0.07)
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
    # a coordinate named like the family parameter
    bad4 = tmp_path / "bad4.scn"
    text = SCENARIO_TEXT.replace("names = x y t", "names = x y s").replace("(t)", "(s)")
    bad4.write_text(text.replace("\nt = ", "\ns = "))
    with pytest.raises(ScenarioError, match="families need the parameter 's'"):
        load_scenario_file(str(bad4))


# (id, (old, new) text replaced once in SCENARIO_TEXT, or text appended at
# line 31, and the message after the path)
REJECTED = [
    ("unknown_section", "[witnes]\nx = sin(y)\n", ":31: unknown section [witnes]"),
    ("frame_typo", ("[frame E2]", "[frames E2]"), ":21: unknown section [frames E2]"),
    ("chart_key", ("periodic = 1 1 1", "period = 1 0 1"), ":8: unknown key 'period' in [chart]"),
    ("periodic_flag", ("periodic = 1 1 1", "periodic = 1 1 2"), ":8: periodic flags must be 0 or 1"),
    ("scenario_key", ("name = twisted_from_file", "nmae = x"), ":4: unknown key 'nmae' in [scenario]"),
    ("repeated_gamma", ("t = 1\n\n[X]", "t = 1\nt = 2\n\n[X]"), ":13: repeated key 't' in [gamma]"),
    ("repeated_X", ("[X]\nt = 1\n", "[X]\nt = 1\nt = 2\n"), ":16: repeated key 't' in [X]"),
    ("repeated_frame", ("[frame E2]\ny = 1\n", "[frame E2]\ny = 1\ny = 2\n"), ":23: repeated key 'y' in [frame E2]"),
    ("repeated_witness", "[witness]\ny = 1\ny = 2\n", ":33: repeated key 'y' in [witness]"),
    ("repeated_family", "x = 0.1*s\n", ":31: repeated key 'x' in [family tilt.alpha]"),
    ("duplicate_J", "[J]\nrow = 0, -1\nrow = 1, 0\n", ":31: duplicate section [J]"),
    ("duplicate_frame", ("[frame E2]", "[frame E1]"), ":21: duplicate section [frame E1]"),
    ("duplicate_frame_spaced", ("[frame E2]", "[frame  E1 ]"), ":21: duplicate section [frame E1]"),
    ("J_shape", ("row = 1, 0\n", "row = 1, 0, 0\n"), ":24: [J] must be a 2x2 matrix"),
    ("family_part", "[family tilt.beta]\nx = s\n", ":31: family section must end in .alpha or .S"),
    (
        "witness_outside_xi",
        "[witness]\nt = 1\n",
        ": [witness] does not lie in xi: gamma(U) = 5.000e-01 on the probe points",
    ),
    ("S0_non_finite", "[S0]\nrow = 1e999, 0\nrow = 0, -1e999\n", ": non-finite invariant S0 = inf on the probe points"),
    (
        "S0_commutes",
        "[S0]\nrow = 1, 0\nrow = 0, 1\n",
        ": [S0] does not anticommute with J: S0 J + J S0 = 6.667e-01 on the probe points",
    ),
    (
        "family_alpha_outside_Z1",
        "t = 0.5*s\n",
        ": [family tilt.alpha] does not lie in Z^1: iota_X alpha_t = 1.500e-01 on the probe points",
    ),
    (
        "family_S_commutes",
        "[family tilt.S]\nrow = 0.6*s, 0\nrow = 0, 0.6*s\n",
        ": [family tilt.S] does not anticommute with J: S_t J + J S_t = 3.600e-01 on the probe points",
    ),
]


@pytest.mark.parametrize("edit,message", [case[1:] for case in REJECTED], ids=[case[0] for case in REJECTED])
def test_malformed_scenario_file_exits_2_naming_the_line(tmp_path, capsys, edit, message):
    """A typo or a repeat in a scenario file, or a witness, S0 or family that
    fails its precondition, ends with exit status 2 and a message naming the
    path and, for a typo or a repeat, the line."""
    if isinstance(edit, tuple):
        assert edit[0] in SCENARIO_TEXT
        text = SCENARIO_TEXT.replace(*edit, 1)
    else:
        text = SCENARIO_TEXT + edit
    path = tmp_path / "bad.scn"
    path.write_text(text)
    assert main(["--scenario", str(path), "--suite", "frobenius", "--points", "2"]) == 2
    assert capsys.readouterr().err == f"configuration error: {path}{message}\n"


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_copy_of_a_shipped_file_selects_the_builtins_identities(tmp_path, name):
    """A built-in is its shipped file: a copy loaded as a user's file selects
    the same identities, witness and S0 included."""
    path = tmp_path / "copy.scn"
    shutil.copyfile(os.path.join(BUILTIN_DIR, f"{name}.scn"), path)
    sc = load_scenario_file(str(path))
    assert sc.name == name
    assert tuple(sorted(spec.identity for spec in REGISTRY if spec.applies(sc))) == SELECTED[name]


def _keyed_by_coordinate(header):
    name = header[1:-1].strip()
    return name in ("gamma", "X", "witness") or name.startswith("frame ") or (
        name.startswith("family ") and name.endswith(".alpha")
    )


def _reversed_keys(text):
    """text with the key lines of each section keyed by coordinate names in
    reverse order, and how many such sections have two or more keys."""
    lines = text.splitlines()
    sections = []
    keys = None
    for i, raw in enumerate(lines):
        line = raw.split("#", 1)[0].strip()
        if line.startswith("["):
            keys = [] if _keyed_by_coordinate(line) else None
            if keys is not None:
                sections.append(keys)
        elif line and keys is not None:
            keys.append(i)
    out = list(lines)
    for keys in sections:
        for i, j in zip(keys, reversed(keys)):
            out[i] = lines[j]
    return "\n".join(out) + "\n", sum(len(keys) >= 2 for keys in sections)


SHIPPED = [os.path.join(BUILTIN_DIR, f"{name}.scn") for name in BUILTIN_NAMES] + [str(ROOT / "bench" / "my_twisted.scn")]
PERMUTABLE = [path for path in SHIPPED if _reversed_keys(pathlib.Path(path).read_text(encoding="utf-8"))[1]]


@pytest.mark.parametrize("path", PERMUTABLE, ids=[os.path.basename(path) for path in PERMUTABLE])
def test_key_order_inside_a_section_leaves_reports_unchanged(tmp_path, path):
    """A copy of a shipped file with the keys of [gamma], [X], each [frame]
    and the like in reverse order gives byte-identical results."""
    text, _ = _reversed_keys(pathlib.Path(path).read_text(encoding="utf-8"))
    copy = tmp_path / "reversed.scn"
    copy.write_text(text, encoding="utf-8")
    results = []
    for scenario in (path, str(copy)):
        status, document = run(RunConfig(scenario=scenario, suite="all", seed=42, points=2))
        assert status in (0, 1)
        results.append(json.dumps(document["results"]))
    assert results[0] == results[1]


def test_shipped_files_with_keys_to_permute():
    names = sorted(os.path.basename(path) for path in PERMUTABLE)
    assert names == [
        "broken_nonintegrable.scn",
        "family_t3_tilt.scn",
        "my_twisted.scn",
        "t3_twisted.scn",
        "t3_twisted_shifted.scn",
    ]


def test_builtin_directory_holds_one_file_per_builtin():
    assert sorted(os.listdir(BUILTIN_DIR)) == sorted(f"{name}.scn" for name in BUILTIN_NAMES)


def test_frame_determinant_changing_sign_is_rejected(tmp_path):
    """|det(frame | X)| stays above the guard on the probe, but the signed
    determinant takes both signs, so it vanishes somewhere on the torus."""
    text = (ROOT / "bench" / "my_twisted.scn").read_text(encoding="utf-8")
    path = tmp_path / "degenerate.scn"
    path.write_text(text.replace("[frame E2]\ny = 1", "[frame E2]\ny = sin(x+0.1)"))
    with pytest.raises(ScenarioError) as exc:
        load_scenario_file(str(path))
    message = str(exc.value)
    assert "det(frame | X) changes sign: 9.983e-02 at (0.0000, 0.0000, 0.0000), -" in message
    assert message.count(" at (") == 2


def test_unreadable_scenario_file_is_a_scenario_error(tmp_path):
    """A directory or a file that is not UTF-8 is a ScenarioError naming
    the path, not an OSError or a UnicodeDecodeError."""
    undecodable = tmp_path / "bytes.scn"
    undecodable.write_bytes(b"\xff\xfe\x00bad")
    for path in (tmp_path, undecodable):
        with pytest.raises(ScenarioError, match="cannot read scenario file") as exc:
            load_scenario_file(str(path))
        assert str(exc.value).startswith(f"{path}: ")


def test_every_J_entry_is_a_scalar_field(tmp_path):
    """J holds ScalarFields on the structure's chart, whether a scenario
    gives numbers or expressions: every built-in, the scenario files, and a
    J replaced by numbers."""
    path = tmp_path / "twisted.scn"
    path.write_text(SCENARIO_TEXT)
    files = (str(path), str(ROOT / "bench" / "my_twisted.scn"))
    structures = [resolve(name).structure for name in (*BUILTIN_NAMES, *files)]
    structures.append(structures[0].with_J(((0.0, -1.0), (1.0, 0.0))))
    for s in structures:
        assert all(isinstance(f, ScalarField) and f.chart == s.chart for row in s.Jmat for f in row)


def test_charts_that_differ_only_in_periodicity_share_no_field(tmp_path):
    """A built-in 3-torus, then in the same process a scenario file on a
    chart with the same coordinate names but t not periodic: both run."""
    status, _ = run(RunConfig(scenario="t3_flat", suite="frobenius,lemma.dbarH", points=3))
    assert status == 0
    path = tmp_path / "aperiodic_t.scn"
    text = (ROOT / "bench" / "my_twisted.scn").read_text()
    path.write_text(text.replace("periodic = 1 1 1", "periodic = 1 1 0"))
    status, document = run(RunConfig(scenario=str(path), suite="frobenius,lemma.dbarH", points=3))
    assert status == 0, document.get("error")
    assert len(document["results"]) == 2


def test_family_jrotation_S_anticommutes_with_J():
    from leviflat.leafcx import anticommutator_residual

    sc = builtin("family_t3_Jrotation")
    s = sc.structure
    Smat = family_S_matrix(s, sc.family.at(s, 0.2))
    acc = ResidualAccumulator(pts(s.chart, 6)).add(anticommutator_residual(s, Smat))
    assert acc.max_rel <= 1e-14


# The identities whose predicate applies, per built-in and for the benchmark's
# scenario file: selection must not move when the predicates change.
SELECTED = {
    "t3_flat": (
        "cor.dbar_hY", "cor.n_alpha", "cor.phiH", "dbar.antilinearity", "dbar.commutes_J",
        "dbar.leibniz", "dbar.squared", "defbracket.expansion", "defbracket.leibniz",
        "dgla.antisym", "dgla.delta_squared", "dgla.jacobi", "dgla.leibniz_d",
        "dgla.leibniz_delta", "excalc.d_squared", "excalc.jacobi_vector",
        "excalc.leibniz_wedge", "flow.group_law", "flow.lie_oracle", "flow.pullback_identity",
        "frobenius", "lemma.bracket_alpha", "lemma.db_closed", "lemma.dbarH", "lemma.gauge_S",
        "lemma.gauge_chi", "lemma.hY_decomposition", "lemma.mc_oracle", "lemma.omega_alpha",
        "nijenhuis.bilinear", "prop.bethH", "prop.beth_squared", "prop.change_couple",
        "prop.dfrak_squared", "prop.iso_cohomology", "remark.gauge_mc", "remark.h_alternative",
        "remark.h_linear", "remark.ixdgamma01_closed", "thm.moduli.gauge_witness",
        "thm.tangent.witness", "zsub.closure", "zsub.reduced_bracket", "zsub.reduced_gamma",
    ),
    "t3_twisted": (
        "cor.dbar_hY", "cor.n_alpha", "cor.phiH", "dbar.antilinearity", "dbar.commutes_J",
        "dbar.leibniz", "dbar.squared", "defbracket.expansion", "defbracket.leibniz",
        "dgla.antisym", "dgla.delta_squared", "dgla.jacobi", "dgla.leibniz_d",
        "dgla.leibniz_delta", "excalc.d_squared", "excalc.jacobi_vector",
        "excalc.leibniz_wedge", "flow.group_law", "flow.lie_oracle", "flow.pullback_identity",
        "frobenius", "lemma.bracket_alpha", "lemma.db_closed", "lemma.dbarH", "lemma.gauge_S",
        "lemma.gauge_chi", "lemma.hY_decomposition", "lemma.mc_oracle", "lemma.omega_alpha",
        "nijenhuis.bilinear", "prop.bethH", "prop.beth_squared", "prop.change_couple",
        "prop.dfrak_squared", "prop.iso_cohomology", "remark.gauge_mc", "remark.h_alternative",
        "remark.h_linear", "remark.ixdgamma01_closed", "thm.moduli.gauge_witness",
        "thm.tangent.witness", "zsub.closure", "zsub.reduced_bracket", "zsub.reduced_gamma",
    ),
    "t3_twisted_shifted": (
        "cor.dbar_hY", "cor.n_alpha", "cor.phiH", "dbar.antilinearity", "dbar.commutes_J",
        "dbar.leibniz", "dbar.squared", "defbracket.expansion", "defbracket.leibniz",
        "dgla.antisym", "dgla.delta_squared", "dgla.jacobi", "dgla.leibniz_d",
        "dgla.leibniz_delta", "excalc.d_squared", "excalc.jacobi_vector",
        "excalc.leibniz_wedge", "flow.group_law", "flow.lie_oracle", "flow.pullback_identity",
        "frobenius", "lemma.bracket_alpha", "lemma.db_closed", "lemma.dbarH",
        "lemma.exact.transport", "lemma.exact.witness", "lemma.gauge_S", "lemma.gauge_chi",
        "lemma.hY_decomposition", "lemma.mc_oracle", "lemma.omega_alpha", "nijenhuis.bilinear",
        "prop.bethH", "prop.beth_squared", "prop.change_couple", "prop.dfrak_squared",
        "prop.iso_cohomology", "remark.gauge_mc", "remark.h_alternative", "remark.h_linear",
        "remark.ixdgamma01_closed", "thm.moduli.gauge_witness", "thm.tangent.witness",
        "zsub.closure", "zsub.reduced_bracket", "zsub.reduced_gamma",
    ),
    "t5_product": (
        "cor.dbar_hY", "cor.n_alpha", "cor.n_jtilde_identity", "cor.n_jtilde_quadratic",
        "cor.phiH", "dbar.antilinearity", "dbar.commutes_J", "dbar.leibniz", "dbar.squared",
        "defbracket.expansion", "defbracket.leibniz", "dgla.antisym", "dgla.delta_squared",
        "dgla.jacobi", "dgla.leibniz_d", "dgla.leibniz_delta", "excalc.d_squared",
        "excalc.jacobi_vector", "excalc.leibniz_wedge", "flow.group_law", "flow.lie_oracle",
        "flow.pullback_identity", "frobenius", "lemma.bracket_alpha", "lemma.db_closed",
        "lemma.dbarH", "lemma.gauge_S", "lemma.gauge_chi", "lemma.hY_decomposition",
        "lemma.mc_oracle", "lemma.omega_alpha", "nijenhuis.bilinear", "prop.bethH",
        "prop.beth_squared", "prop.change_couple", "prop.dfrak_squared", "prop.iso_cohomology",
        "prop.n_ntilde", "remark.gauge_mc", "remark.h_alternative", "remark.h_linear",
        "remark.ixdgamma01_closed", "scalc.s_roundtrip", "thm.moduli.gauge_witness",
        "thm.tangent.witness", "zsub.closure", "zsub.reduced_bracket", "zsub.reduced_gamma",
    ),
    "t5_perturbedJ": (
        "cor.n_jtilde_identity", "dbar.antilinearity", "dbar.commutes_J", "dbar.leibniz",
        "dgla.antisym", "dgla.delta_squared", "dgla.jacobi", "dgla.leibniz_d",
        "dgla.leibniz_delta", "excalc.d_squared", "excalc.jacobi_vector",
        "excalc.leibniz_wedge", "flow.group_law", "flow.lie_oracle", "flow.pullback_identity",
        "frobenius", "lemma.db_closed", "lemma.gauge_chi", "lemma.mc_oracle",
        "lemma.omega_alpha", "nijenhuis.bilinear", "prop.n_ntilde", "remark.gauge_mc",
        "scalc.s_roundtrip", "zsub.closure", "zsub.reduced_bracket", "zsub.reduced_gamma",
    ),
    "family_t3_tilt": (
        "cor.dbar_hY", "cor.levi_flat_mc", "cor.n_alpha", "cor.phiH", "dbar.antilinearity",
        "dbar.commutes_J", "dbar.leibniz", "dbar.squared", "defbracket.expansion",
        "defbracket.leibniz", "dgla.antisym", "dgla.delta_squared", "dgla.jacobi",
        "dgla.leibniz_d", "dgla.leibniz_delta", "excalc.d_squared", "excalc.jacobi_vector",
        "excalc.leibniz_wedge", "flow.group_law", "flow.lie_oracle", "flow.pullback_identity",
        "frobenius", "lemma.bracket_alpha", "lemma.db_closed", "lemma.dbarH", "lemma.gauge_S",
        "lemma.gauge_chi", "lemma.hY_decomposition", "lemma.mc_oracle", "lemma.omega_alpha",
        "nijenhuis.bilinear", "prop.bethH", "prop.beth_squared", "prop.change_couple",
        "prop.dfrak_squared", "prop.iso_cohomology", "remark.gauge_mc", "remark.h_alternative",
        "remark.h_linear", "remark.ixdgamma01_closed", "thm.moduli.gauge_witness",
        "thm.tangent.eqP1", "thm.tangent.eqP2", "thm.tangent.witness", "zsub.closure",
        "zsub.reduced_bracket", "zsub.reduced_gamma",
    ),
    "family_t3_Jrotation": (
        "cor.dbar_hY", "cor.levi_flat_mc", "cor.n_alpha", "cor.phiH", "dbar.antilinearity",
        "dbar.commutes_J", "dbar.leibniz", "dbar.squared", "defbracket.expansion",
        "defbracket.leibniz", "dgla.antisym", "dgla.delta_squared", "dgla.jacobi",
        "dgla.leibniz_d", "dgla.leibniz_delta", "excalc.d_squared", "excalc.jacobi_vector",
        "excalc.leibniz_wedge", "flow.group_law", "flow.lie_oracle", "flow.pullback_identity",
        "frobenius", "lemma.bracket_alpha", "lemma.db_closed", "lemma.dbarH", "lemma.gauge_S",
        "lemma.gauge_chi", "lemma.hY_decomposition", "lemma.mc_oracle", "lemma.omega_alpha",
        "nijenhuis.bilinear", "prop.bethH", "prop.beth_squared", "prop.change_couple",
        "prop.dfrak_squared", "prop.iso_cohomology", "remark.gauge_mc", "remark.h_alternative",
        "remark.h_linear", "remark.ixdgamma01_closed", "thm.moduli.gauge_witness",
        "thm.tangent.eqP1", "thm.tangent.eqP2", "thm.tangent.witness", "zsub.closure",
        "zsub.reduced_bracket", "zsub.reduced_gamma",
    ),
    "broken_nonintegrable": (
        "excalc.d_squared", "excalc.jacobi_vector", "excalc.leibniz_wedge", "frobenius",
    ),
    "bench/my_twisted.scn": (
        "cor.dbar_hY", "cor.levi_flat_mc", "cor.n_alpha", "cor.phiH", "dbar.antilinearity",
        "dbar.commutes_J", "dbar.leibniz", "dbar.squared", "defbracket.expansion",
        "defbracket.leibniz", "dgla.antisym", "dgla.delta_squared", "dgla.jacobi",
        "dgla.leibniz_d", "dgla.leibniz_delta", "excalc.d_squared", "excalc.jacobi_vector",
        "excalc.leibniz_wedge", "flow.group_law", "flow.lie_oracle", "flow.pullback_identity",
        "frobenius", "lemma.bracket_alpha", "lemma.db_closed", "lemma.dbarH", "lemma.gauge_S",
        "lemma.gauge_chi", "lemma.hY_decomposition", "lemma.mc_oracle", "lemma.omega_alpha",
        "nijenhuis.bilinear", "prop.bethH", "prop.beth_squared", "prop.change_couple",
        "prop.dfrak_squared", "prop.iso_cohomology", "remark.gauge_mc", "remark.h_alternative",
        "remark.h_linear", "remark.ixdgamma01_closed", "thm.moduli.gauge_witness",
        "thm.tangent.eqP1", "thm.tangent.eqP2", "thm.tangent.witness", "zsub.closure",
        "zsub.reduced_bracket", "zsub.reduced_gamma",
    ),
}


@pytest.mark.parametrize("name", list(SELECTED))
def test_identity_selection_is_pinned(name):
    sc = resolve(str(ROOT / name) if name.endswith(".scn") else name)
    assert tuple(sorted(spec.identity for spec in REGISTRY if spec.applies(sc))) == SELECTED[name]


# Identities that compare literal zeros wherever they run.  They run only on
# the two family built-ins, and both are constant deformations of the flat
# 3-torus: H = 0 there and every side folds to 0.  At 20 points their
# reports have max_abs 0.0 on both.
NEVER_LIVE = {
    "cor.levi_flat_mc": "both sides fold to 0 on the constant families over the flat 3-torus",
    "thm.tangent.eqP1": "delta of a constant tangent folds to 0 on the flat 3-torus",
    "thm.tangent.eqP2": "H = 0, so both sides fold to 0 on the flat 3-torus",
}
# The built-ins most likely to make an identity live come first.
LIVENESS_ORDER = ("t3_twisted_shifted", "t5_product", "t5_perturbedJ", "family_t3_tilt", "family_t3_Jrotation")


def _live(side):
    """Whether a side handed to acc.add is anything but the literal zero
    field; a numeric side is live when an entry is nonzero."""
    if isinstance(side, ScalarField):
        return not side.is_zero
    if isinstance(side, XiValuedForm):
        return any(map(_live, side.values.values()))
    if isinstance(side, DifferentialForm):
        return any(map(_live, side.coeffs.values()))
    if isinstance(side, VectorField):
        return any(map(_live, side.components))
    if isinstance(side, (list, tuple)):
        return any(map(_live, side))
    return bool(np.any(np.asarray(side, dtype=float) != 0))


def test_every_identity_checks_a_live_side_on_some_builtin(monkeypatch):
    """Some built-in hands each identity's own accumulator, the first one
    run_identity builds, a side that is not the literal zero field; a
    record counts when a sample or max_abs is nonzero.  Accumulators that
    helpers build for their own checks do not count."""
    run = {"acc": None, "live": False}
    init, add, record = ResidualAccumulator.__init__, ResidualAccumulator.add, ResidualAccumulator.record
    add_each, add_instances = ResidualAccumulator.add_each, ResidualAccumulator.add_instances

    def watched_init(self, points):
        init(self, points)
        if run["acc"] is None:
            run["acc"] = self

    def watched_add(self, lhs, rhs=0.0):
        if self is run["acc"]:
            run["live"] = run["live"] or _live(lhs) or _live(rhs)
        return add(self, lhs, rhs)

    def watched_add_each(self, rows, pairs):
        if self is run["acc"]:
            run["live"] = run["live"] or any(_live(side) for pair in pairs for side in pair)
        return add_each(self, rows, pairs)

    def watched_add_instances(self, count, pairs):
        if self is run["acc"]:
            run["live"] = run["live"] or any(_live(side) for pair in pairs for side in pair)
        return add_instances(self, count, pairs)

    def watched_record(self, samples, max_abs):
        if self is run["acc"]:
            run["live"] = run["live"] or any(v != 0 for v in samples) or max_abs != 0
        return record(self, samples, max_abs)

    monkeypatch.setattr(ResidualAccumulator, "__init__", watched_init)
    monkeypatch.setattr(ResidualAccumulator, "add", watched_add)
    monkeypatch.setattr(ResidualAccumulator, "add_each", watched_add_each)
    monkeypatch.setattr(ResidualAccumulator, "add_instances", watched_add_instances)
    monkeypatch.setattr(ResidualAccumulator, "record", watched_record)
    pending = {spec.identity: spec for spec in REGISTRY}
    for name in LIVENESS_ORDER + tuple(n for n in BUILTIN_NAMES if n not in LIVENESS_ORDER):
        sc = builtin(name)
        for spec in [spec for spec in pending.values() if spec.applies(sc)]:
            run.update(acc=None, live=False)
            run_identity(spec, sc, 42, 1)
            if run["live"]:
                del pending[spec.identity]
    assert set(pending) == set(NEVER_LIVE)
