"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the governing tolerance.  Tolerances are pinned here and nowhere
else; nothing is deferred to later calibration."""

import time

from leviflat.cli import RunConfig, run, write_report
from leviflat.excalc import exterior_derivative
from leviflat.foliation_dgla import (
    dgla_bracket,
    delta,
    frobenius_residuals,
    z_membership_residual,
)
from leviflat.report import ONE_INSTANCE, ResidualAccumulator
from leviflat.sampling import Drawn, random_form, sample_points, stream
from leviflat.scenarios import builtin
from leviflat.suites import REGISTRY, random_z_form, run_identity

SEED = 42
POINTS = 20
REGISTRY_BY_ID = {spec.identity: spec for spec in REGISTRY}


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _identity(name, scenario_name, n_points=POINTS, seed=SEED):
    report = run_identity(REGISTRY_BY_ID[name], builtin(scenario_name), seed, n_points)
    return report


def test_criterion_01_dgla_axiom_suite():
    """Graded antisymmetry, Jacobi and both Leibniz rules on 30 seeded
    homogeneous triples per built-in couple, residual <= 1e-9, within 10 s."""
    started = time.perf_counter()
    worst = 0.0
    for name in ("t3_flat", "t3_twisted", "t3_twisted_shifted", "t5_product"):
        scenario = builtin(name)
        couple = scenario.structure.couple
        chart = scenario.structure.chart
        rng = stream(SEED, name, "axioms")
        points = sample_points(chart, 4, rng)
        acc = ResidualAccumulator(points)
        for k in range(30):
            degrees = (1, 1, 1) if k < 15 else (1, 1, 2)
            a = random_form(chart, degrees[0], Drawn(rng))
            b = random_form(chart, degrees[1], Drawn(rng))
            c = random_form(chart, degrees[2], Drawn(rng))
            # antisymmetry on (b, c)
            lhs = dgla_bracket(b, c, couple)
            rhs = dgla_bracket(c, b, couple).scaled(-((-1.0) ** (degrees[1] * degrees[2])))
            # Jacobi on (a, b, c); deg a = deg b = 1 so the graded sign is -1
            jl = dgla_bracket(a, dgla_bracket(b, c, couple), couple)
            signed = dgla_bracket(b, dgla_bracket(a, c, couple), couple)
            jr = dgla_bracket(dgla_bracket(a, b, couple), c, couple) - signed
            # Leibniz for d and for delta on (a, b); deg a = 1 so the sign
            # on the second term is -1
            bracket_ab = dgla_bracket(a, b, couple)
            ld_l = exterior_derivative(bracket_ab)
            ld_r = dgla_bracket(exterior_derivative(a), b, couple) - dgla_bracket(
                a, exterior_derivative(b), couple
            )
            lt_l = delta(bracket_ab, couple)
            lt_r = dgla_bracket(delta(a, couple), b, couple) - dgla_bracket(
                a, delta(b, couple), couple
            )
            for left, right in ((lhs, rhs), (jl, jr), (ld_l, ld_r), (lt_l, lt_r)):
                acc.add(left, right)
        worst = max(worst, acc.max_rel)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed <= 10.0
    _line(1, ok, f"DGLA axioms max_rel={worst:.3e} (tol 1e-9), runtime={elapsed:.1f}s (cap 10s)")


def test_criterion_02_frobenius_suite():
    worst = 0.0
    for name in ("t3_flat", "t3_twisted", "t3_twisted_shifted", "t5_product"):
        s = builtin(name).structure
        points = sample_points(s.chart, POINTS, stream(SEED, name, "frob"))
        worst = max(worst, max(frobenius_residuals(s.gamma, s.X, points)))
    broken = builtin("broken_nonintegrable").structure
    points = sample_points(broken.chart, POINTS, stream(SEED, "broken", "frob"))
    r3 = frobenius_residuals(broken.gamma, broken.X, points)[0]
    ok = worst <= 1e-9 and r3 > 1e-2
    _line(2, ok, f"integrable couples max_rel={worst:.3e} (tol 1e-9); broken (iii)={r3:.3e} > 1e-2")


def test_criterion_03_sub_dgla_closure():
    worst = 0.0
    for name in ("t3_flat", "t3_twisted", "t3_twisted_shifted"):
        scenario = builtin(name)
        s, couple = scenario.structure, scenario.structure.couple
        rng = stream(SEED, name, "closure")
        points = sample_points(s.chart, POINTS, rng)
        for _ in range(10):
            a = random_z_form(s, 1, Drawn(rng))
            b = random_z_form(s, 1, Drawn(rng))
            worst = max(worst, z_membership_residual(delta(a, couple), couple, points, ONE_INSTANCE))
            worst = max(
                worst, z_membership_residual(dgla_bracket(a, b, couple), couple, points, ONE_INSTANCE)
            )
    ok = worst <= 1e-10
    _line(3, ok, f"delta and bracket keep iota_X-annihilation, max={worst:.3e} (tol 1e-10)")


def test_criterion_04_gauge_derivative_oracle():
    worst = 0.0
    for name in ("t3_flat", "t3_twisted"):
        report = _identity("lemma.gauge_chi", name)
        worst = max(worst, report.max_rel)
    ok = worst <= 1e-4
    _line(4, ok, f"d/dt chi(Phi_t^Y)(0) vs -delta(gamma(Y)), max_rel={worst:.3e} (tol 1e-4)")


def test_criterion_05_s_gauge_derivative_oracle():
    worst = 0.0
    for name in ("t3_flat", "t3_twisted"):
        report = _identity("lemma.gauge_S", name)
        worst = max(worst, report.max_rel)
    ok = worst <= 1e-4
    _line(5, ok, f"d/dt S_chi vs -H_Y, max_rel={worst:.3e} (tol 1e-4)")


def test_criterion_06_dbar_calculus_suite():
    worst = 0.0
    names = ("t3_flat", "t3_twisted", "t3_twisted_shifted", "t5_product", "t5_perturbedJ")
    for name in names:
        scenario = builtin(name)
        for ident in ("dbar.antilinearity", "dbar.commutes_J", "dbar.leibniz", "nijenhuis.bilinear"):
            report = run_identity(REGISTRY_BY_ID[ident], scenario, SEED, POINTS)
            worst = max(worst, report.max_rel)
        if scenario.structure.leafwise_integrable:
            report = run_identity(REGISTRY_BY_ID["dbar.squared"], scenario, SEED, POINTS)
            worst = max(worst, report.max_rel)
    ok = worst <= 1e-9
    _line(6, ok, f"dbar calculus suite max_rel={worst:.3e} (tol 1e-9)")


def test_criterion_07_h_form_suite():
    worst = 0.0
    for name in ("t3_flat", "t3_twisted", "t3_twisted_shifted", "t5_product"):
        scenario = builtin(name)
        for ident in (
            "lemma.dbarH",
            "prop.beth_squared",
            "prop.bethH",
            "prop.change_couple",
            "prop.iso_cohomology",
        ):
            report = run_identity(REGISTRY_BY_ID[ident], scenario, SEED, POINTS)
            worst = max(worst, report.max_rel)
    ok = worst <= 1e-9
    _line(7, ok, f"H-form suite max_rel={worst:.3e} (tol 1e-9)")


def test_criterion_08_s_calculus_suite():
    worst_ntilde = 0.0
    worst_round = 0.0
    for name in ("t5_product", "t5_perturbedJ"):
        worst_ntilde = max(worst_ntilde, _identity("prop.n_ntilde", name).max_rel)
        worst_round = max(worst_round, _identity("scalc.s_roundtrip", name).max_rel)
    quad = _identity("cor.n_jtilde_quadratic", "t5_product")
    ratio = quad.samples[0] / quad.samples[1]
    ok = worst_ntilde <= 1e-8 and worst_round <= 1e-9 and 80.0 <= ratio <= 120.0
    _line(
        8,
        ok,
        f"N-Ntilde max_rel={worst_ntilde:.3e} (tol 1e-8); roundtrip={worst_round:.3e} "
        f"(tol 1e-9); eps^2 ratio={ratio:.1f} in [80, 120]",
    )


def test_criterion_09_deformation_suite():
    worst_bracket = 0.0
    worst_nalpha = 0.0
    for name in ("t3_flat", "t3_twisted", "t3_twisted_shifted", "t5_product"):
        worst_bracket = max(worst_bracket, _identity("lemma.bracket_alpha", name).max_rel)
        worst_nalpha = max(worst_nalpha, _identity("cor.n_alpha", name).max_rel)
    mc = _identity("cor.levi_flat_mc", "family_t3_tilt")
    ok = worst_bracket <= 1e-9 and worst_nalpha <= 1e-8 and mc.max_rel <= 1e-9
    _line(
        9,
        ok,
        f"bracket_alpha={worst_bracket:.3e} (tol 1e-9); N_alpha={worst_nalpha:.3e} "
        f"(tol 1e-8); family MC={mc.max_rel:.3e} (tol 1e-9)",
    )


def test_criterion_10_z_complex_suite():
    # d^1 d^0 = 0 across the built-in structures, 32 seeds total
    worst_dd = 0.0
    for name in ("t3_flat", "t3_twisted", "t3_twisted_shifted", "t5_product"):
        worst_dd = max(worst_dd, _identity("prop.dfrak_squared", name).max_rel)
    worst_witness = max(
        _identity("thm.tangent.witness", n).max_rel
        for n in ("t3_flat", "t3_twisted_shifted")
    )
    worst_tangent = 0.0
    for name in ("family_t3_tilt", "family_t3_Jrotation"):
        worst_tangent = max(worst_tangent, _identity("thm.tangent.eqP1", name).max_rel)
        worst_tangent = max(worst_tangent, _identity("thm.tangent.eqP2", name).max_rel)
    worst_rest = 0.0
    for name in ("t3_flat", "t3_twisted_shifted"):
        for ident in ("lemma.hY_decomposition", "cor.dbar_hY", "cor.phiH"):
            worst_rest = max(worst_rest, _identity(ident, name).max_rel)
    ok = (
        worst_dd <= 1e-9
        and worst_witness <= 1e-9
        and worst_tangent <= 1e-7
        and worst_rest <= 1e-9
    )
    _line(
        10,
        ok,
        f"d.d={worst_dd:.3e} (tol 1e-9); witness={worst_witness:.3e} (tol 1e-9); "
        f"family tangents={worst_tangent:.3e} (tol 1e-7); H_Y/phiH={worst_rest:.3e} (tol 1e-9)",
    )


def test_criterion_11_exactness_witness():
    from leviflat.defcomplex import exactness_witness_check

    scenario = builtin("t3_twisted_shifted")
    s = scenario.structure
    points = sample_points(s.chart, POINTS, stream(SEED, "exact"))
    good, bad = ResidualAccumulator(points), ResidualAccumulator(points)
    for acc, witness in ((good, scenario.exact_witness), (bad, s.frame[1])):
        for lhs, rhs in exactness_witness_check(witness, s):
            acc.add(lhs, rhs)
    ok = good.max_rel <= 1e-9 and bad.max_rel > 1e-3
    _line(
        11,
        ok,
        f"witness sin(y)E1 residual={good.max_rel:.3e} (tol 1e-9); "
        f"wrong witness E2 residual={bad.max_rel:.3e} > 1e-3",
    )


def test_criterion_12_end_to_end(tmp_path):
    started = time.perf_counter()
    config = RunConfig(scenario="t3_flat", suite="all", seed=SEED, points=POINTS)
    status, doc = run(config)
    elapsed = time.perf_counter() - started
    path1 = tmp_path / "r1.json"
    write_report(doc, str(path1))
    status2, doc2 = run(config)
    path2 = tmp_path / "r2.json"
    write_report(doc2, str(path2))
    stable = path1.read_bytes() == path2.read_bytes()
    ok = status == 0 and elapsed <= 60.0 and stable
    _line(
        12,
        ok,
        f"t3_flat --suite all --seed 42: exit={status}, runtime={elapsed:.1f}s (cap 60s), "
        f"byte-stable={stable}, identities={len(doc['results'])}",
    )
