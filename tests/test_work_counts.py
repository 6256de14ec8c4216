"""Work counts of a few bracket-heavy identities, pinned as upper bounds.

Reports alone do not show wrapper churn or a derivative that recurses into
subtrees without the coordinate: both leave every value the same and only
cost time.  These counts do show them, without a benchmark run.
"""

from __future__ import annotations

from leviflat import flows
from leviflat import symfield as sf
from leviflat.scenarios import builtin
from leviflat.suites import REGISTRY, run_identity

IDENTITIES = ("excalc.d_squared", "dgla.jacobi", "dbar.squared", "nijenhuis.bilinear")

# Counts on t5_product at 1 point and seed 42, from a fresh interpreter
# (warm derivative and sin/cos/exp caches only lower them).  The parent of
# the bare-node carriers, support masks and creation-order tapes counted
# 61,655 ScalarFields, 100,577 _diff executions, 73,778 nodes and 54,323
# tape instructions.  Building each runner's fields once over parameters,
# instead of once per instance, took them from 17,609 ScalarFields, 39,585
# _diff executions, 73,662 nodes, 54,323 tape instructions and 33 tapes.
MAX_COUNTS = {
    "ScalarField constructions": 3_933,
    "Node._diff executions": 13_478,
    "nodes built": 22_133,
    "tape instructions": 16_465,
    "tapes compiled": 8,
}


def test_bracket_heavy_identities_do_no_more_work(monkeypatch):
    scenario = builtin("t5_product")
    specs = [spec for spec in REGISTRY if spec.identity in IDENTITIES]
    assert len(specs) == len(IDENTITIES)
    counts = dict.fromkeys(MAX_COUNTS, 0)

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        sf.ScalarField, "__init__", counted("ScalarField constructions", sf.ScalarField.__init__)
    )
    for cls in (sf.Const, sf.Coord, sf.Param, sf.Add, sf.Sub, sf.Mul, sf.Div, sf.Neg, sf.Pow, sf.Sin, sf.Cos, sf.Exp):
        monkeypatch.setattr(cls, "_diff", counted("Node._diff executions", cls._diff))
    compile_ = sf.Tape._compile

    def compiled(tape):
        program = compile_(tape)
        counts["tapes compiled"] += 1
        counts["tape instructions"] += len(program[3])
        return program

    monkeypatch.setattr(sf.Tape, "_compile", compiled)
    first = next(sf._SERIAL)
    for spec in specs:
        report = run_identity(spec, scenario, 42, 1)
        assert report.passed, report
    counts["nodes built"] = next(sf._SERIAL) - first - 1
    for name, bound in MAX_COUNTS.items():
        assert counts[name] <= bound, name
    assert counts["tape instructions"] > 0


# Tapes compiled by one run of each identity at 1 point and seed 42.  Each
# runner hands every pair of its instance set over in one call, which
# compiles one tape; an add per pair compiled 5, 2, 2, 2 and 6.
MAX_TAPES = {
    ("cor.levi_flat_mc", "family_t3_Jrotation"): 1,
    ("lemma.exact.witness", "t3_twisted_shifted"): 1,
    ("lemma.exact.transport", "t3_twisted_shifted"): 1,
    ("prop.iso_cohomology", "t3_twisted_shifted"): 1,
    ("remark.ixdgamma01_closed", "t5_product"): 1,
}


def test_one_hand_over_compiles_one_tape(monkeypatch):
    specs = {spec.identity: spec for spec in REGISTRY}
    compile_ = sf.Tape._compile
    count = [0]

    def compiled(tape):
        count[0] += 1
        return compile_(tape)

    monkeypatch.setattr(sf.Tape, "_compile", compiled)
    for (identity, name), bound in MAX_TAPES.items():
        # the load check compiles tapes of its own
        scenario = builtin(name)
        count[0] = 0
        report = run_identity(specs[identity], scenario, 42, 1)
        assert report.passed and len(report.samples) > 0, report
        assert 0 < count[0] <= bound, (identity, count[0])


# (ScalarField constructions, nodes built) of each S-calculus identity on
# t5_product at 1 point and seed 42, run in this order from a fresh
# interpreter.  The matrix layer builds on bare nodes and wraps each entry
# once; with ScalarField arithmetic it made 1,586, 1,829, 1,835 and 1,880
# ScalarFields, and the node bounds are the nodes it built.
MATRIX_COUNTS = {
    "scalc.s_roundtrip": (262, 803),
    "prop.n_ntilde": (1_103, 5_977),
    "cor.n_jtilde_identity": (1_109, 6_034),
    "cor.n_jtilde_quadratic": (1_220, 588),
}


def test_matrix_layer_wraps_each_entry_once(monkeypatch):
    scenario = builtin("t5_product")
    specs = {spec.identity: spec for spec in REGISTRY}
    fields = [0]
    init = sf.ScalarField.__init__

    def counted(*args):
        fields[0] += 1
        init(*args)

    monkeypatch.setattr(sf.ScalarField, "__init__", counted)
    for identity, (max_fields, max_nodes) in MATRIX_COUNTS.items():
        fields[0] = 0
        first = next(sf._SERIAL)
        report = run_identity(specs[identity], scenario, 42, 1)
        nodes = next(sf._SERIAL) - first - 1
        assert report.passed, report
        assert fields[0] <= max_fields and nodes <= max_nodes, (identity, fields[0], nodes)


# RK4 steps of each flow identity on t3_twisted at 2 points and seed 42: the
# PointEvaluators built inside integrate_flow, four per step.  The parent of
# DEFAULT_STEP = 5e-3 took 141 and 50 at its step of 1e-3.
MAX_RK4_STEPS = {
    "flow.group_law": 30,
    "remark.gauge_mc": 10,
}


def test_flow_identities_take_the_steps_of_default_step(monkeypatch):
    scenario = builtin("t3_twisted")
    specs = {spec.identity: spec for spec in REGISTRY}
    built = [0]
    inside = [False]
    integrate = flows.integrate_flow

    class Counting(flows.PointEvaluator):
        def __init__(self, *args):
            built[0] += inside[0]
            super().__init__(*args)

    def flagged(*args, **kwargs):
        inside[0] = True
        try:
            return integrate(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(flows, "PointEvaluator", Counting)
    monkeypatch.setattr(flows, "integrate_flow", flagged)
    for identity, bound in MAX_RK4_STEPS.items():
        built[0] = 0
        report = run_identity(specs[identity], scenario, 42, 2)
        assert report.passed, report
        assert built[0] % 4 == 0 and 0 < built[0] // 4 <= bound, (identity, built[0])
