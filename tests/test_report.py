"""Residual accumulator: symbolic sides, evaluated sides by instance, scalar
broadcasting, recording in order, and non-finite samples."""

import json
import math

import numpy as np
import pytest

from leviflat import leafcx, suites
from leviflat.cli import RunConfig, run
from leviflat.excalc import VectorField, XiValuedForm, one_form
from leviflat.report import ONE_INSTANCE, CheckReport, ResidualAccumulator, instance_batch, shared_floats
from leviflat.scenarios import builtin
from leviflat.suites import REGISTRY, IdentitySpec, run_identity
from leviflat.symfield import constant, torus
from tests.fields import basis_vector, coordinate, sin_of

CHART = torus("x", "y", "t")
POINTS = [(0.5, 1.0, 2.0), (1.5, 0.0, 0.5)]


def constants(*values):
    return [constant(CHART, v) for v in values]


def test_add_broadcasts_default_rhs_over_sequence():
    v = constants(1.0, -2.0, 0.5)
    implicit, explicit = ResidualAccumulator(POINTS[:1]), ResidualAccumulator(POINTS[:1])
    implicit.add(v)
    explicit.add(v, constants(0.0, 0.0, 0.0))
    assert implicit.samples == explicit.samples == [2.0 / 3.0]
    assert implicit.max_abs == explicit.max_abs == 2.0


def test_add_broadcasts_scalar_rhs():
    acc = ResidualAccumulator(POINTS[:1])
    acc.add(constants(1.0, 3.0), 1.0)
    assert acc.samples == [0.5]
    assert acc.max_abs == 2.0


def test_numeric_lhs_is_handed_to_add_instances():
    acc = ResidualAccumulator(POINTS)
    for lhs in (4.0, [1.0, 2.0], np.zeros((1, len(POINTS)))):
        with pytest.raises(TypeError, match="add_instances"):
            acc.add(lhs)
        with pytest.raises(TypeError, match="add_instances"):
            acc.add_each(ONE_INSTANCE, [(lhs, 0.0)])
    assert acc.samples == [] and acc.max_abs == 0.0


def test_record_appends_in_order_and_keeps_max_abs():
    acc = ResidualAccumulator(POINTS)
    acc.add_instances(1, [(np.array([[4.0]]), 0.0)])
    acc.record([0.5, 0.9], 9.0)
    acc.add_instances(1, [(np.array([[0.0], [-1.0]]), 0.0)])
    assert acc.samples == [0.8, 0.5, 0.9, 0.5]
    assert acc.max_abs == 9.0
    assert acc.max_rel == 0.9


def test_symbolic_sides_give_one_sample_per_point():
    """A form is one value per point; a list of vector fields, or a
    XiValuedForm, xi-valued or scalar, matched by frame tuple, is one value
    per entry in turn."""
    x = coordinate(CHART, "x")
    acc = ResidualAccumulator(POINTS).add(one_form(CHART, [sin_of(x), 0.0, 2.0]))
    expected = [max(abs(math.sin(p[0])), 2.0) / (1.0 + max(abs(math.sin(p[0])), 2.0)) for p in POINTS]
    assert acc.samples == expected and acc.max_abs == 2.0

    E = [basis_vector(CHART, i) for i in range(3)]
    acc = ResidualAccumulator(POINTS).add([E[0], E[1].scaled(x)], [E[0], E[1]])
    assert acc.samples[:2] == [0.0, 0.0]
    assert acc.samples[2:] == [abs(p[0] - 1.0) / (1.0 + max(p[0], 1.0)) for p in POINTS]

    lhs = XiValuedForm(1, {(0,): E[0], (1,): E[1]})
    rhs = XiValuedForm(1, {(1,): E[1], (0,): E[2]})
    acc = ResidualAccumulator(POINTS).add(lhs, rhs)
    assert acc.samples == [0.5, 0.5, 0.0, 0.0]

    # a scalar XiValuedForm is one value per entry too
    scalar = XiValuedForm(1, {(0,): x, (1,): x * 0.0})
    acc = ResidualAccumulator(POINTS).add(scalar, XiValuedForm(1, {(1,): x, (0,): x}))
    assert acc.samples == [0.0, 0.0] + [p[0] / (1.0 + p[0]) for p in POINTS]


def test_nan_sample_fails():
    nan = float("nan")
    acc = ResidualAccumulator(POINTS).add_instances(1, [(np.array([[nan, 0.5]]), 0.0)])
    assert math.isnan(acc.samples[0]) and acc.samples[1] == 0.5 / 1.5
    assert math.isnan(acc.max_rel) and math.isnan(acc.max_abs)
    inf_rhs = ResidualAccumulator(POINTS).add_instances(1, [(np.array([[1.0], [2.0]]), np.array([[1.0], [math.inf]]))])
    assert math.isnan(inf_rhs.max_rel)

    def runner(scenario, acc, streams):
        acc.add_instances(1, [(np.array([[0.0, nan, 0.0]]), 0.0)])

    spec = IdentitySpec("diag.nan", "one NaN sample", 1e-9, (), runner)
    report = run_identity(spec, builtin("t3_flat"), 42, 3)
    assert not report.passed and report.error == ""
    assert math.isnan(json.loads(json.dumps(report.to_dict()))["max_rel"])


def test_report_dict_shares_one_float_per_value():
    """shared_floats keeps every sample's bits and makes one float object per
    distinct bit pattern: -0.0 apart from 0.0, NaNs of either sign and
    distinct subnormals apart.  A report's dict holds that list."""
    nan, tiny = float("nan"), 2.0**-1074
    samples = [0.0, -0.0, 1.5, 0.0, nan, 1.5, -nan, tiny, 2 * tiny, -nan, tiny]
    listed = shared_floats(samples)
    assert type(listed) is list and all(type(v) is float for v in listed)
    np.testing.assert_array_equal(np.array(listed).view(np.int64), np.array(samples).view(np.int64))
    shared = [(0, 3), (2, 5), (6, 9), (7, 10)]
    assert all(listed[i] is listed[j] for i, j in shared)
    assert len({id(v) for v in listed}) == len(samples) - len(shared)
    report = CheckReport("s", "i", "a", listed, 1.0, nan, 1e-9, False, 42, "")
    assert report.to_dict()["samples"] is listed
    assert shared_floats([]) == []


def test_add_instances_records_as_one_add_per_instance():
    """K instances recorded at once give the samples and max_abs of K
    separate comparisons, instance by instance and pair by pair, a NaN
    included."""
    K, N = 3, len(POINTS)
    rng = np.random.default_rng(5)
    lhs, rhs = rng.normal(size=(2, K * N)), rng.normal(size=(2, K * N))
    lhs[1, N + 1] = float("nan")
    scalar = rng.normal(size=(1, K * N))
    batched = ResidualAccumulator(POINTS).add_instances(K, [(lhs, rhs), (scalar, 0.0)])
    expected = []
    for k in range(K):
        columns = slice(k * N, (k + 1) * N)
        for a, b in ((lhs[:, columns], rhs[:, columns]), (scalar[:, columns], np.zeros((1, N)))):
            rel = np.abs(a - b) / (1.0 + np.maximum(np.abs(a), np.abs(b)))
            expected += rel.max(axis=0).tolist()
    np.testing.assert_array_equal(batched.samples, expected)
    # instance 1's first pair follows instance 0's two pairs
    assert len(batched.samples) == 2 * K * N and math.isnan(batched.samples[2 * N + 1])
    assert math.isnan(batched.max_abs)
    finite = ResidualAccumulator(POINTS).add_instances(K, [(scalar, 0.0)])
    assert finite.max_abs == np.abs(scalar).max()


def test_instance_batch_is_instance_major():
    rows = np.array([[1.0, 2.0], [3.0, 4.0]])
    batch = instance_batch(POINTS, rows)
    assert batch.tolist() == [[*p, *row] for row in rows.tolist() for p in POINTS]


def test_nan_nijenhuis_component_fails_the_quadratic_scaling(monkeypatch):
    """max |N| keeps a NaN from any field, not only from the first one."""
    nijenhuis = leafcx.nijenhuis
    calls = []

    def second_has_nan(s, V, W, *args):
        N = nijenhuis(s, V, W, *args)
        calls.append(None)
        if len(calls) != 2:
            return N
        return VectorField(N.chart, [*N.components[:-1], constant(N.chart, float("nan"))])

    spec = next(spec for spec in REGISTRY if spec.identity == "cor.n_jtilde_quadratic")
    # the load check evaluates N_J too
    scenario = builtin("t5_product")
    assert run_identity(spec, scenario, 42, 1).passed
    monkeypatch.setattr(leafcx, "nijenhuis", second_has_nan)
    report = run_identity(spec, scenario, 42, 1)
    assert len(calls) > 2
    assert not report.passed and math.isnan(report.max_rel)


def test_runner_error_fails_its_identity_and_the_run_goes_on(monkeypatch):
    """Any exception inside a runner fails that identity, recorded as
    'Type: message'; the other identities still report and the run exits 1."""

    def runner(scenario, acc, streams):
        raise IndexError("list index out of range")

    spec = IdentitySpec("diag.index_error", "raises IndexError", 1e-9, (), runner)
    monkeypatch.setattr(suites, "REGISTRY", [*suites.REGISTRY, spec])
    status, document = run(RunConfig(scenario="t3_flat", suite="diag.*,excalc.d_squared", points=3))
    assert status == 1
    by_id = {r["identity"]: r for r in document["results"]}
    assert by_id.keys() == {"diag.index_error", "excalc.d_squared"}
    assert by_id["diag.index_error"]["error"] == "IndexError: list index out of range"
    assert not by_id["diag.index_error"]["passed"]
    assert by_id["excalc.d_squared"]["passed"]
