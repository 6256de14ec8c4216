"""The benchmark names parts of leviflat, so a rename fails here instead of
in `bench/run.py`: every target that bench/tracer.py wraps must still be
defined in its leviflat module, and every identity id or glob that
bench/workloads.py and bench/expected.json name must still be in the
registry.  These tests read the files under bench/ and change none of them."""

import fnmatch
import importlib
import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from leviflat import flows
from tests.fields import basis_vector
from leviflat.scenarios import builtin
from leviflat.suites import CONDITIONS, REGISTRY

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")
IDS = {spec.identity for spec in REGISTRY}


def _bench_module(name):
    spec = importlib.util.spec_from_file_location("bench_" + name, os.path.join(BENCH, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


TARGETS = sorted(target for targets, _ in _bench_module("tracer").LAYERS.values() for target in targets)
WORKLOADS = _bench_module("workloads")


@pytest.mark.parametrize("target", TARGETS)
def test_tracer_target_is_defined_in_its_module(target):
    modname, _, attr = target.partition(".")
    module = importlib.import_module("leviflat." + modname)
    owner, _, method = attr.partition(".")
    obj = getattr(module, owner)
    assert obj.__module__ == module.__name__
    if method:
        assert method in vars(obj)


def test_point_evaluator_defines_init():
    # the tracer counts RK4 stages by wrapping PointEvaluator.__init__
    from leviflat.symfield import PointEvaluator

    assert "__init__" in vars(PointEvaluator)


def test_each_rk4_step_builds_four_evaluators(monkeypatch):
    """The tracer counts an RK4 step as four PointEvaluators built directly
    inside integrate_flow: one time for the batch, one time per point, and
    the trajectory without the Jacobian each build 4 per step."""
    built = []

    class Counting(flows.PointEvaluator):
        def __init__(self, *args):
            built.append(args[1])
            super().__init__(*args)

    monkeypatch.setattr(flows, "PointEvaluator", Counting)
    E_X = basis_vector(builtin("t3_flat").structure.chart, 0)
    points = np.array([(0.2, 0.3, 0.4), (1.0, 2.0, 3.0)])
    cases = (
        (0.35, 0.05, True, 7),
        (0.0, 1e-3, True, 0),
        (-0.1, 0.03, True, 4),
        (np.array([0.35, -0.2]), 0.05, True, 7),
        (np.array([0.1, -0.1]), 0.03, False, 4),
        (0.35, 0.05, False, 7),
    )
    for t, h, jacobian, steps in cases:
        built.clear()
        flows.integrate_flow(E_X, t, points, h=h, jacobian=jacobian)
        assert len(built) == 4 * steps
        assert all(len(x) == 2 for x in built)


def test_t5_identities_are_registry_ids():
    assert set(WORKLOADS.T5_IDENTITIES) <= IDS


def test_expected_identities_are_registry_ids():
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        expected = json.load(fh)
    named = {
        identity
        for scenarios in expected["workloads"].values()
        for entry in scenarios.values()
        for identity in entry["identities"]
    }
    assert len(named) >= 51
    assert named <= IDS


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_each_workload_glob_matches_an_identity(name):
    # select_identities rejects a glob that matches nothing
    suite = WORKLOADS.WORKLOADS[name].suite
    globs = [] if suite == "all" else suite.split(",")
    assert all(any(fnmatch.fnmatchcase(i, pat) for i in IDS) for pat in globs)


def test_identity_needs_name_conditions():
    assert {name for spec in REGISTRY for name in spec.needs} <= set(CONDITIONS)
