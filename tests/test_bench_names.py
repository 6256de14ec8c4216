"""The traced benchmark wraps functions by name: every target that
bench/tracer.py lists must still be defined in its leviflat module, so a
rename fails here instead of in `bench/run.py --trace 1`."""

import importlib
import importlib.util
import os

import numpy as np
import pytest

from leviflat import flows
from leviflat.excalc import basis_vector
from leviflat.scenarios import builtin

TRACER = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "tracer.py")


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


TARGETS = sorted(target for targets, _ in _layers().values() for target in targets)


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
