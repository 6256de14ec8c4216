"""The traced benchmark wraps functions by name: every target that
bench/tracer.py lists must still be defined in its leviflat module, so a
rename fails here instead of in `bench/run.py --trace 1`."""

import importlib
import importlib.util
import os

import pytest

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
