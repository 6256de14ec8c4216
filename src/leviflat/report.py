"""Residual bookkeeping and per-identity check reports.

Artifact-wide residual convention: for an identity LHS = RHS the residual is
max over the sample set of |LHS - RHS| / (1 + max(|LHS|, |RHS|)), taken
componentwise for vector and form values.  A NaN or an infinity on either
side makes its sample NaN, and a NaN sample fails its identity.

ResidualAccumulator is the only code that compares a residual pair.
Runners and residual helpers hand add their two symbolic sides, or hand
add_each the symbolic pairs built over parameters with one row of parameter
values per instance; sides they evaluated themselves, on an instance_batch or
as one instance, go to add_instances as (components, count*N) arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .excalc import DifferentialForm, VectorField, XiValuedForm, form_components
from .symfield import PointEvaluator, ScalarField, Tape

# The parameter values of one instance of fields without parameters.
ONE_INSTANCE = np.zeros((1, 0))

# Samples, points times instances, that one tape run of add_each evaluates
# at most: instances batch up to it, which bounds the registers' memory.
BATCH_SAMPLES = 1024


def _is_value(x):
    """A symbolic value: a form, a vector field or a list of ScalarField
    components."""
    return isinstance(x, (DifferentialForm, VectorField)) or (
        type(x) is list and bool(x) and isinstance(x[0], ScalarField)
    )


def _values(side):
    """A side as a list of its values, or None for a numeric side: a list of
    values is itself, any other value a list of one."""
    if type(side) is list and side and _is_value(side[0]):
        return side
    return [side] if _is_value(side) else None


def _entry(value):
    """A XiValuedForm's value as a residual value: a scalar one becomes a
    list of one ScalarField."""
    return [value] if isinstance(value, ScalarField) else value


def _fields(value):
    if isinstance(value, VectorField):
        return value.components
    if isinstance(value, DifferentialForm):
        return value.coeffs.values()
    return value


def _chart(value):
    return (value[0] if type(value) is list else value).chart


def instance_batch(points, rows):
    """The points once per instance, each followed by its instance's
    parameter row: a K*N batch of points that carry their parameters."""
    pts = np.asarray(points, dtype=float)
    return np.hstack([np.tile(pts, (len(rows), 1)), np.repeat(rows, len(pts), axis=0)])


def _instance(side, k, count):
    """Instance k's columns of a side evaluated for count instances."""
    if isinstance(side, np.ndarray):
        n = side.shape[-1] // count
        return side[..., k * n : (k + 1) * n]
    return side


def _value_pairs(lhs, rhs):
    """The (lhs, rhs) values of a pair of symbolic sides; rhs may also be a
    number, compared with every component."""
    if isinstance(rhs, XiValuedForm):
        keys = (lhs if isinstance(lhs, XiValuedForm) else rhs).values
        rhs = [_entry(rhs.values[k]) for k in keys]
    if isinstance(lhs, XiValuedForm):
        lhs = [_entry(v) for v in lhs.values.values()]
    lhs_values = _values(lhs)
    if lhs_values is None:
        raise TypeError(f"lhs of type {type(lhs).__name__} is not symbolic: hand evaluated sides to add_instances")
    rhs_values = _values(rhs) or [rhs] * len(lhs_values)
    return list(zip(lhs_values, rhs_values, strict=True))


def _numeric(value, points, ev):
    """A value's components at the points as a (components, N) array; a
    number stays a number."""
    if isinstance(value, VectorField):
        return value.at(points, ev)
    if isinstance(value, DifferentialForm):
        return form_components(value, ev)
    if _is_value(value):
        return np.array([ev(f) for f in value])
    return value


class ResidualAccumulator:
    """Collects the per-sample residuals of LHS = RHS pairs evaluated at its
    sample points."""

    def __init__(self, points):
        self.points = points
        self.samples = []
        self.max_abs = 0.0

    def add(self, lhs, rhs=0.0):
        """Record samples of lhs = rhs; returns the accumulator.

        A symbolic side is a DifferentialForm, a VectorField or a list of
        ScalarFields (one value each), or a XiValuedForm, xi-valued or
        scalar, or a list of the other values (one value per entry).  The
        values of lhs are paired in turn with those of rhs, matched by frame
        tuple between two XiValuedForms; a number rhs is compared with
        every component.
        Every field of the pair is evaluated at the accumulator's points
        through one PointEvaluator, and each pair of values gives one sample
        per point.  A numeric lhs is a TypeError: evaluated sides go to
        add_instances.
        """
        return self._add_values(ONE_INSTANCE, _value_pairs(lhs, rhs))

    def add_each(self, rows, pairs):
        """Record the samples of every symbolic (lhs, rhs) pair, as add
        does, for each row of parameter values in turn: instance by
        instance, and pair by pair within an instance.  Every field of the
        pairs is compiled into one tape, which runs on up to BATCH_SAMPLES
        samples of the instances at a time."""
        return self._add_values(rows, [p for lhs, rhs in pairs for p in _value_pairs(lhs, rhs)])

    def _add_values(self, rows, pairs):
        values = [v for pair in pairs for v in pair if _is_value(v)]
        chart = _chart(values[0])
        tape = Tape(f.node for v in values for f in _fields(v))
        step = max(1, BATCH_SAMPLES // max(1, len(self.points)))
        for start in range(0, len(rows), step):
            batch = rows[start : start + step]
            ev = PointEvaluator(chart, self.points, tape, batch)
            self.add_instances(len(batch), [[_numeric(v, self.points, ev) for v in pair] for pair in pairs])
        return self

    def add_instances(self, count, pairs):
        """Record numeric (lhs, rhs) pairs evaluated for count instances at
        once, instance by instance and pair by pair within an instance.  A
        side is a (components, count*N) array, instance-major as in an
        instance_batch, or a number compared with every component."""
        for k in range(count):
            for lhs, rhs in pairs:
                self._compare(_instance(lhs, k, count), _instance(rhs, k, count))
        return self

    def _compare(self, lhs, rhs):
        with np.errstate(invalid="ignore"):
            dev = np.abs(lhs - rhs)
            rel = dev / (1.0 + np.maximum(np.abs(lhs), np.abs(rhs)))
        # np.max, unlike np.fmax, keeps a NaN
        return self.record(
            np.max(rel, axis=0, initial=0.0).tolist(), np.max(dev, axis=None, initial=0.0)
        )

    def record(self, samples, max_abs):
        """Append samples and raise max_abs to at least the given value,
        keeping a NaN from either.  Runners whose samples are statistics of
        their own, not LHS = RHS pairs, record them here."""
        self.samples += samples
        self.max_abs = float(np.maximum(self.max_abs, max_abs))
        return self

    @property
    def max_rel(self):
        return float(np.max(self.samples, initial=0.0))


def shared_floats(samples):
    """samples as a list of floats in which samples of equal bits are one
    float object, so -0.0 stays apart from 0.0 and each NaN keeps its bits.
    Most residuals are exact zeros (38,090 of the 59,907 samples of
    t5_product at 200 points), so a report's list holds one float per
    distinct value, not one per sample."""
    samples = np.asarray(samples, dtype=float)
    shared = {}
    return [shared.setdefault(b, v) for b, v in zip(samples.view(np.int64).tolist(), samples.tolist())]


@dataclass
class CheckReport:
    """Residual statistics for one identity on one scenario.

    samples lists the per-sample residuals in the order they were recorded,
    a NaN sample included, as shared_floats makes them."""

    suite: str
    identity: str
    anchor: str
    samples: list
    max_abs: float
    max_rel: float
    tolerance: float
    passed: bool
    seed: int
    error: str

    def to_dict(self):
        """The report as plain JSON values."""
        out = dict(vars(self))
        if not self.error:
            del out["error"]
        return out
