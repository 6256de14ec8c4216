"""Residual accumulator: scalar broadcasting and merging."""

from leviflat.report import ResidualAccumulator


def test_add_broadcasts_default_rhs_over_sequence():
    v = [1.0, -2.0, 0.5]
    implicit, explicit = ResidualAccumulator(), ResidualAccumulator()
    implicit.add(v)
    explicit.add(v, [0.0] * len(v))
    assert implicit.samples == explicit.samples == [2.0 / 3.0]
    assert implicit.max_abs == explicit.max_abs == 2.0


def test_add_broadcasts_scalar_rhs():
    acc = ResidualAccumulator()
    acc.add([1.0, 3.0], 1.0)
    assert acc.samples == [0.5]
    assert acc.max_abs == 2.0


def test_merge_appends_in_order_and_keeps_max_abs():
    a, b = ResidualAccumulator(), ResidualAccumulator()
    a.add(4.0)
    b.add(1.0)
    b.add([0.0, -9.0])
    a.merge(b)
    assert a.samples == [0.8, 0.5, 0.9]
    assert a.max_abs == 9.0
    assert a.max_rel == 0.9
