"""The seeded streams: leviflat's own PCG64 draws numpy's default_rng values."""

import math

import numpy as np
import pytest

from leviflat.sampling import Stream, derive_seed, stream

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1] + [
    derive_seed(seed, "t5_product", label) for seed in (42, 7) for label in ("points", "jacobi", "S")
]


def _same(got, want):
    # repr prints every float so that it reads back to the same bits
    assert repr(got) == repr(want)


def _draw_like_numpy(rng, ref):
    """Interleave every kind of draw leviflat makes.  Each run of
    integers(0, n) has odd length, so a kept high half is left over when
    the 64-bit draws of uniform come, and the next run must take it first."""
    for n in range(1, 7):
        for _ in range(2 * n - 1):
            got = rng.integers(0, n)
            assert type(got) is int
            _same(got, int(ref.integers(0, n)))
        got = rng.uniform(-0.3, 0.3)
        assert type(got) is float
        _same(got, ref.uniform(-0.3, 0.3))
        _same(rng.uniform(-1.0, 1.0, 2 * n + 1), ref.uniform(-1.0, 1.0, 2 * n + 1).tolist())
        _same(rng.uniform(0.0, 2.0 * math.pi, (n, 3)), ref.uniform(0.0, 2.0 * math.pi, (n, 3)).tolist())


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_is_numpys_default_rng(seed):
    _draw_like_numpy(Stream(seed), np.random.default_rng(seed))


def test_named_stream_is_seeded_by_its_labels():
    _draw_like_numpy(stream(42, "t3_flat", "frob"), np.random.default_rng(derive_seed(42, "t3_flat", "frob")))


def test_draws_outside_numpys_algorithms_are_refused():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match="not in"):
            Stream(seed)
    rng = Stream(0)
    for low, high in ((0, 0), (3, 2), (0, 2**32 + 1)):
        with pytest.raises(ValueError, match="high - low"):
            rng.integers(low, high)
