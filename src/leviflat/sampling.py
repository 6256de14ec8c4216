"""Seeded sample points and random trigonometric fields.

One named PRNG stream per (seed, labels...) so that every suite, scenario and
sample index draws from its own reproducible stream.

A builder takes its random coefficients from an allocator through draw.
Drawn hands out constants drawn at once: the fields of one instance.
Parameters hands out parameter leaves and records the draws, so a runner
builds and compiles its fields once and replays the draws once per
instance, from the same stream and in the same order as one build per
instance, and gets each instance's values bit for bit as that build does.
A random choice (the coordinates of a harmonic, a frame vector) is a
one-hot row over every choice: drawn at once, its zeros fold away.  That
is why Drawn stays for a runner of one instance: its trees are smaller
(on t5_product, scalc.s_roundtrip builds 803 nodes through Drawn; a build
over Parameters took 1,187).

A stream is numpy's default_rng(seed) stream, drawn here: PCG64 (XSL-RR
output, O'Neill 2014) seeded through numpy's SeedSequence from a 64-bit
blake2b digest of the labels.  tests/test_sampling.py checks it against
numpy.random.default_rng bit for bit, so a numpy upgrade that changes its
Generator fails that test instead of moving every report, and a run never
loads numpy.random or OpenSSL.
"""

from __future__ import annotations

import math
from _blake2 import blake2b
from itertools import combinations

import numpy as np

from .excalc import DifferentialForm, VectorField, scalar_form
from .symfield import Param, ScalarField, add, const, coord, cos as cos_node, dot, mul, sin as sin_node

TWO_PI = 2.0 * math.pi
_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's hash and mix constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def derive_seed(*parts):
    """Stable 64-bit seed derived from arbitrary labels."""
    h = blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def _hashmix(const, mult):
    """SeedSequence's hashmix: each call mixes one 32-bit word with the next
    running hash constant, starting from const and multiplied by mult."""

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    return hashmix


def _seed_state(seed):
    """numpy's SeedSequence(seed).generate_state(4, np.uint64) for a seed
    in [0, 2**64): the seed's 32-bit words, least significant first, hashed
    into a pool of four, the pool cross-mixed, then eight words drawn out
    and paired low word first."""
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"stream seed {seed} is not in [0, 2**64)")
    hash_a = _hashmix(_INIT_A, _MULT_A)
    entropy = [seed & _MASK32, seed >> 32] if seed >> 32 else [seed]
    pool = [hash_a(word) for word in entropy + [0] * (4 - len(entropy))]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * hash_a(pool[src])) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    hash_b = _hashmix(_INIT_B, _MULT_B)
    words = [hash_b(pool[i % 4]) for i in range(8)]
    return [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]


class Stream:
    """numpy.random.default_rng(seed), for the draws leviflat makes: the
    same values, bit for bit, as Python floats and ints.  The generator is
    PCG64 with XSL-RR output, seeded as numpy's PCG64(SeedSequence(seed))."""

    def __init__(self, seed):
        w0, w1, w2, w3 = _seed_state(seed)
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        # from state 0: step, add the initial state, step again
        self._state = ((self._inc + (w0 << 64 | w1)) * _PCG_MULT + self._inc) & _MASK128
        # the high half of a 64-bit draw, kept for the next 32-bit draw
        self._kept = None

    def _next64(self, count):
        """The next count 64-bit outputs."""
        state, inc = self._state, self._inc
        out = []
        for _ in range(count):
            state = (state * _PCG_MULT + inc) & _MASK128
            x = (state >> 64 ^ state) & _MASK64
            out.append((x << 64 | x) >> (state >> 122) & _MASK64)
        self._state = state
        return out

    def uniform(self, low, high, size=None):
        """Uniform floats in [low, high): one float, or a list of size
        values, or for size (rows, cols) a list of rows, filled in C order."""
        scale = high - low
        if size is None:
            return low + scale * ((self._next64(1)[0] >> 11) * 2.0**-53)
        if isinstance(size, tuple):
            rows, cols = size
            flat = self.uniform(low, high, rows * cols)
            return [flat[i : i + cols] for i in range(0, rows * cols, cols)]
        return [low + scale * ((v >> 11) * 2.0**-53) for v in self._next64(size)]

    def integers(self, low, high):
        """A uniform int in [low, high), high - low <= 2**32: Lemire's method
        on 32-bit draws, each the low half of a fresh 64-bit draw or the
        high half kept from the last one.  One value takes no draw."""
        n = high - low
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers({low}, {high}) needs 1 <= high - low <= 2**32")
        if n == 1:
            return low
        threshold = ((1 << 32) - n) % n
        while True:
            if self._kept is None:
                draw = self._next64(1)[0]
                word, self._kept = draw & _MASK32, draw >> 32
            else:
                word, self._kept = self._kept, None
            m = word * n
            if m & _MASK32 >= threshold:
                return low + (m >> 32)


def stream(*parts):
    return Stream(derive_seed(*parts))


def sample_points(chart, n, rng):
    """n uniform points on the chart's torus, drawn as one (n, dim) block:
    the same stream, in the same order, as n draws of dim values."""
    return [tuple(p) for p in rng.uniform(0.0, TWO_PI, (n, chart.dim))]


class Drawn:
    """Coefficients drawn from rng as a builder asks for them: constants."""

    def __init__(self, rng):
        self.rng = rng

    def draw(self, count, values):
        """The count constants of values(rng), a list of floats."""
        return [const(v) for v in values(self.rng)]


class Parameters:
    """Coefficients as parameter leaves, numbered in the order asked for.
    The draws that give their values are recorded, to be replayed."""

    def __init__(self):
        self.draws = []
        self.count = 0

    def draw(self, count, values):
        """count new parameters, whose values for one instance are
        values(rng), a list of count floats."""
        params = [Param(self.count + k) for k in range(count)]
        self.draws.append(values)
        self.count += count
        return params

    def rows(self, rng, instances):
        """The parameter values of that many instances, an (instances,
        count) array: the recorded draws replayed from rng, instance by
        instance, each in the order it was recorded."""
        rows = [[v for values in self.draws for v in values(rng)] for _ in range(instances)]
        return np.array(rows, dtype=float).reshape(instances, self.count)


def _uniform(amplitude, count):
    return lambda rng: rng.uniform(-amplitude, amplitude, count)


def _harmonic(dim, amplitude, pick):
    """Values of a harmonic's coefficient and of its one-hot selector over
    the dim coordinates: pick(rng) chooses the coordinates, then a uniform
    draw gives the coefficient."""

    def values(rng):
        chosen = pick(rng)
        selector = [0.0] * dim
        for i in chosen:
            selector[i] = 1.0
        return [rng.uniform(-amplitude, amplitude)] + selector

    return values


def random_scalar(chart, draws, amplitude=1.0):
    """Trigonometric polynomial of degree <= 2 per coordinate.

    Coefficients are uniform in [-amplitude, amplitude]; one second harmonic
    cos(2 x_m) and one cross harmonic sin(x_j + x_k), j != k, keep mixed
    second derivatives nontrivial.  A harmonic's argument sums the
    coordinates against a one-hot selector row, so every choice of m, or of
    the unordered pair {j, k}, is one tree; a zero selector entry adds an
    exact zero.  The constant and the first harmonics' coefficients are
    drawn together: one array of 2*dim+1 values takes the same stream, in the
    same order, as that many single draws.
    """
    dim = chart.dim
    first = draws.draw(2 * dim + 1, _uniform(amplitude, 2 * dim + 1))
    # not dot(first, [ONE, *waves]): a drawn constant times ONE would fold
    # into a second Const node
    node = first[0]
    for i in range(dim):
        node = add(node, mul(first[2 * i + 1], sin_node(coord(i))))
        node = add(node, mul(first[2 * i + 2], cos_node(coord(i))))
    second = draws.draw(dim + 1, _harmonic(dim, amplitude, lambda rng: [int(rng.integers(0, dim))]))
    node = add(node, mul(second[0], cos_node(mul(const(2.0), dot(second[1:], map(coord, range(dim)))))))
    if dim >= 2:

        def pair(rng):
            j = int(rng.integers(0, dim))
            k = int(rng.integers(0, dim - 1))
            return [j, k + 1 if k >= j else k]

        cross = draws.draw(dim + 1, _harmonic(dim, amplitude, pair))
        node = add(node, mul(cross[0], sin_node(dot(cross[1:], map(coord, range(dim))))))
    return ScalarField(chart, node)


def random_vector_field(chart, draws, amplitude=1.0):
    return VectorField(chart, [random_scalar(chart, draws, amplitude) for _ in range(chart.dim)])


def random_form(chart, k, draws):
    if k == 0:
        return scalar_form(random_scalar(chart, draws))
    coeffs = {idx: random_scalar(chart, draws) for idx in combinations(range(chart.dim), k)}
    return DifferentialForm(chart, k, coeffs)
