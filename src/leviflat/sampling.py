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
"""

from __future__ import annotations

import hashlib
import math
from itertools import combinations

import numpy as np

from .excalc import DifferentialForm, VectorField, scalar_form
from .symfield import Param, ScalarField, add, const, coord, cos as cos_node, dot, mul, sin as sin_node

TWO_PI = 2.0 * math.pi


def derive_seed(*parts):
    """Stable 64-bit seed derived from arbitrary labels."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "big")


def stream(*parts):
    return np.random.default_rng(derive_seed(*parts))


def sample_points(chart, n, rng):
    """n uniform points on the chart's torus, drawn as one (n, dim) array:
    the same stream, in the same order, as n draws of dim values."""
    return [tuple(p) for p in rng.uniform(0.0, TWO_PI, (n, chart.dim)).tolist()]


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
    return lambda rng: rng.uniform(-amplitude, amplitude, count).tolist()


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
