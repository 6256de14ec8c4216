"""Seeded sample points and random trigonometric fields.

One named PRNG stream per (seed, labels...) so that every suite, scenario and
sample index draws from its own reproducible stream.
"""

from __future__ import annotations

import hashlib
import math
from itertools import combinations

import numpy as np

from .excalc import DifferentialForm, VectorField, scalar_form
from .symfield import ScalarField, const, coord, cos as cos_node, sin as sin_node, add, mul

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


def random_scalar(chart, rng, amplitude=1.0):
    """Trigonometric polynomial of degree <= 2 per coordinate.

    Coefficients are uniform in [-amplitude, amplitude]; one second harmonic
    and one cross harmonic keep mixed second derivatives nontrivial without
    bloating the expression tree.  The constant and the first harmonics'
    coefficients are drawn together: one array of 2*dim+1 values takes the
    same stream, in the same order, as that many single draws.
    """
    coeff = lambda: rng.uniform(-amplitude, amplitude)
    first = rng.uniform(-amplitude, amplitude, 2 * chart.dim + 1).tolist()
    node = const(first[0])
    for i in range(chart.dim):
        node = add(node, mul(const(first[2 * i + 1]), sin_node(coord(i))))
        node = add(node, mul(const(first[2 * i + 2]), cos_node(coord(i))))
    m = int(rng.integers(0, chart.dim))
    node = add(node, mul(const(coeff()), cos_node(mul(const(2.0), coord(m)))))
    if chart.dim >= 2:
        j = int(rng.integers(0, chart.dim))
        k = int(rng.integers(0, chart.dim - 1))
        if k >= j:
            k += 1
        node = add(node, mul(const(coeff()), sin_node(add(coord(j), coord(k)))))
    return ScalarField(chart, node)


def random_vector_field(chart, rng, amplitude=1.0):
    return VectorField(chart, [random_scalar(chart, rng, amplitude) for _ in range(chart.dim)])


def random_form(chart, k, rng):
    if k == 0:
        return scalar_form(random_scalar(chart, rng))
    coeffs = {idx: random_scalar(chart, rng) for idx in combinations(range(chart.dim), k)}
    return DifferentialForm(chart, k, coeffs)
