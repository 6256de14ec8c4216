"""Field builders the tests share: a coordinate, the sine and cosine of a
field, and a coordinate vector field.  Each builds the tree the parser
builds for the same expression."""

from leviflat.excalc import VectorField
from leviflat.symfield import ScalarField, coord, cos, sin


def coordinate(chart, name_or_index):
    i = name_or_index if isinstance(name_or_index, int) else chart.index(name_or_index)
    if not 0 <= i < chart.dim:
        raise IndexError(f"coordinate index {i} out of range")
    return ScalarField(chart, coord(i))


def sin_of(f):
    return ScalarField(f.chart, sin(f.node))


def cos_of(f):
    return ScalarField(f.chart, cos(f.node))


def basis_vector(chart, i):
    comps = [0.0] * chart.dim
    comps[i] = 1.0
    return VectorField(chart, comps)
