"""Residual-based verification of exterior calculus, codimension-1 foliation
DGLA structure, and leafwise complex-structure identities on explicit torus
scenarios."""

from .symfield import Chart, ScalarField, parse_expr, torus
from .excalc import (
    DifferentialForm,
    VectorField,
    XiValuedForm,
    evaluate_form,
    exterior_derivative,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    wedge,
)
from .foliation_dgla import (
    DefiningCouple,
    dgla_bracket,
    delta,
    leafwise_d,
    mc_residual,
    omega_alpha,
    z_membership_residual,
)
from .leafcx import LeviFlatStructure
from .report import CheckReport
from .scenarios import Scenario, builtin

__version__ = "0.1.0"

__all__ = [
    "Chart",
    "CheckReport",
    "DefiningCouple",
    "DifferentialForm",
    "LeviFlatStructure",
    "Scenario",
    "ScalarField",
    "VectorField",
    "XiValuedForm",
    "builtin",
    "delta",
    "dgla_bracket",
    "evaluate_form",
    "exterior_derivative",
    "interior_product",
    "leafwise_d",
    "lie_bracket",
    "lie_derivative_form",
    "mc_residual",
    "omega_alpha",
    "parse_expr",
    "torus",
    "wedge",
    "z_membership_residual",
]
