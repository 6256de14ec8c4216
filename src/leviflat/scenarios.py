"""Built-in structures, couples and deformation families with hand-verified
properties, plus the scenario file loader used by the CLI."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import LeviFlatError, ScenarioError
from .defcomplex import CochainPair
from .excalc import (
    DifferentialForm,
    VectorField,
    XiValuedForm,
    basis_vector,
    one_form,
    zero_vector,
)
from .foliation_dgla import DefiningCouple
from .leafcx import DET_GUARD, LeviFlatStructure, change_couple, xi_form_from_matrix
from .sampling import sample_points, stream
from .symfield import (
    Chart,
    constant,
    coordinate,
    cos_of,
    first_flagged,
    fix_coordinate,
    parse_expr,
    sin_of,
    torus,
)

TWIST = 0.3
FAMILY_PARAMETER = "s"


@dataclass
class DeformationFamily:
    """Family t -> (alpha_t, S_t) held symbolically in an extra coordinate,
    so values and the tangent at 0 are exact.  A family without S entries
    has S = 0."""

    chart_ext: Chart
    alpha_coeffs: dict
    S_entries: list | None = None

    def _pair(self, s, fix):
        """The degree-1 CochainPair on the structure s from fix applied to
        each alpha coefficient, then to each S entry."""
        alpha = DifferentialForm(s.chart, 1, {idx: fix(f) for idx, f in self.alpha_coeffs.items()})
        if self.S_entries is None:
            P = XiValuedForm(1, {(i,): zero_vector(s.chart) for i in range(s.n_leaf)})
        else:
            P = xi_form_from_matrix(s, [[fix(f) for f in row] for row in self.S_entries])
        return CochainPair(alpha, P)

    def at(self, s, t):
        """(alpha_t, S_t) on the structure s."""
        i = self.chart_ext.dim - 1
        return self._pair(s, lambda f: fix_coordinate(f, i, t))

    def tangent(self, s):
        """The tangent at t = 0, (d/dt alpha_t, d/dt S_t) at 0, on the
        structure s."""
        i = self.chart_ext.dim - 1
        return self._pair(s, lambda f: fix_coordinate(f.diff(i), i, 0.0))


@dataclass
class Scenario:
    """A named structure plus an optional deformation family, exactness
    witness and quadratic test matrix S0.  foliation_integrable is measured
    by check, not declared."""

    name: str
    structure: LeviFlatStructure
    family: DeformationFamily | None = None
    exact_witness: VectorField | None = None
    quadratic_S0: list | None = None
    foliation_integrable: bool = field(default=False, init=False)


# The load check's probe: the origin, where coordinate-aligned degeneracies
# such as a frame vector sin(x) d/dy vanish, and fixed seeded points, so the
# identities a scenario selects do not depend on --seed or --points.
PROBE = 16
# A residual counts as zero at or below this; NaN never does.
INVARIANT_TOL = 1e-9


def check(scenario, where):
    """The load check every scenario passes: measure the structure's
    invariants on the probe, reject a scenario that does not define a
    structure (a non-finite invariant, gamma(X) != 1, a failed coframe
    duality, J^2 != -I, a near-singular (frame | X) or one whose determinant
    changes sign, so vanishes somewhere on the connected torus), and set the
    two measured flags that narrow the identities it runs."""
    s = scenario.structure
    try:
        probe = [(0.0,) * s.chart.dim] + sample_points(s.chart, PROBE - 1, stream("probe"))
        inv = s.invariants(probe)
        dets = np.linalg.det(s.basis_matrix_at(probe))
    except LeviFlatError as exc:
        raise ScenarioError(f"{where}: evaluating the structure on the probe points: {exc}") from None
    inv["frame_determinant"] = float(np.abs(dets).min())
    for key, value in inv.items():
        if not np.isfinite(value):
            raise ScenarioError(f"{where}: non-finite invariant {key} = {value} on the probe points")
    problems = [
        f"{key} = {inv[key]:.3e}"
        for key in ("gamma_X", "coframe_duality", "J_squared")
        if not inv[key] <= INVARIANT_TOL
    ]
    if inv["frame_determinant"] < DET_GUARD:
        problems.append(f"frame_determinant = {inv['frame_determinant']:.3e}")
    pos, neg = first_flagged(dets > 0), first_flagged(dets < 0)
    if pos is not None and neg is not None:
        problems.append(
            "det(frame | X) changes sign: "
            f"{dets[pos]:.3e} at {_point(probe[pos])}, {dets[neg]:.3e} at {_point(probe[neg])}"
        )
    if problems:
        raise ScenarioError(f"{where}: not a Levi flat structure: {', '.join(problems)}")
    scenario.foliation_integrable = all(
        inv[key] <= INVARIANT_TOL
        for key in ("gamma_frame", "frobenius_iii", "frobenius_iv", "frobenius_v")
    )
    if inv["nijenhuis"] <= INVARIANT_TOL:
        scenario.structure = replace(s, leafwise_integrable=True)
    return scenario


def _point(p):
    return "(" + ", ".join(f"{v:.4f}" for v in p) + ")"


_J2 = ((0.0, -1.0), (1.0, 0.0))


def _t3_chart():
    return torus("x", "y", "t")


def _t3_flat_structure():
    chart = _t3_chart()
    gamma = one_form(chart, [0.0, 0.0, 1.0])
    X = basis_vector(chart, 2)
    frame = (basis_vector(chart, 0), basis_vector(chart, 1))
    return LeviFlatStructure.build(chart, DefiningCouple(gamma, X), frame, _J2)


def _t3_twisted_structure():
    chart = _t3_chart()
    t = coordinate(chart, "t")
    gamma = DifferentialForm(chart, 1, {(0,): TWIST * cos_of(t), (2,): 1.0})
    X = basis_vector(chart, 2)
    E1 = VectorField(chart, [constant(chart, 1.0), constant(chart, 0.0), -TWIST * cos_of(t)])
    E2 = basis_vector(chart, 1)
    return LeviFlatStructure.build(chart, DefiningCouple(gamma, X), (E1, E2), _J2)


def _t3_twisted_shifted(name):
    """The twisted couple with X shifted to X + U, U = sin(y) E1, which is
    the scenario's exactness witness."""
    base = _t3_twisted_structure()
    U = base.frame[0].scaled(sin_of(coordinate(base.chart, "y")))
    return Scenario(name, change_couple(base, constant(base.chart, 0.0), U), exact_witness=U)


def _t5_chart():
    return torus("x1", "x2", "x3", "x4", "t")


_J4 = (
    (0.0, -1.0, 0.0, 0.0),
    (1.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, -1.0),
    (0.0, 0.0, 1.0, 0.0),
)


def _t5_product_structure():
    chart = _t5_chart()
    gamma = one_form(chart, [0.0, 0.0, 0.0, 0.0, 1.0])
    X = basis_vector(chart, 4)
    frame = tuple(basis_vector(chart, i) for i in range(4))
    return LeviFlatStructure.build(chart, DefiningCouple(gamma, X), frame, _J4)


def _t5_perturbedJ_structure():
    base = _t5_product_structure()
    chart = base.chart
    nu = sin_of(coordinate(chart, "x1"))
    zero = constant(chart, 0.0)
    one = constant(chart, 1.0)
    # conjugation of the block J by I + nu*E with E nilpotent (E E4 = E1):
    # J' E3 = E4 + nu E1, J' E4 = -E3 - nu E2, J'^2 = -I exactly.
    Jmat = (
        (zero, -one, nu, zero),
        (one, zero, zero, -nu),
        (zero, zero, zero, -one),
        (zero, zero, one, zero),
    )
    return base.with_J(Jmat)


def _family_tilt():
    chart_ext = _t3_chart().extend(FAMILY_PARAMETER)
    s = coordinate(chart_ext, FAMILY_PARAMETER)
    return DeformationFamily(
        chart_ext=chart_ext,
        alpha_coeffs={(0,): 0.7 * s, (1,): -0.4 * s},
    )


def _family_jrotation():
    chart_ext = _t3_chart().extend(FAMILY_PARAMETER)
    s = coordinate(chart_ext, FAMILY_PARAMETER)
    p, q = 0.6, -0.35
    zero_alpha = {}
    entries = [
        [p * s, q * s],
        [q * s, (-p) * s],
    ]
    return DeformationFamily(
        chart_ext=chart_ext,
        alpha_coeffs=zero_alpha,
        S_entries=entries,
    )


def _broken_structure():
    chart = _t3_chart()
    x = coordinate(chart, "x")
    gamma = DifferentialForm(chart, 1, {(1,): x, (2,): 1.0})
    X = basis_vector(chart, 2)
    frame = (basis_vector(chart, 0), basis_vector(chart, 1))
    return LeviFlatStructure.build(chart, DefiningCouple(gamma, X), frame, _J2)


def _quadratic_S0(structure):
    """Nonconstant dbar-closed anticommuting S0 on the product 5-torus with
    [S0, S0] != 0: the remainder of the conjugated-J integrability equation
    is then genuinely quadratic in the scaling of S0."""
    chart = structure.chart
    phi = cos_of(coordinate(chart, "x1"))
    psi = cos_of(coordinate(chart, "x3"))
    zero = constant(chart, 0.0)
    entries = [
        [zero, zero, psi, zero],
        [zero, zero, zero, -psi],
        [phi, zero, zero, zero],
        [zero, -phi, zero, zero],
    ]
    return entries


def _t5_product(name):
    structure = _t5_product_structure()
    return Scenario(name, structure, quadratic_S0=_quadratic_S0(structure))


# name -> constructor, in the order the CLI help lists the built-ins
_BUILTINS = {
    "t3_flat": lambda name: Scenario(name, _t3_flat_structure()),
    "t3_twisted": lambda name: Scenario(name, _t3_twisted_structure()),
    "t3_twisted_shifted": _t3_twisted_shifted,
    "t5_product": _t5_product,
    "t5_perturbedJ": lambda name: Scenario(name, _t5_perturbedJ_structure()),
    "family_t3_tilt": lambda name: Scenario(name, _t3_flat_structure(), family=_family_tilt()),
    "family_t3_Jrotation": lambda name: Scenario(
        name, _t3_flat_structure(), family=_family_jrotation()
    ),
    "broken_nonintegrable": lambda name: Scenario(name, _broken_structure()),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin(name):
    """Construct a built-in scenario by name, through the load check."""
    if name not in _BUILTINS:
        raise ScenarioError(f"unknown scenario {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}")
    return check(_BUILTINS[name](name), name)


def resolve(name_or_path):
    """Built-in name, or a path to a scenario file."""
    if name_or_path in BUILTIN_NAMES:
        return builtin(name_or_path)
    if os.path.exists(str(name_or_path)):
        return load_scenario_file(name_or_path)
    raise ScenarioError(f"unknown scenario {name_or_path!r}")


# --------------------------------------------------------------------------
# Scenario files
# --------------------------------------------------------------------------


def _parse_sections(text, path):
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = (line[1:-1].strip(), [])
            sections.append(current)
            continue
        if current is None or "=" not in line:
            raise ScenarioError(f"{path}:{lineno}: expected 'key = value' inside a section")
        key, value = line.split("=", 1)
        current[1].append((key.strip(), value.strip(), lineno))
    return sections


def load_scenario_file(path):
    """Load a scenario from a sectioned text file.

    Sections: [scenario] (optional name), [chart], [gamma], [X],
    [frame <name>] (one per frame vector, in order), [J] (row = e1, e2, ...),
    [family <name>.alpha] and [family <name>.S] (one family a file, each
    section at most once; expressions may use the extra parameter 's').
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read scenario file: {exc}") from None
    sections = _parse_sections(text, path)
    by_name = {}
    frames = []
    families = {}
    for name, entries in sections:
        if name.startswith("frame"):
            frames.append((name, entries))
            continue
        table = families if name.startswith("family") else by_name
        if name in table:
            raise ScenarioError(f"{path}: duplicate section [{name}]")
        table[name] = entries

    if "chart" not in by_name:
        raise ScenarioError(f"{path}: missing [chart] section")
    chart_kv = {k: (v, lineno) for k, v, lineno in by_name["chart"]}
    if "names" not in chart_kv:
        raise ScenarioError(f"{path}: [chart] needs 'names'")
    names_text, names_line = chart_kv["names"]
    names = tuple(names_text.split())
    flags_text, flags_line = chart_kv.get("periodic", ("1 " * len(names), names_line))
    try:
        periodic = tuple(bool(int(tok)) for tok in flags_text.split())
    except ValueError:
        raise ScenarioError(f"{path}:{flags_line}: periodic flags must be integers") from None
    if len(periodic) != len(names):
        raise ScenarioError(
            f"{path}:{flags_line}: {len(periodic)} periodic flags for {len(names)} coordinates"
        )
    try:
        chart = Chart(names, periodic)
    except ValueError as exc:
        raise ScenarioError(f"{path}:{names_line}: {exc}") from None

    def parse(text, lineno, on=chart):
        try:
            return parse_expr(text, on)
        except LeviFlatError as exc:
            raise ScenarioError(f"{path}:{lineno}: {exc}") from None

    def index(key, lineno, what):
        if key not in chart.names:
            raise ScenarioError(f"{path}:{lineno}: unknown coordinate {key!r} in {what}")
        return chart.index(key)

    def parse_vec(entries, what):
        comps = [constant(chart, 0.0) for _ in range(chart.dim)]
        for key, value, lineno in entries:
            comps[index(key, lineno, what)] = parse(value, lineno)
        return VectorField(chart, comps)

    def parse_matrix(entries, what, on=chart):
        rows = []
        for key, value, lineno in entries:
            if key != "row":
                raise ScenarioError(f"{path}:{lineno}: {what} entries must be 'row = ...'")
            rows.append([parse(tok.strip(), lineno, on) for tok in value.split(",")])
        if len(rows) != len(frame) or any(len(r) != len(frame) for r in rows):
            raise ScenarioError(f"{path}: {what} must be a {len(frame)}x{len(frame)} matrix")
        return rows

    if "gamma" not in by_name or "X" not in by_name:
        raise ScenarioError(f"{path}: missing [gamma] or [X] section")
    gamma_coeffs = {(index(k, ln, "[gamma]"),): parse(v, ln) for k, v, ln in by_name["gamma"]}
    X = parse_vec(by_name["X"], "[X]")

    if not frames:
        raise ScenarioError(f"{path}: at least one [frame ...] section required")
    frame = tuple(parse_vec(entries, f"[{name}]") for name, entries in frames)

    if "J" not in by_name:
        raise ScenarioError(f"{path}: missing [J] section")
    rows = parse_matrix(by_name["J"], "[J]")
    couple = DefiningCouple(DifferentialForm(chart, 1, gamma_coeffs), X)
    try:
        structure = LeviFlatStructure.build(chart, couple, frame, rows)
    except (ValueError, LeviFlatError) as exc:
        raise ScenarioError(f"{path}: {exc}") from None

    family = None
    if families:
        try:
            chart_ext = chart.extend(FAMILY_PARAMETER)
        except ValueError as exc:
            raise ScenarioError(f"{path}: families need the parameter {FAMILY_PARAMETER!r}: {exc}") from None
        parts = {name: name[len("family"):].strip().partition(".") for name in families}
        if len({fam_name for fam_name, _, _ in parts.values()}) > 1:
            listed = ", ".join(f"[{name}]" for name in families)
            raise ScenarioError(f"{path}: sections {listed} name more than one family")
        fam_alpha = {}
        fam_S = None
        for name, entries in families.items():
            part = parts[name][2]
            if part == "alpha":
                for key, value, lineno in entries:
                    fam_alpha[(index(key, lineno, f"[{name}]"),)] = parse(value, lineno, chart_ext)
            elif part == "S":
                fam_S = parse_matrix(entries, f"[{name}]", chart_ext)
            else:
                raise ScenarioError(f"{path}: family section must end in .alpha or .S")
        family = DeformationFamily(
            chart_ext=chart_ext,
            alpha_coeffs=fam_alpha,
            S_entries=fam_S,
        )

    scen_kv = dict((k, v) for k, v, _ in by_name.get("scenario", []))
    name = scen_kv.get("name", os.path.splitext(os.path.basename(str(path)))[0])
    return check(Scenario(name=name, structure=structure, family=family), path)
