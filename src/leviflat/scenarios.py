"""Scenarios: a structure with its optional deformation family, exactness
witness and quadratic test matrix S0, the load check every scenario passes,
and the scenario file loader.  The built-ins are scenario files shipped in
builtins/ and load like any other."""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import LeviFlatError, ScenarioError
from .defcomplex import CochainPair
from .excalc import DifferentialForm, VectorField, XiValuedForm, zero_vector
from .foliation_dgla import MEMBERSHIP_TOL, DefiningCouple, z_membership_residual
from .leafcx import DET_GUARD, LeviFlatStructure, anticommutator_residual, xi_form_from_matrix
from .report import ONE_INSTANCE, ResidualAccumulator
from .sampling import sample_points, stream
from .symfield import Chart, ScalarField, const, constant, first_flagged, parse_expr, substitute

FAMILY_PARAMETER = "s"
# The family times cor.levi_flat_mc runs at, and the load check probes.
FAMILY_TIMES = (0.0, 0.1, -0.1, 0.3, -0.3)


@dataclass
class DeformationFamily:
    """Family t -> (alpha_t, S_t) held symbolically in an extra coordinate,
    so values and the tangent at 0 are exact.  A family without S entries
    has S = 0.  name is the <name> of its [family <name>.alpha] and
    [family <name>.S] sections.  Its fields live on the chart extended by
    the parameter t, whose index is chart.dim."""

    name: str
    chart: Chart
    alpha_coeffs: dict
    S_entries: list | None

    def _fixed(self, f, t):
        """f at parameter value t, a field on the chart."""
        return ScalarField(self.chart, substitute(f.node, {self.chart.dim: const(float(t))}))

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
        return self._pair(s, lambda f: self._fixed(f, t))

    def S_at(self, t):
        """S_t as a frame matrix of fields on the chart, or None for a
        family without S entries."""
        if self.S_entries is None:
            return None
        return [[self._fixed(f, t) for f in row] for row in self.S_entries]

    def tangent(self, s):
        """The tangent at t = 0, (d/dt alpha_t, d/dt S_t) at 0, on the
        structure s."""
        return self._pair(s, lambda f: self._fixed(f.diff(self.chart.dim), 0.0))


@dataclass
class Scenario:
    """A named structure plus an optional deformation family, exactness
    witness and quadratic test matrix S0.  foliation_integrable is measured
    by check, not declared."""

    name: str
    structure: LeviFlatStructure
    family: DeformationFamily | None
    exact_witness: VectorField | None
    quadratic_S0: list | None
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
    two measured flags that narrow the identities it runs.  A witness must
    lie in xi, and S0 must be finite and anticommute with J.  At each of
    FAMILY_TIMES, a family's alpha_t must lie in Z^1 and its S_t must
    anticommute with J."""
    s = scenario.structure
    family = scenario.family
    try:
        probe = [(0.0,) * s.chart.dim] + sample_points(s.chart, PROBE - 1, stream("probe"))
        inv = s.invariants(probe)
        dets = np.linalg.det(s.basis_matrix_at(probe))
        if scenario.exact_witness is not None:
            gamma_U = [s.couple.gamma_of(scenario.exact_witness)]
            inv["witness_gamma"] = ResidualAccumulator(probe).add(gamma_U).max_rel
        if scenario.quadratic_S0 is not None:
            S0 = scenario.quadratic_S0
            inv["S0"] = ResidualAccumulator(probe).add([f for row in S0 for f in row]).max_abs
            anticommutator = anticommutator_residual(s, S0)
            inv["S0_anticommutator"] = ResidualAccumulator(probe).add(anticommutator).max_rel
        if family is not None:
            z = [z_membership_residual(family.at(s, t).alpha, s.couple, probe, ONE_INSTANCE) for t in FAMILY_TIMES]
            inv["family_alpha"] = float(np.max(z))
            if family.S_entries is not None:
                pairs = [(anticommutator_residual(s, family.S_at(t)), 0.0) for t in FAMILY_TIMES]
                inv["family_S_anticommutator"] = ResidualAccumulator(probe).add_each(ONE_INSTANCE, pairs).max_abs
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
    name = family.name if family is not None else ""
    for key, tol, what in (
        ("witness_gamma", INVARIANT_TOL, "[witness] does not lie in xi: gamma(U)"),
        ("S0_anticommutator", INVARIANT_TOL, "[S0] does not anticommute with J: S0 J + J S0"),
        ("family_alpha", MEMBERSHIP_TOL, f"[family {name}.alpha] does not lie in Z^1: iota_X alpha_t"),
        ("family_S_anticommutator", INVARIANT_TOL, f"[family {name}.S] does not anticommute with J: S_t J + J S_t"),
    ):
        if inv.get(key, 0.0) > tol:
            raise ScenarioError(f"{where}: {what} = {inv[key]:.3e} on the probe points")
    scenario.foliation_integrable = all(
        inv[key] <= INVARIANT_TOL
        for key in ("gamma_frame", "frobenius_iii", "frobenius_iv", "frobenius_v")
    )
    if inv["nijenhuis"] <= INVARIANT_TOL:
        scenario.structure = replace(s, leafwise_integrable=True)
    return scenario


def _point(p):
    return "(" + ", ".join(f"{v:.4f}" for v in p) + ")"


# In the order the CLI help lists them; each is the file builtins/<name>.scn.
BUILTIN_NAMES = (
    "t3_flat",
    "t3_twisted",
    "t3_twisted_shifted",
    "t5_product",
    "t5_perturbedJ",
    "t5_twisted",
    "family_t3_tilt",
    "family_t3_Jrotation",
    "broken_nonintegrable",
)
BUILTIN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "builtins")


def builtin(name):
    """Load a built-in scenario by name from its shipped scenario file."""
    if name not in BUILTIN_NAMES:
        raise ScenarioError(f"unknown scenario {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}")
    return load_scenario_file(os.path.join(BUILTIN_DIR, f"{name}.scn"))


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


# The sections a file may hold besides [frame <name>], [family <name>.alpha]
# and [family <name>.S], whose first word is 'frame' or 'family'.
SECTIONS = ("scenario", "chart", "gamma", "X", "J", "witness", "S0")


def _parse_sections(text, path):
    """[(name, header line, [(key, value, line), ...]), ...] in file order.
    A header's name is its words joined by single spaces, so `[frame  E1 ]`
    names the section `[frame E1]` does."""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = (" ".join(line[1:-1].split()), lineno, [])
            sections.append(current)
            continue
        if current is None or "=" not in line:
            raise ScenarioError(f"{path}:{lineno}: expected 'key = value' inside a section")
        key, value = line.split("=", 1)
        current[2].append((key.strip(), value.strip(), lineno))
    return sections


def load_scenario_file(path):
    """Load a scenario from a sectioned text file.

    Sections: [scenario] (optional name), [chart], [gamma], [X],
    [frame <name>] (one per frame vector, in order), [J] (row = e1, e2, ...),
    [family <name>.alpha] and [family <name>.S] (one family a file, each
    section at most once; expressions may use the extra parameter 's'),
    [witness] (an exactness witness U in xi, given like [X]) and [S0] (the
    quadratic test matrix, given like [J]).  An unknown section or key, and
    a key repeated inside a section, are errors.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read scenario file: {exc}") from None
    by_name = {}
    frames = []
    families = {}
    header = {}
    for name, line, entries in _parse_sections(text, path):
        kind = (name.split() or [""])[0]
        if kind == "frame":
            if name in dict(frames):
                raise ScenarioError(f"{path}:{line}: duplicate section [{name}]")
            frames.append((name, entries))
            continue
        if name not in SECTIONS and kind != "family":
            raise ScenarioError(f"{path}:{line}: unknown section [{name}]")
        table = families if kind == "family" else by_name
        if name in table:
            raise ScenarioError(f"{path}:{line}: duplicate section [{name}]")
        table[name] = entries
        header[name] = line

    def keyed(name, entries, allowed=None):
        """key -> (value, line) of a section whose keys may not repeat."""
        out = {}
        for key, value, lineno in entries:
            if allowed is not None and key not in allowed:
                raise ScenarioError(f"{path}:{lineno}: unknown key {key!r} in [{name}]")
            if key in out:
                raise ScenarioError(f"{path}:{lineno}: repeated key {key!r} in [{name}]")
            out[key] = (value, lineno)
        return out

    if "chart" not in by_name:
        raise ScenarioError(f"{path}: missing [chart] section")
    chart_kv = keyed("chart", by_name["chart"], ("names", "periodic"))
    if "names" not in chart_kv:
        raise ScenarioError(f"{path}: [chart] needs 'names'")
    names_text, names_line = chart_kv["names"]
    names = tuple(names_text.split())
    flags_text, flags_line = chart_kv.get("periodic", ("1 " * len(names), names_line))
    flags = flags_text.split()
    if any(tok not in ("0", "1") for tok in flags):
        raise ScenarioError(f"{path}:{flags_line}: periodic flags must be 0 or 1")
    periodic = tuple(tok == "1" for tok in flags)
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

    def index(key, lineno, name):
        if key not in chart.names:
            raise ScenarioError(f"{path}:{lineno}: unknown coordinate {key!r} in [{name}]")
        return chart.index(key)

    def by_coordinate(name, entries, on=chart):
        """index -> expression of a section keyed by coordinate names."""
        return {index(k, ln, name): parse(v, ln, on) for k, (v, ln) in keyed(name, entries).items()}

    def parse_vec(name, entries):
        comps = [constant(chart, 0.0) for _ in range(chart.dim)]
        for i, f in by_coordinate(name, entries).items():
            comps[i] = f
        return VectorField(chart, comps)

    def parse_matrix(name, entries, on=chart):
        rows = []
        for key, value, lineno in entries:
            if key != "row":
                raise ScenarioError(f"{path}:{lineno}: [{name}] entries must be 'row = ...'")
            rows.append([parse(tok.strip(), lineno, on) for tok in value.split(",")])
        if len(rows) != len(frame) or any(len(r) != len(frame) for r in rows):
            n = len(frame)
            raise ScenarioError(f"{path}:{header[name]}: [{name}] must be a {n}x{n} matrix")
        return rows

    if "gamma" not in by_name or "X" not in by_name:
        raise ScenarioError(f"{path}: missing [gamma] or [X] section")
    gamma_coeffs = {(i,): f for i, f in by_coordinate("gamma", by_name["gamma"]).items()}
    X = parse_vec("X", by_name["X"])

    if not frames:
        raise ScenarioError(f"{path}: at least one [frame ...] section required")
    frame = tuple(parse_vec(name, entries) for name, entries in frames)

    if "J" not in by_name:
        raise ScenarioError(f"{path}: missing [J] section")
    rows = parse_matrix("J", by_name["J"])
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
        fam_names = {fam_name for fam_name, _, _ in parts.values()}
        if len(fam_names) > 1:
            listed = ", ".join(f"[{name}]" for name in families)
            raise ScenarioError(f"{path}: sections {listed} name more than one family")
        fam_alpha = {}
        fam_S = None
        for name, entries in families.items():
            part = parts[name][2]
            if part == "alpha":
                fam_alpha = {(i,): f for i, f in by_coordinate(name, entries, chart_ext).items()}
            elif part == "S":
                fam_S = parse_matrix(name, entries, chart_ext)
            else:
                raise ScenarioError(
                    f"{path}:{header[name]}: family section must end in .alpha or .S"
                )
        family = DeformationFamily(fam_names.pop(), chart, fam_alpha, fam_S)

    witness = parse_vec("witness", by_name["witness"]) if "witness" in by_name else None
    S0 = parse_matrix("S0", by_name["S0"]) if "S0" in by_name else None
    scen_kv = keyed("scenario", by_name.get("scenario", []), ("name",))
    default_name = os.path.splitext(os.path.basename(str(path)))[0]
    name = scen_kv["name"][0] if "name" in scen_kv else default_name
    return check(Scenario(name, structure, family, witness, S0), path)
