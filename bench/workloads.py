"""The benchmark's workloads: which scenarios, identities, sample sizes and
worker counts one pass runs through ``leviflat.cli.run``.

Each pass must fit several times into one measured run, so the sweep and
the 5-torus workload run a fixed share of the full CLI sweep; README.md
gives the reasons for each choice.
"""

from __future__ import annotations

from dataclasses import dataclass

# Relative to the checkout root, which is the working directory of a pass.
SCENARIO_FILE = "bench/my_twisted.scn"

# The 32 of t5_product's 42 identities that take under 1.3 s each at 200
# points; the other ten (the four DGLA axioms, Leibniz for wedge, Jacobi for
# vector fields, the reduced bracket, d-frak squared and the two
# Nijenhuis-tensor identities) would make one pass over 40 s.
T5_IDENTITIES = (
    "excalc.d_squared",
    "dgla.delta_squared",
    "zsub.closure",
    "zsub.reduced_gamma",
    "frobenius",
    "lemma.mc_oracle",
    "lemma.db_closed",
    "lemma.omega_alpha",
    "dbar.antilinearity",
    "dbar.commutes_J",
    "dbar.leibniz",
    "nijenhuis.bilinear",
    "dbar.squared",
    "remark.h_linear",
    "remark.h_alternative",
    "lemma.dbarH",
    "remark.ixdgamma01_closed",
    "prop.beth_squared",
    "prop.bethH",
    "prop.change_couple",
    "prop.iso_cohomology",
    "lemma.bracket_alpha",
    "defbracket.expansion",
    "defbracket.leibniz",
    "cor.n_alpha",
    "thm.tangent.witness",
    "thm.moduli.gauge_witness",
    "lemma.hY_decomposition",
    "cor.dbar_hY",
    "cor.phiH",
    "scalc.s_roundtrip",
    "cor.n_jtilde_quadratic",
)


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: tuple
    suite: str
    points: int
    workers: int


WORKLOADS = {
    w.name: w
    for w in (
        # One scenario of each kind: the README scenario file (parsed at
        # set-up), the exact-witness 3-torus, a deformation family and the
        # non-integrable negative control.
        Workload(
            "sweep_p20",
            (SCENARIO_FILE, "t3_twisted_shifted", "family_t3_Jrotation", "broken_nonintegrable"),
            "all",
            20,
            1,
        ),
        # Per-point tree interpretation dominates at 200 points; no flow
        # identity applies on 5-tori; the only workload with a worker pool.
        Workload("t5_p200", ("t5_product",), ",".join(T5_IDENTITIES), 200, 2),
        # RK4 integration dominates: only the flow and gauge identities, on
        # the five integrable 3-torus built-ins.
        Workload(
            "flows_t3",
            ("t3_flat", "t3_twisted", "t3_twisted_shifted", "family_t3_tilt", "family_t3_Jrotation"),
            "flow.*,lemma.gauge_*,remark.gauge_mc",
            20,
            1,
        ),
    )
}
