"""Golden reports: the JSON bytes of three small runs are pinned by sha256.

The configurations cover every residual helper in ``leafcx`` and
``defcomplex`` that a runner calls, the family identities and the
non-integrable negative control.  A change that moves any sample by one ulp
changes a hash; such a change must re-record the hashes and say why.
"""

import hashlib

import pytest

from leviflat.cli import RunConfig, run, write_report

HELPER_SUITE = ",".join(
    (
        "prop.change_couple",
        "prop.iso_cohomology",
        "cor.n_alpha",
        "lemma.exact.*",
        "thm.moduli.gauge_witness",
        "lemma.hY_decomposition",
        "cor.dbar_hY",
        "cor.phiH",
        "dbar.antilinearity",
        "lemma.dbarH",
    )
)

GOLDEN = [
    (
        "t3_twisted_shifted",
        HELPER_SUITE,
        "9c793c092b8068e8ecbb64bcf566bd6cc142984ea7afea72c86a68c92d85e011",
    ),
    (
        "family_t3_tilt",
        "cor.levi_flat_mc,thm.tangent.*",
        "fa300428f7a8db2dcd28d0abbb74f3d3c1220203495c59269f0df545963ec489",
    ),
    (
        "broken_nonintegrable",
        "all",
        "ee2c1076ebf261d6ae44e1faa20792f082abcb7684eb216fe64107db40275952",
    ),
]


@pytest.mark.parametrize("scenario,suite,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_report_bytes_match_golden(tmp_path, scenario, suite, digest):
    _, document = run(RunConfig(scenario=scenario, suite=suite, seed=42, points=6))
    path = tmp_path / "report.json"
    write_report(document, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
