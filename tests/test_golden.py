"""Golden reports: the JSON bytes of small runs are pinned by sha256.

The configurations cover every residual helper in ``leafcx`` and
``defcomplex`` that a runner calls, the family identities with a zero and a
nonzero ``S``, the S-calculus runners and the non-integrable negative
control, and the benchmark's scenario file, whose trees come from the parser.
A change that moves any sample by one ulp changes a hash; such a
change must re-record the hashes and say why.
"""

import hashlib
import pathlib

import pytest

from leviflat.cli import RunConfig, run, write_report

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (scenario, suite, points, sha256 of the report)
GOLDEN = [
    (
        "t3_twisted_shifted",
        "all",
        3,
        "748d17c5602d3b042eb1abcdbb94c45ee296764e97d61890a649eabfb6fbb63a",
    ),
    (
        "family_t3_tilt",
        "cor.levi_flat_mc,thm.tangent.*",
        6,
        "fa300428f7a8db2dcd28d0abbb74f3d3c1220203495c59269f0df545963ec489",
    ),
    (
        "broken_nonintegrable",
        "all",
        6,
        "ee2c1076ebf261d6ae44e1faa20792f082abcb7684eb216fe64107db40275952",
    ),
    (
        "family_t3_Jrotation",
        "cor.levi_flat_mc,thm.tangent.*",
        3,
        "2929c0f20d113a3f9ce32bf475ad2082aced1b85b5596f452d5798f660d67ab6",
    ),
    (
        "t5_product",
        "scalc.*,prop.n_ntilde,cor.n_jtilde_*",
        3,
        "5d23ac86b7e074d055af81a5e8e1cdc8a2e1d5f950eb805c57ec7536016e1a74",
    ),
    # the dimension-5 identities whose runners draw several instances
    (
        "t5_product",
        "dbar.*,nijenhuis.*,zsub.*,prop.beth_squared,remark.h_linear,defbracket.*",
        2,
        "b68a00949f019c1a33a7080c3b02ac19063340509dbd6f34ad5eea42dd35c582",
    ),
    # a path relative to the repository root, as the report echoes it
    (
        "bench/my_twisted.scn",
        "all",
        3,
        "dc35da577b8fe8b2f3a2188a4c57e880e751fdbba8fc4c78f4992d627ca48817",
    ),
]


# a scenario's first entry is named after it, a later one after its points too
IDS = [
    g[0] if [h[0] for h in GOLDEN].index(g[0]) == k else f"{g[0]}-{g[2]}points"
    for k, g in enumerate(GOLDEN)
]


@pytest.mark.parametrize("scenario,suite,points,digest", GOLDEN, ids=IDS)
def test_report_bytes_match_golden(tmp_path, monkeypatch, scenario, suite, points, digest):
    monkeypatch.chdir(ROOT)
    _, document = run(RunConfig(scenario=scenario, suite=suite, seed=42, points=points))
    path = tmp_path / "report.json"
    write_report(document, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
