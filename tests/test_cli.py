"""CLI runner: exit codes, determinism, selectors, overrides, report schema."""

import json
import math
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from leviflat import suites
from leviflat.cli import RunConfig, build_parser, list_suites, main, parse_tolerances, run, write_report
from leviflat.errors import ConfigError
from leviflat.scenarios import builtin
from leviflat.suites import REGISTRY, IdentitySpec, run_identity, select_identities

ROOT = pathlib.Path(__file__).resolve().parent.parent
FAST_SUITE = "frobenius,lemma.db_closed,zsub.*"


def test_run_passes_on_flat():
    status, doc = run(RunConfig(scenario="t3_flat", suite=FAST_SUITE, seed=42, points=8))
    assert status == 0
    assert doc["passed"] is True
    assert doc["schema"] == 1
    assert all(r["passed"] for r in doc["results"])


def test_run_fails_on_broken_frobenius():
    status, doc = run(RunConfig(scenario="broken_nonintegrable", suite="frobenius", seed=42, points=8))
    assert status == 1
    frob = [r for r in doc["results"] if r["identity"] == "frobenius"][0]
    assert not frob["passed"]
    # condition (iii) is the first recorded sample
    assert frob["samples"][0] > 0.1


def test_run_unknown_scenario_is_config_error():
    status, doc = run(RunConfig(scenario="missing_scenario"))
    assert status == 2
    assert "error" in doc


@pytest.mark.parametrize("points", [0, -3])
def test_run_rejects_points_below_one(points):
    status, doc = run(RunConfig(scenario="t3_flat", suite=FAST_SUITE, points=points))
    assert status == 2
    assert "--points" in doc["error"]


def test_main_rejects_points_below_one(capsys):
    assert main(["--scenario", "t3_flat", "--points", "0"]) == 2
    assert "--points must be at least 1" in capsys.readouterr().err


def test_run_unknown_suite_is_config_error():
    status, doc = run(RunConfig(scenario="t3_flat", suite="no.such.identity"))
    assert status == 2


def test_reports_are_byte_identical(tmp_path):
    paths = []
    for k in range(2):
        status, doc = run(RunConfig(scenario="t3_twisted", suite=FAST_SUITE, seed=7, points=6))
        path = tmp_path / f"report{k}.json"
        write_report(doc, str(path))
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def _dumped(document):
    """The report text of the one-shot json.dumps."""
    return json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"


def _nan_and_error_document(monkeypatch):
    """A run document on broken_nonintegrable at one point with a NaN
    sample and an error entry among its results."""
    nan = float("nan")

    def nan_runner(scenario, acc, streams):
        acc.add_instances(1, [(np.array([[0.0, nan, 0.0]]), 0.0)])

    def raising_runner(scenario, acc, streams):
        acc.add_instances(1, [(np.array([[0.25]]), 0.0)])
        raise ValueError("stopped after one sample")

    extra = [
        IdentitySpec("diag.nan", "one NaN sample", 1e-9, (), nan_runner),
        IdentitySpec("diag.raise", "an error after one sample", 1e-9, (), raising_runner),
    ]
    monkeypatch.setattr(suites, "REGISTRY", suites.REGISTRY + extra)
    status, doc = run(RunConfig(scenario="broken_nonintegrable", seed=42, points=1))
    assert status == 1
    by_id = {r["identity"]: r for r in doc["results"]}
    assert math.isnan(by_id["diag.nan"]["samples"][1])
    assert by_id["diag.raise"]["error"] == "ValueError: stopped after one sample"
    return doc


def _error_document(monkeypatch):
    _, doc = run(RunConfig(scenario="t3_flat", suite=FAST_SUITE, points=0))
    assert set(doc) == {"schema", "error"}
    return doc


def _no_samples_document(monkeypatch):
    empty = IdentitySpec("diag.empty", "nothing recorded", 1e-9, (), lambda *args: None)
    report = run_identity(empty, builtin("t3_flat"), 42, 4)
    return {"schema": 1, "config": {}, "results": [report.to_dict()], "passed": False}


def _list_samples_document(monkeypatch):
    return {
        "schema": 1,
        "config": {"scenario": "by_hand", "tolerances": {"b": 1.0, "a": 0.5}},
        "results": [
            {"identity": "b", "samples": [0.1, float("nan"), float("inf"), -0.0, 1e-300, 5e-324]},
            {"identity": "a", "samples": [], "error": "\u00e9"},
        ],
        "passed": False,
    }


@pytest.mark.parametrize(
    "build",
    [_error_document, _nan_and_error_document, _no_samples_document, _list_samples_document],
    ids=["error", "nan_and_error", "no_samples", "list_samples"],
)
def test_streamed_report_matches_one_shot_dumps(build, tmp_path, monkeypatch):
    document = build(monkeypatch)
    path = tmp_path / "report.json"
    write_report(document, path)
    assert path.read_bytes() == _dumped(document).encode("utf-8")


def test_report_samples_share_one_float_per_value():
    """run_identity lists the samples with one float object per distinct
    bit pattern, and the document holds that list."""
    spec = next(spec for spec in REGISTRY if spec.identity == "frobenius")
    report = run_identity(spec, builtin("t3_flat"), 42, 3)
    samples = report.samples
    assert type(samples) is list and all(type(v) is float for v in samples)
    bits = np.array(samples).view(np.int64).tolist()
    pairs = set(zip(bits, map(id, samples)))
    assert len(pairs) == len(set(bits)) == len(set(map(id, samples))) < len(samples)
    assert report.to_dict()["samples"] is samples


def test_write_report_memory_is_bounded_by_one_result(tmp_path):
    """Writing 40 results of 5,000 samples each holds the text of one
    result at a time.  A one-shot json.dumps of the same document peaks at
    about 8 MB traced."""
    rng = np.random.default_rng(0)
    document = {
        "schema": 1,
        "config": {},
        "results": [{"identity": f"id{k:02d}", "samples": rng.random(5000).tolist()} for k in range(40)],
        "passed": True,
    }
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        write_report(document, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak
    assert path.read_bytes() == _dumped(document).encode("utf-8")


def test_a_pass_loads_neither_numpy_random_nor_hashlib(tmp_path):
    """A pass draws its streams in leviflat.sampling: numpy.random, and
    hashlib with OpenSSL's _hashlib behind it, stay unloaded (about 5.6 MB
    of a pass's peak RSS)."""
    report = tmp_path / "report.json"
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import leviflat.cli; "
        f"args = ['--scenario', 't3_twisted_shifted', '--suite', 'all', '--points', '2', '--report', {str(report)!r}]; "
        "status = leviflat.cli.main(args); "
        "print(sorted(m for m in ('numpy.random', 'hashlib', '_hashlib') if m in sys.modules)); "
        "sys.exit(status)"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
    assert json.loads(report.read_text())["passed"] is True


def test_different_seed_changes_samples():
    _, doc1 = run(RunConfig(scenario="t3_flat", suite="zsub.closure", seed=1, points=6))
    _, doc2 = run(RunConfig(scenario="t3_flat", suite="zsub.closure", seed=2, points=6))
    assert doc1["results"][0]["seed"] != doc2["results"][0]["seed"]


def test_workers_do_not_change_results():
    _, serial = run(RunConfig(scenario="t3_flat", suite=FAST_SUITE, seed=5, points=6))
    _, parallel = run(RunConfig(scenario="t3_flat", suite=FAST_SUITE, seed=5, points=6, workers=3))
    # worker count is echoed only in the config header; results agree exactly
    assert serial["results"] == parallel["results"]
    assert serial["passed"] == parallel["passed"]


def test_selector_globs():
    chosen = {spec.identity for spec in select_identities("lemma.*,prop.beth*", {})}
    assert "lemma.dbarH" in chosen
    assert "prop.beth_squared" in chosen
    assert "dgla.jacobi" not in chosen


def test_catalogue_contents(capsys):
    list_suites()
    out = capsys.readouterr().out
    assert "prop.beth_squared" in out
    assert "thm.tangent.eqP2" in out
    assert len(REGISTRY) >= 25


def test_suite_glob_matching_no_identity_is_a_config_error(capsys):
    """A --suite glob that matches no identity ends with exit status 2 naming
    it, even beside globs that match; a glob that matches only identities
    the scenario does not apply stays allowed."""
    argv = ["--scenario", "t3_flat", "--points", "3"]
    assert main([*argv, "--suite", "frobenius,frobenuis"]) == 2
    assert "--suite names no identity: frobenuis" in capsys.readouterr().err
    status, doc = run(RunConfig(scenario="t3_flat", suite="zsub.*, nope.*,all", points=3))
    assert status == 2 and doc["error"] == "--suite names no identity: nope.*, all"
    family = next(spec for spec in REGISTRY if spec.identity == "cor.levi_flat_mc")
    assert not family.applies(builtin("t3_flat"))
    assert main([*argv, "--suite", "frobenius,cor.levi_flat_mc"]) == 0


def test_tolerance_overrides():
    tols = parse_tolerances("frobenius=1e-3, lemma.dbarH=1e-6")
    assert tols == {"frobenius": 1e-3, "lemma.dbarH": 1e-6}
    with pytest.raises(ConfigError):
        parse_tolerances("oops")
    with pytest.raises(ConfigError):
        parse_tolerances("a=notafloat")
    # an absurdly tight override flips the status
    status, _ = run(
        RunConfig(scenario="t3_flat", suite="frobenius", points=6, tolerances={"frobenius": 1e-30})
    )
    assert status == 0  # residual is exactly 0 on the flat couple
    status, _ = run(
        RunConfig(scenario="t3_twisted", suite="lemma.gauge_chi", points=4, tolerances={"lemma.gauge_chi": 1e-30})
    )
    assert status == 1


def test_tolerance_for_no_identity_is_a_config_error(capsys):
    """A --tol id that names no identity ends with exit status 2 naming it,
    from the flag and from a RunConfig built in code; a registry id that the
    suite does not select stays allowed."""
    argv = ["--scenario", "t3_flat", "--suite", "frobenius", "--points", "3"]
    assert main([*argv, "--tol", "frobenuis=1e-30"]) == 2
    assert "--tol names no identity: frobenuis" in capsys.readouterr().err
    status, doc = run(RunConfig(scenario="t3_flat", suite="frobenius", points=3, tolerances={"nope": 1.0}))
    assert status == 2 and "nope" in doc["error"]
    assert main([*argv, "--tol", "lemma.dbarH=1e-6"]) == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("=1", "bad tolerance override '=1', expected id=value"),
        ("frobenius=1,frobenius=2", "--tol names frobenius twice"),
        ("frobenius=1, frobenius =1", "--tol names frobenius twice"),
    ],
)
def test_tolerance_with_empty_or_repeated_id_is_a_config_error(capsys, text, message):
    """An override must name its identity, and name it once: a repeated id
    would otherwise run with the last value given."""
    argv = ["--scenario", "t3_flat", "--suite", "frobenius", "--points", "3"]
    assert main([*argv, "--tol", text]) == 2
    assert f"configuration error: {message}" in capsys.readouterr().err


def test_cli_reads_the_live_registry(monkeypatch, capsys):
    """An identity added to suites.REGISTRY after the CLI was imported is
    listed and takes a tolerance override, as it can be selected; a NaN
    sample still fails it."""
    from leviflat import suites

    def nan_runner(scenario, acc, streams):
        acc.add_instances(1, [(np.array([[math.nan]]), 0.0)])

    spec = IdentitySpec("diag.nan", "one NaN sample", 1e-9, (), nan_runner)
    monkeypatch.setattr(suites, "REGISTRY", [*suites.REGISTRY, spec])
    assert main(["--list"]) == 0
    assert "diag.nan" in capsys.readouterr().out
    argv = ["--scenario", "t3_flat", "--suite", "diag.nan", "--points", "1"]
    assert main([*argv, "--tol", "diag.nan=1"]) == 1
    assert "max_rel=nan tol=1.0e+00" in capsys.readouterr().out
    monkeypatch.setattr(suites, "REGISTRY", [s for s in suites.REGISTRY if s.identity != "frobenius"])
    status, doc = run(RunConfig(scenario="t3_flat", suite="diag.nan", points=1, tolerances={"frobenius": 1.0}))
    assert status == 2 and doc["error"] == "--tol names no identity: frobenius"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-9])
def test_tolerance_not_finite_and_nonnegative_is_a_config_error(value):
    status, doc = run(
        RunConfig(scenario="t3_flat", suite="frobenius", points=3, tolerances={"frobenius": value})
    )
    assert status == 2
    assert doc["error"] == f"--tol must be a finite number >= 0: frobenius={value}"


@pytest.mark.parametrize("text", ["nan", "inf"])
def test_main_rejects_tolerance_flag_not_finite_and_nonnegative(tmp_path, capsys, text):
    """The flag exits 2 naming the id, and no report with a bare NaN or
    Infinity token is written."""
    report = tmp_path / "out.json"
    argv = ["--scenario", "t3_flat", "--suite", "frobenius", "--points", "3", "--report", str(report)]
    assert main([*argv, "--tol", f"frobenius={text}"]) == 2
    assert "--tol must be a finite number >= 0: frobenius=" in capsys.readouterr().err
    assert not report.exists()
    assert main([*argv, "--tol", "frobenius=0"]) == 0


@pytest.mark.parametrize("content", [None, b"\xff\xfe\x00bad"], ids=["directory", "undecodable"])
def test_main_unreadable_scenario_exits_2(tmp_path, capsys, content):
    path = tmp_path
    if content is not None:
        path = tmp_path / "bytes.scn"
        path.write_bytes(content)
    assert main(["--scenario", str(path), "--suite", "frobenius", "--points", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {path}: cannot read scenario file")
    assert "Traceback" not in err


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_main_unwritable_report_exits_2(tmp_path, capsys, where):
    report = tmp_path / "no" / "such" / "out.json" if where == "missing_dir" else tmp_path
    argv = ["--scenario", "t3_flat", "--suite", "frobenius", "--points", "2", "--report", str(report)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "[PASS] frobenius" in captured.out
    assert captured.err.startswith(f"configuration error: cannot write report {report}: ")


def test_env_overrides(monkeypatch):
    monkeypatch.setenv("LEVIFLAT_SEED", "99")
    monkeypatch.setenv("LEVIFLAT_POINTS", "5")
    args = build_parser().parse_args([])
    assert args.seed == 99
    assert args.points == 5
    args = build_parser().parse_args(["--seed", "3"])
    assert args.seed == 3


@pytest.mark.parametrize("name", ["SEED", "POINTS", "WORKERS"])
def test_malformed_env_value_is_a_usage_error(monkeypatch, capsys, name):
    monkeypatch.setenv("LEVIFLAT_" + name, "abc")
    with pytest.raises(SystemExit) as exc:
        main(["--scenario", "t3_flat", "--suite", FAST_SUITE])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "invalid int value: 'abc'" in err


def test_flag_wins_over_malformed_env_value(monkeypatch):
    monkeypatch.setenv("LEVIFLAT_SEED", "abc")
    assert build_parser().parse_args(["--seed", "3"]).seed == 3


@pytest.mark.parametrize("workers", [0, -2])
def test_run_rejects_workers_below_one(workers):
    status, doc = run(RunConfig(scenario="t3_flat", suite=FAST_SUITE, points=2, workers=workers))
    assert status == 2
    assert "--workers" in doc["error"]


def test_main_rejects_workers_below_one(capsys):
    assert main(["--scenario", "t3_flat", "--points", "2", "--workers", "0"]) == 2
    assert "--workers must be at least 1" in capsys.readouterr().err


def test_main_end_to_end(tmp_path, capsys):
    report = tmp_path / "out.json"
    status = main([
        "--scenario", "t3_flat", "--suite", FAST_SUITE, "--seed", "42",
        "--points", "6", "--report", str(report),
    ])
    assert status == 0
    doc = json.loads(report.read_text())
    assert doc["schema"] == 1
    assert doc["passed"] is True
    for entry in doc["results"]:
        assert "wall_time" not in entry
    out = capsys.readouterr().out
    assert "[PASS]" in out


def test_main_list(capsys):
    assert main(["--list"]) == 0
    assert "identities" in capsys.readouterr().out


def test_main_unknown_scenario(capsys):
    assert main(["--scenario", "zzz"]) == 2


def test_scenario_file_through_cli(tmp_path):
    from tests.test_scenarios import SCENARIO_TEXT

    path = tmp_path / "tw.scn"
    path.write_text(SCENARIO_TEXT)
    status, doc = run(RunConfig(scenario=str(path), suite="frobenius,cor.levi_flat_mc", points=6))
    assert status == 0
    assert {r["identity"] for r in doc["results"]} == {"frobenius", "cor.levi_flat_mc"}


@pytest.mark.parametrize(
    "good, bad",
    [
        ("x = 0.3*cos(t)", "x = 0.3*cos(t"),
        ("x = 0.3*cos(t)", "x = 1/0"),
        ("x = 0.7*s", "z = 0.7*s"),
        ("x = 0.3*cos(t)", "x = sin(exp(700)*exp(700))"),
        ("x = 0.3*cos(t)", "x = exp(750)"),
        ("[frame E2]\ny = 1\n\n[J]\nrow = 0, -1\nrow = 1, 0", "[J]\nrow = 0"),
        ("periodic = 1 1 1", "periodic = 1 x 1"),
        ("periodic = 1 1 1", "periodic = 1 1 2"),
        ("periodic = 1 1 1", "periodic = 1 1 -3"),
        ("names = x y t", "names = x x t"),
        ("periodic = 1 1 1", "periodic = 1 1"),
        ("[frame E2]\ny = 1", "[frame E2]\ny = sin(x)"),
        ("x = 0.3*cos(t)", "x = " + "(" * 400 + "t" + ")" * 400),
    ],
    ids=[
        "syntax",
        "division_by_zero",
        "family_coordinate",
        "domain_error",
        "overflow",
        "frame_count",
        "periodic_token",
        "periodic_flag_2",
        "periodic_flag_negative",
        "repeated_name",
        "periodic_count",
        "degenerate_frame",
        "deep_nesting",
    ],
)
def test_malformed_scenario_line_is_a_located_error(tmp_path, capsys, good, bad):
    """A malformed line is named by path:line; a wrong number of frame
    sections or a frame degenerate at the origin, which no single line
    holds, by the path."""
    from tests.test_scenarios import SCENARIO_TEXT

    lines = SCENARIO_TEXT.splitlines()
    where = f":{lines.index(good) + 1}" if good in lines else ""
    path = tmp_path / "bad.scn"
    path.write_text(SCENARIO_TEXT.replace(good, bad, 1))
    assert main(["--scenario", str(path), "--points", "2"]) == 2
    assert f"configuration error: {path}{where}: " in capsys.readouterr().err


def test_runner_records_singular_evaluation_as_failure():
    """A blow-up inside a runner becomes a failing report with a diagnostic,
    not a crash (the broken scenario never reaches this path, so inject
    runners that divide by a vanishing field and overflow exp)."""
    from leviflat.scenarios import builtin
    from leviflat.suites import IdentitySpec, run_identity
    from leviflat.symfield import constant, exp_of
    from tests.fields import coordinate, cos_of

    def exploding_runner(scenario, acc, streams):
        chart = scenario.structure.chart
        f = constant(chart, 1.0) / (1.0 + cos_of(coordinate(chart, "t")))
        import math

        acc.add(f([(0.0, 0.0, math.pi)]), 0.0)

    spec = IdentitySpec("diag.singular", "1/(1+cos t) at t=pi", 1e-9, (), exploding_runner)
    report = run_identity(spec, builtin("t3_flat"), 42, 4)
    assert not report.passed
    assert "SingularEvaluationError" in report.error

    def overflowing_runner(scenario, acc, streams):
        t = coordinate(scenario.structure.chart, "t")
        f = 1e-300 * exp_of(750.0 * cos_of(t))
        acc.add(f([(0.0, 0.0, 1.0), (0.0, 0.0, 0.0)]))

    spec = IdentitySpec("diag.overflow", "exp(750 cos t) at t=0", 1e-9, (), overflowing_runner)
    report = run_identity(spec, builtin("t3_flat"), 42, 4)
    assert not report.passed
    assert report.error == "EvaluationRangeError: exp overflows at sample 1, argument 750.0"


def test_identity_without_samples_does_not_pass():
    from leviflat.scenarios import builtin
    from leviflat.suites import IdentitySpec, run_identity

    spec = IdentitySpec("diag.empty", "nothing recorded", 1e-9, (), lambda *args: None)
    report = run_identity(spec, builtin("t3_flat"), 42, 4)
    assert len(report.samples) == 0
    assert not report.passed
    assert report.error == ""


def test_non_finite_values_fail_their_identities(tmp_path, monkeypatch, capsys):
    """A value that is NaN at some sample points (sin of an overflowed
    product) fails its identity, and the report still loads."""
    from leviflat import suites
    from leviflat.suites import IdentitySpec
    from leviflat.symfield import exp_of
    from tests.fields import coordinate, cos_of, sin_of

    def nan_runner(scenario, acc, streams):
        t = coordinate(scenario.structure.chart, "t")
        big = exp_of(700.0 * cos_of(t))
        acc.add([sin_of(big * big)], 0.0)

    spec = IdentitySpec("diag.nan", "sin(exp(700 cos t)^2) = 0", 1e-9, (), nan_runner)
    monkeypatch.setattr(suites, "REGISTRY", [spec])
    report = tmp_path / "report.json"
    assert main(["--scenario", "t3_flat", "--suite", "diag.nan", "--report", str(report)]) == 1
    (result,) = json.loads(report.read_text())["results"]
    assert not result["passed"]
    assert math.isnan(result["max_rel"])
    assert "[FAIL] diag.nan                     max_rel=nan" in capsys.readouterr().out


def _bench_file_with(tmp_path, *replacements):
    """bench/my_twisted.scn with each (old, new) text replaced once."""
    text = ROOT.joinpath("bench", "my_twisted.scn").read_text()
    for old, new in replacements:
        assert old in text
        text = text.replace(old, new, 1)
    path = tmp_path / "variant.scn"
    path.write_text(text)
    return path


def test_non_finite_gamma_file_is_rejected_at_load(tmp_path, capsys):
    """gamma is NaN near t = 0: the load check rejects the file before any
    identity runs, naming the path and the invariant."""
    gamma = "x = 0.3*cos(t) + 1e-300*sin(exp(700*cos(t))*exp(700*cos(t)))\n"
    path = _bench_file_with(tmp_path, ("x = 0.3*cos(t)\n", gamma))
    assert main(["--scenario", str(path), "--points", "2"]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {path}: non-finite invariant " in err


def test_non_integrable_file_runs_only_the_unconditional_identities(tmp_path, capsys):
    """gamma = dt + sin(x) dy with its kernel framed by dx and dy - sin(x) dt
    is not integrable: the load check measures it, so only the identities
    that assume nothing of the couple run, and frobenius fails."""
    path = _bench_file_with(
        tmp_path,
        ("[gamma]\nx = 0.3*cos(t)\n", "[gamma]\ny = sin(x)\n"),
        ("[frame E1]\nx = 1\nt = -0.3*cos(t)\n", "[frame E1]\nx = 1\n"),
        ("[frame E2]\ny = 1\n", "[frame E2]\ny = 1\nt = -sin(x)\n"),
    )
    report = tmp_path / "report.json"
    assert main(["--scenario", str(path), "--points", "6", "--report", str(report)]) == 1
    results = {r["identity"]: r["passed"] for r in json.loads(report.read_text())["results"]}
    assert results == {
        "excalc.d_squared": True,
        "excalc.jacobi_vector": True,
        "excalc.leibniz_wedge": True,
        "frobenius": False,
    }


@pytest.mark.parametrize(
    "extra,message",
    [
        ("[family tilt.alpha]\ny = nonsense_ident\n", ":29: duplicate section [family tilt.alpha]"),
        (
            "[family other.S]\nrow = s, 0\nrow = 0, -s\n",
            ": sections [family tilt.alpha], [family other.S] name more than one family",
        ),
    ],
    ids=["repeated", "two_families"],
)
def test_repeated_or_mixed_family_sections_are_rejected(tmp_path, capsys, extra, message):
    """A second [family tilt.alpha] section, named at its header's line, or
    a section of another family ends with exit status 2 naming the
    sections, as a second [gamma] does."""
    path = _bench_file_with(tmp_path, ("parameter s\n", "parameter s\n" + extra))
    assert main(["--scenario", str(path), "--suite", "frobenius", "--points", "2"]) == 2
    assert f"configuration error: {path}{message}\n" in capsys.readouterr().err
