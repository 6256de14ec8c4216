"""Command-line runner: load a scenario, run named identity suites, emit a
deterministic JSON report.

Exit status: 0 when all selected identities pass, 1 on any failing identity,
2 on configuration errors, --points or --workers below 1, malformed numbers,
a tolerance override with an empty or repeated id, one that names no
identity or is not a finite number >= 0, a --suite glob that matches no
identity, an unreadable scenario file and an unwritable report path
included.  Every flag has an environment-variable override with the
LEVIFLAT_ prefix (flags win over environment).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

from .errors import ConfigError, ScenarioError
from .scenarios import BUILTIN_NAMES, resolve
from . import suites
from .suites import run_identity, select_identities

SCHEMA_VERSION = 1
ENV_PREFIX = "LEVIFLAT_"


@dataclass
class RunConfig:
    scenario: str = "t3_flat"
    suite: str = "all"
    seed: int = 42
    points: int = 20
    tolerances: dict = field(default_factory=dict)
    workers: int = 1


def parse_tolerances(text):
    """Parse 'id=value,id=value' overrides; an empty or repeated id is an
    error."""
    out = {}
    if not text:
        return out
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, eq, value = (part.strip() for part in chunk.partition("="))
        if not (key and eq):
            raise ConfigError(f"bad tolerance override {chunk!r}, expected id=value")
        if key in out:
            raise ConfigError(f"--tol names {key} twice")
        try:
            out[key] = float(value)
        except ValueError:
            raise ConfigError(f"bad tolerance value {value!r} for {key!r}")
    return out


def list_suites():
    for spec in suites.REGISTRY:
        print(f"{spec.identity:<28s} tol={spec.tolerance:<8.1e} {spec.anchor}")
    print(f"{len(suites.REGISTRY)} identities")


def run(config):
    """Execute the configured suites; returns (exit_status, report_dict)."""
    try:
        if config.points < 1:
            raise ConfigError(f"--points must be at least 1, got {config.points}")
        if config.workers < 1:
            raise ConfigError(f"--workers must be at least 1, got {config.workers}")
        selected = select_identities(config.suite, config.tolerances)
        scenario = resolve(config.scenario)
    except (ConfigError, ScenarioError) as exc:
        return 2, {"schema": SCHEMA_VERSION, "error": str(exc)}
    specs = [spec for spec in selected if spec.applies(scenario)]
    if not specs:
        return 2, {
            "schema": SCHEMA_VERSION,
            "error": f"no identities match selector {config.suite!r} on scenario {scenario.name!r}",
        }

    def execute(spec):
        return run_identity(
            spec,
            scenario,
            config.seed,
            config.points,
            tolerance=config.tolerances.get(spec.identity),
        )

    if config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            reports = list(pool.map(execute, specs))
    else:
        reports = [execute(spec) for spec in specs]
    reports.sort(key=lambda r: r.identity)
    all_passed = all(r.passed for r in reports)
    document = {
        "schema": SCHEMA_VERSION,
        "config": asdict(config),
        "results": [r.to_dict() for r in reports],
        "passed": all_passed,
    }
    return (0 if all_passed else 1), document


# The encoder of json.dumps(..., sort_keys=True, separators=(",", ":")).
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def write_report(document, path):
    """Write document to path as the bytes of
    json.dumps(document, sort_keys=True, separators=(",", ":")) + "\\n".
    The top-level keys go in sorted order and the results one at a time, so
    the text of only one result is held at once.  json.dump would hold as
    little, but its pure-Python encoder takes twice as long."""
    encode = _ENCODER.encode
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        for i, key in enumerate(sorted(document)):
            fh.write(("," if i else "") + encode(key) + ":")
            if key == "results":
                fh.write("[")
                for j, result in enumerate(document[key]):
                    fh.write(("," if j else "") + encode(result))
                fh.write("]")
            else:
                fh.write(encode(document[key]))
        fh.write("}\n")


def _env(name, default):
    return os.environ.get(ENV_PREFIX + name, default)


def build_parser():
    defaults = RunConfig()
    parser = argparse.ArgumentParser(
        prog="leviflat",
        description="Run residual checks for foliation/leafwise-complex identities "
        "on built-in or file-defined torus scenarios.",
    )
    parser.add_argument(
        "--scenario",
        default=_env("SCENARIO", defaults.scenario),
        help=f"built-in name ({', '.join(BUILTIN_NAMES)}) or scenario file path",
    )
    parser.add_argument(
        "--suite",
        default=_env("SUITE", defaults.suite),
        help="comma-separated identity-id globs, e.g. 'lemma.*,prop.beth*' (default: all)",
    )
    # a string default goes through type, so a malformed environment value is
    # a usage error like a malformed flag
    parser.add_argument("--seed", type=int, default=_env("SEED", defaults.seed))
    parser.add_argument("--points", type=int, default=_env("POINTS", defaults.points))
    parser.add_argument(
        "--tol",
        default=_env("TOL", ""),
        help="per-identity tolerance overrides, 'id=value,id=value'",
    )
    parser.add_argument("--report", default=_env("REPORT", None), help="report output path")
    parser.add_argument("--workers", type=int, default=_env("WORKERS", defaults.workers))
    parser.add_argument("--list", action="store_true", help="print the identity catalogue and exit")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        list_suites()
        return 0
    try:
        config = RunConfig(
            scenario=args.scenario,
            suite=args.suite,
            seed=args.seed,
            points=args.points,
            tolerances=parse_tolerances(args.tol),
            workers=args.workers,
        )
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    status, document = run(config)
    if "error" in document:
        print(f"configuration error: {document['error']}", file=sys.stderr)
        return 2
    for entry in document["results"]:
        status_str = "PASS" if entry["passed"] else "FAIL"
        line = (
            f"[{status_str}] {entry['identity']:<28s} "
            f"max_rel={entry['max_rel']:.3e} tol={entry['tolerance']:.1e}"
        )
        if entry.get("error"):
            line += f"  ({entry['error']})"
        print(line)
    print(f"scenario={document['config']['scenario']} "
          f"passed={document['passed']} identities={len(document['results'])}")
    if args.report:
        try:
            write_report(document, args.report)
        except OSError as exc:
            reason = exc.strerror or exc
            print(f"configuration error: cannot write report {args.report}: {reason}", file=sys.stderr)
            return 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())
