"""Generated scenario files: loading one, load check included, raises only
package errors, and the CLI runner on one returns a status, never raising."""

from hypothesis import HealthCheck, given, settings, strategies as st

from leviflat.cli import RunConfig, run
from leviflat.errors import LeviFlatError
from leviflat.scenarios import load_scenario_file
from tests.test_scenarios import SCENARIO_TEXT

BASE = SCENARIO_TEXT.splitlines()

ATOMS = ["x", "y", "t", "s", "w", "pi", "0", "1", "-1", "0.3", "700", "1e308", "1e-300", "1e999"]
# exp(700)*exp(700) overflows to inf, whose sine is NaN; 1/0 and 0/0 fold
# to errors, x^1000 overflows
EXPRESSIONS = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(inner, st.sampled_from(["2", "-1", "1000", "0.5", ""])).map(lambda t: f"{t[0]}^{t[1]}"),
    ),
    max_leaves=6,
)
NOISE = st.text(alphabet="xyts01.,=[]()+-*/^# eE\t", max_size=12)
VALUES = st.one_of(EXPRESSIONS, NOISE, st.lists(EXPRESSIONS, min_size=1, max_size=3).map(", ".join))
KEYS = st.sampled_from(["x", "y", "t", "s", "row", "names", "periodic", "name", "w", ""])
HEADERS = st.sampled_from(
    [
        "[chart]", "[gamma]", "[X]", "[frame E3]", "[J]", "[scenario]", "[frame]",
        "[family f.alpha]", "[family f.S]", "[family]", "[family f.beta]", "[", "[]",
        "[witness]", "[S0]", "[witnes]",
    ]
)
LINES = st.one_of(HEADERS, st.tuples(KEYS, VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"), NOISE)
EDITS = st.lists(
    st.tuples(
        st.sampled_from(["value", "insert", "delete", "duplicate"]),
        st.integers(0, len(BASE) - 1),
        st.one_of(VALUES, LINES),
    ),
    max_size=4,
)


def edited(edits):
    lines = list(BASE)
    for kind, index, payload in edits:
        index %= len(lines) or 1
        if kind == "value" and "=" in lines[index]:
            lines[index] = lines[index].split("=", 1)[0] + "= " + payload
        elif kind == "insert":
            lines.insert(index, payload)
        elif kind == "delete" and lines:
            del lines[index]
        elif kind == "duplicate" and lines:
            lines.insert(index, lines[index])
    return "\n".join(lines) + "\n"


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(EDITS)
def test_generated_scenario_files_fail_only_as_package_errors(tmp_path, edits):
    path = tmp_path / "fuzz.scn"
    path.write_text(edited(edits))
    try:
        load_scenario_file(str(path))
    except LeviFlatError:
        pass
    status, document = run(RunConfig(scenario=str(path), suite="frobenius,cor.levi_flat_mc", points=2))
    assert status in (0, 1, 2)
    assert ("error" in document) == (status == 2)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.binary(max_size=200))
def test_raw_byte_files_fail_only_as_package_errors(tmp_path, data):
    """Any bytes, UTF-8 or not, load or fail as a package error."""
    path = tmp_path / "bytes.scn"
    path.write_bytes(data)
    try:
        load_scenario_file(str(path))
    except LeviFlatError:
        pass
    status, document = run(RunConfig(scenario=str(path), suite="frobenius", points=2))
    assert status in (0, 1, 2)
    assert ("error" in document) == (status == 2)
