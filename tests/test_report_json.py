"""`write_report` writes JSON byte for byte as the stdlib encoder does.

The layout is a contract: keys sorted, two spaces of indent, numpy scalars
as plain JSON values, one trailing newline.
"""

import json
import math

import numpy as np
import pytest

from guessbound import cli
from test_cli import FAST

nan, inf = math.nan, math.inf


def stdlib_text(value):
    return json.dumps(value, indent=2, sort_keys=True, default=cli._json_default) + "\n"


def written_text(value, capsys):
    cli.write_report(value, "json", "-")
    return capsys.readouterr().out


def assert_same_text(value, capsys):
    assert written_text(value, capsys) == stdlib_text(value)


def scenario_report(argv):
    scenario, config = cli.resolve_config(cli.build_parser().parse_args(argv))
    config.pop("out", None)
    return cli.build_report(scenario, config)


SCENARIO_ARGVS = [
    *([scenario, "--no-timestamp", *extra] for scenario, extra in FAST.items()),
    ["pa", "--n", "6", "--s", "2", "--samples", "2", "--no-timestamp"],
    ["pa", "--k", "2", "--samples", "2", "--no-timestamp"],
    ["bound-sweep", "--n", "4", "--samples", "1", "--no-timestamp"],
    ["appendix-verify"],  # with its generated_at timestamp
]


@pytest.mark.parametrize("argv", SCENARIO_ARGVS, ids=" ".join)
def test_scenario_reports_match_stdlib(argv, capsys):
    assert_same_text(scenario_report(argv), capsys)


def block(*leaves):
    """A (2, 2, 2) float nest holding `leaves` first, then 0.5s."""
    values = [*leaves, *[0.5] * (8 - len(leaves))]
    return np.reshape(values, (2, 2, 2)).tolist()


def deep(rank):
    """[[...[0.5]...]] with `rank` levels of lists."""
    value = 0.5
    for _ in range(rank):
        value = [value]
    return value


EDGE_CASES = {
    "nan in block": block(0.25, nan),
    "inf in block": block(inf, 0.25),
    "-inf in block": [[-inf, 0.5], [0.25, 0.125]],
    "-0.0 in block": block(-0.0, 0.0),
    "extreme floats in block": [5e-324, 1e16, 1e-05, 1.7976931348623157e308, -1e-07],
    "scalars": {"nan": nan, "inf": inf, "-inf": -inf, "-0.0": -0.0, "tiny": 5e-324,
                "1e16": 1e16, "1e-05": 1e-05},
    "numpy scalars": {"f64": np.float64(0.1), "f32": np.float32(0.1), "i64": np.int64(-3),
                      "bool": np.bool_(True), "nan64": np.float64(nan)},
    "numpy scalars in lists": [[np.float64(0.5), 0.25], [np.float32(0.5), 0.25],
                               [np.int64(1), 2], [np.bool_(False), 0.5], [np.float64(-0.0)]],
    "ints and bools among floats": [[1, 1.0], [True, 0.5], [0.5, None], [0.5, "0.5"]],
    "ragged": [[[0.5, 0.25], [0.125]], [[0.5], [0.25]], [[0.5, [0.25]], [0.5, 0.25]]],
    "rectangular inside ragged": [[[0.5, 0.25]], [[0.5, 0.25], [0.125, 1.0]]],
    "empty containers": [[], {}, [[]], [[], []], [{}], {"a": {}, "b": [], "c": [[[]]]},
                         [[0.5], []], [[[]], [[]]]],
    "empty top-level list": [],
    "empty top-level dict": {},
    "tuples": {"flat": (0.5, 0.25), "nested": ((0.5,), (0.25,)),
               "mixed": [(0.5, 0.25), [0.5, 0.25]]},
    "one-element nests": [[0.5], [[0.5]], [[[[0.5]]]]],
    "top-level block": [[0.5, 0.25], [0.125, 0.0625]],
    "top-level float": 0.1,
    "same shape at several levels": {"a": [[0.5, 0.25]], "b": {"c": [[0.5, 0.25]]},
                                     "d": [{"e": [[0.5, 0.25]]}]},
    "deeper than the block rank limit": deep(40),
    "strings": ["é", "☃", "\U0001F600", "\x00\x1f\x7f", '"\\/', "\ud800", "tab\there"],
    "non-ascii and control keys": {"é": 1, "\n": 2, "\x00": 3, "a\"b": [0.5]},
    "int keys": {2: "b", 10: "c", -1: "a"},
    "float keys": {0.5: 1, 1.5: 2, nan: 3},
    "bool and none keys": {True: 1, False: 0},
    "none key": {None: [0.5, 0.25]},
    "big ints": [2**64, -(2**70), 0],
    "literals": [None, True, False],
}


@pytest.mark.parametrize("value", EDGE_CASES.values(), ids=EDGE_CASES.keys())
def test_edge_cases_match_stdlib(value, capsys):
    assert_same_text(value, capsys)


@pytest.mark.parametrize("value", [{(1, 2): 0.5}, [np.zeros(2)], {"a": object()}])
def test_unencodable_values_raise_like_stdlib(value, capsys):
    with pytest.raises(TypeError):
        stdlib_text(value)
    with pytest.raises(TypeError):
        written_text(value, capsys)


def test_write_report_writes_the_same_bytes_to_file_and_stdout(tmp_path, capsys):
    report = scenario_report(["pa", "--samples", "2", "--no-timestamp"])
    expected = stdlib_text(report).encode()
    cli.write_report(report, "json", str(tmp_path / "report.json"))
    assert (tmp_path / "report.json").read_bytes() == expected
    cli.write_report(report, "json", "-")
    assert capsys.readouterr().out.encode() == expected
