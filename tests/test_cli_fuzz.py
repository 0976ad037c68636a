"""The CLI exit contract, fuzzed over every subcommand and flag.

The subcommands and their flags are read from ``build_parser()``, so a new
flag without a value strategy below fails the test.  Valid sizes stay small
(a1 and a2split, q in {2, 3}, words and dimension vectors of total <= 3) so
that every call is cheap; invalid values of every kind are drawn as well.
"""

import argparse
import contextlib
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from iqhall.cli import build_parser, main

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"
QUIVER_FILES = [str(QUIVERS / "a1.json"), str(QUIVERS / "a2split.json")]

# global flags the fuzzer sets itself (--no-cache) or never passes, so that
# no run reads or writes a file outside the test
GLOBAL = {"--no-cache", "--cache-dir", "--out", "-h", "--help"}

JUNK = st.sampled_from(["1.5", "x", ""])


def ints(low, high):
    return st.integers(low, high).map(str)


def joined(item, sep=","):
    return st.lists(item, min_size=1, max_size=3).map(sep.join)


@st.composite
def dims(draw, low):
    entries = draw(st.lists(st.integers(low, 3), min_size=1, max_size=2))
    if sum(max(d, 0) for d in entries) > 3:
        entries = [min(d, 1) for d in entries]
    return ",".join(map(str, entries))


PRIME = st.sampled_from(["2", "3"])
NOT_PRIME = st.sampled_from(["0", "1", "4", "-3"]) | JUNK
JSON_VALUE = st.sampled_from([-1, 0, 1, 1.5, True, "1", "x", None])
FACTOR = st.one_of(
    st.fixed_dictionaries({"simple": st.sampled_from(["1", "2", "9", 1, None])}),
    st.fixed_dictionaries({"torus": st.dictionaries(st.sampled_from(["1", "2", "9"]),
                                                    JSON_VALUE, max_size=2)}),
    st.fixed_dictionaries({"module": st.fixed_dictionaries(
        {"dims": st.dictionaries(st.sampled_from(["1", "2", "9"]), JSON_VALUE, max_size=2)},
        optional={"maps": st.dictionaries(
            st.sampled_from(["a", "eps_1", "zz"]),
            st.sampled_from([[[1]], [[1.5]], [[True]], [], [[0, 1], [1, 0]], [[0, 1], [1]],
                             "x", [1]]),
            max_size=2)})}),
    st.sampled_from([5, "x", None, [], {}]),
)

# per flag: (values that parse, values that do not)
VALUES = {
    "--quiver": (st.sampled_from(QUIVER_FILES), st.just(str(QUIVERS / "missing.json"))),
    "--q": (PRIME, NOT_PRIME),
    "--check": (PRIME, NOT_PRIME),
    "--primes": (joined(PRIME), joined(PRIME | NOT_PRIME)),
    "--dims": (dims(0), dims(-2) | JUNK),
    "--budget": (ints(0, 3), ints(-3, -1) | JUNK),
    "--cap": (ints(1, 3), ints(-2, 0) | JUNK),
    "--samples": (ints(1, 3), ints(-2, 0) | JUNK),
    "--word": (joined(st.sampled_from(["1", "2"])), joined(st.sampled_from(["1", "9", ""]))),
    "--factors": (st.lists(FACTOR, max_size=3).map(json.dumps),
                  st.sampled_from(["notjson", "{}", "5", "", "[", "null"])),
    "--sigma": (st.sampled_from(["1=1", "1=3/2,2=1", "1=2,2=3", "9=2", "1=0"]),
                st.sampled_from(["1=x", "=2", "1=1/0", "1", ""])),
    "--order": (st.sampled_from(["1,0;0,1;1,1", "1,1;1,0;0,1", "1", "0,1;1,0"]),
                st.sampled_from(["1,x", "-1,0", "", "1;;0"])),
}
VALUES["quiver"] = VALUES["--quiver"]


def _subparsers(parser):
    return next((a for a in parser._actions if isinstance(a, argparse._SubParsersAction)), None)


def _commands(parser, path=()):
    """(path, parser) of every leaf subcommand."""
    sub = _subparsers(parser)
    if sub is None:
        return [(path, parser)]
    return [leaf for name, child in sub.choices.items()
            for leaf in _commands(child, path + (name,))]


ROOT = build_parser()
COMMANDS = _commands(ROOT)


def _flags(parser):
    return [a for a in parser._actions
            if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))]


def test_every_flag_has_a_value_strategy():
    for action in _flags(ROOT):
        assert set(action.option_strings) <= GLOBAL
    for path, parser in COMMANDS:
        for action in _flags(parser):
            if action.choices:
                continue
            key = action.option_strings[0] if action.option_strings else action.dest
            assert key in VALUES, f"{' '.join(path)}: no value strategy for {key}"


@st.composite
def argvs(draw):
    """Each value parses five times in six; a required flag is left out one
    time in eight, an optional one time in three."""
    path, parser = draw(st.sampled_from(COMMANDS))
    argv = ["--no-cache", *path]
    for action in _flags(parser):
        key = action.option_strings[0] if action.option_strings else action.dest
        if action.choices:
            value = draw(st.sampled_from(action.choices))
        else:
            good, bad = VALUES[key]
            value = draw(good if draw(st.sampled_from(range(6))) else bad)
        if not action.option_strings:
            argv.append(value)
        elif draw(st.sampled_from(range(8 if action.required else 3))):
            argv.append(f"{key}={value}")
    return argv


@settings(derandomize=True, deadline=None, database=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_cli_keeps_its_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    if code in (0, 1):
        assert err == "" and out.endswith("\n") and out.count("\n") == 1
        assert set(json.loads(out)) == {"tool", "version", "config", "result"}
    else:
        assert out == ""
        [line] = err.splitlines()
        error = json.loads(line)
        assert set(error) == {"error", "kind"}
        assert error["kind"] == ("input" if code == 2 else "resource")
