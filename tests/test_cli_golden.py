"""Pinned outputs of the CLI: the sha256 of each command's ``result`` block
and its exit code, run in-process with --no-cache, and again with one cache
directory, first cold and then warm.  The ``config`` block names the cache
directory, so it stays out of the digest.

A change that means to alter one of these outputs (a new registry order,
say) must declare it; then ``python tests/test_cli_golden.py`` prints the
digests to pin in ``tests/cli_golden.json``.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from iqhall.cli import main
from iqhall.util import canonical_json

HERE = Path(__file__).resolve().parent
QUIVERS = HERE.parent / "scripts" / "quivers"
GOLDEN = HERE / "cli_golden.json"

# a module factor whose eps has a nonzero diagonal block and nonzero homology:
# its normal form is the one place a product takes such a homology
LAMBDA_FACTORS = json.dumps([
    {"module": {"dims": {"1": 1, "2": 3},
                "maps": {"a": [[0], [1], [1]], "eps_2": [[0, 0, 0], [1, 0, 0], [0, 0, 0]]}}},
    {"simple": "2"}, {"simple": "3"}])
COMMANDS = {
    "algebra-d4split-q3": ["algebra", "d4split", "--q", "3"],
    "hall-mul-a3tau-q7": ["hall", "mul", "--quiver", "a3tau", "--q", "7", "--word", "2,1,3,2,1"],
    "hall-mul-d4split-q3": ["hall", "mul", "--quiver", "d4split", "--q", "3",
                            "--word", "1,2,3,1,1"],
    "verify-serre-a3tau-q5": ["verify", "serre", "--quiver", "a3tau", "--q", "5"],
    "verify-reduced-a2split-q2": ["verify", "reduced", "--quiver", "a2split", "--q", "2",
                                  "--sigma", "1=1,2=3/2"],
    "verify-rank2-q3": ["verify", "rank2", "--q", "3"],
    "verify-bridgeland-a2split-q3": ["verify", "bridgeland", "--quiver", "a2split", "--q", "3"],
    "verify-euler-swap-q2": ["verify", "euler", "--quiver", "swap", "--q", "2"],
    "bases-monomial-a2split-q2": ["bases", "monomial", "--quiver", "a2split", "--q", "2",
                                  "--cap", "4"],
    "bases-pbw-a3tau-q2": ["bases", "pbw", "--quiver", "a3tau", "--q", "2", "--cap", "3"],
    "hall-generic-a2split": ["hall", "generic", "--quiver", "a2split", "--word", "2,2,1,1"],
    "modules-enumerate-a2split-q2": ["modules", "enumerate", "--quiver", "a2split", "--q", "2",
                                     "--dims", "3,3"],
    "hall-mul-factors-a3tau-q3": ["hall", "mul", "--quiver", "a3tau", "--q", "3",
                                  "--factors", LAMBDA_FACTORS],
}


def _argv(args, cache=("--no-cache",)):
    """The quiver names become paths under scripts/quivers."""
    out = list(cache)
    for prev, arg in zip([None] + args, args):
        out.append(str(QUIVERS / f"{arg}.json") if prev in ("--quiver", "algebra") else arg)
    return out


def digest(name, cache=("--no-cache",)):
    """(sha256 of the canonical result block, exit code) of one command."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(_argv(COMMANDS[name], cache))
    result = json.loads(buf.getvalue())["result"]
    return {"sha256": hashlib.sha256(canonical_json(result).encode()).hexdigest(), "exit": code}


def test_the_pin_covers_every_command():
    assert set(json.loads(GOLDEN.read_text())) == set(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_output_matches_the_pin(name):
    assert digest(name) == json.loads(GOLDEN.read_text())[name]


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cold_then_warm_cache_matches_the_pin(name, tmp_path):
    # the first run fills the cache, the second reads it
    cache = ("--cache-dir", str(tmp_path))
    pinned = json.loads(GOLDEN.read_text())[name]
    assert digest(name, cache) == pinned
    assert digest(name, cache) == pinned


if __name__ == "__main__":
    sys.stdout.write(json.dumps({name: digest(name) for name in sorted(COMMANDS)},
                                indent=1, sort_keys=True) + "\n")
