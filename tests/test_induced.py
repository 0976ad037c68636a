"""Sub- and quotient modules through ``modules._induced`` give the same
matrices as the builders they replaced (``induced_reference``), on every
sub-representation that word products form (those of tests/test_ext_lines.py,
with a Kronecker word for the split's pieces) and on every submodule of every
small class."""

import itertools
import json
from pathlib import Path

import pytest

import induced_reference
from riedtmann_reference import submodules
from iqhall import modules
from iqhall.algebra import iquiver_algebra
from iqhall.hall import IHallAlgebra
from iqhall.modules import ModuleContext
from iqhall.quivers import make_iquiver, validate_iquiver

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"
# the kQ-modules of a Dynkin quiver are interned by partitions with no split,
# so the split's pieces come from the Kronecker quiver's
WORDS = [("a3tau", 3, "2,1,3,2,1"), ("a3tau", 5, "2,1,3,2,1"), ("swap", 3, "1,2,1,1,2"),
         ("kronecker", 3, "1,2,1,2")]


def _algebra(name):
    if name == "kronecker":
        return iquiver_algebra(make_iquiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))
    return iquiver_algebra(validate_iquiver(json.loads((QUIVERS / f"{name}.json").read_text())))


def _same(M, subspaces):
    assert modules.subrep(M, subspaces) == induced_reference.subrep(M, subspaces)
    assert modules.quotient(M, subspaces) == induced_reference.quotient(M, subspaces)[0]


@pytest.mark.parametrize("name, q, word", WORDS)
def test_word_products_build_the_reference_pieces(monkeypatch, name, q, word):
    # the split builds the image and kernel pieces of a module with subrep,
    # and homology builds ker eps with subrep and ker eps / im eps with
    # quotient; each input is checked with both builders
    met = {"subrep": [], "quotient": []}
    for fn in met:
        def recording(M, subspaces, fn=fn, real=getattr(modules, fn)):
            met[fn].append((M, tuple(subspaces)))
            return real(M, subspaces)
        monkeypatch.setattr(modules, fn, recording)
    engine = IHallAlgebra(_algebra(name), q)
    engine.word_product(word.split(","))
    monkeypatch.undo()
    assert len(met["subrep"]) > 10 and met["quotient"]
    for M, subspaces in met["subrep"] + met["quotient"]:
        _same(M, subspaces)


@pytest.mark.parametrize("name, q, total", [("a2split", 2, 4), ("a3tau", 2, 3)])
def test_every_submodule_of_every_class(name, q, total):
    ctx = ModuleContext(_algebra(name), q)
    checked = 0
    for dims in itertools.product(range(total + 1), repeat=len(ctx.algebra.vertices)):
        if not 0 < sum(dims) <= total:
            continue
        for mid in ctx.enumerate_iso_classes(dict(zip(ctx.algebra.vertices, dims))):
            M = ctx.rep(mid)
            for subspaces in submodules(M):
                _same(M, subspaces)
                checked += 1
    assert checked > 100
