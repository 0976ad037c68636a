"""The certificate that End M is local with residue field F_p, and what rests
on it: the Krull-Schmidt split skips the walk over the lines of End M, and
|Aut M| (``riedtmann_reference``) has a closed form.  The line walk stays the
oracle for both."""

import itertools
import json
from pathlib import Path

import pytest

import hall_reference
from riedtmann_reference import aut_count
from iqhall import linalg, modules
from iqhall.algebra import iquiver_algebra
from iqhall.errors import CapExceeded
from iqhall.hall import IHallAlgebra
from iqhall.linalg import FpMatrix
from iqhall.modules import (ModuleContext, direct_sum, hom_combine, hom_is_invertible, hom_space,
                            make_rep)
from iqhall.quivers import make_iquiver, validate_iquiver

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"
# (quiver, q, largest total dimension): every class is enumerated
CLASSES = [("a2split", 2, 4), ("a2split", 3, 3), ("a3tau", 2, 3), ("a3split", 2, 3),
           ("swap", 3, 3)]
# the word products of tests/test_ext_lines.py
WORDS = [("a3tau", 3, "2,1,3,2,1"), ("a3tau", 5, "2,1,3,2,1"), ("swap", 3, "1,2,1,1,2"),
         ("a3split", 5, "1,2,2,3")]


def _algebra(name):
    return iquiver_algebra(validate_iquiver(json.loads((QUIVERS / f"{name}.json").read_text())))


def _classes(name, q, total):
    ctx = ModuleContext(_algebra(name), q)
    mids = set()
    for dims in itertools.product(range(total + 1), repeat=len(ctx.algebra.vertices)):
        if 0 < sum(dims) <= total:
            mids.update(ctx.enumerate_iso_classes(dict(zip(ctx.algebra.vertices, dims))))
    return ctx, [ctx.rep(mid) for mid in sorted(mids)]


def _middle_terms(monkeypatch, name, q, word):
    built = []
    extension_keys = modules._extension_keys

    def recording(arrows, M, N, only=None):
        width, live, build = extension_keys(arrows, M, N, only)
        if only is not None:   # the closed form's xi' over the Q-arrows, not the walk
            return width, live, build

        def record(f):
            built.append(build(f))
            return built[-1]
        return width, live, record
    monkeypatch.setattr(modules, "_extension_keys", recording)
    engine = IHallAlgebra(_algebra(name), q)
    hall_reference.walked_word_product(engine, word)
    monkeypatch.undo()
    ctx = engine.ctx
    return ctx, [modules._from_exact(ctx.algebra, q, E) for E in built]


def _aut_by_lines(ctx, M):
    """|Aut M| by testing every line of End M."""
    es = hom_space(M, M)
    return (ctx.p - 1) * sum(hom_is_invertible(hom_combine(es, c))
                             for c in linalg.iter_monic_vectors(ctx.p, es.dim))


def _same_split_without_the_certificate(monkeypatch, ctx, reps):
    """Split every rep in a fresh context with the certificate, and in one
    more with it off, so that every End is walked line by line; the pieces
    must be the same matrices.  Returns how many reps it certified."""
    on = ModuleContext(ctx.algebra, ctx.p)
    pieces = [on._split_raw(rep) for rep in reps]
    certified = [on._local(rep, hom_space(rep, rep)) for rep in reps]
    with monkeypatch.context() as m:
        m.setattr(ModuleContext, "_local", lambda self, rep, es: False)
        off = ModuleContext(ctx.algebra, ctx.p)
        assert [off._split_raw(rep) for rep in reps] == pieces
    for rep, parts, local in zip(reps, pieces, certified):
        # the certificate never accepts a decomposable module
        assert not local or parts == (rep,)
    return sum(certified)


@pytest.mark.parametrize("name, q, total", CLASSES)
def test_certificate_splits_every_class_as_the_walk(monkeypatch, name, q, total):
    ctx, reps = _classes(name, q, total)
    assert _same_split_without_the_certificate(monkeypatch, ctx, reps) > 0


@pytest.mark.parametrize("name, q, word", WORDS)
def test_certificate_splits_every_middle_term_as_the_walk(monkeypatch, name, q, word):
    ctx, built = _middle_terms(monkeypatch, name, q, word)
    reps = list({(rep.dims, rep.maps): rep for rep in built}.values())
    assert len(reps) > 10
    assert _same_split_without_the_certificate(monkeypatch, ctx, reps) > 0


def test_certificate_refuses_decomposables():
    ctx = ModuleContext(_algebra("a2split"), 3)
    s1, s2, e1 = ctx.simple("1"), ctx.simple("2"), ctx.gen_simple("1")
    for M in (direct_sum([s1, s1]), direct_sum([s1, s2]), direct_sum([e1, s1]),
              direct_sum([e1, e1])):
        assert not ctx._local(M, hom_space(M, M))
    assert ctx._local(s1, hom_space(s1, s1)) and ctx._local(e1, hom_space(e1, e1))


def _f4_kronecker():
    """Over the Kronecker quiver, a = 1 and b the companion matrix of
    x^2 + x + 1 give an indecomposable with End = F_4 at q = 2."""
    alg = iquiver_algebra(make_iquiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]))
    M = make_rep(alg, 2, {"1": 2, "2": 2}, {"a": FpMatrix.identity(2, 2),
                                           "b": FpMatrix.from_rows(2, [[0, 1], [1, 1]])})
    return ModuleContext(alg, 2), M


def test_certificate_refuses_a_larger_residue_field():
    # not certified, so the split and |Aut| fall back to the walk over the
    # lines of End
    ctx, M = _f4_kronecker()
    es = hom_space(M, M)
    assert es.dim == 2 and not ctx._local(M, es)
    assert ctx._split_raw(M) == (M,)
    assert aut_count(ctx, M) == _aut_by_lines(ctx, M) == 3


def test_aut_count_walk_keeps_the_line_budget(monkeypatch):
    # End M = F_4 has 3 lines over F_2; the split of M is memoized under the
    # default budget, so only the walk of |Aut M| meets the lowered one
    ctx, M = _f4_kronecker()
    assert ctx._split_raw(M) == (M,)
    monkeypatch.setattr(modules, "ENUM_BUDGET", 3)
    assert aut_count(ctx, M) == 3
    monkeypatch.setattr(modules, "ENUM_BUDGET", 2)
    with pytest.raises(CapExceeded, match="3 lines of End above budget 2"):
        aut_count(ctx, M)


def test_certificate_spares_the_line_budget(monkeypatch):
    # k[eps]/(eps^2) has End of dimension 2, so 4 lines at q = 3: above a
    # budget of 3, the walk over the other lines would raise, and the
    # certificate answers instead
    monkeypatch.setattr(modules, "ENUM_BUDGET", 3)
    ctx = ModuleContext(_algebra("a2split"), 3)
    E = ctx.gen_simple("1")
    assert hom_space(E, E).dim == 2
    assert ctx._split_raw(E) == (E,)
    monkeypatch.setattr(ModuleContext, "_local", lambda self, rep, es: False)
    with pytest.raises(CapExceeded, match="4 lines of End above budget 3"):
        ModuleContext(ctx.algebra, 3)._split_raw(E)


@pytest.mark.parametrize("name, q, total", CLASSES)
def test_aut_count_in_closed_form_equals_the_walk(name, q, total):
    ctx, reps = _classes(name, q, total)
    checked = 0
    for M in reps:
        # no summand falls back to the walk
        assert all(ctx._local(piece, hom_space(piece, piece)) for piece in ctx._split_raw(M))
        if hom_space(M, M).dim <= 8:
            assert aut_count(ctx, M) == _aut_by_lines(ctx, M)
            checked += 1
    assert checked > 10


def _gl_order(q, n):
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def test_aut_count_of_a_cube_needs_no_walk():
    # End(S1 + S1 + S1) has dimension 9: 488,281 lines at q = 5
    ctx = ModuleContext(_algebra("a2split"), 5)
    s1, s2 = ctx.simple("1"), ctx.simple("2")
    registry = ctx.registry_size()
    assert aut_count(ctx, direct_sum([s1, s1, s1])) == _gl_order(5, 3)
    # simples at two vertices have no maps between them, so rad End is zero
    assert aut_count(ctx, direct_sum([s1, s2, s1])) == _gl_order(5, 2) * _gl_order(5, 1)
    assert ctx.registry_size() == registry   # nothing is interned
