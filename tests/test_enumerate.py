"""Relation-aware enumeration against the brute force over every matrix
tuple: the enumerated classes are exactly the classes of the tuples that
satisfy the relations, and a tripped budget interns nothing."""

import dataclasses
import itertools
import json
from pathlib import Path

import pytest

from enumerate_reference import commutation_kernel, iter_matrices
from iqhall import linalg
from iqhall.algebra import BoundAlgebra, iquiver_algebra, path_algebra
from iqhall.errors import BudgetExceeded, InputError
from iqhall.linalg import FpMatrix
from iqhall.modules import (ModuleContext, Rep, _cocycle_system, _eps_normal_forms,
                            satisfies_relations)
from iqhall.quivers import Arrow, enriched_quiver, validate_iquiver

QUIVERS = Path(__file__).resolve().parent.parent / "scripts" / "quivers"
# The sweeps skip vectors with 2^16 raw tuples or more.  At q=2 and total
# <= 4 those are one vertex of dimension 4 with every other vertex zero: the
# same eps-only problem on every quiver, about 8 s of brute force each, so
# it is checked once, on a1.
RAW_LIMIT = 2 ** 16


def _iquiver(name):
    return validate_iquiver(json.loads((QUIVERS / f"{name}.json").read_text()))


def _shapes(alg, dims):
    vidx = {v: i for i, v in enumerate(alg.vertices)}
    arrows = sorted(alg.arrow_map.values(), key=lambda a: a.id)
    return arrows, [(dims[vidx[a.tgt]], dims[vidx[a.src]]) for a in arrows]


def raw_count(alg, q, dims):
    return q ** sum(r * c for r, c in _shapes(alg, dims)[1])


def raw_modules(alg, q, dims):
    """Every matrix tuple on F_q^dims that satisfies the relations."""
    arrows, shapes = _shapes(alg, dims)
    for combo in itertools.product(*[iter_matrices(q, r, c) for r, c in shapes]):
        rep = Rep(alg, q, dims, tuple((a.id, m) for a, m in zip(arrows, combo)))
        if satisfies_relations(rep):
            yield rep


def _check_classes(ctx, dims):
    mids = ctx.enumerate_iso_classes(dict(zip(ctx.algebra.vertices, dims)))
    # a tuple outside the enumerated classes would intern under a new id of
    # these dims; interning may add only summands of smaller dims
    hit = {ctx.intern(rep) for rep in raw_modules(ctx.algebra, ctx.p, dims)}
    assert hit == set(mids), dims


def _dims_up_to(alg, total):
    return [d for d in itertools.product(range(total + 1), repeat=len(alg.vertices))
            if 0 < sum(d) <= total]


@pytest.mark.parametrize("name", sorted(p.stem for p in QUIVERS.glob("*.json")))
def test_classes_match_brute_force_q2(name):
    ctx = ModuleContext(iquiver_algebra(_iquiver(name)), 2)
    checked = [dims for dims in _dims_up_to(ctx.algebra, 4)
               if raw_count(ctx.algebra, 2, dims) < RAW_LIMIT]
    for dims in checked:
        _check_classes(ctx, dims)
    assert checked


@pytest.mark.parametrize("name", ["a3tau", "swap"])
def test_classes_match_brute_force_q3(name):
    ctx = ModuleContext(iquiver_algebra(_iquiver(name)), 3)
    for dims in _dims_up_to(ctx.algebra, 3):
        if raw_count(ctx.algebra, 3, dims) < RAW_LIMIT:
            _check_classes(ctx, dims)


def test_classes_match_brute_force_square_zero_4x4():
    # Jordan types with r = 0, 1, 2 blocks of size 2 at a tau-fixed vertex
    ctx = ModuleContext(iquiver_algebra(_iquiver("a1")), 2)
    _check_classes(ctx, (4,))


def test_classes_match_brute_force_path_algebra():
    ctx = ModuleContext(path_algebra(_iquiver("a2split")), 2)
    for dims in ((2, 1), (1, 2)):
        _check_classes(ctx, dims)


@pytest.mark.parametrize("q,total", [(2, 4), (3, 4)])
@pytest.mark.parametrize("name", sorted(p.stem for p in QUIVERS.glob("*.json")))
def test_system_matches_commutation_rows(name, q, total):
    # RREF depends only on the row space, so the cocycle system at each eps
    # normal form has the kernel basis of the old commutation rows, row for
    # row: the interning order, and so every registry id, stays the same.
    # Total 4 at q=3 is the first size where both sides of a sliding
    # relation are nonzero, so a wrong sign shows (at q=2 it never does).
    for alg in (iquiver_algebra(_iquiver(name)), path_algebra(_iquiver(name))):
        vidx = alg.vidx
        for dims in _dims_up_to(alg, total):
            zeros = {a.id: FpMatrix.zeros(q, dims[vidx[a.tgt]], dims[vidx[a.src]])
                     for a in alg.q_arrows}
            for eps in _eps_normal_forms(alg, q, dims, 10 ** 6):
                R = Rep(alg, q, dims, tuple(sorted({**zeros, **eps}.items())))
                basis = linalg.kernel_basis(_cocycle_system(R, R, zeros)).basis.data
                assert basis == commutation_kernel(alg, q, dims, eps), (dims, eps)


def test_budget_counts_candidates_before_interning():
    # a2split (2,2) at q=2 has four eps normal forms with 16 + 4 + 4 + 4
    # candidate tuples, so 27 trips only once the last kernel is known
    ctx = ModuleContext(iquiver_algebra(_iquiver("a2split")), 2)
    ctx.enumerate_iso_classes({"1": 1, "2": 1})
    size = ctx.registry_size()
    with pytest.raises(BudgetExceeded):
        ctx.enumerate_iso_classes({"1": 2, "2": 2}, budget=27)
    assert ctx.registry_size() == size
    assert len(ctx.enumerate_iso_classes({"1": 2, "2": 2}, budget=28)) == 10


def test_unknown_relation_shape_refused():
    eq = enriched_quiver(_iquiver("a2split"))
    extra = dataclasses.replace(eq, relations=eq.relations + ((("a",), None),))
    ctx = ModuleContext(BoundAlgebra(extra), 2)
    with pytest.raises(InputError):
        ctx.enumerate_iso_classes({"1": 1, "2": 1})
    assert ctx.registry_size() == 0


def test_missing_nilpotent_relation_refused():
    eq = enriched_quiver(_iquiver("a2split"))
    kept = tuple(rel for rel in eq.relations if rel != (("eps_1", "eps_1"), None))
    assert len(kept) == len(eq.relations) - 1
    ctx = ModuleContext(BoundAlgebra(dataclasses.replace(eq, relations=kept)), 2)
    with pytest.raises(InputError, match="eps_v = 0 at every vertex"):
        ctx.enumerate_iso_classes({"1": 1, "2": 1})
    assert ctx.registry_size() == 0


def test_eps_arrow_off_tau_refused():
    eq = enriched_quiver(_iquiver("a2split"))
    eps = tuple(Arrow("eps_1", "1", "2") if a.id == "eps_1" else a for a in eq.eps_arrows)
    ctx = ModuleContext(BoundAlgebra(dataclasses.replace(eq, eps_arrows=eps)), 2)
    with pytest.raises(InputError, match="one eps arrow v -> tau"):
        ctx.enumerate_iso_classes({"1": 1, "2": 1})
    assert ctx.registry_size() == 0
