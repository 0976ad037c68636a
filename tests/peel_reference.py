"""The normal form by peeling, kept as a test oracle for the closed form.

``normalize`` computes X as the eps-homology and alpha as the eps-ranks.
This module searches for the same normal form instead: it splits a module
into indecomposables, keeps the summands with every eps map zero in X, turns
each summand of finite projective dimension into its torus class by peeling
one generalized simple E_v after another off as a submodule, and splits each
mixed indecomposable along an E_v that embeds in it, else along one it maps
onto.  Each split rewrites a class into the class of a direct sum with
scalar one.  The search can fail: ``Stuck`` is raised when no E_v embeds in
or is a quotient of a mixed indecomposable, as on a3split.

``p_leq1_by_subspaces`` is the finite-projective-dimension test that
``ModuleContext.is_p_leq1`` replaced: it compares the kernel and image of the
eps maps as subspaces, where the closed form compares dimensions and ranks.
"""

from fractions import Fraction

from induced_reference import quotient
from iqhall import linalg
from iqhall.modules import direct_sum, hom_combine, hom_space, subrep


def p_leq1_by_subspaces(M):
    """The eps complex of M is exact: ker eps_v = im eps_{tau v} at every v."""
    alg = M.algebra
    eps = {v: M.map(alg.eps_of_vertex[v]) for v in alg.vertices}
    return all(linalg.kernel_basis(eps[v]) == linalg.image_basis(eps[alg.tau[v]])
               for v in alg.vertices)


class Stuck(Exception):
    """The peel found no generalized simple to split off."""


def _find_hom(ctx, hs, wanted):
    for coeffs in linalg.iter_monic_vectors(ctx.p, hs.dim):
        mats = hom_combine(hs, coeffs)
        if wanted(mats):
            return mats
    return None


def injective_from(ctx, small, M):
    """An injective map small -> M, or None."""
    return _find_hom(ctx, hom_space(small, M),
                     lambda mats: all(linalg.rank(m) == m.cols for m in mats))


def surjective_to(ctx, M, small):
    """A surjective map M -> small, or None."""
    return _find_hom(ctx, hom_space(M, small),
                     lambda mats: all(linalg.rank(m) == m.rows for m in mats))


def peel_torus_class(ctx, K, order=None):
    """Generalized-simple filtration factors of a P<=1 module K, peeled as
    submodules, trying the vertices in ``order``."""
    alg = ctx.algebra
    alpha = [0] * len(alg.vertices)
    current = K
    while current.total_dim:
        for v in order or alg.vertices:
            mats = injective_from(ctx, ctx.gen_simple(v), current)
            if mats is not None:
                current = quotient(current, [linalg.image_basis(m) for m in mats])
                alpha[alg.vidx[v]] += 1
                break
        else:
            raise Stuck("P<=1 module with no generalized-simple submodule")
    return tuple(alpha)


def split_mixed(ctx, mid):
    """Split a mixed indecomposable along a generalized-simple submodule
    (preferred) or quotient; returns the ids of the pieces."""
    rep = ctx.rep(mid)
    for v in ctx.algebra.vertices:
        ev = ctx.gen_simple(v)
        mats = injective_from(ctx, ev, rep)
        if mats is not None:
            quot = quotient(rep, [linalg.image_basis(m) for m in mats])
            return [ctx.intern(ev)] + list(ctx.decompose(quot))
    for v in ctx.algebra.vertices:
        ev = ctx.gen_simple(v)
        mats = surjective_to(ctx, rep, ev)
        if mats is not None:
            sub = subrep(rep, [linalg.kernel_basis(m) for m in mats])
            return [ctx.intern(ev)] + list(ctx.decompose(sub))
    raise Stuck(f"mixed indecomposable of dims {rep.dims} has no P<=1 submodule or quotient")


def peel_normalize(engine, rep):
    """(coeff, (xid, alpha)) of rep, found by the peel; raises Stuck."""
    ctx = engine.ctx
    kq_parts = []
    alpha = [0] * len(engine.vertices)
    work = list(ctx.decompose(rep))
    while work:
        mid = work.pop()
        piece = ctx.rep(mid)
        if piece.total_dim == 0:
            continue
        if ctx.is_kq_module(piece):
            kq_parts.append(mid)
        elif p_leq1_by_subspaces(piece):
            for i, b in enumerate(peel_torus_class(ctx, piece)):
                alpha[i] += b
        else:
            work.extend(split_mixed(ctx, mid))
    x_rep = direct_sum([ctx.rep(m) for m in sorted(kq_parts)]) if kq_parts else ctx.zero()
    xdims = x_rep.dims
    pairing = sum(a * sum(d * row[ti] for d, row in zip(xdims, engine.euler))
                  for a, ti in zip(alpha, engine._tau_index) if a)
    twist = -engine.euler_q(xdims, engine._res_alpha(alpha))
    coeff = engine.scalar(Fraction(engine.p) ** pairing) * engine.v_power(twist)
    return coeff, (ctx.intern(x_rep), tuple(alpha))
