"""Ext^1 by a projective presentation, kept as a test oracle for the cochain
complex.

``ModuleContext.ext1_classify`` reads Ext^1(M, N) off the relations: a
complement of the coboundaries in the cocycles, and the middle term E_f of
each class written down directly.  This module takes the long way round.  It
builds the projective cover P0 ->> M along top(M) and the syzygy Omega, reads
dim Ext^1 off the long exact sequence

    0 -> Hom(M,N) -> Hom(P0,N) -> Hom(Omega,N) -> Ext^1(M,N) -> 0,

finds Ext^1 as Hom(Omega, N) modulo the maps that extend to P0, and forms
the middle term of the class of xi as (N + P0) / {(xi w, -incl w)}.  It
walks the same lines as ``ext1_classify``, in the same order, and interns
each middle term.  ``ext2_dim`` is dim Ext^1(Omega, N) by the same identity.

``ext1_basis_by_elimination`` is ``modules._ext1_basis`` without its
shortcut for maps that all vanish: one RREF of [delta | Z] on every pair.
"""

import itertools
from typing import Dict, List

from induced_reference import quotient
from iqhall import linalg
from iqhall.errors import PresentationFailure
from iqhall.linalg import FpMatrix, Subspace
from iqhall.modules import (HomSpace, _cocycle_system, _delta_rows, _vertex_offsets, direct_sum,
                            hom_combine, hom_space, subrep)
from linalg_reference import transpose


def path_action_matrix(rep, b):
    """Matrix of a basis path acting on rep (eps applied first)."""
    alg = rep.algebra
    m = FpMatrix.identity(rep.p, rep.dims[alg.vidx[b.src]])
    if b.eps is not None:
        m = rep.map(alg.eps_of_vertex[b.eps]) @ m
    for aid in b.arrows:
        m = rep.map(aid) @ m
    return m


def projective_cover(ctx, M):
    """(P0, pi) with pi: P0 ->> M the cover along top(M) = M / rad M."""
    alg, p = ctx.algebra, ctx.p
    summands = []
    for i, v in enumerate(alg.vertices):
        ins = [M.map(a.id) for a in alg.arrow_map.values() if a.tgt == v]
        radv = linalg.image_basis(linalg.hstack(ins)) if ins else Subspace.zero(p, M.dims[i])
        piv = set(radv.pivots())
        for c in range(M.dims[i]):
            if c not in piv:
                summands.append((v, tuple(int(k == c) for k in range(M.dims[i]))))
    if not summands:
        if M.total_dim:
            raise PresentationFailure("nonzero module with empty top")
        return ctx.zero(), tuple(FpMatrix.zeros(p, 0, 0) for _ in alg.vertices)
    P0 = direct_sum([ctx.projective(v) for v, _ in summands])
    # each basis path of each summand lands where the path acts on the
    # chosen top lift, in the order regular_projective lists the paths
    cols_at: Dict[str, List[tuple]] = {u: [] for u in alg.vertices}
    for v, lift in summands:
        for u in alg.vertices:
            for b in alg.basis:
                if b.src == v and b.tgt == u:
                    cols_at[u].append(path_action_matrix(M, b).apply(lift))
    pi = []
    for i, v in enumerate(alg.vertices):
        cols = cols_at[v]
        mat = FpMatrix.from_rows(p, [[col[r] for col in cols] for r in range(M.dims[i])],
                                 cols=len(cols)) if cols else FpMatrix.zeros(p, M.dims[i], 0)
        if linalg.rank(mat) != M.dims[i]:
            raise PresentationFailure("projective cover is not surjective")
        pi.append(mat)
    return P0, tuple(pi)


def syzygy(ctx, M):
    """(Omega, inclusion into P0, P0) for the cover P0 ->> M."""
    P0, pi = projective_cover(ctx, M)
    kernels = [linalg.kernel_basis(m) for m in pi]
    # subrep uses the RREF basis of each kernel, so those are the columns
    incl = tuple(transpose(k.basis) for k in kernels)
    return subrep(P0, kernels), incl, P0


def ext1_dim(ctx, M, N):
    """dim Hom(Omega,N) - dim Hom(P0,N) + dim Hom(M,N), by the long exact
    sequence of Hom(-, N) on 0 -> Omega -> P0 -> M -> 0."""
    if M.total_dim == 0:
        return 0
    omega, _, P0 = syzygy(ctx, M)
    return hom_space(omega, N).dim - hom_space(P0, N).dim + hom_space(M, N).dim


def ext2_dim(ctx, M, N):
    if M.total_dim == 0:
        return 0
    omega, _, _ = syzygy(ctx, M)
    return ext1_dim(ctx, omega, N)


def ext1_classify(ctx, M, N):
    """(pairs, hom_dim, ext_dim) as ``ModuleContext.ext1_classify`` gives
    them, by the graph quotient of N + P0 for each line of Ext^1."""
    p = ctx.p
    hom_dim = hom_space(M, N).dim
    if M.total_dim == 0:
        return ((ctx.intern(N), 1),), hom_dim, 0
    omega, incl, P0 = syzygy(ctx, M)
    flat = lambda hom: tuple(x for m in hom for row in m.data for x in row)
    width = sum(n * w for n, w in zip(N.dims, omega.dims))
    span = Subspace.from_vectors(p, width, [
        flat(tuple(fv @ iv for fv, iv in zip(f, incl))) for f in hom_space(P0, N).basis])
    complements = []
    for hom in hom_space(omega, N).basis:
        if not span.contains_vector(flat(hom)):
            complements.append(hom)
            span = span.sum(Subspace.from_vectors(p, width, [flat(hom)]))
    ext_dim = len(complements)
    assert ext_dim == ext1_dim(ctx, M, N)
    ext_basis = HomSpace(omega, N, tuple(complements))
    D = direct_sum([N, P0])
    bottoms = [[tuple(-x % p for x in col) for col in transpose(j).data]
               for j in incl]   # the columns of -incl
    counts: Dict[int, int] = {}
    lines = linalg.iter_monic_vectors(p, ext_dim)
    for coeffs, weight in itertools.chain([((0,) * ext_dim, 1)], ((c, p - 1) for c in lines)):
        xi = hom_combine(ext_basis, coeffs)
        graph = [Subspace.from_vectors(p, d, [t + b for t, b in zip(transpose(x).data, bots)])
                 for x, bots, d in zip(xi, bottoms, D.dims)]
        E = quotient(D, graph)
        mid = ctx.intern(E)
        counts[mid] = counts.get(mid, 0) + weight
    return tuple(sorted(counts.items())), hom_dim, ext_dim


def ext1_basis_by_elimination(M, N):
    """(basis of Ext^1(M, N) as cocycles, dim Hom(M, N)) off the pivots of
    the RREF of [delta | Z], as ``modules._ext1_basis`` reads them."""
    c0 = _vertex_offsets(M, N)[1]
    cocycles = linalg.kernel_basis(_cocycle_system(M, N)).basis.data
    stacked = FpMatrix.from_rows(M.p, [row + [z[r] for z in cocycles]
                                       for r, row in enumerate(_delta_rows(M, N))],
                                 cols=c0 + len(cocycles))
    _, rank, pivots = linalg.rref(stacked)
    if rank != len(cocycles):
        raise PresentationFailure("a coboundary breaks the relations")
    return [cocycles[c - c0] for c in pivots if c >= c0], c0 - sum(c < c0 for c in pivots)
