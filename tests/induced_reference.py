"""Sub- and quotient representations, and the eps-homology built from them.

``quotient`` reads a class of M / U on the unit vectors at the non-pivot
columns of each subspace U, as the remainder of ``Subspace.reduce``; the
engine no longer builds quotient reps, and the references below use this
one.  ``homology`` is the rep-based eps-homology, ker eps / im eps through
``subrep_by_columns`` and ``quotient``: the oracle of
``ModuleContext.homology``, which reads the same coordinates off exact keys
with ``linalg.subquotient`` and ``linalg.induced_map``.

``subrep_by_columns`` and ``quotient_by_projection`` are the builders the
engine's induced maps replaced, kept as an oracle for them: the first reads
each image in its own loop, and the second forms the projection onto the
non-pivot columns of each subspace as a matrix of functionals."""

from iqhall import linalg
from iqhall.errors import InputError
from iqhall.linalg import FpMatrix, Subspace
from iqhall.modules import make_rep


def quotient(M, subspaces):
    """Quotient of M by arrow-closed subspaces, on the basis of each
    subspace's ``complement``: the class of a unit vector's image is the
    remainder of ``Subspace.reduce``, read at the complement's pivots."""
    alg, p = M.algebra, M.p
    vidx = alg.vidx
    frees = [sub.complement().pivots() for sub in subspaces]
    maps = {}
    for a in alg.arrow_map.values():
        s, t = vidx[a.src], vidx[a.tgt]
        cols = []
        for c in frees[s]:
            unit = tuple(int(k == c) for k in range(M.dims[s]))
            rest = subspaces[t].reduce(M.map(a.id).apply(unit))[1]
            cols.append([rest[r] for r in frees[t]])
        maps[a.id] = FpMatrix.from_rows(p, [[col[r] for col in cols]
                                            for r in range(len(frees[t]))], cols=len(cols))
    return make_rep(alg, p, {v: len(frees[vidx[v]]) for v in alg.vertices}, maps)


def _coords(sub, vec):
    coords = sub.coords(vec)
    if coords is None:
        raise InputError("vector escapes the subspace; closure broken")
    return coords


def eps_pieces(ctx, M):
    """(ker eps_v, the coordinates of im eps_{tau v} in it) per vertex v, and
    the rank of eps_v at each v: the submodules whose quotient is H(M)."""
    alg = ctx.algebra
    eps = [M.map(alg.eps_of_vertex[v]) for v in alg.vertices]
    kernels = [linalg.kernel_basis(e) for e in eps]
    images = [linalg.image_basis(e) for e in eps]
    bounds = [Subspace.from_vectors(ctx.p, z.dim, [_coords(z, x) for x in
                                                   images[alg.vidx[alg.tau[v]]].basis.data])
              for v, z in zip(alg.vertices, kernels)]
    return kernels, bounds, tuple(im.dim for im in images)


def homology(ctx, M):
    """(ker eps / im eps, the eps-ranks); M itself when eps is zero."""
    if ctx.is_kq_module(M):
        return M, (0,) * len(M.dims)
    kernels, bounds, ranks = eps_pieces(ctx, M)
    return quotient(subrep_by_columns(M, kernels), bounds), ranks


def subrep_by_columns(M, subspaces):
    alg, p = M.algebra, M.p
    vidx = alg.vidx
    dims = {v: subspaces[vidx[v]].dim for v in alg.vertices}
    maps = {}
    for a in alg.arrow_map.values():
        s, t = vidx[a.src], vidx[a.tgt]
        cols = [_coords(subspaces[t], M.map(a.id).apply(b)) for b in subspaces[s].basis.data]
        maps[a.id] = FpMatrix.from_rows(p, [[col[r] for col in cols]
                                            for r in range(subspaces[t].dim)], cols=len(cols))
    return make_rep(alg, p, dims, maps)


def quotient_by_projection(M, subspaces):
    """(quotient rep, per-vertex projection matrices quot_dim x ambient_dim)."""
    alg, p = M.algebra, M.p
    vidx = alg.vidx
    projections, frees = [], []
    for i, sub in enumerate(subspaces):
        amb = M.dims[i]
        piv = sub.pivots()
        free = [c for c in range(amb) if c not in piv]
        frees.append(free)
        rows = []
        for fpos in free:
            # reduce a vector by the subspace and read the coefficient at
            # fpos: each basis row r subtracts r[fpos] times its pivot entry
            row = [0] * amb
            row[fpos] = 1
            for r, c in zip(sub.basis.data, piv):
                row[c] = -r[fpos] % p
            rows.append(row)
        projections.append(FpMatrix.from_rows(p, rows, cols=amb))
    dims = {v: len(frees[vidx[v]]) for v in alg.vertices}
    maps = {}
    for a in alg.arrow_map.values():
        s, t = vidx[a.src], vidx[a.tgt]
        cols = []
        for fpos in frees[s]:
            lift = tuple(1 if k == fpos else 0 for k in range(M.dims[s]))
            cols.append(projections[t].apply(M.map(a.id).apply(lift)))
        maps[a.id] = FpMatrix.from_rows(p, [[col[r] for col in cols]
                                            for r in range(len(frees[t]))], cols=len(cols))
    return make_rep(alg, p, dims, maps), tuple(projections)
