"""Sub- and quotient representations as they were built before
``modules._induced``, kept as a test oracle: ``subrep`` reads each image in
its own loop, and ``quotient`` forms the projection onto the non-pivot
columns of each subspace as a matrix of functionals."""

from iqhall.linalg import FpMatrix
from iqhall.modules import _coords_in, make_rep


def subrep(M, subspaces):
    alg, p = M.algebra, M.p
    vidx = alg.vidx
    dims = {v: subspaces[vidx[v]].dim for v in alg.vertices}
    maps = {}
    for a in alg.arrow_map.values():
        s, t = vidx[a.src], vidx[a.tgt]
        cols = [_coords_in(subspaces[t], M.map(a.id).apply(b)) for b in subspaces[s].basis.data]
        maps[a.id] = FpMatrix.from_rows(p, [[col[r] for col in cols]
                                            for r in range(subspaces[t].dim)], cols=len(cols))
    return make_rep(alg, p, dims, maps)


def quotient(M, subspaces):
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
