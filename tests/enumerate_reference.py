"""Brute-force oracles for enumeration and root modules.

The enumeration system as it was built before enumeration solved
``modules._cocycle_system``: each commutation relation eps_t M(a) =
M(tau a) eps_s is written out entry by entry at a fixed eps, over
enumeration's own layout of the Q-arrow entries (row-major, by arrow id).
And the walk over every matrix tuple, both for the classes of a dimension
vector and for the root module that ``DynkinContext.root_module`` builds
as a generic extension."""

import itertools

from iqhall import linalg
from iqhall.linalg import FpMatrix
from iqhall.modules import hom_space, make_rep


def iter_matrices(p, rows, cols):
    """All p^(rows*cols) matrices of the given shape."""
    for flat in itertools.product(range(p), repeat=rows * cols):
        yield FpMatrix(p, rows, cols,
                       tuple(flat[i * cols:(i + 1) * cols] for i in range(rows)))


def search_root_module(kq, p, beta):
    """The first kQ-module of dimension vector beta, over the Q-arrow maps in
    arrow-id order, whose End has dimension 1: over a Dynkin quiver the
    indecomposables have trivial endomorphisms, so that is M_beta."""
    dims = {v: beta[i] for i, v in enumerate(kq.vertices)}
    arrows = sorted(kq.q_arrows, key=lambda a: a.id)
    shapes = [(beta[kq.vidx[a.tgt]], beta[kq.vidx[a.src]]) for a in arrows]
    for combo in itertools.product(*[iter_matrices(p, r, c) for r, c in shapes]):
        rep = make_rep(kq, p, dims, {a.id: m for a, m in zip(arrows, combo)})
        if hom_space(rep, rep).dim == 1:
            return rep
    return None


def sliding_arrows(alg):
    """The Q-arrows whose relation slides eps past them, in relation order."""
    eps = alg.eps_of_vertex
    sliding = {((a.id, eps[a.tgt]), (eps[a.src], alg.tau_arrows[a.id])): a
               for a in (alg.q_arrows if alg.has_eps else ())}
    return [sliding[rel] for rel in alg.relations() if rel in sliding]


def commutation_rows(alg, dims, eps, sliding, offsets, width):
    """eps_t M(a) - M(tau a) eps_s = 0 for each sliding arrow a: s -> t, one
    row per matrix entry, over the concatenated Q-arrow entries."""
    vidx = alg.vidx
    eps_of, tau = alg.eps_of_vertex, alg.tau
    rows = []
    for a in sliding:
        b = alg.tau_arrows[a.id]
        ds, dt = dims[vidx[a.src]], dims[vidx[a.tgt]]
        dts, dtt = dims[vidx[tau[a.src]]], dims[vidx[tau[a.tgt]]]
        e_t, e_s = eps[eps_of[a.tgt]].data, eps[eps_of[a.src]].data
        for i in range(dtt):
            for j in range(ds):
                row = [0] * width
                for k in range(dt):
                    row[offsets[a.id] + k * ds + j] += e_t[i][k]
                for k in range(dts):
                    row[offsets[b] + i * dts + k] -= e_s[k][j]
                if any(row):
                    rows.append(row)
    return rows


def commutation_kernel(alg, p, dims, eps):
    """The kernel basis of the commutation system at the eps maps ``eps``."""
    vidx = alg.vidx
    offsets, width = {}, 0
    for a in sorted(alg.q_arrows, key=lambda a: a.id):
        offsets[a.id] = width
        width += dims[vidx[a.tgt]] * dims[vidx[a.src]]
    rows = commutation_rows(alg, dims, eps, sliding_arrows(alg), offsets, width)
    return linalg.kernel_basis(FpMatrix.from_rows(p, rows, cols=width)).basis.data
