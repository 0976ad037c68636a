"""The two sides of Riedtmann's formula (Riedtmann, J. Algebra 170, 1994),
kept as a test oracle: |Ext^1(M,N)_L| / |Hom(M,N)| equals
g^L_{M,N} |Aut M| |Aut N| / |Aut L|, where g counts the submodules of L
isomorphic to N with quotient isomorphic to M.  The engine computes only the
left side; these functions of a ``ModuleContext`` compute |Aut| and list
submodules by brute force."""

from typing import List, Tuple

from induced_reference import quotient
from iqhall import linalg, modules
from iqhall.linalg import Subspace
from iqhall.modules import Rep, hom_combine, hom_is_invertible, hom_space, subrep


def aut_count(ctx, M: Rep) -> int:
    """|Aut M|.  For M = sum of M_i^(m_i), every End M_i certified local,
    End M / rad End M is the product of the rings M_(m_i)(F_p), so |Aut M| =
    p^(dim End M - sum m_i^2) prod |GL_(m_i)(F_p)|; else walk End M by lines."""
    if M.total_dim == 0:
        return 1
    es = hom_space(M, M)
    d, p = es.dim, ctx.p
    # the summands up to isomorphism, without touching the registry
    kinds: List[List[Rep]] = []
    for piece in ctx._split_raw(M):
        kind = next((k for k in kinds if k[0].dims == piece.dims
                     and ctx._iso_indecomposable(k[0], piece)), None)
        if kind is None:
            kinds.append([piece])
        else:
            kind.append(piece)
    if all(ctx._local(kind[0], hom_space(kind[0], kind[0])) for kind in kinds):
        out = p ** (d - sum(len(kind) ** 2 for kind in kinds))
        for kind in kinds:
            for i in range(len(kind)):
                out *= p ** len(kind) - p ** i
        return out
    modules._check_walk(linalg.line_count(p, d), "lines of End")
    # f is invertible iff c f is (c != 0), and the zero map is not
    return (p - 1) * sum(hom_is_invertible(hom_combine(es, coeffs))
                         for coeffs in linalg.iter_monic_vectors(p, d))


def submodule_closure(M: Rep, subspaces: List[Subspace],
                      seed: Tuple[int, tuple]) -> List[Subspace]:
    """The smallest arrow-closed subspaces containing ``subspaces`` and the
    vector seed[1] at vertex seed[0]."""
    alg = M.algebra
    vidx = alg.vidx
    vecs: List[List[tuple]] = [list(s.basis.data) for s in subspaces]
    spans = list(subspaces)
    frontier = [seed]
    vecs[seed[0]].append(seed[1])
    spans[seed[0]] = Subspace.from_vectors(M.p, M.dims[seed[0]], vecs[seed[0]])
    while frontier:
        i, x = frontier.pop()
        v = alg.vertices[i]
        for a in alg.arrow_map.values():
            if a.src != v:
                continue
            t = vidx[a.tgt]
            y = M.map(a.id).apply(x)
            if any(y) and not spans[t].contains_vector(y):
                vecs[t].append(y)
                spans[t] = Subspace.from_vectors(M.p, M.dims[t], vecs[t])
                frontier.append((t, y))
    return spans


def submodules(M: Rep) -> List[Tuple[Subspace, ...]]:
    """All submodules, as tuples of per-vertex subspaces (BFS closure of
    single added generators, deduplicated by canonical RREF bases)."""
    p = M.p
    zero = tuple(Subspace.zero(p, d) for d in M.dims)
    seen = {zero}
    queue = [zero]
    out = [zero]
    while queue:
        current = queue.pop()
        for i, d in enumerate(M.dims):
            for vec in linalg.iter_monic_vectors(p, d):
                if current[i].contains_vector(vec):
                    continue
                closed = tuple(submodule_closure(M, list(current), (i, vec)))
                if closed not in seen:
                    seen.add(closed)
                    queue.append(closed)
                    out.append(closed)
    return out


def submodule_count_with(ctx, M: Rep, sub_mid: int, quot_mid: int) -> int:
    """Exact count of submodules U with U iso sub and M/U iso quot."""
    sub_rep = ctx.rep(sub_mid)
    quot_rep = ctx.rep(quot_mid)
    if tuple(a + b for a, b in zip(sub_rep.dims, quot_rep.dims)) != M.dims:
        return 0
    count = 0
    for subspaces in submodules(M):
        if tuple(s.dim for s in subspaces) != sub_rep.dims:
            continue
        if ctx.intern(subrep(M, subspaces)) != sub_mid:
            continue
        if ctx.intern(quotient(M, subspaces)) == quot_mid:
            count += 1
    return count
