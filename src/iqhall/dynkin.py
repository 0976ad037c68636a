"""Dynkin-type machinery over the path algebra.

For an ADE quiver the indecomposables biject with the positive roots via
dimension vectors, so partitions (multiplicity functions on the positive
roots) label all module classes.  Words in the vertices act on partitions
through iterated generic extensions; a word is distinguished when the
module of its partition has exactly one reduced filtration of that type.
Monomial and PBW basis checks expand the corresponding Hall-algebra
monomials and test the torus-free coefficient matrix grade by grade.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .algebra import iquiver_algebra, path_algebra
from .errors import (DimVectorMismatch, NoDistinguishedWordFound, NonUniqueMinimizer,
                     SearchExhausted)
from .hall import IHallAlgebra
from .linalg import Subspace
from .modules import (ModuleContext, Rep, direct_sum, hom_space, make_rep, pullback_kq,
                      subrep)
from .quivers import IQuiver, RootTable, root_table
from .scalars import QSqrt

Partition = Tuple[Tuple[Tuple[int, ...], int], ...]   # sorted ((root, mult), ...)


def tight_form(word: Sequence[str]) -> List[Tuple[str, int]]:
    out: List[Tuple[str, int]] = []
    for letter in word:
        if out and out[-1][0] == letter:
            out[-1] = (letter, out[-1][1] + 1)
        else:
            out.append((letter, 1))
    return out


class DynkinContext:
    """Root modules and generic-extension combinatorics at one prime."""

    def __init__(self, iq: IQuiver, p: int):
        self.iq = iq
        self.p = p
        self.table: RootTable = root_table(iq)
        self.kq = path_algebra(iq)
        self.ctx = ModuleContext(self.kq, p)
        self._root_mid: Dict[Tuple[int, ...], int] = {}
        self._gen_ext: Dict[Tuple[int, int], int] = {}
        self._wp: Dict[Tuple[str, ...], Partition] = {}

    # -- root modules ------------------------------------------------------------

    def root_module(self, beta: Tuple[int, ...]) -> int:
        """Module id of the unique indecomposable with dimension vector beta."""
        if beta in self._root_mid:
            return self._root_mid[beta]
        if beta not in self.table.positive_roots:
            raise DimVectorMismatch(f"{beta} is not a positive root")
        dims = {v: beta[i] for i, v in enumerate(self.kq.vertices)}
        arrows = sorted(self.kq.q_arrows, key=lambda a: a.id)
        vidx = self.kq.vidx
        shapes = [(beta[vidx[a.tgt]], beta[vidx[a.src]]) for a in arrows]
        found = None
        for combo in itertools.product(*[linalg.iter_matrices(self.p, r, c) for r, c in shapes]):
            rep = make_rep(self.kq, self.p, dims, {a.id: m for a, m in zip(arrows, combo)})
            # indecomposables over Dynkin path algebras have trivial
            # endomorphisms, which doubles as the indecomposability test
            if hom_space(rep, rep).dim == 1:
                found = rep
                break
        if found is None:
            raise SearchExhausted(f"no indecomposable of dimension vector {beta}")
        mid = self.ctx.intern(found)
        self._root_mid[beta] = mid
        return mid

    def partition_of_mid(self, mid: int) -> Partition:
        parts = self.ctx.decompose(mid)
        counts: Dict[Tuple[int, ...], int] = {}
        for m in parts:
            dims = self.ctx.rep(m).dims
            if dims not in self.table.positive_roots:
                raise SearchExhausted(f"summand of dims {dims} is not a root module")
            counts[dims] = counts.get(dims, 0) + 1
        return tuple(sorted(counts.items()))

    def module_of_partition(self, lam: Partition) -> Rep:
        pieces = []
        for root, mult in lam:
            rep = self.ctx.rep(self.root_module(root))
            pieces.extend([rep] * mult)
        if not pieces:
            return self.ctx.zero()
        return direct_sum(pieces)

    # -- generic extensions ------------------------------------------------------------

    def generic_extension(self, m_mid: int, n_mid: int) -> int:
        """Unique middle term of minimal endomorphism dimension among all
        extensions of M by N."""
        key = (m_mid, n_mid)
        if key in self._gen_ext:
            return self._gen_ext[key]
        cls = self.ctx.ext1_classify(self.ctx.rep(m_mid), self.ctx.rep(n_mid))
        best: Optional[int] = None
        best_dim = None
        tie = False
        for mid, _count in cls.pairs:
            d = self.ctx.end_dim(mid)
            if best_dim is None or d < best_dim:
                best, best_dim, tie = mid, d, False
            elif d == best_dim and mid != best:
                tie = True
        if tie:
            raise NonUniqueMinimizer("two distinct middle terms of minimal End dimension")
        self._gen_ext[key] = best
        return best

    def word_to_partition(self, word: Sequence[str]) -> Partition:
        """The partition of the iterated generic extension of simples."""
        word = tuple(word)
        if word in self._wp:
            return self._wp[word]
        # fold right to left: acc = S_{i_k} o acc realizes
        # [S_{i1}] o [S_{i2}] o ... o [S_{im}] by associativity
        acc = self.ctx.intern(self.ctx.zero())
        for letter in reversed(word):
            s_mid = self.ctx.intern(self.ctx.simple(letter))
            acc = self.generic_extension(s_mid, acc)
        result = self.partition_of_mid(acc)
        self._wp[word] = result
        return result

    # -- reduced filtrations ---------------------------------------------------------------

    def _subspaces_over(self, base: Subspace, codim: int) -> Iterator[Subspace]:
        """Subspaces of the ambient space containing ``base`` with the given
        codimension, via subspaces of the quotient."""
        amb = base.ambient_dim
        free = [c for c in range(amb) if c not in base.pivots()]
        qdim = len(free)
        if codim > qdim:
            return
        for small in linalg.iter_subspaces(self.p, qdim, qdim - codim):
            vecs = list(base.basis.data)
            for row in small.basis.data:
                lift = [0] * amb
                for pos, val in zip(free, row):
                    lift[pos] = val
                vecs.append(tuple(lift))
            yield Subspace.from_vectors(self.p, amb, vecs)

    def reduced_filtration_count(self, M: Rep, word: Sequence[str]) -> int:
        """Number of chains M = M_0 > M_1 > ... > M_t = 0 whose r-th layer
        is c_r copies of the r-th letter's simple (word in tight form)."""
        return self._count_filtrations(M, tight_form(word))

    def _count_filtrations(self, M: Rep, tight: List[Tuple[str, int]]) -> int:
        if not tight:
            return 1 if M.total_dim == 0 else 0
        (letter, mult), rest = tight[0], tight[1:]
        j = self.kq.vidx[letter]
        ins = [M.map(a.id) for a in self.kq.q_arrows if a.tgt == letter]
        base = linalg.image_basis(linalg.hstack(ins)) if ins else \
            Subspace.zero(self.p, M.dims[j])
        if M.dims[j] - base.dim < mult:
            return 0
        total = 0
        full = [Subspace.full(self.p, d) for d in M.dims]
        for upper in self._subspaces_over(base, mult):
            subspaces = list(full)
            subspaces[j] = upper
            inner, _ = subrep(M, subspaces)
            total += self._count_filtrations(inner, rest)
        return total

    def gamma(self, lam: Partition, word: Sequence[str]) -> int:
        return self.reduced_filtration_count(self.module_of_partition(lam), word)

    def is_distinguished(self, word: Sequence[str]) -> bool:
        return self.gamma(self.word_to_partition(word), word) == 1

    def distinguished_word(self, lam: Partition, skip: int = 0) -> Tuple[str, ...]:
        """Lexicographically first word (after ``skip`` hits) realizing the
        partition with a unique reduced filtration."""
        length = sum(mult * sum(root) for root, mult in lam)
        hits = 0
        for word in itertools.product(self.kq.vertices, repeat=length):
            if self.word_to_partition(word) != lam:
                continue
            if self.gamma(lam, word) == 1:
                if hits == skip:
                    return word
                hits += 1
        if hits:
            # fewer than skip+1 distinguished words exist; reuse the first
            return self.distinguished_word(lam, skip=0)
        raise NoDistinguishedWordFound(f"no distinguished word for {lam}")

    # -- degeneration order --------------------------------------------------------------------

    def degeneration_leq(self, n_mid: int, m_mid: int) -> bool:
        """N <=dg M: Hom dimensions from every indecomposable probe weakly
        increase when passing to the degeneration."""
        N, M = self.ctx.rep(n_mid), self.ctx.rep(m_mid)
        if N.dims != M.dims:
            raise DimVectorMismatch("degeneration compares equal dimension vectors")
        for beta in self.table.positive_roots:
            probe = self.ctx.rep(self.root_module(beta))
            if self.ctx.hom(probe, N).dim < self.ctx.hom(probe, M).dim:
                return False
        return True

    # -- partition enumeration --------------------------------------------------------------------

    def partitions_with_grade(self, grade: Tuple[int, ...]) -> List[Partition]:
        roots = list(self.table.positive_roots)

        def rec(idx: int, remaining: Tuple[int, ...]) -> Iterator[Partition]:
            if all(x == 0 for x in remaining):
                yield ()
                return
            if idx == len(roots):
                return
            beta = roots[idx]
            max_mult = min((r // b for r, b in zip(remaining, beta) if b), default=0)
            for mult in range(max_mult + 1):
                rest = tuple(r - mult * b for r, b in zip(remaining, beta))
                if any(x < 0 for x in rest):
                    break
                for tail in rec(idx + 1, rest):
                    yield ((beta, mult),) + tail if mult else tail

        out = set()
        for part in rec(0, grade):
            out.add(tuple(sorted((root, mult) for root, mult in part if mult)))
        return sorted(out)

    def grades_up_to(self, cap: int) -> List[Tuple[int, ...]]:
        n = len(self.kq.vertices)
        out = []
        for total in range(1, cap + 1):
            for combo in itertools.product(range(total + 1), repeat=n):
                if sum(combo) == total:
                    out.append(combo)
        return out


# -- Hall-basis checks -------------------------------------------------------------------------------


def qsqrt_matrix_invertible(rows: List[List[QSqrt]]) -> bool:
    """Exact Gaussian elimination over the field Q(sqrt q)."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        return False
    mat = [list(r) for r in rows]
    for col in range(n):
        pivot = next((i for i in range(col, n) if not mat[i][col].is_zero()), None)
        if pivot is None:
            return False
        mat[col], mat[pivot] = mat[pivot], mat[col]
        inv = mat[col][col].inverse()
        mat[col] = [x * inv for x in mat[col]]
        for i in range(n):
            if i != col and not mat[i][col].is_zero():
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return True


def _pullback_mid(engine: IHallAlgebra, dyn: DynkinContext, kq_mid: int) -> int:
    rep = pullback_kq(engine.algebra, dyn.ctx.rep(kq_mid))
    return engine.ctx.intern(rep)


@dataclass
class BasisGradeResult:
    grade: Tuple[int, ...]
    size: int
    invertible: bool
    words: List[Tuple[str, ...]]


@dataclass
class BasisReport:
    kind: str
    q: int
    cap: int
    grades: List[BasisGradeResult]

    @property
    def passed(self) -> bool:
        return all(g.invertible for g in self.grades)

    def to_json(self) -> dict:
        return {"kind": self.kind, "q": self.q, "cap": self.cap,
                "passed": self.passed,
                "grades": [{"grade": list(g.grade), "size": g.size,
                            "invertible": g.invertible,
                            "words": ["".join(w) for w in g.words]}
                           for g in self.grades]}


def _coefficient_matrix(engine: IHallAlgebra, dyn: DynkinContext,
                        expansions: List, partitions: List[Partition]) -> List[List[QSqrt]]:
    zero_alpha = (0,) * len(engine.vertices)
    col_ids = []
    for lam in partitions:
        kq_mid = dyn.ctx.intern(dyn.module_of_partition(lam))
        col_ids.append(_pullback_mid(engine, dyn, kq_mid))
    return [[elem.coefficient((xid, zero_alpha)) for xid in col_ids] for elem in expansions]


def monomial_basis_check(iq: IQuiver, q: int, cap: int,
                         second_choice: bool = False) -> BasisReport:
    """For every grade up to the cap: expand the distinguished-word monomials
    and test that the torus-free coefficient matrix against the partition
    modules is square and invertible."""
    engine = IHallAlgebra(iquiver_algebra(iq), q)
    dyn = DynkinContext(iq, q)
    grades = []
    for grade in dyn.grades_up_to(cap):
        partitions = dyn.partitions_with_grade(grade)
        if not partitions:
            continue
        words = [dyn.distinguished_word(lam, skip=1 if second_choice else 0)
                 for lam in partitions]
        expansions = [engine.word_product(w) for w in words]
        rows = _coefficient_matrix(engine, dyn, expansions, partitions)
        grades.append(BasisGradeResult(grade, len(partitions),
                                       qsqrt_matrix_invertible(rows), words))
    return BasisReport("monomial", q, cap, grades)


def pbw_basis_check(iq: IQuiver, q: int, cap: int,
                    ordering: Optional[Sequence[Tuple[int, ...]]] = None) -> BasisReport:
    """Same test for the PBW monomials of root modules in a fixed ordering."""
    engine = IHallAlgebra(iquiver_algebra(iq), q)
    dyn = DynkinContext(iq, q)
    order = list(ordering) if ordering is not None else list(dyn.table.positive_roots)
    if sorted(order) != sorted(dyn.table.positive_roots):
        raise DimVectorMismatch("ordering must list every positive root exactly once")
    symbols = {beta: engine.basis_symbol(_pullback_mid(engine, dyn, dyn.root_module(beta)),
                                         (0,) * len(engine.vertices))
               for beta in order}
    grades = []
    for grade in dyn.grades_up_to(cap):
        partitions = dyn.partitions_with_grade(grade)
        if not partitions:
            continue
        expansions = []
        for lam in partitions:
            mult = dict(lam)
            factors = []
            for beta in order:
                factors.extend([symbols[beta]] * mult.get(beta, 0))
            expansions.append(engine.product(factors))
        rows = _coefficient_matrix(engine, dyn, expansions, partitions)
        grades.append(BasisGradeResult(grade, len(partitions),
                                       qsqrt_matrix_invertible(rows), []))
    return BasisReport("pbw", q, cap, grades)
