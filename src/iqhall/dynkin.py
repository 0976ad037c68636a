"""Dynkin-type machinery over the path algebra.

For an ADE quiver the indecomposables biject with the positive roots via
dimension vectors, so partitions (multiplicity functions on the positive
roots) label all module classes.  Words in the vertices act on partitions
through iterated generic extensions; a word is distinguished when the
module of its partition has exactly one reduced filtration of that type.
The root modules come from the simples by the BGP reflection functors,
the sink-reflection schedule run backwards, with no generic extension.
Monomial and PBW basis checks expand the corresponding Hall-algebra
monomials and test the torus-free coefficient matrix grade by grade.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import linalg
from .algebra import iquiver_algebra, path_algebra
from .errors import DimVectorMismatch, NoDistinguishedWordFound, NonUniqueMinimizer
from .hall import IHallAlgebra
from .linalg import Subspace
from .modules import ModuleContext, Rep, change_algebra, direct_sum, hom_space, subrep
from .quivers import IQuiver, Partition, root_table
from .scalars import QSqrt, gauss_jordan


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
        self.roots = root_table(iq)
        self.kq = path_algebra(iq)
        self.ctx = ModuleContext(self.kq, p)
        self._root_mid: Dict[Tuple[int, ...], int] = {}
        self._gen_ext: Dict[Tuple[int, int], int] = {}
        self._wp: Dict[Tuple[str, ...], Partition] = {}

    # -- root modules ------------------------------------------------------------

    def root_module(self, beta: Tuple[int, ...]) -> int:
        """Module id of M_beta, the indecomposable of dimension vector beta, built
        by the reflection functors of ``SinkSchedule.root``, exact over any field."""
        if beta not in self._root_mid:
            if beta not in self.roots:
                raise DimVectorMismatch(f"{beta} is not a positive root")
            dims, maps = self.kq.sinks.root(self.p, beta)
            datas = tuple(m for _, m in sorted(zip(self.ctx._q_cols, maps)))   # by arrow id
            self._root_mid[beta] = self.ctx._intern_exact((dims, datas))
        return self._root_mid[beta]

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
            raise NonUniqueMinimizer(f"generic extensions tie at q = {self.p}; try a larger --q")
        self._gen_ext[key] = best
        return best

    def word_to_partition(self, word: Sequence[str]) -> Partition:
        """The partition of the iterated generic extension of simples."""
        word = tuple(word)
        if word not in self._wp:
            self._wp[word] = self.ctx.partition(self.generic_word(word))
        return self._wp[word]

    def generic_word(self, word: Sequence[str]) -> int:
        """Id of the iterated generic extension of simples along the word,
        the first letter on top.  Folded right to left, acc = S_i o acc
        realizes [S_{i1}] o [S_{i2}] o ... o [S_{im}] by associativity."""
        acc = self.ctx.intern(self.ctx.zero())
        for letter in reversed(word):
            acc = self.generic_extension(self.ctx.intern(self.ctx.simple(letter)), acc)
        return acc

    # -- reduced filtrations ---------------------------------------------------------------

    def _subspaces_over(self, base: Subspace, codim: int) -> Iterator[Subspace]:
        """Subspaces of the ambient space containing ``base`` with the given
        codimension: subspaces of the quotient lifted onto ``base.complement()``."""
        comp = base.complement()
        if codim > comp.dim:
            return
        for small in linalg.iter_subspaces(self.p, comp.dim, comp.dim - codim):
            yield Subspace.from_vectors(self.p, base.ambient_dim,
                                        base.basis.data + (small.basis @ comp.basis).data)

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
            inner = subrep(M, subspaces)
            total += self._count_filtrations(inner, rest)
        return total

    def gamma(self, lam: Partition, word: Sequence[str]) -> int:
        """Number of chains M = M_0 > M_1 > ... > M_t = 0 of the module M of
        ``lam`` whose r-th layer is c_r copies of the r-th letter's simple
        (word in tight form)."""
        return self._count_filtrations(self.module_of_partition(lam), tight_form(word))

    def distinguished_word(self, lam: Partition) -> Tuple[str, ...]:
        """Lexicographically first word realizing the partition with a
        unique reduced filtration."""
        length = sum(mult * sum(root) for root, mult in lam)
        for word in itertools.product(self.kq.vertices, repeat=length):
            if self.word_to_partition(word) == lam and self.gamma(lam, word) == 1:
                return word
        raise NoDistinguishedWordFound(f"no distinguished word for {lam}")

    # -- degeneration order --------------------------------------------------------------------

    def degeneration_leq(self, n_mid: int, m_mid: int) -> bool:
        """N <=dg M: Hom dimensions from every indecomposable probe weakly
        increase when passing to the degeneration."""
        N, M = self.ctx.rep(n_mid), self.ctx.rep(m_mid)
        if N.dims != M.dims:
            raise DimVectorMismatch("degeneration compares equal dimension vectors")
        for beta in self.roots:
            probe = self.ctx.rep(self.root_module(beta))
            if hom_space(probe, N).dim < hom_space(probe, M).dim:
                return False
        return True

    # -- partition enumeration --------------------------------------------------------------------

    def partitions_with_grade(self, grade: Tuple[int, ...]) -> List[Partition]:
        """The partitions of ``grade``, sorted, each with its roots in order."""
        roots = sorted(self.roots)

        def rec(idx: int, remaining: Tuple[int, ...]) -> Iterator[Partition]:
            if not any(remaining):
                yield ()
                return
            if idx == len(roots):
                return
            beta = roots[idx]
            max_mult = min((r // b for r, b in zip(remaining, beta) if b), default=0)
            for mult in range(max_mult + 1):
                rest = tuple(r - mult * b for r, b in zip(remaining, beta))
                for tail in rec(idx + 1, rest):
                    yield ((beta, mult),) + tail if mult else tail

        return sorted(rec(0, grade))

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
    """Exact Gauss-Jordan elimination over the field Q(sqrt q)."""
    return (all(len(r) == len(rows) for r in rows)
            and gauss_jordan(rows, QSqrt.is_zero) is not None)


def _pullback(engine: IHallAlgebra, rep: Rep) -> int:
    """The engine's id of a kQ-module, every eps map zero."""
    return engine.ctx.intern(change_algebra(rep, engine.algebra))


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
    col_ids = [_pullback(engine, dyn.module_of_partition(lam)) for lam in partitions]
    return [[elem.coefficient((xid, zero_alpha)) for xid in col_ids] for elem in expansions]


def monomial_basis_check(iq: IQuiver, q: int, cap: int) -> BasisReport:
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
        words = [dyn.distinguished_word(lam) for lam in partitions]
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
    order = list(ordering) if ordering is not None else list(dyn.roots)
    if sorted(order) != sorted(dyn.roots):
        raise DimVectorMismatch("ordering must list every positive root exactly once")
    symbols = {beta: engine.basis_symbol(_pullback(engine, dyn.ctx.rep(dyn.root_module(beta))),
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
