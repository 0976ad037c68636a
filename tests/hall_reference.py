"""The raw Hall product as it was computed before products grouped the Ext^1
walk by normal-form keys, kept as a test oracle: ``ext1_classify`` interns
every middle term, and each middle-term class is normalized on its own."""

from fractions import Fraction

from iqhall.hall import HallElement


def raw_product(engine, M, N):
    cls = engine.ctx.ext1_classify(M, N)
    hom_size = Fraction(engine.p) ** cls.hom_dim
    out = {}
    for mid, count in cls.pairs:
        coeff, key = engine.normalize(engine.ctx.rep(mid))
        term = coeff * engine.scalar(Fraction(count) / hom_size)
        acc = out.get(key)
        out[key] = term if acc is None else acc + term
    return HallElement(engine.p, out)
