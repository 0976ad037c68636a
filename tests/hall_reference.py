"""The raw Hall product as it was computed before products grouped the Ext^1
walk by normal-form keys, kept as a test oracle: ``ext1_classify`` interns
every middle term, and each middle-term class is normalized on its own.  And
a word product that walks Ext^1 for every pair, as products did before
semisimple pairs had a closed form, for the tests that gather the walk's
inputs from word products."""

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


def product_pairs(engine, word):
    """The word product's pairs: the modules (M, N) of each pair of registry
    ids that ``raw_product`` received, in order."""
    met, product = [], engine.raw_product

    def recording(x1, x2):
        met.append((x1, x2))
        return product(x1, x2)
    engine.raw_product = recording
    try:
        engine.word_product(word.split(","))
    finally:
        del engine.raw_product
    return [(engine.ctx.rep(x1), engine.ctx.rep(x2)) for x1, x2 in met]


def walked_word_product(engine, word):
    """The word product, then ``ext1_classify(M, N, label=engine.normal_key)``
    on each of its pairs.  Returns those pairs."""
    met = product_pairs(engine, word)
    for M, N in met:
        engine.ctx.ext1_classify(M, N, label=engine.normal_key)
    return met
