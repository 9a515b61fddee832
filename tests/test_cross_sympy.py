"""Cross-validation of the Groebner engine against an independent implementation.

Skipped when sympy is not installed; it is a test-only oracle, not a
dependency of the package.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from reeslab import Ideal, QQ, graded_ring, groebner_basis, normal_form
from reeslab.rings import DEGREVLEX, LEX, Polynomial


def _to_sympy(f, symbols):
    expr = 0
    for mono, coeff in f.terms:
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(symbols, mono):
            if e:
                term *= s ** e
        expr += term
    return expr


def _leading_sets_match(gb, sympy_gb, symbols, order):
    ours = sorted(gb.leading_monomials)
    theirs = []
    for g in sympy_gb.exprs:
        poly = sympy.Poly(g, *symbols)
        theirs.append(tuple(int(e) for e in poly.LM(order=order).exponents))
    return ours == sorted(theirs)


@pytest.mark.parametrize("seed", range(8))
def test_random_groebner_bases_match(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(2, 3)
    names = ["x%d" % i for i in range(n)]
    ring = graded_ring(names, order=LEX)
    symbols = sympy.symbols(names)

    gens = []
    for _ in range(rng.randint(1, 3)):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            mono = tuple(rng.randint(0, 2) for _ in range(n))
            coeffs[mono] = QQ.coerce(rng.randint(-6, 6))
        f = Polynomial(ring, {m: c for m, c in coeffs.items() if c})
        if f:
            gens.append(f)
    if not gens:
        pytest.skip("empty sample")
    I = Ideal(ring, gens)
    gb = groebner_basis(I)
    sympy_gb = sympy.groebner([_to_sympy(g, symbols) for g in gens], *symbols, order="lex")
    assert _leading_sets_match(gb, sympy_gb, symbols, "lex")
    # reduced bases are unique up to normalization: compare the full sets
    ours = {tuple(sorted(g.terms)) for g in gb.polys}
    theirs = set()
    for g in sympy_gb.exprs:
        poly = sympy.Poly(g, *symbols)
        lc = poly.LC(order="lex")
        items = []
        for mono, c in poly.terms(order="lex"):
            q = sympy.Rational(c, lc)
            items.append((tuple(int(e) for e in mono), QQ.coerce("%s/%s" % (q.p, q.q))))
        theirs.add(tuple(sorted(items)))
    assert ours == theirs


def test_twisted_cubic_matches_sympy(twisted_cubic):
    ring = twisted_cubic.ring.with_order(LEX)
    gens = [Polynomial(ring, dict(g.terms)) for g in twisted_cubic.gens]
    I = Ideal(ring, gens)
    gb = groebner_basis(I)
    symbols = sympy.symbols(list(ring.names))
    sympy_gb = sympy.groebner([_to_sympy(g, symbols) for g in gens], *symbols, order="lex")
    assert _leading_sets_match(gb, sympy_gb, symbols, "lex")


@pytest.mark.parametrize("order", ["lex", "grevlex"])
@pytest.mark.parametrize("seed", range(10))
def test_normal_forms_match_sympy_reduce(seed, order):
    rng = random.Random(2000 + seed)
    names = ["x0", "x1", "x2"]
    ring = graded_ring(names, order=LEX if order == "lex" else DEGREVLEX)
    symbols = sympy.symbols(names)

    def sample(terms, degree):
        coeffs = {}
        for _ in range(terms):
            mono = tuple(rng.randint(0, degree) for _ in range(3))
            coeffs[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return Polynomial(ring, {m: c for m, c in coeffs.items() if c})

    gens = [g for g in (sample(rng.randint(2, 3), 2) for _ in range(rng.randint(1, 3))) if g]
    f = sample(6, 3)
    if not gens:
        pytest.skip("empty sample")
    ours = normal_form(f, groebner_basis(Ideal(ring, gens)))
    sympy_gb = sympy.groebner([_to_sympy(g, symbols) for g in gens], *symbols, order=order, domain="QQ")
    _, theirs = sympy_gb.reduce(_to_sympy(f, symbols))
    assert sympy.expand(_to_sympy(ours, symbols) - theirs) == 0
