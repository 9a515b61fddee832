"""Shared fixtures: classical ideals, their known Hilbert data, and brute-force oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from reeslab import (
    Ideal,
    Polynomial,
    RingSpec,
    QQ,
    graded_ring,
    hilbert_series_ideal,
    ideal_power,
    ideal_product,
    normal_form,
    parse_polynomial,
)
from reeslab._qpoly import normalize
from reeslab.groebner import _normal_form_int, _on_basis, _spoly
from reeslab.problemfile import _read_problem
from reeslab.rees import ReesError, rees_presentation
from reeslab.rings import MonomialPacking


# ---------------------------------------------------------------------------
# classical fixtures

@pytest.fixture(scope="session")
def twisted_cubic():
    A = graded_ring(["X1", "X2", "X3", "X4"])
    gens = ("X1*X4 - X2*X3", "X2^2 - X1*X3", "X3^2 - X2*X4")
    return Ideal(A, [parse_polynomial(s, A) for s in gens])


@pytest.fixture(scope="session")
def twisted_cubic_rees(twisted_cubic):
    return rees_presentation(twisted_cubic)


@pytest.fixture(scope="session")
def twisted_cubic_rees_betti(twisted_cubic_rees):
    from reeslab.betti import bigraded_betti_table

    return bigraded_betti_table(twisted_cubic_rees.defining_ideal, (15, 15))


@pytest.fixture(scope="session")
def symmetric_minors():
    """2x2 minors of the generic symmetric 3x3 matrix in 6 variables."""
    A = graded_ring(["x11", "x12", "x13", "x22", "x23", "x33"])
    gens = (
        "x22*x33 - x23^2",
        "x12*x33 - x13*x23",
        "x12*x23 - x13*x22",
        "x11*x33 - x13^2",
        "x11*x23 - x12*x13",
        "x11*x22 - x12^2",
    )
    return Ideal(A, [parse_polynomial(s, A) for s in gens])


@pytest.fixture(scope="session")
def symmetric_minors_rees(symmetric_minors):
    return rees_presentation(symmetric_minors)


@pytest.fixture(scope="session")
def planar_fat_ideal():
    """(X^7, Y^7, X^6 Y + X^2 Y^5): primary to the irrelevant ideal, spread 2."""
    A = graded_ring(["X", "Y"])
    gens = ("X^7", "Y^7", "X^6*Y + X^2*Y^5")
    return Ideal(A, [parse_polynomial(s, A) for s in gens])


@pytest.fixture(scope="session")
def del_pezzo_ideal():
    A = graded_ring(["X1", "X2", "X3"])
    gens = ("X1*X2", "X1*X3", "X2*X3")
    return Ideal(A, [parse_polynomial(s, A) for s in gens])


# known numerators of H_{I^j} over (1-s)^6 for the symmetric-minors ideal
SYMMETRIC_MINORS_POWER_NUMERATORS = {
    1: {2: 6, 3: -8, 4: 3},
    2: {4: 21, 5: -45, 6: 38, 7: -18, 8: 6, 9: -1},
    3: {6: 56, 7: -150, 8: 165, 9: -100, 10: 36, 11: -6},
    4: {8: 126, 9: -385, 10: 486, 11: -330, 12: 125, 13: -21},
    5: {10: 252, 11: -840, 12: 1155, 13: -840, 14: 330, 15: -56},
}

# numerator template polynomials (coefficient tuples in j, ascending)
SYMMETRIC_MINORS_TEMPLATE = {
    0: (1, Fraction(137, 60), Fraction(15, 8), Fraction(17, 24), Fraction(1, 8), Fraction(1, 120)),
    1: (0, Fraction(-7, 4), Fraction(-83, 24), Fraction(-53, 24), Fraction(-13, 24), Fraction(-1, 24)),
    2: (0, Fraction(-3, 2), Fraction(13, 12), Fraction(29, 12), Fraction(11, 12), Fraction(1, 12)),
    3: (0, Fraction(7, 6), Fraction(3, 4), Fraction(-13, 12), Fraction(-3, 4), Fraction(-1, 12)),
    4: (0, Fraction(-1, 4), Fraction(-7, 24), Fraction(5, 24), Fraction(7, 24), Fraction(1, 24)),
    5: (0, Fraction(1, 20), Fraction(1, 24), Fraction(-1, 24), Fraction(-1, 24), Fraction(-1, 120)),
}

TWISTED_CUBIC_TEMPLATE = {
    0: (1, Fraction(3, 2), Fraction(1, 2)),
    1: (0, -1, -1),
    2: (0, Fraction(-1, 2), Fraction(1, 2)),
}


# ---------------------------------------------------------------------------
# oracles

def mono_divides(a, b):
    """a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def order_key(order, nvars):
    """Sort key on exponent tuples for a TermOrder, written from each order's definition.

    lex compares the exponents in variable order; deglex compares the total
    degree first. degrevlex compares the total degree, then calls the
    monomial with the smaller exponent in the last differing variable the
    larger. elim compares the first ``block`` variables by degrevlex and
    breaks ties by degrevlex on the rest. Every order first permutes the
    variables by ``perm`` when it has one.
    """
    perm = order.perm if order.perm is not None else tuple(range(nvars))

    def lex(m):
        return tuple(m[i] for i in perm)

    def revlex(e):
        return (sum(e), *(-x for x in reversed(e)))

    if order.tag == "lex":
        return lex
    if order.tag == "deglex":
        return lambda m: (sum(m), *lex(m))
    if order.tag == "degrevlex":
        return lambda m: revlex(lex(m))
    assert order.tag == "elim"
    return lambda m: revlex(lex(m)[:order.block]) + revlex(lex(m)[order.block:])


def monomials_of_degree(ring, degree):
    """All exponent vectors of the given Z^2 degree, as a list of tuples."""
    out = []
    n = ring.nvars
    degs = ring.degrees
    # cheapest first-degree cost per unit of second degree over each suffix
    INF = float("inf")
    min_ratio = [INF] * (n + 1)
    for i in range(n - 1, -1, -1):
        a, b = degs[i]
        min_ratio[i] = min(min_ratio[i + 1], a / b if b else INF)

    last = n - 1

    def rec(i, rem1, rem2, acc):
        a, b = degs[i]
        if i == last:
            # the last exponent is forced: both remainders are one multiple of its degree
            e = rem1 // a if a else rem2 // b
            if e * a == rem1 and e * b == rem2:
                acc.append(e)
                out.append(tuple(acc))
                acc.pop()
            return
        if rem2 and rem2 * min_ratio[i] > rem1:
            return
        emax1 = rem1 // a if a else None
        emax2 = rem2 // b if b else None
        cands = [c for c in (emax1, emax2) if c is not None]
        emax = min(cands)
        for e in range(emax + 1):
            acc.append(e)
            rec(i + 1, rem1 - e * a, rem2 - e * b, acc)
            acc.pop()

    if degree[0] >= 0 and degree[1] >= 0:
        rec(0, degree[0], degree[1], [])
    return out


def qpoly(*coeffs):
    """The polynomial sum_i coeffs[i] j^i over Q, as reeslab._qpoly stores it."""
    return normalize(tuple(Fraction(c) for c in coeffs))


def parse_problem(text):
    """The problem with its ring and ideal built, so every error is raised here."""
    problem = _read_problem(text)
    problem.ideal  # builds the ring too
    return problem


def spairs_reduce_to_zero(G):
    """Certificate check: every S-pair of the GroebnerBasis G reduces to zero, reduced or not."""
    char = G.ring.field.char

    def check(P, triples):
        Q = MonomialPacking(P.nvars, P.width)
        plain = [Q.pack(P.unpack(t[0])) for t in triples]
        for i in range(len(triples)):
            for j in range(i + 1, len(triples)):
                L = P.pack(Q.unpack(Q.lcm(plain[i], plain[j])))
                s = _spoly(triples[i], triples[j], L, P.guard, char)
                if _normal_form_int(s, triples, P.guard, char) is not None:
                    return False
        return True

    return _on_basis(G, check)[1]


def reduction_number(I, J, max_steps=40):
    """Brute-force r_J(I): least m with I^{m+1} = J * I^m (J must be a reduction)."""
    for m in range(max_steps):
        lhs = ideal_power(I, m + 1)
        rhs = ideal_product(J, ideal_power(I, m)).groebner()
        if not any(normal_form(g, rhs) for g in lhs.gens):
            return m
    raise ReesError("no reduction detected within %d steps" % max_steps)


def naive_multiply(f, g):
    """Schoolbook convolution, independent of Polynomial.__mul__."""
    acc = {}
    for m1, c1 in f.terms:
        for m2, c2 in g.terms:
            key = tuple(a + b for a, b in zip(m1, m2))
            acc[key] = acc.get(key, 0) + c1 * c2
    return Polynomial(f.ring, {m: c for m, c in acc.items() if c})


def count_standard_monomials(ring, gens, degree):
    """Brute-force dim of (ring/J)_degree for a monomial ideal J."""
    return sum(
        1
        for m in monomials_of_degree(ring, degree)
        if not any(mono_divides(g, m) for g in gens)
    )


def monomial_quotient_dimension(nvars, gens):
    """Krull dimension of ring/J for monomial J: largest coordinate subspace
    avoiding every generator's support."""
    from itertools import combinations

    supports = [frozenset(i for i, e in enumerate(g) if e) for g in gens]
    if not supports:
        return nvars
    for size in range(nvars, -1, -1):
        for T in combinations(range(nvars), size):
            tset = set(T)
            if all(not s <= tset for s in supports):
                return size
    return 0


def random_monomial_ideal(rng, ring, max_gens=6, max_exp=4):
    n = ring.nvars
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(n))
        if any(mono):
            gens.append(mono)
    gens = gens or [(1,) * n]
    return Ideal(ring, [Polynomial(ring, {m: ring.field.one}) for m in set(gens)])


def span_dimension_of_products(I, e, degree):
    """Brute-force dim_k (I^e)_degree: span of monomial multiples of e-fold products."""
    from itertools import combinations_with_replacement

    from reeslab._linalg import VectorSpan

    ring = I.ring
    monos = monomials_of_degree(ring, (degree, 0))
    index = {m: i for i, m in enumerate(monos)}
    span = VectorSpan(ring.field.char)
    for combo in combinations_with_replacement(I.gens, e):
        prod = combo[0]
        for f in combo[1:]:
            prod = prod * f
        pdeg = prod.multidegree()
        shift = degree - pdeg[0]
        if shift < 0:
            continue
        for u in monomials_of_degree(ring, (shift, 0)):
            vec = {index[mm]: c for mm, c in (prod * Polynomial(ring, {u: ring.field.one})).terms}
            span.add(vec)
    return span.rank
