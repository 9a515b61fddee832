import random
from fractions import Fraction
from math import gcd
from itertools import permutations

import pytest

from reeslab import (
    DEGLEX,
    DEGREVLEX,
    Ideal,
    LEX,
    PrimeField,
    QQ,
    colon_ideal,
    eliminate,
    elimination_order,
    graded_ring,
    groebner_basis,
    hilbert_series_ideal,
    ideal_power,
    ideal_product,
    initial_ideal,
    initial_monomials,
    normal_form,
    parse_polynomial,
)
from reeslab import groebner
from reeslab.groebner import _basis, transport
from reeslab.hilbert import hilbert_series_ring
from reeslab.rings import MonomialPacking, Polynomial, RingError, RingSpec, TermOrder
from conftest import mono_divides, monomials_of_degree, spairs_reduce_to_zero


def test_monomial_ideal_is_its_own_basis():
    A = graded_ring(["X", "Y"])
    I = Ideal(A, [parse_polynomial("X^2", A), parse_polynomial("X*Y", A)])
    gb = groebner_basis(I)
    assert sorted(gb.leading_monomials) == [(1, 1), (2, 0)]
    assert all(len(g.terms) == 1 for g in gb.polys)


def test_principal_ideal_basis_is_monic_generator():
    A = graded_ring(["X", "Y"])
    I = Ideal(A, [parse_polynomial("2*X^2 - 4*Y^2", A)])
    gb = groebner_basis(I)
    assert len(gb) == 1
    assert gb.polys[0].terms[0][1] == 1


def test_twisted_cubic_series_through_initial_ideal(twisted_cubic):
    H = hilbert_series_ideal(twisted_cubic, "ideal")
    assert dict(H.num) == {(2, 0): 3, (3, 0): -2}
    assert dict(H.den) == {(1, 0): 4}


def test_spairs_reduce_to_zero(twisted_cubic):
    assert spairs_reduce_to_zero(groebner_basis(twisted_cubic))


def test_normal_form_membership(twisted_cubic):
    A = twisted_cubic.ring
    gb = groebner_basis(twisted_cubic)
    assert not normal_form(parse_polynomial("X1*X4 - X2*X3", A), gb)
    f = parse_polynomial("X1", A)
    assert normal_form(f, gb) == f


def test_normal_form_single_step():
    A = graded_ring(["X", "Y"], order=LEX)
    gb = groebner_basis(Ideal(A, [parse_polynomial("X^2 - Y", A)]))
    out = normal_form(parse_polynomial("X^3", A), gb)
    assert out == parse_polynomial("X*Y", A)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_normal_form_in_the_unit_ideal_is_zero(field):
    # only the unit's lead divides the marker term of the exact normal form
    A = graded_ring(["x", "y"], field=field)
    gb = groebner_basis(Ideal(A, [parse_polynomial("x*y - 1", A), parse_polynomial("x", A)]))
    assert [g.leading_monomial() for g in gb.polys] == [(0, 0)]
    for text in ("1", "x + 1", "3/2*y^2 - x*y + 5"):
        assert not normal_form(parse_polynomial(text, A), gb)
    assert groebner._exact_normal_form(gb, {(2, 1): 7, (0, 0): -3})[1:] == (1, {})


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_exact_normal_form_reads_its_scale_off_the_marker(field):
    A = graded_ring(["x", "y", "z"], field=field)
    gb = groebner_basis(Ideal(A, [parse_polynomial("6*x^2 - 4*y*z", A), parse_polynomial("9*y^3 - z^3", A)]))
    for d in ({(3, 0, 0): 1}, {(2, 3, 0): 5, (1, 0, 0): 2}, {(0, 4, 1): -3}):
        P, scale, rem = groebner._exact_normal_form(gb, d)
        nf = normal_form(Polynomial(A, {m: field.coerce(c) for m, c in d.items()}), gb)
        assert scale > 0 and all(c for c in rem.values())
        if field.char:
            assert scale == 1
        else:
            assert gcd(scale, *rem.values()) == 1
        assert dict(nf.terms) == {P.unpack(m): field.coerce(Fraction(c, scale)) for m, c in rem.items()}


def test_initial_ideal_examples():
    A = graded_ring(["X", "Y"], order=LEX)
    J = initial_ideal(Ideal(A, [parse_polynomial("X^2 - Y", A)]))
    assert [g.leading_monomial() for g in J.gens] == [(2, 0)]
    mono = Ideal(A, [parse_polynomial("X*Y", A)])
    assert initial_ideal(mono) == mono


def test_series_invariance_under_initial_ideal(twisted_cubic):
    ini = initial_ideal(twisted_cubic)
    assert hilbert_series_ideal(twisted_cubic, "quotient") == hilbert_series_ideal(ini, "quotient")


def test_ideal_power_basics():
    A = graded_ring(["X", "Y"])
    I = Ideal(A, [A.variable(0), A.variable(1)])
    I2 = ideal_power(I, 2)
    assert sorted(g.leading_monomial() for g in I2.gens) == [(0, 2), (1, 1), (2, 0)]
    I0 = ideal_power(I, 0)
    assert not normal_form(A.one(), groebner_basis(I0))


def test_twisted_cubic_square_has_six_quartics(twisted_cubic):
    I2 = ideal_power(twisted_cubic, 2)
    assert len(I2.gens) == 6
    assert all(g.multidegree() == (4, 0) for g in I2.gens)


def test_power_additivity(twisted_cubic):
    lhs = ideal_power(twisted_cubic, 3)
    rhs = ideal_product(ideal_power(twisted_cubic, 1), ideal_power(twisted_cubic, 2))
    assert lhs == rhs


def test_colon_examples():
    A = graded_ring(["X", "Y"])
    X, Y = A.variable(0), A.variable(1)
    c1 = colon_ideal(Ideal(A, [X * X]), X)
    assert c1 == Ideal(A, [X])
    I = Ideal(A, [X * Y, Y * Y])
    c2 = colon_ideal(I, Y)
    assert c2 == Ideal(A, [X, Y])
    c3 = colon_ideal(I, A.one())
    assert c3 == I


def test_eliminate_examples():
    R = graded_ring(["X", "Y", "t"])
    J = Ideal(R, [parse_polynomial("Y - X*t", R)])
    assert eliminate(J, [2]).is_zero()
    R2 = graded_ring(["Y", "X"])
    J2 = Ideal(R2, [parse_polynomial("X - Y", R2), parse_polynomial("Y^2", R2)])
    out = eliminate(J2, [0])
    assert [repr(g) for g in out.gens] == ["X^2"]


def test_eliminate_edge_blocks(monkeypatch):
    R = graded_ring(["x", "y"], order=LEX)
    J = Ideal(R, [parse_polynomial("x^2 - y", R)])
    calls = _counting(monkeypatch, "_buchberger")
    # nothing to eliminate: J's generators in the degrevlex ring on x, y, and no Buchberger run
    out = eliminate(J, [])
    assert out.ring == graded_ring(["x", "y"]) and [repr(g) for g in out.gens] == ["x^2 - y"]
    assert not calls
    for block, message in (([0, 1], "cannot eliminate all 2 variables"),
                           ([1, 0, 1], "cannot eliminate all 2 variables"),
                           ([2], r"no variable 2 to eliminate: the indices are range\(2\)"),
                           ([0, -1], r"no variable -1 to eliminate")):
        with pytest.raises(RingError, match=message):
            eliminate(J, block)
    assert not calls


def test_elimination_and_rees_rings_are_degrevlex():
    from reeslab.rees import rees_presentation

    A = graded_ring(["X", "Y", "Z"], order=LEX)
    X, Y, Z = (A.variable(i) for i in range(3))
    assert eliminate(Ideal(A, [X - Y * Z, Y * Y]), [0]).ring.order == DEGREVLEX
    assert rees_presentation(Ideal(A, [X * X, Y * Y])).defining_ideal.ring.order == DEGREVLEX


def test_random_membership_cross_checked_in_prime_field():
    rng = random.Random(17)
    A = graded_ring(["x", "y", "z"])
    Ap = graded_ring(["x", "y", "z"], field=PrimeField(32003))

    def rand_poly(ring, terms):
        from reeslab.rings import Polynomial

        coeffs = {}
        for _ in range(terms):
            mono = tuple(rng.randint(0, 2) for _ in range(3))
            coeffs[mono] = ring.field.coerce(rng.randint(-9, 9))
        return Polynomial(ring, {m: c for m, c in coeffs.items() if c})

    for _ in range(10):
        gens = [rand_poly(A, rng.randint(1, 3)) for _ in range(2)]
        gens = [g for g in gens if g]
        if not gens:
            continue
        I = Ideal(A, gens)
        gb = groebner_basis(I)
        Ip = Ideal(Ap, [transport(g, Ap) for g in gens])
        gbp = groebner_basis(Ip)
        # members reduce to zero in both fields; random non-members agree too
        combo = gens[0] * rand_poly(A, 2) + gens[-1] * rand_poly(A, 1)
        assert not normal_form(combo, gb)
        assert not normal_form(transport(combo, Ap), gbp)
        probe = rand_poly(A, 3)
        if probe:
            in_q = not normal_form(probe, gb)
            in_p = not normal_form(transport(probe, Ap), gbp)
            # Q-membership implies membership mod p
            assert not in_q or in_p


def test_groebner_cache_reused(twisted_cubic):
    gb1 = twisted_cubic.groebner()
    gb2 = twisted_cubic.groebner()
    assert gb1 is gb2


def test_reduced_basis_shares_the_raw_triples(twisted_cubic):
    I = Ideal(twisted_cubic.ring, twisted_cubic.gens)
    raw = _basis(I, DEGREVLEX)
    leads = raw.leading_monomials
    assert spairs_reduce_to_zero(raw)
    # one object per ideal and order: the reduced basis is the raw one, autoreduced in place
    gb = groebner_basis(I)
    assert gb is raw
    assert gb.leading_monomials == leads
    assert spairs_reduce_to_zero(gb)


def test_elimination_order_property():
    # a monomial in the block leads every monomial free of it, whatever its degree
    A = graded_ring(["X", "Y", "Z"], order=TermOrder("elim", block=1))
    assert parse_polynomial("Y^5*Z^5 + X", A).leading_monomial() == (1, 0, 0)


@pytest.mark.parametrize("order", [LEX, DEGLEX, elimination_order(1)], ids=["lex", "deglex", "elim"])
def test_colon_stays_in_the_ring_of_the_ideal(order):
    A = graded_ring(["X", "Y"], order=order)
    X, Y = A.variable(0), A.variable(1)
    C = colon_ideal(Ideal(A, [X * Y, Y * Y]), Y)
    assert C.ring == A
    assert C == Ideal(A, [X, Y])


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_colon_by_a_non_monomial_divisor(field):
    A = graded_ring(["X", "Y", "Z"], field=field)
    f = parse_polynomial("2*X + 3*Y", A)
    I = Ideal(A, [f * parse_polynomial("X - Y", A), parse_polynomial("Z^2", A)])
    C = colon_ideal(I, f)
    assert C == Ideal(A, [parse_polynomial("X - Y", A), parse_polynomial("Z^2", A)])
    assert not any(normal_form(f * g, groebner_basis(I)) for g in C.gens)
    if not field.char:
        # the intersection's basis is monic, so the quotient (X - Y)/2 is not integral
        assert any(c.denominator != 1 for g in C.gens for _, c in g.terms)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("seed", range(4))
def test_colon_times_divisor_lies_in_the_ideal(field, seed):
    rng = random.Random(3000 + seed)
    A = graded_ring(["X", "Y", "Z"], field=field)
    variables = [A.variable(i) for i in range(3)]

    def form(degree):
        out = A.zero()
        for _ in range(3):
            term = A.one().scale(field.coerce(rng.randint(-4, 4)))
            for _ in range(degree):
                term = term * rng.choice(variables)
            out = out + term
        return out

    f = form(1) + form(1)
    if not f:
        pytest.skip("zero divisor drawn")
    I = Ideal(A, [f * form(1), form(2), form(3)])
    C = colon_ideal(I, f)
    assert not any(normal_form(g, groebner_basis(C)) for g in I.gens)
    assert not any(normal_form(f * g, groebner_basis(I)) for g in C.gens)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("divisor", ["X1", "X1 + 2*X2 - X4", "X2^2 + X1*X4"])
def test_colon_of_the_prime_twisted_cubic_is_itself(field, divisor):
    A = graded_ring(["X1", "X2", "X3", "X4"], field=field)
    I = Ideal(A, [parse_polynomial(s, A) for s in ("X1*X4 - X2*X3", "X2^2 - X1*X3", "X3^2 - X2*X4")])
    f = parse_polynomial(divisor, A)
    assert normal_form(f, groebner_basis(I))
    assert colon_ideal(I, f) == I


def test_exponents_beyond_any_fixed_field_width(monkeypatch):
    widths = []
    widened = MonomialPacking.widened
    monkeypatch.setattr(MonomialPacking, "widened", lambda P: widths.append(P.width) or widened(P))
    A = graded_ring(["x", "y", "z"])
    p = lambda text: parse_polynomial(text, A)  # noqa: E731
    gb = groebner_basis(Ideal(A, [p("x^70000*y - z^70001"), p("y^2")]))
    assert [repr(g) for g in gb.polys] == ["y^2", "x^70000*y - z^70001", "y*z^70001", "z^140002"]
    assert repr(normal_form(p("x^70001*y + z"), gb)) == "x*z^70001 + z"
    assert not widths
    # a degree past the fields of the packed basis widens them, for good
    width = gb._P.width
    assert repr(normal_form(p("x^600000 + y^3"), gb)) == "x^600000"
    assert widths
    assert gb._P.width > width
    del widths[:]
    assert repr(normal_form(p("x^70001*y + z"), gb)) == "x*z^70001 + z"
    assert repr(normal_form(p("x^600001 + y^3"), gb)) == "x^600001"
    assert not widths
    assert spairs_reduce_to_zero(gb)


@pytest.mark.parametrize("width", [2, 3, 5, 8, 17])
def test_plain_lcm_is_the_fieldwise_max(width):
    Q = MonomialPacking(5, width)
    top = (1 << (width - 1)) - 1
    rng = random.Random(width)
    for _ in range(300):
        a, b = ([rng.choice((0, top, rng.randint(0, top))) for _ in range(5)] for _ in range(2))
        assert Q.unpack(Q.lcm(Q.pack(a), Q.pack(b))) == tuple(map(max, a, b))


def test_basis_degree_past_the_initial_fields_widens_them(monkeypatch):
    widths = []
    widened = MonomialPacking.widened
    monkeypatch.setattr(MonomialPacking, "widened", lambda P: widths.append(P.width) or widened(P))
    L = graded_ring(["x", "y", "z", "w"], order=LEX)
    q = lambda text: parse_polynomial(text, L)  # noqa: E731
    gb = groebner_basis(Ideal(L, [q("x - y^3"), q("y - z^3"), q("z - w^3")]))
    assert [repr(g) for g in gb.polys] == ["z - w^3", "y - w^9", "x - w^27"]
    assert widths


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("order", [LEX, DEGLEX, DEGREVLEX, elimination_order(2)],
                         ids=["lex", "deglex", "degrevlex", "elim"])
def test_reduced_basis_does_not_depend_on_generator_order(order, field):
    A = graded_ring(["X", "Y", "Z", "W"], field=field, order=order)
    gens = [parse_polynomial(t, A) for t in (
        "X^2 - Y*Z", "X*Y - Z*W + 3*W^2", "Y^2 - 2*X*W", "X*Z - Y*W + Z^2")]
    expected = groebner_basis(Ideal(A, gens)).polys
    rng = random.Random(5)
    for _ in range(3):
        rng.shuffle(gens)
        assert groebner_basis(Ideal(A, gens)).polys == expected


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("order", [LEX, DEGLEX, DEGREVLEX, elimination_order(2)],
                         ids=["lex", "deglex", "degrevlex", "elim"])
@pytest.mark.parametrize("seed", range(3))
def test_basis_is_reduced(seed, order, field):
    # checked on exponent tuples, apart from the packed kernel that built the basis
    rng = random.Random(6000 + seed)
    A = graded_ring(["X", "Y", "Z", "W"], field=field, order=order)
    gens = []
    for _ in range(3):
        monos = [tuple(rng.randint(0, 1) for _ in range(4)) for _ in range(3)]
        gens.append(Polynomial(A, {m: field.coerce(rng.choice((-3, -2, -1, 1, 2, 3))) for m in monos}))
    gb = groebner_basis(Ideal(A, gens))
    leads = [g.leading_monomial() for g in gb.polys]
    assert all(g.terms[0][1] == 1 for g in gb.polys)
    assert not any(mono_divides(a, b) for a, b in permutations(leads, 2))
    assert not any(mono_divides(a, m) for g in gb.polys for m, _ in g.terms[1:] for a in leads)
    assert spairs_reduce_to_zero(gb)


# ---------------------------------------------------------------------------
# the raw Buchberger basis: initial monomials without autoreduction

def _random_generators(rng, ring, count=3):
    return [Polynomial(ring, {tuple(rng.randint(0, 1) for _ in range(ring.nvars)):
                              ring.field.coerce(rng.choice((-3, -2, -1, 1, 2, 3))) for _ in range(3)})
            for _ in range(count)]


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("order", [LEX, DEGLEX, DEGREVLEX, elimination_order(2)],
                         ids=["lex", "deglex", "degrevlex", "elim"])
@pytest.mark.parametrize("seed", range(3))
def test_initial_monomials_are_the_reduced_basis_leads(seed, order, field):
    rng = random.Random(7000 + seed)
    A = graded_ring(["X", "Y", "Z", "W"], field=field)
    gens = _random_generators(rng, A)
    # two ideals, so each route runs its own Buchberger
    assert initial_monomials(Ideal(A, gens), order) == groebner_basis(Ideal(A, gens), order).leading_monomials


def _counting(monkeypatch, name):
    """Patch groebner's name to record the arguments of each call; returns their list."""
    calls = []
    inner = getattr(groebner, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(groebner, name, counted)
    return calls


def test_series_and_basis_share_one_buchberger_run(monkeypatch, twisted_cubic):
    calls = _counting(monkeypatch, "_buchberger")
    I = Ideal(twisted_cubic.ring, twisted_cubic.gens)
    hilbert_series_ideal(I)
    gb = groebner_basis(I)
    assert len(calls) == 1
    assert spairs_reduce_to_zero(gb)
    # the other way round
    J = Ideal(twisted_cubic.ring, twisted_cubic.gens)
    assert groebner_basis(J).polys == gb.polys
    assert initial_monomials(J) == gb.leading_monomials
    assert len(calls) == 2


def test_rees_presentation_builds_one_basis(monkeypatch, twisted_cubic):
    from reeslab.rees import rees_presentation

    runs = _counting(monkeypatch, "_packed_run")
    P = rees_presentation(Ideal(twisted_cubic.ring, twisted_cubic.gens))
    assert len(runs) == 1
    # the elimination left the defining ideal its reduced basis
    reductions = _counting(monkeypatch, "_autoreduce")
    groebner_basis(P.defining_ideal)
    assert not reductions
    assert len(runs) == 1


def _quartic_power(j, field=QQ):
    A = graded_ring(["x0", "x1", "x2", "x3", "x4"], field=field)
    gens = ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x0*x4 - x1*x3",
            "x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2")
    return ideal_power(Ideal(A, [parse_polynomial(g, A) for g in gens]), j)


def test_hilbert_skip_gives_the_same_basis_with_fewer_reductions(monkeypatch):
    I = _quartic_power(2)
    H = hilbert_series_ideal(I)
    calls = _counting(monkeypatch, "_normal_form_int")
    full = _basis(Ideal(I.ring, I.gens), DEGREVLEX)
    n_full = len(calls)
    calls.clear()
    skipped = _basis(Ideal(I.ring, I.gens), DEGREVLEX, H)
    assert skipped.leading_monomials == full.leading_monomials
    assert skipped._triples == full._triples
    assert len(calls) < n_full
    assert spairs_reduce_to_zero(skipped)


def test_hilbert_skip_stays_off_where_sugar_is_not_the_degree(monkeypatch):
    # a bigraded ring, and inhomogeneous input; a standard graded ring under lex skips (test_ginreg.py)
    p = parse_polynomial
    A = graded_ring(["X", "Y", "Z", "W"])
    B = RingSpec(QQ, ("X1", "X2", "Y1", "Y2"), ((1, 0), (1, 0), (0, 1), (0, 1)), DEGREVLEX)
    cases = [
        (B, ("X1*Y2 - X2*Y1", "X1^2*Y1 - X2^2*Y2", "X1*X2*Y1^2 - X2^2*Y2^2")),
        (A, ("X*W - Y*Z + X", "Y^2 - X*Z", "Z^2 - Y*W")),
    ]
    calls = _counting(monkeypatch, "_normal_form_int")
    for ring, gens in cases:
        I = Ideal(ring, [p(g, ring) for g in gens])
        assert groebner._hilbert_skip(ring, hilbert_series_ring(ring), I.is_homogeneous()) is None
        calls.clear()
        expected = initial_monomials(Ideal(ring, I.gens))
        n = len(calls)
        calls.clear()
        # the whole ring's series is wrong for every proper ideal; an active skip would raise
        assert initial_monomials(I, series=hilbert_series_ring(ring)) == expected
        assert len(calls) == n


def test_wrong_hilbert_series_raises(twisted_cubic):
    A = twisted_cubic.ring
    # more standard monomials than the leads leave: degree 3's count stays below zero
    I = Ideal(A, twisted_cubic.gens)
    with pytest.raises(RingError, match="Hilbert function"):
        initial_monomials(I, series=hilbert_series_ring(A))
    assert not I._bases
    # fewer: a lead of degree 3 is still missing when degree 3's pairs have run
    bigger = Ideal(A, list(twisted_cubic.gens) + [parse_polynomial("X1^3", A)])
    with pytest.raises(RingError, match="Hilbert function"):
        initial_monomials(Ideal(A, twisted_cubic.gens), series=hilbert_series_ideal(bigger))


# ---------------------------------------------------------------------------
# Buchberger forms no pair of two terms

def _random_sparse(rng, ring, size, low, high):
    """A polynomial of size terms, each of a random degree from low to high."""
    coeffs = {}
    while len(coeffs) < size:
        mono = [0] * ring.nvars
        for _ in range(rng.randint(low, high)):
            mono[rng.randrange(ring.nvars)] += 1
        coeffs[tuple(mono)] = ring.field.coerce(rng.choice((-3, -2, -1, 1, 2, 3)))
    return Polynomial(ring, coeffs)


def _minimalized(monos):
    """The monomials that no other one divides, by brute force on exponent tuples."""
    monos = set(monos)
    return {m for m in monos if not any(n != m and mono_divides(n, m) for n in monos)}


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("order", [LEX, DEGLEX, DEGREVLEX], ids=["lex", "deglex", "degrevlex"])
@pytest.mark.parametrize("seed", range(4))
def test_monomial_ideals_form_no_pairs(monkeypatch, seed, order, field):
    rng = random.Random(9100 + seed)
    A = graded_ring(["x%d" % i for i in range(rng.randint(4, 8))], field=field)
    gens = [_random_sparse(rng, A, 1, 1, 4) for _ in range(rng.randint(6, 20))]
    reductions = _counting(monkeypatch, "_normal_form_int")
    spolys = _counting(monkeypatch, "_spoly")
    leads = initial_monomials(Ideal(A, gens), order)
    assert leads == _minimalized(g.leading_monomial() for g in gens)
    assert len(reductions) == len(gens)
    assert not spolys


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("order", [LEX, DEGLEX, DEGREVLEX], ids=["lex", "deglex", "degrevlex"])
@pytest.mark.parametrize("seed", range(4))
def test_terms_beside_binomials_and_trinomials(seed, order, field):
    rng = random.Random(9200 + seed)
    A = graded_ring(["x%d" % i for i in range(rng.randint(4, 6))], field=field)
    # terms of degree 3 and 4 beside binomials and trinomials of degree 2 and 3, so that the basis keeps tails
    gens = [_random_sparse(rng, A, 1, 3, 4) for _ in range(rng.randint(3, 6))]
    gens += [_random_sparse(rng, A, 2, 2, 3) for _ in range(rng.randint(1, 2))] + [_random_sparse(rng, A, 3, 2, 3)]
    rng.shuffle(gens)
    I = Ideal(A, gens)
    raw = _basis(I, order)
    assert any(tail for _, _, tail in raw._triples)
    assert spairs_reduce_to_zero(raw)
    # a second ideal, so that autoreduction runs its own Buchberger
    assert initial_monomials(I, order) == groebner_basis(Ideal(A, gens), order).leading_monomials


# ---------------------------------------------------------------------------
# eliminate hands its result the reduced basis it cut from the block order's

def _check_stored_basis(E):
    stored = E._bases[E.ring.order]
    assert groebner_basis(E) is stored
    fresh = groebner_basis(Ideal(E.ring, E.gens))
    assert stored.polys == fresh.polys
    assert stored.leading_monomials == fresh.leading_monomials
    assert spairs_reduce_to_zero(stored)


# the five ideals of perfbench's series Rees jobs
_SERIES_REES = {
    "twisted_cubic": (["X1", "X2", "X3", "X4"], ["X1*X4 - X2*X3", "X2^2 - X1*X3", "X3^2 - X2*X4"]),
    "planar_fat": (["X", "Y"], ["X^7", "Y^7", "X^6*Y + X^2*Y^5"]),
    "quartic": (["x0", "x1", "x2", "x3", "x4"],
                ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x0*x4 - x1*x3", "x1*x3 - x2^2", "x1*x4 - x2*x3",
                 "x2*x4 - x3^2"]),
    "sym_minors": (["x11", "x12", "x13", "x22", "x23", "x33"],
                   ["x22*x33 - x23^2", "x12*x33 - x13*x23", "x12*x23 - x13*x22", "x11*x33 - x13^2",
                    "x11*x23 - x12*x13", "x11*x22 - x12^2"]),
    "minors_2x4": (["a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4"],
                   ["a%d*b%d - a%d*b%d" % (i, j, j, i) for i in range(1, 5) for j in range(i + 1, 5)]),
}


def _rees_graph_ideal(name):
    """The ideal (Y_j - f_j t) of the Rees job name in k[X; Y; t]; t is the last variable."""
    names, texts = _SERIES_REES[name]
    A = graded_ring(names)
    fs = [parse_polynomial(g, A) for g in texts]
    ys = tuple("Y%d" % (j + 1) for j in range(len(fs)))
    ext = RingSpec(QQ, tuple(names) + ys + ("t",),
                   A.degrees + tuple((f.multidegree()[0], 1) for f in fs) + ((0, 1),), DEGREVLEX)
    t = ext.variable(ext.nvars - 1)
    return Ideal(ext, [ext.variable(len(names) + j) - transport(f, ext) * t for j, f in enumerate(fs)])


@pytest.mark.parametrize("name", sorted(_SERIES_REES))
def test_rees_elimination_stores_the_fresh_basis(name):
    J = _rees_graph_ideal(name)
    _check_stored_basis(eliminate(J, [J.ring.nvars - 1]))


def _eliminations():
    """(J, block): seeded ideals over Q and F_32003, and two Rees graph ideals with the block t."""
    for field in (QQ, PrimeField(32003)):
        rng = random.Random(9500)
        A = graded_ring(["X", "Y", "Z", "W"], field=field)
        for _ in range(3):
            gens = _random_generators(rng, A, 4)
            yield Ideal(A, gens), [rng.randrange(A.nvars)]
            yield Ideal(A, gens), rng.sample(range(A.nvars), 2)
    for name in ("twisted_cubic", "quartic"):
        J = _rees_graph_ideal(name)
        yield J, [J.ring.nvars - 1]


def test_eliminate_matches_the_public_block_order_route(monkeypatch):
    # the route eliminate replaces: the block order's reduced basis as
    # polynomials, its elements free of the block cut to the small ring
    built = _counting(monkeypatch, "_from_int_poly")
    discarded = 0
    for J, block in _eliminations():
        rest = [i for i in range(J.ring.nvars) if i not in block]
        order = TermOrder("elim", block=len(block), perm=tuple(sorted(block) + rest))
        del built[:]
        E = eliminate(J, block)
        # the block-order basis built no polynomials: only the kept elements became ones
        assert J._bases[order]._polys is None
        assert len(built) == len(E.gens)
        full = groebner_basis(Ideal(J.ring, J.gens), order).polys
        expected = tuple(Polynomial(E.ring, {tuple(m[i] for i in rest): c for m, c in g.terms})
                         for g in full if not any(m[i] for m, _ in g.terms for i in block))
        discarded += len(full) - len(expected)
        assert E.gens == expected
        kept = E._bases[E.ring.order]
        assert kept.polys == expected
        assert kept.leading_monomials == {g.leading_monomial() for g in expected}
    assert discarded


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("seed", range(4))
def test_random_elimination_stores_the_fresh_basis(seed, field):
    rng = random.Random(9300 + seed)
    A = graded_ring(["X", "Y", "Z", "W", "V"], field=field)
    gens = _random_generators(rng, A, 4)
    kept = 0
    for block in [[i] for i in range(A.nvars)] + [rng.sample(range(A.nvars), 2)]:
        E = eliminate(Ideal(A, gens), block)
        _check_stored_basis(E)
        kept += len(E.gens)
    assert kept


# ---------------------------------------------------------------------------
# ideal_power and minimal_generators against the Polynomial product route

def _minimal_generators_by_polynomials(ring, polys):
    """minimal_generators on Polynomials: rows of g * u, u a monomial, with field coefficients."""
    from reeslab._linalg import VectorSpan

    by_degree = {}
    for p in polys:
        by_degree.setdefault(p.multidegree(), []).append(p)
    kept = []
    for deg in sorted(by_degree, key=lambda d: (d[0] + d[1], d)):
        index = {m: i for i, m in enumerate(monomials_of_degree(ring, deg))}
        span = VectorSpan(ring.field.char)
        for g in kept:
            gdeg = g.multidegree()
            shift = (deg[0] - gdeg[0], deg[1] - gdeg[1])
            if shift[0] < 0 or shift[1] < 0:
                continue
            for u in monomials_of_degree(ring, shift):
                span.add({index[m]: c for m, c in (g * Polynomial(ring, {u: ring.field.one})).terms})
        for cand in by_degree[deg]:
            if span.add({index[m]: c for m, c in cand.terms}):
                kept.append(cand)
    return kept


def _power_by_polynomial_products(I, j):
    """I^j as Polynomial.__mul__ products of combinations_with_replacement, interreduced when homogeneous."""
    from itertools import combinations_with_replacement

    gens = []
    for combo in combinations_with_replacement(I.gens, j):
        prod = combo[0]
        for f in combo[1:]:
            prod = prod * f
        gens.append(prod)
    if I.is_homogeneous():
        gens = _minimal_generators_by_polynomials(I.ring, gens)
    return gens


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("case", ["twisted_cubic", "lex", "inhomogeneous", "wide_exponents", "rational"])
def test_ideal_power_matches_polynomial_products(case, field):
    order = LEX if case == "lex" else DEGREVLEX
    # (x^300, y^2)^3 needs wider fields than its generators; two variables,
    # because the oracle lists every monomial of degree 900
    names = ["x", "y"] if case == "wide_exponents" else ["x", "y", "z", "w"]
    A = graded_ring(names, field=field, order=order)
    gens = {
        "twisted_cubic": ["x*w - y*z", "y^2 - x*z", "z^2 - y*w"],
        "lex": ["x^2 - y*z", "x*y - 3*z*w + w^2", "y^3 - x*z*w"],
        "inhomogeneous": ["x^2 - y", "x*y + 2*z - 1", "w^3 + x"],
        "wide_exponents": ["x^300", "y^2"],
        "rational": ["1/2*x^2 - 2/3*y*z", "5/7*x*y + z^2", "y*w - 1/3*w^2"],
    }[case]
    I = Ideal(A, [parse_polynomial(g, A) for g in gens])
    for j in (1, 2, 3):
        assert list(ideal_power(I, j).gens) == _power_by_polynomial_products(I, j), j


def test_power_with_far_apart_degrees_in_closed_form():
    # the degree-120 piece of k[x,y,z,w] has 302 621 monomials; the
    # generators reach only the multiples of x^40 and y^2 that touch them
    A = graded_ring(["x", "y", "z", "w"])
    I = Ideal(A, [parse_polynomial("x^40", A), parse_polynomial("y^2", A)])
    assert [repr(g) for g in ideal_power(I, 3).gens] == ["y^6", "x^40*y^4", "x^80*y^2", "x^120"]


def test_ideal_powers_over_q_reduce_to_the_powers_over_f32003():
    Q = graded_ring(["x", "y", "z", "w"])
    F = graded_ring(["x", "y", "z", "w"], field=PrimeField(32003))
    rng = random.Random(11)
    for _ in range(4):
        gens = []
        for _ in range(rng.randint(2, 3)):
            d = rng.randint(1, 2)
            monos = {m for m in monomials_of_degree(Q, (d, 0)) if rng.random() < 0.5} or {(d, 0, 0, 0)}
            gens.append(Polynomial(Q, {m: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)) for m in monos}))
        I = Ideal(Q, gens)
        Ip = Ideal(F, [transport(g, F) for g in I.gens])
        for j in (2, 3):
            assert [transport(g, F) for g in ideal_power(I, j).gens] == list(ideal_power(Ip, j).gens)


def test_minimal_generators_in_a_rees_ring(twisted_cubic):
    from reeslab.groebner import minimal_generators
    from reeslab.rees import rees_presentation

    K = rees_presentation(twisted_cubic).defining_ideal
    S = K.ring
    gens = list(K.gens)
    # redundant candidates: multiples of generators by variables of both degrees, and a sum
    cands = [gens[0] * S.variable(0), gens[-1]] + gens + [gens[1] * S.variable(5), gens[0] + gens[1]]
    kept = minimal_generators(S, cands)
    assert kept == _minimal_generators_by_polynomials(S, cands)
    assert kept == [gens[-1]] + gens[:-1]


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["Q", "F7"])
@pytest.mark.parametrize("seed", range(4))
def test_minimal_generators_match_the_whole_degree_route(field, seed):
    from reeslab.groebner import minimal_generators

    S = RingSpec(field, ("x", "y", "z", "s", "t"), ((1, 0), (1, 0), (1, 0), (0, 1), (1, 1)))
    rng = random.Random(1700 + seed)

    def form(degree):
        monos = monomials_of_degree(S, degree)
        return Polynomial(S, {m: S.field.coerce(rng.choice((-3, -1, 1, 2, 6))) for m in rng.sample(monos, min(3, len(monos)))})

    gens = [form((rng.randint(1, 2), rng.randint(0, 1))) for _ in range(4)]
    # redundant candidates: multiples by variables of both degrees, sums and scalings
    cands = list(gens)
    for _ in range(5):
        cands.append(rng.choice(gens) * S.variable(rng.randrange(S.nvars)))
    for _ in range(3):
        f = rng.choice(cands)
        same = [g for g in cands if g.multidegree() == f.multidegree()]
        cands.append(f + rng.choice(same).scale(S.field.coerce(rng.choice((2, 3)))))
    cands.append(form((3, 1)))
    rng.shuffle(cands)
    kept = minimal_generators(S, cands)
    assert kept == _minimal_generators_by_polynomials(S, cands)
    assert len(kept) < len(cands)


def test_minimal_generators_over_a_prime_field_keep_their_order():
    from reeslab.groebner import minimal_generators

    texts = ["y^3", "x^2 + x*y", "x^2 - 6*x*y", "y^2", "x*y^2 + y^3", "x^3 - 2*y^3"]
    kept = {}
    for field in (QQ, PrimeField(7)):
        A = graded_ring(["x", "y"], field=field)
        cands = [parse_polynomial(t, A) for t in texts]
        got = minimal_generators(A, cands)
        assert got == _minimal_generators_by_polynomials(A, cands)
        kept[field] = [repr(g) for g in got]
    # -6 = 1 mod 7: the second quadric repeats the first
    assert kept[PrimeField(7)] == ["x^2 + x*y", "y^2"]
    assert kept[QQ] == ["x^2 + x*y", "x^2 - 6*x*y", "y^2"]


# ---------------------------------------------------------------------------
# criterion M on the colon monomials, and the reducer memo

def _criterion_m_by_scan(ph, leads, Q):
    """The g whose pair with h survives the quadratic scan of Gebauer-Moeller's criterion M.

    The scan of Becker-Weispfenning p. 230: g is kept if its leading monomial
    is disjoint from h's, or if neither a later g nor a kept one has an lcm
    with h that divides lcm(h, g). A disjoint g forms no pair, so the pairs
    are the kept g that are not disjoint.
    """
    qguard = Q.guard
    order = [g for g, _ in leads]
    plain = dict(leads)
    lcm_h = {g: Q.lcm(ph, pg) for g, pg in leads}
    kept = []
    for pos, g in enumerate(order):
        Lg = lcm_h[g] | qguard
        if ph + plain[g] == lcm_h[g] or (
            not any((Lg - lcm_h[p]) & qguard == qguard for p in order[pos + 1:])
            and not any((Lg - lcm_h[p]) & qguard == qguard for p in kept)
        ):
            kept.append(g)
    return {g for g in kept if ph + plain[g] != lcm_h[g]}


def _pairs_of(ph, leads, Q):
    """The g with a pair after _criterion_m and the product criterion."""
    plain = dict(leads)
    kept = groebner._criterion_m(ph, leads, Q)
    assert all(L == Q.lcm(ph, plain[g]) for g, L in kept)
    return {g for g, L in kept if ph + plain[g] != L}


def _antichain(rng, nvars, size, top):
    """Up to size exponent tuples, none dividing another."""
    out = []
    for _ in range(4 * size):
        m = tuple(rng.randint(0, top) for _ in range(nvars))
        if any(m) and not any(mono_divides(a, m) or mono_divides(m, a) for a in out):
            out.append(m)
        if len(out) == size:
            break
    return out


def test_criterion_m_forms_the_pairs_of_the_quadratic_scan():
    ties = disjoint = 0
    for seed in range(300):
        rng = random.Random(12500 + seed)
        nvars = rng.randint(2, 5)
        Q = MonomialPacking(nvars, 4)
        G = _antichain(rng, nvars, rng.randint(1, 14), rng.choice((1, 2, 3)))
        h = tuple(rng.randint(0, 3) for _ in range(nvars))
        if not any(h) or any(mono_divides(g, h) for g in G):
            continue
        ph = Q.pack(h)
        leads = [(i, Q.pack(g)) for i, g in sorted(rng.sample(list(enumerate(G)), len(G)))]
        colons = [Q.lcm(ph, pg) - ph for _, pg in leads]
        ties += len(set(colons)) < len(colons)
        disjoint += any(ph + pg == Q.lcm(ph, pg) for _, pg in leads)
        assert _pairs_of(ph, leads, Q) == _criterion_m_by_scan(ph, leads, Q), seed
    # the seeds reach equal colons and disjoint leading monomials
    assert ties > 20 and disjoint > 20


def _checking_criterion_m(monkeypatch):
    """Patch _criterion_m to compare each update's pairs with the quadratic scan; returns each update's |C|."""
    calls = []
    inner = groebner._criterion_m

    def checked(ph, leads, Q):
        calls.append(len(leads))
        out = inner(ph, leads, Q)
        plain = dict(leads)
        assert {g for g, L in out if ph + plain[g] != L} == _criterion_m_by_scan(ph, leads, Q)
        return out

    monkeypatch.setattr(groebner, "_criterion_m", checked)
    return calls


@pytest.mark.parametrize("j", [2, 3])
def test_quartic_power_runs_form_the_pairs_of_the_quadratic_scan(monkeypatch, j):
    I = _quartic_power(j)
    calls = _checking_criterion_m(monkeypatch)
    gb = groebner_basis(I)
    assert calls and max(calls) > 10
    assert spairs_reduce_to_zero(gb)


def test_twisted_cubic_rees_run_forms_the_pairs_of_the_quadratic_scan(monkeypatch, twisted_cubic, twisted_cubic_rees):
    from reeslab.rees import rees_presentation

    calls = _checking_criterion_m(monkeypatch)
    P = rees_presentation(Ideal(twisted_cubic.ring, twisted_cubic.gens))
    assert calls
    assert P.defining_ideal.groebner().polys == twisted_cubic_rees.defining_ideal.groebner().polys


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_reducer_memo_changes_no_reduced_basis(monkeypatch, field):
    # the memo against normal forms that scan G for every term
    rng = random.Random(12700)
    A = graded_ring(["x", "y", "z", "w", "v"], field=field)
    ideals = [_quartic_power(3, field).gens]
    for _ in range(12):
        # inhomogeneous, so that new leads push old elements out of G
        ideals.append([_random_sparse(rng, A, rng.randint(2, 4), 0, 3) for _ in range(rng.randint(2, 4))])
    with_memo = [groebner_basis(Ideal(gens[0].ring, gens)) for gens in ideals]
    normal_form_int = groebner._normal_form_int
    monkeypatch.setattr(groebner, "_normal_form_int",
                        lambda f, reducers, guard, char, memo=None, *args:
                        normal_form_int(f, reducers, guard, char, None, *args))
    for gens, gb in zip(ideals, with_memo):
        plain = groebner_basis(Ideal(gens[0].ring, gens))
        assert gb.polys == plain.polys
        assert gb.leading_monomials == plain.leading_monomials


# ---------------------------------------------------------------------------
# the pair loop top-reduces; autoreduction reduces each tail once

def _raw_runs(monkeypatch):
    """Patch _packed_run to keep the raw basis of each Buchberger run; returns their list."""
    runs = []
    inner = groebner._packed_run

    def captured(ring, P, packed, missing_leads):
        P, triples = inner(ring, P, packed, missing_leads)
        runs.append(groebner.GroebnerBasis(ring, P.order, P, list(triples)))
        return P, triples

    monkeypatch.setattr(groebner, "_packed_run", captured)
    return runs


def _reducible_tail_terms(G):
    """The tail terms of G's triples that a leading monomial of G divides."""
    P = G._P
    leads = [lm for lm, _, _ in G._triples]
    return sum(any(P.divides(lm, m) for lm in leads) for _, _, tail in G._triples for m in tail)


def _top_against_full(monkeypatch, build):
    """build() on the top-reducing pair loop and on one that reduces fully, the reference.

    Every raw basis of the top-reducing route must pass the S-pair check,
    and the two routes must give equal results and, run by run, equal polys
    and leading monomials. Returns the reducible tail terms of each route's
    raw bases.
    """
    outs, bases, reducible = [], [], []
    for full in (False, True):
        with monkeypatch.context() as m:
            runs = _raw_runs(m)
            if full:
                inner = groebner._normal_form_int
                m.setattr(groebner, "_normal_form_int",
                          lambda f, reducers, guard, char, memo=None, top=False:
                          inner(f, reducers, guard, char, memo))
            outs.append(build())
        assert runs
        assert full or all(spairs_reduce_to_zero(G) for G in runs)
        reducible.append(sum(map(_reducible_tail_terms, runs)))
        bases.append([(G.polys, G.leading_monomials) for G in runs])
    assert outs[0] == outs[1]
    assert bases[0] == bases[1]
    return reducible


@pytest.mark.parametrize("j", [2, 3, 4])
def test_top_reduced_powers_match_full_reduction(monkeypatch, j):
    top, full = _top_against_full(monkeypatch, lambda: groebner_basis(_quartic_power(j)).polys)
    # the top-reduced route left tails for autoreduction
    assert top > full


@pytest.mark.parametrize("name", ["twisted_cubic", "minors_2x4"])
def test_top_reduced_rees_presentations_match_full_reduction(monkeypatch, name):
    from reeslab.rees import rees_presentation

    names, texts = _SERIES_REES[name]
    A = graded_ring(names)
    gens = [parse_polynomial(g, A) for g in texts]
    _top_against_full(monkeypatch, lambda: rees_presentation(Ideal(A, gens)).defining_ideal.groebner().polys)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("order", [LEX, DEGLEX, DEGREVLEX, elimination_order(2)],
                         ids=["lex", "deglex", "degrevlex", "elim"])
def test_top_reduced_seeded_ideals_match_full_reduction(monkeypatch, order, field):
    rng = random.Random(12900)
    A = graded_ring(["x", "y", "z", "w", "v"], field=field, order=order)
    ideals = []
    for _ in range(4):
        ideals.append([_random_sparse(rng, A, rng.randint(2, 4), 0, 3) for _ in range(rng.randint(2, 4))])
    for _ in range(2):
        ideals.append([_random_sparse(rng, A, 3, 2, 2) for _ in range(3)] + [_random_sparse(rng, A, 3, 3, 3)])
    top, full = _top_against_full(monkeypatch, lambda: [groebner_basis(Ideal(A, gens)).polys for gens in ideals])
    assert top >= full


# ---------------------------------------------------------------------------
# ideal_power hands its packed products to Buchberger

@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("order", [LEX, DEGLEX, DEGREVLEX, elimination_order(2)],
                         ids=["lex", "deglex", "degrevlex", "elim"])
def test_power_hands_its_packed_products_to_buchberger(monkeypatch, order, field):
    A = graded_ring(["x", "y", "z", "w"], field=field, order=order)
    I = Ideal(A, [parse_polynomial(t, A) for t in ("1/2*x*w - y*z", "y^2 - 3*x*z", "z^2 - y*w + x^2")])
    J = ideal_power(I, 3)
    products = J._packed
    runs = _counting(monkeypatch, "_packed_run")
    gb = groebner_basis(J)
    # the run took the products as ideal_power packed them, and let them go
    (_, P, packed, _), = runs
    assert P is products[0] and packed is products[1] and J._packed is None
    assert gb.polys == groebner_basis(Ideal(A, J.gens)).polys
    assert len(runs) == 2 and runs[1][2] is not packed
    # a basis in another order packs the gens
    other = DEGLEX if order == LEX else LEX
    K = ideal_power(I, 2)
    assert initial_monomials(K, other) == initial_monomials(Ideal(A, K.gens), other)
    assert len(runs) == 4 and runs[2][1].order == other and K._packed is not None


def test_packed_products_past_their_fields_widen_them(monkeypatch):
    widths, wide = [], []
    widened = MonomialPacking.widened
    monkeypatch.setattr(MonomialPacking, "widened",
                        lambda P: widths.append(P.width) or wide.append(widened(P)) or wide[-1])
    L = graded_ring(["x", "y", "z", "w"], order=LEX)
    J = ideal_power(Ideal(L, [parse_polynomial(t, L) for t in ("x - y^3", "y - z^3", "z - w^3")]), 1)
    gb = groebner_basis(J)
    assert [repr(g) for g in gb.polys] == ["z - w^3", "y - w^9", "x - w^27"]
    assert widths
    # the basis is packed by the last widened fields
    assert gb._P is wide[-1]
    assert gb.leading_monomials == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)}
    assert {gb._P.unpack(m) for _, _, tail in gb._triples for m in tail} == {(0, 0, 0, 3), (0, 0, 0, 9), (0, 0, 0, 27)}
    # a Buchberger run whose S-polynomials pass the fields returns its basis packed by the widened ones
    gens = [parse_polynomial(t, L) for t in ("x^3 - y*z*w", "x^2*y - z^3")]
    narrow = MonomialPacking.fitting(4, 3, LEX)
    del wide[:]
    P, triples = groebner._packed_run(L, narrow, [groebner._pack_poly(groebner._to_int_poly(g)[0], narrow)
                                                  for g in gens], None)
    assert wide and P is wide[-1]
    assert {P.unpack(lm) for lm, _, _ in triples} == initial_monomials(Ideal(L, gens))
