import random

import pytest

from reeslab import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    ParseError,
    PrimeField,
    QQ,
    RingError,
    RingSpec,
    blowup_ring,
    format_polynomial,
    graded_ring,
    multidegree_of,
    parse_polynomial,
)
from reeslab.rings import MonomialPacking, PackingOverflow, TermOrder
from conftest import naive_multiply


@pytest.fixture
def A():
    return graded_ring(["X1", "X2", "X3", "X4"])


def test_parse_twisted_cubic_generator(A):
    f = parse_polynomial("X1*X4 - X2*X3", A)
    assert len(f.terms) == 2
    assert f.multidegree() == (2, 0)


def test_parse_zero(A):
    assert not parse_polynomial("0", A)
    assert parse_polynomial("0", A).terms == ()


def test_parse_cancellation(A):
    f = parse_polynomial("X1^2 - X1^2 + X2", A)
    assert f == A.variable(1)


def test_parse_rejects_unknown_variable(A):
    with pytest.raises(ParseError):
        parse_polynomial("X1*Z", A)


def test_parse_reports_position(A):
    with pytest.raises(ParseError) as err:
        parse_polynomial("X1 + %", A)
    assert err.value.position is not None


def test_parse_rational_literal(A):
    f = parse_polynomial("3/2*X1 - 1/2*X1", A)
    assert f == A.variable(0)


def test_multiply_difference_of_squares(A):
    x, y = A.variable(0), A.variable(1)
    assert (x + y) * (x - y) == x * x - y * y


def test_multiply_by_zero(A):
    f = parse_polynomial("X1 + X2", A)
    assert not f * A.zero()


def test_multidegree_inhomogeneous():
    B = blowup_ring(["X1"], ["Y1"], [2])
    f = parse_polynomial("X1 + Y1", B)
    assert multidegree_of(f) == "inhomogeneous"
    assert multidegree_of(parse_polynomial("Y1", B)) == (2, 1)


def test_multidegree_of_zero_raises(A):
    with pytest.raises(RingError):
        A.zero().multidegree()


def test_random_ring_axioms_against_naive_oracle(A):
    rng = random.Random(11)

    def rand_poly():
        coeffs = {}
        for _ in range(rng.randint(0, 8)):
            mono = tuple(rng.randint(0, 3) for _ in range(4))
            coeffs[mono] = rng.randint(-5, 5)
        from reeslab.rings import Polynomial

        return Polynomial(A, {m: QQ.coerce(c) for m, c in coeffs.items() if c})

    for _ in range(40):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert f * g == naive_multiply(f, g)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_homogeneous_product_degrees(A):
    rng = random.Random(5)
    monos3 = A.monomials_of_degree((3, 0))
    from reeslab.rings import Polynomial

    for _ in range(20):
        f = Polynomial(A, {rng.choice(monos3): QQ.coerce(rng.randint(1, 5)) for _ in range(3)})
        g = Polynomial(A, {rng.choice(monos3): QQ.coerce(rng.randint(1, 5)) for _ in range(2)})
        assert (f * g).multidegree() == (6, 0)


def test_parse_format_roundtrip(A):
    rng = random.Random(3)
    from reeslab.rings import Polynomial

    for _ in range(25):
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            mono = tuple(rng.randint(0, 2) for _ in range(4))
            coeffs[mono] = QQ.coerce(rng.randint(-4, 4))
        f = Polynomial(A, {m: c for m, c in coeffs.items() if c})
        assert parse_polynomial(format_polynomial(f), A) == f


def test_degrevlex_vs_lex_leading_monomials():
    B = RingSpec(QQ, ("X1", "X2", "Y1", "Y2"), ((1, 0), (1, 0), (0, 1), (0, 1)), LEX)
    f = parse_polynomial("X1*Y2 + X2*Y1", B)
    assert f.leading_monomial() == (1, 0, 0, 1)
    g = parse_polynomial("X1*Y2 + X2*Y1", B.with_order(DEGREVLEX))
    assert g.leading_monomial() == (0, 1, 1, 0)


def test_prime_field_arithmetic():
    F = PrimeField(7)
    A7 = graded_ring(["x", "y"], field=F)
    f = parse_polynomial("3*x + 5*x", A7)
    assert f == A7.variable(0)
    with pytest.raises(RingError):
        PrimeField(6)


def test_prime_field_primality_is_fast_and_exact():
    for p in (2, 3, 41, 32003, 2305843009213693951):
        assert PrimeField(p).char == p
    # 3215031751 is the smallest strong pseudoprime to bases 2, 3, 5 and 7;
    # the last one passes every prime base up to 37
    for n in (0, 1, 561, 1681, 2047, 3215031751, 318665857834031151167461):
        with pytest.raises(RingError, match="not prime"):
            PrimeField(n)
    with pytest.raises(RingError, match="3317044064679887385961981"):
        PrimeField(3317044064679887385961981)


def test_ring_value_equality():
    a = graded_ring(["x", "y"])
    b = graded_ring(["x", "y"])
    assert a == b
    assert a != graded_ring(["x", "z"])


@pytest.mark.parametrize("order", [
    LEX, DEGLEX, DEGREVLEX, TermOrder("elim", block=2),
    TermOrder("degrevlex", perm=(3, 1, 4, 0, 2)), TermOrder("elim", block=1, perm=(2, 0, 1, 4, 3)),
], ids=["lex", "deglex", "degrevlex", "elim", "degrevlex_perm", "elim_perm"])
def test_packed_monomials_against_exponent_tuples(order):
    n = 5
    rng = random.Random(7)
    key = order.key_function(n)
    P = MonomialPacking.fitting(n, 2 * 4 * n, order)
    monos = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(60)]
    packed = {m: P.pack(m) for m in monos}
    assert sorted(monos, key=key) == sorted(monos, key=packed.get)
    for a, b in zip(monos, monos[1:] + monos[:1]):
        pa, pb = packed[a], packed[b]
        assert P.unpack(pa + pb) == tuple(x + y for x, y in zip(a, b))
        assert P.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
        assert P.degree(pa) == sum(a)
    E = MonomialPacking.fitting(n, 4)
    for a, b in zip(monos, monos[1:]):
        assert E.divides(E.pack(a), E.pack(b)) == all(x <= y for x, y in zip(a, b))


def test_packed_overflow_is_caught():
    P = MonomialPacking.fitting(3, 7, DEGREVLEX)    # 4-bit fields: values up to 7
    with pytest.raises(PackingOverflow):
        P.pack((4, 4, 0))
    a, b = P.pack((4, 0, 0)), P.pack((0, 4, 0))
    assert (a + b) & P.guard                       # the degree field overflowed
    assert not (a + P.pack((0, 3, 0))) & P.guard
    assert P.widened().unpack(P.widened().pack((4, 4, 0))) == (4, 4, 0)
    E = MonomialPacking.fitting(3, 7)               # exponent fields only
    assert E.unpack(E.pack((7, 7, 7))) == (7, 7, 7)
    with pytest.raises(PackingOverflow):
        E.pack((0, 8, 0))


@pytest.mark.parametrize("degrees", [
    ((1, 0),) * 4,
    ((1, 0), (1, 0), (0, 1)),
    ((0, 1), (1, 0), (1, 0)),
    ((1, 0), (1, 0), (1, 0), (2, 1), (3, 1)),
    ((1, 0), (0, 1), (2, 1), (1, 1)),
])
def test_monomials_of_degree_against_brute_force(degrees):
    import itertools

    ring = RingSpec(QQ, tuple("v%d" % i for i in range(len(degrees))), degrees)
    A, B = 6, 3
    # every exponent is at most max(a, b) for a degree (a, b); product() lists in lex order
    expected = {}
    for e in itertools.product(range(A + 1), repeat=len(degrees)):
        deg = tuple(sum(x * d[k] for x, d in zip(e, degrees)) for k in (0, 1))
        if deg[0] <= A and deg[1] <= B:
            expected.setdefault(deg, []).append(e)
    for a in range(A + 1):
        for b in range(B + 1):
            assert ring.monomials_of_degree((a, b)) == expected.get((a, b), [])
