import random
from fractions import Fraction

import pytest

from reeslab import (
    Ideal,
    QQ,
    HilbertSeriesRational,
    RingSpec,
    SeriesError,
    bigraded_hilbert_polynomial,
    blowup_ring,
    dim_mult,
    graded_ring,
    hilbert_function,
    hilbert_polynomial,
    hilbert_series_ideal,
    hilbert_series_monomial,
    hilbert_series_ring,
    ideal_power,
    parse_polynomial,
)
from reeslab import _qpoly as qp
from conftest import (
    count_standard_monomials,
    monomial_quotient_dimension,
    qpoly,
    random_monomial_ideal,
)


def test_series_of_free_ring():
    A = graded_ring(["X", "Y"])
    H = hilbert_series_monomial(Ideal(A, []))
    assert dict(H.num) == {(0, 0): 1}
    assert dict(H.den) == {(1, 0): 2}


def test_series_of_square_of_maximal_ideal():
    A = graded_ring(["X", "Y"])
    J = Ideal(A, [parse_polynomial(s, A) for s in ("X^2", "X*Y", "Y^2")])
    H = hilbert_series_monomial(J)
    # dimensions 1, 2, 0, 0, ... force numerator 1 - 3s^2 + 2s^3
    assert dict(H.num) == {(0, 0): 1, (2, 0): -3, (3, 0): 2}


def test_series_of_free_bigraded_algebra():
    B = blowup_ring(["X"], ["Y"], [2])
    H = hilbert_series_monomial(Ideal(B, []))
    assert dict(H.den) == {(1, 0): 1, (2, 1): 1}


def test_series_rejects_non_monomial(twisted_cubic):
    with pytest.raises(SeriesError):
        hilbert_series_monomial(twisted_cubic)


def test_symmetric_minors_series(symmetric_minors):
    H = hilbert_series_ideal(symmetric_minors, "ideal")
    assert dict(H.num) == {(2, 0): 6, (3, 0): -8, (4, 0): 3}


def test_unit_ideal_quotient_is_zero():
    A = graded_ring(["X", "Y"])
    H = hilbert_series_ideal(Ideal(A, [A.one()]), "quotient")
    assert dict(H.num) == {}


def test_hilbert_function_values(twisted_cubic):
    A4 = hilbert_series_ring(twisted_cubic.ring)
    assert hilbert_function(A4, 5) == 56
    H2 = hilbert_series_ideal(ideal_power(twisted_cubic, 2), "ideal")
    assert hilbert_function(H2, 5) == 18
    assert hilbert_function(H2, 3) == 0


def test_hilbert_polynomials_of_powers(twisted_cubic):
    P1 = hilbert_polynomial(hilbert_series_ideal(twisted_cubic, "quotient"))
    assert P1.coeffs == qpoly(1, 3)
    P2 = hilbert_polynomial(hilbert_series_ideal(ideal_power(twisted_cubic, 2), "quotient"))
    assert P2.coeffs == qpoly(-7, 9)
    A = twisted_cubic.ring
    PA = hilbert_polynomial(hilbert_series_ring(A))
    assert PA.coeffs == qp.binomial_in_x(3, 3)


def test_hilbert_polynomial_threshold_agrees_with_function(twisted_cubic):
    H = hilbert_series_ideal(ideal_power(twisted_cubic, 2), "quotient")
    P = hilbert_polynomial(H)
    for s in range(P.threshold, P.threshold + 6):
        assert P(s) == hilbert_function(H, s)


def test_dim_mult_reports(twisted_cubic, twisted_cubic_rees):
    quot = dim_mult(hilbert_series_ideal(twisted_cubic, "quotient"))
    assert (quot.dimension, quot.multiplicity) == (2, 3)
    rees = dim_mult(twisted_cubic_rees.series())
    assert rees.dimension == 5
    assert rees.relevant_dimension == 5


def test_dim_zero_quotient():
    A = graded_ring(["X"])
    H = hilbert_series_ideal(Ideal(A, [parse_polynomial("X^4", A)]), "quotient")
    report = dim_mult(H)
    assert report.dimension == 0
    assert report.multiplicity == 4


def _dim_mult_by_fractions(series):
    """(dimension, multiplicity) by the Fraction loop of an earlier dim_mult: divide by (1 - z) while N(1) = 0."""
    weights = []
    for (a, b), m in series.den:
        weights.extend([a + b] * m)
    poly = [0] * (max((a + b for (a, b), _ in series.num), default=0) + 1)
    for (a, b), c in series.num:
        poly[a + b] += c
    order = 0
    work = [Fraction(x) for x in poly]
    while work and sum(work) == 0 and any(work):
        out = [Fraction(0)] * (len(work) - 1)
        acc = Fraction(0)
        for k in range(len(work) - 1):
            acc += work[k]
            out[k] = acc
        work = out
        order += 1
    if not any(work):
        return -1, Fraction(0)
    wprod = 1
    for w in weights:
        wprod *= w
    if order == len(weights):
        return 0, Fraction(sum(work))
    return len(weights) - order, Fraction(sum(work), wprod)


def test_dim_mult_matches_the_fraction_pole_loop():
    rng = random.Random(47)
    A = graded_ring(["X"])
    cases = [
        HilbertSeriesRational.make({}, [(1, 0)] * 3),    # the zero module
        hilbert_series_ideal(Ideal(A, [parse_polynomial("X^4", A)]), "quotient"),    # dimension 0
    ]
    bigraded = [(1, 0), (0, 1), (1, 1), (2, 1)]
    for trial in range(48):
        n = rng.randint(1, 5)
        if trial % 3 == 0:
            # the series of a monomial quotient over (1 - s)^n
            cases.append(hilbert_series_monomial(random_monomial_ideal(rng, graded_ring(["v%d" % i for i in range(n)]))))
            continue
        degrees = [(1, 0)] * n if trial % 3 == 1 else [rng.choice(bigraded) for _ in range(n)]
        # a random numerator times some of the denominator's factors, so poles cancel
        num = {(rng.randint(0, 3), rng.randint(0, 2)): rng.randint(-4, 4) for _ in range(rng.randint(1, 4))}
        for d in rng.sample(degrees, rng.randint(0, n)):
            out = dict(num)
            for (x, y), c in num.items():
                out[(x + d[0], y + d[1])] = out.get((x + d[0], y + d[1]), 0) - c
            num = out
        cases.append(HilbertSeriesRational.make(num, degrees))
    orders = set()
    for series in cases:
        report = dim_mult(series, with_relevant=False)
        assert (report.dimension, report.multiplicity) == _dim_mult_by_fractions(series)
        assert type(report.multiplicity) is Fraction
        orders.add(sum(m for _, m in series.den) - report.dimension)
    # the cases cancel poles of several orders, down to the zero module and dimension 0
    assert len(orders) >= 4


def test_equal_series_hash_alike():
    A = graded_ring(["x", "y", "z"])
    ring = hilbert_series_ring(A)
    made = HilbertSeriesRational.make({(0, 0): 1, (2, 0): -1}, [(1, 0)] * 3)
    quotient = hilbert_series_ideal(Ideal(A, [parse_polynomial("x*y", A)]), "quotient")
    ideal = HilbertSeriesRational.make({(2, 0): 1}, A.degrees)
    for series in (quotient, ring - ideal, (ring - ideal) + (ideal - ideal), ring + (made - ring)):
        assert series == made
        assert hash(series) == hash(made)
    assert len({made, quotient, ring - ideal}) == 1


def test_series_vs_enumeration_random_monomial_ideals():
    rng = random.Random(23)
    for trial in range(30):
        n = rng.randint(1, 5)
        ring = graded_ring(["v%d" % i for i in range(n)])
        J = random_monomial_ideal(rng, ring)
        H = hilbert_series_monomial(J)
        gens = [g.leading_monomial() for g in J.gens]
        arr = H.expand(12)
        for q in range(13):
            assert arr[q][0] == count_standard_monomials(ring, gens, (q, 0))


def test_pole_order_matches_combinatorial_dimension():
    rng = random.Random(31)
    for trial in range(25):
        n = rng.randint(1, 5)
        ring = graded_ring(["v%d" % i for i in range(n)])
        J = random_monomial_ideal(rng, ring)
        gens = [g.leading_monomial() for g in J.gens]
        assert dim_mult(hilbert_series_monomial(J)).dimension == monomial_quotient_dimension(n, gens)


def test_bigraded_hilbert_polynomial_on_grid(twisted_cubic_rees):
    series = twisted_cubic_rees.series()
    poly = bigraded_hilbert_polynomial(series)
    assert poly.total_degree == 3
    arr = series.expand(2 * 9 + 8, 9)
    for j in range(2, 8):
        for off in range(3, 8):
            i = 2 * j + off
            assert poly(i, j) == arr[i][j]


UNEQUAL_DEGREE_IDEALS = {
    "x2_y3_xz2": (["x", "y", "z"], ["x^2", "y^3", "x*z^2"]),
    "x_y2": (["x", "y"], ["x", "y^2"]),
    "x_y2_z3": (["x", "y", "z"], ["x", "y^2", "z^3"]),
    "cubic_and_quadric": (["x", "y", "z", "w"], ["x*w - y*z", "y^3 - x*z^2"]),
}
QUARTIC = (["x0", "x1", "x2", "x3", "x4"],
           ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x0*x4 - x1*x3",
            "x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2"])


@pytest.mark.parametrize("name", ["quartic", "sym_minors"] + sorted(UNEQUAL_DEGREE_IDEALS))
def test_bigraded_hilbert_polynomial_matches_expand_past_origin(name, request):
    from reeslab.rees import rees_presentation

    if name == "sym_minors":
        P = request.getfixturevalue("symmetric_minors_rees")
    else:
        names, gens = QUARTIC if name == "quartic" else UNEQUAL_DEGREE_IDEALS[name]
        A = graded_ring(names)
        P = rees_presentation(Ideal(A, [parse_polynomial(g, A) for g in gens]))
    series = P.series()
    poly = bigraded_hilbert_polynomial(series)
    u0, j0 = poly.origin
    d = max(P.degrees)
    assert poly.shear == d and all(type(c) is int for _, c in poly.coeffs)
    size = 12
    arr = series.expand(d * (j0 + size) + u0 + size, j0 + size)
    for j in range(j0, j0 + size):
        for i in range(d * j + u0, d * j + u0 + size):
            assert poly(i, j) == arr[i][j]
    assert dim_mult(series).relevant_dimension == poly.total_degree + 2


def test_bigraded_hilbert_polynomial_rejects_other_denominators():
    series = HilbertSeriesRational.make({(0, 0): 1}, [(1, 0), (2, 0), (1, 1)])
    with pytest.raises(SeriesError):
        bigraded_hilbert_polynomial(series)
    report = dim_mult(series)
    assert report.dimension == 3 and report.relevant_dimension is None


def test_laurent_support_rejected_in_expand():
    H = hilbert_series_ideal(Ideal(graded_ring(["x"]), []), "quotient")
    shifted = HilbertSeriesRational(tuple(((a - 1, b), c) for (a, b), c in H.num), H.den)
    with pytest.raises(SeriesError):
        shifted.expand(3)


def test_series_equality_cross_denominator():
    A = graded_ring(["x", "y"])
    H = hilbert_series_ideal(Ideal(A, [A.variable(0)]), "quotient")
    # 1/(1-s) written over (1-s)^2 as (1-s)/(1-s)^2
    one_var = hilbert_series_ring(graded_ring(["y"]))
    assert H == one_var
