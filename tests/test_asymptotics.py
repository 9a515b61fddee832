from fractions import Fraction
from math import comb, factorial

import pytest

from reeslab import (
    Ideal,
    graded_ring,
    hilbert_polynomial,
    hilbert_series_ideal,
    ideal_power,
    parse_polynomial,
)
from reeslab import _qpoly as qp
from reeslab.asymptotics import (
    FitError,
    fit_hilbert_polynomials,
    fit_hilbert_series,
    mixed_multiplicities,
    predict_resolutions,
    stable_projdim,
)
from reeslab.betti import graded_betti_table
from reeslab.rees import fiber_cone, rees_presentation
from conftest import TWISTED_CUBIC_TEMPLATE, qpoly


def quotient_hp(I, j):
    return hilbert_polynomial(hilbert_series_ideal(ideal_power(I, j), "quotient"))


def leading_coefficients(family):
    """lambda_(h+i) = (h+i)! times the j^(h+i) coefficient of e_i(j), for each e_i of the family."""
    out = {}
    for i, poly in enumerate(family.polys):
        k = family.h + i
        padded = tuple(poly) + (Fraction(0),) * max(0, k + 1 - len(poly))
        out[k] = padded[k] * factorial(k)
    return out


def transfer(family, d, l):
    """e_i(R) and e_i(G) by the transfer formula from the family's leading coefficients lambda.

    With S_m(i) = sum over i <= k < n-h of (-1)^(n-h-1-k) lambda_(n-k-1) d^(k-i) binom(m-i, k-i):
    e_i(R) is 0 for i <= n-l-1, d^(n-1-i) for i >= n-h and d^(n-1-i) - S_(n-1)(i) in between;
    e_i(G) is S_(n-2)(i) for n-l-2 < i < n-h and 0 otherwise.
    """
    n, h = family.n, family.h
    lam = leading_coefficients(family)

    def signed_sum(i, top):
        return sum((-1) ** (n - h - 1 - k) * lam[n - k - 1] * d ** (k - i) * comb(top - i, k - i)
                   for k in range(i, n - h))

    rees = []
    for i in range(n):
        if i <= n - l - 1:
            rees.append(0)
        elif i >= n - h:
            rees.append(d ** (n - 1 - i))
        else:
            rees.append(d ** (n - 1 - i) - signed_sum(i, n - 1))
    form = [0 if i >= n - h or i <= n - l - 2 else signed_sum(i, n - 2) for i in range(n - 1)]
    return tuple(rees), tuple(form)


def power_family(P):
    """The family fitted to the quotient polynomials of the n t-slices of H_R from the proven threshold."""
    from reeslab import bigraded_hilbert_polynomial, hilbert_series_ring

    H_A = hilbert_series_ring(P.base_ring)
    j0 = max(1, bigraded_hilbert_polynomial(P.series()).origin[1])
    return fit_hilbert_polynomials(
        {j: hilbert_polynomial(H_A - P.power_series(j)) for j in range(j0, j0 + P.x_count)})


@pytest.fixture(scope="module")
def cubic_family(twisted_cubic):
    # j = 4 stays out: test_predicted_fourth_power predicts it
    samples = {j: quotient_hp(twisted_cubic, j) for j in (1, 2, 3, 5)}
    return fit_hilbert_polynomials(samples)


def test_power_polynomials(cubic_family):
    assert (cubic_family.n, cubic_family.h) == (4, 2)
    # e_0 = 3/2 j (j+1); e_1 = 5/3 j (j+1) (j - 2/5)
    assert cubic_family.polys[0] == qpoly(0, Fraction(3, 2), Fraction(3, 2))
    assert cubic_family.polys[1] == qpoly(0, Fraction(-2, 3), 1, Fraction(5, 3))


def test_power_polynomial_leading_coefficients(cubic_family):
    assert leading_coefficients(cubic_family) == {2: 3, 3: 10}


def test_predicted_fourth_power(twisted_cubic, cubic_family):
    pred = cubic_family.hilbert_polynomial(4)
    assert pred.coeffs == qpoly(-90, 30)
    assert pred.coeffs == quotient_hp(twisted_cubic, 4).coeffs


def test_inconsistent_samples_rejected(twisted_cubic):
    samples = {j: quotient_hp(twisted_cubic, j) for j in (1, 2, 3)}
    from reeslab.hilbert import HilbertPolynomial

    samples[4] = HilbertPolynomial(qpoly(0, 31), 0, 4)  # wrong on purpose
    with pytest.raises(FitError):
        fit_hilbert_polynomials(samples)


def test_fit_reads_n_and_h_off_the_samples(twisted_cubic):
    from reeslab.hilbert import HilbertPolynomial

    samples = {j: quotient_hp(twisted_cubic, j) for j in (1, 2, 3, 5)}
    # a line in four variables: h = 4 - 1 - 1 for every sample
    assert {(p.dimension_hint, p.degree) for p in samples.values()} == {(4, 1)}
    # a quadric's degree gives another h, and five variables another n
    for wrong in (HilbertPolynomial(qpoly(1, 2, 3), 0, 4), HilbertPolynomial(qpoly(-185, 45), 0, 5)):
        with pytest.raises(FitError, match="agree on"):
            fit_hilbert_polynomials({**samples, 5: wrong})
    with pytest.raises(FitError, match="agree on"):
        fit_hilbert_polynomials({})
    # an m-primary ideal: every P_{A/I^j} is 0, so h = n
    A = graded_ring(["x", "y"])
    I = Ideal(A, [parse_polynomial("x^2", A), parse_polynomial("y^2", A)])
    with pytest.raises(FitError, match="height n"):
        fit_hilbert_polynomials({j: quotient_hp(I, j) for j in (1, 2)})


def test_principal_power_family():
    A = graded_ring(["X1", "X2", "X3"])
    I = Ideal(A, [parse_polynomial("X1^2 + X2*X3", A)])
    samples = {j: quotient_hp(I, j) for j in (1, 2, 3)}
    family = fit_hilbert_polynomials(samples)
    assert family.h == 1
    # multiplicity of A/(f^j) is 2j: leading coefficient lambda_1 = d = 2
    assert leading_coefficients(family)[1] == 2


def test_mixed_multiplicities(twisted_cubic_rees):
    mm = mixed_multiplicities(twisted_cubic_rees)
    assert mm.rees == (0, 1, 2, 1)
    assert mm.form == (2, 3, 0)
    assert mm.rees_total == 4 and mm.form_total == 5
    assert mm.height == 2


def test_mixed_multiplicities_rederived_independently(cubic_family, twisted_cubic_rees):
    # transfer identity recomputed from scratch out of the leading coefficients
    lam = leading_coefficients(cubic_family)
    d, n, h, l = 2, 4, 2, 3
    e3 = Fraction(1)
    e2 = Fraction(d)
    e1 = Fraction(d * d) - lam[2]
    e0 = Fraction(0)
    assert (e0, e1, e2, e3) == mixed_multiplicities(twisted_cubic_rees).rees


def _ideal(names, gens):
    A = graded_ring(names)
    return Ideal(A, [parse_polynomial(g, A) for g in gens])


TOP_FORM_IDEALS = {
    "twisted-cubic": (["X1", "X2", "X3", "X4"], ["X1*X4 - X2*X3", "X2^2 - X1*X3", "X3^2 - X2*X4"]),
    "quartic": (["x0", "x1", "x2", "x3", "x4"], ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x0*x4 - x1*x3",
                                                  "x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2"]),
    "sym-minors": (["x11", "x12", "x13", "x22", "x23", "x33"],
                   ["x22*x33 - x23^2", "x12*x33 - x13*x23", "x12*x23 - x13*x22",
                    "x11*x33 - x13^2", "x11*x23 - x12*x13", "x11*x22 - x12^2"]),
    "minors-2x4": (["a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4"],
                   ["a%d*b%d - a%d*b%d" % (i, j, j, i) for i in range(1, 5) for j in range(i + 1, 5)]),
    "complete-intersection": (["X1", "X2", "X3"], ["X1^2", "X2^2"]),
    "monomial-squares": (["x", "y", "z"], ["x^2", "x*y", "y^2"]),
    "principal": (["X1", "X2", "X3"], ["X1^2 + X2*X3"]),
}


@pytest.mark.parametrize("name", sorted(TOP_FORM_IDEALS))
def test_top_form_reading_equals_the_transfer_formula(name):
    P = rees_presentation(_ideal(*TOP_FORM_IDEALS[name]))
    family = power_family(P)
    mm = mixed_multiplicities(P)
    assert (mm.rees, mm.form) == transfer(family, P.max_degree, fiber_cone(P).spread)
    assert mm.height == family.h
    assert all(type(e) is int and e >= 0 for e in mm.rees + mm.form)


@pytest.mark.parametrize("names, gens, message", [
    (["x", "y"], ["x^2", "y^3"], "equigenerated"),
    (["x", "y"], ["x^2", "x*y", "y^2"], "primary"),
    (["X", "Y"], ["X^7", "Y^7", "X^6*Y + X^2*Y^5"], "primary"),
])
def test_mixed_multiplicities_refusals(names, gens, message):
    with pytest.raises(FitError, match=message):
        mixed_multiplicities(rees_presentation(_ideal(names, gens)))


def test_mixed_multiplicities_need_t_slices():
    # a base variable of degree (1, 1) would pass for a Rees variable in H_R's denominator
    from reeslab import DEGREVLEX, QQ, RingSpec
    from reeslab.rees import ReesError

    A = RingSpec(QQ, ("x", "y", "z"), ((1, 0), (1, 0), (1, 1)), DEGREVLEX)
    I = Ideal(A, [parse_polynomial("x^2", A), parse_polynomial("x*y", A)])
    with pytest.raises(ReesError, match="t-slices"):
        mixed_multiplicities(rees_presentation(I))


def test_equimultiple_multiplicity_totals():
    # complete intersection (so equimultiple): e(R) = 1 + d + ... + d^(h-1), e(G) = d^h
    A = graded_ring(["X1", "X2", "X3"])
    I = Ideal(A, [parse_polynomial("X1^2", A), parse_polynomial("X2^2", A)])
    mm = mixed_multiplicities(rees_presentation(I))
    assert mm.rees_total == 1 + 2
    assert mm.form_total == 4


def test_series_template(twisted_cubic):
    samples = {j: hilbert_series_ideal(ideal_power(twisted_cubic, j), "ideal") for j in (1, 2)}
    template = fit_hilbert_series(samples, 2, 3)
    assert template.offsets == (0, 1, 2)
    for alpha, coeffs in TWISTED_CUBIC_TEMPLATE.items():
        assert template.polys[alpha] == qpoly(*coeffs)
    direct = hilbert_series_ideal(ideal_power(twisted_cubic, 3), "ideal")
    assert template.predict(3) == direct


def test_series_template_validation_failure(twisted_cubic):
    samples = {j: hilbert_series_ideal(ideal_power(twisted_cubic, j), "ideal") for j in (1, 2)}
    bad = hilbert_series_ideal(ideal_power(twisted_cubic, 4), "ideal")
    samples[3] = bad  # claims to be the cube
    with pytest.raises(FitError):
        fit_hilbert_series(samples, 2, 3)


@pytest.fixture(scope="module")
def planar_tables(planar_fat_ideal):
    return {
        j: graded_betti_table(ideal_power(planar_fat_ideal, j), 7 * j + 4, "ideal")
        for j in (4, 5, 6, 7)
    }


def test_stable_projdim_planar(planar_tables):
    report = stable_projdim(planar_tables, 2)
    assert report.observed == ((4, 1), (5, 1), (6, 1), (7, 1))
    assert report.stable_value == 1 and report.stable_from == 4


def test_stable_projdim_with_prediction(twisted_cubic):
    tables = {
        j: graded_betti_table(ideal_power(twisted_cubic, j), 2 * j + 6, "ideal")
        for j in (1, 2, 3)
    }
    report = stable_projdim(tables, 3, a2_form_ring=-2, a_fiber=-3)
    assert report.observed == ((1, 1), (2, 2), (3, 2))
    assert report.predicted_threshold == 1
    assert report.prediction_consistent


def test_predict_resolutions_planar(planar_tables):
    template = predict_resolutions(
        {j: planar_tables[j] for j in (5, 6)}, l=2, d=7, threshold=6
    )
    assert template.offsets == ((0, 0), (1, 1), (1, 2))
    assert template.predict(9) == [(0, (63, 0), 7 * 9 - 14), (1, (64, 0), 7 * 9 - 30), (1, (65, 0), 15)]
    assert template.predict(7) == sorted(planar_tables[7].rows())


def test_predict_resolutions_twisted_cubic(twisted_cubic):
    A = twisted_cubic.ring
    tables = {0: graded_betti_table(ideal_power(twisted_cubic, 0), 5, "ideal")}
    for j in (1, 2, 3):
        tables[j] = graded_betti_table(ideal_power(twisted_cubic, j), 2 * j + 6, "ideal")
    template = predict_resolutions(tables, l=3, d=2, threshold=2)
    assert template.linear
    assert template.offsets == ((0, 0), (1, 1), (2, 2))
    q0, q1, q2 = template.polys
    assert q0 == qpoly(1, Fraction(3, 2), Fraction(1, 2))
    assert q1 == qpoly(0, 1, 1)
    assert q2 == qpoly(0, Fraction(-1, 2), Fraction(1, 2))
    assert template.validated_on == (3,)


def test_forced_template_for_spread_two():
    # spread 2 with a CM Rees algebra: the resolution of I forces all powers
    A = graded_ring(["x", "y"])
    I = Ideal(A, [parse_polynomial("x^2", A), parse_polynomial("x*y", A)])
    tables = {j: graded_betti_table(ideal_power(I, j), 2 * j + 4, "ideal") for j in (0, 1, 2, 3)}
    template = predict_resolutions(tables, l=2, d=2, threshold=1)
    assert template.predict(5) == [(0, (10, 0), 6), (1, (11, 0), 5)]
    assert template.predict(3) == sorted(tables[3].rows())


def test_offset_drift_refused(twisted_cubic, planar_tables):
    # mixing powers of different ideals produces drifting offsets
    tables = {
        5: planar_tables[5],
        6: graded_betti_table(ideal_power(twisted_cubic, 2), 11, "ideal"),
    }
    with pytest.raises(FitError):
        predict_resolutions(tables, l=2, d=7, threshold=6)


def test_a_star_growth_bound(twisted_cubic):
    from reeslab.betti import invariants_from_shifts

    # a*(I^e) - d e is bounded by the sheared component value (-2) on the window
    for e in (1, 2, 3):
        B = graded_betti_table(ideal_power(twisted_cubic, e), 2 * e + 6, "ideal")
        assert invariants_from_shifts(B).a_star[0] - 2 * e <= -2


def test_strongly_cm_family_bound(twisted_cubic):
    from reeslab.betti import invariants_from_shifts

    # a*(I^e) <= d(e + h - 1) - n, with equality once e exceeds spread - height
    d, h, n = 2, 2, 4
    for e in (1, 2, 3):
        B = graded_betti_table(ideal_power(twisted_cubic, e), 2 * e + 6, "ideal")
        a_star = invariants_from_shifts(B).a_star[0]
        assert a_star <= d * (e + h - 1) - n
        if e > 1:
            assert a_star == d * (e + h - 1) - n


def test_equimultiple_top_value():
    # a(I^e / I^(e+1)) = d e + a(A/I) on a monomial complete intersection
    A = graded_ring(["x", "y", "z"])
    I = Ideal(A, [parse_polynomial("x^2", A), parse_polynomial("y^2", A)])
    a_quotient = 1  # 2 + 2 - 3
    for e in (1, 2, 3):
        num = {}
        for (deg, _), c in hilbert_series_ideal(ideal_power(I, e), "ideal").num:
            num[deg] = num.get(deg, 0) + c
        for (deg, _), c in hilbert_series_ideal(ideal_power(I, e + 1), "ideal").num:
            num[deg] = num.get(deg, 0) - c
        # dim 1 Cohen-Macaulay quotient: divide the numerator by (1-s) twice
        poly = [0] * (max(num) + 1)
        for k, c in num.items():
            poly[k] = c
        for _ in range(2):
            acc = 0
            out = []
            for c in poly[:-1]:
                acc += c
                out.append(acc)
            assert sum(poly) == 0
            poly = out
        degree = max(k for k, c in enumerate(poly) if c)
        assert degree - 1 == 2 * e + a_quotient


def test_symmetric_minors_power_family(symmetric_minors_rees):
    # quotient polynomials straight off the presentation slices; the first one
    # is the quadratic Veronese count (2s+1)(s+1), and e(A/I) = 4 is the
    # degree of the Veronese surface
    from reeslab.hilbert import HilbertSeriesRational

    P = symmetric_minors_rees
    samples = {}
    for j in range(1, 7):
        num = {(0, 0): 1}
        for d, c in P.power_series(j).num:
            num[d] = num.get(d, 0) - c
        series = HilbertSeriesRational.make(num, [(1, 0)] * 6)
        samples[j] = hilbert_polynomial(series)
    assert samples[1].coeffs == qpoly(1, 3, 2)
    family = fit_hilbert_polynomials(samples)
    assert (family.n, family.h) == (6, 3)
    assert leading_coefficients(family) == {3: 4, 4: 18, 5: 51}
    assert qp.evaluate(family.polys[0], 1) == 4
    F = fiber_cone(P)
    assert F.spread == 6 and F.relations.is_zero()
    mm = mixed_multiplicities(P)
    assert mm.rees == (1, 2, 4, 4, 2, 1)
    assert mm.form == (3, 6, 4, 0, 0)
    # spread = variable count: the totals transfer with the extra corner term
    assert mm.form_total == (2 - 1) * mm.rees_total + 1 - 2 * mm.rees[0]


def test_predict_resolutions_window_insufficient(planar_fat_ideal):
    from reeslab.betti import graded_betti_table as gbt

    tables = {5: gbt(ideal_power(planar_fat_ideal, 5), 39, "ideal")}
    with pytest.raises(FitError):
        predict_resolutions(tables, l=2, d=7, threshold=6)


def test_maximal_minors_first_power_bound(symmetric_minors):
    # generic 2x3 maximal minors: a*(I) <= d - d^2 = -2
    from reeslab.betti import invariants_from_shifts

    A = graded_ring(["x11", "x12", "x13", "x21", "x22", "x23"])
    gens = (
        "x11*x22 - x12*x21",
        "x11*x23 - x13*x21",
        "x12*x23 - x13*x22",
    )
    I = Ideal(A, [parse_polynomial(s, A) for s in gens])
    B = graded_betti_table(I, 9, "ideal")
    assert invariants_from_shifts(B).a_star[0] <= 2 - 4

