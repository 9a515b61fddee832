from fractions import Fraction

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
from conftest import TWISTED_CUBIC_TEMPLATE


def quotient_hp(I, j):
    return hilbert_polynomial(hilbert_series_ideal(ideal_power(I, j), "quotient"))


@pytest.fixture(scope="module")
def cubic_family(twisted_cubic):
    # j = 4 stays out: test_predicted_fourth_power predicts it
    samples = {j: quotient_hp(twisted_cubic, j) for j in (1, 2, 3, 5)}
    return fit_hilbert_polynomials(samples, 4, 2)


def test_power_polynomials(cubic_family):
    # e_0 = 3/2 j (j+1); e_1 = 5/3 j (j+1) (j - 2/5)
    assert cubic_family.polys[0] == qp.qpoly(0, Fraction(3, 2), Fraction(3, 2))
    assert cubic_family.polys[1] == qp.qpoly(0, Fraction(-2, 3), 1, Fraction(5, 3))


def test_power_polynomial_leading_coefficients(cubic_family):
    assert cubic_family.leading_coefficients() == {2: 3, 3: 10}


def test_predicted_fourth_power(twisted_cubic, cubic_family):
    pred = cubic_family.hilbert_polynomial(4)
    assert pred.coeffs == qp.qpoly(-90, 30)
    assert pred.coeffs == quotient_hp(twisted_cubic, 4).coeffs


def test_inconsistent_samples_rejected(twisted_cubic):
    samples = {j: quotient_hp(twisted_cubic, j) for j in (1, 2, 3)}
    from reeslab.hilbert import HilbertPolynomial

    samples[4] = HilbertPolynomial(qp.qpoly(0, 31), 0, 4)  # wrong on purpose
    with pytest.raises(FitError):
        fit_hilbert_polynomials(samples, 4, 2)


def test_principal_power_family():
    A = graded_ring(["X1", "X2", "X3"])
    I = Ideal(A, [parse_polynomial("X1^2 + X2*X3", A)])
    samples = {j: quotient_hp(I, j) for j in (1, 2, 3)}
    family = fit_hilbert_polynomials(samples, 3, 1)
    # multiplicity of A/(f^j) is 2j: leading coefficient lambda_1 = d = 2
    assert family.leading_coefficients()[1] == 2


def test_mixed_multiplicities(cubic_family):
    mm = mixed_multiplicities(cubic_family, 2, 3)
    assert mm.rees == (0, 1, 2, 1)
    assert mm.form == (2, 3, 0)
    assert mm.rees_total == 4 and mm.form_total == 5


def test_mixed_multiplicities_rederived_independently(cubic_family):
    # transfer identity recomputed from scratch out of the leading coefficients
    lam = cubic_family.leading_coefficients()
    d, n, h, l = 2, 4, 2, 3
    e3 = Fraction(1)
    e2 = Fraction(d)
    e1 = Fraction(d * d) - lam[2]
    e0 = Fraction(0)
    assert (e0, e1, e2, e3) == mixed_multiplicities(cubic_family, d, l).rees


def test_equimultiple_multiplicity_totals():
    # complete intersection (so equimultiple): e(R) = 1 + d + ... + d^(h-1), e(G) = d^h
    A = graded_ring(["X1", "X2", "X3"])
    I = Ideal(A, [parse_polynomial("X1^2", A), parse_polynomial("X2^2", A)])
    samples = {j: quotient_hp(I, j) for j in (1, 2, 3)}
    family = fit_hilbert_polynomials(samples, 3, 2)
    mm = mixed_multiplicities(family, 2, 2)
    assert mm.rees_total == 1 + 2
    assert mm.form_total == 4


def test_series_template(twisted_cubic):
    samples = {j: hilbert_series_ideal(ideal_power(twisted_cubic, j), "ideal") for j in (1, 2)}
    template = fit_hilbert_series(samples, 2, 3)
    assert template.offsets == (0, 1, 2)
    for alpha, coeffs in TWISTED_CUBIC_TEMPLATE.items():
        assert template.polys[alpha] == qp.qpoly(*coeffs)
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
    assert template.betti_number(0, 0, 9) == 7 * 9 - 14
    assert template.betti_number(1, 1, 9) == 7 * 9 - 30
    assert template.betti_number(1, 2, 9) == 15
    assert template.matches(7, planar_tables[7])


def test_predict_resolutions_twisted_cubic(twisted_cubic):
    A = twisted_cubic.ring
    tables = {0: graded_betti_table(ideal_power(twisted_cubic, 0), 5, "ideal")}
    for j in (1, 2, 3):
        tables[j] = graded_betti_table(ideal_power(twisted_cubic, j), 2 * j + 6, "ideal")
    template = predict_resolutions(tables, l=3, d=2, threshold=2)
    assert template.linear
    assert template.offsets == ((0, 0), (1, 1), (2, 2))
    q0, q1, q2 = template.polys
    assert q0 == qp.qpoly(1, Fraction(3, 2), Fraction(1, 2))
    assert q1 == qp.qpoly(0, 1, 1)
    assert q2 == qp.qpoly(0, Fraction(-1, 2), Fraction(1, 2))
    assert template.validated_on == (3,)


def test_forced_template_for_spread_two():
    # spread 2 with a CM Rees algebra: the resolution of I forces all powers
    A = graded_ring(["x", "y"])
    I = Ideal(A, [parse_polynomial("x^2", A), parse_polynomial("x*y", A)])
    tables = {j: graded_betti_table(ideal_power(I, j), 2 * j + 4, "ideal") for j in (0, 1, 2, 3)}
    template = predict_resolutions(tables, l=2, d=2, threshold=1)
    assert template.betti_number(0, 0, 5) == 6
    assert template.betti_number(1, 1, 5) == 5
    assert template.matches(3, tables[3])


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
    from reeslab.rees import fiber_cone

    P = symmetric_minors_rees
    samples = {}
    for j in range(1, 7):
        num = {(0, 0): 1}
        for d, c in P.power_series(j).num:
            num[d] = num.get(d, 0) - c
        series = HilbertSeriesRational.make(num, [(1, 0)] * 6)
        samples[j] = hilbert_polynomial(series)
    assert samples[1].coeffs == qp.qpoly(1, 3, 2)
    family = fit_hilbert_polynomials(samples, 6, 3)
    assert family.leading_coefficients() == {3: 4, 4: 18, 5: 51}
    assert qp.evaluate(family.polys[0], 1) == 4
    F = fiber_cone(P)
    assert F.spread == 6 and F.relations.is_zero()
    mm = mixed_multiplicities(family, 2, F.spread)
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

