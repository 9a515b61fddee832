"""Acceptance suite: one test per criterion, each printing a PASS line with its timing.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""

import os
import random
import time
from fractions import Fraction

import pytest

from reeslab import (
    Ideal,
    QQ,
    RingSpec,
    graded_ring,
    hilbert_polynomial,
    hilbert_series_ideal,
    hilbert_series_monomial,
    ideal_power,
    parse_polynomial,
)
from reeslab.asymptotics import (
    FitError,
    fit_hilbert_polynomials,
    fit_hilbert_series,
    mixed_multiplicities,
    predict_resolutions,
)
from reeslab.betti import bigraded_betti_table, graded_betti_table, invariants_from_shifts
from reeslab.diagonals import good_resolution_check, gorenstein_diagonals
from reeslab.ginreg import borel_fix_check, borel_regularity, generic_initial_ideal
from reeslab.hilbert import HilbertPolynomial
from conftest import (
    SYMMETRIC_MINORS_POWER_NUMERATORS,
    SYMMETRIC_MINORS_TEMPLATE,
    TWISTED_CUBIC_TEMPLATE,
    count_standard_monomials,
    monomials_of_degree,
    qpoly,
    random_monomial_ideal,
)


def _report(number, budget, started, message):
    elapsed = time.monotonic() - started
    assert elapsed < budget, "criterion %d exceeded its %.0fs budget" % (number, budget)
    print("ACCEPTANCE %2d: PASS (%.2fs) %s" % (number, elapsed, message))


@pytest.fixture(scope="module")
def rees_table(twisted_cubic_rees_betti):
    return twisted_cubic_rees_betti


def test_criterion_01_power_series(twisted_cubic):
    t0 = time.monotonic()
    H1 = hilbert_series_ideal(twisted_cubic, "ideal")
    assert dict(H1.num) == {(2, 0): 3, (3, 0): -2}
    assert dict(H1.den) == {(1, 0): 4}
    H2 = hilbert_series_ideal(ideal_power(twisted_cubic, 2), "ideal")
    assert dict(H2.num) == {(4, 0): 6, (5, 0): -6, (6, 0): 1}
    assert dict(H2.den) == {(1, 0): 4}
    _report(1, 5, t0, "H_I and H_{I^2} of the twisted cubic, exact")


def test_criterion_02_bigraded_rees_series(twisted_cubic_rees):
    t0 = time.monotonic()
    H = twisted_cubic_rees.series()
    assert dict(H.num) == {(0, 0): 1, (3, 1): -2, (6, 2): 1}
    assert dict(H.den) == {(1, 0): 4, (2, 1): 3}
    _report(2, 30, t0, "bigraded Rees series (1-2s^3t+s^6t^2)/((1-s)^4(1-s^2t)^3)")


def test_criterion_03_power_polynomial_family(twisted_cubic, twisted_cubic_rees):
    t0 = time.monotonic()
    samples = {
        1: HilbertPolynomial(qpoly(1, 3), 0, 4),
        2: HilbertPolynomial(qpoly(-7, 9), 0, 4),
        3: HilbertPolynomial(qpoly(-34, 18), 0, 4),
        5: HilbertPolynomial(qpoly(-185, 45), 0, 4),
    }
    family = fit_hilbert_polynomials(samples)
    assert (family.n, family.h) == (4, 2)
    assert family.polys[0] == qpoly(0, Fraction(3, 2), Fraction(3, 2))
    assert family.polys[1] == qpoly(0, Fraction(-2, 3), 1, Fraction(5, 3))
    mm = mixed_multiplicities(twisted_cubic_rees)
    assert mm.rees == (0, 1, 2, 1) and mm.rees_total == 4
    assert mm.form == (2, 3, 0) and mm.form_total == 5
    predicted = family.hilbert_polynomial(4)
    direct = hilbert_polynomial(hilbert_series_ideal(ideal_power(twisted_cubic, 4), "quotient"))
    assert predicted.coeffs == direct.coeffs == qpoly(-90, 30)
    _report(3, 60, t0, "power polynomial family + mixed multiplicities + predicted fourth power")


def test_criterion_04_series_templates(twisted_cubic, symmetric_minors_rees):
    t0 = time.monotonic()
    # twisted cubic template from two powers
    samples = {j: hilbert_series_ideal(ideal_power(twisted_cubic, j), "ideal") for j in (1, 2)}
    template = fit_hilbert_series(samples, 2, 3)
    for alpha, coeffs in TWISTED_CUBIC_TEMPLATE.items():
        assert template.polys[template.offsets.index(alpha)] == qpoly(*coeffs)
    # symmetric minors: presentation slices reproduce the published numerators
    P = symmetric_minors_rees
    from reeslab.hilbert import HilbertSeriesRational

    samples = {}
    for j in range(1, 6):
        slice_j = P.power_series(j)
        expected = {(k, 0): v for k, v in SYMMETRIC_MINORS_POWER_NUMERATORS[j].items()}
        assert dict(slice_j.num) == expected
        samples[j] = HilbertSeriesRational.make(expected, [(1, 0)] * 6)
    minors_template = fit_hilbert_series(samples, 2, 6)
    for alpha, coeffs in SYMMETRIC_MINORS_TEMPLATE.items():
        assert minors_template.polys[minors_template.offsets.index(alpha)] == qpoly(*coeffs)
    predicted = minors_template.predict(6)
    assert predicted == P.power_series(6)
    _report(4, 600, t0, "series templates for the twisted cubic and the symmetric minors, sixth power predicted")


def test_criterion_05_betti_tables(twisted_cubic, planar_fat_ideal):
    t0 = time.monotonic()
    B1 = graded_betti_table(twisted_cubic, 9, "ideal")
    assert B1.entries == ((0, (2, 0), 3), (1, (3, 0), 2))
    B2 = graded_betti_table(ideal_power(twisted_cubic, 2), 11, "ideal")
    assert B2.entries == ((0, (4, 0), 6), (1, (5, 0), 6), (2, (6, 0), 1))
    tables = {}
    for j in (4, 5, 6, 7):
        tables[j] = graded_betti_table(ideal_power(planar_fat_ideal, j), 7 * j + 4, "ideal")
    assert tables[4].entries == ((0, (28, 0), 15), (1, (30, 0), 14))
    assert tables[5].entries == ((0, (35, 0), 21), (1, (36, 0), 5), (1, (37, 0), 15))
    assert tables[6].entries == ((0, (42, 0), 28), (1, (43, 0), 12), (1, (44, 0), 15))
    template = predict_resolutions({5: tables[5], 6: tables[6]}, l=2, d=7, threshold=6)
    assert template.predict(7) == sorted(tables[7].rows())
    # the threshold is sharp: the asymptotic template cannot describe j = 4
    with pytest.raises(FitError):
        template.predict(4)
    _report(5, 600, t0, "Betti tables (twisted cubic, planar fixture powers 4..7) and the stable template")


def test_criterion_06_invariants_from_shifts(twisted_cubic):
    t0 = time.monotonic()
    inv1 = invariants_from_shifts(graded_betti_table(twisted_cubic, 9, "ideal"))
    inv2 = invariants_from_shifts(graded_betti_table(ideal_power(twisted_cubic, 2), 11, "ideal"))
    assert inv1.a_star[0] == -1 and inv2.a_star[0] == 2
    assert inv1.reg[0] == 2 and inv2.reg[0] == 4
    _report(6, 60, t0, "a*(I) = -1, a*(I^2) = 2, reg(I) = 2, reg(I^2) = 4")


def test_criterion_07_gorenstein_diagonals():
    t0 = time.monotonic()
    minors = gorenstein_diagonals("maximal-minors", m=2, n=3)
    assert [(r.inputs["c"], r.inputs["e"]) for r in minors] == [(6, 1)]
    del_pezzo = gorenstein_diagonals("general", n=3, a=2, d=2, height=2)
    assert [(r.inputs["c"], r.inputs["e"]) for r in del_pezzo] == [(3, 1)]
    assert gorenstein_diagonals("general", n=6, a=1, d=2) == []
    _report(7, 5, t0, "Gorenstein diagonals: {(6,1)} for 2x3 minors, {(3,1)} for the del Pezzo, empty for a=1")


def test_criterion_08_good_resolution(rees_table):
    t0 = time.monotonic()
    report, verdicts = good_resolution_check(rees_table, 4, 3, 2, 6)
    assert report.verdict is True
    assert sorted(v.shift for v in verdicts) == [(-6, -2), (-3, -1), (-3, -1), (0, 0)]
    explicit, _ = good_resolution_check([(0, 0), (-3, -1), (-3, -1), (-6, -2)], 4, 3, 2, 6)
    assert explicit.verdict is True
    _report(8, 5, t0, "twisted-cubic Rees shifts {(0,0), (-3,-1)^2, (-6,-2)} all good for r=3")


def test_criterion_09_property_suites(twisted_cubic, planar_fat_ideal):
    t0 = time.monotonic()
    # (a) series vs enumeration on 50 random monomial ideals, <= 5 variables
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randint(1, 5)
        ring = graded_ring(["v%d" % i for i in range(n)])
        J = random_monomial_ideal(rng, ring)
        H = hilbert_series_monomial(J)
        gens = [g.leading_monomial() for g in J.gens]
        arr = H.expand(12)
        for q in range(13):
            assert arr[q][0] == count_standard_monomials(ring, gens, (q, 0))
    # (b) gin preserves series and is Borel-fix on 20 random homogeneous ideals
    ring2 = RingSpec(QQ, ("X1", "X2", "Y1", "Y2"), ((1, 0), (1, 0), (0, 1), (0, 1)))
    monos = {
        deg: monomials_of_degree(ring2, deg)
        for deg in ((1, 0), (1, 1), (2, 0), (0, 1), (2, 1))
    }
    from reeslab.rings import Polynomial

    done = 0
    attempt = 0
    while done < 20:
        attempt += 1
        deg = rng.choice(list(monos))
        gens = []
        for _ in range(rng.randint(1, 2)):
            coeffs = {m: QQ.coerce(rng.randint(-3, 3)) for m in monos[deg]}
            f = Polynomial(ring2, {m: c for m, c in coeffs.items() if c})
            if f:
                gens.append(f)
        if not gens:
            continue
        I = Ideal(ring2, gens)
        result = generic_initial_ideal(I, seed=attempt)
        assert hilbert_series_ideal(result.ideal, "quotient") == hilbert_series_ideal(I, "quotient")
        assert borel_fix_check(result.ideal).is_borel
        done += 1
    # (c) Borel regularity equals the shift-oracle regularity on 20 Borel ideals
    from test_ginreg import _random_borel_ideal

    euler_tables = []
    done = 0
    while done < 20:
        J = _random_borel_ideal(rng, ring2)
        if J.is_zero() or len(J.gens) > 14:
            continue
        rep = borel_fix_check(J)
        assert rep.is_borel
        d1, d2 = rep.delta
        if d1 + d2 > 5:
            continue
        window = (d1 + d2 + 4, d1 + d2 + 4)
        table = bigraded_betti_table(J, window, as_module="ideal")
        assert table.complete
        inv = invariants_from_shifts(table)
        assert inv.reg == borel_regularity(J) == (d1, d2)
        euler_tables.append((J, table))
        done += 1
    # (d) Euler characteristic of every table matches the series, per degree
    recheck = [
        (twisted_cubic, graded_betti_table(twisted_cubic, 9, "ideal")),
        (ideal_power(twisted_cubic, 2), graded_betti_table(ideal_power(twisted_cubic, 2), 11, "ideal")),
        (ideal_power(planar_fat_ideal, 5), graded_betti_table(ideal_power(planar_fat_ideal, 5), 39, "ideal")),
    ]
    for module, table in recheck + euler_tables:
        num = dict(hilbert_series_ideal(module, "ideal").num)
        degrees = {deg for _, deg, _ in table.entries} | set(num)
        for deg in degrees:
            total = sum((-1) ** p * r for p, dd, r in table.entries if dd == deg)
            assert total == num.get(deg, 0)
    _report(9, 900, t0, "property suites: enumeration, gin stability, Borel regularity oracle, Euler checks")


def test_criterion_10_scope_substitution_documented():
    t0 = time.monotonic()
    readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
    with open(readme, "r", encoding="utf-8") as fh:
        text = fh.read().lower()
    for needle in ("local cohomology", "canonical module", "out of scope"):
        assert needle in text
    _report(10, 5, t0, "non-computable invariants are inputs/documented; numeric corollaries covered by suites")
