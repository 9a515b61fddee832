from pathlib import Path

import pytest

from reeslab import Ideal, graded_ring, parse_polynomial
from reeslab.betti import bigraded_betti_table
from reeslab.diagonals import (
    DiagonalError,
    DiagonalSpec,
    classify_shift,
    cm_diagonal_test,
    cm_threshold_alpha,
    diagonal_dimension,
    diagonal_hilbert_function,
    good_resolution_check,
    gorenstein_diagonals,
    quasi_gorenstein_bounds,
)
from reeslab.rees import rees_presentation
from conftest import parse_problem, span_dimension_of_products


def test_diagonal_spec_validation():
    assert DiagonalSpec(5, 2).admissible(2)
    assert not DiagonalSpec(4, 2).admissible(2)
    with pytest.raises(DiagonalError):
        DiagonalSpec(0, 1)


def test_diagonal_hilbert_function_twisted_cubic(twisted_cubic_rees):
    values = diagonal_hilbert_function(twisted_cubic_rees, DiagonalSpec(5, 2), 3)
    assert values[0] == 1
    assert values[1] == 18


def test_diagonal_hilbert_function_unit_ideal():
    from math import comb

    A = graded_ring(["X1", "X2", "X3"])
    P = rees_presentation(Ideal(A, [A.one()]))
    values = diagonal_hilbert_function(P, DiagonalSpec(3, 1), 4)
    assert values == [comb(3 * s + 2, 2) for s in range(5)]


def test_diagonal_inadmissible_rejected(twisted_cubic_rees):
    with pytest.raises(DiagonalError):
        diagonal_hilbert_function(twisted_cubic_rees, DiagonalSpec(4, 2), 2)


def test_diagonal_values_match_bruteforce_span(twisted_cubic, del_pezzo_ideal):
    P = rees_presentation(twisted_cubic)
    vals = diagonal_hilbert_function(P, DiagonalSpec(5, 2), 2)
    for s in (1, 2):
        assert vals[s] == span_dimension_of_products(twisted_cubic, 2 * s, 5 * s)
    Q = rees_presentation(del_pezzo_ideal)
    vals = diagonal_hilbert_function(Q, DiagonalSpec(3, 1), 3)
    for s in (1, 2, 3):
        assert vals[s] == span_dimension_of_products(del_pezzo_ideal, s, 3 * s)


def _rational_normal_quartic():
    A = graded_ring(["x0", "x1", "x2", "x3", "x4"])
    # 2x2 minors of [[x0 x1 x2 x3], [x1 x2 x3 x4]]
    minors = ["x%d*x%d - x%d*x%d" % (i, j + 1, j, i + 1) for i in range(4) for j in range(i + 1, 4)]
    return Ideal(A, [parse_polynomial(m, A) for m in minors])


_UNEQUAL_DEGREES = Path(__file__).resolve().parent.parent / "demos" / "unequal-degrees.ring"


@pytest.mark.parametrize("build", [
    lambda request: request.getfixturevalue("twisted_cubic"),
    lambda request: _rational_normal_quartic(),
    lambda request: parse_problem(_UNEQUAL_DEGREES.read_text()).ideal,
    # deg y = 2: H_R has a factor (1 - s^2) beside the (1 - s^d t)
    lambda request: parse_problem("field: Q\nvars: x (1,0), y (2,0)\nideal: x^2; y\n").ideal,
], ids=["twisted-cubic", "rational-normal-quartic", "unequal-degrees", "weighted-base"])
def test_diagonal_values_match_the_power_slices(request, build):
    # the per-slice route, one H_{I^{es}} for each s, is the oracle for H_R read at (cs, es)
    P = rees_presentation(build(request))
    s_max = 5
    specs = [DiagonalSpec(c, e) for e in range(1, 5) for c in range(1, 10)
             if DiagonalSpec(c, e).admissible(P.max_degree)]
    assert specs
    for spec in specs:
        oracle = [P.power_series(spec.e * s).coefficient(spec.c * s) for s in range(s_max + 1)]
        assert diagonal_hilbert_function(P, spec, s_max) == oracle, spec


def test_diagonal_dimension(twisted_cubic_rees):
    assert diagonal_dimension(twisted_cubic_rees, DiagonalSpec(5, 2)) == 4
    assert diagonal_dimension(twisted_cubic_rees, DiagonalSpec(7, 3)) == 4


def _difference_degree(values):
    """Degree of the polynomial through ``values``: its last nonzero row of finite differences."""
    degree, row = -1, list(values)
    while any(row):
        degree += 1
        row = [b - a for a, b in zip(row, row[1:])]
    assert degree < len(values) - 1, "no zero row of differences: not a polynomial of this degree"
    return degree


@pytest.mark.parametrize("fixture, spec", [
    ("twisted_cubic", DiagonalSpec(5, 2)),
    ("symmetric_minors", DiagonalSpec(3, 1)),
    ("planar_fat_ideal", DiagonalSpec(8, 1)),
])
def test_diagonal_dimension_matches_finite_differences(request, fixture, spec):
    from reeslab.hilbert import bigraded_hilbert_polynomial

    P = rees_presentation(request.getfixturevalue(fixture))
    u0, j0 = bigraded_hilbert_polynomial(P.series()).origin
    # past the origin, s >= first, the diagonal values are a polynomial of degree <= n + m - 2
    u_step = spec.c - P.max_degree * spec.e
    first = max(-(-u0 // u_step), -(-j0 // spec.e))
    count = P.x_count + P.y_count
    values = diagonal_hilbert_function(P, spec, first + count)[first:]
    assert diagonal_dimension(P, spec) == _difference_degree(values) + 1


def test_diagonal_dimension_principal():
    A = graded_ring(["X1", "X2"])
    P = rees_presentation(Ideal(A, [parse_polynomial("X1^2 + X2^2", A)]))
    assert diagonal_dimension(P, DiagonalSpec(3, 1)) == 2


# ---------------------------------------------------------------------------
# Gorenstein diagonals

def test_gorenstein_maximal_minors_2x3():
    reports = gorenstein_diagonals("maximal-minors", m=2, n=3)
    assert [(r.inputs["c"], r.inputs["e"]) for r in reports] == [(6, 1)]
    assert reports[0].a_invariant == -1


def test_gorenstein_maximal_minors_square():
    reports = gorenstein_diagonals("maximal-minors", m=3, n=3)
    assert [(r.inputs["c"], r.inputs["e"]) for r in reports] == [(12, 1)]


def test_gorenstein_del_pezzo():
    # three coordinate products in P^2: Gorenstein form ring with a = 2
    reports = gorenstein_diagonals("general", n=3, a=2, d=2, height=2)
    assert [(r.inputs["c"], r.inputs["e"]) for r in reports] == [(3, 1)]
    assert reports[0].a_invariant == -1


def test_gorenstein_complete_intersection():
    reports = gorenstein_diagonals(
        "complete-intersection", n=4, r=3, degrees=(1, 1, 1)
    )
    found = {(r.inputs["c"], r.inputs["e"]): r.a_invariant for r in reports}
    assert found == {(4, 2): -1, (2, 1): -2}


def test_gorenstein_polynomial_ring():
    # one blow-up variable of degree d: only (n + d, 1)
    reports = gorenstein_diagonals("polynomial-ring", n=3, r=1, degrees=(2,))
    assert [(r.inputs["c"], r.inputs["e"]) for r in reports] == [(5, 1)]
    assert reports[0].a_invariant == -1


def test_gorenstein_empty_for_a_one():
    assert gorenstein_diagonals("general", n=5, a=1, d=2) == []


def test_gorenstein_general_refuses_d_below_one():
    with pytest.raises(DiagonalError, match="d >= 1"):
        gorenstein_diagonals("general", n=4, a=3, d=0)


def test_gorenstein_families_share_one_solver():
    def pairs(family, **params):
        return [(r.inputs["c"], r.inputs["e"], r.a_invariant) for r in gorenstein_diagonals(family, **params)]

    for m in range(1, 5):
        # the principal determinant: the polynomial-ring rule, one generator of degree m in m^2 variables
        assert pairs("maximal-minors", m=m, n=m) == pairs("polynomial-ring", n=m * m, r=1, degrees=(m,))
        for n in range(m + 1, 7):
            assert pairs("maximal-minors", m=m, n=n) == pairs("general", n=m * n, a=n - m + 1, d=m)
    for n, degrees in ((4, (1, 1, 1)), (6, (2, 2, 3)), (7, (1, 2))):
        r = len(degrees)
        assert pairs("complete-intersection", n=n, degrees=degrees) == pairs("general", n=n, a=r, d=max(degrees))


def test_gorenstein_sets_respect_finite_bounds():
    for (n, a, d) in ((6, 4, 2), (8, 5, 3), (9, 7, 2)):
        for rep in gorenstein_diagonals("general", n=n, a=a, d=d):
            c, e = rep.inputs["c"], rep.inputs["e"]
            assert e <= a - 1 and c <= n


def test_quasi_gorenstein_bounds():
    assert quasi_gorenstein_bounds(1, 7) == []
    out = quasi_gorenstein_bounds(3, 3)
    assert [(r.inputs["c"], r.inputs["e"]) for r in out] == [(3, 2)]
    out = quasi_gorenstein_bounds(2, 5)
    assert [(r.inputs["c"], r.inputs["e"]) for r in out] == [(5, 1)]


# ---------------------------------------------------------------------------
# CM criteria

def test_cm_complete_intersection_boundary():
    params = {"d": 3, "u": 6, "n": 2}
    for e in (1, 2, 3, 4):
        bad = cm_diagonal_test("complete-intersection", params, DiagonalSpec(3 * e + 1, e))
        good = cm_diagonal_test("complete-intersection", params, DiagonalSpec(3 * e + 2, e))
        assert bad.verdict is False
        assert good.verdict is True


def test_cm_strongly_cm_twisted_cubic():
    params = {"degrees": (2, 2, 2), "height": 2, "n": 4}
    for e in (1, 2, 3, 5):
        for c in (2 * e + 1, 2 * e + 2, 2 * e + 5):
            rep = cm_diagonal_test("strongly-cm", params, DiagonalSpec(c, e))
            assert rep.verdict is True
            assert rep.sufficient_only


@pytest.mark.parametrize("height", [0, 4, -1])
def test_cm_strongly_cm_refuses_a_height_outside_the_generators(height):
    # height 0 once summed no degree and gave verdict true
    params = {"degrees": (3, 3, 3), "height": height, "n": 3}
    with pytest.raises(DiagonalError, match="1 <= height <= number of generators"):
        cm_diagonal_test("strongly-cm", params, DiagonalSpec(9, 1))


def test_cm_equimultiple():
    params = {"d": 2, "a_quotient": 1, "height": 2}
    rep = cm_diagonal_test("equimultiple", params, DiagonalSpec(2 * 3 + 1, 3))
    assert rep.verdict is True
    with pytest.raises(DiagonalError):
        cm_diagonal_test("equimultiple", params, DiagonalSpec(8, 4))


def test_cm_needs_input():
    # the caller reports a missing input: the height once defaulted to 2, and a(A/I) gave "needs-input"
    for params in ({"d": 2, "a_quotient": 1}, {"d": 2, "height": 2}):
        with pytest.raises(KeyError):
            cm_diagonal_test("equimultiple", params, DiagonalSpec(5, 2))


def test_cm_threshold_values():
    minors = cm_threshold_alpha(2, 6, a2_form_ring=-2)
    assert minors.verdict == -4  # = -d^2 for the 2x3 minors
    cubic = cm_threshold_alpha(2, 4, a2_form_ring=-2)
    assert cubic.verdict == -2
    trivial = cm_threshold_alpha(3, 7, a2_form_ring=-1)
    assert trivial.verdict == -7
    with pytest.raises(DiagonalError, match="no route to alpha"):
        cm_threshold_alpha(3, 7)
    direct = cm_threshold_alpha(3, 7, a1_shifted_rees=-4)
    assert direct.verdict == -4


def test_cm_threshold_maximal_minors_generic():
    # d x n minors in nd variables: alpha = -d^2
    for d, n in ((2, 3), (2, 4), (3, 4)):
        rep = cm_threshold_alpha(d, n * d, a2_form_ring=-(n - d + 1))
        assert rep.verdict == -d * d


# ---------------------------------------------------------------------------
# good resolutions

def test_classify_shifts_twisted_cubic():
    n, r, d, u = 4, 3, 2, 6
    assert classify_shift(0, 0, n, r, d, u) == 3
    assert classify_shift(-3, -1, n, r, d, u) == 2
    assert classify_shift(-6, -2, n, r, d, u) == 2
    assert classify_shift(-n, 0, n, r, d, u) is None  # boundary is strict


def test_good_resolution_from_explicit_shifts():
    report, verdicts = good_resolution_check(
        [(0, 0), (-3, -1), (-3, -1), (-6, -2)], 4, 3, 2, 6
    )
    assert report.verdict is True
    assert all(v.good for v in verdicts)


def test_good_resolution_from_table(twisted_cubic_rees_betti):
    report, verdicts = good_resolution_check(twisted_cubic_rees_betti, 4, 3, 2, 6)
    assert report.verdict is True
    assert sorted(v.shift for v in verdicts) == [(-6, -2), (-3, -1), (-3, -1), (0, 0)]


def test_bad_shift_detected():
    report, verdicts = good_resolution_check([(0, 0), (-4, 0)], 4, 3, 2, 6)
    assert report.verdict is False
    assert [v.shift for v in verdicts if not v.good] == [(-4, 0)]


def test_gorenstein_implies_cm_for_complete_intersections():
    # every diagonal passing the Gorenstein rule passes the CM inequality
    for (n, r, degrees) in ((4, 3, (1, 1, 1)), (6, 3, (2, 2, 2)), (5, 2, (3, 3))):
        d, u = max(degrees), sum(degrees)
        for rep in gorenstein_diagonals("complete-intersection", n=n, r=r, degrees=degrees):
            spec = DiagonalSpec(rep.inputs["c"], rep.inputs["e"])
            cm = cm_diagonal_test(
                "complete-intersection", {"d": d, "u": u, "n": n}, spec
            )
            assert cm.verdict is True
