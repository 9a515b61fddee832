import pytest

from reeslab import (
    Ideal,
    dim_mult,
    graded_ring,
    hilbert_series_ideal,
    hilbert_series_ring,
    ideal_power,
    parse_polynomial,
)
from reeslab.diagonals import DiagonalSpec, diagonal_hilbert_function
from reeslab.hilbert import _t_slice
from reeslab.rees import (
    ReesError,
    builtin_a2_form_ring,
    fiber_cone,
    form_ring_presentation,
    rees_presentation,
)
from conftest import monomials_of_degree, parse_problem, reduction_number


def test_twisted_cubic_presentation(twisted_cubic_rees):
    P = twisted_cubic_rees
    assert P.generator_bidegrees() == [(3, 1), (3, 1)]
    assert P.equigenerated and P.max_degree == 2 and P.degree_sum == 6


def test_twisted_cubic_rees_series(twisted_cubic_rees):
    H = twisted_cubic_rees.series()
    assert dict(H.num) == {(0, 0): 1, (3, 1): -2, (6, 2): 1}
    assert dict(H.den) == {(1, 0): 4, (2, 1): 3}


def test_power_series_over_a_weighted_base_ring():
    # H_{I^j} keeps the base ring's factors: 1/((1-s)(1-s^2)) for A = k[x, y], deg y = 2
    P = rees_presentation(parse_problem("field: Q\nvars: x (1,0), y (2,0)\nideal: x; y\n").ideal)
    assert P.power_series(2) == hilbert_series_ideal(ideal_power(P.source, 2), "ideal")
    assert dict(P.power_series(2).den) == {(1, 0): 1, (2, 0): 1}
    # a base variable of nonzero second degree has no t-slice reading
    P = rees_presentation(parse_problem("field: Q\nvars: x (1,0), z (1,1)\nideal: x\n").ideal)
    with pytest.raises(ReesError):
        P.power_series(1)
    with pytest.raises(ReesError):
        diagonal_hilbert_function(P, DiagonalSpec(2, 1), 1)


def test_principal_ideal_has_free_rees_algebra():
    A = graded_ring(["X1", "X2"])
    P = rees_presentation(Ideal(A, [parse_polynomial("X1^2 + X2^2", A)]))
    assert P.defining_ideal.is_zero()
    H = P.series()
    assert dict(H.den) == {(1, 0): 2, (2, 1): 1}
    assert fiber_cone(P).spread == 1


def test_koszul_syzygy_of_two_variables():
    A = graded_ring(["X1", "X2"])
    P = rees_presentation(Ideal(A, [A.variable(0), A.variable(1)]))
    # X1 Y2 - X2 Y1 with deg Y_j = (1, 1); sheared first degree is 1
    assert [g.multidegree() for g in P.defining_ideal.gens] == [(2, 1)]
    (a, b), = [g.multidegree() for g in P.defining_ideal.gens]
    assert a - P.max_degree * b == 1


def test_presentation_rejects_zero_and_inhomogeneous():
    A = graded_ring(["X1", "X2"])
    with pytest.raises(ReesError):
        rees_presentation(Ideal(A, []))
    with pytest.raises(ReesError):
        rees_presentation(Ideal(A, [parse_polynomial("X1 + X1^2", A)]))


def test_rees_dimension_check(twisted_cubic_rees):
    assert dim_mult(twisted_cubic_rees.series()).dimension == 5


def test_fiber_cone_spreads(twisted_cubic_rees, planar_fat_ideal):
    assert fiber_cone(twisted_cubic_rees).spread == 3
    assert fiber_cone(twisted_cubic_rees).relations.is_zero()
    P = rees_presentation(planar_fat_ideal)
    assert fiber_cone(P).spread == 2


def test_power_slices_match_direct_powers(twisted_cubic, twisted_cubic_rees):
    for j in range(5):
        direct = hilbert_series_ideal(ideal_power(twisted_cubic, j), "ideal")
        assert twisted_cubic_rees.power_series(j) == direct


def test_form_ring_slices(twisted_cubic, twisted_cubic_rees):
    G = form_ring_presentation(twisted_cubic_rees)
    HG = hilbert_series_ideal(G, "quotient")
    n = twisted_cubic.ring.nvars
    # over (1-s)^n times one factor (1 - s^a t) per form-ring generator
    assert [(d, mult) for d, mult in HG.den if d[1] == 0] == [((1, 0), n)]
    t_degrees = [a for (a, b), mult in HG.den if b == 1 for _ in range(mult)]
    assert len(t_degrees) == len(twisted_cubic.gens)
    for j in range(4):
        slice_j = _t_slice(t_degrees, ((b, {a: c}) for (a, b), c in HG.num), j)
        a = dict(twisted_cubic_rees.power_series(j).num)
        b = dict(twisted_cubic_rees.power_series(j + 1).num)
        expected = {}
        for (deg, _), c in a.items():
            expected[deg] = expected.get(deg, 0) + c
        for (deg, _), c in b.items():
            expected[deg] = expected.get(deg, 0) - c
        assert slice_j == {k: v for k, v in expected.items() if v}


def test_form_ring_of_complete_intersection_is_polynomial_over_quotient():
    A = graded_ring(["X1", "X2", "X3"])
    I = Ideal(A, [parse_polynomial("X1^2", A), parse_polynomial("X2^2", A)])
    P = rees_presentation(I)
    G = form_ring_presentation(P)
    # X1^2 and X2^2 lifted, no extra relations: G = (A/I)[Y1, Y2]
    assert sorted(g.multidegree() for g in G.gens) == [(2, 0), (2, 0)]


def test_cm_shift_bound_on_twisted_cubic(twisted_cubic_rees):
    r = twisted_cubic_rees.y_count
    for (a, b) in twisted_cubic_rees.generator_bidegrees():
        assert b < r


def test_reduction_number_brute_force():
    A = graded_ring(["x", "y"])
    I = Ideal(A, [parse_polynomial(s, A) for s in ("x^2", "x*y", "y^2")])
    J = Ideal(A, [parse_polynomial("x^2", A), parse_polynomial("y^2", A)])
    assert reduction_number(I, J) == 1


def test_six_points_in_the_plane():
    # six general points in P^2 (none on a conic, no three collinear): the
    # cubics through them cut out the ideal, and the fiber cone is a cubic
    # hypersurface
    from fractions import Fraction
    from math import gcd

    from reeslab.rings import Polynomial

    A = graded_ring(["x", "y", "z"])
    points = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (1, 4, 9)]
    monos = monomials_of_degree(A, (3, 0))
    M = [[Fraction(0)] * len(monos) for _ in points]
    for r_i, pt in enumerate(points):
        for c, m in enumerate(monos):
            v = Fraction(1)
            for coord, e in zip(pt, m):
                v *= Fraction(coord) ** e
            M[r_i][c] = v
    pivots, r = [], 0
    for c in range(len(monos)):
        p = next((i for i in range(r, len(points)) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(len(points)):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    gens = []
    for fc in [c for c in range(len(monos)) if c not in pivots]:
        vec = [Fraction(0)] * len(monos)
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -M[i][fc]
        den = 1
        for v in vec:
            den = den * v.denominator // gcd(den, v.denominator)
        gens.append(Polynomial(A, {monos[i]: v * den for i, v in enumerate(vec) if v}))
    I = Ideal(A, gens)
    assert len(I.gens) == 4
    HQ = hilbert_series_ideal(I, "quotient")
    assert [HQ.coefficient(s) for s in range(2, 6)] == [6, 6, 6, 6]
    P = rees_presentation(I)
    F = fiber_cone(P)
    assert F.spread == 3
    assert [g.multidegree() for g in F.relations.gens] == [(3, 0)]


def test_builtin_form_ring_a2_values():
    assert builtin_a2_form_ring("complete-intersection", r=3) == -3
    assert builtin_a2_form_ring("maximal-minors", m=2, n=4) == -3
    assert builtin_a2_form_ring("strongly-cm", height=2) == -2
    with pytest.raises(ReesError):
        builtin_a2_form_ring("unknown")


def test_unit_ideal_power_slices():
    A = graded_ring(["X1", "X2"])
    P = rees_presentation(Ideal(A, [A.one()]))
    for s in range(3):
        assert P.power_series(s) == hilbert_series_ideal(Ideal(A, [A.one()]), "ideal")


def test_power_series_refuses_a_negative_exponent(twisted_cubic, twisted_cubic_rees):
    # I^0 = A; a negative exponent once raised IndexError in the t-slice
    assert twisted_cubic_rees.power_series(0) == hilbert_series_ring(twisted_cubic.ring)
    for j in (-1, -2):
        with pytest.raises(ReesError, match="must be >= 0"):
            twisted_cubic_rees.power_series(j)
