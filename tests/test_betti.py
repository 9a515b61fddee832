import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from reeslab import (
    QQ,
    Ideal,
    PrimeField,
    RingSpec,
    graded_ring,
    groebner_basis,
    hilbert_series_ideal,
    ideal_power,
    normal_form,
    parse_polynomial,
)
from reeslab.betti import (
    BettiError,
    _koszul_betti,
    _koszul_degrees,
    _monomial_betti,
    _QuotientPieces,
    bigraded_betti_table,
    graded_betti_table,
    invariants_from_shifts,
)
from reeslab.rings import Polynomial
from conftest import mono_divides, monomials_of_degree


@pytest.fixture(scope="module")
def rees_table(twisted_cubic_rees_betti):
    return twisted_cubic_rees_betti


def test_twisted_cubic_tables(twisted_cubic):
    B = graded_betti_table(twisted_cubic, 9, "ideal")
    assert B.entries == ((0, (2, 0), 3), (1, (3, 0), 2))
    assert B.complete
    B2 = graded_betti_table(ideal_power(twisted_cubic, 2), 11, "ideal")
    assert B2.entries == ((0, (4, 0), 6), (1, (5, 0), 6), (2, (6, 0), 1))


def test_twisted_cubic_invariants(twisted_cubic):
    inv1 = invariants_from_shifts(graded_betti_table(twisted_cubic, 9, "ideal"))
    assert inv1.a_star[0] == -1 and inv1.reg[0] == 2
    inv2 = invariants_from_shifts(graded_betti_table(ideal_power(twisted_cubic, 2), 11, "ideal"))
    assert inv2.a_star[0] == 2 and inv2.reg[0] == 4


def test_free_module_invariants():
    A = graded_ring(["X1", "X2", "X3"])
    B = graded_betti_table(Ideal(A, [parse_polynomial("X1^2", A)]), 6, "ideal")
    assert B.entries == ((0, (2, 0), 1),)
    inv = invariants_from_shifts(B)
    assert inv.a_star[0] == 2 - 3
    assert inv.reg[0] == 2
    assert inv.proj_dim == 0


def test_planar_fat_powers(planar_fat_ideal):
    expected = {
        4: ((0, (28, 0), 15), (1, (30, 0), 14)),
        5: ((0, (35, 0), 21), (1, (36, 0), 5), (1, (37, 0), 15)),
        6: ((0, (42, 0), 28), (1, (43, 0), 12), (1, (44, 0), 15)),
    }
    for j, rows in expected.items():
        B = graded_betti_table(ideal_power(planar_fat_ideal, j), 7 * j + 4, "ideal")
        assert B.entries == rows
        assert B.complete and B.max_index() == 1


def test_projdim_examples(twisted_cubic):
    for j, expected in ((1, 1), (2, 2), (3, 2)):
        B = graded_betti_table(ideal_power(twisted_cubic, j), 2 * j + 2 + 4, "ideal")
        assert B.complete and B.max_index() == expected
    A = graded_ring(["X", "Y"])
    Bp = graded_betti_table(Ideal(A, [parse_polynomial("X^3", A)]), 6, "ideal")
    assert Bp.complete and Bp.max_index() == 0


def test_truncated_table_rejected(twisted_cubic):
    from reeslab.rees import fiber_cone, rees_presentation

    # beta(S/in I^2) reaches degree 6, so cap 7 holds the whole table
    assert graded_betti_table(ideal_power(twisted_cubic, 2), 7, "ideal").complete
    B = graded_betti_table(ideal_power(twisted_cubic, 2), 5, "ideal")
    assert not B.complete
    with pytest.raises(BettiError):
        invariants_from_shifts(B)
    # at cap 1 the fiber cone table of (x^2, xy, y^2) misses its quadric relation
    A = graded_ring(["x", "y"])
    F = fiber_cone(rees_presentation(Ideal(A, [parse_polynomial(s, A) for s in ("x^2", "x*y", "y^2")])))
    B = graded_betti_table(F.relations, 1, "quotient")
    assert not B.complete
    with pytest.raises(BettiError):
        invariants_from_shifts(B)


def test_euler_characteristic_against_series(twisted_cubic):
    I2 = ideal_power(twisted_cubic, 2)
    B = graded_betti_table(I2, 11, "ideal")
    num = dict(hilbert_series_ideal(I2, "ideal").num)
    for q in range(12):
        total = sum((-1) ** p * r for p, (a, b), r in B.entries if a == q)
        assert total == num.get((q, 0), 0)


def test_bigraded_rees_table(rees_table):
    assert rees_table.entries == (
        (0, (0, 0), 1),
        (1, (3, 1), 2),
        (2, (6, 2), 1),
    )
    assert rees_table.complete


def test_bigraded_invariants(rees_table):
    inv = invariants_from_shifts(rees_table)
    assert inv.a_star == (-4, -1)
    assert inv.reg == (4, 0)
    assert inv.proj_dim == 2


def test_min_shift_lex_monotonicity(rees_table):
    per_p = {}
    for p, deg, _ in rees_table.entries:
        per_p.setdefault(p, []).append(deg)
    mins = [min(v) for _, v in sorted(per_p.items())]
    for a, b in zip(mins, mins[1:]):
        assert a < b  # strictly increasing in lex


def test_component_formula_for_a_star(twisted_cubic, rees_table):
    # first-component a* of the sheared Rees algebra equals the windowed
    # maximum of a*(I^e) - d e, window e <= a*2 + spread = 2
    d = 2
    shifted = max(a - d * b for _, (a, b), _ in rees_table.entries)
    lhs = shifted - twisted_cubic.ring.nvars
    values = {0: -4}
    for e in (1, 2):
        B = graded_betti_table(ideal_power(twisted_cubic, e), 2 * e + 6, "ideal")
        values[e] = invariants_from_shifts(B).a_star[0] - d * e
    assert lhs == max(values.values())
    assert lhs == -2


def test_component_formula_for_regularity(twisted_cubic, rees_table):
    d = 2
    lhs = max(a - d * b - p for p, (a, b), _ in rees_table.entries)
    values = {0: 0}
    for e in (1, 2):
        B = graded_betti_table(ideal_power(twisted_cubic, e), 2 * e + 6, "ideal")
        values[e] = invariants_from_shifts(B).reg[0] - d * e
    assert lhs == max(values.values()) == 0


def test_planar_fat_rees_second_a_invariant(planar_fat_ideal):
    # the full bigraded resolution of the Rees algebra: its second-component
    # shifts reach b = 7, so a*2(R) = 7 - 3 = 4 -- exactly the stability
    # threshold seen in the resolutions of the powers (stable from j = 5)
    from reeslab.rees import rees_presentation

    P = rees_presentation(planar_fat_ideal)
    table = bigraded_betti_table(P.defining_ideal, (65, 65))
    assert table.complete
    inv = invariants_from_shifts(table)
    assert inv.a_star[1] == 4
    assert inv.proj_dim == 4
    # homological degree 1 carries the minimal generators of the kernel
    first = sorted(
        deg for p, deg, rank in table.rows() for _ in range(rank) if p == 1
    )
    assert first == P.generator_bidegrees()


def test_eagon_northcott_shift_pattern():
    # Rees algebra of a complete intersection of two quadrics: the Koszul
    # relation sits in the predicted shift class a = -(p+1)d, 1 <= -b <= p
    from reeslab.rees import rees_presentation

    A = graded_ring(["x", "y"])
    I = Ideal(A, [parse_polynomial("x^2", A), parse_polynomial("y^2", A)])
    P = rees_presentation(I)
    table = bigraded_betti_table(P.defining_ideal, (13, 13))
    assert table.complete
    for p, (a, b), _r in table.entries:
        if p == 0:
            assert (a, b) == (0, 0)
        else:
            assert a == (p + 1) * 2
            assert 1 <= b <= p


def test_principal_bigraded_table_is_free():
    from reeslab.rees import rees_presentation

    A = graded_ring(["x", "y"])
    P = rees_presentation(Ideal(A, [parse_polynomial("x^2 + y^2", A)]))
    table = bigraded_betti_table(P.defining_ideal, (6, 6))
    assert table.entries == ((0, (0, 0), 1),)


def test_quotient_table(twisted_cubic):
    B = graded_betti_table(twisted_cubic, 9, "quotient")
    assert B.entries == (
        (0, (0, 0), 1),
        (1, (2, 0), 3),
        (2, (3, 0), 2),
    )


def test_cap_below_generators_rejected(twisted_cubic):
    with pytest.raises(BettiError):
        graded_betti_table(twisted_cubic, 1, "ideal")


def test_negative_cap_rejected(twisted_cubic):
    # the quotient route once printed an empty, incomplete table
    with pytest.raises(BettiError, match=r"empty window \(-1, 0\): a degree cap must be >= 0"):
        graded_betti_table(twisted_cubic, -1, "quotient")
    with pytest.raises(BettiError, match="cap -1 below the largest minimal generator degree 2"):
        graded_betti_table(twisted_cubic, -1, "ideal")


@pytest.mark.parametrize("window", [(-1, 3), (3, -1), (-2, -2)])
@pytest.mark.parametrize("as_module", ["ideal", "quotient"])
def test_negative_window_rejected(twisted_cubic_rees, window, as_module):
    with pytest.raises(BettiError, match=r"empty window \(%d, %d\): a degree cap must be >= 0" % window):
        bigraded_betti_table(twisted_cubic_rees.defining_ideal, window, as_module)


def test_quotient_pieces_entries_are_in_lowest_terms(twisted_cubic_rees):
    # each entry is NF(x_i * m) as numerators over one positive denominator,
    # read off the marker term of the exact normal form
    K = twisted_cubic_rees.defining_ideal
    ring = K.ring
    pieces = _QuotientPieces(K)
    gb = groebner_basis(K)
    for degree in [(a, b) for a in range(5) for b in range(4)]:
        for m in pieces.basis(degree):
            for i in range(ring.nvars):
                pieces.multiply(i, m)
    assert len(pieces._nf) > 20
    for mono, (coords, den) in pieces._nf.items():
        assert den > 0 and gcd(den, *(c for _, c in coords)) == 1
        nf = normal_form(Polynomial(ring, {mono: QQ.one}), gb)
        assert dict(nf.terms) == {m: Fraction(c, den) for m, c in coords}


def test_cap_below_a_redundant_generator_accepted():
    A = graded_ring(["x", "y"])
    x = parse_polynomial("x", A)
    table = graded_betti_table(Ideal(A, [x, parse_polynomial("x^5", A)]), 3)
    assert table.entries == ((0, (1, 0), 1),)
    assert table.complete
    with pytest.raises(BettiError):
        graded_betti_table(Ideal(A, [x, parse_polynomial("y^5", A)]), 3)


def test_bigraded_ideal_table_of_monomial_complete_intersection():
    B = RingSpec(QQ, ("X1", "X2", "Y1", "Y2"), ((1, 0), (1, 0), (0, 1), (0, 1)))
    I = Ideal(B, [parse_polynomial("X1^2", B), parse_polynomial("Y1^3", B)])
    expected = ((0, (2, 0), 1), (0, (0, 3), 1), (1, (2, 3), 1))
    table = bigraded_betti_table(I, (9, 9), as_module="ideal")
    assert table.entries == expected
    assert table.complete
    assert bigraded_betti_table(I, (5, 5), as_module="ideal").complete
    truncated = bigraded_betti_table(I, (5, 2), as_module="ideal")
    assert truncated.entries == expected[:1]
    assert not truncated.complete
    # complete exactly when the window covers the support, top (2, 3)
    windows = ((2, 3), (1, 3), (2, 2), (9, 3))
    assert [bigraded_betti_table(I, w).complete for w in windows] == [True, False, False, True]


def test_unit_ideal_table_is_free_of_rank_one():
    A = graded_ring(["X", "Y"])
    graded = graded_betti_table(Ideal(A, [parse_polynomial("1", A)]), 3, "ideal")
    B = RingSpec(QQ, ("X1", "X2", "Y1", "Y2"), ((1, 0), (1, 0), (0, 1), (0, 1)))
    bigraded = bigraded_betti_table(Ideal(B, [parse_polynomial("1", B)]), (4, 4), as_module="ideal")
    for table in (graded, bigraded):
        assert table.entries == ((0, (0, 0), 1),)
        assert table.complete


def _pure_powers():
    A = graded_ring(["x", "y"])
    return Ideal(A, [parse_polynomial("x^10", A), parse_polynomial("y^10", A)])


def test_pure_powers_table_runs_to_the_top_of_the_initial_support():
    # x^10, y^10 is a regular sequence: 0 -> S(-20) -> S(-10)^2 resolves I
    table = graded_betti_table(_pure_powers())
    assert table.window == (20, 0) and table.complete
    assert table.entries == ((0, (10, 0), 2), (1, (20, 0), 1))
    inv = invariants_from_shifts(table)
    assert inv.reg == (19, 0) and inv.proj_dim == 1
    truncated = graded_betti_table(_pure_powers(), 12)
    assert not truncated.complete
    with pytest.raises(BettiError):
        invariants_from_shifts(truncated)
    # complete exactly when the window reaches the top of beta(S/in I)
    assert [graded_betti_table(_pure_powers(), cap, "quotient").complete for cap in (10, 19, 20, 21)] == [
        False, False, True, True]


def test_monomial_betti_of_small_ideals():
    A = graded_ring(["x", "y"])
    assert _monomial_betti(A, [(10, 0), (0, 10)]) == {(0, 0): {0: 1}, (10, 0): {1: 2}, (20, 0): {2: 1}}
    assert _monomial_betti(A, []) == {(0, 0): {0: 1}}
    assert _monomial_betti(A, [(0, 0)]) == {}
    # (x^2, xy, y^2): 0 -> S(-3)^2 -> S(-2)^3 -> S
    assert _monomial_betti(A, [(2, 0), (1, 1), (0, 2)]) == {(0, 0): {0: 1}, (2, 0): {1: 3}, (3, 0): {2: 2}}


def _seeded_monomial_ideal(seed):
    # 2-6 variables over Q, F_2 or F_3; even seeds graded, odd ones with
    # each variable of degree (1, 0) or (0, 1)
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    char = (0, 2, 3)[seed % 3]
    degrees = tuple((1, 0) if seed % 2 == 0 or rng.random() < 0.5 else (0, 1) for _ in range(n))
    ring = RingSpec(PrimeField(char) if char else QQ, tuple("x%d" % i for i in range(n)), degrees)
    count = rng.randint(3, 8)
    gens = set()
    while len(gens) < count:
        exps = [0] * n
        for _ in range(rng.randint(2, 4)):
            exps[rng.randrange(n)] += 1
        gens.add("*".join("x%d^%d" % (i, e) for i, e in enumerate(exps) if e))
    return Ideal(ring, [parse_polynomial(g, ring) for g in sorted(gens)])


@pytest.mark.parametrize("seed", range(24))
def test_monomial_betti_matches_koszul_homology(seed, monkeypatch):
    # beta(S/J) from the upper Koszul complexes against Koszul homology at
    # every degree up to the top of its support
    from reeslab import betti

    I = _seeded_monomial_ideal(seed)
    pieces = _QuotientPieces(I)
    initial = _monomial_betti(I.ring, pieces._leading)
    top = (max(d[0] for d in initial), max(d[1] for d in initial))
    monkeypatch.setattr(betti, "_koszul_degrees", lambda pieces, initial, caps: set(betti._degree_window(caps)))
    reference = _koszul_betti(pieces, top, dict(hilbert_series_ideal(I).num), initial)
    entries = sorted(((p, d, r) for d, row in initial.items() for p, r in row.items()),
                     key=lambda row: (row[0], row[1][1], row[1][0]))
    assert tuple(entries) == reference


def _subset_betti(ring, gens):
    # the upper Koszul complex at each live lcm-lattice point, found by
    # testing every subset of supp(m), and each point's homology computed
    from reeslab._linalg import VectorSpan
    from reeslab.rings import MonomialPacking

    if (0,) * ring.nvars in gens:
        return {}
    P = MonomialPacking.fitting(ring.nvars, max(map(max, gens), default=0))
    packed = sorted(P.pack(g) for g in gens)
    live, seen = list(packed), set(packed)
    for m in live:
        for g in packed:
            m2 = P.lcm(m, g)
            if m2 not in seen:
                seen.add(m2)
                if not P.divisible(m2 - (P.support(m2) >> (P.width - 1)), packed):
                    live.append(m2)
    out = {(0, 0): {0: 1}}
    for pm in live:
        m = P.unpack(pm)
        supp = [i for i, e in enumerate(m) if e]
        faces = [[t for t in combinations(supp, k) if P.divisible(pm - sum(P.units[i] for i in t), packed)]
                 for k in range(len(supp) + 1)]
        ranks = [0] * (len(faces) + 1)
        for k in range(1, len(faces)):
            span = VectorSpan(ring.field.char)
            for tau in faces[k]:
                mask = sum(1 << i for i in tau)
                span.add({mask ^ (1 << tau[j]): (-1) ** j for j in range(k)})
            ranks[k] = span.rank
        for k, faces_k in enumerate(faces):
            h = len(faces_k) - ranks[k] - ranks[k + 1]
            if h:
                row = out.setdefault(ring.monomial_degree(m), {})
                row[k + 1] = row.get(k + 1, 0) + h
    return out


@pytest.mark.parametrize("case", ["quartic_cube", "quartic_square_mod_p", "twisted_cubic_rees", "planar_fat_rees"])
def test_monomial_betti_matches_subset_enumeration(case, request):
    # the leading monomials of the benchmark's heaviest Betti tables
    from reeslab.groebner import groebner_basis
    from reeslab.rees import rees_presentation

    I = {
        "quartic_cube": lambda: ideal_power(_quartic(QQ), 3),
        "quartic_square_mod_p": lambda: _quartic_square(PrimeField(32003)),
        "twisted_cubic_rees": lambda: request.getfixturevalue("twisted_cubic_rees").defining_ideal,
        "planar_fat_rees": lambda: rees_presentation(request.getfixturevalue("planar_fat_ideal")).defining_ideal,
    }[case]()
    leads = groebner_basis(I).leading_monomials
    assert _monomial_betti(I.ring, leads) == _subset_betti(I.ring, leads)


def test_euler_check_covers_skipped_degrees():
    I = _pure_powers()
    euler = dict(hilbert_series_ideal(I).num)
    assert (5, 0) not in euler
    euler[(5, 0)] = 1
    pieces = _QuotientPieces(I)
    initial = _monomial_betti(I.ring, pieces.gb.leading_monomials)
    with pytest.raises(BettiError, match=r"\(5, 0\)"):
        _koszul_betti(pieces, (25, 0), euler, initial)


def _unit_or_zero(gens):
    B = RingSpec(QQ, ("X1", "X2", "Y1", "Y2"), ((1, 0), (1, 0), (0, 1), (0, 1)))
    return bigraded_betti_table(Ideal(B, [parse_polynomial(g, B) for g in gens]), (4, 4))


def _quartic_square_mod_p():
    return graded_betti_table(_quartic_square(PrimeField(32003)), 10, "quotient")


def _rees_table(ideal, window):
    from reeslab.rees import rees_presentation

    return bigraded_betti_table(rees_presentation(ideal).defining_ideal, window)


@pytest.mark.parametrize("case", [
    "twisted_cubic_rees", "planar_fat_rees", "quartic_square_mod_p", "pure_powers", "zero", "unit",
])
def test_lcm_support_skip_matches_full_window(case, request, monkeypatch):
    # the Koszul homology at every window degree is the reference route
    from reeslab import betti

    build = {
        "twisted_cubic_rees": lambda: _rees_table(request.getfixturevalue("twisted_cubic"), (15, 15)),
        "planar_fat_rees": lambda: _rees_table(request.getfixturevalue("planar_fat_ideal"), (30, 30)),
        "quartic_square_mod_p": _quartic_square_mod_p,
        "pure_powers": lambda: graded_betti_table(_pure_powers(), 25, "quotient"),
        "zero": lambda: _unit_or_zero([]),
        "unit": lambda: _unit_or_zero(["1"]),
    }[case]
    skipped = build().to_json()
    monkeypatch.setattr(betti, "_koszul_degrees", lambda pieces, initial, caps: set(betti._degree_window(caps)))
    assert build().to_json() == skipped


def test_koszul_degree_counts(request, monkeypatch):
    # Koszul homology runs only where beta(S/in I) has consecutive entries
    from reeslab import betti

    counts = []
    real = betti._koszul_degrees

    def spy(pieces, initial, caps):
        out = real(pieces, initial, caps)
        counts.append(len(out))
        return out

    monkeypatch.setattr(betti, "_koszul_degrees", spy)
    _quartic_square_mod_p()
    _rees_table(request.getfixturevalue("twisted_cubic"), (15, 15))
    assert counts == [0, 1]



def test_tables_read_the_reduced_triples_and_build_no_polynomials(planar_fat_ideal):
    from reeslab.groebner import groebner_basis, initial_ideal

    # beta(S/in I) of the planar fat ideal has entries at p = 1 and 2 in degree 8:
    # Koszul homology runs there for I, whose basis has tails, but not for in(I)
    cap = 11
    for I, koszul in ((initial_ideal(planar_fat_ideal), set()),
                      (Ideal(planar_fat_ideal.ring, planar_fat_ideal.gens), {(8, 0)})):
        pieces = _QuotientPieces(I)
        gb = I._bases[I.ring.order]
        assert pieces.gb is gb and gb._polys is None
        assert _koszul_degrees(pieces, _monomial_betti(I.ring, pieces._leading), (cap, 0)) == koszul
        table = graded_betti_table(I, cap, "quotient")
        assert gb._polys is None
        # the triples were reduced in place: they convert to a fresh ideal's reduced basis
        assert gb.polys == groebner_basis(Ideal(I.ring, I.gens)).polys
        assert graded_betti_table(Ideal(I.ring, I.gens), cap, "quotient") == table


# facets of the 6-vertex triangulation of the real projective plane
_RP2_FACETS = ("123", "134", "145", "156", "126", "235", "245", "246", "346", "356")


def _rp2_stanley_reisner(field):
    # the 15 edges are all faces, so the minimal non-faces are the 10 other triangles
    A = graded_ring(["x%d" % i for i in range(1, 7)], field=field)
    faces = {frozenset(f) for f in _RP2_FACETS}
    gens = ["*".join("x" + v for v in T) for T in combinations("123456", 3) if frozenset(T) not in faces]
    assert len(gens) == 10
    return Ideal(A, [parse_polynomial(g, A) for g in gens])


@pytest.mark.parametrize("char", [0, 2, 3], ids=["Q", "F2", "F3"])
def test_rp2_table_depends_on_the_characteristic(char, monkeypatch):
    # Hochster: beta_{3,6} = dim H~_2(RP^2) and beta_{4,6} = dim H~_1(RP^2),
    # both 1 over F_2 and 0 over Q and F_3
    from reeslab import betti

    I = _rp2_stanley_reisner(PrimeField(char) if char else QQ)
    table = graded_betti_table(I, 8, "quotient")
    assert table.complete
    expected = 1 if char == 2 else 0
    ranks = {(p, d): r for p, d, r in table.entries}
    assert ranks.get((3, (6, 0)), 0) == ranks.get((4, (6, 0)), 0) == expected
    # so the support, and completeness at cap 5, depend on the characteristic too
    assert graded_betti_table(I, 5, "quotient").complete is (char != 2)
    monkeypatch.setattr(betti, "_koszul_degrees", lambda pieces, initial, caps: set(betti._degree_window(caps)))
    assert graded_betti_table(I, 8, "quotient").to_json() == table.to_json()


def _quartic(field):
    A = graded_ring(["x0", "x1", "x2", "x3", "x4"], field=field)
    gens = ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x0*x4 - x1*x3",
            "x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2")
    return Ideal(A, [parse_polynomial(g, A) for g in gens])


def _quartic_square(field):
    return ideal_power(_quartic(field), 2)


def _rational_coefficients():
    # the monic basis has denominators 2, 3, 57 and 4649
    A = graded_ring(["x", "y", "z"])
    gens = ("2*x^2 + 3*x*y - 5*y^2", "x*z - 7*y*z + 4*z^2", "3*y^3 - x*z^2")
    return Ideal(A, [parse_polynomial(g, A) for g in gens])


@pytest.mark.parametrize("case", [
    "quartic_square", "quartic_square_mod_p", "twisted_cubic_cube", "twisted_cubic_rees", "planar_fat_rees",
    "rational_coefficients",
])
def test_quotient_pieces_match_division(case, request):
    # the order-ideal bases and the normal-form table against monomial
    # membership and division by the basis, degree by degree
    from math import lcm

    from reeslab.groebner import normal_form
    from reeslab.rees import rees_presentation
    from reeslab.rings import Polynomial

    I, window = {
        "quartic_square": lambda: (_quartic_square(QQ), (9, 0)),
        "quartic_square_mod_p": lambda: (_quartic_square(PrimeField(32003)), (9, 0)),
        "twisted_cubic_cube": lambda: (ideal_power(request.getfixturevalue("twisted_cubic"), 3), (10, 0)),
        "twisted_cubic_rees": lambda: (request.getfixturevalue("twisted_cubic_rees").defining_ideal, (9, 4)),
        "planar_fat_rees": lambda: (
            rees_presentation(request.getfixturevalue("planar_fat_ideal")).defining_ideal, (23, 3)),
        "rational_coefficients": lambda: (_rational_coefficients(), (8, 0)),
    }[case]()
    pieces = _QuotientPieces(I)
    ring, gb = I.ring, pieces.gb
    char = ring.field.char
    nonstandard = 0
    for a in range(window[0] + 1):
        for b in range(window[1] + 1):
            monos = monomials_of_degree(ring, (a, b))
            basis = pieces.basis((a, b))
            assert basis == [m for m in monos if not any(mono_divides(lm, m) for lm in gb.leading_monomials)]
            for m in basis:
                for i in range(ring.nvars):
                    prod = tuple(e + (j == i) for j, e in enumerate(m))
                    nf = normal_form(Polynomial(ring, {prod: ring.field.one}), gb)
                    pairs, den = pieces.multiply(i, m)
                    # denominators cleared: the least common one, so the
                    # coefficients share no factor with it
                    d = 1 if char else lcm(*(c.denominator for _, c in nf.terms))
                    expected = {w: int(c * d) % char if char else int(c * d) for w, c in nf.terms}
                    assert (dict(pairs), den) == (expected, d)
                    nonstandard += (prod, 1) not in pairs
    assert nonstandard


def test_deep_degree_quotient_table():
    # standard bases of 1100 consecutive degrees, filled without recursion
    A = graded_ring(["x", "y"])
    I = Ideal(A, [parse_polynomial("x^1100", A), parse_polynomial("y", A)])
    table = graded_betti_table(I, 1101, "quotient")
    assert table.entries == ((0, (0, 0), 1), (1, (1, 0), 1), (1, (1100, 0), 1), (2, (1101, 0), 1))


# ---------------------------------------------------------------------------
# tables and series of a power read its packed products, not its generators

_POWER_CASES = {
    # name -> (variables, generators, caps of the tables of I, I^2, I^3)
    "twisted_cubic": (["X1", "X2", "X3", "X4"], ["X1*X4 - X2*X3", "X2^2 - X1*X3", "X3^2 - X2*X4"], (8, 10, 12)),
    "planar_fat": (["X", "Y"], ["X^7", "Y^7", "X^6*Y + X^2*Y^5"], (11, 18, 25)),
    "quartic": (["x0", "x1", "x2", "x3", "x4"],
                ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x0*x4 - x1*x3", "x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2"],
                (6, 10, 13)),
}


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("name", sorted(_POWER_CASES))
def test_power_tables_and_series_match_the_ideal_of_its_gens(monkeypatch, name, field):
    from reeslab import groebner

    built = []
    from_int_poly = groebner._from_int_poly
    monkeypatch.setattr(groebner, "_from_int_poly", lambda *args: built.append(args) or from_int_poly(*args))
    names, gens, caps = _POWER_CASES[name]
    A = graded_ring(names, field=field)
    I = Ideal(A, [parse_polynomial(g, A) for g in gens])
    modules = ("ideal", "quotient")
    for j, cap in enumerate(caps, 1):
        J = ideal_power(I, j)
        tables = [graded_betti_table(J, cap, m) for m in modules]
        series = [hilbert_series_ideal(J, m) for m in modules]
        # no generator Polynomial was built, until gens is read
        assert not built and J._gens is None
        K = Ideal(A, J.gens)
        assert len(built) == len(K.gens) == len(J._packed[1])
        assert [t.to_json() for t in tables] == [graded_betti_table(K, cap, m).to_json() for m in modules]
        assert tables == [graded_betti_table(K, cap, m) for m in modules]
        assert series == [hilbert_series_ideal(K, m) for m in modules]
        assert len(built) == len(K.gens)
        del built[:]


def test_a_table_autoreduces_only_where_a_koszul_degree_is_left(monkeypatch, twisted_cubic, planar_fat_ideal):
    from reeslab import groebner

    reductions = []
    autoreduce = groebner._autoreduce
    monkeypatch.setattr(groebner, "_autoreduce", lambda *args: reductions.append(1) or autoreduce(*args))
    # every degree of the twisted cubic's I^2 is copied from beta(S/in I^2)
    J = ideal_power(twisted_cubic, 2)
    graded_betti_table(J, 10, "ideal")
    assert not groebner._basis(J, J.ring.order)._reduced and not reductions
    # planar-fat I^2 runs Koszul homology, and reduces its basis once for it
    J = ideal_power(planar_fat_ideal, 2)
    table = graded_betti_table(J, 18, "ideal")
    assert groebner._basis(J, J.ring.order)._reduced and reductions == [1]
    assert graded_betti_table(J, 18, "ideal") == table and reductions == [1]


@pytest.mark.parametrize("gens, cap", [(("x + y", "y"), 4), (("x^2 + x*y", "x*y", "y^3"), 6)],
                         ids=["linear", "consecutive_entries"])
def test_an_ideal_equal_to_its_initial_ideal_gets_no_koszul_degree(gens, cap):
    A = graded_ring(["x", "y"])
    I = Ideal(A, [parse_polynomial(g, A) for g in gens])
    pieces = _QuotientPieces(I)
    initial = _monomial_betti(A, pieces._leading)
    # the unreduced basis keeps a tail; the reduced one is monomial
    assert any(tail for _, _, tail in pieces.gb._triples)
    assert _koszul_degrees(pieces, initial, (cap, 0)) == set()
    # beta(S/(x, y)) leaves no degree, so the basis stays unreduced; beta(S/(x^2, xy, y^3))
    # has entries at p = 1 and 2 in degree 3, so only the reduced basis rules that degree out
    reduced = pieces.gb._reduced
    assert reduced is (len(gens) == 3)
    if reduced:
        assert not any(tail for _, _, tail in pieces.gb._triples)
