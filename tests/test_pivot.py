"""The pivot recursion on plain-packed monomials against brute-force counts, its node tree, and its two top calls."""

import random
from itertools import permutations

import pytest

from reeslab import (
    DEGLEX,
    Ideal,
    LEX,
    PrimeField,
    QQ,
    RingSpec,
    SeriesError,
    eliminate,
    graded_ring,
    groebner_basis,
    hilbert_series_ideal,
    hilbert_series_monomial,
    ideal_power,
    initial_ideal,
    initial_monomials,
    parse_polynomial,
)
from reeslab import groebner, hilbert
from reeslab.rees import rees_presentation
from reeslab.rings import DEGREVLEX, MonomialPacking, Polynomial
from conftest import mono_divides

TOP = 8
BIGRADED_DEGREES = ((1, 0), (1, 1), (2, 1), (0, 1))


def _ring(n, bigraded, rng=None):
    names = ["v%d" % i for i in range(n)]
    if not bigraded:
        return graded_ring(names)
    degrees = tuple(rng.choice(BIGRADED_DEGREES) if rng else BIGRADED_DEGREES[i % 4] for i in range(n))
    return RingSpec(QQ, tuple(names), degrees, DEGREVLEX)


def _standard_counts(ring, gens, top):
    """dim (ring/J)_(a, b) for a, b <= top, by listing every monomial of those degrees."""
    counts = [[0] * (top + 1) for _ in range(top + 1)]

    def walk(i, mono, a, b):
        if i == ring.nvars:
            if not any(all(x <= y for x, y in zip(g, mono)) for g in gens):
                counts[a][b] += 1
            return
        da, db = ring.degrees[i]
        e = 0
        while a + e * da <= top and b + e * db <= top:
            walk(i + 1, mono + (e,), a + e * da, b + e * db)
            e += 1

    walk(0, (), 0, 0)
    return counts


def _check_against_counts(ring, gens, top=TOP):
    J = Ideal(ring, [Polynomial(ring, {m: ring.field.one}) for m in gens])
    jmax = top if any(b for _, b in ring.degrees) else 0
    arr = hilbert_series_monomial(J).expand(top, jmax)
    counts = _standard_counts(ring, gens, top)
    assert [row[:jmax + 1] for row in arr] == [row[:jmax + 1] for row in counts]


@pytest.mark.parametrize("bigraded", [False, True])
def test_series_matches_standard_monomial_counts(bigraded):
    rng = random.Random(1309 + bigraded)
    for _ in range(12):
        n = rng.randint(3, 6)
        ring = _ring(n, bigraded, rng)
        gens = [tuple(rng.choice((0, 0, 1, 2, 3, 4)) for _ in range(n)) for _ in range(rng.randint(1, 8))]
        gens += rng.sample(gens, rng.randint(0, len(gens)))  # duplicates
        _check_against_counts(ring, [g for g in gens if any(g)] or [(1,) * n])


EDGE_CASES = {
    "empty": [],
    "unit": [(0, 0, 0, 0)],
    "duplicates": [(2, 1, 0, 0), (2, 1, 0, 0), (0, 0, 3, 1), (1, 1, 1, 1), (0, 0, 3, 1)],
    "single_variable": [(3, 0, 0, 0), (5, 0, 0, 0)],
    "two_variable_staircase": [(4, 0, 0, 0), (3, 1, 0, 0), (1, 3, 0, 0), (0, 5, 0, 0)],
    "disconnected": [(2, 1, 0, 0), (1, 3, 0, 0), (0, 0, 2, 0), (0, 0, 1, 1), (0, 0, 0, 3)],
    "squarefree_cycle": [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)],
    # 3 and 7 fill 2- and 3-bit fields; 4 and 8 need one more bit
    "field_boundary_4": [(3, 1, 0, 0), (4, 0, 0, 0), (0, 3, 0, 1), (0, 0, 4, 0), (1, 1, 1, 1)],
    "field_boundary_8": [(7, 1, 0, 0), (8, 0, 0, 0), (0, 7, 0, 1), (0, 0, 8, 0), (1, 1, 1, 1)],
}


@pytest.mark.parametrize("bigraded", [False, True])
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases_match_standard_monomial_counts(case, bigraded):
    _check_against_counts(_ring(4, bigraded), EDGE_CASES[case], top=10)


@pytest.mark.parametrize("width", [2, 3, 4, 5, 9])
def test_minimal_packed_monomials_match_a_divisibility_filter(width):
    P = MonomialPacking(5, width)
    top = (1 << (width - 1)) - 1
    rng = random.Random(width)
    for _ in range(100):
        gens = [tuple(rng.choice((0, 1, top, rng.randint(0, top))) for _ in range(5))
                for _ in range(rng.randint(0, 12))]
        gens += gens[:rng.randint(0, len(gens))]
        expected = sorted({m for m in gens if not any(mono_divides(g, m) for g in gens if g != m)})
        assert [P.unpack(m) for m in hilbert._minimal([P.pack(g) for g in gens], P)] == expected
        for m in gens:
            mask = P.support(P.pack(m))
            assert [bool(mask & (u << (width - 1))) for u in P.units] == [e > 0 for e in m]


def _taylor_numerator(ring, gens):
    """The Taylor resolution's alternating sum: over the subsets S of gens, (-1)^|S| s^a t^b, (a, b) = deg lcm(S)."""
    num = {}

    def walk(i, lcm, sign):
        if i == len(gens):
            d = tuple(sum(e * deg[k] for e, deg in zip(lcm, ring.degrees)) for k in (0, 1))
            num[d] = num.get(d, 0) + sign
            return
        walk(i + 1, lcm, sign)
        walk(i + 1, tuple(map(max, lcm, gens[i])), -sign)

    walk(0, (0,) * ring.nvars, 1)
    return {d: c for d, c in num.items() if c}


# The top pivot is x0, in the most supports. Dividing x0 out of the generators
# with x0 leaves a monomial that divides a generator without x0, which drops out
# of the colon only.
COLON_DROPS = [
    [(1, 0, 2, 0), (1, 1, 1, 0), (1, 2, 0, 0), (0, 0, 3, 0)],  # the colon's only component is on two variables
    [(3, 1, 0, 0), (3, 0, 4, 0), (3, 0, 0, 7), (0, 1, 4, 0)],
    [(1, 1, 0, 0, 0), (1, 0, 1, 0, 0), (1, 0, 0, 1, 0), (1, 0, 0, 0, 1), (0, 2, 1, 0, 0), (0, 0, 0, 1, 1)],
    [(8, 3, 0, 0, 0, 0), (8, 0, 7, 0, 0, 0), (8, 0, 0, 4, 0, 0), (0, 3, 7, 0, 0, 0), (0, 4, 0, 4, 1, 0),
     (0, 0, 0, 0, 3, 8)],
]


@pytest.mark.parametrize("bigraded", [False, True])
def test_pivot_recursion_matches_the_taylor_alternating_sum(bigraded):
    rng = random.Random(2903 + bigraded)
    ideals = [(_ring(len(g[0]), bigraded, rng), g) for g in COLON_DROPS]
    for _ in range(60):
        n = rng.randint(4, 6)
        # exponents at the packing boundaries: 3 and 7 fill 2- and 3-bit fields, 4 and 8 need one more bit
        gens = [tuple(rng.choice((0, 0, 0, 1, 2, 3, 4, 7, 8)) for _ in range(n)) for _ in range(rng.randint(1, 10))]
        ideals.append((_ring(n, bigraded, rng), gens))
    for ring, gens in ideals:
        assert hilbert.monomial_quotient_numerator(ring, gens) == _taylor_numerator(ring, gens), gens


def test_pivot_node_count_on_quartic_cube(monkeypatch):
    A = graded_ring(["x0", "x1", "x2", "x3", "x4"])
    gens = ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x0*x4 - x1*x3",
            "x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2")
    cube = ideal_power(Ideal(A, [parse_polynomial(g, A) for g in gens]), 3)
    leads = sorted(groebner_basis(cube).leading_monomials)
    # count every node as perfbench's tracer does: by wrapping the module-level name
    calls = []
    inner = hilbert.monomial_quotient_numerator

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(hilbert, "monomial_quotient_numerator", counted)
    num = hilbert.monomial_quotient_numerator(A, leads)
    assert len(calls) == 37
    assert num == {(0, 0): 1, (6, 0): -50, (7, 0): 120, (8, 0): -105, (9, 0): 40, (10, 0): -6}


def test_bad_as_module_raises_before_any_basis(monkeypatch, twisted_cubic):
    def no_basis(*args, **kwargs):
        raise AssertionError("initial_monomials ran")

    monkeypatch.setattr(hilbert, "initial_monomials", no_basis)
    with pytest.raises(SeriesError, match="as_module"):
        hilbert_series_ideal(twisted_cubic, "module")


# ---------------------------------------------------------------------------
# hilbert_series_ideal hands the basis's leads to the recursion without a
# _minimal pass: they divide none of each other on every basis route, and the
# series matches the route through hilbert_series_monomial, which keeps it

def _random_homogeneous(rng, ring, count):
    """count polynomials of two or three terms, each of one random degree from 2 to 3."""
    out = []
    for _ in range(count):
        d = rng.randint(2, 3)
        coeffs = {}
        while len(coeffs) < rng.randint(2, 3):
            m = [0] * ring.nvars
            for _ in range(d):
                m[rng.randrange(ring.nvars)] += 1
            coeffs[tuple(m)] = ring.field.coerce(rng.choice((-3, -2, -1, 1, 2, 3)))
        out.append(Polynomial(ring, coeffs))
    return out


def _check_minimal_leads(I):
    leads = initial_monomials(I)
    assert leads
    assert not any(mono_divides(a, b) for a, b in permutations(leads, 2))
    assert hilbert_series_ideal(I) == hilbert_series_monomial(initial_ideal(I))


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("order", [DEGREVLEX, DEGLEX, LEX], ids=["degrevlex", "deglex", "lex"])
@pytest.mark.parametrize("seed", range(3))
def test_seeded_basis_leads_are_minimal(seed, order, field):
    # homogeneous input only: lex on inhomogeneous input can run for minutes
    rng = random.Random(9400 + seed)
    A = graded_ring(["X", "Y", "Z", "W"], field=field, order=order)
    _check_minimal_leads(Ideal(A, _random_homogeneous(rng, A, rng.randint(2, 4))))


def test_rees_defining_ideal_leads_are_minimal(twisted_cubic, planar_fat_ideal):
    for I in (twisted_cubic, planar_fat_ideal):
        K = rees_presentation(Ideal(I.ring, I.gens)).defining_ideal
        # the leads are eliminate's cut of the block order's reduced basis
        assert K.ring.order in K._bases
        _check_minimal_leads(K)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_elimination_leads_are_minimal(field):
    rng = random.Random(9500)
    A = graded_ring(["X", "Y", "Z", "W", "V"], field=field)
    gens = _random_homogeneous(rng, A, 4)
    for block in ([0], [4], [1, 3]):
        _check_minimal_leads(eliminate(Ideal(A, gens), block))


def test_ideal_power_packed_route_leads_are_minimal(monkeypatch, twisted_cubic):
    J = ideal_power(Ideal(twisted_cubic.ring, twisted_cubic.gens), 3)
    P, products, _ = J._packed
    taken = []
    run = groebner._packed_run
    monkeypatch.setattr(groebner, "_packed_run", lambda *args: taken.append(args) or run(*args))
    _check_minimal_leads(J)
    # the basis ran on the packed products, which the ideal keeps
    (_, Q, packed, _), = taken
    assert Q is P and packed is products and J._packed[1] is products
    # a basis in another order has the leads of the ideal of the gens
    assert initial_monomials(J, DEGLEX) == initial_monomials(Ideal(J.ring, J.gens), DEGLEX)


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
@pytest.mark.parametrize("order, gens", [
    (DEGREVLEX, ("-x^2*y + 2*z^3", "2*y^2*z + 2*y*z^2")),
    (LEX, ("-x^3 + 2*y^3", "x*z^2 + 2*y^2*z")),
], ids=["degrevlex", "lex"])
def test_leads_stay_minimal_after_the_packing_widens(monkeypatch, order, gens, field):
    widths = []
    widened = MonomialPacking.widened
    monkeypatch.setattr(MonomialPacking, "widened", lambda P: widths.append(P.width) or widened(P))
    A = graded_ring(["x", "y", "z"], field=field, order=order)
    I = Ideal(A, [parse_polynomial(g, A) for g in gens])
    _check_minimal_leads(I)
    assert widths


# ---------------------------------------------------------------------------
# a repeated series request runs only the pivot recursion

def _counting(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_repeated_series_request_checks_nothing_again(monkeypatch):
    A = graded_ring(["x0", "x1", "x2", "x3", "x4"])
    gens = ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x0*x4 - x1*x3",
            "x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2")
    I = ideal_power(Ideal(A, [parse_polynomial(g, A) for g in gens]), 4)
    first = hilbert_series_ideal(I)
    homogeneity = _counting(monkeypatch, Polynomial, "is_homogeneous")
    minimalized = _counting(monkeypatch, hilbert, "_minimal")
    assert hilbert_series_ideal(I) == first
    assert not homogeneity
    assert not minimalized
    assert dict(first.num) == {(0, 0): 1, (8, 0): -105, (9, 0): 280, (10, 0): -276, (11, 0): 120, (12, 0): -20}


def test_monomial_series_still_minimalizes_redundant_generators(monkeypatch):
    A = graded_ring(["x", "y", "z", "w"])
    minimal = ["x^2*y", "y^3", "x*z^2", "z*w^3", "x^4"]
    redundant = minimal + ["x^3*y", "y^4*z", "x^2*z^2*w", "x^2*y", "z^2*w^3*x"]

    def monomial_ideal(texts):
        return Ideal(A, [parse_polynomial(t, A) for t in texts])

    expected = hilbert_series_monomial(monomial_ideal(minimal))
    minimalized = _counting(monkeypatch, hilbert, "_minimal")
    assert hilbert_series_monomial(monomial_ideal(redundant)) == expected
    assert minimalized
    assert hilbert_series_ideal(monomial_ideal(redundant)) == expected


def test_inhomogeneous_ideal_and_its_power_raise(twisted_cubic):
    A = twisted_cubic.ring
    I = Ideal(A, list(twisted_cubic.gens) + [parse_polynomial("X1^2 + X2", A)])
    for J in (I, ideal_power(I, 2)):
        with pytest.raises(SeriesError, match="inhomogeneous"):
            hilbert_series_ideal(J)
        # the answer is kept, and still the same
        with pytest.raises(SeriesError, match="inhomogeneous"):
            hilbert_series_ideal(J)


@pytest.mark.parametrize("seed", range(6))
def test_kept_homogeneity_matches_the_generators(seed):
    rng = random.Random(9600 + seed)
    A = graded_ring(["X", "Y", "Z"])
    gens = _random_homogeneous(rng, A, rng.randint(1, 3))
    if seed % 2:
        gens.append(parse_polynomial(rng.choice(("X^2 + Y", "X*Y*Z - Z", "Y^3 + X^2 + Z")), A))
    rng.shuffle(gens)
    I = Ideal(A, gens)
    power = ideal_power(I, rng.randint(1, 3))
    # computed, seeded by ideal_power, and computed on the power's generators
    for J in (Ideal(A, gens), I, power, Ideal(A, power.gens)):
        assert J.is_homogeneous() == all(g.is_homogeneous() for g in J.gens) == (not seed % 2)
