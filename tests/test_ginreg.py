import itertools
import random
from fractions import Fraction

import pytest

from reeslab import (
    DEGLEX,
    DEGREVLEX,
    Ideal,
    LEX,
    PrimeField,
    QQ,
    RingSpec,
    graded_ring,
    hilbert_series_ideal,
    ideal_power,
    initial_monomials,
    parse_polynomial,
)
from reeslab import ginreg, groebner
from reeslab.betti import bigraded_betti_table, invariants_from_shifts
from reeslab.ginreg import (
    GinError,
    RegularityCheck,
    bayer_stillman_check,
    borel_fix_check,
    borel_regularity,
    generic_initial_ideal,
)
from reeslab.rings import Polynomial
from conftest import mono_divides, monomials_of_degree, spairs_reduce_to_zero


@pytest.fixture(scope="module")
def S22():
    return RingSpec(QQ, ("X1", "X2", "Y1", "Y2"), ((1, 0), (1, 0), (0, 1), (0, 1)), LEX)


@pytest.fixture(scope="module")
def regular_pair_ideal(S22):
    return Ideal(S22, [parse_polynomial("X1*Y1", S22), parse_polynomial("X1*Y2 + X2*Y1", S22)])


def test_gin_of_zero_ideal():
    A = graded_ring(["x", "y"])
    out = generic_initial_ideal(Ideal(A, []))
    assert out.ideal.is_zero()


def test_gin_of_generic_square():
    A = graded_ring(["X1", "X2"])
    f = parse_polynomial("2*X1 + 3*X2", A)
    out = generic_initial_ideal(Ideal(A, [f * f]), seed=5)
    assert [g.leading_monomial() for g in out.ideal.gens] == [(2, 0)]


def test_gin_regular_pair_degree_one_one_part(regular_pair_ideal, S22):
    out = generic_initial_ideal(regular_pair_ideal, order=LEX, seed=11)
    deg11 = [m for m in out.generators() if S22.monomial_degree(m) == (1, 1)]
    assert sorted(deg11) == [(1, 0, 0, 1), (1, 0, 1, 0)]  # X1 Y1 and X1 Y2


def test_gin_preserves_series_and_is_borel(regular_pair_ideal):
    out = generic_initial_ideal(regular_pair_ideal, order=LEX, seed=2)
    assert hilbert_series_ideal(out.ideal, "quotient") == hilbert_series_ideal(
        regular_pair_ideal, "quotient"
    )
    assert borel_fix_check(out.ideal).is_borel


def test_gin_regularity_jumps(regular_pair_ideal):
    # the source has regularity (1,1); any stable initial ideal exceeds it
    out = generic_initial_ideal(regular_pair_ideal, order=LEX, seed=4)
    d1, d2 = borel_regularity(out.ideal)
    assert d1 >= 2 or d2 >= 2
    out2 = generic_initial_ideal(regular_pair_ideal, order=DEGREVLEX, seed=4)
    e1, e2 = borel_regularity(out2.ideal)
    assert e1 >= 2 or e2 >= 2


def test_borel_check_positive(S22):
    A = graded_ring(["X1", "X2"])
    J = Ideal(A, [parse_polynomial(s, A) for s in ("X1^2", "X1*X2", "X2^2")])
    assert borel_fix_check(J).is_borel
    J2 = Ideal(S22, [parse_polynomial("X1*Y1", S22), parse_polynomial("X2*Y1", S22)])
    rep = borel_fix_check(J2)
    assert rep.is_borel and rep.delta == (1, 1)


def test_borel_check_negative():
    A = graded_ring(["X1", "X2"])
    rep = borel_fix_check(Ideal(A, [A.variable(1)]))
    assert not rep.is_borel
    mono, i, j, s = rep.witness
    assert (i, j, s) == (0, 1, 1)


def test_borel_check_char_p():
    # Frobenius power (x^2, y^2): 2-Borel but not 0-Borel
    A = graded_ring(["x", "y"])
    J = Ideal(A, [parse_polynomial("x^2", A), parse_polynomial("y^2", A)])
    # char 0: (x/y) y^2 = x y is missing
    rep0 = borel_fix_check(J, 0)
    assert not rep0.is_borel
    # char 2: binom(2,1) vanishes mod 2, so only the full move s=2 is tested
    assert borel_fix_check(J, 2).is_borel


def test_borel_regularity_of_pure_power():
    A = graded_ring(["X1", "X2"])
    assert borel_regularity(Ideal(A, [parse_polynomial("X1^2", A)])) == (2, 0)


def test_borel_regularity_requires_borel():
    A = graded_ring(["x", "y"])
    with pytest.raises(GinError):
        borel_regularity(Ideal(A, [A.variable(1)]))


def _random_borel_ideal(rng, ring):
    """Borel closure of a few random monomials (exchange moves to smaller indices)."""
    from reeslab.ginreg import _degree_blocks

    blocks = _degree_blocks(ring)
    seeds = []
    for _ in range(rng.randint(1, 3)):
        mono = [0] * ring.nvars
        for _ in range(rng.randint(1, 3)):
            mono[rng.randrange(ring.nvars)] += 1
        seeds.append(tuple(mono))
    closed = set(seeds)
    frontier = list(seeds)
    while frontier:
        m = frontier.pop()
        for block in blocks:
            for bj, j in enumerate(block):
                if m[j] == 0:
                    continue
                for i in block[:bj]:
                    moved = list(m)
                    moved[j] -= 1
                    moved[i] += 1
                    moved = tuple(moved)
                    if moved not in closed:
                        closed.add(moved)
                        frontier.append(moved)
    gens = [Polynomial(ring, {m: ring.field.one}) for m in closed]
    from reeslab.groebner import minimal_generators

    return Ideal(ring, minimal_generators(ring, gens))


def test_borel_regularity_matches_shift_oracle():
    ring = RingSpec(QQ, ("X1", "X2", "Y1", "Y2"), ((1, 0), (1, 0), (0, 1), (0, 1)))
    rng = random.Random(41)
    checked = 0
    while checked < 8:
        J = _random_borel_ideal(rng, ring)
        if J.is_zero():
            continue
        rep = borel_fix_check(J)
        assert rep.is_borel
        d1, d2 = rep.delta
        window = (d1 + d2 + 4, d1 + d2 + 4)
        table = bigraded_betti_table(J, window, as_module="ideal")
        assert table.complete
        inv = invariants_from_shifts(table)
        assert inv.reg == (d1, d2)
        checked += 1


def test_borel_tables_match_the_full_koszul_route(monkeypatch):
    # monomial ideals need no Koszul homology; the reference route runs it at every window degree
    from reeslab import betti

    ring = RingSpec(QQ, ("X1", "X2", "Y1", "Y2"), ((1, 0), (1, 0), (0, 1), (0, 1)))
    rng = random.Random(43)
    cases = []
    while len(cases) < 8:
        J = _random_borel_ideal(rng, ring)
        if not J.is_zero():
            d1, d2 = borel_fix_check(J).delta
            cases.append((J, (d1 + d2 + 4, d1 + d2 + 4)))
    tables = [bigraded_betti_table(J, window, as_module="ideal").to_json() for J, window in cases]
    monkeypatch.setattr(betti, "_koszul_degrees", lambda pieces, initial, caps: set(betti._degree_window(caps)))
    assert [bigraded_betti_table(J, window, as_module="ideal").to_json() for J, window in cases] == tables


def test_bayer_stillman_on_exact_regularity():
    A = graded_ring(["X1", "X2"])
    I = Ideal(A, [parse_polynomial("X1^2", A), parse_polynomial("X2^3", A)])
    # complete intersection: regularity 2 + 3 - 1 = 4
    assert bayer_stillman_check(I, 4, seed=8).verdict is True
    assert bayer_stillman_check(I, 3, seed=8).verdict is False


def test_bayer_stillman_regular_pair(regular_pair_ideal):
    check = bayer_stillman_check(regular_pair_ideal, 1, seed=3)
    assert check.verdict is True
    assert check.forms_used <= 2


def test_degenerate_coordinate_changes_rejected(monkeypatch):
    # entry bound 0 makes every "generic" change the identity; the agreed
    # result (X2^2) is not Borel-fix, which the audit must refuse
    A = graded_ring(["X1", "X2"])
    I = Ideal(A, [parse_polynomial("X2^2", A)])
    monkeypatch.setattr(ginreg, "_ENTRY_BOUND", 0)
    with pytest.raises(GinError, match=r"not Borel-fixed \(witness \(\(0, 2\), 0, 1, 1\)\)"):
        generic_initial_ideal(I)
    monkeypatch.undo()
    # with honest random changes the result is (X1^2)
    out = generic_initial_ideal(I, seed=1)
    assert [g.leading_monomial() for g in out.ideal.gens] == [(2, 0)]


def _random_forms(rng, ring, degree, count):
    monos = monomials_of_degree(ring, (degree, 0))
    return [Polynomial(ring, {m: ring.field.coerce(rng.choice((-3, -2, -1, 1, 2, 3))) for m in rng.sample(monos, 3)})
            for _ in range(count)]


@pytest.mark.parametrize("seed", range(3))
def test_gin_skips_pairs_by_the_hilbert_series(monkeypatch, seed):
    rng = random.Random(8100 + seed)
    A = graded_ring(["a", "b", "c", "d"])
    I = Ideal(A, _random_forms(rng, A, 2, 4) + _random_forms(rng, A, 3, 1))
    hilbert_series_ideal(I)    # I's own basis, so that only the trials are counted
    calls = []
    normal_form_int = groebner._normal_form_int
    monkeypatch.setattr(groebner, "_normal_form_int", lambda *args: calls.append(1) or normal_form_int(*args))
    trials = []    # (raw basis, Hilbert skip) of each trial's run
    packed_run = ginreg._packed_run

    def captured(ring, P, packed, missing_leads):
        P, triples = packed_run(ring, P, packed, missing_leads)
        trials.append((groebner.GroebnerBasis(ring, P.order, P, triples), missing_leads))
        return P, triples

    monkeypatch.setattr(ginreg, "_packed_run", captured)
    skipped = generic_initial_ideal(I, seed=seed)
    n_skipped = len(calls)
    # each trial's basis comes from a skipped run, and is a Groebner basis
    # although the skip reduced fewer pairs
    assert len(trials) == 3 and all(skip is not None for _, skip in trials)
    assert all(spairs_reduce_to_zero(raw) for raw, _ in trials)
    calls.clear()
    monkeypatch.setattr(ginreg, "_hilbert_skip", lambda *args: None)
    full = generic_initial_ideal(I, seed=seed)
    assert len(trials) == 6 and all(skip is None for _, skip in trials[3:])
    assert full.to_json() == skipped.to_json()
    assert n_skipped < len(calls)


def test_bayer_stillman_preconditions(S22):
    I = Ideal(S22, [parse_polynomial("X1^2*Y1", S22)])
    with pytest.raises(GinError):
        bayer_stillman_check(I, 1)  # generator above the degree bound


def test_gin_refuses_fewer_than_one_trial():
    # 0 trials once raised IndexError, and -1 reported "unstable after 3 rounds"
    A = graded_ring(["x", "y"])
    for I in (Ideal(A, [parse_polynomial("x^2 + y^2", A)]), Ideal(A, [])):
        for trials in (0, -1):
            with pytest.raises(GinError, match="at least one trial"):
                generic_initial_ideal(I, trials=trials)


def test_bayer_stillman_refuses_an_empty_q_window(regular_pair_ideal):
    # q_max below the first q once certified regularity with 0 forms
    with pytest.raises(GinError, match="empty q-window"):
        bayer_stillman_check(regular_pair_ideal, 2, q_window=(0, -1))
    with pytest.raises(GinError, match="empty q-window"):
        bayer_stillman_check(regular_pair_ideal, 2, q_window=(3, 2))


def test_bayer_stillman_refuses_inhomogeneous_input():
    A = RingSpec(QQ, ("x", "y"), ((1, 0), (1, 0)), DEGREVLEX)
    I = Ideal(A, [parse_polynomial("x^2 - y", A)])
    with pytest.raises(GinError, match="ideal must be homogeneous"):
        bayer_stillman_check(I, 2)


def _bayer_stillman_by_linear_algebra(I, m, q_window=None, seed=0, entry_bound=ginreg._ENTRY_BOUND):
    """bayer_stillman_check by ranks on whole graded pieces: J_(m,q) by leading
    monomials, (J : h)_(m,q) as the kernel of h into (S/J)_(m+1,q) by normal forms."""
    from reeslab._linalg import VectorSpan
    from reeslab.groebner import groebner_basis, normal_form

    ring = I.ring

    def piece_dimension(gb, degree):
        lms = gb.leading_monomials if gb is not None else []
        return sum(1 for mono in monomials_of_degree(ring, degree) if any(mono_divides(g, mono) for g in lms))

    def colon_piece_equal(gb, h, q):
        monos = monomials_of_degree(ring, (m, q))
        target = {}
        span = VectorSpan(0)
        for mono in monos:
            f = Polynomial(ring, {mono: ring.field.one}) * h
            nf = normal_form(f, gb) if gb is not None else f
            span.add({target.setdefault(mm, len(target)): c for mm, c in nf.terms})
        return len(monos) - span.rank == piece_dimension(gb, (m, q))

    x_block = [i for i, d in enumerate(ring.degrees) if d == (1, 0)]
    if q_window is None:
        qmax = max((g.multidegree()[1] for g in I.gens), default=0)
        q_window = (0, qmax + sum(1 for d in ring.degrees if d[1] > 0) + 1)
    qs = range(q_window[0], q_window[1] + 1)
    rng = random.Random(seed)
    J = I
    forms = 0
    note = (
        "certificate via the generic-form direction; the number of forms used "
        "is reported because the cohomological count is not computed"
    )
    for step in range(len(x_block) + 1):
        gb = groebner_basis(J) if not J.is_zero() else None
        if all(piece_dimension(gb, (m, q)) == len(monomials_of_degree(ring, (m, q))) for q in qs):
            return RegularityCheck(True, m, tuple(q_window), forms, seed, note)
        if step == len(x_block):
            break
        h = ring.zero()
        for i in x_block:
            h = h + ring.variable(i).scale(rng.randint(-entry_bound, entry_bound))
        if not all(colon_piece_equal(gb, h, q) for q in qs):
            return RegularityCheck(False, m, tuple(q_window), forms + 1, seed, note)
        J = Ideal(ring, list(J.gens) + [h])
        forms += 1
    raise GinError("window %r exhausted without certificate: widen q_window" % (q_window,))


def _random_bihomogeneous(rng, ring, degree):
    monos = monomials_of_degree(ring, degree)
    return Polynomial(ring, {mm: ring.field.coerce(rng.choice((-2, -1, 1, 2, 3)))
                             for mm in rng.sample(monos, min(rng.randint(1, 3), len(monos)))})


def test_bayer_stillman_matches_the_linear_algebra_route(S22):
    G = graded_ring(["x", "y", "z"])
    B = RingSpec(QQ, S22.names, S22.degrees, DEGREVLEX)
    verdicts = []
    for seed in range(48):
        rng = random.Random(seed)
        if seed % 2:
            ring = G
            degrees = [(rng.randint(1, 3), 0) for _ in range(rng.randint(1, 3))]
        else:
            ring = B
            degrees = [(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(rng.randint(1, 3))]
            degrees = [d if d != (0, 0) else (1, 1) for d in degrees]
        I = Ideal(ring, [_random_bihomogeneous(rng, ring, d) for d in degrees])
        m = max(d[0] for d in degrees) + rng.randint(0, 2)
        check = bayer_stillman_check(I, m, seed=seed).to_json()
        assert check == _bayer_stillman_by_linear_algebra(I, m, seed=seed).to_json(), seed
        verdicts.append((check["verdict"], check["forms_used"]))
    # both verdicts, and certificates that needed two forms
    assert {v for v, _ in verdicts} == {True, False}
    assert (True, 2) in verdicts and (False, 2) in verdicts
    # a chosen window, and one the x-forms cannot fill: S_(0,q) holds no x
    I = Ideal(B, [parse_polynomial("Y1^2 + Y1*Y2", B)])
    for m, window in ((1, (1, 3)), (0, None)):
        try:
            expected = _bayer_stillman_by_linear_algebra(I, m, window, seed=5).to_json()
        except GinError as exc:
            expected = str(exc)
        try:
            got = bayer_stillman_check(I, m, window, seed=5).to_json()
        except GinError as exc:
            got = str(exc)
        assert got == expected
    assert "exhausted" in got


def _substitute_by_polynomials(I, blocks, matrices):
    """apply_coordinate_change through Polynomial arithmetic, one factor at a time."""
    ring = I.ring
    images = [ring.variable(i) for i in range(ring.nvars)]
    for indices, g in zip(blocks, matrices):
        for col, j in enumerate(indices):
            acc = ring.zero()
            for row, i in enumerate(indices):
                if g[row][col]:
                    acc = acc + ring.variable(i).scale(g[row][col])
            images[j] = acc
    out = []
    for f in I.gens:
        acc = ring.zero()
        for mono, coeff in f.terms:
            term = ring.one().scale(coeff)
            for idx, e in enumerate(mono):
                for _ in range(e):
                    term = term * images[idx]
            acc = acc + term
        out.append(acc)
    return out


@pytest.mark.parametrize("field", [QQ, PrimeField(32003)], ids=["Q", "F32003"])
def test_coordinate_change_matches_polynomial_substitution(field):
    from reeslab.ginreg import _degree_blocks, _random_upper_unitriangular, apply_coordinate_change

    graded = graded_ring(["x", "y", "z"], field=field)
    bigraded = RingSpec(field, ("X1", "X2", "X3", "Y1", "Y2"),
                        ((1, 0), (1, 0), (1, 0), (2, 1), (2, 1)), DEGREVLEX)
    cases = [
        (graded, ["1/2*x^2 - 2/3*y*z", "5/7*x*y^2 + z^3 - 3*x^3", "y^4"]),
        (bigraded, ["X1*Y2 - 3/4*X2*Y1", "Y1^2 - 5/2*X3^2*Y2", "X1^3 + 1/3*X2*X3^2"]),
    ]
    rng = random.Random(3)
    for ring, texts in cases:
        I = Ideal(ring, [parse_polynomial(t, ring) for t in texts])
        blocks = _degree_blocks(ring)
        assert len(blocks) == (2 if ring is bigraded else 1)
        for order in (DEGREVLEX, LEX, DEGREVLEX):
            mats = [_random_upper_unitriangular(b, rng, 100) for b in blocks]
            P, moved = apply_coordinate_change(I, blocks, mats, order)
            assert P.order == order
            # each moved generator is the image times the lcm of the generator's denominators
            moved = [Polynomial(ring, {P.unpack(m): ring.field.coerce(c) for m, c in d.items()}).scale(
                         Fraction(1, groebner._to_int_poly(f)[1]))
                     for f, d in zip(I.gens, moved)]
            assert moved == _substitute_by_polynomials(I, blocks, mats)


@pytest.mark.parametrize("seed", range(3))
def test_gin_reads_the_initial_ideals_of_the_moved_generators(monkeypatch, seed):
    rng = random.Random(8300 + seed)
    A = graded_ring(["a", "b", "c", "d"])
    I = Ideal(A, _random_forms(rng, A, 2, 3) + _random_forms(rng, A, 3, 1))
    moved = []
    apply = ginreg.apply_coordinate_change
    monkeypatch.setattr(ginreg, "apply_coordinate_change", lambda *args: moved.append(apply(*args)) or moved[-1])
    out = generic_initial_ideal(I, seed=seed)
    assert len(moved) >= out.trials
    for P, gens in moved[-out.trials:]:
        J = Ideal(A, [Polynomial(A, {P.unpack(m): Fraction(c) for m, c in d.items()}) for d in gens])
        expected = [repr(Polynomial(A, {m: A.field.one})) for m in sorted(initial_monomials(J))]
        assert out.to_json()["generators"] == expected



def _identity_on_calls(monkeypatch, identity):
    """Patch _random_upper_unitriangular: call k (from 0) keeps the coordinates where identity(k) holds.

    Returns the list of the entry bounds of the calls. Each call still draws
    its entries, so the other trials see the rng as they would unpatched.
    """
    bounds = []
    draw = ginreg._random_upper_unitriangular

    def patched(indices, rng, bound):
        bounds.append(bound)
        g = draw(indices, rng, bound)
        if identity(len(bounds) - 1):
            return [[int(a == b) for b in range(len(indices))] for a in range(len(indices))]
        return g

    monkeypatch.setattr(ginreg, "_random_upper_unitriangular", patched)
    return bounds


@pytest.fixture
def squares():
    # in(x^2, y^2) is (x^2, y^2), not Borel-fixed, so an unchanged trial
    # disagrees with the generic ones
    A = graded_ring(["x", "y"])
    return Ideal(A, [parse_polynomial("x^2", A), parse_polynomial("y^2", A)])


def test_one_identity_trial_among_three_raises(monkeypatch, squares):
    generic = generic_initial_ideal(squares)
    assert generic.entry_bound == 100 and generic.generators() == [(0, 3), (1, 1), (2, 0)]
    # one block, so call k is trial k
    bounds = _identity_on_calls(monkeypatch, lambda k: k == 1)
    with pytest.raises(GinError, match="trials 1 disagree with trial 0 at seed 0"):
        generic_initial_ideal(squares)
    assert bounds == [100] * 3


def test_error_bound_of_the_twisted_cubic(twisted_cubic):
    # D = 2 and dim I_2 = 3: eps = 2 * 3 / 201 = 2/67 per trial
    out = generic_initial_ideal(twisted_cubic, seed=7)
    assert out.error_bound == Fraction(2, 67) ** 3 and out.to_json()["error_bound"] == "8/300763"
    assert generic_initial_ideal(twisted_cubic, trials=1, seed=7).error_bound == Fraction(2, 67)
    # not proved under lex, nor in a bigraded ring; the zero ideal's gin is certain
    assert generic_initial_ideal(twisted_cubic, order=LEX, seed=7).error_bound is None
    S = RingSpec(QQ, ("X1", "X2", "Y1", "Y2"), ((1, 0), (1, 0), (0, 1), (0, 1)), DEGREVLEX)
    assert generic_initial_ideal(Ideal(S, [parse_polynomial("X1*Y1", S)]), seed=7).error_bound is None
    assert generic_initial_ideal(Ideal(twisted_cubic.ring, [])).error_bound == 0


def _every_draw(k, bound):
    """Every upper-unitriangular k x k matrix with entries in [-bound, bound]."""
    cells = [(a, b) for a in range(k) for b in range(a + 1, k)]
    for entries in itertools.product(range(-bound, bound + 1), repeat=len(cells)):
        g = [[int(a == b) for b in range(k)] for a in range(k)]
        for (a, b), e in zip(cells, entries):
            g[a][b] = e
        yield g


@pytest.mark.parametrize("names, gens, bound", [
    (["x", "y"], ["x^2", "y^2"], 8),
    (["x", "y", "z"], ["y*z", "z^2"], 2),
], ids=["squares", "z(y,z)"])
def test_bad_draws_are_no_more_than_the_stated_bound(monkeypatch, names, gens, bound):
    A = graded_ring(names)
    I = Ideal(A, [parse_polynomial(g, A) for g in gens])
    gin = generic_initial_ideal(I).generators()
    monkeypatch.setattr(ginreg, "_ENTRY_BOUND", bound)
    draws = list(_every_draw(len(names), bound))
    drawn = []    # (the bound asked for, the draw handed out) of each call
    feed = iter(draws)
    monkeypatch.setattr(ginreg, "_random_upper_unitriangular",
                        lambda indices, rng, b: drawn.append((b, next(feed))) or drawn[-1][1])
    bad, bounds = 0, set()
    for g in draws:
        try:
            out = generic_initial_ideal(Ideal(A, I.gens), trials=1)
        except GinError:
            bad += 1
            continue
        if out.generators() == gin:
            bounds.add(out.error_bound)
        else:
            bad += 1
    assert drawn == [(bound, g) for g in draws]
    # every draw that attains gin states the one per-trial eps, and eps < 1 here
    (eps,) = bounds
    assert 0 < bad and Fraction(bad, len(draws)) <= eps < 1


def test_lex_and_deglex_skips_match_the_route_with_no_skip(monkeypatch, twisted_cubic, symmetric_minors):
    # a standard graded ring has sugar = degree under every order, so the Hilbert skip runs under lex too
    Q = graded_ring(["x0", "x1", "x2", "x3", "x4"])
    quartic = Ideal(Q, [parse_polynomial(g, Q) for g in ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x0*x4 - x1*x3",
                                                          "x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2")])
    cases = [twisted_cubic, ideal_power(twisted_cubic, 2), quartic, symmetric_minors]
    skips = []
    packed_run = ginreg._packed_run
    monkeypatch.setattr(ginreg, "_packed_run", lambda *args: skips.append(args[-1]) or packed_run(*args))
    for k, I in enumerate(cases):
        H = hilbert_series_ideal(I)
        assert groebner._hilbert_skip(I.ring, H, True) is not None
        for order in (LEX, DEGLEX):
            skipped = initial_monomials(Ideal(I.ring, I.gens), order, series=H)
            assert skipped == initial_monomials(Ideal(I.ring, I.gens), order)
            del skips[:]
            gin = generic_initial_ideal(I, order=order, seed=9100 + k).to_json()
            assert len(skips) == 3 and all(skip is not None for skip in skips)
            with monkeypatch.context() as m:
                m.setattr(ginreg, "_hilbert_skip", lambda *args: None)
                del skips[:]
                assert generic_initial_ideal(I, order=order, seed=9100 + k).to_json() == gin
                assert skips == [None] * 3
