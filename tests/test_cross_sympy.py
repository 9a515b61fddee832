"""Cross-validation of the Groebner engine against an independent implementation.

Skipped when sympy is not installed; it is a test-only oracle, not a
dependency of the package.
"""

import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from reeslab import Ideal, PrimeField, QQ, eliminate, graded_ring, groebner_basis, normal_form, parse_polynomial
from reeslab import groebner
from reeslab.rings import DEGLEX, DEGREVLEX, LEX, MonomialPacking, Polynomial


def _to_sympy(f, symbols):
    expr = 0
    for mono, coeff in f.terms:
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for s, e in zip(symbols, mono):
            if e:
                term *= s ** e
        expr += term
    return expr


def _leading_sets_match(gb, sympy_gb, symbols, order):
    ours = sorted(gb.leading_monomials)
    theirs = []
    for g in sympy_gb.exprs:
        poly = sympy.Poly(g, *symbols)
        theirs.append(tuple(int(e) for e in poly.LM(order=order).exponents))
    return ours == sorted(theirs)


@pytest.mark.parametrize("seed", range(8))
def test_random_groebner_bases_match(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(2, 3)
    names = ["x%d" % i for i in range(n)]
    ring = graded_ring(names, order=LEX)
    symbols = sympy.symbols(names)

    gens = []
    for _ in range(rng.randint(1, 3)):
        coeffs = {}
        for _ in range(rng.randint(1, 4)):
            mono = tuple(rng.randint(0, 2) for _ in range(n))
            coeffs[mono] = QQ.coerce(rng.randint(-6, 6))
        f = Polynomial(ring, {m: c for m, c in coeffs.items() if c})
        if f:
            gens.append(f)
    if not gens:
        pytest.skip("empty sample")
    I = Ideal(ring, gens)
    gb = groebner_basis(I)
    sympy_gb = sympy.groebner([_to_sympy(g, symbols) for g in gens], *symbols, order="lex")
    assert _leading_sets_match(gb, sympy_gb, symbols, "lex")
    # reduced bases are unique up to normalization: compare the full sets
    ours = {tuple(sorted(g.terms)) for g in gb.polys}
    theirs = set()
    for g in sympy_gb.exprs:
        poly = sympy.Poly(g, *symbols)
        lc = poly.LC(order="lex")
        items = []
        for mono, c in poly.terms(order="lex"):
            q = sympy.Rational(c, lc)
            items.append((tuple(int(e) for e in mono), QQ.coerce("%s/%s" % (q.p, q.q))))
        theirs.add(tuple(sorted(items)))
    assert ours == theirs


def test_twisted_cubic_matches_sympy(twisted_cubic):
    ring = twisted_cubic.ring.with_order(LEX)
    gens = [Polynomial(ring, dict(g.terms)) for g in twisted_cubic.gens]
    I = Ideal(ring, gens)
    gb = groebner_basis(I)
    symbols = sympy.symbols(list(ring.names))
    sympy_gb = sympy.groebner([_to_sympy(g, symbols) for g in gens], *symbols, order="lex")
    assert _leading_sets_match(gb, sympy_gb, symbols, "lex")


@pytest.mark.parametrize("order", ["lex", "grevlex"])
@pytest.mark.parametrize("seed", range(10))
def test_normal_forms_match_sympy_reduce(seed, order):
    rng = random.Random(2000 + seed)
    names = ["x0", "x1", "x2"]
    ring = graded_ring(names, order=LEX if order == "lex" else DEGREVLEX)
    symbols = sympy.symbols(names)

    def sample(terms, degree):
        coeffs = {}
        for _ in range(terms):
            mono = tuple(rng.randint(0, degree) for _ in range(3))
            coeffs[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        return Polynomial(ring, {m: c for m, c in coeffs.items() if c})

    gens = [g for g in (sample(rng.randint(2, 3), 2) for _ in range(rng.randint(1, 3))) if g]
    f = sample(6, 3)
    if not gens:
        pytest.skip("empty sample")
    ours = normal_form(f, groebner_basis(Ideal(ring, gens)))
    sympy_gb = sympy.groebner([_to_sympy(g, symbols) for g in gens], *symbols, order=order, domain="QQ")
    _, theirs = sympy_gb.reduce(_to_sympy(f, symbols))
    assert sympy.expand(_to_sympy(ours, symbols) - theirs) == 0


def _sample_ideal(rng, ring, gens, terms, degree):
    n = ring.nvars
    out = []
    for _ in range(gens):
        coeffs = {}
        for _ in range(terms):
            mono = tuple(rng.randint(0, degree) for _ in range(n))
            coeffs[mono] = ring.field.coerce(rng.randint(-6, 6))
        f = Polynomial(ring, {m: c for m, c in coeffs.items() if c})
        if f:
            out.append(f)
    return out


def _to_sympy_any(f, symbols):
    """f as a sympy expression over Z: F_p coefficients as their integer representatives."""
    expr = 0
    for mono, coeff in f.terms:
        term = sympy.Rational(coeff.numerator, coeff.denominator) if isinstance(coeff, Fraction) else coeff
        for s, e in zip(symbols, mono):
            term *= s ** e
        expr += term
    return expr


def _sympy_reduced(exprs, symbols, order, char):
    """Reduced basis as a set of monic term tuples {(monomial, coefficient), ...}."""
    opts = {"modulus": char} if char else {"domain": "QQ"}
    gb = sympy.groebner(exprs, *symbols, order=order, **opts)
    out = set()
    for g in gb.exprs:
        poly = sympy.Poly(g, *symbols, **opts)
        terms = poly.terms(order=order)
        lc = terms[0][1]
        if char:
            inv = pow(int(lc) % char, -1, char)
            out.add(tuple(sorted((m, int(c) * inv % char) for m, c in terms)))
        else:
            out.add(tuple(sorted((m, Fraction(int((c / lc).p), int((c / lc).q))) for m, c in terms)))
    return out


_FIELDS = [QQ, PrimeField(32003)]


@pytest.mark.parametrize("field", _FIELDS, ids=["Q", "F32003"])
@pytest.mark.parametrize("order", ["grlex", "grevlex"])
@pytest.mark.parametrize("seed", range(4))
def test_bases_in_four_and_five_variables_match(seed, order, field):
    rng = random.Random(3000 + seed)
    names = ["x%d" % i for i in range(4 + seed % 2)]
    ring = graded_ring(names, field=field, order=DEGLEX if order == "grlex" else DEGREVLEX)
    symbols = sympy.symbols(names)
    gens = _sample_ideal(rng, ring, 3, 3, 2)
    ours = {tuple(sorted(g.terms)) for g in groebner_basis(Ideal(ring, gens)).polys}
    assert ours == _sympy_reduced([_to_sympy_any(g, symbols) for g in gens], symbols, order, field.char)


@pytest.mark.parametrize("field", _FIELDS, ids=["Q", "F32003"])
@pytest.mark.parametrize("seed", range(4))
def test_eliminate_matches_sympy_lex_elimination(seed, field):
    # the implicit equations of a random parametrization x_i = c_i * t^a_i + d_i * t^b_i
    rng = random.Random(4000 + seed)
    k = 1 + seed % 2
    names = ["t%d" % i for i in range(k)] + ["x0", "x1", "x2"]
    ring = graded_ring(names, field=field)
    symbols = sympy.symbols(names)
    ts, rest = symbols[:k], symbols[k:]

    def term(bound):
        return sympy.Mul(*(t ** rng.randint(0, bound) for t in ts))

    params = [x - rng.randint(1, 5) * term(2) - rng.randint(-3, 3) * term(1) for x in rest]
    gens = [parse_polynomial(str(sympy.expand(p)).replace("**", "^"), ring) for p in params]
    ours = eliminate(Ideal(ring, gens), range(k))
    opts = {"modulus": field.char} if field.char else {"domain": "QQ"}
    full = sympy.groebner(params, *symbols, order="lex", **opts)
    theirs = [g for g in full.exprs if not g.free_symbols & set(ts)]
    mine = [_to_sympy_any(g, rest) for g in ours.gens]
    assert theirs
    assert _sympy_reduced(mine, rest, "lex", field.char) == _sympy_reduced(theirs, rest, "lex", field.char)


@pytest.mark.parametrize("field", _FIELDS, ids=["Q", "F32003"])
def test_lcm_past_the_ordered_fields_widens_them(monkeypatch, field):
    # the leads x^4*y and x*y^4 fit 4-bit fields, and so do the exponents of
    # their lcm; its degree 8 does not, so the first overflow comes from
    # packing that lcm by the term order
    widths = []
    widened = MonomialPacking.widened
    monkeypatch.setattr(MonomialPacking, "widened", lambda P: widths.append(P.width) or widened(P))
    monkeypatch.setattr(groebner, "_fitting", lambda nvars, monomials, order: MonomialPacking(nvars, 4, order))
    names = ["x", "y", "z", "w"]
    ring = graded_ring(names, field=field)
    symbols = sympy.symbols(names)
    gens = [parse_polynomial(t, ring) for t in ("x^4*y - 2*z^5", "x*y^4 + 3*w^5")]
    ours = {tuple(sorted(g.terms)) for g in groebner_basis(Ideal(ring, gens)).polys}
    assert widths == [4]
    assert ours == _sympy_reduced([_to_sympy_any(g, symbols) for g in gens], symbols, "grevlex", field.char)


def _quartic_square():
    A = graded_ring(["x0", "x1", "x2", "x3", "x4"])
    gens = ("x0*x2 - x1^2", "x0*x3 - x1*x2", "x0*x4 - x1*x3",
            "x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2")
    return groebner.ideal_power(Ideal(A, [parse_polynomial(g, A) for g in gens]), 2)


@pytest.mark.parametrize("case", ["quartic_square", "twisted_cubic_rees"])
def test_koszul_table_entries_are_sympy_remainders(case, request):
    # every entry of the Koszul normal-form table against sympy's remainder
    # modulo its own grevlex basis, with the denominators cleared
    from math import gcd

    from reeslab.betti import _QuotientPieces

    I, window = {
        "quartic_square": lambda: (_quartic_square(), (5, 0)),
        "twisted_cubic_rees": lambda: (request.getfixturevalue("twisted_cubic_rees").defining_ideal, (5, 2)),
    }[case]()
    ring = I.ring
    symbols = sympy.symbols(ring.names)
    G = sympy.groebner([_to_sympy(g, symbols) for g in I.gens], *symbols, order="grevlex")
    pieces = _QuotientPieces(I)
    checked = 0
    for a in range(window[0] + 1):
        for b in range(window[1] + 1):
            for m in pieces.basis((a, b)):
                for i in range(ring.nvars):
                    prod = tuple(e + (j == i) for j, e in enumerate(m))
                    if not pieces.gb.contains_monomial(prod):
                        continue
                    pairs, den = pieces.multiply(i, m)
                    assert den > 0 and gcd(den, *(k for _, k in pairs)) == 1
                    _, rem = G.reduce(sympy.prod(s ** e for s, e in zip(symbols, prod)))
                    rem = sympy.Poly(rem * den, *symbols)
                    assert dict(pairs) == {tuple(e): int(c) for e, c in rem.terms()}
                    checked += 1
    assert checked


def test_reducer_memo_keeps_the_reduced_bases_of_sympy(monkeypatch):
    # on inhomogeneous ideals new leads push old elements out of G while the
    # memo still hands them to normal forms; the reduced bases must stay
    # sympy's over Q and over F_32003, with the same leads
    runs = []    # per Buchberger run: its memo and the basis it returned
    normal_form_int, buchberger = groebner._normal_form_int, groebner._buchberger

    def captured_nf(f, reducers, guard, char, memo=None, *args):
        if memo is not None:
            runs[-1][0] = memo
        return normal_form_int(f, reducers, guard, char, memo, *args)

    def captured_run(*args):
        runs.append([None, None])
        runs[-1][1] = buchberger(*args)
        return runs[-1][1]

    monkeypatch.setattr(groebner, "_normal_form_int", captured_nf)
    monkeypatch.setattr(groebner, "_buchberger", captured_run)
    stale = 0
    for seed in (4, 7):
        names = ["x%d" % i for i in range(4 + seed % 2)]
        symbols = sympy.symbols(names)
        leads = []
        for field in _FIELDS:
            ring = graded_ring(names, field=field)
            gens = _sample_ideal(random.Random(5100 + seed), ring, 3, 3, 2)
            gb = groebner_basis(Ideal(ring, gens))
            ours = {tuple(sorted(g.terms)) for g in gb.polys}
            assert ours == _sympy_reduced([_to_sympy_any(g, symbols) for g in gens], symbols, "grevlex", field.char)
            leads.append(gb.leading_monomials)
            memo, result = runs[-1]
            stale += sum(all(t is not u for u in result) for t in memo.values())
        assert leads[0] == leads[1], seed
    # the memo did hand out reducers outside the returned basis
    assert stale > 10


@pytest.mark.parametrize("field", _FIELDS, ids=["Q", "F32003"])
@pytest.mark.parametrize("seed, order", [(0, "lex"), (1, "grlex")])
def test_top_reduced_runs_keep_the_reduced_bases_of_sympy(monkeypatch, seed, order, field):
    # Buchberger's pair loop leaves tails that a lead divides; autoreduction
    # must still reach sympy's reduced basis
    raw = []
    packed_run = groebner._packed_run

    def captured(*args):
        P, triples = packed_run(*args)
        raw.append((P, triples))
        return P, triples

    monkeypatch.setattr(groebner, "_packed_run", captured)
    names = ["x%d" % i for i in range(4)]
    symbols = sympy.symbols(names)
    ring = graded_ring(names, field=field, order=LEX if order == "lex" else DEGLEX)
    gens = _sample_ideal(random.Random(5300 + seed), ring, 3, 3, 2)
    gb = groebner_basis(Ideal(ring, gens))
    assert {tuple(sorted(g.terms)) for g in gb.polys} == _sympy_reduced(
        [_to_sympy_any(g, symbols) for g in gens], symbols, order, field.char)
    (P, triples), = raw
    leads = [lm for lm, _, _ in triples]
    assert any(P.divides(lm, m) for _, _, tail in triples for m in tail for lm in leads)
