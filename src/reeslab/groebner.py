"""Buchberger engine and ideal arithmetic: normal forms, initial ideals, powers, colons, elimination."""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import itemgetter

from .rings import (
    MonomialPacking,
    PackingOverflow,
    Polynomial,
    RingError,
    RingSpec,
    TermOrder,
    elimination_order,
)

# ---------------------------------------------------------------------------
# internal integer polynomials: dict mono -> int.
# Over Q the representative is primitive (content 1, positive lead); over
# F_p a stored coefficient lies in [0, p), and _normal_form_int reduces the
# ints it is handed as it reads them. Inside the kernel every monomial is an
# int of a MonomialPacking for the term order, so the larger int is the
# larger monomial, a product is a sum and u | m is one subtraction against
# the guard bits. A product whose guard bits are not clear overflowed a field
# and raises PackingOverflow. A polynomial that others are reduced against is
# split once into its triple (lm, lc, tail): leading monomial, leading
# coefficient and a dict of the other terms, which nobody mutates.

_STRIP_BITS = 512


def _to_int_poly(f):
    """Integer dict of a Polynomial and the integer its coefficients were scaled by (1 over F_p)."""
    den = lcm(*(c.denominator for _, c in f.terms))
    return {m: c.numerator * (den // c.denominator) for m, c in f.terms}, den


def _pack_poly(d, P):
    return {P.pack(m): c for m, c in d.items()}


def _from_int_poly(ring, d, den, P):
    """The Polynomial of the packed integer dict d divided by den (1 over F_p).

    Where P packs by the ring's order, int order is term order, so the terms
    are sorted as the ints they already are, with no second packing.
    """
    if P.order != ring.order:
        return Polynomial(ring, {P.unpack(m): Fraction(c, den) for m, c in d.items()})
    char = ring.field.char
    ms = sorted(d, reverse=True)
    if char:
        terms = [(P.unpack(m), v) for m in ms if (v := d[m] % char)]
    else:
        terms = [(P.unpack(m), Fraction(d[m], den)) for m in ms]
    return Polynomial._from_terms(ring, tuple(terms))


def _times(f, g, char):
    """Product of two packed integer dicts; the caller's fields must hold it."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            k = m1 + m2
            out[k] = out.get(k, 0) + c1 * c2
    if char:
        return {m: c % char for m, c in out.items() if c % char}
    return {m: c for m, c in out.items() if c}


def _normal_form_int(f, reducers, guard, char, memo=None, top=False):
    """Normal form of the packed dict-poly f against reducer triples; f is consumed.

    Returns the triple (lead, lc, tail) of scale * NF(f), the form it takes
    its reducers in, or None when NF(f) is zero: over Q primitive with lc >
    0, scale the rational the reduction multiplied by and divided out, and
    over F_p scale = 1. Only _exact_normal_form reads scale, off a marker
    term. Raises PackingOverflow when a product would not fit the fields.

    Over F_p f may hold any ints, and the loop subtracts without reducing:
    a coefficient is reduced mod p when its term leaves f, and the returned
    tail once, so the triple lies in [0, p), as each reducer's must.

    The normal form is full: no term of the result is divisible by a
    reducer's lead. With top, the reduction stops at the first term it keeps
    (top-reduction): the result is scale times that lead and the rest of f
    as the reduction left it, and only its lead is irreducible.

    memo, when given, maps a packed monomial to a triple whose lead divides
    it, and is consulted before the reducers and filled with each reducer
    found. Its triples need not be among the reducers, only in the ideal; a
    term not in it is scanned against the reducers, so every term the
    reduction keeps is irreducible by them.

    VectorSpan runs its row reductions here with no reducers, guard 0 and
    top: its memo is its pivot table, keyed by negated int columns, so every
    hit is an exact pivot (u = 0) and the first term the table lacks stops
    the reduction as the new row's pivot.
    """
    if memo is None:
        memo = {}
    rem = {}
    lead = None
    steps = 0
    # the work terms, negated: the heap pops the largest monomial first. A
    # term enters the heap when it enters f; an entry whose term has left f
    # since is skipped.
    heap = [-m for m in f]
    heapify(heap)
    while heap:
        m = -heappop(heap)
        c = f.pop(m, 0)
        if char:
            c %= char
        if not c:
            continue
        hit = memo.get(m)
        if hit is None:
            mg = m | guard
            for hit in reducers:
                if (mg - hit[0]) & guard == guard:
                    break
            else:
                # terms leave f in decreasing order, so the first one kept leads
                if top:
                    # rem is empty, and every term left in f lies below m
                    f[m] = c
                    rem, lead = f, m
                    break
                rem[m] = c
                if lead is None:
                    lead = m
                continue
            memo[m] = hit
        lm, lc, tail = hit
        u = m - lm
        # f := a*f - b*(m/lm)*hit, which cancels the term m
        if char:
            b = c * pow(lc, -1, char) % char
        else:
            g = gcd(c, lc)
            a, b = lc // g, c // g
            if a != 1:
                for k in f:
                    f[k] *= a
                for k in rem:
                    rem[k] *= a
        for mt, ct in tail.items():
            k = mt + u
            v = f.get(k)
            if v is None:
                if k & guard:
                    raise PackingOverflow("a product overflows the packed fields")
                f[k] = -b * ct
                heappush(heap, -k)
            else:
                v -= b * ct
                if v:
                    f[k] = v
                else:
                    del f[k]
        if not char:
            steps += 1
            if steps % 16 == 0 and f and max(abs(x) for x in f.values()).bit_length() > _STRIP_BITS:
                g = gcd(*f.values(), *rem.values())
                if g > 1:
                    for k in f:
                        f[k] //= g
                    for k in rem:
                        rem[k] //= g
    if lead is None:
        return None
    if char:
        # with top, the tail is what the reduction left of f, unreduced
        rem = {k: v for k, c in rem.items() if (v := c % char)}
    else:
        g = gcd(*rem.values())
        if rem[lead] < 0:
            g = -g
        if g != 1:
            for k in rem:
                rem[k] //= g
    return lead, rem.pop(lead), rem


def _spoly(ti, tj, L, guard, char):
    """S-polynomial of two triples whose leading monomials have the lcm L; over F_p its coefficients are unreduced."""
    lmi, ci, fi = ti
    lmj, cj, fj = tj
    ui, uj = L - lmi, L - lmj
    if char:
        ai, aj = cj * pow(ci, -1, char) % char, 1
    else:
        g = gcd(ci, cj)
        ai, aj = cj // g, ci // g
    out = {m + ui: c * ai for m, c in fi.items()}
    for m, c in fj.items():
        k = m + uj
        v = out.get(k, 0) - c * aj
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    if any(k & guard for k in out):
        raise PackingOverflow("a product overflows the packed fields")
    return out


def _buchberger(seqs, P, char, missing_leads=None):
    """Groebner basis of the packed dict-polys in seqs with minimal leads, as triples sorted by lm.

    Normal-pair selection on a (sugar, lcm) key with the Gebauer-Moeller
    update criteria; fraction-free arithmetic over Q. The criteria compare
    the lcms of leading monomials packed without an order, where an lcm is a
    fieldwise max; only a pair that survives them gets its lcm packed by P.
    Each pair is keyed once, when it is formed, and waits on a heap; a pair
    the criteria drop later stays on the heap and is skipped when it comes
    up. Raises PackingOverflow when a monomial does not fit the fields of P.

    Criterion M keeps one pair with h per minimal colon lcm(h, g)/h
    (_criterion_m). The normal forms of one run share a memo of the reducer
    found for each monomial: every triple the run accepts lies in the ideal,
    so it stays a valid reducer after it leaves G.

    No pair of two terms (triples with empty tails) is formed: its
    S-polynomial is 0, so it counts as treated, and the chain criterion,
    which drops a pair only when the pairs through a third element are
    treated, stays valid. Where h and every element of G are terms, update
    forms no pair at all and skips the criteria's pair selection.

    Each generator and S-polynomial is only top-reduced: its reduction stops
    at the first term no lead of G divides, and keeps the rest of its tail
    unreduced, since the criteria and the leads read only leading monomials
    (Becker-Weispfenning, Groebner Bases, 1993, 5.5). The triples of G,
    which the reductions scan, are a list that update keeps beside G.

    The leading monomials of the result divide none of each other; the tails
    are left as the pair loop made them, and _autoreduce reduces each of
    them once.

    missing_leads(d, leads), when given, counts the leading monomials of
    degree d that the exponent tuples leads lack against the ideal's known
    Hilbert function; the caller passes it only where the sugar of a pair is
    its degree (Traverso, J. Symbolic Comput. 22, 1996). Pairs come up in
    increasing degree, and each new lead of degree d removes one missing
    lead, so once none is missing the rest of degree d's pairs reduce to
    zero and are dropped. Once degree d's pairs have run, the leads of
    degree d are complete, so a count other than zero then means the
    Hilbert function is not the ideal's, and raises.
    """
    guard = P.guard
    # every exponent is at most the total degree, a field of P, so the plain
    # packing with P's width holds each leading monomial and each lcm of two
    Q = MonomialPacking(P.nvars, P.width)
    qguard = Q.guard
    triples = []    # all accepted intermediates; index-addressed
    lms = []
    plain = []      # the leading monomials packed by Q
    sugars = []
    G = set()
    reducers = []   # the triples of G
    tailed = 0      # the elements of G with a tail
    B = {}          # pending pair (i, j) -> plain lcm of the leading monomials
    heap = []       # (sugar, lcm, i, j) of every pair formed

    def add_poly(t, sugar):
        triples.append(t)
        lms.append(t[0])
        plain.append(Q.pack(P.unpack(t[0])))
        sugars.append(sugar)
        return len(triples) - 1

    def update(h):
        # [Becker-Weispfenning p.230] Gebauer-Moeller update of (G, B) by h.
        nonlocal tailed
        mh, ph = lms[h], plain[h]
        term = not triples[h][2]
        # where h and every element of G are terms, no pair is formed
        C = sorted(G) if tailed or not term else []
        D = _criterion_m(ph, [(g, plain[g]) for g in C], Q)
        lcm_h = dict(D)

        def lcm_with(k):
            L = lcm_h.get(k)
            if L is None:
                L = lcm_h[k] = Q.lcm(ph, plain[k])
            return L

        for (i, j), L in list(B.items()):
            if (
                ((L | qguard) - ph) & qguard == qguard
                and lcm_with(i) != L
                and lcm_with(j) != L
            ):
                del B[(i, j)]
        degree_h = P.degree(mh)
        for g, L in D:
            if ph + plain[g] != L and (triples[g][2] or not term):
                # the product criterion drops the pairs with disjoint leading
                # monomials, and the S-polynomial of two terms is 0
                B[(h, g)] = L
                # the lcm packed by P keys the heap and builds the S-polynomial
                L = P.pack(Q.unpack(L))
                degree_L = P.degree(L)
                sugar = max(sugars[h] + degree_L - degree_h, sugars[g] + degree_L - P.degree(lms[g]))
                heappush(heap, (sugar, L, h, g))
        dropped = [g for g in G if ((lms[g] | guard) - mh) & guard == guard]
        if dropped:
            G.difference_update(dropped)
            tailed -= sum(1 for g in dropped if triples[g][2])
            reducers[:] = [triples[g] for g in G]
        G.add(h)
        reducers.append(triples[h])
        if not term:
            tailed += 1

    memo = {}    # packed monomial -> a triple whose lead divides it
    for f in seqs:
        if not f:
            continue
        t = _normal_form_int(f, reducers, guard, char, memo, True)
        if t is not None:
            update(add_poly(t, max(map(P.degree, (t[0], *t[2])))))

    degree = missing = None    # the degree of the pairs coming up, and its missing leads
    while heap:
        sugar, L, i, j = heappop(heap)
        if B.pop((i, j), None) is None:
            continue
        if missing_leads is not None and sugar != degree:
            _check_missing(degree, missing)
            degree = sugar
            missing = missing_leads(degree, [P.unpack(lms[g]) for g in G])
        if missing == 0:
            continue
        s = _spoly(triples[i], triples[j], L, guard, char)
        t = _normal_form_int(s, reducers, guard, char, memo, True)
        if t is not None:
            update(add_poly(t, sugar))
            if missing is not None:
                missing -= 1
    _check_missing(degree, missing)
    # each element's lead is irreducible by G when it enters, and update
    # drops the elements whose leading monomials it divides
    return sorted(reducers, key=itemgetter(0))


def _criterion_m(ph, leads, Q):
    """(g, lcm(h, g)) for each g whose pair with h survives criterion M.

    leads are the (g, leading monomial) of the update, in its order; h's
    leading monomial ph and the leads are packed by the plain packing Q.
    lcm(h, p) divides lcm(h, g) exactly when the colon q_p = lcm(h, p)/h
    divides q_g, so one g is kept per minimal colon: of equal colons, the
    last. A divisor is never the larger int, so one pass in increasing order
    tests each colon against the minimal ones before it.
    """
    last = {}
    for g, pg in leads:
        L = Q.lcm(ph, pg)
        last[L - ph] = (g, L)
    qguard = Q.guard
    kept = []
    for q in sorted(last):
        qg = q | qguard
        for k in kept:
            if (qg - k) & qguard == qguard:
                break
        else:
            kept.append(q)
    return [last[q] for q in kept]


def _check_missing(degree, missing):
    if missing:
        raise RingError("internal error: the leading monomials of degree %d differ from the Hilbert "
                        "function by %d" % (degree, missing))


def _autoreduce(triples, guard, char):
    """The reduced basis of a minimal-lead basis, triples sorted by lm; the input is left as it is.

    Autoreduction in one pass. The leading monomials divide none of each
    other, so only tails change. A leading monomial that divides a term is
    at most that term, so in increasing lead order a tail needs only the
    elements before it.
    """
    final = list(triples)
    for i, (lm, lc, tail) in enumerate(final):
        final[i] = _normal_form_int({lm: lc, **tail}, final[:i], guard, char)
    return final


def _fitting(nvars, monomials, order):
    """Packing with room for a product of two of the monomials."""
    return MonomialPacking.fitting(nvars, 2 * max(map(sum, monomials), default=1), order)


def _repacked_poly(d, P, W):
    return {W.pack(P.unpack(m)): c for m, c in d.items()}


def _repacked_triple(t, P, W):
    lm, lc, tail = t
    return W.pack(P.unpack(lm)), lc, _repacked_poly(tail, P, W)


def _widening(P, items, repack, run):
    """(P, items, run(P, items)) on items packed by P; an overflow widens P and repacks each by repack(x, P, W)."""
    while True:
        try:
            return P, items, run(P, items)
        except PackingOverflow:
            W = P.widened()
            P, items = W, [repack(x, P, W) for x in items]


def _on_basis(G, run):
    """(P, run(P, triples)) on the triples of the GroebnerBasis G, packed by P; an overflow widens G for good."""
    G._P, G._triples, out = _widening(G._P, G._triples, _repacked_triple, run)
    return G._P, out


def _exact_normal_form(G, d):
    """(P, scale, rem) with rem = scale * NF(d) packed by P, for an integer dict d of exponent tuples.

    scale is read off a marker term: the kernel gets d plus 1 at the key
    1 << P.guard.bit_length(), above every field, which it takes first, which
    only the unit ideal's lead 0 divides and which no reduction produces. It
    returns (marker, scale, rem), scale a positive int (1 over F_p); None
    means the unit ideal, where NF(d) = 0 and scale is 1.
    """
    def run(P, triples):
        f = _pack_poly(d, P)
        f[1 << P.guard.bit_length()] = 1
        return _normal_form_int(f, triples, P.guard, G.ring.field.char)

    P, t = _on_basis(G, run)
    return (P, 1, {}) if t is None else (P, t[1], t[2])


def _sugar_is_degree(ring):
    """A standard graded ring: under any order, the sugar of a pair of homogeneous polynomials is its degree."""
    return all(d == (1, 0) for d in ring.degrees)


def _hilbert_skip(ring, series, homogeneous):
    """missing_leads for _buchberger from the series of ring/(generators), or None where it does not apply.

    It applies to homogeneous generators where the sugar is the degree.
    """
    if series is None or not homogeneous or not _sugar_is_degree(ring):
        return None
    from .hilbert import HilbertSeriesRational, _minimal_numerator

    def missing_leads(d, leads):
        # the leads of G divide none of each other: update drops each one a new lead divides
        have = HilbertSeriesRational.make(_minimal_numerator(ring, leads), ring.degrees)
        return have.coefficient(d) - series.coefficient(d)

    return missing_leads


def _packed_run(ring, P, packed, missing_leads):
    """(P, triples) of one Buchberger run on copies of the dicts packed by P; an overflow widens P.

    The dicts come packed from _basis, as an ideal's gens or power products, or from a gin trial.
    """
    char = ring.field.char
    P, _, triples = _widening(
        P, packed, _repacked_poly, lambda P, packed: _buchberger([dict(d) for d in packed], P, char, missing_leads))
    return P, triples


def _int_generators(I):
    """An integer dict of exponent tuples per generator of I, a nonzero multiple of it; a power's off its products."""
    if I._packed is not None:
        P, products, _ = I._packed
        return [{P.unpack(m): c for m, c in d.items()} for d in products]
    return [_to_int_poly(g)[0] for g in I.gens]


def _top_degree(I):
    """The largest total degree of a term of a generator of I; a power's read off its packed products."""
    if I._packed is not None:
        P, products, _ = I._packed
        return max(P.degree(m) for d in products for m in d)
    return max(sum(m) for g in I.gens for m, _ in g.terms)


def _basis(I, order, series=None):
    """The GroebnerBasis of I for the order, from the ideal's cache or from one Buchberger run.

    The run takes the products ideal_power packed for this order, where there
    are any, and otherwise _int_generators(I) packed by the order, sized by
    _fitting. The run copies what it takes, so the products stay the ideal's.
    """
    G = I._bases.get(order)
    if G is None:
        if I._packed is not None and I._packed[0].order == order:
            P, packed, _ = I._packed
        else:
            ints = _int_generators(I)
            P = _fitting(I.ring.nvars, (m for d in ints for m in d), order)
            packed = [_pack_poly(d, P) for d in ints]
        homogeneous = series is not None and I.is_homogeneous()
        P, triples = _packed_run(I.ring, P, packed, _hilbert_skip(I.ring, series, homogeneous))
        G = I._bases[order] = GroebnerBasis(I.ring, order, P, triples)
    return G


# ---------------------------------------------------------------------------
# public layer

class GroebnerBasis:
    """Groebner basis of an ideal for one order; one object per (ideal, order), kept on the ideal.

    It holds Buchberger's integer triples (lm, lc, tail), sorted by lm and
    packed by _P, as _on_basis reads them. leading_monomials, the minimal
    generators of the initial ideal as exponent tuples, are read off the
    leads on first request. _reduce autoreduces the triples in place on its
    first call: the leads stay, and the triples stay a basis. polys, the
    reduced basis as monic polynomials sorted by leading monomial, reduces
    and converts on first request, and not before. reduced says that the
    triples are reduced already, as eliminate's are.
    """

    __slots__ = ("ring", "order", "_P", "_triples", "_leads", "_reduced", "_polys")

    def __init__(self, ring, order, P, triples, reduced=False):
        self.ring, self.order = ring, order
        self._P, self._triples = P, triples
        self._leads = self._polys = None
        self._reduced = reduced

    @property
    def leading_monomials(self):
        if self._leads is None:
            self._leads = frozenset(map(self._P.unpack, map(itemgetter(0), self._triples)))
        return self._leads

    def _reduce(self):
        """Autoreduce the triples in place, once; return the basis."""
        if not self._reduced:
            char = self.ring.field.char
            self._triples = _on_basis(self, lambda P, triples: _autoreduce(triples, P.guard, char))[1]
            self._reduced = True
        return self

    @property
    def polys(self):
        if self._polys is None:
            ring = self.ring
            char = ring.field.char
            P = self._reduce()._P
            polys = []
            for lm, lc, tail in self._triples:
                # monic: over F_p times the inverse of lc, over Q over lc
                inv, den = (pow(lc, -1, char), 1) if char else (1, lc)
                d = {m: c * inv for m, c in tail.items()}
                d[lm] = lc * inv
                polys.append(_from_int_poly(ring, d, den, P))
            self._polys = tuple(polys)
        return self._polys

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self._triples)


class Ideal:
    """An ideal given by generators, with a per-order cache of its Buchberger basis.

    The generators are a tuple that nothing changes, so is_homogeneous checks
    them once and keeps the answer; ideal_power seeds it from the degrees it
    reads anyway.

    An ideal that ideal_power makes keeps its generators only as the integer
    products it packed for the ring's order, with their denominators, and
    builds gens from them when gens is first read. is_zero, every basis (in
    another order through _int_generators) and gin's coordinate change read
    the products, and is_homogeneous the answer ideal_power seeds, so a Betti
    table or series of a power builds no generator Polynomial.
    """

    def __init__(self, ring, gens):
        self.ring = ring
        self._gens = tuple(g for g in gens if g)
        for g in self._gens:
            if g.ring != ring:
                raise RingError("generator not in the ambient ring")
        self._bases = {}    # order -> GroebnerBasis
        self._packed = None    # (P, integer dicts packed by P for its order, denominators) of ideal_power's gens
        self._homogeneous = None    # is_homogeneous's answer, once known

    @property
    def gens(self):
        """The generators, a tuple; a power's are built from its packed products on first read."""
        if self._gens is None:
            P, products, dens = self._packed
            self._gens = tuple(_from_int_poly(self.ring, d, den, P) for d, den in zip(products, dens))
        return self._gens

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(repr(g) for g in self.gens)

    def __eq__(self, other):
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return NotImplemented
        if self.gens == other.gens:
            return True
        return self.groebner().polys == other.groebner().polys

    def is_zero(self):
        return not (self._packed[1] if self._gens is None else self._gens)

    def is_homogeneous(self):
        if self._homogeneous is None:
            self._homogeneous = all(g.is_homogeneous() for g in self.gens)
        return self._homogeneous

    def groebner(self, order=None):
        return groebner_basis(self, order)


def groebner_basis(I, order=None):
    """Unique reduced Groebner basis: the ideal's cached basis for the order, with its polys built."""
    G = _basis(I, order or I.ring.order)
    G.polys    # autoreduces on first request
    return G


def initial_monomials(I, order=None, series=None):
    """The minimal generators of the initial ideal, as exponent tuples; no autoreduction.

    They are the leading monomials of the ideal's Buchberger basis, which
    groebner_basis reduces, so the ideal runs Buchberger once for both. They
    divide none of each other on every route: Buchberger's minimal leads, and
    eliminate's cut of a reduced basis. hilbert_series_ideal relies on that
    and hands them to the pivot recursion without a _minimal pass.
    series, the Hilbert series of ring/I when it is known, lets Buchberger
    skip the pairs of a degree whose leading monomials are complete; it must
    be right.
    """
    return _basis(I, order or I.ring.order, series).leading_monomials


def normal_form(f, G):
    """Remainder of f on division by the basis G; zero iff f lies in the ideal."""
    if f.ring != G.ring:
        raise RingError("polynomial and basis live in different rings")
    d, den = _to_int_poly(f)
    P, scale, rem = _exact_normal_form(G, d)
    return _from_int_poly(f.ring, rem, scale * den, P)


def initial_ideal(I):
    """Monomial ideal of leading monomials of the reduced basis for the ring's order."""
    ring = I.ring
    gens = [Polynomial(ring, {lm: ring.field.one}) for lm in sorted(initial_monomials(I))]
    return Ideal(ring, gens)


def ideal_product(I, J):
    if I.ring != J.ring:
        raise RingError("ideals in different rings")
    gens = [f * g for f in I.gens for g in J.gens]
    if gens and I.is_homogeneous() and J.is_homogeneous():
        gens = minimal_generators(I.ring, gens)
    return Ideal(I.ring, gens)


def ideal_power(I, j):
    """I^j, interreduced to a minimal homogeneous generating set when homogeneous.

    The products run on integer dicts packed by the ring's order, whose
    fields hold twice j times the largest degree of a term: no product
    overflows, and a product of two fits, as a Buchberger run needs. The
    result keeps them, with their denominators, as its only copy of its
    generators: its basis in that order runs on them as they are, and gens
    is built from them, terms in int order, which is the term order, only
    when something reads it.
    """
    if j < 0:
        raise RingError("negative ideal power")
    if j == 0:
        return Ideal(I.ring, [I.ring.one()])
    if I.is_zero():
        return Ideal(I.ring, [])
    ring = I.ring
    char = ring.field.char
    P = MonomialPacking.fitting(
        ring.nvars, 2 * j * max(sum(ring.monomial_degree(m)) for g in I.gens for m, _ in g.terms), ring.order)
    ints = [_to_int_poly(g) for g in I.gens]
    gens = [_pack_poly(d, P) for d, _ in ints]
    # each combination of generator indices -> its product and denominator;
    # a product of I^k is one of I^(k-1) times one generator
    products = {(): ({0: 1}, 1)}
    for _ in range(j):
        products = {c + (i,): (_times(f, gens[i], char), den * ints[i][1])
                    for c, (f, den) in products.items() for i in range(c[-1] if c else 0, len(gens))}
    degrees = [g.multidegree() for g in I.gens]
    products = list(products.items())
    # over a domain, a product is homogeneous exactly when its factors are, and
    # the power of an inhomogeneous generator is among the products
    I._homogeneous = homogeneous = None not in degrees
    if homogeneous:
        cands = [(tuple(map(sum, zip(*map(degrees.__getitem__, c)))), f) for c, (f, _) in products]
        products = [products[i] for i in _minimal_indices(ring, P, cands)]
    J = Ideal(ring, ())
    J._gens = None
    J._packed = (P, [f for _, (f, _) in products], [den for _, (_, den) in products])
    J._homogeneous = homogeneous
    return J


def minimal_generators(ring, polys):
    """Minimal homogeneous generating set by degreewise linear algebra.

    A candidate is dropped when it lies in the span of lower-degree generators
    times monomials plus the already-kept candidates of its own degree.
    """
    polys = [p for p in polys if p]
    if not polys:
        return []
    degrees = [p.multidegree() for p in polys]
    if None in degrees:
        raise RingError("minimal_generators needs homogeneous input")
    P = MonomialPacking.fitting(ring.nvars, max(map(sum, degrees)))
    cands = [(deg, _pack_poly(_to_int_poly(p)[0], P)) for p, deg in zip(polys, degrees)]
    return [polys[i] for i in _minimal_indices(ring, P, cands)]


def _minimal_indices(ring, P, cands):
    """Indices that minimal_generators keeps of cands, (degree, packed integer dict) pairs.

    The columns are packed monomials, and only the rows u*g that reach the
    candidates are formed: from each reached monomial M and each term t | M
    of a kept lower-degree g comes the row (M - t)*g, whose monomials are
    reached in turn. A row outside this closure shares no column with it (a
    common monomial M would have put it in), so membership in the span is as
    in the whole degree's matrix. The fields of P must hold every monomial of
    the candidates' degrees.
    """
    from ._linalg import VectorSpan

    by_degree = {}
    for i, (deg, _) in enumerate(cands):
        by_degree.setdefault(deg, []).append(i)
    kept = []
    divides = P.divides
    for deg in sorted(by_degree, key=lambda d: (d[0] + d[1], d)):
        lower = [cands[i][1] for i in kept if cands[i][0][0] <= deg[0] and cands[i][0][1] <= deg[1]]
        span = VectorSpan(ring.field.char)
        reached = {m for i in by_degree[deg] for m in cands[i][1]}
        todo = list(reached)
        formed = set()    # (k, u): the row u*lower[k]
        while todo:
            M = todo.pop()
            for k, g in enumerate(lower):
                for t in g:
                    u = M - t
                    if divides(t, M) and (k, u) not in formed:
                        formed.add((k, u))
                        row = {u + m: c for m, c in g.items()}
                        span.add(row)
                        new = row.keys() - reached
                        reached |= new
                        todo.extend(new)
        for i in by_degree[deg]:
            if span.add(cands[i][1]):
                kept.append(i)
    return kept


def colon_ideal(I, f):
    """(I : f) = (I cap (f))/f, the intersection via one auxiliary variable."""
    if not f:
        raise RingError("colon by the zero polynomial")
    if f.ring != I.ring:
        raise RingError("polynomial not in the ambient ring")
    if I.is_zero():
        return Ideal(I.ring, [])
    ring = I.ring
    ext = RingSpec(
        ring.field,
        ("_w",) + ring.names,
        ((1, 0),) + ring.degrees,
        elimination_order(1),
    )

    def lift(p):
        return Polynomial(ext, {(0,) + m: c for m, c in p.terms})

    w = ext.variable(0)
    gens = [w * lift(g) for g in I.gens]
    gens.append((ext.one() - w) * lift(f))
    inter = eliminate(Ideal(ext, gens), [0])
    # q = g/f is the normal form of w*g modulo the basis {w*f - 1}:
    # w*g - q = q*(w*f - 1), and no term of q holds w
    divide = groebner_basis(Ideal(ext, [w * lift(f) - ext.one()]))
    out = []
    for g in inter.gens:
        q = normal_form(w * lift(g), divide)
        if any(m[0] for m, _ in q.terms):
            raise RingError("internal error: intersection element not divisible")
        out.append(Polynomial(ring, {m[1:]: c for m, c in q.terms}))
    if out and all(p.is_homogeneous() for p in out):
        out = minimal_generators(ring, out)
    return Ideal(ring, out)


def eliminate(J, block):
    """J cap k[remaining variables]; block lists the variable indices to remove.

    The result lives in the ring of the remaining variables with degrevlex
    order, whatever the order of J's ring. The block order breaks ties by
    that degrevlex, so the elements of J's reduced basis free of the block
    are the reduced basis of the result (elimination theorem). Only their
    triples are cut to the remaining variables and repacked, to be the
    result's basis for degrevlex, whose polys are the result's generators.
    An empty block gives J's generators there and runs no Buchberger.
    """
    ring = J.ring
    block = sorted(set(block))
    for i in block:
        if not 0 <= i < ring.nvars:
            raise RingError("no variable %d to eliminate: the indices are range(%d)" % (i, ring.nvars))
    if len(block) == ring.nvars:
        raise RingError("cannot eliminate all %d variables: none would remain" % ring.nvars)
    rest = [i for i in range(ring.nvars) if i not in block]
    small = restrict_ring(ring, rest)
    if not block:
        return Ideal(small, [Polynomial(small, dict(g.terms)) for g in J.gens])
    order = TermOrder("elim", block=len(block), perm=tuple(block + rest))
    gb = _basis(J, order)._reduce()
    P = gb._P

    def cut(m):
        return tuple(map(P.unpack(m).__getitem__, rest))

    # a monomial with a block variable lies above every one without, so an
    # element is free of the block when its lead lies below each block variable
    bar = min(P.units[i] for i in block)
    cuts = [(cut(lm), lc, {cut(m): c for m, c in tail.items()}) for lm, lc, tail in gb._triples if lm < bar]
    W = _fitting(small.nvars, (m for lm, _, tail in cuts for m in (lm, *tail)), small.order)
    G = GroebnerBasis(small, small.order, W, [(W.pack(lm), lc, _pack_poly(tail, W)) for lm, lc, tail in cuts], True)
    out = Ideal(small, G.polys)
    out._bases[small.order] = G
    return out


def restrict_ring(ring, keep):
    return RingSpec(ring.field, tuple(ring.names[i] for i in keep), tuple(ring.degrees[i] for i in keep))


def transport(f, target):
    """Move f to a ring containing the same-named variables."""
    src = f.ring
    index = {n: i for i, n in enumerate(target.names)}
    out = {}
    for m, c in f.terms:
        mono = [0] * target.nvars
        for name, e in zip(src.names, m):
            if e:
                if name not in index:
                    raise RingError("variable %r missing in target ring" % name)
                mono[index[name]] = e
        out[tuple(mono)] = target.field.coerce(c)
    return Polynomial(target, out)
