"""Buchberger engine and ideal arithmetic: normal forms, initial ideals, powers, colons, elimination."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm

from .rings import (
    DEGREVLEX,
    Polynomial,
    RingError,
    RingSpec,
    TermOrder,
    elimination_order,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
)

# ---------------------------------------------------------------------------
# internal integer polynomials: dict mono -> int.
# Over Q the representative is primitive (content 1, positive lead);
# over F_p coefficients live in [0, p). A polynomial that others are reduced
# against is split once into its triple (lm, lc, tail): leading monomial,
# leading coefficient and a dict of the other terms, which nobody mutates.

_STRIP_BITS = 512


def _content_strip(d, char):
    if char or not d:
        return d
    g = 0
    for c in d.values():
        g = gcd(g, c)
        if g == 1:
            return d
    if g > 1:
        for k in d:
            d[k] //= g
    return d


def _to_int_poly(f):
    """Integer dict of a Polynomial and the integer its coefficients were scaled by."""
    char = f.ring.field.char
    if char:
        return {m: c % char for m, c in f.terms if c % char}, 1
    den = lcm(*(c.denominator for _, c in f.terms))
    return {m: c.numerator * (den // c.denominator) for m, c in f.terms}, den


def _normal_form_int(f, reducers, keyfn, char):
    """Full normal form of the dict-poly f against (lm, lc, tail) reducers; f is consumed.

    Returns (lead, rem, scale) with rem = scale * NF(f) and lead its leading
    monomial (None when rem is zero). Over Q rem is primitive with a positive
    lead, and scale is the product of the factors the reduction multiplied by
    and divided out; over F_p scale is 1.
    """
    rem = {}
    lead = None
    num = den = 1
    steps = 0
    while f:
        m = max(f, key=keyfn)
        c = f.pop(m)
        for hit in reducers:
            if mono_divides(hit[0], m):
                break
        else:
            # terms leave f in decreasing order, so the first one kept leads
            rem[m] = c
            if lead is None:
                lead = m
            continue
        lm, lc, tail = hit
        u = mono_div(m, lm)
        if char:
            factor = (c * pow(lc, -1, char)) % char
            for mt, ct in tail.items():
                k = mono_mul(mt, u)
                v = (f.get(k, 0) - factor * ct) % char
                if v:
                    f[k] = v
                else:
                    f.pop(k, None)
        else:
            g = gcd(c, lc)
            a, b = lc // g, c // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                num *= a
                for k in f:
                    f[k] *= a
                for k in rem:
                    rem[k] *= a
            for mt, ct in tail.items():
                k = mono_mul(mt, u)
                v = f.get(k, 0) - b * ct
                if v:
                    f[k] = v
                else:
                    f.pop(k, None)
            steps += 1
            if steps % 16 == 0 and f and max(abs(x) for x in f.values()).bit_length() > _STRIP_BITS:
                g = 0
                for c2 in f.values():
                    g = gcd(g, c2)
                for c2 in rem.values():
                    g = gcd(g, c2)
                if g > 1:
                    den *= g
                    for k in f:
                        f[k] //= g
                    for k in rem:
                        rem[k] //= g
    if char or lead is None:
        return lead, rem, 1
    g = 0
    for c in rem.values():
        g = gcd(g, c)
    if rem[lead] < 0:
        g = -g
    if g != 1:
        for k in rem:
            rem[k] //= g
    return lead, rem, Fraction(num, den * g)


def _spoly(ti, tj, char):
    """S-polynomial of two (lm, lc, tail) triples: their leading terms cancel."""
    lmi, ci, fi = ti
    lmj, cj, fj = tj
    L = mono_lcm(lmi, lmj)
    ui, uj = mono_div(L, lmi), mono_div(L, lmj)
    if char:
        ai = (cj * pow(ci, -1, char)) % char
        out = {mono_mul(m, ui): c * ai % char for m, c in fi.items()}
        for m, c in fj.items():
            k = mono_mul(m, uj)
            v = (out.get(k, 0) - c) % char
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return out
    g = gcd(ci, cj)
    ai, aj = cj // g, ci // g
    out = {mono_mul(m, ui): c * ai for m, c in fi.items()}
    for m, c in fj.items():
        k = mono_mul(m, uj)
        v = out.get(k, 0) - c * aj
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return _content_strip(out, 0)


def _buchberger(seqs, keyfn, char):
    """Reduced Groebner basis of the dict-polys in seqs, as (lm, lc, tail) triples sorted by lm.

    Normal-pair selection on a (sugar, lcm) key with the Gebauer-Moeller
    update criteria; fraction-free arithmetic over Q.
    """
    triples = []    # all accepted intermediates; index-addressed
    lms = []
    sugars = []

    def add_poly(lead, h, sugar):
        triples.append((lead, h.pop(lead), h))
        lms.append(lead)
        sugars.append(sugar)
        return len(triples) - 1

    def pair_key(pair):
        i, j = pair
        L = mono_lcm(lms[i], lms[j])
        sug = max(
            sugars[i] + sum(mono_div(L, lms[i])),
            sugars[j] + sum(mono_div(L, lms[j])),
        )
        return (sug, keyfn(L))

    G = set()
    B = set()

    def update(h):
        # [Becker-Weispfenning p.230] Gebauer-Moeller update of (G, B) by h.
        mh = lms[h]
        C = set(G)
        D = set()
        while C:
            g = C.pop()
            L_hg = mono_lcm(mh, lms[g])

            def lcm_divides(p):
                return mono_divides(mono_lcm(mh, lms[p]), L_hg)

            disjoint = mono_mul(mh, lms[g]) == L_hg
            if disjoint or (
                not any(lcm_divides(x) for x in C)
                and not any(lcm_divides(x[1]) for x in D)
            ):
                D.add((h, g))
        E = set()
        while D:
            h_, g = D.pop()
            if mono_mul(mh, lms[g]) != mono_lcm(mh, lms[g]):
                E.add((h_, g))
        B_new = set()
        while B:
            i, j = B.pop()
            L = mono_lcm(lms[i], lms[j])
            if (
                not mono_divides(mh, L)
                or mono_lcm(lms[i], mh) == L
                or mono_lcm(lms[j], mh) == L
            ):
                B_new.add((i, j))
        B_new |= E
        B.update(B_new)
        for g in [g for g in G if mono_divides(mh, lms[g])]:
            G.discard(g)
        G.add(h)

    for f in seqs:
        if not f:
            continue
        lead, h, _ = _normal_form_int(_content_strip(f, char), [triples[i] for i in G], keyfn, char)
        if lead is not None:
            update(add_poly(lead, h, max(sum(m) for m in h)))

    while B:
        pair = min(B, key=pair_key)
        B.discard(pair)
        i, j = pair
        s = _spoly(triples[i], triples[j], char)
        lead, h, _ = _normal_form_int(s, [triples[k] for k in G], keyfn, char)
        if lead is not None:
            update(add_poly(lead, h, pair_key(pair)[0]))

    # autoreduction: minimal leading monomials, fully reduced tails. The
    # kept leading monomials divide none of each other, so only tails change.
    final = [triples[i] for i in sorted(G)]
    final = [
        t for i, t in enumerate(final)
        if not any(
            j != i and mono_divides(u[0], t[0]) and (u[0] != t[0] or j < i)
            for j, u in enumerate(final)
        )
    ]
    changed = True
    while changed:
        changed = False
        for i, (lm, lc, tail) in enumerate(final):
            others = final[:i] + final[i + 1:]
            f = dict(tail)
            f[lm] = lc
            lead, h, _ = _normal_form_int(f, others, keyfn, char)
            t = (lead, h.pop(lead), h)
            if t != final[i]:
                final[i] = t
                changed = True
    final.sort(key=lambda t: keyfn(t[0]))
    return final


# ---------------------------------------------------------------------------
# public layer

@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis for (ring, order); monic polynomials sorted by leading monomial.

    _triples holds the same basis as the integer (lm, lc, tail) triples that
    Buchberger produced, in the same order; every reduction against the basis
    reads them.
    """

    ring: RingSpec
    order: TermOrder
    polys: tuple
    leading_monomials: frozenset
    _triples: tuple = field(compare=False, repr=False)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def contains_monomial(self, mono):
        return any(mono_divides(lm, mono) for lm in self.leading_monomials)


class Ideal:
    """An ideal given by generators, with a per-order Groebner cache."""

    def __init__(self, ring, gens):
        self.ring = ring
        self.gens = tuple(g for g in gens if g)
        for g in self.gens:
            if g.ring != ring:
                raise RingError("generator not in the ambient ring")
        self._gb_cache = {}

    def __repr__(self):
        return "Ideal(%s)" % ", ".join(repr(g) for g in self.gens)

    def __eq__(self, other):
        if not isinstance(other, Ideal) or self.ring != other.ring:
            return NotImplemented
        if self.gens == other.gens:
            return True
        return self.groebner().polys == other.groebner().polys

    def is_zero(self):
        return not self.gens

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def groebner(self, order=None):
        return groebner_basis(self, order)

    def contains(self, f):
        if f.ring != self.ring:
            raise RingError("polynomial not in the ambient ring")
        if not f:
            return True
        return not normal_form(f, self.groebner())

    def power(self, j):
        return ideal_power(self, j)

    def colon(self, f):
        return colon_ideal(self, f)


def groebner_basis(I, order=None):
    """Unique reduced Groebner basis; cached on the ideal per order."""
    order = order or I.ring.order
    cached = I._gb_cache.get(order)
    if cached is not None:
        return cached
    ring = I.ring
    char = ring.field.char
    seqs = [_to_int_poly(g)[0] for g in I.gens]
    triples = tuple(_buchberger(seqs, order.key_function(ring.nvars), char))
    polys = []
    for lm, lc, tail in triples:
        if char:
            inv = pow(lc, -1, char)
            monic = {m: c * inv % char for m, c in tail.items()}
        else:
            monic = {m: Fraction(c, lc) for m, c in tail.items()}
        monic[lm] = ring.field.one
        polys.append(Polynomial(ring, monic))
    gb = GroebnerBasis(ring, order, tuple(polys), frozenset(t[0] for t in triples), triples)
    I._gb_cache[order] = gb
    return gb


def normal_form(f, G):
    """Remainder of f on division by the basis G; zero iff f lies in the ideal."""
    if f.ring != G.ring:
        raise RingError("polynomial and basis live in different rings")
    char = G.ring.field.char
    d, den = _to_int_poly(f)
    _, rem, scale = _normal_form_int(d, G._triples, G.order.key_function(G.ring.nvars), char)
    if not char:
        scale *= den
        rem = {m: c / scale for m, c in rem.items()}
    return Polynomial(f.ring, rem)


def initial_ideal(I, order=None):
    """Monomial ideal of leading monomials of the reduced basis."""
    order = order or I.ring.order
    gb = groebner_basis(I, order)
    ring = I.ring
    gens = [Polynomial(ring, {lm: ring.field.one}) for lm in sorted(gb.leading_monomials)]
    return Ideal(ring, gens)


def spairs_reduce_to_zero(G):
    """Certificate check: every S-pair of the basis reduces to zero."""
    keyfn = G.order.key_function(G.ring.nvars)
    char = G.ring.field.char
    triples = G._triples
    for i in range(len(triples)):
        for j in range(i + 1, len(triples)):
            if _normal_form_int(_spoly(triples[i], triples[j], char), triples, keyfn, char)[0] is not None:
                return False
    return True


def ideal_product(I, J):
    if I.ring != J.ring:
        raise RingError("ideals in different rings")
    gens = [f * g for f in I.gens for g in J.gens]
    if gens and I.is_homogeneous() and J.is_homogeneous():
        gens = minimal_generators(I.ring, gens)
    return Ideal(I.ring, gens)


def ideal_power(I, j):
    """I^j, interreduced to a minimal homogeneous generating set when homogeneous."""
    if j < 0:
        raise RingError("negative ideal power")
    if j == 0:
        return Ideal(I.ring, [I.ring.one()])
    if I.is_zero():
        return Ideal(I.ring, [])
    gens = [_prod(list(c)) for c in combinations_with_replacement(I.gens, j)]
    if I.is_homogeneous():
        gens = minimal_generators(I.ring, gens)
    return Ideal(I.ring, gens)


def _prod(fs):
    out = fs[0]
    for f in fs[1:]:
        out = out * f
    return out


def minimal_generators(ring, polys):
    """Minimal homogeneous generating set by degreewise linear algebra.

    A candidate is dropped when it lies in the span of lower-degree generators
    times monomials plus the already-kept candidates of its own degree.
    """
    from ._linalg import VectorSpan

    polys = [p for p in polys if p]
    if not polys:
        return []
    by_degree = {}
    for p in polys:
        deg = p.multidegree()
        if deg is None:
            raise RingError("minimal_generators needs homogeneous input")
        by_degree.setdefault(deg, []).append(p)
    kept = []
    degrees = sorted(by_degree, key=lambda d: (d[0] + d[1], d))
    for deg in degrees:
        monos = ring.monomials_of_degree(deg)
        index = {m: i for i, m in enumerate(monos)}
        span = VectorSpan(ring.field.char)
        for g in kept:
            gdeg = g.multidegree()
            shift = (deg[0] - gdeg[0], deg[1] - gdeg[1])
            if shift[0] < 0 or shift[1] < 0:
                continue
            for u in ring.monomials_of_degree(shift):
                span.add({index[m]: c for m, c in g.mul_monomial(u).terms})
        for cand in by_degree[deg]:
            if span.add({index[m]: c for m, c in cand.terms}):
                kept.append(cand)
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
    order, whatever the order of J's ring.
    """
    ring = J.ring
    block = sorted(set(block))
    rest = [i for i in range(ring.nvars) if i not in block]
    perm = tuple(block + rest)
    order = TermOrder("elim", block=len(block), perm=perm)
    gb = groebner_basis(J, order)
    small = restrict_ring(ring, rest)
    gens = []
    for g in gb.polys:
        if all(all(m[i] == 0 for i in block) for m, _ in g.terms):
            gens.append(Polynomial(small, {tuple(m[i] for i in rest): c for m, c in g.terms}))
    return Ideal(small, gens)


def restrict_ring(ring, keep, order=None):
    return RingSpec(
        ring.field,
        tuple(ring.names[i] for i in keep),
        tuple(ring.degrees[i] for i in keep),
        order or DEGREVLEX,
    )


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
