"""Buchberger engine and ideal arithmetic: normal forms, initial ideals, powers, colons, elimination."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations_with_replacement
from math import gcd

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
# over F_p coefficients live in [0, p).

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
    """Clear denominators of a Polynomial; returns a primitive dict."""
    char = f.ring.field.char
    if char:
        return {m: c % char for m, c in f.terms if c % char}
    den = 1
    for _, c in f.terms:
        den = den * c.denominator // gcd(den, c.denominator)
    d = {m: int(c * den) for m, c in f.terms}
    return _content_strip(d, 0)


def _from_int_poly(ring, d, monic_key=None):
    """Back to a Polynomial, monic when a key is supplied."""
    char = ring.field.char
    if not d:
        return ring.zero()
    if char:
        if monic_key is not None:
            lm = max(d, key=monic_key)
            inv = pow(d[lm], -1, char)
            return Polynomial(ring, {m: (c * inv) % char for m, c in d.items()})
        return Polynomial(ring, dict(d))
    if monic_key is not None:
        lm = max(d, key=monic_key)
        lc = d[lm]
        return Polynomial(ring, {m: Fraction(c, lc) for m, c in d.items()})
    return Polynomial(ring, {m: Fraction(c) for m, c in d.items()})


def _normal_form_int(f, reducers, keyfn, char):
    """Full normal form of the dict-poly f against (lm, lc, tail) reducers."""
    f = dict(f)
    rem = {}
    steps = 0
    while f:
        m = max(f, key=keyfn)
        c = f.pop(m)
        hit = None
        for lm, lc, tail in reducers:
            if mono_divides(lm, m):
                hit = (lm, lc, tail)
                break
        if hit is None:
            rem[m] = c
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
                    for k in f:
                        f[k] //= g
                    for k in rem:
                        rem[k] //= g
    _content_strip(rem, char)
    if not char and rem:
        lm = max(rem, key=keyfn)
        if rem[lm] < 0:
            for k in rem:
                rem[k] = -rem[k]
    return rem


def _spoly(fi, fj, keyfn, char):
    lmi = max(fi, key=keyfn)
    lmj = max(fj, key=keyfn)
    L = mono_lcm(lmi, lmj)
    ui, uj = mono_div(L, lmi), mono_div(L, lmj)
    ci, cj = fi[lmi], fj[lmj]
    out = {}
    if char:
        fac = (cj * pow(ci, -1, char)) % char
        for m, c in fi.items():
            out[mono_mul(m, ui)] = (c * fac) % char
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
    for m, c in fi.items():
        out[mono_mul(m, ui)] = c * ai
    for m, c in fj.items():
        k = mono_mul(m, uj)
        v = out.get(k, 0) - c * aj
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return _content_strip(out, 0)


def _buchberger(seqs, keyfn, char):
    """Reduced Groebner basis of the dict-polys in seqs.

    Normal-pair selection on a (sugar, lcm) key with the Gebauer-Moeller
    update criteria; fraction-free arithmetic over Q.
    """
    polys = []    # all accepted intermediates; index-addressed
    lms = []
    sugars = []

    def add_poly(f, sugar):
        polys.append(f)
        lms.append(max(f, key=keyfn))
        sugars.append(sugar)
        return len(polys) - 1

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

    def reducers():
        return [(lms[i], polys[i][lms[i]], {m: c for m, c in polys[i].items() if m != lms[i]}) for i in G]

    for f in seqs:
        if not f:
            continue
        f = _content_strip(dict(f), char)
        h = _normal_form_int(f, reducers(), keyfn, char)
        if h:
            idx = add_poly(h, max(sum(m) for m in h))
            update(idx)

    while B:
        pair = min(B, key=pair_key)
        B.discard(pair)
        i, j = pair
        s = _spoly(polys[i], polys[j], keyfn, char)
        h = _normal_form_int(s, reducers(), keyfn, char)
        if h:
            sug = pair_key(pair)[0]
            idx = add_poly(h, sug)
            update(idx)

    # autoreduction: minimal leading monomials, fully reduced tails
    final = [dict(polys[i]) for i in sorted(G)]
    flms = [max(f, key=keyfn) for f in final]
    keep = []
    for i, lm in enumerate(flms):
        dominated = any(
            j != i and mono_divides(flms[j], lm) and (flms[j] != lm or j < i)
            for j in range(len(flms))
        )
        if not dominated:
            keep.append(i)
    final = [final[i] for i in keep]
    changed = True
    while changed:
        changed = False
        for i in range(len(final)):
            if not final[i]:
                continue
            others = []
            for j, f in enumerate(final):
                if j == i or not f:
                    continue
                lm = max(f, key=keyfn)
                others.append((lm, f[lm], {m: c for m, c in f.items() if m != lm}))
            h = _normal_form_int(final[i], others, keyfn, char)
            if h != final[i]:
                final[i] = h
                changed = True
    final = [f for f in final if f]
    final.sort(key=lambda f: keyfn(max(f, key=keyfn)))
    return final


# ---------------------------------------------------------------------------
# public layer

@dataclass(frozen=True)
class GroebnerBasis:
    """Reduced Groebner basis for (ring, order); monic polynomials sorted by leading monomial."""

    ring: RingSpec
    order: TermOrder
    polys: tuple
    leading_monomials: frozenset

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self.polys)

    def contains_monomial(self, mono):
        return any(mono_divides(lm, mono) for lm in self.leading_monomials)

    @cached_property
    def _reducers(self):
        """(lm, lc, tail) of each polynomial, leading data taken in the basis order.

        The tail is a dict monomial -> coefficient that callers only read.
        Built once per basis; every reduction against the basis reads its
        leading data here.
        """
        keyfn = self.order.key_function(self.ring.nvars)
        out = []
        for g in self.polys:
            tail = dict(g.terms)
            lm = max(tail, key=keyfn)
            out.append((lm, tail.pop(lm), tail))
        return tuple(out)


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
    keyfn = order.key_function(I.ring.nvars)
    char = I.ring.field.char
    seqs = [_to_int_poly(g) for g in I.gens]
    final = _buchberger(seqs, keyfn, char)
    polys = tuple(_from_int_poly(I.ring, f, monic_key=keyfn) for f in final)
    lms = frozenset(max(f, key=keyfn) for f in final)
    gb = GroebnerBasis(I.ring, order, polys, lms)
    I._gb_cache[order] = gb
    return gb


def normal_form(f, G):
    """Remainder of f on division by the basis G; zero iff f lies in the ideal."""
    if f.ring != G.ring:
        raise RingError("polynomial and basis live in different rings")
    keyfn = G.order.key_function(G.ring.nvars)
    char = G.ring.field.char
    work = dict(f.terms)
    rem = {}
    while work:
        m = max(work, key=keyfn)
        c = work.pop(m)
        hit = None
        for reducer in G._reducers:
            if mono_divides(reducer[0], m):
                hit = reducer
                break
        if hit is None:
            rem[m] = c
            continue
        lm, lc, tail = hit
        u = mono_div(m, lm)
        fac = (c * pow(lc, -1, char)) % char if char else c / lc
        for mt, ct in tail.items():
            k = mono_mul(mt, u)
            v = work.get(k, 0) - fac * ct
            if char:
                v %= char
            if v:
                work[k] = v
            else:
                work.pop(k, None)
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
    ds = [_to_int_poly(g) for g in G.polys]
    reducers = [(lm, d[lm], {m: c for m, c in d.items() if m != lm})
                for (lm, _, _), d in zip(G._reducers, ds)]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            s = _spoly(ds[i], ds[j], keyfn, char)
            if _normal_form_int(s, reducers, keyfn, char):
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
    f_small = Polynomial(inter.ring, {m: c for m, c in f.terms})
    out = []
    for g in inter.gens:
        q, rem = _divide_exact(g, f_small)
        if rem:
            raise RingError("internal error: intersection element not divisible")
        out.append(q)
    if out and all(p.is_homogeneous() for p in out):
        out = minimal_generators(inter.ring, out)
    return Ideal(inter.ring, out)


def _divide_exact(g, f):
    """g = q*f + r by leading-term division."""
    ring = g.ring
    keyfn = ring.key_function()
    char = ring.field.char
    work = dict(g.terms)
    q = {}
    lmf = f.leading_monomial()
    lcf = f.leading_coefficient()
    while work:
        m = max(work, key=keyfn)
        if not mono_divides(lmf, m):
            break
        c = work.pop(m)
        u = mono_div(m, lmf)
        fac = (c * pow(lcf, -1, char)) % char if char else c / lcf
        q[u] = q.get(u, 0) + fac
        for mt, ct in f.terms[1:]:
            k = mono_mul(mt, u)
            v = work.get(k, 0) - fac * ct
            if char:
                v %= char
            if v:
                work[k] = v
            else:
                work.pop(k, None)
    return Polynomial(ring, q), Polynomial(ring, work)


def eliminate(J, block):
    """J cap k[remaining variables]; block lists the variable indices to remove."""
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
