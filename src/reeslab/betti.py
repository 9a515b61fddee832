"""Graded and bigraded Betti tables from in(I) and Koszul homology; a*-invariants and regularity from shifts."""

from __future__ import annotations

from itertools import combinations
from math import lcm

from ._linalg import VectorSpan
from ._record import record, set_field
from .groebner import _basis, _exact_normal_form, _top_degree, minimal_generators
from .hilbert import hilbert_series_ideal
from .rings import MonomialPacking


class BettiError(ValueError):
    pass


@record
class BettiTable:
    """Ranks beta_{p, (a,b)} of a minimal free resolution in a window of degrees.

    module, the human-readable module descriptor that to_json prints, is no
    field: only a printed report reads it, so _describe formats it on each
    read (None for a table built without one), and equality ignores it.
    """

    ring: object
    entries: tuple            # ((p, (a, b), rank), ...) sorted
    complete: bool            # the window covers every degree where beta(ring/in I) != 0
    window: tuple             # degree caps that were computed

    _describe = None

    @property
    def module(self):
        return None if self._describe is None else self._describe()

    def rows(self):
        return list(self.entries)

    def max_index(self):
        return max((p for p, _, _ in self.entries), default=-1)

    def to_json(self):
        return {
            "module": self.module,
            "complete": self.complete,
            "rows": [{"p": p, "degree": [d[0], d[1]], "rank": r} for p, d, r in self.entries],
        }

    def __repr__(self):
        body = ", ".join("beta_%d%s=%d" % (p, d, r) for p, d, r in self.entries)
        return "BettiTable(%s%s)" % (body, "" if self.complete else "; TRUNCATED")


# ---------------------------------------------------------------------------
# Koszul homology of ring/I

class _QuotientPieces:
    """Graded pieces of ring/I on the standard-monomial basis.

    The standard monomials form the order ideal outside in(I): a monomial is
    standard iff it is not a leading monomial of the reduced basis and every
    m/x_i is standard. They are filled degree by degree, each degree from the
    ones a variable below it.

    A product x_i * m that is not standard is replaced by its normal form
    modulo the reduced basis, which the reduction kernel of the groebner
    layer computes and a table keeps, one entry per monomial. Only the
    basis's leads and triples are read, and no polynomial is built from it.
    The basis is autoreduced only when it is first read past its leads: by
    _koszul_degrees where beta(ring/in I) leaves a degree to check, and
    before the first normal form. So a table copied whole from beta(ring/in
    I) never autoreduces.
    """

    def __init__(self, I):
        self.ring = I.ring
        self.gb = _basis(I, I.ring.order) if not I.is_zero() else None
        lms = self.gb.leading_monomials if self.gb is not None else frozenset()
        one = (0,) * self.ring.nvars
        self._leading = lms
        # degree -> its standard monomials, sorted; the only copy of each basis
        self._bases = {(0, 0): [] if one in lms else [one]}
        # standard monomials of the filled degrees: a monomial of a filled
        # degree is standard iff it is in here
        self._standard = set(self._bases[(0, 0)])
        # non-standard monomial -> (((monomial, integer), ...), denominator)
        self._nf = {}

    def basis(self, degree):
        """Standard monomials of the degree, sorted."""
        if degree[0] < 0 or degree[1] < 0:
            return []
        if degree not in self._bases:
            self._fill(degree)
        return self._bases[degree]

    def _fill(self, degree):
        """Standard monomials of the degree and of every lower degree they rest on."""
        bases = self._bases
        var_degrees = self.ring.degrees
        n = self.ring.nvars
        need = set()
        todo = [degree]
        while todo:
            d = todo.pop()
            if d[0] < 0 or d[1] < 0 or d in bases or d in need:
                continue
            need.add(d)
            todo.extend((d[0] - a, d[1] - b) for a, b in var_degrees)
        # every variable has a nonzero degree in N^2, so m/x_i comes earlier
        # in this order than m
        for d in sorted(need, key=lambda d: (d[1], d[0])):
            # a candidate is met once for each x_i with m/x_i standard
            hits = {}
            for i, (a, b) in enumerate(var_degrees):
                for m in bases.get((d[0] - a, d[1] - b), ()):
                    c = m[:i] + (m[i] + 1,) + m[i + 1:]
                    hits[c] = hits.get(c, 0) + 1
            std = sorted(c for c, k in hits.items() if k == n - c.count(0) and c not in self._leading)
            bases[d] = std
            self._standard.update(std)

    def multiply(self, var_index, m):
        """Coordinates of x_var * m as (((monomial, integer), ...), denominator)."""
        prod = m[:var_index] + (m[var_index] + 1,) + m[var_index + 1:]
        if prod in self._standard:
            return (((prod, 1),), 1)
        cached = self._nf.get(prod)
        if cached is not None:
            return cached
        # the degree of the product may not be filled yet
        self.basis(self.ring.monomial_degree(prod))
        if prod in self._standard:
            return (((prod, 1),), 1)
        cached = self._nf[prod] = self._normal_form(prod)
        return cached

    def _normal_form(self, mono):
        """Table entry of a non-standard monomial: its normal form from the reduction kernel.

        _exact_normal_form reads the scale off its marker term: rem = scale
        * NF(mono), scale a positive int (1 over F_p) and (scale, rem)
        primitive over Q, so the entry is in lowest terms with a positive
        denominator as it comes.
        """
        P, scale, rem = _exact_normal_form(self.gb._reduce(), {mono: 1})
        return (tuple((P.unpack(m), c) for m, c in rem.items()), scale)


def _degree_window(caps):
    """All bidegrees (a, b) with a <= caps[0], b <= caps[1] in support order."""
    amax, bmax = caps
    return [(a, b) for b in range(bmax + 1) for a in range(amax + 1)]


def _facet_homology(facets, char):
    """((p, dim H~_{p-2}), ...) of the complex with these facets, nonzero ranks only, over F_char (Q for 0).

    A facet is a mask of vertices, and the faces are its submasks.
    """
    faces = set()
    for f in facets:
        s = f
        while True:
            faces.add(s)
            if not s:
                break
            s = (s - 1) & f
    # by_size[k]: the faces of k vertices
    by_size = [[] for _ in range(max(f.bit_count() for f in facets) + 1)]
    for s in faces:
        by_size[s.bit_count()].append(s)
    # ranks[k] is the rank of the boundary from k-vertex faces to (k-1)-vertex faces
    ranks = [0] * (len(by_size) + 1)
    for k in range(1, len(by_size)):
        span = VectorSpan(char)
        for tau in by_size[k]:
            row = {}
            sign = 1
            rest = tau
            while rest:
                v = rest & -rest
                row[tau ^ v] = sign
                sign = -sign
                rest ^= v
            span.add(row)
        ranks[k] = span.rank
    return tuple((k + 1, h) for k, faces_k in enumerate(by_size)
                 if (h := len(faces_k) - ranks[k] - ranks[k + 1]))


def _monomial_betti(ring, gens):
    """beta(ring/J) as {degree: {p: rank}} for the monomial ideal J minimally generated by gens.

    beta_{p,m}(ring/J) = beta_{p-1,m}(J) = dim H~_{p-2}(K^m) for p >= 1, where
    K^m = {squarefree tau : m - tau in J} is the upper Koszul simplicial
    complex (Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34),
    with ranks over the field of the ring.

    - Live points. K^m is a cone unless m lies in the lcm lattice of gens,
      and the full simplex when some generator divides m - supp(m). Such an
      m is dead, and so is every monomial above it, so every live lattice
      point is the lcm of a live point and a generator, and the closure
      expands live points only.
    - Facets. tau is a face iff some generator g | m has tau inside
      supp(m - g), so the maximal supports supp(m - g) are the facets of
      K^m; no subset of supp(m) is tested.
    - Cones. When every facet holds a common vertex, K^m is a cone and has
      no reduced homology. A minimal generator's K^m is {empty face}, whose
      one facet is empty, so it is no cone.
    - One homology per complex. Live points share complexes, so the
      homology of each distinct facet set runs once per call.
    """
    if (0,) * ring.nvars in gens:
        return {}  # ring/J = 0
    # every lattice point is an lcm of generators, so no exponent exceeds
    # theirs; the plain packing's int order is the order of the tuples
    P = MonomialPacking.fitting(ring.nvars, max(map(max, gens), default=0))
    packed = sorted(P.pack(g) for g in gens)
    guard, support = P.guard, P.support
    shift = P.width - 1

    live = list(packed)
    seen = set(packed)
    for m in live:
        mg = m | guard
        for g in packed:
            # the guard bit of each field where m >= g, as in P.lcm
            d = (mg - g) & guard
            if d == guard:
                continue  # g | m, so lcm(m, g) = m
            m2 = g ^ ((m ^ g) & (d - (d >> shift)))
            if m2 not in seen:
                seen.add(m2)
                # m2 - supp(m2): subtract the unit of every nonzero field
                if not P.divisible(m2 - (support(m2) >> shift), packed):
                    live.append(m2)
    char = ring.field.char
    homology = {}  # sorted facets -> _facet_homology of them
    out = {(0, 0): {0: 1}}
    for pm in live:
        pg = pm | guard
        # supp(m - g) for each generator g | m, as guard bits; a superset is the larger int
        masks = sorted({support(pm - g) for g in packed if (pg - g) & guard == guard}, reverse=True)
        facets = []
        common = guard
        for s in masks:
            if all(s & f != s for f in facets):
                facets.append(s)
                common &= s
        if common:
            continue  # a cone
        key = tuple(facets)
        ranks = homology.get(key)
        if ranks is None:
            ranks = homology[key] = _facet_homology(key, char)
        if ranks:
            row = out.setdefault(ring.monomial_degree(P.unpack(pm)), {})
            for p, h in ranks:
                row[p] = row.get(p, 0) + h
    return out


def _koszul_degrees(pieces, initial, caps):
    """Window degrees where beta(ring/in I) has nonzero entries at consecutive p.

    Lifting the resolution of ring/in(I) along the Groebner degeneration
    gives beta(ring/I) from beta(ring/in I) by cancellations of consecutive
    entries in one degree (Peeva, Proc. AMS 2004), so only these degrees can
    differ. A monomial reduced basis, every triple without a tail, means
    I = in(I), and none can; the basis is reduced to tell only when some
    degree is left.
    """
    degrees = {
        d for d, row in initial.items()
        if d[0] <= caps[0] and d[1] <= caps[1] and any(p + 1 in row for p in row)
    }
    if degrees and not any(tail for _, _, tail in pieces.gb._reduce()._triples):
        return set()
    return degrees


def _koszul_betti(pieces, caps, euler_numerator, initial):
    """Sorted Betti entries of ring/I in the window, each degree checked against the Euler numerator.

    initial is beta(ring/in I) from _monomial_betti. Koszul homology runs only
    at the degrees _koszul_degrees names; every other entry is copied from
    initial. The Euler check covers every window degree.
    """
    ring = pieces.ring
    n = ring.nvars
    char = ring.field.char
    # (T, degree of x_T) for the p-subsets T of the variables
    subsets = [[(T, ring.monomial_degree([i in T for i in range(n)])) for T in combinations(range(n), p)]
               for p in range(n + 1)]

    def chain_index(p, deg):
        """Column index of the basis (T, key) of K_p in degree deg, in basis order."""
        out = {}
        for T, td in subsets[p]:
            rem = (deg[0] - td[0], deg[1] - td[1])
            for key in pieces.basis(rem):
                out[(T, key)] = len(out)
        return out

    def betti_numbers(deg):
        """beta_p in degree deg for p = 0..n."""
        chains = [chain_index(p, deg) for p in range(n + 1)]
        # ranks[p] is the rank of d_p : K_p -> K_{p-1} in this degree
        ranks = [0] * (n + 2)
        for p in range(1, n + 1):
            target = chains[p - 1]
            if not chains[p] or not target:
                continue
            span = VectorSpan(char)
            rows = []
            for T, key in chains[p]:
                # the blocks for distinct removed indices hit disjoint
                # columns, so one common denominator scales the row
                blocks = []
                den = 1
                for j, i in enumerate(T):
                    vec, d = pieces.multiply(i, key)
                    blocks.append((T[:j] + T[j + 1:], 1 if j % 2 == 0 else -1, vec, d))
                    den = lcm(den, d)
                row = {}
                for Tm, sign, vec, d in blocks:
                    fac = sign * (den // d)
                    for key2, c in vec:
                        col = target.get((Tm, key2))
                        if col is not None:
                            row[col] = fac * c
                if row:
                    rows.append(row)
            # short rows first keeps the elimination fill-in low
            rows.sort(key=len)
            for row in rows:
                span.add(row)
            ranks[p] = span.rank
        return [len(chains[p]) - ranks[p] - ranks[p + 1] for p in range(n + 1)]

    koszul = _koszul_degrees(pieces, initial, caps)
    entries = []
    for deg in _degree_window(caps):
        if deg in koszul:
            betas = enumerate(betti_numbers(deg))
        else:
            betas = initial.get(deg, {}).items()
        total = 0
        for p, beta in betas:
            if beta < 0:
                raise BettiError("negative rank at p=%d degree=%s" % (p, (deg,)))
            if beta:
                entries.append((p, deg, beta))
            total += beta if p % 2 == 0 else -beta
        expected = euler_numerator.get(deg, 0)
        if total != expected:
            raise BettiError(
                "Euler check failed at degree %s: %d != %d" % (deg, total, expected)
            )
    entries.sort(key=lambda row: (row[0], row[1][1], row[1][0]))
    return tuple(entries)


def _betti_table(I, window, as_module, describe):
    """Table of I or ring/I in the window, both read off the resolution of ring/I.

    Tor_p(k, I) = Tor_{p+1}(k, ring/I) for a proper ideal I; ring/I has no
    beta_0 exactly when I is the unit ideal, which is free on one generator.
    beta(ring/I) is nonzero only where beta(ring/in I) is, so the table is
    complete when the window covers that support; window None is its top.
    describe() formats the table's module descriptor when something reads it.
    """
    if as_module not in ("ideal", "quotient"):
        raise BettiError("as_module must be 'ideal' or 'quotient'")
    if window is not None and min(window) < 0:
        raise BettiError("empty window %r: a degree cap must be >= 0" % (window,))
    ring = I.ring
    pieces = _QuotientPieces(I)
    initial = _monomial_betti(ring, pieces._leading)
    top = (max((d[0] for d in initial), default=0), max((d[1] for d in initial), default=0))
    if window is None:
        window = top
    complete = top[0] <= window[0] and top[1] <= window[1]
    # numerator over the full variable denominator IS the Euler polynomial
    euler = dict(hilbert_series_ideal(I).num)
    entries = _koszul_betti(pieces, window, euler, initial)
    if as_module == "ideal":
        if entries and entries[0][0] == 0:
            entries = tuple((p - 1, d, r) for p, d, r in entries if p)
        else:
            entries = ((0, (0, 0), 1),)
    table = BettiTable(ring, entries, complete, window)
    set_field(table, "_describe", describe)
    return table


def graded_betti_table(I, degree_cap=None, as_module="ideal"):
    """beta_{p,q} = dim Tor_p(k, M)_q for q <= cap, M = I or ring/I.

    The table of I is the table of ring/I shifted down one homological
    degree (the unit ideal gives beta_{0,0} = 1). Without a cap the table
    runs to the top degree of beta(ring/in I) and is complete.

    A power from ideal_power builds no generator here: the cap check reads
    its packed products, and the module descriptor lists the generators
    only when a report reads it.
    """
    if not I.is_homogeneous():
        raise BettiError("module must be homogeneous")
    if any(d != (1, 0) for d in I.ring.degrees):
        raise BettiError("graded tables need a standard graded ring; use bigraded_betti_table")
    if as_module == "ideal":
        if I.is_zero():
            raise BettiError("the zero ideal has an empty resolution")
        # the cap must reach every minimal generator; a redundant generator
        # above it is harmless, so the minimal ones are found only then
        if degree_cap is not None and degree_cap < _top_degree(I):
            gen_max = max(g.multidegree()[0] for g in minimal_generators(I.ring, I.gens))
            if degree_cap < gen_max:
                raise BettiError("cap %d below the largest minimal generator degree %d"
                                 % (degree_cap, gen_max))
    return _betti_table(I, None if degree_cap is None else (degree_cap, 0), as_module,
                        lambda: "%s(%s)" % (as_module, ", ".join(repr(g) for g in I.gens)))


def bigraded_betti_table(defining_ideal, window, as_module="quotient"):
    """Bigraded Tor ranks over S of S/K (or of K) by Koszul homology in all variables.

    The table of K is the table of S/K shifted down one homological degree
    (the unit ideal gives beta_{0,(0,0)} = 1).
    """
    K = defining_ideal
    if not K.is_homogeneous():
        raise BettiError("module must be bihomogeneous")
    return _betti_table(K, tuple(window), as_module, lambda: "%s over %r" % (as_module, K.ring))


# ---------------------------------------------------------------------------
# invariants from shifts

@record
class InvariantsReport:
    """a*, regularity and projective dimension read off the resolution shifts."""

    a_star: tuple            # per grading component
    reg: tuple               # per grading component
    proj_dim: int
    t_values: tuple          # ((p, (t1, t2)), ...) max shift per homological index

    def to_json(self):
        return {
            "a_star": list(self.a_star),
            "reg": list(self.reg),
            "proj_dim": self.proj_dim,
            "t": [[p, [t[0], t[1]]] for p, t in self.t_values],
        }


def invariants_from_shifts(B):
    """a*^j = t*^j + a^j(S) per component, reg_j = max(deg_j - p), proj.dim."""
    if not B.complete:
        raise BettiError("table is truncated; widen the window")
    if not B.entries:
        raise BettiError("empty table")
    ring = B.ring
    a_ring = (
        -sum(d[0] for d in ring.degrees),
        -sum(d[1] for d in ring.degrees),
    )
    t_values = {}
    reg1 = reg2 = None
    for p, (a, b), _r in B.entries:
        cur = t_values.get(p)
        t_values[p] = (max(a, cur[0]) if cur else a, max(b, cur[1]) if cur else b)
        reg1 = a - p if reg1 is None else max(reg1, a - p)
        reg2 = b - p if reg2 is None else max(reg2, b - p)
    t_star = (
        max(t[0] for t in t_values.values()),
        max(t[1] for t in t_values.values()),
    )
    a_star = (t_star[0] + a_ring[0], t_star[1] + a_ring[1])
    proj = max(t_values)
    return InvariantsReport(a_star, (reg1, reg2), proj, tuple(sorted(t_values.items())))
