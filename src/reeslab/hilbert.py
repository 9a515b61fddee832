"""Hilbert series (graded and bigraded), Hilbert functions and polynomials, dimension and multiplicity."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, prod
from ._record import record
from .groebner import initial_monomials
from .rings import MonomialPacking


class SeriesError(ValueError):
    pass


# ---------------------------------------------------------------------------
# rational Hilbert series

@record
class HilbertSeriesRational:
    """N(s,t) over a product of factors (1 - s^a t^b).

    ``num``: tuple of ((a, b), coefficient), sorted; ``den``: tuple of
    ((a, b), multiplicity), sorted, one factor per ambient ring variable.
    """

    num: tuple
    den: tuple

    @staticmethod
    def make(num_dict, degrees):
        """num_dict over one factor (1 - s^a t^b) per variable degree (a, b)."""
        return HilbertSeriesRational(_sorted_num(num_dict), tuple(sorted(Counter(degrees).items())))

    # -- arithmetic over a common denominator -------------------------------
    def _plus(self, other, sign):
        if self.den != other.den:
            raise SeriesError("series have different denominators")
        acc = dict(self.num)
        for d, c in other.num:
            acc[d] = acc.get(d, 0) + sign * c
        return HilbertSeriesRational(_sorted_num(acc), self.den)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __eq__(self, other):
        if not isinstance(other, HilbertSeriesRational):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        # cross-multiply: num1 * den2 == num2 * den1 over the union factors
        lhs, rhs = dict(self.num), dict(other.num)
        for d in _den_difference(other.den, self.den):
            lhs = _times_one_minus(lhs, d)
        for d in _den_difference(self.den, other.den):
            rhs = _times_one_minus(rhs, d)
        return _sorted_num(lhs) == _sorted_num(rhs)

    # -- expansion -----------------------------------------------------------
    def expand(self, imax, jmax=0):
        """Power-series coefficients as nested lists: coeff[i][j]."""
        arr = [[0] * (jmax + 1) for _ in range(imax + 1)]
        for (a, b), c in self.num:
            if 0 <= a <= imax and 0 <= b <= jmax:
                arr[a][b] += c
            elif a < 0 or b < 0:
                raise SeriesError("cannot expand a series with Laurent support")
        for (a, b), mult in self.den:
            for _ in range(mult):
                for i in range(imax + 1):
                    for j in range(jmax + 1):
                        if i - a >= 0 and j - b >= 0:
                            arr[i][j] += arr[i - a][j - b]
        return arr

    def coefficient(self, degree):
        if isinstance(degree, int):
            degree = (degree, 0)
        i, j = degree
        if i < 0 or j < 0:
            return 0
        return self.expand(i, j)[i][j]

    def to_json(self):
        return {
            "num": [[c, d[0], d[1]] for d, c in self.num],
            "den": [[d[0], d[1], m] for d, m in self.den],
        }

    def __repr__(self):
        num = " + ".join("%d*s^%d*t^%d" % (c, d[0], d[1]) for d, c in self.num) or "0"
        den = " ".join("(1-s^%d t^%d)^%d" % (d[0], d[1], m) for d, m in self.den)
        return "(%s) / %s" % (num, den)


def _t_slice(t_degrees, num_slices, j):
    """Coefficient of t^j in N(s, t) / prod_i (1 - s^{a_i} t) as a dict s-degree -> int.

    ``t_degrees`` lists the a_i; ``num_slices`` yields (b, {s-degree: c})
    pieces of N, each the t^b part of one or more terms.
    """
    # expand 1/prod(1 - s^{a_i} t) up to t^j; slice jj is an s-polynomial
    slices = [dict() for _ in range(j + 1)]
    slices[0][0] = 1
    for a in t_degrees:
        for jj in range(1, j + 1):
            for deg, c in slices[jj - 1].items():
                slices[jj][deg + a] = slices[jj].get(deg + a, 0) + c
    out = {}
    for b, num in num_slices:
        if b <= j:
            for a, c in num.items():
                for deg, c2 in slices[j - b].items():
                    key = a + deg
                    out[key] = out.get(key, 0) + c * c2
    return {k: v for k, v in out.items() if v}


def _sorted_num(num_dict):
    return tuple(sorted((d, c) for d, c in num_dict.items() if c))


def _den_difference(big, small):
    """Factors of big not accounted for in small (multiset difference)."""
    return list((Counter(dict(big)) - Counter(dict(small))).elements())


# ---------------------------------------------------------------------------
# monomial-quotient numerators (pivot recursion)

def _num_mul(a, b):
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            k = (d1[0] + d2[0], d1[1] + d2[1])
            v = out.get(k, 0) + c1 * c2
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def _times_one_minus(num, deg):
    """num * (1 - s^a t^b), deg = (a, b), as a new dict."""
    out = dict(num)
    a, b = deg
    for (x, y), c in num.items():
        k = (x + a, y + b)
        v = out.get(k, 0) - c
        if v:
            out[k] = v
        else:
            del out[k]
    return out


def _minimal(gens, P):
    """The minimal monomials of gens, packed by P, sorted; a divisor is never a larger int."""
    out = []
    for m in sorted(gens):
        if not P.divisible(m, out):
            out.append(m)
    return out


def _staircase_numerator(degree, P, gens):
    """Closed form for sorted minimal packed gens in two variables: neighbours' lcms are the corners."""
    num = {(0, 0): 1}
    for m in gens:
        d = degree(m)
        num[d] = num.get(d, 0) - 1
    for a, b in zip(gens, gens[1:]):
        d = degree(P.lcm(a, b))
        num[d] = num.get(d, 0) + 1
    return {k: v for k, v in num.items() if v}


def monomial_quotient_numerator(ring, gens, _ctx=None):
    """Numerator of the series of ring/(gens) over all (1 - s^a t^b) factors.

    Pivot recursion (Bigatti, J. Pure Appl. Algebra 119, 1997) with component
    splitting. The top call packs gens by a plain MonomialPacking, whose
    fields are the exponents; no exponent grows in the recursion, so every
    node works on those ints, passed on with the packing, the memo and a
    per-call degree table in _ctx. A divisor is never a larger int than its
    multiple, so sorted ints are in divisor-first order and one divisibility
    pass, _minimal, minimalizes them. A top call through this name, as
    hilbert_series_monomial makes it, runs that pass once, since its gens may
    be redundant. _minimal_numerator makes the top call on gens that divide
    none of each other, the leads of a Groebner basis as hilbert_series_ideal
    and groebner._hilbert_skip hand them over, and skips it. Either way the
    top call shares _top_call's packing, degree table and sort, and is one
    node. Every inner call gets a sorted minimal list, whose tuple keys the
    memo. Nothing is minimalized twice:

    - The members of a component, and the generators ``rest`` without the
      pivot x_v, are subsets of a minimal list, so they are minimal; a
      subset of a sorted list in its order is sorted.
    - The colon by x_v is D' + rest, where D' divides each generator of D,
      those with x_v, by x_v. If a/x_v | b/x_v then a | b, so D' is minimal
      and in D's order. A generator r of rest that divides some a/x_v
      divides a, so none does. Only an r that some a/x_v divides drops out:
      one pass of rest against D' minimalizes the colon.

    Some nodes are written down rather than recursed into. A support is a
    mask of guard bits, and components merge overlapping masks; their
    numerators multiply. A component with one generator of degree (a, b)
    is multiplied in as (1 - s^a t^b), and one on two variables takes the
    staircase closed form. x_v is coprime to every generator of rest, so
    N(rest + (x_v)) = N(rest) (1 - s^a t^b) with (a, b) = deg x_v, and
    N = N(rest + (x_v)) + s^a t^b N(colon). The pivot is the variable in
    the most supports, the lower index on ties, read off the bits of the
    component's support only. Each monomial's degree is unpacked once per
    top call. The memo returns the numerator it stored; no caller mutates
    one it is given.
    """
    if _ctx is None:
        gens, _ctx = _top_call(ring, gens)
        gens = _minimal(gens, _ctx[0])
    P, memo, degree = _ctx
    if not gens:
        return {(0, 0): 1}
    key = tuple(gens)
    hit = memo.get(key)
    if hit is not None:
        return hit
    masks = [P.support(m) for m in gens]
    comps = []  # [union of the members' masks, members]; the unions are disjoint
    for m, s in zip(gens, masks):
        merged, rest = [s, [m]], []
        for c in comps:
            if c[0] & s:
                merged[0] |= c[0]
                merged[1] += c[1]
            else:
                rest.append(c)
        comps = rest + [merged]
    if len(comps) > 1 or len(gens) == 1:
        # the numerators of support-disjoint components multiply
        out = {(0, 0): 1}
        for _, members in sorted(comps, key=lambda c: min(c[1])):
            if len(members) == 1:
                out = _times_one_minus(out, degree(members[0]))
            else:
                out = _num_mul(out, monomial_quotient_numerator(ring, sorted(members), _ctx))
    elif comps[0][0].bit_count() == 2:
        out = _staircase_numerator(degree, P, gens)
    else:
        best, support = 0, comps[0][0]
        while support:
            bit = support & -support
            support ^= bit
            n = len([s for s in masks if s & bit])
            if n >= best:  # a higher bit is a lower variable index
                best, pbit = n, bit
        unit = pbit >> (P.width - 1)
        divided = [m - unit for m, s in zip(gens, masks) if s & pbit]
        rest = [m for m, s in zip(gens, masks) if not s & pbit]
        pdeg = degree(unit)
        out = _times_one_minus(monomial_quotient_numerator(ring, rest, _ctx), pdeg)
        colon = sorted(divided + [m for m in rest if not P.divisible(m, divided)])
        for d, c in monomial_quotient_numerator(ring, colon, _ctx).items():
            sh = (d[0] + pdeg[0], d[1] + pdeg[1])
            v = out.get(sh, 0) + c
            if v:
                out[sh] = v
            else:
                del out[sh]
    memo[key] = out
    return out


def _top_call(ring, gens):
    """(packed gens, sorted; _ctx) for the top call of monomial_quotient_numerator on exponent tuples."""
    P = MonomialPacking.fitting(ring.nvars, max(map(max, gens), default=1))
    degrees = {}

    def degree(m):
        d = degrees.get(m)
        if d is None:
            d = degrees[m] = ring.monomial_degree(P.unpack(m))
        return d

    return sorted(map(P.pack, gens)), (P, {}, degree)


def _minimal_numerator(ring, gens):
    """monomial_quotient_numerator for gens that divide none of each other: the top call skips _minimal."""
    return monomial_quotient_numerator(ring, *_top_call(ring, gens))


def hilbert_series_monomial(J):
    """Series of ring/J for a monomial ideal J (pivot recursion, exact); redundant generators are minimalized."""
    ring = J.ring
    gens = []
    for g in J.gens:
        if len(g.terms) != 1:
            raise SeriesError("non-monomial generator %r" % g)
        gens.append(g.terms[0][0])
    num = monomial_quotient_numerator(ring, gens)
    return HilbertSeriesRational.make(num, ring.degrees)


def hilbert_series_ideal(I, as_module="quotient"):
    """Series of I or ring/I via the initial ideal (series-invariant).

    The leading monomials of the ideal's cached basis divide none of each
    other, so the pivot recursion takes them without a _minimal pass; on a
    repeated request, with the basis and the ideal's homogeneity known, only
    the recursion runs.
    """
    if as_module not in ("quotient", "ideal"):
        raise SeriesError("as_module must be 'ideal' or 'quotient'")
    if not I.is_homogeneous():
        raise SeriesError("inhomogeneous generator")
    ring = I.ring
    if I.is_zero():
        num = {(0, 0): 1}
    else:
        num = _minimal_numerator(ring, initial_monomials(I))
    quotient = HilbertSeriesRational.make(num, ring.degrees)
    if as_module == "quotient":
        return quotient
    return hilbert_series_ring(ring) - quotient


def hilbert_series_ring(ring):
    return HilbertSeriesRational.make({(0, 0): 1}, ring.degrees)


def hilbert_function(series, degree):
    """Power-series coefficient of the series at the given (bi)degree."""
    return series.coefficient(degree)


# ---------------------------------------------------------------------------
# Hilbert polynomials

@record
class HilbertPolynomial:
    """Exact polynomial agreeing with the Hilbert function for large degrees."""

    coeffs: tuple          # ascending Q[s] coefficients
    threshold: int         # agreement certified for degrees >= threshold
    dimension_hint: int    # number of standard denominator factors

    def __call__(self, x):
        from . import _qpoly as qp
        return qp.evaluate(self.coeffs, x)

    @property
    def degree(self):
        from . import _qpoly as qp
        return qp.degree(self.coeffs)

    def binomial_coefficients(self, count):
        """Coefficients on the basis binom(s + k, k), k = 0..count-1."""
        from . import _qpoly as qp
        return qp.to_binomial_basis(self.coeffs, count)

    def __eq__(self, other):
        if isinstance(other, HilbertPolynomial):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        from . import _qpoly as qp
        return "HilbertPolynomial(%s; stable from %d)" % (qp.format_poly(self.coeffs, "s"), self.threshold)


def hilbert_polynomial(series):
    """Hilbert polynomial of a standard graded series N(s)/(1-s)^n."""
    from . import _qpoly as qp

    n = 0
    for (a, b), mult in series.den:
        if b != 0:
            raise SeriesError("bigraded series: use bigraded_hilbert_polynomial")
        if a != 1:
            raise SeriesError("non-standard grading has only a quasi-polynomial")
        n += mult
    poly = ()
    max_deg = 0
    for (a, _b), c in series.num:
        max_deg = max(max_deg, a)
        poly = qp.add(poly, qp.scale(qp.binomial_in_x(n - 1 - a, n - 1), c))
    threshold = max(0, max_deg - n + 1)
    return HilbertPolynomial(poly, threshold, n)


@record
class BigradedHilbertPolynomial:
    """P(i, j) = sum c_kl * binom(i - d*j - u0, k) * binom(j - j0, l), with integer c_kl.

    P agrees with the Hilbert function wherever i - d*j >= u0 and j >= j0,
    where ``origin`` = (u0, j0).
    """

    shear: int
    coeffs: tuple       # ((k, l), int) sorted
    total_degree: int
    origin: tuple       # (u0, j0)

    def __call__(self, i, j):
        u0, j0 = self.origin
        u = i - self.shear * j - u0
        return sum(c * _binom(u, k) * _binom(j - j0, l) for (k, l), c in self.coeffs)


def _binom(x, k):
    """binom(x, k) as a polynomial in x, exact at every integer x."""
    out = 1
    for t in range(k):
        out *= x - t
    return out // factorial(k)


def bigraded_hilbert_polynomial(series):
    """Bigraded Hilbert polynomial of N(s, t) / ((1-s)^n prod_{k<=m} (1 - s^{d_k} t)), n, m >= 1.

    Let d = max d_k, u = i - d*j, j0 = deg_t N and u0 = max(0, max (a - d*b)
    - n + 1) over the support of N. A term s^a t^b of N adds, over the
    (x_1..x_m) >= 0 with sum j - b, binom(i - a - sum d_k x_k + n - 1, n - 1)
    to the coefficient of s^i t^j. On u >= u0, j >= j0 every j - b is >= 0
    and every i - a - sum d_k x_k is >= -(n-1), where that binomial is still
    the count, so the coefficient is a polynomial of total degree
    <= n + m - 2 in (u, j) there. Its coefficients on the basis
    binom(u - u0, k) binom(j - j0, l) are the forward differences of the
    Hilbert function at (u0, j0). Any other denominator raises SeriesError.
    """
    tvars = []
    n = 0
    for (a, b), mult in series.den:
        if (a, b) == (1, 0):
            n += mult
        elif b == 1:
            tvars.extend([a] * mult)
        else:
            raise SeriesError("denominator factor (1 - s^%d t^%d) is not (1 - s) or (1 - s^d t)" % (a, b))
    if not n or not tvars:
        raise SeriesError("need at least one (1 - s) and one (1 - s^d t) factor")
    d = max(tvars)
    D = n + len(tvars) - 2
    j0 = max((b for (a, b), c in series.num), default=0)
    u0 = max([0] + [a - d * b - n + 1 for (a, b), c in series.num])
    arr = series.expand(d * (j0 + D) + u0 + D, j0 + D)
    grid = [[arr[d * (j0 + q) + u0 + p][j0 + q] for q in range(D + 1 - p)] for p in range(D + 1)]
    coeffs = []
    for k in range(D + 1):
        for l in range(D + 1 - k):
            c = sum(
                (-1) ** (k - p + l - q) * comb(k, p) * comb(l, q) * grid[p][q]
                for p in range(k + 1) for q in range(l + 1)
            )
            if c:
                coeffs.append(((k, l), c))
    total = max((k + l for (k, l), c in coeffs), default=0)
    return BigradedHilbertPolynomial(d, tuple(coeffs), total, (u0, j0))


# ---------------------------------------------------------------------------
# dimension / multiplicity / relevant dimension

@record
class DimMultReport:
    dimension: int
    multiplicity: Fraction
    relevant_dimension: int | None


def dim_mult(series, with_relevant=True):
    """Krull dimension (pole order), multiplicity, relevant dimension.

    ``with_relevant=False`` skips the bigraded polynomial fit and reports
    only dimension and multiplicity (relevant dimension None for bigraded
    input).
    """
    # specialize s, t -> z with weight a+b per factor; pole order at z = 1
    weights = [a + b for (a, b), m in series.den for _ in range(m)]
    work = [0] * (max((a + b for (a, b), _ in series.num), default=0) + 1)
    for (a, b), c in series.num:
        work[a + b] += c
    order = 0
    while sum(work) == 0 and any(work):
        # divide by (1 - z): N(z) = (1-z) * Q(z) with q_k = sum_{i<=k} n_i
        work = list(accumulate(work[:-1]))
        order += 1
    if not any(work):
        # zero module
        return DimMultReport(-1, Fraction(0), None)
    dim = len(weights) - order
    value = sum(work)
    # dimension zero: the total length
    mult = Fraction(value) if order == len(weights) else Fraction(value, prod(weights))
    bigraded = any(b for (a, b), m in series.den)
    rel = None
    if not bigraded:
        rel = dim
    elif with_relevant:
        try:
            hp = bigraded_hilbert_polynomial(series)
            rel = hp.total_degree + 2
        except SeriesError:
            rel = None
    return DimMultReport(dim, mult, rel)


def krull_dimension(series):
    return dim_mult(series, with_relevant=False).dimension
