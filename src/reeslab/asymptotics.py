"""Extrapolation of Hilbert data and resolutions of ideal powers; mixed multiplicities."""

from __future__ import annotations

from fractions import Fraction

from . import _qpoly as qp
from ._record import record
from .hilbert import HilbertPolynomial, HilbertSeriesRational, bigraded_hilbert_polynomial


class FitError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Hilbert polynomials of powers

@record
class PowerPolynomialFamily:
    """Integer-valued polynomials e_0(j), ..., e_{n-h-1}(j) describing P_{A/I^j}.

    P_{A/I^j}(s) = sum_k (-1)^(n-h-1-k) e_{n-h-1-k}(j) binom(s+k, k) for every
    j > threshold; deg e_{n-h-1-k} <= n-k-1.
    """

    polys: tuple           # e_0 .. e_{n-h-1} as coefficient tuples
    n: int
    h: int
    threshold: int
    validated_on: tuple

    def hilbert_polynomial(self, j):
        """Predicted Hilbert polynomial of A/I^j."""
        n, h = self.n, self.h
        poly = ()
        for k in range(n - h):
            e = qp.evaluate(self.polys[n - h - 1 - k], j)
            sign = 1 if (n - h - 1 - k) % 2 == 0 else -1
            poly = qp.add(poly, qp.scale(qp.binomial_in_x(k, k), sign * e))
        return HilbertPolynomial(poly, 0, n)

    def to_json(self):
        return {
            "e": [[str(c) for c in poly] for poly in self.polys],
            "n": self.n,
            "h": self.h,
            "threshold": self.threshold,
            "validated_on": list(self.validated_on),
        }


def fit_hilbert_polynomials(samples):
    """Fit the power family from Hilbert polynomials of A/I^j.

    ``samples`` maps j >= 1 to HilbertPolynomial, at powers where the family
    holds. No point is added at j = 0, where it need not hold. n is each
    sample's dimension_hint and h = n - 1 - deg P_{A/I^j}; samples that
    disagree on either raise. Each e_i is interpolated on its minimal point
    count and verified on every remaining sample; the threshold is one below
    the least sampled power.
    """
    shapes = {(p.dimension_hint, p.dimension_hint - 1 - p.degree) for p in samples.values()}
    if len(shapes) != 1:
        raise FitError("need samples that agree on (n, h), got %s" % sorted(shapes))
    (n, h), = shapes
    if h >= n:
        raise FitError("height n case has zero-dimensional quotients; no family")
    count = n - h
    js = sorted(samples)
    if len(js) < n:
        # e_i is interpolated on h + i + 1 samples
        i = max(0, len(js) - h)
        raise FitError("need %d samples for e_%d (degree <= %d), got %d" % (h + i + 1, i, h + i, len(js)))
    coeffs = {j: samples[j].binomial_coefficients(count) for j in js}
    polys, validated = _fit_and_check(
        range(count), lambda i, j: (-1) ** i * coeffs[j][count - 1 - i], js, lambda i: h + i + 1,
        "inconsistent samples: e_%d fails at j=%d")
    for i, poly in enumerate(polys):
        if not qp.takes_integer_values(poly, range(0, max(js) + 6)):
            raise FitError("e_%d is not integer-valued" % i)
    return PowerPolynomialFamily(polys, n, h, min(js) - 1, validated)


def _fit_and_check(keys, value, js, count, failure):
    """Fit each key's values on the first count(key) of js and check them at the rest.

    value(key, j) is the sample at j. The polynomial of a key has degree
    below count(key) and runs through its first count(key) samples; a later
    sample it misses raises FitError(failure % (key, j)). Returns the
    polynomials in key order and the checked js, sorted.
    """
    polys = []
    checked = set()
    for key in keys:
        k = count(key)
        poly = qp.interpolate([(j, value(key, j)) for j in js[:k]], max_degree=k - 1)
        for j in js[k:]:
            if qp.evaluate(poly, j) != value(key, j):
                raise FitError(failure % (key, j))
            checked.add(j)
        polys.append(poly)
    return tuple(polys), tuple(sorted(checked))


# ---------------------------------------------------------------------------
# mixed multiplicities

@record
class MixedMultiplicities:
    """e_i(R) for i < n and e_i(G) for i < n - 1, and their totals."""

    rees: tuple
    form: tuple

    @property
    def rees_total(self):
        return sum(self.rees)

    @property
    def form_total(self):
        return sum(self.form)

    @property
    def height(self):
        """h, from the last nonzero e_i(G), which is e_(n-h-1)(G)."""
        return len(self.form) - max(i for i, e in enumerate(self.form) if e)

    def to_json(self):
        return {
            "e_R": list(self.rees),
            "e_G": list(self.form),
            "e_R_total": self.rees_total,
            "e_G_total": self.form_total,
        }


def mixed_multiplicities(P):
    """The mixed multiplicities of R = R(I) and of its form ring G, read off H_R.

    P presents R for an ideal I generated in one degree d of a polynomial ring
    in n variables. R's bigraded Hilbert polynomial has total degree n - 1 in
    u = s - d*j and j, and its top-degree coefficients on binom(u, k) binom(j, l)
    are e_i(R) = c_(i, n-1-i) (Herrmann-Hyry-Ribbe-Tang, J. Algebra 197, 1997).
    Then e_i(G) = d e_(i+1)(R) - e_i(R). For I of height h < n, e_(n-h-1)(G) is
    h! times the leading coefficient of e(A/I^j) as a polynomial in j, so it is
    positive, and every later e_i(G) is 0. An m-primary I has e_i(R) = d^(n-1-i),
    so every e_i(G) is 0; it is refused.
    """
    if not P.equigenerated:
        raise FitError("mixed multiplicities need an equigenerated ideal")
    P.check_t_slices()
    c = dict(bigraded_hilbert_polynomial(P.series()).coeffs)
    n, d = P.x_count, P.max_degree
    rees = tuple(c.get((i, n - 1 - i), 0) for i in range(n))
    form = tuple(d * rees[i + 1] - rees[i] for i in range(n - 1))
    if not any(form):
        raise FitError("maximal-height (primary) ideals have an irrelevant diagonal cone")
    return MixedMultiplicities(rees, form)


# ---------------------------------------------------------------------------
# Hilbert series of powers (equigenerated template)

@record
class SeriesTemplateFamily:
    """Numerator template: H_{I^j} (1-s)^n = sum_alpha P_alpha(j) s^(alpha + d j) for every j > threshold."""

    offsets: tuple
    polys: tuple            # aligned with offsets; coefficient tuples, deg <= l-1
    d: int
    l: int
    n: int
    threshold: int
    validated_on: tuple

    def predict(self, j):
        num = {}
        for alpha, poly in zip(self.offsets, self.polys):
            c = qp.evaluate(poly, j)
            if c:
                if c.denominator != 1:
                    raise FitError("template value at j=%d is not an integer" % j)
                num[(self.d * j + alpha, 0)] = int(c)
        return HilbertSeriesRational.make(num, [(1, 0)] * self.n)

    def to_json(self):
        return {
            "offsets": list(self.offsets),
            "polynomials": {str(a): [str(c) for c in p] for a, p in zip(self.offsets, self.polys)},
            "threshold": self.threshold,
            "validated_on": list(self.validated_on),
            "d": self.d,
            "l": self.l,
        }


def _standard_numerator(series, n):
    den = dict(series.den)
    if den != {(1, 0): n}:
        raise FitError("series is not over (1-s)^%d" % n)
    return {a: c for (a, b), c in series.num if c}


def fit_hilbert_series(samples, d, l, include_zero=True):
    """Fit the numerator template of H_{I^j} for an equigenerated ideal.

    ``samples`` maps j to the series of I^j over (1-s)^n. The unit sample
    j = 0 (numerator 1) is included by default. Polynomials have degree
    <= l-1; extra samples validate the fit.
    """
    js = sorted(samples)
    if not js:
        raise FitError("no samples")
    n = sum(m for (a, b), m in samples[js[0]].den)
    numerators = {}
    if include_zero and 0 not in samples:
        numerators[0] = {0: 1}
    for j in js:
        numerators[j] = _standard_numerator(samples[j], n)
    offsets = set()
    for j, num in numerators.items():
        for a, c in num.items():
            off = a - d * j
            if off < 0:
                raise FitError(
                    "negative offset at j=%d: ideal not generated in degree %d" % (j, d)
                )
            offsets.add(off)
    offsets = tuple(sorted(offsets))
    all_js = sorted(numerators)
    if len(all_js) < l:
        raise FitError("window too small: need %d powers, have %d" % (l, len(all_js)))
    polys, validated = _fit_and_check(
        offsets, lambda alpha, j: numerators[j].get(d * j + alpha, 0), all_js, lambda alpha: l,
        "validation failure at offset %d, j=%d")
    return SeriesTemplateFamily(offsets, polys, d, l, n, min(j for j in all_js if j > 0) - 1, validated)


# ---------------------------------------------------------------------------
# projective dimension of powers

@record
class ProjDimReport:
    observed: tuple          # ((j, proj dim), ...)
    stable_value: int | None
    stable_from: int | None
    predicted_threshold: int | None
    prediction_consistent: bool | None

    def to_json(self):
        return {
            "observed": [[j, p] for j, p in self.observed],
            "stable_value": self.stable_value,
            "stable_from": self.stable_from,
            "predicted_threshold": self.predicted_threshold,
            "prediction_consistent": self.prediction_consistent,
        }


def stable_projdim(tables, l, a2_form_ring=None, a_fiber=None):
    """Observed projective dimensions and, with Gorenstein inputs, the sharp threshold.

    With a Gorenstein form ring, proj.dim I^j = l-1 exactly for
    j > a2_form_ring - a_fiber; without those inputs the stabilization point
    is detected empirically from the computed tables.
    """
    observed = []
    for j in sorted(tables):
        table = tables[j]
        if not table.complete:
            raise FitError("table for power %d is truncated" % j)
        observed.append((j, table.max_index()))
    stable_value = observed[-1][1] if observed else None
    stable_from = None
    for j, p in reversed(observed):
        if p == stable_value:
            stable_from = j
        else:
            break
    predicted = None
    consistent = None
    if a2_form_ring is not None and a_fiber is not None:
        predicted = a2_form_ring - a_fiber
        consistent = all(
            (p == l - 1) == (j > predicted) for j, p in observed
        )
    return ProjDimReport(tuple(observed), stable_value, stable_from, predicted, consistent)


# ---------------------------------------------------------------------------
# resolution templates

@record
class ResolutionTemplate:
    """Per homological index: stable offsets and Betti polynomials in j."""

    offsets: tuple           # ((p, alpha), ...) sorted
    polys: tuple             # aligned coefficient tuples, deg <= l-1
    d: int
    l: int
    threshold: int
    linear: bool
    validated_on: tuple

    def betti_number(self, p, alpha, j):
        for (pp, aa), poly in zip(self.offsets, self.polys):
            if (pp, aa) == (p, alpha):
                return qp.evaluate(poly, j)
        return Fraction(0)

    def predict(self, j):
        """Expected table rows [(p, degree, rank)] for I^j."""
        rows = []
        for (p, alpha), poly in zip(self.offsets, self.polys):
            v = qp.evaluate(poly, j)
            if v:
                if v.denominator != 1 or v < 0:
                    raise FitError("template rank at j=%d is not a natural number" % j)
                rows.append((p, (self.d * j + alpha, 0), int(v)))
        rows.sort()
        return rows

    def matches(self, j, table):
        return self.predict(j) == sorted((p, d, r) for p, d, r in table.rows())

    def to_json(self):
        return {
            "offsets": [[p, a] for p, a in self.offsets],
            "polynomials": {
                "%d,%d" % (p, a): [str(c) for c in poly]
                for (p, a), poly in zip(self.offsets, self.polys)
            },
            "threshold": self.threshold,
            "linear": self.linear,
            "validated_on": list(self.validated_on),
        }


def predict_resolutions(tables, l, d, threshold):
    """Fit shift offsets and Betti polynomials from tables of consecutive powers.

    ``tables`` maps j -> BettiTable of I^j (as ideal); usable samples are the
    js > threshold - l (the stable range). Offsets must not vary with j:
    varying offsets raise, they are not templatable by a linear-shift family.
    """
    js = sorted(j for j in tables if j >= threshold - l + 1)
    if len(js) < l:
        raise FitError("window insufficient: need %d stable powers past %d" % (l, threshold - l))
    if js != list(range(js[0], js[0] + len(js))):
        raise FitError("stable powers must be consecutive")
    per_index = {}
    for j in js:
        table = tables[j]
        if not table.complete:
            raise FitError("table for power %d is truncated" % j)
        for p, (a, b), r in table.rows():
            per_index.setdefault((p, a - d * j), {})[j] = r
    offsets = tuple(sorted(per_index))
    for p, alpha in offsets:
        if alpha < 0:
            raise FitError("offset %d below the generation degree at p=%d" % (alpha, p))
    polys, validated = _fit_and_check(
        offsets, lambda key, j: per_index[key].get(j, 0), js, lambda key: l,
        "validation failure for offset %s at j=%d")
    linear = all(alpha == p for p, alpha in offsets)
    return ResolutionTemplate(offsets, polys, d, l, threshold, linear, validated)
