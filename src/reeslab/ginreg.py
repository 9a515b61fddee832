"""Generic initial ideals, Borel-fix detection, Borel regularity and the bigraded regularity test."""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import comb

from ._record import record
from .groebner import (Ideal, _fitting, _hilbert_skip, _int_generators, _packed_run, _sugar_is_degree, _times,
                       minimal_generators)
from .rings import DEGREVLEX, MonomialPacking, Polynomial, _is_prime

_ENTRY_BOUND = 100    # a drawn change has its entries in [-B, B]


class GinError(ValueError):
    pass


def _degree_blocks(ring):
    """Runs of variables sharing a bidegree: the graded coordinate changes mix only these."""
    blocks = {}
    for i, d in enumerate(ring.degrees):
        blocks.setdefault(d, []).append(i)
    return list(blocks.values())


def _random_upper_unitriangular(indices, rng, bound):
    """Entries g[i][j] for i, j in the block, upper triangular, units on the diagonal; drawn row by row."""
    k = len(indices)
    return [[rng.randint(-bound, bound) if a < b else int(a == b) for b in range(k)] for a in range(k)]


def apply_coordinate_change(I, blocks, matrices, order):
    """Substitute x_j -> sum_i g[i][j] x_i blockwise (a graded automorphism); integer entries g.

    Returns (P, moved), the moved generators of I as integer dicts packed by
    P for the order, with room for a product of two: a Buchberger run takes
    them as they are, and over F_p reduces their coefficients itself. Each
    is the image of a nonzero multiple of the generator, read off
    _int_generators, so a power's packed products are moved as they are.
    The powers of each image are memoised.
    """
    ring = I.ring
    char = ring.field.char
    gens = _int_generators(I)
    # an image is linear, so the moved terms have the degrees of the generators' terms
    P = _fitting(ring.nvars, (m for d in gens for m in d), order)
    powers = [[{0: 1}, {u: 1}] for u in P.units]    # powers[j][e]: the e-th power of x_j's image
    for indices, g in zip(blocks, matrices):
        for col, j in enumerate(indices):
            powers[j][1] = {P.units[i]: g[row][col] for row, i in enumerate(indices) if g[row][col]}
    moved = []
    for d in gens:
        acc = {}
        for mono, coeff in d.items():
            term = {0: coeff}
            for pw, e in zip(powers, mono):
                if e:
                    while len(pw) <= e:
                        pw.append(_times(pw[-1], pw[1], char))
                    term = _times(term, pw[e], char)
            for m, c in term.items():
                acc[m] = acc.get(m, 0) + c
        moved.append({m: c for m, c in acc.items() if c})
    return P, moved


@record
class GinResult:
    ideal: Ideal
    trials: int
    seed: int
    order: object
    entry_bound: int
    matrix_hash: str
    error_bound: Fraction | None    # a bound on the chance that ideal is not gin(I), where one is proved

    def generators(self):
        return sorted(g.leading_monomial() for g in self.ideal.gens)

    def to_json(self):
        return {
            "generators": [repr(g) for g in self.ideal.gens],
            "trials": self.trials,
            "seed": self.seed,
            "entry_bound": self.entry_bound,
            "matrix_hash": self.matrix_hash,
            "error_bound": None if self.error_bound is None else str(self.error_bound),
        }


def generic_initial_ideal(I, order=None, trials=3, seed=0):
    """gin(I) for the order over Q: the initial ideal of one random graded change per trial.

    Trial t draws from random.Random("seed:0:t") an upper-unitriangular g per
    block of same-bidegree variables, entries uniform in [-B, B], B =
    _ENTRY_BOUND, and takes in(g I) under x_j -> sum_i g[i][j] x_i. The trials
    must agree on a Borel-fixed ideal, as gin(I) is in characteristic 0
    (Eisenbud, Commutative Algebra, 15.9), or a draw was not generic and
    GinError names the trials or the Borel witness. g keeps the Hilbert series,
    so on a standard graded ring each trial's Buchberger skips pairs by it.

    error_bound: the result is not gin(I) with probability at most eps^trials,
    eps = sum_{d <= D} d dim I_d / (2B + 1), D the result's top generator
    degree. It is proved for degrevlex (x_0 > x_1 > ...) on a standard graded
    ring, the zero ideal gets 0, and elsewhere, or if eps >= 1, it is None.
    1. in(g I)_d = gin(I)_d iff g I_d has a nonzero Pluecker coordinate at
       gin(I)_d, the largest set in(g I)_d over all g (Eisenbud 15.9). g maps
       a basis of I_d to forms with coefficients of degree d in g, so that
       coordinate has degree <= d dim I_d in g.
    2. A generic g is l u, l lower triangular, u upper unitriangular (its
       leading principal minors are nonzero). l sends x_j to l_jj x_j plus
       smaller variables, so it keeps leading terms: in(g I) = in(u I). So a
       drawable u attains gin(I), the coordinate of 1 is nonzero on the drawn
       family, and a draw is a zero of it with probability at most
       d dim I_d / (2B + 1) (Schwartz, J. ACM 27, 1980, Corollary 1).
    3. If in(u I)_d = gin(I)_d up to gin(I)'s top generator degree D_gin, then
       gin(I) lies in in(u I) with the same Hilbert function, so they are equal.
       D_gin = reg(gin(I)) = reg(I) by Eliahou-Kervaire (J. Algebra 129, 1990)
       and Bayer-Stillman (Invent. Math. 87, 1987). The result M is Borel-fixed,
       so D = reg(M) >= reg(u I) = D_gin, as Betti numbers only grow in the flat
       Groebner degeneration (upper semicontinuity, Eisenbud 15.8).
    4. So one trial errs with probability at most eps, and a wrong answer needs
       every independent trial to err.
    """
    if I.ring.field.char != 0:
        raise GinError("generic initial ideals are computed over Q only")
    if trials < 1:
        raise GinError("need at least one trial, got %d" % trials)
    if not I.is_homogeneous():
        raise GinError("ideal must be homogeneous")
    ring = I.ring
    order = order or ring.order
    if I.is_zero():
        return GinResult(Ideal(ring, []), trials, seed, order, _ENTRY_BOUND, "", Fraction(0))
    blocks = _degree_blocks(ring)
    series = skip = None
    if _sugar_is_degree(ring):
        from .hilbert import hilbert_series_ideal    # here, so that importing ginreg loads no hilbert

        series = hilbert_series_ideal(I)
        skip = _hilbert_skip(ring, series, True)
    results = []
    hashes = hashlib.sha256()
    for t in range(trials):
        rng = random.Random("%d:0:%d" % (seed, t))
        mats = [_random_upper_unitriangular(b, rng, _ENTRY_BOUND) for b in blocks]
        hashes.update(repr(mats).encode())
        P, basis = _packed_run(ring, *apply_coordinate_change(I, blocks, mats, order), skip)
        results.append(tuple(sorted(P.unpack(t[0]) for t in basis)))
    apart = [t for t, r in enumerate(results) if r != results[0]]
    if apart:
        raise GinError("trials %s disagree with trial 0 at seed %d: a draw was not generic"
                       % (", ".join(map(str, apart)), seed))
    out = Ideal(ring, [Polynomial(ring, {m: ring.field.one}) for m in results[0]])
    report = borel_fix_check(out)
    if not report.is_borel:
        raise GinError("the trials agree on an initial ideal that is not Borel-fixed (witness %r) "
                       "at seed %d: the draws were not generic" % (report.witness, seed))
    bound = None
    if series is not None and order.weight_rows(ring.nvars) == DEGREVLEX.weight_rows(ring.nvars):
        n = ring.nvars
        eps = Fraction(sum(d * (comb(n + d - 1, d) - series.coefficient(d))
                           for d in range(max(map(sum, results[0])) + 1)), 2 * _ENTRY_BOUND + 1)
        bound = eps ** trials if eps < 1 else None
    return GinResult(out, trials, seed, order, _ENTRY_BOUND, hashes.hexdigest()[:16], bound)


# ---------------------------------------------------------------------------
# Borel fixity

@record
class BorelReport:
    is_borel: bool
    char_p: int
    witness: tuple | None      # (monomial, i, j, s) violating the exchange move
    delta: tuple | None        # (delta_1, delta_2) of the minimal generators

    def to_json(self):
        return {
            "is_borel": self.is_borel,
            "char_p": self.char_p,
            "witness": [list(self.witness[0]), *self.witness[1:]] if self.witness else None,
            "delta": list(self.delta) if self.delta else None,
        }


def _dominated_by_p(s, t, p):
    """s <_p t: binom(t, s) != 0 mod p, by Lucas when p > 0; s <= t in char 0."""
    if s > t or p == 0:
        return s <= t
    while s or t:
        if s % p > t % p:
            return False
        s //= p
        t //= p
    return True


def borel_fix_check(J, char_p=0):
    """Exchange-move audit of a monomial ideal in characteristic char_p, 0 or a prime: exhaustive, never reasons."""
    if char_p and not _is_prime(char_p):
        raise GinError("characteristic must be 0 or a prime, got %d" % char_p)
    gens = []
    for g in J.gens:
        if len(g.terms) != 1:
            raise GinError("non-monomial generator %r" % g)
        gens.append(g.leading_monomial())
    ring = J.ring
    blocks = _degree_blocks(ring)

    # an exchange move keeps the degree, so no exponent exceeds it
    P = MonomialPacking.fitting(ring.nvars, max(map(sum, gens), default=0))
    packed = [P.pack(g) for g in gens]
    for m in gens:
        for block in blocks:
            for bj, j in enumerate(block):
                t = m[j]
                for i in block[:bj]:
                    for s in range(1, t + 1):
                        if not _dominated_by_p(s, t, char_p):
                            continue
                        moved = list(m)
                        moved[j] -= s
                        moved[i] += s
                        if not P.divisible(P.pack(tuple(moved)), packed):
                            return BorelReport(False, char_p, (m, i, j, s), None)
    degs = [ring.monomial_degree(m) for m in gens]
    delta = (max(d[0] for d in degs), max(d[1] for d in degs)) if degs else None
    return BorelReport(True, char_p, None, delta)


def borel_regularity(J):
    """reg of a Borel-fix monomial ideal in char 0: the generator-degree pair."""
    if J.ring.field.char != 0:
        raise GinError("the generator-degree formula needs characteristic 0")
    report = borel_fix_check(J, 0)
    if not report.is_borel:
        raise GinError("ideal is not Borel-fix: witness %r" % (report.witness,))
    if report.delta is None:
        raise GinError("the zero ideal has no regularity")
    return report.delta


# ---------------------------------------------------------------------------
# bigraded regularity test via generic linear forms

@record
class RegularityCheck:
    verdict: bool
    first_degree: int
    window: tuple
    forms_used: int
    seed: int
    note: str

    def to_json(self):
        return {
            "verdict": self.verdict,
            "first_degree": self.first_degree,
            "window": list(self.window),
            "forms_used": self.forms_used,
            "seed": self.seed,
            "note": self.note,
        }


def bayer_stillman_check(I, m, q_window=None, seed=0):
    """(m, .)-regularity by the generic-form colon equalities on graded pieces.

    Works through generic linear forms h in the degree-(1,0) block: at each
    step either the current ideal fills every S_(m,q) on the window, or the
    colon by the next form must leave the (m, q)-pieces unchanged. Both are
    read off H = H_{S/J}: J fills S_(m,q) iff H(m,q) = 0, and the exact
    sequence 0 -> ((J:h)/J)(-1,0) -> (S/J)(-1,0) -> S/J -> S/(J+h) -> 0
    gives (J:h)_(m,q) = J_(m,q) iff H_{S/(J+h)}(m+1,q) = H(m+1,q) - H(m,q).
    The window is reported; exhausting it without a certificate raises, it
    never passes silently.
    """
    from .hilbert import hilbert_series_ideal    # here, so that importing ginreg loads no hilbert

    ring = I.ring
    if ring.field.char != 0:
        raise GinError("the generic-form test is run over Q")
    if not I.is_homogeneous():
        raise GinError("ideal must be homogeneous")
    x_block = [i for i, d in enumerate(ring.degrees) if d == (1, 0)]
    if not x_block:
        raise GinError("no degree-(1,0) variables to draw generic forms from")
    # a redundant generator above m is harmless, so the minimal ones are found only then
    if any(g.multidegree()[0] > m for g in I.gens) and any(
            g.multidegree()[0] > m for g in minimal_generators(ring, I.gens)):
        raise GinError("ideal has a generator of first degree above %d" % m)
    if q_window is None:
        qmax = max((g.multidegree()[1] for g in I.gens), default=0)
        q_window = (0, qmax + sum(1 for d in ring.degrees if d[1] > 0) + 1)
    qs = range(q_window[0], q_window[1] + 1)
    if not qs:
        raise GinError("empty q-window %r: no q to certify" % (tuple(q_window),))
    rng = random.Random(seed)
    J = I
    H = hilbert_series_ideal(J)
    forms = 0
    note = ("certificate via the generic-form direction; the number of forms used "
            "is reported because the cohomological count is not computed")
    for step in range(len(x_block) + 1):
        if all(H.coefficient((m, q)) == 0 for q in qs):
            return RegularityCheck(True, m, tuple(q_window), forms, seed, note)
        if step == len(x_block):
            break
        h = sum((ring.variable(i).scale(rng.randint(-_ENTRY_BOUND, _ENTRY_BOUND)) for i in x_block), ring.zero())
        J = Ideal(ring, list(J.gens) + [h])
        forms += 1
        H_next = hilbert_series_ideal(J)
        if any(H_next.coefficient((m + 1, q)) != H.coefficient((m + 1, q)) - H.coefficient((m, q))
               for q in qs):
            return RegularityCheck(False, m, tuple(q_window), forms, seed, note)
        H = H_next
    raise GinError("window %r exhausted without certificate: widen q_window" % (q_window,))
