"""Generic initial ideals, Borel-fix detection, Borel regularity and the bigraded regularity test."""

from __future__ import annotations

import hashlib
import random

from ._record import record
from .groebner import (
    Ideal,
    _fitting,
    _hilbert_skip,
    _packed_run,
    _sugar_is_degree,
    _times,
    _to_int_poly,
)
from .rings import MonomialPacking, Polynomial, _is_prime


class GinError(ValueError):
    pass


def _degree_blocks(ring):
    """Runs of variables sharing a bidegree: the graded coordinate changes mix only these."""
    blocks = {}
    for i, d in enumerate(ring.degrees):
        blocks.setdefault(d, []).append(i)
    return list(blocks.values())


def _random_upper_unitriangular(indices, rng, bound):
    """Entries g[i][j] for i, j in the block, upper triangular, units on the diagonal."""
    k = len(indices)
    g = [[0] * k for _ in range(k)]
    for a in range(k):
        g[a][a] = 1
        for b in range(a + 1, k):
            g[a][b] = rng.randint(-bound, bound)
    return g


def apply_coordinate_change(I, blocks, matrices, order):
    """Substitute x_j -> sum_i g[i][j] x_i blockwise (a graded automorphism); integer entries g.

    Returns (P, moved), the moved generators of I as integer dicts packed by
    P for the order, with room for a product of two: a Buchberger run takes
    them as they are. Over Q each is the image of the generator times the
    lcm of its denominators. The powers of each image are memoised.
    """
    ring = I.ring
    char = ring.field.char
    # an image is linear, so the moved terms have the degrees of the generators' terms
    P = _fitting(ring.nvars, (m for f in I.gens for m, _ in f.terms), order)
    powers = [[{0: 1}, {u: 1}] for u in P.units]    # powers[j][e]: the e-th power of x_j's image
    for indices, g in zip(blocks, matrices):
        for col, j in enumerate(indices):
            powers[j][1] = {P.units[i]: g[row][col] for row, i in enumerate(indices) if g[row][col]}
    moved = []
    for f in I.gens:
        d = _to_int_poly(f)[0]
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
        if char:
            moved.append({m: c % char for m, c in acc.items() if c % char})
        else:
            moved.append({m: c for m, c in acc.items() if c})
    return P, moved


@record
class GinResult:
    ideal: Ideal
    trials: int
    agreement: int
    seed: int
    order: object
    entry_bound: int
    matrix_hash: str

    def generators(self):
        return sorted(g.leading_monomial() for g in self.ideal.gens)

    def to_json(self):
        return {
            "generators": [repr(g) for g in self.ideal.gens],
            "trials": self.trials,
            "agreement": self.agreement,
            "seed": self.seed,
            "entry_bound": self.entry_bound,
            "matrix_hash": self.matrix_hash,
        }


def generic_initial_ideal(I, order=None, trials=3, seed=0, entry_bound=100, max_rounds=3):
    """Common initial ideal of random graded coordinate changes of I.

    Dense integer upper-triangular changes with unit diagonals act on each
    same-bidegree block. All trials must agree; a disagreement doubles the
    entry bound. The stable result is checked to be Borel-fix.

    A change keeps the Hilbert series, so where Buchberger can skip pairs by
    it (a standard graded ring under a degree order), the series of ring/I
    is computed once and each trial's initial ideal stops at it.
    """
    if I.ring.field.char != 0:
        raise GinError("generic initial ideals are computed over Q only")
    if trials < 1:
        raise GinError("need at least one trial, got %d" % trials)
    if not I.is_homogeneous():
        raise GinError("ideal must be homogeneous")
    order = order or I.ring.order
    if I.is_zero():
        return GinResult(Ideal(I.ring, []), trials, trials, seed, order, entry_bound, "")
    blocks = _degree_blocks(I.ring)
    skip = None
    if _sugar_is_degree(I.ring, order):
        from .hilbert import hilbert_series_ideal    # here, so that importing ginreg loads no hilbert

        skip = _hilbert_skip(I.ring, order, hilbert_series_ideal(I), True)
    bound = entry_bound
    for round_ in range(max_rounds):
        results = []
        hashes = hashlib.sha256()
        for t in range(trials):
            rng = random.Random("%d:%d:%d" % (seed, round_, t))
            mats = [_random_upper_unitriangular(b, rng, bound) for b in blocks]
            hashes.update(repr(mats).encode())
            P, basis = _packed_run(I.ring, *apply_coordinate_change(I, blocks, mats, order), skip)
            results.append(tuple(sorted(P.unpack(t[0]) for t in basis)))
        agreement = sum(1 for rr in results if rr == results[0])
        if agreement == trials:
            gens = [Polynomial(I.ring, {m: I.ring.field.one}) for m in results[0]]
            out = Ideal(I.ring, gens)
            report = borel_fix_check(out)
            if not report.is_borel:
                raise GinError(
                    "stable initial ideal is not Borel-fix (witness %r); "
                    "this contradicts genericity - raise the entry bound" % (report.witness,)
                )
            return GinResult(
                out, trials, agreement, seed, order, bound, hashes.hexdigest()[:16]
            )
        bound *= 2
    raise GinError("unstable after %d rounds: trials keep disagreeing" % max_rounds)


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
    if s > t:
        return False
    if p == 0:
        return True
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

    def member(mono):
        return P.divisible(P.pack(mono), packed)

    for m in gens:
        for block in blocks:
            for bj, j in enumerate(block):
                t = m[j]
                if t == 0:
                    continue
                for i in block[:bj]:
                    for s in range(1, t + 1):
                        if not _dominated_by_p(s, t, char_p):
                            continue
                        moved = list(m)
                        moved[j] -= s
                        moved[i] += s
                        if not member(tuple(moved)):
                            return BorelReport(False, char_p, (m, i, j, s), None)
    delta = None
    if gens:
        degs = [ring.monomial_degree(m) for m in gens]
        delta = (max(d[0] for d in degs), max(d[1] for d in degs))
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


def bayer_stillman_check(I, m, q_window=None, seed=0, entry_bound=100):
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
    if any(g.multidegree()[0] > m for g in I.gens):
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
    note = (
        "certificate via the generic-form direction; the number of forms used "
        "is reported because the cohomological count is not computed"
    )
    for step in range(len(x_block) + 1):
        if all(H.coefficient((m, q)) == 0 for q in qs):
            return RegularityCheck(True, m, tuple(q_window), forms, seed, note)
        if step == len(x_block):
            break
        h = ring.zero()
        for i in x_block:
            h = h + ring.variable(i).scale(rng.randint(-entry_bound, entry_bound))
        J = Ideal(ring, list(J.gens) + [h])
        forms += 1
        H_next = hilbert_series_ideal(J)
        if any(H_next.coefficient((m + 1, q)) != H.coefficient((m + 1, q)) - H.coefficient((m, q))
               for q in qs):
            return RegularityCheck(False, m, tuple(q_window), forms, seed, note)
        H = H_next
    raise GinError(
        "window %r exhausted without certificate: widen q_window" % (q_window,)
    )
