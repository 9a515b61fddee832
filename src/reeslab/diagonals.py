"""Diagonal subalgebras k[(I^e)_c]: Hilbert data, dimension, CM and Gorenstein criteria."""

from __future__ import annotations

from ._record import record


class DiagonalError(ValueError):
    pass


@record
class DiagonalSpec:
    """A (c, e)-diagonal; admissible against degree d when c >= d e + 1."""

    c: int
    e: int

    def __post_init__(self):
        if self.c < 1 or self.e < 1:
            raise DiagonalError("c and e must be positive")

    def admissible(self, d):
        return self.c >= d * self.e + 1


@record
class DiagonalReport:
    """Outcome of one closed-form criterion, with its provenance."""

    criterion: str
    inputs: dict
    verdict: object            # True / False / "not-decided", or an int alpha
    a_invariant: int | None = None
    assumptions: tuple = ()
    sufficient_only: bool = False

    def to_json(self):
        out = {
            "criterion": self.criterion,
            "inputs": {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.inputs.items()},
            "verdict": self.verdict,
            "assumptions": list(self.assumptions),
        }
        if self.a_invariant is not None:
            out["a_invariant"] = self.a_invariant
        if self.sufficient_only:
            out["sufficient_only"] = True
        return out


# ---------------------------------------------------------------------------
# Hilbert data of diagonals

def diagonal_hilbert_function(P, spec, s_max):
    """dim_k (I^{e s})_{c s} for s = 0..s_max: the Rees series H_R of P read at (c s, e s)."""
    if s_max < 0:
        raise DiagonalError("no values for s = 0..%d: s_max must be >= 0" % s_max)
    if not spec.admissible(P.max_degree):
        raise DiagonalError("inadmissible diagonal: need c >= d e + 1")
    P.check_t_slices()
    c, e = spec.c, spec.e
    arr = P.series().expand(c * s_max, e * s_max)
    return [arr[c * s][e * s] for s in range(s_max + 1)]


def diagonal_dimension(P, spec):
    """dim k[(I^e)_c], read off the bigraded Hilbert polynomial of the Rees series of P.

    Past its origin that polynomial, at (c s, e s), is the diagonal Hilbert
    function; for an admissible diagonal its top form is nonnegative and
    nonzero there, so the diagonal has dimension total degree + 1.
    """
    from .hilbert import bigraded_hilbert_polynomial

    if not spec.admissible(P.max_degree):
        raise DiagonalError("inadmissible diagonal: need c >= d e + 1")
    return bigraded_hilbert_polynomial(P.series()).total_degree + 1


# ---------------------------------------------------------------------------
# Gorenstein diagonals (closed-form families)

def _require_positive(rule, **values):
    """Refuse a number of variables or generators, a matrix size or a degree below 1."""
    for name, value in values.items():
        if value is not None and any(v < 1 for v in (value if isinstance(value, tuple) else (value,))):
            raise DiagonalError("%s needs %s >= 1" % (rule, "every degree" if name == "degrees" else name))


def _gorenstein_solutions(N, A, d):
    """The (c, e, l0) with c l0 = N, e l0 = A and c >= d e + 1, in increasing l0."""
    return [(N // l0, A // l0, l0) for l0 in range(1, min(N, A) + 1)
            if N % l0 == A % l0 == 0 and N // l0 >= d * (A // l0) + 1]


def gorenstein_diagonals(family, **params):
    """Finite solution set of the Gorenstein-diagonal equations for a family.

    Returns a list of DiagonalReports, one per diagonal (c, e), each carrying
    a(k[(I^e)_c]) = -l0, where c l0 = N, e l0 = A and c >= d e + 1 for the
    family's (N, A, d). r defaults to len(degrees). Families:

    - ``polynomial-ring``: S itself; needs n, degrees, r; (n + u, r, max deg).
    - ``general``: Gorenstein form ring; needs n, a (= -a^2(G)), d >= 1, and
      reads height, dim_positive; (n, a - 1, d).
    - ``complete-intersection``: needs n, degrees, r < n; (n, r - 1, max deg).
    - ``maximal-minors``: generic m x n matrix, m <= n; (mn, n - m, m), and for
      the principal determinant m = n, the polynomial-ring rule (mn + n, 1, m).
    """
    assumptions, sufficient_only = (), False
    if family == "polynomial-ring":
        n, r, degrees = params["n"], params.get("r", len(params["degrees"])), tuple(params["degrees"])
        _require_positive("polynomial-ring rule", n=n, r=r, degrees=degrees)
        N, A, d = n + sum(degrees), r, max(degrees)
        inputs = {"n": n, "r": r, "degrees": degrees}
    elif family == "general":
        n, a, d = params["n"], params["a"], params["d"]
        _require_positive("general rule", n=n, d=d)
        N, A = n, a - 1
        inputs = {"n": n, "a": a, "d": d}
        assumptions = ("form ring Gorenstein", "a = -a^2(G) supplied")
        height = params.get("height")
        if height is not None and (height < 2 or not params.get("dim_positive", True)):
            # outside 1 < ht < n the equality is only a sufficient direction
            sufficient_only = True
            assumptions += ("outside 1 < ht(I) < n the criterion is sufficient only",)
    elif family == "complete-intersection":
        n, r, degrees = params["n"], params.get("r", len(params["degrees"])), tuple(params["degrees"])
        _require_positive("complete-intersection rule", n=n, r=r, degrees=degrees)
        if r >= n:
            raise DiagonalError("complete-intersection rule needs r < n")
        N, A, d = n, r - 1, max(degrees)
        inputs = {"n": n, "a": r, "d": d, "degrees": degrees}
    elif family == "maximal-minors":
        m, n = params["m"], params["n"]
        if not 1 <= m <= n:
            raise DiagonalError("need 1 <= m <= n")
        N, A, d = (m * n, n - m, m) if m < n else (m * n + n, 1, m)
        inputs = {"m": m, "n": n}
    else:
        raise DiagonalError("unknown family %r" % family)
    return [
        DiagonalReport("gorenstein-diagonal:" + family, dict(inputs, c=c, e=e), True, a_invariant=-l0,
                       assumptions=assumptions, sufficient_only=sufficient_only)
        for c, e, l0 in _gorenstein_solutions(N, A, d)
    ]


def quasi_gorenstein_bounds(a, n, dim_positive=True):
    """Finite candidate set for quasi-Gorenstein diagonals when the Rees algebra is CM.

    Empty for a = 1. Candidates satisfy e <= a-1, c <= n and, with positive
    quotient dimension, ceil(a/e) - 1 = n/c as integers.
    """
    _require_positive("quasi-gorenstein bounds", n=n)
    assumptions = ("Rees algebra Cohen-Macaulay", "a = -a^2(G) supplied")
    if a <= 1:
        return []
    out = []
    for e in range(1, a):
        for c in range(1, n + 1):
            if dim_positive:
                l0 = -(-a // e) - 1  # ceil(a/e) - 1
                if l0 <= 0 or n % c or n // c != l0:
                    continue
            out.append(
                DiagonalReport(
                    "quasi-gorenstein-bounds",
                    {"a": a, "n": n, "c": c, "e": e, "dim_positive": dim_positive},
                    True,
                    assumptions=assumptions,
                )
            )
    return out


# ---------------------------------------------------------------------------
# Cohen-Macaulay criteria

def cm_diagonal_test(family, params, spec):
    """Closed-inequality CM verdict for a diagonal of a supported family: c > d (e - 1) + b.

    b is u + a(A) = u - n for a complete intersection in A = k[X_1..X_n], a(A/I) for an
    equimultiple ideal and the sum of the height largest degrees minus n for a strongly CM ideal.
    """
    if family == "complete-intersection":
        d, u, n = params["d"], params["u"], params["n"]
        _require_positive("complete-intersection criterion", d=d, u=u, n=n)
        b = u - n
        assumptions = ("Rees algebra of a complete intersection is Cohen-Macaulay",)
    elif family == "equimultiple":
        d, b = params["d"], params["a_quotient"]
        _require_positive("equimultiple criterion", d=d)
        if params["height"] <= 1:
            raise DiagonalError("equimultiple criterion needs height > 1")
        assumptions = ("Rees algebra Cohen-Macaulay", "ideal equimultiple")
    elif family == "strongly-cm":
        degs = tuple(sorted(params["degrees"], reverse=True))
        h, n = params["height"], params["n"]
        _require_positive("strongly-cm criterion", n=n, degrees=degs)
        if not 1 <= h <= len(degs):
            raise DiagonalError("strongly-cm criterion needs 1 <= height <= number of generators")
        d, b = degs[0], sum(degs[:h]) - n
        params = dict(params, degrees=degs)
        assumptions = ("strongly Cohen-Macaulay with local generation bounded by height",)
    else:
        raise DiagonalError("unknown family %r" % family)
    criterion, inputs = "cm-diagonal:" + family, dict(params, c=spec.c, e=spec.e)
    if not spec.admissible(d):
        raise DiagonalError("inadmissible diagonal")
    verdict = spec.c > d * (spec.e - 1) + b
    if family == "strongly-cm":
        # only sufficient: a failed inequality decides nothing
        return DiagonalReport(criterion, inputs, verdict or "not-decided", assumptions=assumptions,
                              sufficient_only=True)
    return DiagonalReport(criterion, inputs, verdict, assumptions=assumptions)


def cm_threshold_alpha(d, n, a2_form_ring=None, a1_shifted_rees=None):
    """Least alpha with: k[(I^e)_c] is CM for every c > d e + alpha.

    Route 1 (Gorenstein form ring): alpha = d(-a^2(G) - 1) - n.
    Route 2: alpha = a^1 of the sheared Rees algebra. One of the two must be supplied.
    """
    _require_positive("cm-threshold", d=d, n=n)
    if a2_form_ring is not None:
        alpha = d * (-a2_form_ring - 1) - n
        return DiagonalReport(
            "cm-threshold:gorenstein-form-ring",
            {"d": d, "n": n, "a2_form_ring": a2_form_ring},
            alpha,
            assumptions=("form ring Gorenstein", "admissibility c >= d e + 1 still applies"),
        )
    if a1_shifted_rees is not None:
        return DiagonalReport(
            "cm-threshold:sheared-rees",
            {"d": d, "n": n, "a1_shifted_rees": a1_shifted_rees},
            a1_shifted_rees,
            assumptions=("Rees algebra Cohen-Macaulay",),
        )
    raise DiagonalError("no route to alpha: pass a2_form_ring or a1_shifted_rees")


# ---------------------------------------------------------------------------
# good resolutions

@record
class ShiftVerdict:
    shift: tuple
    good: bool
    condition: int | None    # 1, 2 or 3; None when not good


def classify_shift(a, b, n, r, d, u):
    """The three numeric alternatives for S(a, b) to have CM diagonals."""
    if b <= -r and (b + r) * d - u - a > 0:
        return 1
    if -r < b < 0:
        return 2
    if b >= 0 and b * d - a - n < 0:
        return 3
    return None


def good_resolution_check(shifts_or_table, n, r, d, u):
    """Classify every bigraded shift; good iff none offends.

    Accepts either an explicit list of shifts (a, b), a <= 0, or a bigraded
    BettiTable, whose rows carry generator degrees (-a, -b).
    """
    if hasattr(shifts_or_table, "rows"):
        table = shifts_or_table
        if not table.complete:
            raise DiagonalError("truncated Betti table")
        shifts = [(-deg[0], -deg[1]) for p, deg, rank in table.rows() for _ in range(rank)]
    else:
        shifts = [tuple(s) for s in shifts_or_table]
    verdicts = []
    for (a, b) in shifts:
        cond = classify_shift(a, b, n, r, d, u)
        verdicts.append(ShiftVerdict((a, b), cond is not None, cond))
    offending = [v.shift for v in verdicts if not v.good]
    return DiagonalReport(
        "good-resolution",
        {"n": n, "r": r, "d": d, "u": u, "shifts": tuple(map(tuple, shifts))},
        not offending,
        assumptions=("conditions checked on every shift of the resolution",),
    ), verdicts
