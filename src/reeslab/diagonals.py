"""Diagonal subalgebras k[(I^e)_c]: Hilbert data, dimension, CM and Gorenstein criteria."""

from __future__ import annotations

from dataclasses import dataclass


class DiagonalError(ValueError):
    pass


@dataclass(frozen=True)
class DiagonalSpec:
    """A (c, e)-diagonal; admissible against degree d when c >= d e + 1."""

    c: int
    e: int

    def __post_init__(self):
        if self.c < 1 or self.e < 1:
            raise DiagonalError("c and e must be positive")

    def admissible(self, d):
        return self.c >= d * self.e + 1


@dataclass(frozen=True)
class DiagonalReport:
    """Outcome of one closed-form criterion, with its provenance."""

    criterion: str
    inputs: dict
    verdict: object            # True / False / "needs-input"
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


def _presentation(I_or_P):
    # Imported here so the closed-form criteria load no Groebner layer.
    from .rees import ReesPresentation, rees_presentation

    if isinstance(I_or_P, ReesPresentation):
        return I_or_P
    return rees_presentation(I_or_P)


# ---------------------------------------------------------------------------
# Hilbert data of diagonals

def diagonal_hilbert_function(I, spec, s_max):
    """dim_k (I^{e s})_{c s} for s = 0..s_max, via the Rees series slices."""
    P = _presentation(I)
    if not spec.admissible(P.max_degree):
        raise DiagonalError("inadmissible diagonal: need c >= d e + 1")
    out = []
    for s in range(s_max + 1):
        series = P.power_series(spec.e * s)
        out.append(series.coefficient(spec.c * s))
    return out


def diagonal_dimension(I, spec):
    """dim k[(I^e)_c], read off the bigraded Hilbert polynomial of the Rees series.

    Past its origin that polynomial, at (c s, e s), is the diagonal Hilbert
    function; for an admissible diagonal its top form is nonnegative and
    nonzero there, so the diagonal has dimension total degree + 1.
    """
    from .hilbert import bigraded_hilbert_polynomial

    P = _presentation(I)
    if not spec.admissible(P.max_degree):
        raise DiagonalError("inadmissible diagonal: need c >= d e + 1")
    return bigraded_hilbert_polynomial(P.series()).total_degree + 1


# ---------------------------------------------------------------------------
# Gorenstein diagonals (closed-form families)

def gorenstein_diagonals(family, **params):
    """Finite solution set of the Gorenstein-diagonal equations for a family.

    Returns a list of DiagonalReports, one per diagonal, each carrying
    a(k[(I^e)_c]) = -l0. Families:

    - ``polynomial-ring``: S itself; needs n, r, degrees.
    - ``general``: Gorenstein form ring; needs n, a (= -a^2(G)), d, height, dim_positive.
    - ``complete-intersection``: needs n, r < n, degrees.
    - ``maximal-minors``: generic m x n matrix, m <= n.
    """
    if family == "polynomial-ring":
        n, r = params["n"], params["r"]
        degrees = tuple(params["degrees"])
        u, d = sum(degrees), max(degrees)
        out = []
        for l0 in range(1, r + 1):
            if r % l0 or (n + u) % l0:
                continue
            c, e = (n + u) // l0, r // l0
            if DiagonalSpec(c, e).admissible(d):
                out.append(
                    DiagonalReport(
                        "gorenstein-diagonal:polynomial-ring",
                        {"n": n, "r": r, "degrees": degrees, "c": c, "e": e},
                        True,
                        a_invariant=-l0,
                    )
                )
        return out
    if family == "general":
        n, a, d = params["n"], params["a"], params["d"]
        height = params.get("height")
        dim_positive = params.get("dim_positive", True)
        assumptions = ["form ring Gorenstein", "a = -a^2(G) supplied"]
        sufficient_only = False
        if height is not None and (height < 2 or not dim_positive):
            # outside 1 < ht < n the equality is only a sufficient direction
            sufficient_only = True
            assumptions.append("outside 1 < ht(I) < n the criterion is sufficient only")
        out = []
        if a < 2:
            return out
        for l0 in range(1, min(n, a - 1) + 1):
            if n % l0 or (a - 1) % l0:
                continue
            c, e = n // l0, (a - 1) // l0
            if DiagonalSpec(c, e).admissible(d):
                out.append(
                    DiagonalReport(
                        "gorenstein-diagonal:general",
                        {"n": n, "a": a, "d": d, "c": c, "e": e},
                        True,
                        a_invariant=-l0,
                        assumptions=tuple(assumptions),
                        sufficient_only=sufficient_only,
                    )
                )
        return out
    if family == "complete-intersection":
        n, r = params["n"], params["r"]
        degrees = tuple(params["degrees"])
        if r >= n:
            raise DiagonalError("complete-intersection rule needs r < n")
        reports = gorenstein_diagonals(
            "general", n=n, a=r, d=max(degrees), height=r, dim_positive=True
        )
        return [
            DiagonalReport(
                "gorenstein-diagonal:complete-intersection",
                dict(rep.inputs, degrees=degrees),
                rep.verdict,
                rep.a_invariant,
            )
            for rep in reports
        ]
    if family == "maximal-minors":
        m, n = params["m"], params["n"]
        if not 1 <= m <= n:
            raise DiagonalError("need 1 <= m <= n")
        nvars = m * n
        if m == n:
            # principal determinant: the polynomial-ring rule with one variable
            return [
                DiagonalReport(
                    "gorenstein-diagonal:maximal-minors",
                    {"m": m, "n": n, "c": nvars + n, "e": 1},
                    True,
                    a_invariant=-1,
                )
            ]
        reports = gorenstein_diagonals(
            "general", n=nvars, a=n - m + 1, d=m, height=n - m + 1, dim_positive=True
        )
        return [
            DiagonalReport(
                "gorenstein-diagonal:maximal-minors",
                {"m": m, "n": n, "c": rep.inputs["c"], "e": rep.inputs["e"]},
                rep.verdict,
                rep.a_invariant,
            )
            for rep in reports
        ]
    raise DiagonalError("unknown family %r" % family)


def quasi_gorenstein_bounds(a, n, dim_positive=True):
    """Finite candidate set for quasi-Gorenstein diagonals when the Rees algebra is CM.

    Empty for a = 1. Candidates satisfy e <= a-1, c <= n and, with positive
    quotient dimension, ceil(a/e) - 1 = n/c as integers.
    """
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
    """Closed-inequality CM verdict for a diagonal of a supported family."""
    c, e = spec.c, spec.e
    if family == "complete-intersection":
        d = params["d"]
        u = params["u"]
        a_base = params.get("a_base", -params["n"] if "n" in params else None)
        if a_base is None:
            return DiagonalReport(
                "cm-diagonal:complete-intersection", dict(params, c=c, e=e), "needs-input",
                assumptions=("missing a(A): pass a_base or n",),
            )
        if not spec.admissible(d):
            raise DiagonalError("inadmissible diagonal")
        verdict = c > (e - 1) * d + u + a_base
        return DiagonalReport(
            "cm-diagonal:complete-intersection",
            dict(params, c=c, e=e),
            verdict,
            assumptions=("Rees algebra of a complete intersection is Cohen-Macaulay",),
        )
    if family == "equimultiple":
        d = params["d"]
        if params.get("height", 2) <= 1:
            raise DiagonalError("equimultiple criterion needs height > 1")
        if "a_quotient" not in params:
            return DiagonalReport(
                "cm-diagonal:equimultiple", dict(params, c=c, e=e), "needs-input",
                assumptions=("missing a(A/I)",),
            )
        if not spec.admissible(d):
            raise DiagonalError("inadmissible diagonal")
        verdict = c > d * (e - 1) + params["a_quotient"]
        return DiagonalReport(
            "cm-diagonal:equimultiple",
            dict(params, c=c, e=e),
            verdict,
            assumptions=("Rees algebra Cohen-Macaulay", "ideal equimultiple"),
        )
    if family == "strongly-cm":
        degs = tuple(sorted(params["degrees"], reverse=True))
        h, n = params["height"], params["n"]
        d = degs[0]
        if not spec.admissible(d):
            raise DiagonalError("inadmissible diagonal")
        verdict = c > d * (e - 1) + sum(degs[:h]) - n
        return DiagonalReport(
            "cm-diagonal:strongly-cm",
            dict(params, c=c, e=e, degrees=degs),
            verdict if verdict else "not-decided",
            assumptions=(
                "strongly Cohen-Macaulay with local generation bounded by height",
            ),
            sufficient_only=True,
        )
    raise DiagonalError("unknown family %r" % family)


def cm_threshold_alpha(d, n, a2_form_ring=None, a1_shifted_rees=None):
    """Least alpha with: k[(I^e)_c] is CM for every c > d e + alpha.

    Route 1 (Gorenstein form ring): alpha = d(-a^2(G) - 1) - n.
    Route 2: alpha = a^1 of the sheared Rees algebra, when supplied.
    """
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
    return DiagonalReport(
        "cm-threshold", {"d": d, "n": n}, "needs-input",
        assumptions=("no route to alpha: pass a2_form_ring or a1_shifted_rees",),
    )


# ---------------------------------------------------------------------------
# good resolutions

@dataclass(frozen=True)
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
