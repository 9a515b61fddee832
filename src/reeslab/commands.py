"""The command handlers: each computes one report's payload, which the front end caches.

Only a cache miss imports this module; a hit is served by `reeslab.cli` alone.
It must not import `reeslab.cli`, which runs as `__main__` under `python -m reeslab.cli`,
so the front end hands in what it owns: the command's entry of its family table.
"""

from __future__ import annotations

import functools

_SAFE = 1 << 53


def _jsonable(obj):
    """Exact JSON: Fractions as 'p/q' strings, oversized ints as decimal strings."""
    from fractions import Fraction

    def convert(obj):
        if isinstance(obj, Fraction):
            if obj.denominator == 1:
                return convert(obj.numerator)
            return "%d/%d" % (obj.numerator, obj.denominator)
        if isinstance(obj, bool) or obj is None:
            return obj
        if isinstance(obj, int):
            return str(obj) if abs(obj) >= _SAFE else obj
        if isinstance(obj, dict):
            return {str(k): convert(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [convert(v) for v in obj]
        return obj

    return convert(obj)


def produce(args, problem, families):
    """The cached value of one command: its exact JSON payload, citations, assumptions and exit code.

    The handler of a command is `_cmd_<name>`, and returns (payload, citations, assumptions).
    families is a closed-form command's entry in the front end's family table, and None for
    the other commands. A closed-form handler gets its family and the parameters resolved
    here; a family that lacks a required parameter gets the exit-2 report {"missing": [...]}.
    With a problem file, a complete intersection must have as many minimal generators as its height.
    """
    if problem is not None:
        problem.ideal  # a miss builds, and so checks, the whole file before anything is stored
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    if families is None:
        payload, citations, assumptions = handler(args, problem)
    else:
        criterion, reads, requires = families[getattr(args, "family", None)]
        family = criterion.partition(":")[2]
        # the n of an m x n matrix is not the number of variables
        params = _family_params(args, problem, reads, generators=family != "maximal-minors")
        groups = [(need,) if isinstance(need, str) else need for need in requires]
        missing = ["|".join(group) for group in groups if not any(name in params for name in group)]
        if missing:
            return {"payload": {"missing": missing}, "citations": [criterion], "assumptions": [], "code": 2}
        if problem is not None and family == "complete-intersection":
            r, height = len(_generator_values(problem).get("degrees", ())), _height(problem)
            if r != height:
                from .diagonals import DiagonalError

                raise DiagonalError("complete-intersection check failed: %d minimal generators, height %d"
                                    % (r, height))
        payload, citations, assumptions = handler(args, family, params)
    return {"payload": _jsonable(payload), "citations": list(citations), "assumptions": list(assumptions),
            "code": 0}


# ---------------------------------------------------------------------------
# command payload producers (pure JSON out, cache-friendly)

def _cmd_gb(args, problem):
    from .groebner import groebner_basis

    gb = groebner_basis(problem.ideal)
    return (
        {
            "basis": [repr(g) for g in gb.polys],
            "leading_monomials": [list(m) for m in sorted(gb.leading_monomials)],
        },
        ["reduced-groebner-basis"],
        [],
    )


def _cmd_hs(args, problem):
    from .groebner import ideal_power
    from .hilbert import hilbert_series_ideal

    I = ideal_power(problem.ideal, args.power)
    series = hilbert_series_ideal(I, args.module)
    return (
        {"power": args.power, "module": args.module, "series": series.to_json()},
        ["initial-ideal-series-invariance", "monomial-pivot-recursion"],
        [],
    )


def _cmd_hp(args, problem):
    from .groebner import ideal_power
    from .hilbert import hilbert_polynomial, hilbert_series_ideal

    I = ideal_power(problem.ideal, args.power)
    series = hilbert_series_ideal(I, args.module)
    hp = hilbert_polynomial(series)
    return (
        {
            "power": args.power,
            "module": args.module,
            "coefficients": [str(c) for c in hp.coeffs],
            "stable_from": hp.threshold,
        },
        ["numerator-binomial-expansion"],
        [],
    )


def _cmd_powers(args, problem):
    from .groebner import ideal_power
    from .hilbert import hilbert_series_ideal
    from .rings import RingError

    if args.max_power < 1:
        raise RingError("no powers I^1..I^%d: the max power must be >= 1" % args.max_power)
    out = []
    for j in range(1, args.max_power + 1):
        Ij = ideal_power(problem.ideal, j)
        series = hilbert_series_ideal(Ij, "ideal")
        out.append(
            {
                "power": j,
                "minimal_generators": len(Ij.gens),
                "generator_degrees": sorted(g.multidegree()[0] for g in Ij.gens),
                "series": series.to_json(),
            }
        )
    return ({"powers": out}, ["degreewise-minimal-generators"], [])


def _cmd_fit_hp(args, problem):
    """The family fitted to the Hilbert polynomials of A/I^j at the n powers from j0.

    Each H_{A/I^j} = H_A - H_{I^j} is a t-slice of the one Rees series. Its bigraded
    Hilbert polynomial is exact from j0 on, so there the e_i are polynomials of degree < n.
    """
    from .asymptotics import fit_hilbert_polynomials
    from .hilbert import bigraded_hilbert_polynomial, hilbert_polynomial, hilbert_series_ring
    from .rees import rees_presentation

    P = rees_presentation(problem.ideal)
    H_A = hilbert_series_ring(problem.ring)

    def quotient_hp(j):
        return hilbert_polynomial(H_A - P.power_series(j))

    j0 = max(1, bigraded_hilbert_polynomial(P.series()).origin[1])
    family = fit_hilbert_polynomials({j: quotient_hp(j) for j in range(j0, j0 + problem.ring.nvars)})
    payload = family.to_json()
    payload["height"] = family.h
    if args.predict is not None:
        hp = quotient_hp(args.predict)
        payload["predicted"] = {"power": args.predict, "coefficients": [str(c) for c in hp.coeffs]}
    return (payload, ["power-family-interpolation"], [])


def _cmd_fit_hs(args, problem):
    from .asymptotics import fit_hilbert_series
    from .rees import fiber_cone, rees_presentation

    P = rees_presentation(problem.ideal)
    # the template needs samples over (1-s)^n, so a standard graded base ring
    if P.equigenerated and all(d == (1, 0) for d in P.base_ring.degrees):
        # With m generators, P_alpha(j) = sum_b N_(alpha+db, b) binom(j-b+m-1, m-1)
        # has degree < m and is exact for j >= deg_t N - m + 1.
        m = P.y_count
        start = max(0, max(b for (a, b), c in P.series().num) - m + 1)
        first = max(1, start)
        samples = {j: P.power_series(j) for j in range(first, first + m)}
        template = fit_hilbert_series(samples, P.max_degree, fiber_cone(P).spread, include_zero=(start == 0))
        payload = template.to_json()
        route = "equigenerated-offset-template"
    else:
        # the t-slices of the numerator Q of H_R
        slices = {}
        for (a, b), c in P.series().num:
            slices.setdefault(b, {})[str(a)] = c
        payload = {"slices": [[j, num] for j, num in sorted(slices.items())], "degrees": list(P.degrees)}
        route = "general-rees-t-slices"
    if args.predict is not None:
        payload["predicted"] = {"power": args.predict, "series": P.power_series(args.predict).to_json()}
    return (payload, [route], [])


def _cmd_mixed_mult(args, problem):
    from .asymptotics import mixed_multiplicities
    from .rees import fiber_cone, rees_presentation

    P = rees_presentation(problem.ideal)
    mm = mixed_multiplicities(P)
    payload = mm.to_json()
    payload.update({"d": P.max_degree, "l": fiber_cone(P).spread, "h": mm.height})
    return (payload, ["mixed-multiplicity-transfer"], ["not primary to the irrelevant ideal"])


def _cmd_betti(args, problem):
    from .betti import graded_betti_table, invariants_from_shifts
    from .groebner import ideal_power

    I = ideal_power(problem.ideal, args.power)
    table = graded_betti_table(I, args.degree_cap, args.module)
    payload = dict(table.to_json(), degree_cap=table.window[0], power=args.power)
    # S/I^0 = 0 has an empty table and no shifts to read invariants from
    if table.complete and table.entries:
        payload["invariants"] = invariants_from_shifts(table).to_json()
    return (payload, ["koszul-homology-ranks", "shift-reading-of-invariants"], [])


def _cmd_reg(args, problem):
    from .betti import graded_betti_table, invariants_from_shifts
    from .groebner import ideal_power

    I = ideal_power(problem.ideal, args.power)
    inv = invariants_from_shifts(graded_betti_table(I, args.degree_cap, "ideal"))
    return (dict(inv.to_json(), power=args.power), ["shift-reading-of-invariants"], [])


def _cmd_rees(args, problem):
    from .rees import rees_presentation

    P = rees_presentation(problem.ideal)
    payload = P.report()
    payload["series"] = P.series().to_json()
    return (payload, ["blowup-presentation-by-elimination"], [])


def _cmd_diag(args, problem):
    from .diagonals import DiagonalSpec, diagonal_dimension, diagonal_hilbert_function
    from .rees import rees_presentation

    spec = DiagonalSpec(args.c, args.e)
    P = rees_presentation(problem.ideal)
    values = diagonal_hilbert_function(P, spec, args.s_max)
    dim = diagonal_dimension(P, spec)
    return (
        {"c": args.c, "e": args.e, "values": values, "dimension": dim},
        ["diagonal-slice-extraction"],
        [],
    )


@functools.lru_cache(maxsize=1)
def _generator_values(problem):
    """degrees, d = max and u = sum of the minimal generators, and n = number of variables.

    r is not among them: the criteria read it as len(degrees).
    """
    from .groebner import minimal_generators

    degrees = tuple(g.multidegree()[0] for g in minimal_generators(problem.ring, problem.ideal.gens))
    given = dict(degrees=degrees, d=max(degrees), u=sum(degrees)) if degrees else {}
    return dict(given, n=problem.ring.nvars)


@functools.lru_cache(maxsize=1)
def _height(problem):
    """ht I = n - dim A/I, read from the Hilbert series of A/I."""
    from .hilbert import hilbert_series_ideal, krull_dimension

    return problem.ring.nvars - krull_dimension(hilbert_series_ideal(problem.ideal, "quotient"))


def _family_params(args, problem, names, generators=True):
    """Each of names from its flag, else the family line, else the file's generators or height; absent if none does."""
    line = problem.family_dict() if problem is not None else {}
    values = {}
    for name in names:
        value = vars(args).get(name)
        if value is None and name in line:
            value = line[name]
            if not (value and type(value) is tuple if name == "degrees" else type(value) is int):
                from .problemfile import ProblemError

                raise ProblemError("family flag %r must be %s"
                                   % (name, "a tuple" if name == "degrees" else "an int"))
        elif value is None and problem is not None and generators:
            value = _height(problem) if name == "height" else _generator_values(problem).get(name)
        if value is not None:
            values[name] = value
    return values


def _assumptions(reports, *first):
    """first, then every assumption the reports carry, each once in first-seen order."""
    return list(dict.fromkeys([*first, *(a for r in reports for a in r.assumptions)]))


def _cmd_gorenstein(args, family, params):
    from .diagonals import gorenstein_diagonals

    reports = gorenstein_diagonals(family, **params)
    payload = {"diagonals": [r.to_json() for r in reports], "count": len(reports)}
    return (payload, sorted({r.criterion for r in reports}) or ["gorenstein-diagonal"], _assumptions(reports))


def _cmd_quasi_gorenstein(args, family, p):
    from .diagonals import quasi_gorenstein_bounds

    reports = quasi_gorenstein_bounds(p["a"], p["n"], p.get("height"))
    return (
        {"candidates": [r.to_json() for r in reports], "count": len(reports)},
        ["quasi-gorenstein-bounds"],
        _assumptions(reports, "Rees algebra Cohen-Macaulay"),
    )


def _cmd_cm_check(args, family, params):
    from .diagonals import DiagonalSpec, cm_diagonal_test

    report = cm_diagonal_test(family, params, DiagonalSpec(args.c, args.e))
    return (report.to_json(), [report.criterion], report.assumptions)


def _cmd_cm_threshold(args, family, p):
    from .diagonals import cm_threshold_alpha

    report = cm_threshold_alpha(p["d"], p["n"], a2_form_ring=p.get("a2G"), a1_shifted_rees=p.get("a1"))
    return (report.to_json(), [report.criterion], report.assumptions)


def _cmd_gin(args, problem):
    from .ginreg import generic_initial_ideal

    result = generic_initial_ideal(
        problem.ideal, trials=args.trials, seed=args.seed
    )
    return (result.to_json(), ["generic-initial-stability"], ["random seed recorded"])


def _cmd_borel(args, problem):
    from .ginreg import GinError, borel_fix_check

    report = borel_fix_check(problem.ideal, args.char_p)
    payload = report.to_json()
    # borel_regularity's value, read off this audit rather than a second one
    if report.is_borel and args.char_p == 0 and report.delta is not None:
        if problem.ring.field.char:
            raise GinError("the generator-degree formula needs characteristic 0")
        payload["regularity"] = list(report.delta)
    return (payload, ["borel-exchange-audit"], [])


def _cmd_bayer_stillman(args, problem):
    from .ginreg import bayer_stillman_check

    check = bayer_stillman_check(
        problem.ideal, args.first_degree,
        q_window=(0, args.q_max) if args.q_max is not None else None,
        seed=args.seed,
    )
    return (check.to_json(), ["generic-form-regularity-test"], ["generic linear forms drawn at the recorded seed"])


