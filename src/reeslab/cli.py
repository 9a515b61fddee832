"""Command-line frontend: exact JSON reports over problem files, with a content-addressed cache."""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__
from .cache import cache_key, cache_lookup_store, source_digest

# Each command imports the layers it runs inside its `_cmd_*`, so start-up
# compiles only `cache` and the layers of the one command given. A cache hit
# also skips the problem's ring and ideal: `load_problem` builds them on first use.

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


def _emit(args, command, payload, citations, assumptions):
    """Print a report; `payload` is already exact JSON (from `_jsonable` or the cache)."""
    report = {
        "tool_version": __version__,
        "command": command,
        "criterion_citations": sorted(citations),
        "assumptions": list(assumptions),
        "result": payload,
    }
    if args.format == "text":
        _print_text(report)
    else:
        print(json.dumps(report, sort_keys=True, indent=2))
    return 0


def _print_text(report):
    def walk(key, value, depth):
        pad = "  " * depth
        if isinstance(value, dict):
            print("%s%s:" % (pad, key))
            for k in sorted(value):
                walk(k, value[k], depth + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print("%s%s:" % (pad, key))
            for item in value:
                print("%s  - %s" % (pad, json.dumps(item, sort_keys=True)))
        else:
            print("%s%s: %s" % (pad, key, json.dumps(value, sort_keys=True)))

    for k in ("command", "tool_version", "criterion_citations", "assumptions", "result"):
        walk(k, report[k], 0)


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


def _power_quotients(problem):
    """P, the height h of I, the Hilbert polynomials of A/I^j at the n powers from j0, and j -> that polynomial.

    Each H_{A/I^j} = H_A - H_{I^j} is a t-slice of the one Rees series. Its bigraded
    Hilbert polynomial is exact from j0 on, so there the e_i are polynomials of degree < n.
    """
    from .hilbert import bigraded_hilbert_polynomial, dim_mult, hilbert_polynomial, hilbert_series_ring
    from .rees import rees_presentation

    P = rees_presentation(problem.ideal)
    H_A = hilbert_series_ring(problem.ring)
    n = problem.ring.nvars
    h = n - dim_mult(H_A - P.power_series(1)).dimension

    def quotient_hp(j):
        return hilbert_polynomial(H_A - P.power_series(j))

    j0 = max(1, bigraded_hilbert_polynomial(P.series()).origin[1])
    return P, h, {j: quotient_hp(j) for j in range(j0, j0 + n)}, quotient_hp


def _cmd_fit_hp(args, problem):
    from .asymptotics import fit_hilbert_polynomials

    _, h, samples, quotient_hp = _power_quotients(problem)
    family = fit_hilbert_polynomials(samples, problem.ring.nvars, h)
    payload = family.to_json()
    payload["height"] = h
    if args.predict:
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
        route = "general-recurrence-window"
    if args.predict:
        payload["predicted"] = {"power": args.predict, "series": P.power_series(args.predict).to_json()}
    return (payload, [route], [])


def _cmd_mixed_mult(args, problem):
    from .asymptotics import FitError, fit_hilbert_polynomials, mixed_multiplicities
    from .rees import fiber_cone

    P, h, samples, _ = _power_quotients(problem)
    degs = {g.multidegree()[0] for g in problem.ideal.gens}
    if len(degs) != 1:
        raise FitError("mixed multiplicities need an equigenerated ideal")
    d = degs.pop()
    l = fiber_cone(P).spread
    family = fit_hilbert_polynomials(samples, problem.ring.nvars, h)
    mm = mixed_multiplicities(family, d, l)
    payload = mm.to_json()
    payload.update({"d": d, "l": l, "h": h})
    return (payload, ["mixed-multiplicity-transfer"], ["not primary to the irrelevant ideal"])


def _cmd_betti(args, problem):
    from .betti import graded_betti_table, invariants_from_shifts
    from .groebner import ideal_power

    I = ideal_power(problem.ideal, args.power)
    table = graded_betti_table(I, args.degree_cap, args.module)
    payload = dict(table.to_json(), degree_cap=table.window[0], power=args.power)
    if table.complete:
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


# Closed-form commands: each CLI family -> (criterion, parameters it reads, parameters it requires).
# The parameters read are also the command's flags.
_CI = ("gorenstein-diagonal:complete-intersection", ("n", "r", "degrees"), ("degrees", "n"))
_FAMILIES = {
    "gorenstein": {"ci": _CI, "complete-intersection": _CI,
                   "maxminors": ("gorenstein-diagonal:maximal-minors", ("m", "n"), ("m", "n")),
                   "polynomial-ring": ("gorenstein-diagonal:polynomial-ring", ("n", "degrees"), ("n", "degrees")),
                   "general": ("gorenstein-diagonal:general", ("n", "a", "d", "height"), ("a", "n", "d"))},
    "cm-check": {"ci": ("cm-diagonal:complete-intersection", ("d", "u", "n"), ("d", "u")),
                 "equimultiple": ("cm-diagonal:equimultiple", ("d", "height", "a_quotient"), ("d",)),
                 "scm": ("cm-diagonal:strongly-cm", ("degrees", "n", "height"), ("degrees", "n", "height"))},
    "cm-threshold": {None: ("cm-threshold", ("d", "n", "a2G", "a1"), ("d", "n"))},
}


@functools.lru_cache(maxsize=1)
def _generator_values(problem):
    """degrees, d = max and u = sum of the minimal generators, and n = number of variables.

    r is not among them: it defaults to len(degrees) wherever degrees come from.
    """
    from .groebner import minimal_generators

    degrees = tuple(g.multidegree()[0] for g in minimal_generators(problem.ring, problem.ideal.gens))
    given = dict(degrees=degrees, d=max(degrees), u=sum(degrees)) if degrees else {}
    return dict(given, n=problem.ring.nvars)


def _family_params(args, problem, names, generators=True):
    """Each of names from its flag, else the problem's family line, else its generators; absent if none does."""
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
            value = _generator_values(problem).get(name)
        if value is not None:
            values[name] = value
    return values


def _missing(values, names, criterion):
    """The exit-2 report of a closed-form family that lacks the parameters among names in values, or None."""
    missing = [name for name in names if values.get(name) is None]
    return (({"missing": missing}, [criterion], []), 2) if missing else None


def _closed_form(args, problem):
    """A closed-form command's criterion family, its parameters, and the exit-2 report if some are missing.

    With a problem file, a complete intersection must have as many minimal generators as its height n - dim A/I.
    """
    criterion, reads, requires = _FAMILIES[args.command][getattr(args, "family", None)]
    family = criterion.partition(":")[2]
    # the n of an m x n matrix is not the number of variables
    params = _family_params(args, problem, reads, generators=family != "maximal-minors")
    missing = _missing(params, requires, criterion)
    if problem is not None and family == "complete-intersection" and not missing:
        from .diagonals import DiagonalError
        from .hilbert import hilbert_series_ideal, krull_dimension

        r = len(_generator_values(problem).get("degrees", ()))
        height = problem.ring.nvars - krull_dimension(hilbert_series_ideal(problem.ideal, "quotient"))
        if r != height:
            raise DiagonalError("complete-intersection check failed: %d minimal generators, height %d"
                                % (r, height))
    return family, params, missing


def _cmd_gorenstein(args, problem):
    from .diagonals import gorenstein_diagonals

    family, params, missing = _closed_form(args, problem)
    if missing:
        return missing
    if family == "general":
        params["dim_positive"] = not args.dim_zero
    reports = gorenstein_diagonals(family, **params)
    payload = {"diagonals": [r.to_json() for r in reports], "count": len(reports)}
    return (payload, sorted({r.criterion for r in reports}) or ["gorenstein-diagonal"], [])


def _cmd_quasi_gorenstein(args, problem):
    from .diagonals import quasi_gorenstein_bounds

    reports = quasi_gorenstein_bounds(args.a, args.n, not args.dim_zero)
    return (
        {"candidates": [r.to_json() for r in reports], "count": len(reports)},
        ["quasi-gorenstein-bounds"],
        ["Rees algebra Cohen-Macaulay"],
    )


def _cmd_cm_check(args, problem):
    from .diagonals import DiagonalSpec, cm_diagonal_test

    spec = DiagonalSpec(args.c, args.e)
    family, params, missing = _closed_form(args, problem)
    if missing:
        return missing
    report = cm_diagonal_test(family, params, spec)
    code = 2 if report.verdict == "needs-input" else 0
    return (report.to_json(), [report.criterion], list(report.assumptions)), code


def _cmd_cm_threshold(args, problem):
    from .diagonals import cm_threshold_alpha

    _, p, missing = _closed_form(args, problem)
    if missing:
        return missing
    report = cm_threshold_alpha(p["d"], p["n"], a2_form_ring=p.get("a2G"), a1_shifted_rees=p.get("a1"))
    code = 2 if report.verdict == "needs-input" else 0
    return (report.to_json(), [report.criterion], list(report.assumptions)), code


def _cmd_gin(args, problem):
    from .ginreg import generic_initial_ideal

    result = generic_initial_ideal(
        problem.ideal, trials=args.trials, seed=args.seed
    )
    return (result.to_json(), ["generic-initial-stability"], ["random seed recorded"])


def _cmd_borel(args, problem):
    from .ginreg import borel_fix_check, borel_regularity

    report = borel_fix_check(problem.ideal, args.char_p)
    payload = report.to_json()
    if report.is_borel and args.char_p == 0 and report.delta is not None:
        payload["regularity"] = list(borel_regularity(problem.ideal))
    return (payload, ["borel-exchange-audit"], [])


def _cmd_bayer_stillman(args, problem):
    from .ginreg import bayer_stillman_check

    check = bayer_stillman_check(
        problem.ideal, args.first_degree,
        q_window=(0, args.q_max) if args.q_max is not None else None,
        seed=args.seed,
    )
    return (check.to_json(), ["generic-form-regularity-test"], ["generic linear forms drawn at the recorded seed"])


_COMMANDS = {
    "gb": (_cmd_gb, True),
    "hs": (_cmd_hs, True),
    "hp": (_cmd_hp, True),
    "powers": (_cmd_powers, True),
    "fit-hp": (_cmd_fit_hp, True),
    "fit-hs": (_cmd_fit_hs, True),
    "mixed-mult": (_cmd_mixed_mult, True),
    "betti": (_cmd_betti, True),
    "reg": (_cmd_reg, True),
    "rees": (_cmd_rees, True),
    "diag": (_cmd_diag, True),
    "gorenstein": (_cmd_gorenstein, False),
    "quasi-gorenstein": (_cmd_quasi_gorenstein, False),
    "cm-check": (_cmd_cm_check, False),
    "cm-threshold": (_cmd_cm_threshold, False),
    "gin": (_cmd_gin, True),
    "borel": (_cmd_borel, True),
    "bayer-stillman": (_cmd_bayer_stillman, True),
}


def _degree_list(text):
    """The value of --degrees: comma-separated integers, such as 2,2,3."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers, got %r" % text) from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="reeslab",
        description="Exact Hilbert data, Rees presentations, Betti tables and diagonal criteria.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--no-cache", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, needs_file):
        p = sub.add_parser(name)
        if needs_file:
            p.add_argument("problem", help="problem file (ring + ideal)")
        else:
            p.add_argument("problem", nargs="?", default=None)
        return p

    def add_closed_form(name):
        """A closed-form command with a flag for each parameter its families read."""
        p = add(name, False)
        for param in dict.fromkeys(x for _, reads, _ in _FAMILIES[name].values() for x in reads):
            p.add_argument("--" + param.replace("_", "-"), type=_degree_list if param == "degrees" else int)
        return p

    p = add("gb", True)
    for name in ("hs", "hp"):
        p = add(name, True)
        p.add_argument("--power", type=int, default=1)
        p.add_argument("--module", choices=("ideal", "quotient"), default="ideal" if name == "hs" else "quotient")
    p = add("powers", True)
    p.add_argument("--max-power", type=int, required=True)
    for name in ("fit-hp", "fit-hs", "mixed-mult"):
        p = add(name, True)
        p.add_argument("--max-power", type=int, default=None,
                       help="accepted and ignored: a threshold proven on the Rees series picks the powers")
        if name != "mixed-mult":
            p.add_argument("--predict", type=int, default=None)
    for name in ("betti", "reg"):
        p = add(name, True)
        p.add_argument("--power", type=int, default=1)
        p.add_argument("--degree-cap", type=int, default=None)
        if name == "betti":
            p.add_argument("--module", choices=("ideal", "quotient"), default="ideal")
    add("rees", True)
    p = add("diag", True)
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    p.add_argument("--s-max", type=int, default=6)
    p = add_closed_form("gorenstein")
    p.add_argument("--family", required=True, choices=tuple(_FAMILIES["gorenstein"]))
    p.add_argument("--dim-zero", action="store_true")
    p = add("quasi-gorenstein", False)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim-zero", action="store_true")
    p = add_closed_form("cm-check")
    p.add_argument("--family", required=True, choices=tuple(_FAMILIES["cm-check"]))
    p.add_argument("--c", type=int, required=True)
    p.add_argument("--e", type=int, required=True)
    add_closed_form("cm-threshold")
    p = add("gin", True)
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p = add("borel", True)
    p.add_argument("--char-p", type=int, default=0)
    p = add("bayer-stillman", True)
    p.add_argument("--first-degree", "--m", dest="first_degree", type=int, required=True)
    p.add_argument("--q-max", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _reported_errors():
    """The exceptions `main` reports as `error: ...` with exit code 1.

    Only the `except` clause calls this, and Python evaluates that clause only
    when an exception reaches it, so a successful run imports none of these modules.
    """
    from .asymptotics import FitError
    from .betti import BettiError
    from .diagonals import DiagonalError
    from .ginreg import GinError
    from .hilbert import SeriesError
    from .problemfile import ProblemError
    from .rees import ReesError
    from .rings import ParseError, RingError

    return (ProblemError, ParseError, RingError, SeriesError, BettiError,
            ReesError, DiagonalError, GinError, FitError, OSError)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handler, needs_file = _COMMANDS[args.command]
    problem = None
    try:
        if args.problem is not None:
            from .problemfile import load_problem

            problem = load_problem(args.problem)
        elif needs_file:
            print("error: command %r needs a problem file" % args.command, file=sys.stderr)
            return 1

        def produce():
            if problem is not None:
                problem.ideal  # a miss builds, and so checks, the whole file before anything is stored
            out = handler(args, problem)
            if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], int):
                (payload, citations, assumptions), code = out
            else:
                payload, citations, assumptions = out
                code = 0
            return {
                "payload": _jsonable(payload),
                "citations": list(citations),
                "assumptions": list(assumptions),
                "code": code,
            }

        # these commands accept --max-power and ignore it, so it does not key their reports
        ignored = ("max_power",) if args.command in ("fit-hp", "fit-hs", "mixed-mult") else ()
        params = {
            k: v for k, v in sorted(vars(args).items())
            if k not in ("problem", "format", "no_cache", *ignored) and v is not None
        }
        key = None
        if not args.no_cache:
            key = cache_key(
                problem.content_hash if problem else "-",
                args.command,
                {k: str(v) for k, v in params.items()},
                source_digest(),
            )
        value = cache_lookup_store(key, produce, enabled=not args.no_cache)
        code = value.get("code", 0)
        _emit(args, args.command, value["payload"], value["citations"], value["assumptions"])
        return code
    except _reported_errors() as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
