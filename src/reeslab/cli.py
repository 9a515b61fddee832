"""Command-line frontend: exact JSON reports over problem files, with a content-addressed cache."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .cache import cache_key, cache_lookup_store, source_digest

# The handlers live in `commands`, which only a cache miss imports, and each
# imports the layers it runs. So start-up compiles `cli` and `cache`, builds the
# parser of the one command given, and a hit also skips the problem's ring and
# ideal: `load_problem` builds them on first use.


def _emit(args, command, payload, citations, assumptions):
    """Print a report; `payload` is already exact JSON (from `commands.produce` or the cache)."""
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


# Closed-form commands: each CLI family -> (criterion, parameters it reads, parameters it requires).
# The parameters read are also the command's flags; a required tuple of names needs any one of them.
# A miss hands the command's entry to `commands`, which reports the required parameters no source gives.
_CI = ("gorenstein-diagonal:complete-intersection", ("n", "degrees"), ("degrees", "n"))
_FAMILIES = {
    "gorenstein": {"ci": _CI, "complete-intersection": _CI,
                   "maxminors": ("gorenstein-diagonal:maximal-minors", ("m", "n"), ("m", "n")),
                   "polynomial-ring": ("gorenstein-diagonal:polynomial-ring", ("n", "degrees"), ("n", "degrees")),
                   "general": ("gorenstein-diagonal:general", ("n", "a", "d", "height"), ("a", "n", "d"))},
    "cm-check": {"ci": ("cm-diagonal:complete-intersection", ("d", "u", "n"), ("d", "u", "n")),
                 "equimultiple": ("cm-diagonal:equimultiple", ("d", "height", "a_quotient"),
                                  ("d", "height", "a_quotient")),
                 "scm": ("cm-diagonal:strongly-cm", ("degrees", "n", "height"), ("degrees", "n", "height"))},
    "cm-threshold": {None: ("cm-threshold", ("d", "n", "a2G", "a1"), ("d", "n", ("a2G", "a1")))},
    "quasi-gorenstein": {None: ("quasi-gorenstein-bounds", ("a", "n", "height"), ("a", "n"))},
}


def _degree_list(text):
    """The value of --degrees: comma-separated integers, such as 2,2,3."""
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers, got %r" % text) from None


_POWER = ("--power", {"type": int, "default": 1})
_MODULE = ("--module", {"choices": ("ideal", "quotient"), "default": "ideal"})
_IGNORED_MAX_POWER = ("--max-power", {"type": int, "default": None, "help":
                      "accepted and ignored: a threshold proven on the Rees series picks the powers"})
_PREDICT = ("--predict", {"type": int, "default": None})
_DEGREE_CAP = ("--degree-cap", {"type": int, "default": None})
_C = ("--c", {"type": int, "required": True})
_E = ("--e", {"type": int, "required": True})
_SEED = ("--seed", {"type": int, "default": 0})

# Each command -> its arguments after the problem file, as (option strings..., add_argument keywords).
# The problem file is optional exactly for the closed-form commands of _FAMILIES,
# which also get a flag for each parameter their families read.
_COMMANDS = {
    "gb": (),
    "hs": (_POWER, _MODULE),
    "hp": (_POWER, ("--module", {"choices": ("ideal", "quotient"), "default": "quotient"})),
    "powers": (("--max-power", {"type": int, "required": True}),),
    "fit-hp": (_IGNORED_MAX_POWER, _PREDICT),
    "fit-hs": (_IGNORED_MAX_POWER, _PREDICT),
    "mixed-mult": (_IGNORED_MAX_POWER,),
    "betti": (_POWER, _DEGREE_CAP, _MODULE),
    "reg": (_POWER, _DEGREE_CAP),
    "rees": (),
    "diag": (_C, _E, ("--s-max", {"type": int, "default": 6})),
    "gorenstein": (("--family", {"required": True, "choices": tuple(_FAMILIES["gorenstein"])}),),
    "quasi-gorenstein": (),
    "cm-check": (("--family", {"required": True, "choices": tuple(_FAMILIES["cm-check"])}), _C, _E),
    "cm-threshold": (),
    "gin": (("--trials", {"type": int, "default": 3}), _SEED),
    "borel": (("--char-p", {"type": int, "default": 0}),),
    "bayer-stillman": (("--first-degree", "--m", {"dest": "first_degree", "type": int, "required": True}),
                       ("--q-max", {"type": int, "default": None}), _SEED),
}


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter at `shutil.get_terminal_size`'s width, read without importing shutil:
    argparse's own lookup imports it, with bz2 and lzma, for every argument a parser adds."""

    def __init__(self, prog):
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
            except (AttributeError, ValueError, OSError):
                pass
        super().__init__(prog, width=(columns if columns > 0 else 80) - 2)


def _command_parser(command):
    """The parser of one command's arguments, as `reeslab <command>`."""
    parser = argparse.ArgumentParser(prog="reeslab " + command, formatter_class=_HelpFormatter)
    if command in _FAMILIES:
        parser.add_argument("problem", nargs="?", default=None)
        for param in dict.fromkeys(x for _, reads, _ in _FAMILIES[command].values() for x in reads):
            parser.add_argument("--" + param.replace("_", "-"), type=_degree_list if param == "degrees" else int)
    else:
        parser.add_argument("problem", help="problem file (ring + ideal)")
    for *names, keywords in _COMMANDS[command]:
        parser.add_argument(*names, **keywords)
    return parser


def _parse_args(argv):
    """The namespace of argv, parsed as a subparser action would, but building only the given command's parser."""
    parser = argparse.ArgumentParser(
        prog="reeslab",
        description="Exact Hilbert data, Rees presentations, Betti tables and diagonal criteria.",
        formatter_class=_HelpFormatter,
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--no-cache", action="store_true")
    # the command and every word after it, the first checked against the choices
    parser.add_argument("command", nargs=argparse.PARSER, choices=_COMMANDS)
    args, unknown = parser.parse_known_args(argv)
    args.command, *rest = args.command
    unknown += _command_parser(args.command).parse_known_args(rest, args)[1]
    if unknown:
        parser.error("unrecognized arguments: %s" % " ".join(unknown))
    return args


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
    args = _parse_args(argv)
    problem = None
    try:
        if args.problem is not None:
            from .problemfile import load_problem

            problem = load_problem(args.problem)

        def produce():
            from . import commands

            return commands.produce(args, problem, _FAMILIES.get(args.command))

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
