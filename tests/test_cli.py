import argparse
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys

import pytest

from reeslab import cli
from reeslab.cli import main
from reeslab.problemfile import ProblemError, _read_problem
from conftest import parse_problem

TWISTED_CUBIC = """\
field: Q
vars: X1 (1,0), X2 (1,0), X3 (1,0), X4 (1,0)
order: degrevlex
ideal: X1*X4 - X2*X3; X2^2 - X1*X3; X3^2 - X2*X4
family: scm a2G=-2
"""

EMPTY = """\
field: Q
vars: X1 (1,0), X2 (1,0), X3 (1,0)
order: degrevlex
"""


@pytest.fixture
def cubic_file(tmp_path):
    path = tmp_path / "twisted-cubic.ring"
    path.write_text(TWISTED_CUBIC)
    return str(path)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REESLAB_CACHE", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_problem_parsing_round_trip():
    problem = parse_problem(TWISTED_CUBIC)
    assert problem.ring.nvars == 4
    assert len(problem.ideal.gens) == 3
    assert problem.family_dict() == {"scm": True, "a2G": -2}


def test_problem_errors_carry_line_numbers():
    with pytest.raises(ProblemError) as err:
        parse_problem("field: Q\nvars: X1 (1,0)\nideal: X1*Z\n")
    assert err.value.line == 3
    with pytest.raises(ProblemError) as err2:
        parse_problem("field: Q\nvars: X1 1\n")
    assert err2.value.line == 2


DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")

# Valid problem texts; the content-hash test runs over these and the demo files.
PROBLEMS = [
    TWISTED_CUBIC,
    EMPTY,
    "field: Fp:32003\nvars: x (1,0), y (1,0)\nideal: 3*x^2 - y^2; x*y\n",
    "vars: x (1,0), y (1,0)\nideal: x^10; y^10\n",
    "field: Q\nvars: x (1,0), y (1,0)\nideal: x; y^2\n",
    "# comment\nfield: Fp:7\nvars: a(1,0),b (1,0) , t (2,1)\norder: lex\n"
    "ideal: a*t - b^3 ; a^2\nideal: b*t  # second ideal line\nfamily: shape(2, 3), scm a2G=-1 none()\n",
    "vars: x (1,0), y (1,0), z (1,0)\norder: deglex\nfamily: flag\n",
]


def _ring_canonical_hash(text):
    """The content hash as it was once computed: the field, variables and order read off the built ring."""
    problem = parse_problem(text)
    ring = problem.ring
    exprs = []
    for raw in text.splitlines():
        key, _, value = raw.split("#", 1)[0].partition(":")
        if key.strip().lower() == "ideal":
            exprs.extend(e.strip() for e in value.split(";") if e.strip())
    canonical = "\n".join([
        "field=%r" % (ring.field,),
        "vars=%s" % ",".join("%s(%d,%d)" % (n, d[0], d[1]) for n, d in zip(ring.names, ring.degrees)),
        "order=%s:%d" % (ring.order.tag, ring.order.block),
        "ideal=%s" % ";".join(exprs),
        "family=%r" % (sorted(problem.family),),
    ])
    return hashlib.sha256(canonical.encode()).hexdigest()


def test_content_hash_is_the_ring_based_hash():
    texts = list(PROBLEMS)
    for name in sorted(os.listdir(DEMOS)):
        if name.endswith(".ring"):
            with open(os.path.join(DEMOS, name), encoding="utf-8") as fh:
                texts.append(fh.read())
    assert len(texts) == len(PROBLEMS) + 3
    for text in texts:
        assert parse_problem(text).content_hash == _ring_canonical_hash(text)


def test_family_flags():
    problem = parse_problem(EMPTY + "family: scm, a2G=-2 shape(1, 2) none()\n")
    assert problem.family == (("scm", True), ("a2G", -2), ("shape", (1, 2)), ("none", ()))


@pytest.mark.parametrize("flags", ["a2G=x", "a2G=", "shape(1", "shape(1,y)", "(1)", "3x", "a=1 a=2", "f f(1)"])
def test_malformed_family_flags_carry_line_numbers(flags):
    with pytest.raises(ProblemError) as err:
        parse_problem(EMPTY + "family: %s\n" % flags)
    assert err.value.line == 4


def test_malformed_family_flag_exits_1(capsys, tmp_path):
    path = tmp_path / "flags.ring"
    path.write_text(EMPTY + "family: a2G=x\n")
    assert main(["hs", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 4: malformed family flag 'a2G=x'")


@pytest.mark.parametrize("text, line, message", [
    ("field: Q\nvars X1 (1,0)\n", 2, "expected 'key: value'"),
    (EMPTY + "order: lex\n", 4, "duplicate 'order' line"),
    (EMPTY.replace("Q", "R", 1), 1, "unknown field 'R'"),
    (EMPTY.replace("Q", "Fp:x", 1), 1, "malformed prime field 'Fp:x'"),
    (EMPTY.replace("Q", "Fpxyz:7", 1), 1, "malformed prime field 'Fpxyz:7'"),
    (EMPTY.replace("Q", "Fp7", 1), 1, "malformed prime field 'Fp7'"),
    (EMPTY.replace("Q", "Fp", 1), 1, "malformed prime field 'Fp'"),
    ("vars: X1 1\n", 1, "malformed variable list 'X1 1'"),
    (EMPTY.replace("degrevlex", "revlex"), 3, "unknown order 'revlex'"),
    (EMPTY + "degree: 2\n", 4, "unknown key 'degree'"),
    (EMPTY + "family: a2G=x\n", 4, "malformed family flag 'a2G=x': expected name, name=int or name(int,...)"),
    (EMPTY + "family: f f(1)\n", 4, "duplicate family flag 'f'"),
    ("field: Q\norder: lex\n", None, "no variables declared"),
], ids=["no-colon", "duplicate-key", "unknown-field", "prime-field-not-int", "prime-field-bad-prefix",
        "prime-field-no-colon", "prime-field-bare", "variable-list", "unknown-order", "unknown-key",
        "family-flag", "duplicate-family-flag", "no-variables"])
def test_read_problem_errors(text, line, message):
    with pytest.raises(ProblemError) as err:
        _read_problem(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else "line %d: %s" % (line, message))


# The least strong pseudoprime to the 13 Miller-Rabin bases, 1287836182261 * 2575672364521:
# primality is certified only below it.
MR_LIMIT = "3317044064679887385961981"


def test_malformed_prime_field_exits_1(capsys, tmp_path):
    # Fpxyz:7 was once read as F_7
    path = tmp_path / "fp.ring"
    for field in ("Fpxyz:7", "Fp:" + MR_LIMIT):
        path.write_text("field: %s\nvars: x (1,0)\nideal: x^2\n" % field)
        assert main(["--no-cache", "hs", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == "error: line 1: malformed prime field '%s'" % field


@pytest.mark.parametrize("twin", [
    TWISTED_CUBIC + "field: Q\n",  # the same canonical text as the valid file
    TWISTED_CUBIC.replace("X3^2 - X2*X4", "X3^2 - X2*Z"),
    TWISTED_CUBIC.replace("field: Q", "field: Fp:4"),
], ids=["duplicate-field-line", "bad-generator", "Fp:4"])
def test_invalid_twin_of_a_cached_file_is_not_served(capsys, tmp_path, isolated_cache, twin):
    path = tmp_path / "problem.ring"
    path.write_text(TWISTED_CUBIC)
    code, _ = run_cli(capsys, "hs", str(path))
    assert code == 0
    entries = sorted(isolated_cache.glob("*.json"))
    assert len(entries) == 1
    path.write_text(twin)
    assert main(["hs", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line ")
    assert sorted(isolated_cache.glob("*.json")) == entries


def test_bad_generator_reports_the_same_error_with_and_without_the_cache(capsys, tmp_path, isolated_cache):
    path = tmp_path / "broken.ring"
    path.write_text("field: Q\nvars: X1 (1,0)\nideal: X1*Z\n")
    runs = []
    for argv in (["hs"], ["hs"], ["--no-cache", "hs"]):
        code = main(argv + [str(path)])
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err))
    assert runs == [runs[0]] * 3
    code, out, err = runs[0]
    assert (code, out) == (1, "")
    assert err.startswith("error: line 3: bad generator 'X1*Z'")
    assert not list(isolated_cache.glob("*.json"))


def test_hs_power_two_matches_known_series(capsys, cubic_file):
    code, out = run_cli(capsys, "hs", "--power", "2", cubic_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["series"]["num"] == [[6, 4, 0], [-6, 5, 0], [1, 6, 0]]
    assert doc["result"]["series"]["den"] == [[1, 0, 4]]
    assert doc["tool_version"]


def test_hs_zero_ideal(capsys, tmp_path):
    path = tmp_path / "empty.ring"
    path.write_text(EMPTY)
    code, out = run_cli(capsys, "hs", "--module", "quotient", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["series"]["num"] == [[1, 0, 0]]
    assert doc["result"]["series"]["den"] == [[1, 0, 3]]


def test_gorenstein_maxminors(capsys):
    code, out = run_cli(capsys, "gorenstein", "--family", "maxminors", "--m", "2", "--n", "3")
    assert code == 0
    doc = json.loads(out)
    pairs = [(d["inputs"]["c"], d["inputs"]["e"]) for d in doc["result"]["diagonals"]]
    assert pairs == [(6, 1)]


def test_cm_check_needs_input_exit_code(capsys):
    code, out = run_cli(
        capsys, "cm-check", "--family", "equimultiple", "--c", "5", "--e", "2", "--d", "2"
    )
    assert code == 2


def test_gorenstein_general_missing_a_exits_2(capsys):
    code, out = run_cli(capsys, "gorenstein", "--family", "general", "--n", "4")
    assert code == 2
    assert "missing" in out


@pytest.mark.parametrize("argv, missing", [
    ("cm-check --family equimultiple --c 5 --e 1 --a-quotient 2", ["d", "height"]),
    ("cm-check --family scm --c 5 --e 1 --height 2", ["degrees", "n"]),
    ("cm-check --family ci --c 5 --e 1 --u 4", ["d", "n"]),
    ("gorenstein --family general --a 3", ["n", "d"]),
    ("gorenstein --family ci --degrees 2,2", ["n"]),
    ("gorenstein --family maxminors --m 2", ["n"]),
    ("gorenstein --family polynomial-ring --n 3", ["degrees"]),
    # this one once took the height to be the number of generators and exited 0
    ("cm-check --family scm --c 9 --e 1 --degrees 3,3,3 --n 3", ["height"]),
    # --d and --n may come from a problem file, so argparse no longer requires them
    ("cm-threshold --a2G -2", ["d", "n"]),
    ("quasi-gorenstein --n 3", ["a"]),
    ("quasi-gorenstein", ["a", "n"]),
])
def test_closed_form_family_without_a_parameter_exits_2(capsys, argv, missing):
    # each of these once printed a Python traceback and exited 1
    code, out = run_cli(capsys, "--no-cache", *argv.split())
    assert code == 2
    assert json.loads(out)["result"] == {"missing": missing}


# a valid flag value for each parameter a closed-form family reads
FAMILY_VALUES = {"n": "4", "degrees": "2,3", "m": "2", "a": "3", "d": "3", "height": "2",
                 "a_quotient": "1", "u": "5", "a2G": "-2", "a1": "-3"}


@pytest.mark.parametrize("command, family", [(c, f) for c, families in cli._FAMILIES.items() for f in families])
def test_each_required_input_is_reported_before_any_criterion_runs(capsys, monkeypatch, command, family):
    from reeslab import diagonals

    class Entered(Exception):
        pass

    def entered(*args, **kwargs):
        raise Entered

    for name in ("gorenstein_diagonals", "quasi_gorenstein_bounds", "cm_diagonal_test", "cm_threshold_alpha"):
        monkeypatch.setattr(diagonals, name, entered)
    argv = ["--no-cache", command] + (["--family", family] if family else [])
    argv += ["--c", "9", "--e", "1"] if command == "cm-check" else []
    groups = [(need,) if isinstance(need, str) else need for need in cli._FAMILIES[command][family][2]]

    def flags(groups):
        return [w for group in groups for w in ("--" + group[0].replace("_", "-"), FAMILY_VALUES[group[0]])]

    # with every required input the run reaches its criterion
    with pytest.raises(Entered):
        main(argv + flags(groups))
    for lacking in groups:
        code, out = run_cli(capsys, *argv, *flags([g for g in groups if g != lacking]))
        assert (code, json.loads(out)["result"]) == (2, {"missing": ["|".join(lacking)]})


# ht (x y, x z) = 1 in k[x, y, z]: the file's height was once never read
HEIGHT_ONE = "vars: x (1,0), y (1,0), z (1,0)\nideal: x*y; x*z\n"


def test_equimultiple_reads_the_height_off_the_problem_file(capsys, tmp_path):
    # this once exited 0 with verdict true and the default height 2
    path = tmp_path / "height-one.ring"
    path.write_text(HEIGHT_ONE)
    assert main(["--no-cache", *"cm-check --family equimultiple --c 5 --e 1 --a-quotient 1".split(), str(path)]) == 1
    assert capsys.readouterr() == ("", "error: equimultiple criterion needs height > 1\n")


def test_gorenstein_general_reads_the_height_off_the_problem_file(capsys, tmp_path):
    # outside 1 < ht < n the criterion is only sufficient; this once dropped the mark
    code, general = closed_form(capsys, tmp_path, "gorenstein --family general --a 2", HEIGHT_ONE)
    assert code == 0
    assert general == closed_form(capsys, tmp_path, "gorenstein --family general --a 2 --n 3 --d 2 --height 1")[1]
    assert [d["sufficient_only"] for d in general["diagonals"]] == [True]


# ht (x^2, y^2, z^2) = 3 = n in k[x, y, z], so dim A/I = 0
DIM_ZERO = "vars: x (1,0), y (1,0), z (1,0)\nideal: x^2; y^2; z^2\n"


def test_a_zero_dimensional_quotient_is_read_off_the_problem_file(capsys, tmp_path):
    # without a --dim-zero flag both of these once took dim A/I > 0
    code, general = closed_form(capsys, tmp_path, "gorenstein --family general --a 2", DIM_ZERO)
    assert code == 0
    assert general == closed_form(capsys, tmp_path, "gorenstein --family general --a 2 --n 3 --d 2 --height 3")[1]
    assert [d["sufficient_only"] for d in general["diagonals"]] == [True]
    code, quasi = closed_form(capsys, tmp_path, "quasi-gorenstein --a 3", DIM_ZERO)
    assert code == 0
    assert quasi == closed_form(capsys, tmp_path, "quasi-gorenstein --a 3 --n 3 --height 3")[1]
    assert quasi["count"] == 6
    assert {d["inputs"]["dim_positive"] for d in quasi["candidates"]} == {False}


@pytest.mark.parametrize("argv, message", [
    ("gorenstein --family general --n 3 --a 3 --d 1 --height 0", "general rule needs 1 <= height <= n"),
    ("gorenstein --family general --n 3 --a 3 --d 1 --height 4", "general rule needs 1 <= height <= n"),
    ("quasi-gorenstein --a 3 --n 3 --height 0", "quasi-gorenstein bounds needs 1 <= height <= n"),
    ("quasi-gorenstein --a 3 --n 3 --height 4", "quasi-gorenstein bounds needs 1 <= height <= n"),
])
def test_a_height_outside_one_to_n_exits_1(capsys, argv, message):
    assert main(["--no-cache", *argv.split()]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


@pytest.mark.parametrize("argv, flag", [
    ("gorenstein --family general --n 3 --a 2 --d 2 --dim-zero", "--dim-zero"),
    ("quasi-gorenstein --a 3 --n 3 --dim-zero", "--dim-zero"),
    ("gorenstein --family ci --n 3 --degrees 2 --r 2", "--r"),
])
def test_flags_the_criteria_work_out_are_unrecognized(capsys, argv, flag):
    # dim A/I > 0 is read as ht I < n, and r is the number of degrees
    with pytest.raises(SystemExit) as exc:
        main(["--no-cache", *argv.split()])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("reeslab: error: unrecognized arguments: %s\n" % flag)


# x^2 y lies in (x^2, y^2)
REDUNDANT = "vars: x (1,0), y (1,0), z (1,0)\nideal: x^2; y^2; x^2*y\n"


@pytest.mark.parametrize("command", ["rees", "diag --c 5 --e 2", "mixed-mult", "fit-hs",
                                     "bayer-stillman --first-degree 2"])
def test_a_redundant_generator_changes_no_report(capsys, tmp_path, command):
    # rees once gave d 3 and u 7, diag and mixed-mult exited 1, fit-hs took the general
    # route and bayer-stillman refused x^2 y as a generator above degree 2
    code, redundant = closed_form(capsys, tmp_path, command, REDUNDANT)
    assert code == 0
    assert redundant == closed_form(capsys, tmp_path, command, REDUNDANT.replace("; x^2*y", ""))[1]


def test_bayer_stillman_refuses_a_minimal_generator_above_the_first_degree(capsys, cubic_file):
    assert main(["--no-cache", "bayer-stillman", "--first-degree", "1", cubic_file]) == 1
    assert capsys.readouterr().err == "error: ideal has a generator of first degree above 1\n"


def test_an_exit_2_report_exits_2_on_a_cache_hit(capsys, isolated_cache):
    # the miss stores the report with its code, and the hit serves both
    runs = [run_cli(capsys, "cm-threshold", "--d", "2", "--n", "4") for _ in range(2)]
    assert len(list(isolated_cache.glob("*.json"))) == 1
    assert runs[0] == runs[1]
    assert runs[0][0] == 2 and json.loads(runs[0][1])["result"] == {"missing": ["a2G|a1"]}


def test_equimultiple_height_zero_is_not_read_as_the_default(capsys):
    # --height 0 once became the default height 2 and gave verdict true
    argv = "cm-check --family equimultiple --c 5 --e 1 --d 2 --height 0 --a-quotient 1".split()
    assert main(["--no-cache", *argv]) == 1
    assert "equimultiple criterion needs height > 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "gorenstein --family ci --degrees 2,x --n 3",
    "cm-check --family scm --c 9 --e 1 --degrees 3,,3 --n 3 --height 2",
    "gorenstein --family polynomial-ring --degrees 2,,2 --n 3",
])
def test_malformed_degrees_exit_2_with_the_usage_message(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(["--no-cache", *argv.split()])
    assert exc.value.code == 2
    assert "argument --degrees: expected comma-separated integers" in capsys.readouterr().err


COMMANDS = ("{gb,hs,hp,powers,fit-hp,fit-hs,mixed-mult,betti,reg,rees,diag,gorenstein,quasi-gorenstein,"
            "cm-check,cm-threshold,gin,borel,bayer-stillman}")
USAGE = "usage: reeslab [-h] [--format {json,text}] [--no-cache]\n               %s\n               ...\n" % COMMANDS
HS_USAGE = "usage: reeslab hs [-h] [--power POWER] [--module {ideal,quotient}] problem\n"
DIAG_ERROR = ("usage: reeslab diag [-h] --c C --e E [--s-max S_MAX] problem\n"
              "reeslab diag: error: the following arguments are required: --c, --e\n")

# argv -> (exit code, stdout, stderr) of the parser with one subparser per command, at 80 columns
PARSE_EXITS = {
    "": (2, "", USAGE + "reeslab: error: the following arguments are required: command\n"),
    "bogus": (2, "", USAGE + "reeslab: error: argument command: invalid choice: 'bogus' (choose from %s)\n"
              % ", ".join(repr(c) for c in COMMANDS[1:-1].split(","))),
    "hs --bogus f.ring": (2, "", USAGE + "reeslab: error: unrecognized arguments: --bogus\n"),
    "--bogus hs f.ring --x": (2, "", USAGE + "reeslab: error: unrecognized arguments: --bogus --x\n"),
    "diag f.ring": (2, "", DIAG_ERROR),
    "--bogus diag f.ring": (2, "", DIAG_ERROR),
    "hs": (2, "", HS_USAGE + "reeslab hs: error: the following arguments are required: problem\n"),
    "gorenstein --family ci --degrees 2,x --n 3": (2, "", (
        "usage: reeslab gorenstein [-h] [--n N] [--degrees DEGREES] [--m M] [--a A]\n"
        "                          [--d D] [--height HEIGHT] --family\n"
        "                          {ci,complete-intersection,maxminors,polynomial-ring,general}\n"
        "                          [problem]\n"
        "reeslab gorenstein: error: argument --degrees: expected comma-separated integers, got '2,x'\n")),
    "-h": (0, USAGE + (
        "\nExact Hilbert data, Rees presentations, Betti tables and diagonal criteria.\n\n"
        "positional arguments:\n  %s\n\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --format {json,text}\n"
        "  --no-cache\n") % COMMANDS, ""),
    "hs -h": (0, HS_USAGE + (
        "\npositional arguments:\n"
        "  problem               problem file (ring + ideal)\n\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --power POWER\n"
        "  --module {ideal,quotient}\n"), ""),
}


def _eager_parser():
    """The parser with one subparser per command, built up front on the running Python."""
    parser = argparse.ArgumentParser(
        prog="reeslab",
        description="Exact Hilbert data, Rees presentations, Betti tables and diagonal criteria.",
        formatter_class=cli._HelpFormatter,
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--no-cache", action="store_true")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, arguments in cli._COMMANDS.items():
        sub = subparsers.add_parser(command, formatter_class=cli._HelpFormatter)
        if command in cli._FAMILIES:
            sub.add_argument("problem", nargs="?", default=None)
            reads = (x for _, params, _ in cli._FAMILIES[command].values() for x in params)
            for param in dict.fromkeys(reads):
                sub.add_argument("--" + param.replace("_", "-"),
                                 type=cli._degree_list if param == "degrees" else int)
        else:
            sub.add_argument("problem", help="problem file (ring + ideal)")
        for *names, keywords in arguments:
            sub.add_argument(*names, **keywords)
    return parser


def _exit_of(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", sorted(PARSE_EXITS))
def test_argument_errors_and_help_are_those_of_one_subparser_per_command(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    got = _exit_of(capsys, main, argv.split())
    assert got == _exit_of(capsys, _eager_parser().parse_args, argv.split())
    # argparse's texts changed in 3.13; these are those of 3.10 to 3.12
    if sys.version_info < (3, 13):
        assert got == PARSE_EXITS[argv]


def test_a_command_builds_two_parsers(capsys, monkeypatch):
    # one parser for the options and the command, one for that command's arguments;
    # one subparser per command once made 19
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["--no-cache", "quasi-gorenstein", "--a", "3", "--n", "3"]) == 0
    assert built == ["reeslab", "reeslab quasi-gorenstein"]


def test_quasi_gorenstein_reads_n_from_the_problem_file(capsys, tmp_path):
    # the file was once accepted and ignored, and --n was required
    unequal = os.path.join(DEMOS, "unequal-degrees.ring")  # three variables
    code, from_file = closed_form(capsys, tmp_path, "quasi-gorenstein --a 3 " + unequal)
    assert (code, from_file) == (0, closed_form(capsys, tmp_path, "quasi-gorenstein --a 3 --n 3")[1])
    text = TWISTED_CUBIC.replace("family: scm a2G=-2", "family: a=3")
    assert closed_form(capsys, tmp_path, "quasi-gorenstein", text)[1] == \
        closed_form(capsys, tmp_path, "quasi-gorenstein --a 3 --n 4")[1]


# A complete intersection of height 2 in four variables, with generator degrees 2 and 3.
CI_PROBLEM = """\
vars: x (1,0), y (1,0), z (1,0), w (1,0)
ideal: x^2; y^3
"""


def closed_form(capsys, tmp_path, argv, text=None):
    """Exit code and parsed stdout of one closed-form command, on a problem file holding text if given."""
    words = argv.split()
    if text is not None:
        path = tmp_path / "problem.ring"
        path.write_text(text)
        words.append(str(path))
    code = main(["--no-cache", *words])
    out = capsys.readouterr().out
    return code, json.loads(out)["result"] if out else None


def test_gorenstein_flags_override_the_problem_file(capsys, tmp_path):
    # the file once won over --n, --degrees and --r, while cm-check let flags win
    _, from_flags = closed_form(capsys, tmp_path, "gorenstein --family ci --n 7 --degrees 2,3")
    code, from_file = closed_form(capsys, tmp_path, "gorenstein --family ci --n 7", CI_PROBLEM)
    assert code == 0
    assert from_file == from_flags
    assert {d["inputs"]["n"] for d in from_file["diagonals"]} == {7}
    # r follows the degrees that were used, here those of the flag
    _, from_flags = closed_form(capsys, tmp_path, "gorenstein --family ci --n 7 --degrees 1,1,1")
    _, from_file = closed_form(capsys, tmp_path, "gorenstein --family ci --n 7 --degrees 1,1,1", CI_PROBLEM)
    assert from_file == from_flags


@pytest.mark.parametrize("command", [
    "cm-check --family ci --c 8 --e 2",
    "gorenstein --family ci",
])
def test_complete_intersection_file_gives_the_flags_verdict(capsys, tmp_path, command):
    flags = {"cm-check": " --d 3 --u 5 --n 4", "gorenstein": " --degrees 2,3 --n 4"}[command.split()[0]]
    code, from_flags = closed_form(capsys, tmp_path, command + flags)
    assert (code, closed_form(capsys, tmp_path, command, CI_PROBLEM)) == (0, (0, from_flags))


@pytest.mark.parametrize("command", [
    "cm-check --family ci --c 8 --e 2",
    "gorenstein --family ci",
    "gorenstein --family complete-intersection --n 9 --degrees 2,2,2",
])
def test_complete_intersection_check_refuses_the_twisted_cubic(capsys, command):
    # three quadrics of height 2: the criterion once applied and exited 0
    assert main(["--no-cache", *command.split(), os.path.join(DEMOS, "twisted-cubic.ring")]) == 1
    assert ("complete-intersection check failed: 3 minimal generators, height 2"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv, family, expected", [
    # d from the generators: equimultiple once asked for --d
    ("cm-check --family equimultiple --c 5 --e 1", "a_quotient=1",
     {"c": 5, "e": 1, "d": 2, "height": 2, "a_quotient": 1}),
    ("cm-check --family equimultiple --c 5 --e 1 --d 4", "d=3 a_quotient=1",
     {"c": 5, "e": 1, "d": 4, "height": 2, "a_quotient": 1}),
    ("cm-check --family equimultiple --c 7 --e 1", "d=3 a_quotient=1",
     {"c": 7, "e": 1, "d": 3, "height": 2, "a_quotient": 1}),
    ("cm-check --family scm --c 9 --e 1", "height=2",
     {"c": 9, "e": 1, "degrees": [2, 2, 2], "n": 4, "height": 2}),
    ("cm-threshold", "a2G=-2", {"d": 2, "n": 4, "a2_form_ring": -2}),
    ("cm-threshold --n 6", "d=3 a2G=-2", {"d": 3, "n": 6, "a2_form_ring": -2}),
])
def test_flag_then_family_line_then_generators(capsys, tmp_path, argv, family, expected):
    text = TWISTED_CUBIC.replace("family: scm a2G=-2", "family: " + family)
    code, result = closed_form(capsys, tmp_path, argv, text)
    assert code == 0
    assert result["inputs"] == expected


def test_gorenstein_general_and_polynomial_ring_read_the_problem_file(capsys, tmp_path):
    text = TWISTED_CUBIC.replace("family: scm a2G=-2", "family: a=2")
    code, general = closed_form(capsys, tmp_path, "gorenstein --family general", text)
    assert code == 0
    assert [d["inputs"] for d in general["diagonals"]] == [{"n": 4, "a": 2, "d": 2, "c": 4, "e": 1}]
    _, ring = closed_form(capsys, tmp_path, "gorenstein --family polynomial-ring", text)
    assert ring == closed_form(capsys, tmp_path, "gorenstein --family polynomial-ring --n 4 --degrees 2,2,2")[1]


def test_maximal_minors_take_no_n_from_the_variables(capsys, cubic_file):
    # the n of an m x n matrix is not the number of variables
    code, out = run_cli(capsys, "--no-cache", "gorenstein", "--family", "maxminors", "--m", "2", cubic_file)
    assert (code, json.loads(out)["result"]) == (2, {"missing": ["n"]})


@pytest.mark.parametrize("family, message", [
    ("n(1,2)", "family flag 'n' must be an int"),
    ("n", "family flag 'n' must be an int"),
    ("degrees=3", "family flag 'degrees' must be a tuple"),
    ("degrees()", "family flag 'degrees' must be a tuple"),
])
def test_family_line_values_of_the_wrong_type_exit_1(capsys, tmp_path, family, message):
    path = tmp_path / "problem.ring"
    path.write_text(TWISTED_CUBIC.replace("family: scm a2G=-2", "family: " + family))
    assert main(["--no-cache", *"cm-check --family scm --c 9 --e 1 --height 2".split(), str(path)]) == 1
    assert message in capsys.readouterr().err


def test_gorenstein_general_d_below_one_exits_1(capsys):
    # --d 0 once printed diagonals whose inputs said d = 1
    assert main(["--no-cache", "gorenstein", "--family", "general", "--n", "4", "--a", "3", "--d", "0"]) == 1
    assert "general rule needs d >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    # each of these once exited 0
    ("gorenstein --family general --n -3 --a 3 --d 1", "general rule needs n >= 1"),
    ("cm-threshold --d 2 --n -4 --a2G -2", "cm-threshold needs n >= 1"),
    ("cm-check --family ci --c 8 --e 2 --n -4 --d 3 --u 6", "complete-intersection criterion needs n >= 1"),
    ("gorenstein --family polynomial-ring --n 3 --degrees 2,0", "polynomial-ring rule needs every degree >= 1"),
    ("gorenstein --family ci --n 3 --degrees 2,0", "complete-intersection rule needs every degree >= 1"),
    ("cm-check --family scm --c 9 --e 1 --degrees 3,0,3 --n 3 --height 2",
     "strongly-cm criterion needs every degree >= 1"),
    ("cm-check --family equimultiple --c 5 --e 1 --d 0 --a-quotient 1 --height 2",
     "equimultiple criterion needs d >= 1"),
    ("quasi-gorenstein --a 3 --n -3", "quasi-gorenstein bounds needs n >= 1"),
    # this one was refused already
    ("gorenstein --family maxminors --m 0 --n 3", "need 1 <= m <= n"),
])
def test_closed_form_parameter_below_one_exits_1(capsys, argv, message):
    assert main(["--no-cache", *argv.split()]) == 1
    assert capsys.readouterr().err.startswith("error: " + message)


@pytest.mark.parametrize("height", ["0", "4"])
def test_strongly_cm_height_outside_the_generators_exits_1(capsys, height):
    # --height 0 once gave verdict true
    argv = "cm-check --family scm --c 9 --e 1 --degrees 3,3,3 --n 3 --height".split() + [height]
    assert main(["--no-cache", *argv]) == 1
    assert "strongly-cm criterion needs 1 <= height <= number of generators" in capsys.readouterr().err


def test_gorenstein_cites_each_criterion_once(capsys):
    code, out = run_cli(capsys, "--no-cache", "gorenstein", "--family", "general", "--n", "12", "--a", "7",
                        "--d", "1")
    doc = json.loads(out)
    assert (code, doc["result"]["count"]) == (0, 4)
    assert doc["criterion_citations"] == ["gorenstein-diagonal:general"]
    # the top-level list once stayed empty above diagonals that carry these
    assert doc["assumptions"] == ["form ring Gorenstein", "a = -a^2(G) supplied"]


def test_prime_field_problem(capsys, tmp_path):
    path = tmp_path / "modp.ring"
    path.write_text(
        "field: Fp:32003\nvars: x (1,0), y (1,0)\nideal: 3*x^2 - y^2; x*y\n"
    )
    code, out = run_cli(capsys, "gb", str(path))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["result"]["basis"]) >= 2


def test_error_exit_code(capsys, tmp_path):
    path = tmp_path / "broken.ring"
    path.write_text("vars: X1 (1,0)\nideal: X1*Missing\n")
    code = main(["gb", str(path)])
    assert code == 1


def test_bayer_stillman_on_inhomogeneous_input_exits_1(capsys, tmp_path):
    path = tmp_path / "inhomogeneous.ring"
    path.write_text("field: Q\nvars: x (1,0), y (1,0)\nideal: x^2 - y\n")
    code = main(["--no-cache", "bayer-stillman", "--first-degree", "2", str(path)])
    assert code == 1
    assert capsys.readouterr().err.strip() == "error: ideal must be homogeneous"


@pytest.mark.parametrize("argv, message", [
    (["fit-hs", "--predict", "-1"], "error: no power I^-1: the exponent must be >= 0"),
    (["fit-hp", "--predict", "-2"], "error: no power I^-2: the exponent must be >= 0"),
    (["gin", "--trials", "0"], "error: need at least one trial, got 0"),
    (["gin", "--trials", "-1"], "error: need at least one trial, got -1"),
    (["bayer-stillman", "--first-degree", "2", "--q-max", "-1"], "error: empty q-window (0, -1): no q to certify"),
    (["powers", "--max-power", "0"], "error: no powers I^1..I^0: the max power must be >= 1"),
    (["powers", "--max-power", "-1"], "error: no powers I^1..I^-1: the max power must be >= 1"),
    (["diag", "--c", "5", "--e", "2", "--s-max", "-1"], "error: no values for s = 0..-1: s_max must be >= 0"),
    (["betti", "--module", "quotient", "--degree-cap", "-1"], "error: empty window (-1, 0): a degree cap must be >= 0"),
], ids=["fit-hs-predict-negative", "fit-hp-predict-negative", "gin-zero-trials", "gin-negative-trials",
        "bayer-stillman-empty-window", "powers-max-power-zero", "powers-max-power-negative", "diag-s-max-negative",
        "betti-degree-cap-negative"])
def test_out_of_range_arguments_exit_1(capsys, cubic_file, argv, message):
    # each once raised a traceback or printed a vacuous report
    assert main(["--no-cache", *argv, cubic_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == message


@pytest.mark.parametrize("char_p, code, message", [
    ("-1", 1, "error: characteristic must be 0 or a prime, got -1"),
    ("4", 1, "error: characteristic must be 0 or a prime, got 4"),
    (MR_LIMIT, 1, "error: modulus %s is too large: primality is certified only below %s" % (MR_LIMIT, MR_LIMIT)),
    ("3", 0, ""),
])
def test_borel_takes_characteristic_zero_or_a_prime(tmp_path, char_p, code, message):
    # -1 once looped forever, so the command runs in a child process under a
    # timeout; 4 was answered by Lucas's rule, which holds only for primes,
    # and MR_LIMIT was taken for a prime
    path = tmp_path / "borel.ring"
    path.write_text("field: Q\nvars: x (1,0), y (1,0)\nideal: x^2; x*y\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "reeslab.cli", "--no-cache", "borel", "--char-p", char_p, str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr.strip()) == (code, message)
    if code == 0:
        assert json.loads(proc.stdout)["result"] == {"is_borel": True, "char_p": 3, "witness": None, "delta": [2, 0]}


def test_borel_reports_the_witness_of_an_ideal_that_is_not_borel_fixed(capsys, tmp_path):
    # the witness's three ints were once each passed to list(), a TypeError
    path = tmp_path / "frobenius.ring"
    path.write_text("field: Q\nvars: x (1,0), y (1,0)\nideal: x^2; y^2\n")
    code, out = run_cli(capsys, "--no-cache", "borel", str(path))
    assert code == 0
    # y^2 is in the ideal and its move to x*y is not
    assert json.loads(out)["result"] == {"is_borel": False, "char_p": 0, "witness": [[0, 2], 0, 1, 1], "delta": None}


def test_borel_regularity_needs_a_ring_of_characteristic_zero(capsys, tmp_path):
    path = tmp_path / "borel-f7.ring"
    path.write_text("field: Fp:7\nvars: x (1,0), y (1,0)\nideal: x^2; x*y\n")
    assert main(["--no-cache", "borel", str(path)]) == 1
    assert capsys.readouterr().err.strip() == "error: the generator-degree formula needs characteristic 0"


# Tiny problems at the edges of what each command accepts, and the flags each command requires.
EDGE_PROBLEMS = {
    "zero-ideal": "field: Q\nvars: x (1,0), y (1,0)\n",
    "unit-ideal": "field: Q\nvars: x (1,0), y (1,0)\nideal: 1\n",
    "not-borel-fixed": "field: Q\nvars: x (1,0), y (1,0)\nideal: x^2; y^2\n",
    "degree-0-1-variable": "field: Q\nvars: x (1,0), t (0,1)\nideal: x*t; x^2\n",
    "prime-field": "field: Fp:7\nvars: x (1,0), y (1,0)\nideal: x^2 + 3*y^2; x*y\n",
}
REQUIRED_FLAGS = {
    "powers": ["--max-power", "2"],
    "diag": ["--c", "2", "--e", "1"],
    "gorenstein": ["--family", "general"],
    "cm-check": ["--family", "ci", "--c", "2", "--e", "1"],
    "bayer-stillman": ["--first-degree", "2"],
}


@pytest.mark.parametrize("name", sorted(EDGE_PROBLEMS))
def test_every_command_on_edge_problems_exits_0_1_or_2(capsys, tmp_path, name):
    # an uncaught exception fails the test; so does a missing required flag, by argparse's SystemExit
    path = tmp_path / (name + ".ring")
    path.write_text(EDGE_PROBLEMS[name])
    codes = {command: main(["--no-cache", command, *REQUIRED_FLAGS.get(command, ()), str(path)])
             for command in cli._COMMANDS}
    capsys.readouterr()
    assert set(REQUIRED_FLAGS) <= set(codes) and list(codes) == list(cli._COMMANDS)
    assert {command: code for command, code in codes.items() if code not in (0, 1, 2)} == {}


@pytest.mark.parametrize("command, key, expected", [
    ("fit-hs", "series", {"num": [[1, 0, 0]], "den": [[1, 0, 4]]}),
    ("fit-hp", "coefficients", []),
])
def test_predict_zero_is_reported(capsys, cubic_file, command, key, expected):
    # I^0 = A, so H_{I^0} = H_A and P_{A/I^0} = 0; --predict 0 was once dropped
    code, out = run_cli(capsys, "--no-cache", command, "--predict", "0", cubic_file)
    assert code == 0
    assert json.loads(out)["result"]["predicted"] == {"power": 0, key: expected}


def test_betti_of_the_zero_quotient_has_no_invariants(capsys, cubic_file):
    # S/I^0 = 0: its table is empty and complete, with no shifts to read
    code, out = run_cli(capsys, "--no-cache", "betti", "--module", "quotient", "--power", "0", cubic_file)
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["rows"], result["complete"], result["power"]) == ([], True, 0)
    assert "invariants" not in result


def test_determinism_and_cache_hit(capsys, cubic_file, isolated_cache):
    code1, out1 = run_cli(capsys, "gb", cubic_file)
    entries = list(isolated_cache.glob("*.json"))
    assert len(entries) == 1
    code2, out2 = run_cli(capsys, "gb", cubic_file)
    assert out1 == out2
    assert code1 == code2 == 0


def test_no_cache_gives_identical_output(capsys, cubic_file, isolated_cache):
    _, out1 = run_cli(capsys, "--no-cache", "hs", cubic_file)
    assert not list(isolated_cache.glob("*.json"))
    _, out2 = run_cli(capsys, "hs", cubic_file)
    assert out1 == out2


def test_cache_entries_are_keyed_on_the_sources(capsys, cubic_file, isolated_cache, monkeypatch):
    from reeslab import cli

    _, out1 = run_cli(capsys, "hs", cubic_file)
    _, out2 = run_cli(capsys, "hs", cubic_file)
    assert out1 == out2
    assert len(list(isolated_cache.glob("*.json"))) == 1
    # changed sources miss the cache: a hit would write no second entry
    monkeypatch.setattr(cli, "source_digest", lambda: "0" * 64)
    _, out3 = run_cli(capsys, "hs", cubic_file)
    assert out3 == out1
    assert len(list(isolated_cache.glob("*.json"))) == 2


def test_corrupt_cache_entry_recomputed(capsys, cubic_file, isolated_cache):
    _, out1 = run_cli(capsys, "gb", cubic_file)
    entry = next(isolated_cache.glob("*.json"))
    entry.write_text("{not json")
    _, out2 = run_cli(capsys, "gb", cubic_file)
    assert out1 == out2
    assert json.loads(entry.read_text())


# each entry is made from the valid one; the last three have the report keys,
# and once crashed _emit with a TypeError or exited with the code's text
@pytest.mark.parametrize("entry", [
    lambda valid: {},
    lambda valid: [],
    lambda valid: {"payload": 1, "citations": 2, "assumptions": 3},
    lambda valid: {**valid, "code": "x"},
    lambda valid: {**valid, "code": True},
    lambda valid: {**valid, "citations": [1]},
], ids=["empty_object", "array", "wrong_types", "code_not_an_int", "code_bool", "citation_not_a_string"])
def test_cache_entry_that_is_no_report_is_recomputed(capsys, isolated_cache, entry):
    argv = ("quasi-gorenstein", "--a", "3", "--n", "3")
    _, out1 = run_cli(capsys, *argv)
    path = next(isolated_cache.glob("*.json"))
    path.write_text(json.dumps(entry(json.loads(path.read_text()))))
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0 and captured.out == out1
    assert "warning: corrupt cache entry %s" % path in captured.err
    assert set(json.loads(path.read_text())) >= {"payload", "citations", "assumptions"}
    # the rewritten entry is served again with no warning
    assert main(list(argv)) == 0
    assert capsys.readouterr() == (out1, "")


def test_text_format(capsys, cubic_file):
    code, out = run_cli(capsys, "--format", "text", "reg", cubic_file)
    assert code == 0
    assert "a_star" in out


def test_text_format_prints_each_row_as_one_json_line(capsys, cubic_file):
    code, out = run_cli(capsys, "--format", "text", "betti", "--power", "2", cubic_file)
    assert code == 0
    _, doc = run_cli(capsys, "betti", "--power", "2", cubic_file)
    rows = json.loads(doc)["result"]["rows"]
    lines = out.splitlines()
    start = lines.index("  rows:") + 1
    assert lines[start:start + len(rows)] == ["    - %s" % json.dumps(row, sort_keys=True) for row in rows]
    assert [json.loads(line[len("    - "):]) for line in lines[start:start + len(rows)]] == rows
    assert len(rows) == 3


def test_reg_command_matches_shift_invariants(capsys, cubic_file):
    code, out = run_cli(capsys, "reg", cubic_file)
    doc = json.loads(out)
    assert doc["result"]["a_star"] == [-1, 0]
    assert doc["result"]["reg"] == [2, 0]
    assert doc["result"]["proj_dim"] == 1


def test_reg_of_pure_powers(capsys, tmp_path):
    # x^10, y^10 is a regular sequence: proj dim 1, reg 20 - 1
    path = tmp_path / "pure-powers.ring"
    path.write_text("field: Q\nvars: x (1,0), y (1,0)\nideal: x^10; y^10\n")
    code, out = run_cli(capsys, "reg", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["reg"] == [19, 0]
    assert doc["result"]["proj_dim"] == 1
    assert main(["reg", "--degree-cap", "12", str(path)]) == 1


def test_rees_command(capsys, cubic_file):
    code, out = run_cli(capsys, "rees", cubic_file)
    doc = json.loads(out)
    assert doc["result"]["l"] == 3
    assert sorted(tuple(g["bidegree"]) for g in doc["result"]["generators"]) == [(3, 1), (3, 1)]


def test_diag_command(capsys, cubic_file):
    code, out = run_cli(capsys, "diag", "--c", "5", "--e", "2", "--s-max", "2", cubic_file)
    doc = json.loads(out)
    assert doc["result"]["values"][1] == 18
    assert doc["result"]["dimension"] == 4


def test_powers_command(capsys, cubic_file):
    code, out = run_cli(capsys, "powers", "--max-power", "2", cubic_file)
    doc = json.loads(out)
    powers = doc["result"]["powers"]
    assert powers[0]["minimal_generators"] == 3
    assert powers[1]["minimal_generators"] == 6
    assert powers[1]["generator_degrees"] == [4] * 6


def test_fit_hp_predict(capsys, cubic_file):
    code, out = run_cli(capsys, "fit-hp", "--max-power", "3", "--predict", "4", cubic_file)
    doc = json.loads(out)
    assert doc["result"]["predicted"]["coefficients"] == ["-90", "30"]


def test_ignored_max_power_does_not_key_the_cache(capsys, cubic_file, isolated_cache):
    _, out2 = run_cli(capsys, "fit-hp", "--max-power", "2", "--predict", "4", cubic_file)
    _, out3 = run_cli(capsys, "fit-hp", "--max-power", "3", "--predict", "4", cubic_file)
    assert out2 == out3
    assert len(list(isolated_cache.glob("*.json"))) == 1
    # powers reads --max-power, so each value is its own entry
    for n in ("2", "3"):
        run_cli(capsys, "powers", "--max-power", n, cubic_file)
    assert len(list(isolated_cache.glob("*.json"))) == 3


def test_fit_hs_general_route(capsys, tmp_path):
    path = tmp_path / "mixed.ring"
    path.write_text("field: Q\nvars: x (1,0), y (1,0)\nideal: x; y^2\n")
    code, out = run_cli(capsys, "fit-hs", "--max-power", "3", "--predict", "5", str(path))
    assert code == 0
    doc = json.loads(out)
    from reeslab import graded_ring, Ideal, parse_polynomial, hilbert_series_ideal, ideal_power

    A = graded_ring(["x", "y"])
    I = Ideal(A, [parse_polynomial("x", A), parse_polynomial("y^2", A)])
    direct = hilbert_series_ideal(ideal_power(I, 5), "ideal").to_json()
    assert doc["result"]["predicted"]["series"] == direct


def test_fit_hs_general_route_from_the_first_power(capsys, tmp_path):
    from reeslab import Ideal, graded_ring, hilbert_series_ideal, ideal_power, parse_polynomial

    path = tmp_path / "mixed.ring"
    path.write_text("field: Q\nvars: x (1,0), y (1,0)\nideal: x; y^2\n")
    A = graded_ring(["x", "y"])
    I = Ideal(A, [parse_polynomial("x", A), parse_polynomial("y^2", A)])
    for j in (4, 5, 6):
        code, out = run_cli(capsys, "--no-cache", "fit-hs", "--max-power", "1", "--predict", str(j), str(path))
        assert code == 0
        direct = hilbert_series_ideal(ideal_power(I, j), "ideal").to_json()
        assert json.loads(out)["result"]["predicted"]["series"] == direct


def test_mixed_mult_command(capsys, cubic_file):
    code, out = run_cli(capsys, "mixed-mult", "--max-power", "3", cubic_file)
    doc = json.loads(out)
    assert doc["result"]["e_R"] == [0, 1, 2, 1]
    assert doc["result"]["e_G"] == [2, 3, 0]


PLANAR_FAT = "field: Q\nvars: X (1,0), Y (1,0)\nideal: X^7; Y^7; X^6*Y + X^2*Y^5\n"
MONOMIAL_XY = "field: Q\nvars: x (1,0), y (1,0), z (1,0)\nideal: x^3; x^2*y; y^4\n"
WEIGHTED_XY = "field: Q\nvars: x (1,0), y (2,0)\nideal: x; y\n"


@pytest.mark.parametrize("text, argv, reference", [
    # past the threshold (4 here), the template; a window of one power once printed a wrong series
    (PLANAR_FAT, ["fit-hs", "--max-power", "1", "--predict", "6"], ["hs", "--power", "6"]),
    # at or below the threshold, the power's own t-slice
    (PLANAR_FAT, ["fit-hs", "--max-power", "1", "--predict", "2"], ["hs", "--power", "2"]),
    # no free point at j = 0, which is off this ideal's family
    (MONOMIAL_XY, ["fit-hp", "--max-power", "2", "--predict", "5"], ["hp", "--power", "5", "--module", "quotient"]),
    (TWISTED_CUBIC, ["fit-hs", "--max-power", "1", "--predict", "3"], ["hs", "--power", "3"]),
    (TWISTED_CUBIC, ["mixed-mult", "--max-power", "2"], {"e_R": [0, 1, 2, 1], "e_G": [2, 3, 0]}),
    # the general route over a weighted base ring once printed H_{I^2} over (1-s)^2
    (WEIGHTED_XY, ["fit-hs", "--predict", "2"], ["hs", "--power", "2"]),
], ids=["planar-fat-past-threshold", "planar-fat-below-threshold", "monomial-no-zero-point",
        "twisted-cubic-fit-hs", "twisted-cubic-mixed-mult", "weighted-general-route"])
def test_power_reports_match_the_direct_route(capsys, tmp_path, text, argv, reference):
    path = tmp_path / "problem.ring"
    path.write_text(text)
    code, out = run_cli(capsys, "--no-cache", *argv, str(path))
    assert code == 0
    result = json.loads(out)["result"]
    if isinstance(reference, dict):
        assert {k: result[k] for k in reference} == reference
        return
    code, out = run_cli(capsys, "--no-cache", *reference, str(path))
    assert code == 0
    direct = json.loads(out)["result"]
    key = "series" if "series" in direct else "coefficients"
    assert result["predicted"][key] == direct[key]


def test_weighted_equigenerated_fit_hs_takes_the_general_route(capsys, tmp_path):
    # x^2 and y both have degree 2, but the template needs samples over (1-s)^2;
    # this input once exited 1 with "series is not over (1-s)^2"
    path = tmp_path / "problem.ring"
    path.write_text("field: Q\nvars: x (1,0), y (2,0)\nideal: x^2; y\n")
    code, out = run_cli(capsys, "--no-cache", "fit-hs", "--predict", "2", str(path))
    assert code == 0
    result = json.loads(out)
    assert result["criterion_citations"] == ["general-rees-t-slices"]
    code, out = run_cli(capsys, "--no-cache", "hs", "--power", "2", str(path))
    assert code == 0
    direct = json.loads(out)["result"]["series"]
    assert result["result"]["predicted"]["series"] == direct
    assert direct == {"num": [[3, 4, 0], [-2, 6, 0]], "den": [[1, 0, 1], [2, 0, 1]]}


@pytest.mark.parametrize("text", [TWISTED_CUBIC, PLANAR_FAT], ids=["twisted-cubic", "planar-fat"])
def test_fit_hs_template_matches_buchberger_powers(capsys, tmp_path, text):
    from reeslab import hilbert_series_ideal, ideal_power
    from reeslab.asymptotics import fit_hilbert_series

    path = tmp_path / "problem.ring"
    path.write_text(text)
    code, out = run_cli(capsys, "--no-cache", "fit-hs", str(path))
    assert code == 0
    template = json.loads(out)["result"]
    I = parse_problem(text).ideal
    # the m = len(I.gens) powers past the threshold, each through Groebner bases
    t = template["threshold"]
    samples = {
        j: hilbert_series_ideal(ideal_power(I, j), "ideal") for j in range(t + 1, t + 1 + len(I.gens))
    }
    oracle = fit_hilbert_series(samples, template["d"], template["l"], include_zero=t == 0)
    assert json.loads(json.dumps(oracle.to_json())) == template


def test_cm_threshold_uses_family_flag(capsys, cubic_file):
    code, out = run_cli(capsys, "cm-threshold", "--d", "2", "--n", "4", cubic_file)
    doc = json.loads(out)
    assert doc["result"]["verdict"] == -2


def _worker(payload):
    cubic_file, cache_dir = payload
    env = dict(os.environ, REESLAB_CACHE=cache_dir)
    proc = subprocess.run(
        [sys.executable, "-m", "reeslab.cli", "gb", cubic_file],
        capture_output=True, text=True, env=env,
    )
    return proc.returncode, proc.stdout


def test_concurrent_invocations_share_one_entry(cubic_file, isolated_cache):
    with multiprocessing.Pool(2) as pool:
        results = pool.map(_worker, [(cubic_file, str(isolated_cache))] * 2)
    (c1, o1), (c2, o2) = results
    assert c1 == c2 == 0
    assert o1 == o2
    entries = list(isolated_cache.glob("*.json"))
    assert len(entries) == 1
    json.loads(entries[0].read_text())
