"""Start-up and the package surface, checked in fresh interpreters.

The test process has already imported every layer, so what a command loads,
and how errors from layers it has not loaded are reported, is observable only
in a new process.
"""

import contextlib
import io
import os
import subprocess
import sys

import pytest

import reeslab

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

TWISTED_CUBIC = """\
field: Q
vars: X1 (1,0), X2 (1,0), X3 (1,0), X4 (1,0)
order: degrevlex
ideal: X1*X4 - X2*X3; X2^2 - X1*X3; X3^2 - X2*X4
"""

# Runs `reeslab` with the given arguments, then prints the exit code and the
# reeslab submodules and the standard modules named in it if loaded by the
# time the command returned.
_RUN_AND_LIST = """\
import contextlib, io, sys
from reeslab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("reeslab.") or m in %r))
"""
RUN_AND_LIST_MODULES = _RUN_AND_LIST % (("dataclasses", "fractions", "inspect"),)

# The standard modules a cache store loads, through tempfile.mkstemp, and a hit must not.
STORE_MODULES = ("random", "shutil", "tempfile")
RUN_AND_LIST_STORE_MODULES = _RUN_AND_LIST % (STORE_MODULES,)

# `sorted(reeslab.__all__)` before `import reeslab` became lazy, and `initial_monomials`, added since.
PUBLIC_NAMES = [
    "BigradedHilbertPolynomial", "DEGLEX", "DEGREVLEX", "DimMultReport", "GroebnerBasis",
    "HilbertPolynomial", "HilbertSeriesRational", "Ideal", "LEX", "ParseError", "Polynomial",
    "PrimeField", "QQ", "RingError", "RingSpec", "SeriesError", "TermOrder",
    "bigraded_hilbert_polynomial", "blowup_ring", "colon_ideal", "dim_mult", "eliminate",
    "elimination_order", "format_polynomial", "graded_ring", "groebner", "groebner_basis",
    "hilbert", "hilbert_function", "hilbert_polynomial", "hilbert_series_ideal",
    "hilbert_series_monomial", "hilbert_series_ring", "ideal_power", "ideal_product",
    "initial_ideal", "initial_monomials", "minimal_generators", "multidegree_of", "normal_form",
    "parse_polynomial", "rings",
]


def fresh_python(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
               PYTHONDONTWRITEBYTECODE="1", REESLAB_CACHE=str(tmp_path / "cache"))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=120)


def loaded_after(tmp_path, code, *args):
    proc = fresh_python(tmp_path, "-c", code, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_startup_imports_only_what_the_command_runs(tmp_path):
    listing = "import sys; print(*sorted(m for m in sys.modules if m.startswith('reeslab.')))"
    assert loaded_after(tmp_path, "import reeslab; " + listing) == []
    # the front end does not load the handlers, reeslab.commands
    assert loaded_after(tmp_path, "import reeslab.cli; " + listing) == ["reeslab.cache", "reeslab.cli"]

    code, *loaded = loaded_after(tmp_path, RUN_AND_LIST_MODULES, "--no-cache", "quasi-gorenstein",
                                 "--a", "3", "--n", "3")
    assert code == "0"
    assert "reeslab.diagonals" in loaded
    for layer in ("groebner", "hilbert", "rees", "betti", "ginreg", "asymptotics"):
        assert "reeslab." + layer not in loaded

    cubic = tmp_path / "twisted-cubic.ring"
    cubic.write_text(TWISTED_CUBIC)
    code, *loaded = loaded_after(tmp_path, RUN_AND_LIST_MODULES, "--no-cache", "hs", str(cubic))
    assert code == "0"
    assert "reeslab.hilbert" in loaded
    for layer in ("betti", "ginreg", "asymptotics", "diagonals"):
        assert "reeslab." + layer not in loaded


def test_no_layer_imports_dataclasses_or_inspect(tmp_path):
    layers = sorted(f[:-3] for f in os.listdir(os.path.join(SRC, "reeslab")) if f.endswith(".py"))
    assert "rings" in layers and "cli" in layers
    code = "import sys\n" + "".join("import reeslab.%s\n" % m for m in layers if m != "__init__") + (
        "print(*[m for m in ('dataclasses', 'inspect') if m in sys.modules], 'done')")
    assert loaded_after(tmp_path, code) == ["done"]

    cubic = tmp_path / "twisted-cubic.ring"
    cubic.write_text(TWISTED_CUBIC)
    code, *loaded = loaded_after(tmp_path, RUN_AND_LIST_MODULES, "hs", str(cubic))
    assert code == "0"
    assert "reeslab.hilbert" in loaded
    assert "dataclasses" not in loaded and "inspect" not in loaded


def test_cache_hit_builds_no_algebra(tmp_path):
    cubic = tmp_path / "twisted-cubic.ring"
    cubic.write_text(TWISTED_CUBIC)
    code, *loaded = loaded_after(tmp_path, RUN_AND_LIST_MODULES, "hs", str(cubic))
    assert code == "0"
    assert "reeslab.groebner" in loaded
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1
    code, *loaded = loaded_after(tmp_path, RUN_AND_LIST_MODULES, "hs", str(cubic))
    assert code == "0"
    assert loaded == ["reeslab.cache", "reeslab.cli", "reeslab.problemfile"]


# The commands of the benchmark's cli workload (perfbench/corpus.py, cli_commands), with the
# seeds of one run; {problem} is a problem file, here the twisted cubic.
CLI_WORKLOAD = [
    "hs --power 2 {problem}",
    "rees {problem}",
    "betti --power 2 {problem}",
    "reg {problem}",
    "fit-hp --max-power 3 --predict 4 {problem}",
    "fit-hs --max-power 2 --predict 3 {problem}",
    "mixed-mult --max-power 3 {problem}",
    "diag --c 5 --e 2 {problem}",
    "gin {problem} --seed 123",
    "bayer-stillman --first-degree 2 {problem} --seed 456",
    "gorenstein --family maxminors --m 2 --n 3",
    "quasi-gorenstein --a 3 --n 3",
    "cm-check --family ci --c 8 --e 2 --d 3 --u 6 --n 2",
    "cm-threshold --d 2 --n 4 --a2G -2",
]

# vars(args) of each workload command and of three that take every default, as the
# parser with one subparser per command gave them; the cache key is read off these.
_TOP = {"format": "json", "no_cache": False}
_FILE = dict(_TOP, problem="{problem}")
PARSED = {
    "hs --power 2 {problem}": dict(_FILE, command="hs", power=2, module="ideal"),
    "rees {problem}": dict(_FILE, command="rees"),
    "betti --power 2 {problem}": dict(_FILE, command="betti", power=2, degree_cap=None, module="ideal"),
    "reg {problem}": dict(_FILE, command="reg", power=1, degree_cap=None),
    "fit-hp --max-power 3 --predict 4 {problem}": dict(_FILE, command="fit-hp", max_power=3, predict=4),
    "fit-hs --max-power 2 --predict 3 {problem}": dict(_FILE, command="fit-hs", max_power=2, predict=3),
    "mixed-mult --max-power 3 {problem}": dict(_FILE, command="mixed-mult", max_power=3),
    "diag --c 5 --e 2 {problem}": dict(_FILE, command="diag", c=5, e=2, s_max=6),
    "gin {problem} --seed 123": dict(_FILE, command="gin", trials=3, seed=123),
    "bayer-stillman --first-degree 2 {problem} --seed 456":
        dict(_FILE, command="bayer-stillman", first_degree=2, q_max=None, seed=456),
    "gorenstein --family maxminors --m 2 --n 3":
        dict(_TOP, command="gorenstein", problem=None, n=3, r=None, degrees=None, m=2, a=None, d=None,
             height=None, family="maxminors", dim_zero=False),
    "quasi-gorenstein --a 3 --n 3": dict(_TOP, command="quasi-gorenstein", problem=None, a=3, n=3, dim_zero=False),
    "cm-check --family ci --c 8 --e 2 --d 3 --u 6 --n 2":
        dict(_TOP, command="cm-check", problem=None, d=3, u=6, n=2, height=None, a_quotient=None, degrees=None,
             family="ci", c=8, e=2),
    "cm-threshold --d 2 --n 4 --a2G -2": dict(_TOP, command="cm-threshold", problem=None, d=2, n=4, a2G=-2, a1=None),
    "hs {problem}": dict(_FILE, command="hs", power=1, module="ideal"),
    "betti {problem}": dict(_FILE, command="betti", power=1, degree_cap=None, module="ideal"),
    "gin {problem}": dict(_FILE, command="gin", trials=3, seed=0),
    "--format text --no-cache hs {problem}": dict(_FILE, format="text", no_cache=True, command="hs", power=1,
                                                  module="ideal"),
}


def test_parsed_arguments_are_those_of_one_subparser_per_command():
    from reeslab.cli import _parse_args

    assert set(CLI_WORKLOAD) < set(PARSED)
    for line, expected in PARSED.items():
        assert vars(_parse_args(line.split())) == expected, line


def test_a_cache_hit_of_each_workload_command_loads_only_the_front_end(tmp_path, monkeypatch):
    cubic = tmp_path / "twisted-cubic.ring"
    cubic.write_text(TWISTED_CUBIC)
    monkeypatch.setenv("REESLAB_CACHE", str(tmp_path / "cache"))
    from reeslab.cli import main

    argvs = [line.format(problem=cubic).split() for line in CLI_WORKLOAD]
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0, argv  # the miss, in this process
    assert len(list((tmp_path / "cache").glob("*.json"))) == len(CLI_WORKLOAD)
    for line, argv in zip(CLI_WORKLOAD, argvs):
        # -S skips the site module and what its .pth files import; reeslab comes from PYTHONPATH
        hit = fresh_python(tmp_path, "-S", "-c", RUN_AND_LIST_STORE_MODULES, *argv)
        code, *loaded = hit.stdout.split()
        assert code == "0", (line, hit.stderr)
        front_end = ["reeslab.cache", "reeslab.cli"] + (["reeslab.problemfile"] if "{problem}" in line else [])
        assert [m for m in loaded if m.startswith("reeslab.")] == front_end, line
        # only a store makes a temporary file, and argparse's terminal-width lookup is not shutil's
        assert not set(STORE_MODULES) & set(loaded), line


def test_the_cache_loads_tempfile_only_to_store(tmp_path):
    # -S keeps out what site's .pth files import, tempfile among them in some installs
    listed = "; import sys; print(0, *sorted(m for m in sys.modules if m in %r))" % (STORE_MODULES,)
    store = "c.cache_lookup_store('k', lambda: 1, directory='store')"
    for code, expected in (("import reeslab.cache", []), ("import reeslab.cache as c; " + store, STORE_MODULES)):
        proc = fresh_python(tmp_path, "-S", "-c", code + listed)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", *expected]


def test_a_miss_under_python_m_imports_the_front_end_once(tmp_path):
    # under -m the front end runs as __main__; importing reeslab.cli as well would compile it twice
    cubic = tmp_path / "twisted-cubic.ring"
    cubic.write_text(TWISTED_CUBIC)
    proc = fresh_python(tmp_path, "-X", "importtime", "-m", "reeslab.cli", "hs", str(cubic))
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}
    assert "reeslab.commands" in imported and "reeslab.hilbert" in imported
    assert "reeslab.cli" not in imported


def test_public_surface_is_unchanged():
    assert sorted(reeslab.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(reeslab))
    for name in PUBLIC_NAMES:
        assert getattr(reeslab, name) is not None
    namespace = {}
    exec("from reeslab import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert namespace["groebner"] is sys.modules["reeslab.groebner"]
    with pytest.raises(AttributeError):
        reeslab.no_such_name


def test_from_import_of_a_submodule_works_lazily(tmp_path):
    out = loaded_after(tmp_path, (
        "import sys, reeslab\n"
        "assert 'reeslab.betti' not in sys.modules\n"
        "from reeslab import betti\n"
        "print(betti.__name__, betti is sys.modules['reeslab.betti'])\n"
    ))
    assert out == ["reeslab.betti", "True"]


def test_errors_of_unloaded_layers_exit_1_without_a_traceback(tmp_path):
    unequal = tmp_path / "unequal.ring"
    unequal.write_text("field: Q\nvars: x (1,0), y (1,0)\nideal: x^2; y^3\n")
    high = tmp_path / "high.ring"
    high.write_text("field: Q\nvars: x (1,0), y (1,0)\nideal: x^10; y^10\n")
    cases = [
        (["mixed-mult", "--max-power", "2", str(unequal)],
         "error: mixed multiplicities need an equigenerated ideal"),  # FitError
        (["reg", "--degree-cap", "12", str(high)], "error: table is truncated"),  # BettiError
    ]
    for argv, message in cases:
        proc = fresh_python(tmp_path, "-m", "reeslab.cli", "--no-cache", *argv)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith(message)
        assert "Traceback" not in proc.stderr
