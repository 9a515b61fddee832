"""Start-up and the package surface, checked in fresh interpreters.

The test process has already imported every layer, so what a command loads,
and how errors from layers it has not loaded are reported, is observable only
in a new process.
"""

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
# reeslab submodules, `dataclasses`, `fractions` and `inspect` if loaded by the
# time the command returned.
RUN_AND_LIST_MODULES = """\
import contextlib, io, sys
from reeslab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("reeslab.") or m in ("dataclasses", "fractions", "inspect")))
"""

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
