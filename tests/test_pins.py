"""Pinned outputs: each CLI command and each demo prints, byte for byte, its file in demos/expected."""

import runpy
from pathlib import Path

import pytest

from reeslab.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"
EXPECTED = DEMOS / "expected"

# pin name (demos/expected/cli_<name>.txt) -> argv after `reeslab --no-cache`;
# a word ending in .ring names a problem file in demos/. Each exits 0 but those in EXIT_CODES.
CLI_PINS = {
    "gin": "gin --seed 7 twisted-cubic.ring",
    "fit_hp": "fit-hp --max-power 3 --predict 4 twisted-cubic.ring",
    "fit_hs": "fit-hs --max-power 6 --predict 7 unequal-degrees.ring",
    "mixed_mult": "mixed-mult --max-power 3 twisted-cubic.ring",
    "diag": "diag --c 5 --e 2 twisted-cubic.ring",
    "fit_hs_cubic": "fit-hs --max-power 1 --predict 3 twisted-cubic.ring",
    "rees": "rees twisted-cubic.ring",
    "hs": "hs --power 3 twisted-cubic.ring",
    "hs_unequal": "hs unequal-degrees.ring",
    "betti": "betti --power 2 twisted-cubic.ring",
    "bayer_stillman": "bayer-stillman --first-degree 2 --seed 7 twisted-cubic.ring",
    "reg": "reg --power 2 twisted-cubic.ring",
    "betti_quotient": "betti --module quotient --power 3 twisted-cubic.ring",
    "powers_unequal": "powers --max-power 3 unequal-degrees.ring",
    "bayer_stillman_unequal": "bayer-stillman --first-degree 4 --seed 7 unequal-degrees.ring",
    "gin_unequal": "gin --seed 7 unequal-degrees.ring",
    "gin_lex": "gin --seed 7 twisted-cubic-lex.ring",
    "hs_power_unequal": "hs --power 2 unequal-degrees.ring",
    "gb": "gb twisted-cubic.ring",
    "gb_unequal": "gb unequal-degrees.ring",
    "rees_unequal": "rees unequal-degrees.ring",
    # closed-form criteria, from flags alone and from a problem file
    "gorenstein_maxminors": "gorenstein --family maxminors --m 2 --n 3",
    "quasi_gorenstein": "quasi-gorenstein --a 3 --n 3",
    "cm_check_ci": "cm-check --family ci --c 8 --e 2 --d 3 --u 6 --n 2",
    "cm_threshold": "cm-threshold --d 2 --n 4 --a2G -2",
    "cm_threshold_cubic": "cm-threshold --d 2 --n 4 twisted-cubic.ring",
    "cm_check_scm_cubic": "cm-check --family scm --c 9 --e 1 --height 2 twisted-cubic.ring",
    # a closed-form family without one of its required inputs prints what is missing
    "cm_threshold_missing": "cm-threshold --d 2 --n 4",
}
EXIT_CODES = {"cm_threshold_missing": 2}


def test_every_pin_file_has_a_command():
    pinned = {p.name for p in EXPECTED.glob("*.txt")}
    named = {"cli_%s.txt" % name for name in CLI_PINS}
    named |= {p.stem + ".txt" for p in DEMOS.glob("demo_*.py")}
    assert pinned == named


@pytest.mark.parametrize("name", sorted(CLI_PINS))
def test_cli_prints_its_pin(capsys, name):
    argv = [str(DEMOS / w) if w.endswith(".ring") else w for w in CLI_PINS[name].split()]
    assert main(["--no-cache", *argv]) == EXIT_CODES.get(name, 0)
    assert capsys.readouterr().out == (EXPECTED / ("cli_%s.txt" % name)).read_text()


@pytest.mark.parametrize("demo", sorted(p.stem for p in DEMOS.glob("demo_*.py")))
def test_demo_prints_its_pin(capsys, demo):
    runpy.run_path(str(DEMOS / (demo + ".py")), run_name="__main__")
    assert capsys.readouterr().out == (EXPECTED / (demo + ".txt")).read_text()
