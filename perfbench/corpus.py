"""Workload inputs: fixed ideals as text, seeded monomial ideals, and the job lists.

Everything here is plain data built with the standard library; the program
under test only ever sees the text this module produces.
"""

from __future__ import annotations

import random

QQ = 0
F32003 = 32003

_QUARTIC = (
    ["x0", "x1", "x2", "x3", "x4"],
    ["x0*x2 - x1^2", "x0*x3 - x1*x2", "x0*x4 - x1*x3",
     "x1*x3 - x2^2", "x1*x4 - x2*x3", "x2*x4 - x3^2"],
)

# name -> (variables, generators, field characteristic)
IDEALS = {
    "twisted_cubic": (
        ["X1", "X2", "X3", "X4"],
        ["X1*X4 - X2*X3", "X2^2 - X1*X3", "X3^2 - X2*X4"],
        QQ,
    ),
    "planar_fat": (["X", "Y"], ["X^7", "Y^7", "X^6*Y + X^2*Y^5"], QQ),
    "quartic": _QUARTIC + (QQ,),
    "quartic_f32003": _QUARTIC + (F32003,),
    "sym_minors": (
        ["x11", "x12", "x13", "x22", "x23", "x33"],
        ["x22*x33 - x23^2", "x12*x33 - x13*x23", "x12*x23 - x13*x22",
         "x11*x33 - x13^2", "x11*x23 - x12*x13", "x11*x22 - x12^2"],
        QQ,
    ),
    "minors_2x4": (
        ["a1", "a2", "a3", "a4", "b1", "b2", "b3", "b4"],
        ["a%d*b%d - a%d*b%d" % (i, j, j, i) for i in range(1, 5) for j in range(i + 1, 5)],
        QQ,
    ),
}

# The twisted cubic as a problem file, for the command-line workload.
TWISTED_CUBIC_FILE = """field: Q
vars: X1 (1,0), X2 (1,0), X3 (1,0), X4 (1,0)
order: degrevlex
ideal: X1*X4 - X2*X3; X2^2 - X1*X3; X3^2 - X2*X4
family: scm a2G=-2
"""

# (variables, generators) of each seeded monomial ideal: 8-12 variables and
# 40-80 generators of degree 2-5, one ideal per slot.
MONOMIAL_SLOTS = [(8 + i % 5, 40 + (i * 13) % 41) for i in range(20)]


def _monomial_text(names, exps):
    factors = ["%s^%d" % (v, e) if e > 1 else v for v, e in zip(names, exps) if e]
    return "*".join(factors)


def monomial_ideals(rng):
    out = {}
    for slot, (n, count) in enumerate(MONOMIAL_SLOTS):
        names = ["z%d" % i for i in range(n)]
        gens = set()
        while len(gens) < count:
            exps = [0] * n
            for _ in range(rng.randint(2, 5)):
                exps[rng.randrange(n)] += 1
            gens.add(tuple(exps))
        out["mono%02d" % slot] = (names, [_monomial_text(names, e) for e in sorted(gens)], QQ)
    return out


def _job(name, kind, ideal, **params):
    return dict(params, name=name, kind=kind, ideal=ideal)


def koszul_jobs():
    return [
        _job("tc_powers", "betti", "twisted_cubic", powers=[1, 2, 3], caps=[8, 10, 12], module="ideal"),
        _job("pf_powers", "betti", "planar_fat", powers=[1, 2, 3, 4, 5], caps=[11, 18, 25, 32, 39],
             module="ideal"),
        _job("quartic_I3", "betti", "quartic", powers=[3], caps=[13], module="ideal"),
        _job("quartic_I2_quotient_Q", "betti", "quartic", powers=[2], caps=[10], module="quotient"),
        _job("quartic_I2_quotient_F32003", "betti", "quartic_f32003", powers=[2], caps=[10],
             module="quotient"),
        _job("tc_rees", "bigraded", "twisted_cubic", window=[15, 15]),
        _job("pf_rees", "bigraded", "planar_fat", window=[65, 65]),
    ]


# Rees jobs: slices j <= slice_max; the series template is fitted on fit_powers.
_REES = {
    "twisted_cubic": dict(slice_max=5, fit_powers=[1, 2, 3, 4, 5], include_zero=True),
    "sym_minors": dict(slice_max=5, fit_powers=[1, 2, 3, 4, 5], include_zero=True),
    "minors_2x4": dict(slice_max=5, fit_powers=[1, 2, 3, 4, 5], include_zero=True),
    "quartic": dict(slice_max=5, fit_powers=[1, 2, 3, 4, 5], include_zero=True),
    # the planar-fat template holds only from the fifth power on
    "planar_fat": dict(slice_max=8, fit_powers=[5, 6, 7, 8], include_zero=False),
}


def series_jobs(rng, monomials):
    jobs = [_job("quartic_hs_I%d" % j, "hs", "quartic", power=j) for j in (1, 2, 3, 4)]
    jobs.append(_job("quartic_hs_I4_F32003", "hs", "quartic_f32003", power=4))
    jobs += [_job("rees_" + name, "rees", name, **params) for name, params in _REES.items()]
    jobs.append(_job("gin", "gin", None, inputs=[
        {"ideal": "minors_2x4", "power": 1, "seed": rng.randrange(10 ** 6)},
        {"ideal": "quartic", "power": 2, "seed": rng.randrange(10 ** 6)},
    ]))
    names = sorted(monomials)
    jobs.append(_job("monomial_pivot", "mono_pivot", None, ideals=names))
    jobs.append(_job("monomial_buchberger", "mono_gb", None, ideals=names))
    return jobs


def library_spec(workload, seed):
    """Ideals (as text) and jobs of a library workload for one seed."""
    if workload == "koszul":
        jobs = koszul_jobs()
        ideals = dict(IDEALS)
    elif workload == "series":
        rng = random.Random("series:%d" % seed)
        monomials = monomial_ideals(rng)
        jobs = series_jobs(rng, monomials)
        ideals = dict(IDEALS, **monomials)
    else:
        raise ValueError("not a library workload: %r" % workload)
    used = ({j["ideal"] for j in jobs} | {k for j in jobs for k in j.get("ideals", ())}
            | {i["ideal"] for j in jobs for i in j.get("inputs", ())})
    used.discard(None)
    return {
        "ideals": {k: {"vars": v[0], "gens": v[1], "char": v[2]} for k, v in ideals.items() if k in used},
        "jobs": jobs,
    }


def cli_commands(seed):
    """(name, argv) of the command-line workload; the problem file is {problem}."""
    rng = random.Random("cli:%d" % seed)
    gin_seed, bs_seed = rng.randrange(10 ** 6), rng.randrange(10 ** 6)
    return [
        ("hs", ["hs", "--power", "2", "{problem}"]),
        ("rees", ["rees", "{problem}"]),
        ("betti", ["betti", "--power", "2", "{problem}"]),
        ("reg", ["reg", "{problem}"]),
        ("fit-hp", ["fit-hp", "--max-power", "3", "--predict", "4", "{problem}"]),
        ("fit-hs", ["fit-hs", "--max-power", "2", "--predict", "3", "{problem}"]),
        ("mixed-mult", ["mixed-mult", "--max-power", "3", "{problem}"]),
        ("diag", ["diag", "--c", "5", "--e", "2", "{problem}"]),
        ("gin", ["gin", "{problem}", "--seed", str(gin_seed)]),
        ("bayer-stillman", ["bayer-stillman", "--first-degree", "2", "{problem}", "--seed", str(bs_seed)]),
        ("gorenstein", ["gorenstein", "--family", "maxminors", "--m", "2", "--n", "3"]),
        ("quasi-gorenstein", ["quasi-gorenstein", "--a", "3", "--n", "3"]),
        ("cm-check", ["cm-check", "--family", "ci", "--c", "8", "--e", "2", "--d", "3", "--u", "6", "--n", "2"]),
        ("cm-threshold", ["cm-threshold", "--d", "2", "--n", "4", "--a2G", "-2"]),
    ]


# Known defects of the program, kept out of the timed workloads (every
# operation there must succeed) and run by `run.py --defects` instead.
DEFECT_FILES = {
    "pure_powers": "field: Q\nvars: x (1,0), y (1,0)\nideal: x^10; y^10\n",
    "mersenne61": TWISTED_CUBIC_FILE.replace("field: Q", "field: Fp:2305843009213693951"),
}
DEFECTS = [
    ("reg-pure-powers", ["reg", "{pure_powers}"]),
    ("hs-mersenne61", ["hs", "{mersenne61}"]),
]
