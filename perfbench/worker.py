"""Child process of the benchmark; run from the checkout root with PYTHONPATH=src.

    worker.py setup SPEC                 import reeslab and build the ideals of SPEC
    worker.py pass SPEC OUT [SPANS]      one pass over the jobs of SPEC; SPANS turns tracing on
    worker.py cli OUT SPANS -- ARGS...   one traced `reeslab` command

SPEC is the JSON written by run.py from corpus.library_spec. Each job reports
its CPU time and its interval on the monotonic clock, which run.py shares.
Layer functions are looked up on their modules at call time, so a tracer
installed first sees every call the benchmark makes.
"""

from __future__ import annotations

import json
import math
import signal
import sys
from time import perf_counter, process_time

JOB_LIMIT_S = 120


class JobTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise JobTimeout("job exceeded %d s" % JOB_LIMIT_S)


def load(spec_path):
    """Import the layers the jobs call and build every ideal from its text."""
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    import reeslab
    import reeslab.asymptotics  # noqa: F401  (imported here so set-up pays for it)
    import reeslab.betti  # noqa: F401
    import reeslab.diagonals  # noqa: F401
    import reeslab.ginreg  # noqa: F401
    import reeslab.rees  # noqa: F401

    ideals = {}
    for key, d in spec["ideals"].items():
        field = reeslab.PrimeField(d["char"]) if d["char"] else reeslab.QQ
        ring = reeslab.graded_ring(d["vars"], field=field)
        ideals[key] = reeslab.Ideal(ring, [reeslab.rings.parse_polynomial(g, ring) for g in d["gens"]])
    return spec, ideals


# ---------------------------------------------------------------------------
# jobs: each returns (raw result, ideals whose series the hit probe re-asks for)

def job_betti(job, ideals):
    from reeslab import betti, groebner

    powers = [groebner.ideal_power(ideals[job["ideal"]], j) for j in job["powers"]]
    return [betti.graded_betti_table(I, cap, job["module"]) for I, cap in zip(powers, job["caps"])], powers


def job_bigraded(job, ideals):
    from reeslab import betti, rees

    K = rees.rees_presentation(ideals[job["ideal"]]).defining_ideal
    return betti.bigraded_betti_table(K, tuple(job["window"])), [K]


def job_hs(job, ideals):
    from reeslab import groebner, hilbert

    I = groebner.ideal_power(ideals[job["ideal"]], job["power"])
    return hilbert.hilbert_series_ideal(I, "ideal"), [I]


def job_rees(job, ideals):
    from reeslab import asymptotics, diagonals, groebner, rees

    P = rees.rees_presentation(ideals[job["ideal"]])
    F = rees.fiber_cone(P)
    slices = {j: P.power_series(j) for j in range(1, job["slice_max"] + 1)}
    template = asymptotics.fit_hilbert_series(
        {j: slices[j] for j in job["fit_powers"]}, P.max_degree, F.spread,
        include_zero=job["include_zero"],
    )
    dim = diagonals.diagonal_dimension(P, diagonals.DiagonalSpec(P.max_degree + 1, 1))
    gb = groebner.groebner_basis(P.defining_ideal)
    return (P, F, slices, template, dim, gb), [P.defining_ideal]


def job_gin(job, ideals):
    from reeslab import ginreg, groebner

    return [ginreg.generic_initial_ideal(groebner.ideal_power(ideals[i["ideal"]], i["power"]),
                                         trials=3, seed=i["seed"]) for i in job["inputs"]], []


def job_mono_pivot(job, ideals):
    from reeslab import hilbert

    return [hilbert.hilbert_series_monomial(ideals[k]) for k in job["ideals"]], []


def job_mono_gb(job, ideals):
    from reeslab import hilbert

    Js = [ideals[k] for k in job["ideals"]]
    return [hilbert.hilbert_series_ideal(J) for J in Js], Js


JOBS = {
    "betti": job_betti, "bigraded": job_bigraded, "hs": job_hs, "rees": job_rees,
    "gin": job_gin, "mono_pivot": job_mono_pivot, "mono_gb": job_mono_gb,
}


# ---------------------------------------------------------------------------
# canonical outputs: mathematical content only, as JSON

def series_json(s):
    return {"num": [[a, b, c] for (a, b), c in s.num], "den": [[a, b, m] for (a, b), m in s.den]}


def poly_json(f):
    return sorted([list(m), str(c)] for m, c in f.terms)


def canonical(kind, raw):
    if kind == "betti":
        return {"tables": [[[p, d[0], d[1], r] for p, d, r in t.entries] for t in raw]}
    if kind == "bigraded":
        return {"entries": [[p, d[0], d[1], r] for p, d, r in raw.entries]}
    if kind == "hs":
        return {"series": series_json(raw)}
    if kind == "rees":
        P, F, slices, template, dim, gb = raw
        return {
            "generator_bidegrees": [list(d) for d in P.generator_bidegrees()],
            "spread": F.spread,
            "fiber_series": series_json(F.series),
            "slices": {str(j): series_json(s) for j, s in slices.items()},
            "template": {"offsets": list(template.offsets),
                         "polys": [[str(c) for c in p] for p in template.polys]},
            "diagonal_dimension": dim,
            "basis": sorted(poly_json(g) for g in gb.polys),
        }
    if kind == "gin":
        return {"generators": [[list(m) for m in r.generators()] for r in raw]}
    return {"series": [series_json(s) for s in raw]}


def hit_probe(probes, job_cpu_s):
    """CPU time of one more request for the series of every probe ideal.

    The requests repeat for at least 0.2 s, or 5 % of the job's own time when
    that is longer (long jobs are timed once per run), so tiny times are
    measured as a batch; the interval lets run.py scale it to full speed.
    """
    from reeslab import hilbert

    def ask():
        for I in probes:
            hilbert.hilbert_series_ideal(I)

    cpu = process_time()
    ask()
    repeats = max(3, math.ceil(max(0.2, 0.05 * job_cpu_s) / max(process_time() - cpu, 1e-6)))
    start, cpu = perf_counter(), process_time()
    for _ in range(repeats):
        ask()
    return {"cpu_s": (process_time() - cpu) / repeats, "t0": start, "t1": perf_counter()}


def run_pass(spec_path, out_path, spans_path=None):
    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    spec, ideals = load(spec_path)
    parse_s = 0.0
    if tracer:
        parse_s = tracer.totals.get("rings.parse_s", 0.0)
        tracer.clear()
    signal.signal(signal.SIGALRM, _alarm)
    records = []
    start = perf_counter()
    for job in spec["jobs"]:
        rec = {"name": job["name"], "t0": perf_counter()}
        cpu = process_time()
        signal.setitimer(signal.ITIMER_REAL, JOB_LIMIT_S)
        try:
            rec["raw"], rec["probes"] = JOBS[job["kind"]](job, ideals)
        except Exception as exc:  # a failing job is recorded and the pass goes on
            rec["error"] = "%s: %s" % (type(exc).__name__, exc)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        rec["cpu_s"] = process_time() - cpu
        rec["t1"] = perf_counter()
        records.append(rec)
    wall = perf_counter() - start
    summary = None
    if tracer:
        summary = tracer.summary()
        summary["totals"]["rings.parse_s"] = summary["totals"].get("rings.parse_s", 0.0) + parse_s
        tracer.write_spans(spans_path)
    for job, rec in zip(spec["jobs"], records):
        if "error" in rec:
            continue
        rec["output"] = canonical(job["kind"], rec.pop("raw"))
        probes = rec.pop("probes")
        rec["hit"] = hit_probe(probes, rec["cpu_s"]) if probes else None
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"wall_s": wall, "jobs": records, "trace": summary}, fh)


def run_cli(out_path, spans_path, argv):
    start = perf_counter()
    import reeslab.cli

    import_s = perf_counter() - start
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = reeslab.cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "trace": tracer.summary()}, fh)
        tracer.write_spans(spans_path)
    return code


def main(argv):
    mode = argv[0]
    if mode == "setup":
        load(argv[1])
        return 0
    if mode == "pass":
        run_pass(argv[1], argv[2], argv[3] if len(argv) > 3 else None)
        return 0
    if mode == "cli" and argv[3] == "--":
        return run_cli(argv[1], argv[2], argv[4:])
    print("usage: worker.py setup SPEC | pass SPEC OUT [SPANS] | cli OUT SPANS -- ARGS", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
