#!/usr/bin/env python3
"""Benchmark of reeslab: the koszul, series and cli workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload koszul --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --defects

A run measures set-up several times, then repeats passes over the workload's
jobs, each in a fresh process, until --seconds have gone (at least one pass;
library workloads then repeat their short jobs until MIN_PASSES). Every
output is checked. Times are CPU seconds scaled to the machine's full speed
by SpeedProbe. The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A traced run alternates
untraced and traced passes, so the tracing overhead is measured in the run.
NOTES.md gives the reasons for each workload and what each metric should move.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import bisect  # noqa: E402
import copy  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import check  # noqa: E402
import corpus  # noqa: E402

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORK = os.path.join(HERE, ".work")
REFERENCES = os.path.join(HERE, "references.json")
WORKLOADS = ("koszul", "series", "cli")
SETUP_RUNS = 9
WORKER_LIMIT_S = 170
MIN_PASSES = 4
LIGHT_JOB_S = 1.0
CLI_LIMIT_S = 20
PROBE_SIZE = 3_300
PROBE_REF_S = 0.001       # CPU time of one probe at full speed (2-vCPU KVM guest, Python 3.11)
PROBE_EVERY_S = 0.01
PROBE_WINDOW_S = 0.15      # shortest interval the speed of a unit is averaged over

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("miss_p50_s", "s"), ("miss_p90_s", "s"), ("hit_p50_s", "s"), ("hit_p90_s", "s")]
PER_LAYER = [
    ("betti.self_s", "s"), ("betti.tables", "count"), ("betti.bidegrees", "count"),
    ("betti.entries", "count"), ("betti.nonzero_ratio", "ratio"),
    ("linalg.self_s", "s"), ("linalg.rows", "count"), ("linalg.rank_sum", "count"),
    ("linalg.useful_ratio", "ratio"),
    ("groebner.self_s", "s"), ("groebner.basis_calls", "count"), ("groebner.basis_polys", "count"),
    ("groebner.normal_form_calls", "count"), ("groebner.power_s", "s"),
    ("ginreg.self_s", "s"), ("ginreg.trials", "count"),
    ("rees.self_s", "s"), ("rees.presentations", "count"),
    ("hilbert.self_s", "s"), ("hilbert.series_calls", "count"), ("hilbert.pivot_nodes", "count"),
    ("cache.hits", "count"), ("cache.misses", "count"), ("cache.self_s", "s"),
    ("cache.bytes_written", "bytes"),
    ("problemfile.load_s", "s"), ("cli.self_s", "s"), ("cli.import_s", "s"), ("rings.parse_s", "s"),
    ("asymptotics.self_s", "s"), ("diagonals.self_s", "s"),
    ("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
]
UNITS = dict(END_TO_END + PER_LAYER)


class SetupError(RuntimeError):
    """The program could not even be set up: no result is printed."""


# ---------------------------------------------------------------------------
# child processes


class Child:
    def __init__(self, code, start, end, cpu_s, rss_mb, timed_out):
        self.code, self.start, self.end, self.cpu_s = code, start, end, cpu_s
        self.rss_mb, self.timed_out = rss_mb, timed_out

    @property
    def elapsed(self):
        return self.end - self.start


def _probe():
    """Dict and tuple work, the kind the program does; it tracks the program's
    slowdowns better than a pure integer loop."""
    d = {}
    for i in range(PROBE_SIZE):
        d[(i, i + 1, i & 7)] = (i, -i)
    t = 0
    for k, v in d.items():
        t += v[0] ^ k[2]
    return t


class SpeedProbe:
    """Samples how fast the benchmark's CPU runs, from a thread pinned to it.

    The vCPUs of a shared KVM guest slow down by up to about 1.9x in phases of a few
    seconds, set by other tenants, and each CPU on its own. Children run
    pinned to the probed CPU. Their CPU time is scaled to full speed by the
    mean of PROBE_REF_S / probe time over the probes taken meanwhile, in a
    window of at least PROBE_WINDOW_S.
    """

    def __init__(self, cpu):
        self.cpu = cpu
        self.samples = []       # (perf_counter, speed as a share of full speed)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(PROBE_EVERY_S):
            start = time.thread_time()
            _probe()
            self.samples.append((time.perf_counter(), PROBE_REF_S / (time.thread_time() - start)))

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def full_speed(self, cpu_s, t0, t1):
        """CPU seconds spent between t0 and t1, scaled to full speed."""
        samples = list(self.samples)
        mid, half = (t0 + t1) / 2, max(t1 - t0, PROBE_WINDOW_S) / 2
        lo = bisect.bisect_left(samples, mid - half, key=lambda x: x[0])
        hi = bisect.bisect_right(samples, mid + half, key=lambda x: x[0])
        window = samples[lo:hi] or samples[max(lo - 1, 0):lo + 1]
        return cpu_s * statistics.fmean(speed for _, speed in window)


def child_env(work):
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1", REESLAB_CACHE=os.path.join(work, "cache"))
    return env


def spawn(argv, env, limit, stdout_path, stderr_path):
    """Run argv to completion; its interval, CPU time and peak RSS."""
    timed_out = []

    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=out, stderr=err)

        def kill():
            timed_out.append(True)
            proc.kill()

        timer = threading.Timer(limit, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
    timer.join()
    return Child(proc.returncode, start, end, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, bool(timed_out))


def _read(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def measure_setup(argv, env, work, probe):
    """Median of SETUP_RUNS set-ups, each in CPU seconds at full speed."""
    times = []
    for _ in range(SETUP_RUNS):
        child = spawn(argv, env, WORKER_LIMIT_S, os.path.join(work, "setup.out"),
                      os.path.join(work, "setup.err"))
        if child.code != 0:
            raise SetupError("set-up failed (exit %d): %s"
                             % (child.code, _read(os.path.join(work, "setup.err"))[-2000:]))
        times.append(probe.full_speed(child.cpu_s, child.start, child.end))
    return statistics.median(times)


def keep_going(passes, deadline, last, need_traced):
    if need_traced and not any(p["traced"] for p in passes):
        return True
    return time.monotonic() + last <= deadline


def plan_pass(passes, left, traced, full_s, light):
    """("full" or "light", traced?) for the next library pass, or (None, False) to stop.

    A full pass runs every job. When no full pass fits in the time left, the
    jobs that took under LIGHT_JOB_S in the first pass run again on their own,
    so that a run whose one full pass fills it still times each short job
    MIN_PASSES times.
    """
    if not passes:
        return "full", False
    if traced and not any(p["traced"] for p in passes):
        return "full", True
    if left >= full_s:
        return "full", traced and not passes[-1]["traced"]
    if light["jobs"] and len(passes) < MIN_PASSES:
        return "light", False
    return None, False


# ---------------------------------------------------------------------------
# library workloads (koszul, series)


def run_library(workload, seed, seconds, traced, work, refs, probe, only=None):
    spec = corpus.library_spec(workload, seed)
    if only:
        spec["jobs"] = [j for j in spec["jobs"] if j["name"] in only]
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = child_env(work)
    py = sys.executable
    setup_s = None if traced else measure_setup([py, WORKER, "setup", spec_path], env, work, probe)
    checker = check.LibraryChecker(workload, spec, refs)
    spans_dir = os.path.join(WORK, "spans", workload)
    if traced:
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
    light_path = os.path.join(work, "light.json")
    passes, errors, light, full_s = [], {}, None, 0.0
    deadline = time.monotonic() + seconds
    while True:
        kind, use_trace = plan_pass(passes, deadline - time.monotonic(), traced, full_s, light)
        if kind is None:
            break
        pass_spec, path = (spec, spec_path) if kind == "full" else (light, light_path)
        out = os.path.join(work, "pass.json")
        argv = [py, WORKER, "pass", path, out]
        if use_trace:
            argv.append(os.path.join(spans_dir, "pass%d.jsonl" % len(passes)))
        child = spawn(argv, env, WORKER_LIMIT_S, os.path.join(work, "pass.out"), os.path.join(work, "pass.err"))
        result = json.loads(_read(out)) if child.code == 0 else None
        if os.path.exists(out):
            os.remove(out)
        passes.append(score_library_pass(pass_spec, checker, child, result, use_trace, errors, work, probe))
        if kind == "full":
            full_s = child.elapsed
        if light is None:
            light = dict(spec, jobs=[j for j in spec["jobs"] if passes[0]["parts"].get(j["name"], LIGHT_JOB_S) < LIGHT_JOB_S])
            with open(light_path, "w", encoding="utf-8") as fh:
                json.dump(light, fh)
    return summarize(passes, setup_s, traced, errors)


def score_library_pass(spec, checker, child, result, traced, errors, work, probe):
    jobs = spec["jobs"]
    if result is None:
        why = "worker exit %d%s: %s" % (child.code, " (time limit)" if child.timed_out else "",
                                       _read(os.path.join(work, "pass.err"))[-500:])
        for job in jobs:
            errors.setdefault(job["name"], why)
        return {"traced": traced, "attempted": len(jobs), "failed": len(jobs), "parts": {},
                "raw_wall_s": None, "rss_mb": child.rss_mb, "miss": {}, "hit": {}, "trace": None}
    failed, outputs = set(), {}
    for job, rec in zip(jobs, result["jobs"]):
        problems = checker.check(job, rec)
        if problems:
            failed.add(job["name"])
            errors.setdefault(job["name"], "; ".join(problems))
        else:
            outputs[job["name"]] = rec["output"]
    for name, why in checker.check_pairs(outputs):
        failed.add(name)
        errors.setdefault(name, why)
    parts = {rec["name"]: probe.full_speed(rec["cpu_s"], rec["t0"], rec["t1"]) for rec in result["jobs"]}
    hit = {rec["name"]: probe.full_speed(rec["hit"]["cpu_s"], rec["hit"]["t0"], rec["hit"]["t1"])
           for rec in result["jobs"] if rec["name"] not in failed and rec.get("hit")}
    return {"traced": traced, "attempted": len(jobs), "failed": len(failed), "parts": parts,
            "raw_wall_s": result["wall_s"], "rss_mb": child.rss_mb,
            "miss": {name: t for name, t in parts.items() if name not in failed}, "hit": hit,
            "trace": dict(result["trace"], import_s=0.0) if result["trace"] else None}


# ---------------------------------------------------------------------------
# the command-line workload


def _substitute(argv, files):
    return [files[a[1:-1]] if a.startswith("{") and a.endswith("}") else a for a in argv]


def run_cli(seed, seconds, traced, work, refs, probe, only=None):
    problem = os.path.join(work, "twisted-cubic.ring")
    with open(problem, "w", encoding="utf-8") as fh:
        fh.write(corpus.TWISTED_CUBIC_FILE)
    commands = [(n, _substitute(a, {"problem": problem})) for n, a in corpus.cli_commands(seed)
                if not only or n in only]
    env = child_env(work)
    py = sys.executable
    setup_s = None if traced else measure_setup([py, "-c", "import reeslab.cli"], env, work, probe)
    checker = check.CliChecker(refs)
    spans_dir = os.path.join(WORK, "spans", "cli")
    if traced:
        shutil.rmtree(spans_dir, ignore_errors=True)
        os.makedirs(spans_dir)
    cache = env["REESLAB_CACHE"]
    passes, errors = [], {}
    deadline = time.monotonic() + seconds
    while True:
        use_trace = traced and len(passes) % 2 == 1
        shutil.rmtree(cache, ignore_errors=True)
        parts, ok = {}, {"miss": {}, "hit": {}}
        failed, rss, raw_wall, summaries = 0, 0.0, 0.0, []
        for phase in ("miss", "hit"):
            for name, args in commands:
                out, err = os.path.join(work, "cmd.out"), os.path.join(work, "cmd.err")
                if use_trace:
                    tag = "%s-%s-%d" % (name, phase, len(passes))
                    tout = os.path.join(work, "trace.json")
                    argv = [py, WORKER, "cli", tout, os.path.join(spans_dir, tag + ".jsonl"), "--"] + args
                else:
                    argv = [py, "-m", "reeslab.cli"] + args
                child = spawn(argv, env, CLI_LIMIT_S, out, err)
                took = probe.full_speed(child.cpu_s, child.start, child.end)
                parts[name + "/" + phase] = took
                raw_wall += child.elapsed
                rss = max(rss, child.rss_mb)
                problems = checker.check(name, child.code, _read(out))
                if child.timed_out:
                    problems = ["time limit of %d s" % CLI_LIMIT_S]
                if problems:
                    failed += 1
                    errors.setdefault("%s (%s)" % (name, phase), "; ".join(problems))
                else:
                    ok[phase][name] = took
                if use_trace and os.path.exists(tout):
                    t = json.loads(_read(tout))
                    summaries.append(dict(t["trace"], import_s=t["import_s"]))
                    os.remove(tout)
        passes.append({"traced": use_trace, "attempted": 2 * len(commands), "failed": failed,
                       "parts": parts, "raw_wall_s": raw_wall, "rss_mb": rss,
                       "miss": ok["miss"], "hit": ok["hit"],
                       "trace": _merge(summaries) if use_trace else None})
        if not keep_going(passes, deadline, raw_wall, traced):
            break
    return summarize(passes, setup_s, traced, errors)


def _merge(summaries):
    out = {"self_s": {}, "counts": {}, "totals": {}, "import_s": 0.0}
    for s in summaries:
        for part in ("self_s", "counts", "totals"):
            for k, v in s[part].items():
                out[part][k] = out[part].get(k, 0) + v
        out["import_s"] += s["import_s"]
    return out


# ---------------------------------------------------------------------------
# metrics


def p90(values):
    """Inclusive method: the jobs are the whole population, and with a handful
    of them the default exclusive method extrapolates past the largest."""
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def layer_metrics(trace, wall):
    self_s, counts, totals = trace["self_s"], trace["counts"], trace["totals"]

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    m = {
        "betti.self_s": self_s.get("betti", 0.0),
        "betti.tables": counts.get("betti.tables", 0),
        "betti.bidegrees": counts.get("betti.bidegrees", 0),
        "betti.entries": counts.get("betti.entries", 0),
        "betti.nonzero_ratio": ratio("betti.nonzero_bidegrees", "betti.bidegrees"),
        "linalg.self_s": self_s.get("_linalg", 0.0),
        "linalg.rows": counts.get("linalg.rows", 0),
        "linalg.rank_sum": counts.get("linalg.useful", 0),
        "linalg.useful_ratio": ratio("linalg.useful", "linalg.rows"),
        "groebner.self_s": self_s.get("groebner", 0.0),
        "groebner.basis_calls": counts.get("groebner.basis_calls", 0),
        "groebner.basis_polys": counts.get("groebner.basis_polys", 0),
        "groebner.normal_form_calls": counts.get("groebner.normal_form_calls", 0),
        "groebner.power_s": totals.get("groebner.power_s", 0.0),
        "ginreg.self_s": self_s.get("ginreg", 0.0),
        "ginreg.trials": counts.get("ginreg.trials", 0),
        "rees.self_s": self_s.get("rees", 0.0),
        "rees.presentations": counts.get("rees.presentations", 0),
        "hilbert.self_s": self_s.get("hilbert", 0.0),
        "hilbert.series_calls": counts.get("hilbert.series_calls", 0),
        "hilbert.pivot_nodes": counts.get("hilbert.pivot_nodes", 0),
        "cache.hits": counts.get("cache.hits", 0),
        "cache.misses": counts.get("cache.misses", 0),
        "cache.self_s": self_s.get("cache", 0.0),
        "cache.bytes_written": counts.get("cache.bytes_written", 0),
        "problemfile.load_s": totals.get("problemfile.load_s", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.import_s": trace["import_s"],
        "rings.parse_s": totals.get("rings.parse_s", 0.0),
        "asymptotics.self_s": self_s.get("asymptotics", 0.0),
        "diagonals.self_s": self_s.get("diagonals", 0.0),
    }
    m["trace.unattributed_s"] = wall - sum(self_s.values()) - trace["import_s"]
    return m


def per_unit(passes, key):
    """Median over the passes of each timed unit (job, command phase or hit probe)."""
    times = {}
    for p in passes:
        for name, t in p[key].items():
            times.setdefault(name, []).append(t)
    return {name: statistics.median(ts) for name, ts in times.items()}


def summarize(passes, setup_s, traced, errors):
    plain = [p for p in passes if not p["traced"]]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wall = sum(per_unit(plain, "parts").values())
    miss = list(per_unit(plain, "miss").values()) or [float("nan")]
    hit = list(per_unit(plain, "hit").values()) or [float("nan")]
    info = {"passes": len(plain), "traced_passes": len(passes) - len(plain), "errors": errors,
            "miss_samples": len(miss), "hit_samples": len(hit)}
    if traced:
        marked = [p for p in passes if p["traced"] and p["trace"]]
        rows = [layer_metrics(p["trace"], p["raw_wall_s"]) for p in marked]
        metrics = {name: _median(r.get(name) for r in rows) for name, _ in PER_LAYER}
        metrics["trace.wall_s"] = sum(per_unit(marked, "parts").values())
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
    else:
        metrics = {
            "wall_s": wall, "setup_s": setup_s,
            "peak_rss_mb": max(p["rss_mb"] for p in plain),
            "miss_p50_s": statistics.median(miss), "miss_p90_s": p90(miss),
            "hit_p50_s": statistics.median(hit), "hit_p90_s": p90(hit),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": UNITS[k]} for k in metrics}}, info


# ---------------------------------------------------------------------------
# entry points


def run_workload(workload, seed, seconds, traced, refs, only=None):
    work = os.path.join(WORK, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})      # children inherit it
    try:
        with SpeedProbe(cpu) as probe:
            if workload == "cli":
                return run_cli(seed, seconds, traced, work, refs, probe, only)
            return run_library(workload, seed, seconds, traced, work, refs, probe, only)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(workload, seed, seconds, traced, result, info):
    print("reeslab benchmark: workload=%s seed=%d seconds=%d trace=%d python=%s "
          "bytecode_writes=off hashseed=0 passes=%d traced_passes=%d"
          % (workload, seed, seconds, traced, sys.version.split()[0], info["passes"], info["traced_passes"]))
    for name, m in result["metrics"].items():
        print("  %-28s %14.6f %s" % (name, m["value"], m["unit"]))
    print("  %-28s %14.6f ratio (%d failed of %d attempted)" % (
        "fail_ratio", result["failed"] / result["attempted"], result["failed"], result["attempted"]))
    if not traced:
        print("  times are CPU seconds at full speed; percentiles over the median of each of %d miss and %d hit units"
              % (info["miss_samples"], info["hit_samples"]))
    for job, why in sorted(info["errors"].items()):
        print("  FAILED %s: %s" % (job, why))


def load_refs():
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def _corrupt(value):
    """Copy of a reference value with its first integer changed."""
    value = copy.deepcopy(value)
    stack = [value]
    while stack:
        obj = stack.pop()
        keys = range(len(obj)) if isinstance(obj, list) else list(obj)
        for k in keys:
            if isinstance(obj[k], bool):
                obj[k] = not obj[k]
                return value
            if isinstance(obj[k], int):
                obj[k] += 1
                return value
            if isinstance(obj[k], (list, dict)):
                stack.append(obj[k])
    raise ValueError("nothing to corrupt")


SMOKE_JOBS = {"koszul": "pf_powers", "series": "quartic_hs_I1", "cli": "quasi-gorenstein"}


def smoke():
    """The smallest job of each workload: every metric prints with its unit, and a
    corrupted reference is reported as a failure."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    refs = load_refs()
    problems = []
    for workload, job in SMOKE_JOBS.items():
        for traced in (0, 1):
            result, info = run_workload(workload, 1, 0, traced, refs, only={job})
            report(workload, 1, 0, traced, result, info)
            want = spec["per_layer"] if traced else spec["end_to_end"]
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != {m["name"]: declared[m["name"]] for m in want}:
                problems.append("%s trace=%d: metrics or units differ from BENCHMARK.json" % (workload, traced))
            if not result["correct"]:
                problems.append("%s trace=%d: the smallest job failed" % (workload, traced))
        bad = copy.deepcopy(refs)
        bad[workload][job]["value"] = _corrupt(bad[workload][job]["value"])
        result, info = run_workload(workload, 1, 0, 0, bad, only={job})
        if result["correct"] or result["failed"] == 0:
            problems.append("%s: a corrupted reference went unnoticed" % workload)
    for p in problems:
        print("SMOKE FAILED: " + p)
    print("smoke %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def defects():
    """Known defects of the program, each against its true answer."""
    refs = load_refs()
    work = os.path.join(WORK, "defects-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        files = {}
        for key, text in corpus.DEFECT_FILES.items():
            files[key] = os.path.join(work, key + ".ring")
            with open(files[key], "w", encoding="utf-8") as fh:
                fh.write(text)
        env = child_env(work)
        checker = check.CliChecker(refs, "defects")
        failed = 0
        for name, args in corpus.DEFECTS:
            out, err = os.path.join(work, "cmd.out"), os.path.join(work, "cmd.err")
            child = spawn([sys.executable, "-m", "reeslab.cli", "--no-cache"] + _substitute(args, files),
                          env, CLI_LIMIT_S, out, err)
            problems = (["time limit of %d s" % CLI_LIMIT_S] if child.timed_out
                        else checker.check(name, child.code, _read(out)))
            failed += bool(problems)
            print("%-18s %s (%.2f s)" % (name, "FAILED: " + "; ".join(problems) if problems else "ok",
                                         child.elapsed))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": len(corpus.DEFECTS), "failed": failed, "metrics": {}}))
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-check on the smallest jobs")
    parser.add_argument("--defects", action="store_true", help="run the known-defect repros")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "reeslab", "__init__.py")):
        print("error: run from the root of a reeslab checkout (no src/reeslab here)", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.defects:
            return defects()
        if not args.workload:
            parser.error("--workload is required")
        refs = load_refs()
        ok = True
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            result, info = run_workload(workload, args.seed, args.seconds, args.trace, refs)
            report(workload, args.seed, args.seconds, args.trace, result, info)
            print(json.dumps(result))
            ok = ok and result["correct"]
        return 0 if ok or args.workload != "all" else 1
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
