"""Checks of the program's outputs, sharing no code with the program.

Outputs are compared on mathematical content only: series as rational
functions, Betti entries, invariants and reduced bases. Report layout,
degree caps and certificate fields are ignored. Seeded inputs are checked
against oracles: brute-force standard-monomial counts, the Krull dimension
of a monomial quotient, and Borel-fixity of generic initial ideals.
"""

from __future__ import annotations

import json
import re

# ---------------------------------------------------------------------------
# series N(s, t) / prod (1 - s^a t^b)^m, as {"num": [[a, b, c]], "den": [[a, b, m]]}


def _mul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            k = (a1 + a2, b1 + b2)
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _den_poly(den):
    out = {(0, 0): 1}
    for a, b, m in den:
        for _ in range(m):
            out = _mul(out, {(0, 0): 1, (a, b): -1})
    return out


def series_equal(x, y):
    nx = {(a, b): c for a, b, c in x["num"]}
    ny = {(a, b): c for a, b, c in y["num"]}
    return _mul(nx, _den_poly(y["den"])) == _mul(ny, _den_poly(x["den"]))


def _is_series(obj):
    return isinstance(obj, dict) and set(obj) == {"num", "den"}


def same(x, y):
    """Equality that compares series as rational functions."""
    if _is_series(x) and _is_series(y):
        return series_equal(x, y)
    if isinstance(x, dict) and isinstance(y, dict):
        return set(x) == set(y) and all(same(x[k], y[k]) for k in x)
    if isinstance(x, list) and isinstance(y, list):
        return len(x) == len(y) and all(same(a, b) for a, b in zip(x, y))
    return x == y


def expand(series, upto):
    """Coefficients of s^0..s^upto of a series with denominator factors (1 - s^a)."""
    coeffs = [0] * (upto + 1)
    for a, b, c in series["num"]:
        if b:
            raise ValueError("expand handles t-free series only")
        if a <= upto:
            coeffs[a] += c
    for a, b, m in series["den"]:
        if b:
            raise ValueError("expand handles t-free series only")
        for _ in range(m):
            for i in range(a, upto + 1):
                coeffs[i] += coeffs[i - a]
    return coeffs


def series_dimension(series):
    """Krull dimension: the order of the pole at s = 1 of a series over (1 - s)^n."""
    if any(b or a != 1 for a, b, _ in series["den"]):
        raise ValueError("series_dimension needs a standard graded denominator")
    n = sum(m for _, _, m in series["den"])
    top = max((a for a, _, _ in series["num"]), default=0)
    poly = [0] * (top + 1)
    for a, _, c in series["num"]:
        poly[a] += c
    order = 0
    # divide by (1 - s) while N(1) == 0
    while poly and sum(poly) == 0 and any(poly):
        quot, acc = [], 0
        for c in poly[:-1]:
            acc += c
            quot.append(acc)
        poly, order = quot, order + 1
    return n - order


# ---------------------------------------------------------------------------
# monomial oracles


def standard_counts(nvars, gens, upto):
    """dim_k (S/J)_d for d <= upto, J generated by the exponent vectors gens.

    Standard monomials form an order ideal: a monomial of degree d+1 is
    standard iff it is not a generator and all its degree-d divisors are.
    """
    gens = {tuple(g) for g in gens}
    one = (0,) * nvars
    if one in gens:
        return [0] * (upto + 1)
    level, counts = {one}, [1]
    for _ in range(upto):
        nxt = set()
        for m in level:
            for i in range(nvars):
                u = m[:i] + (m[i] + 1,) + m[i + 1:]
                if u in nxt or u in gens:
                    continue
                if all(not u[k] or u[:k] + (u[k] - 1,) + u[k + 1:] in level for k in range(nvars)):
                    nxt.add(u)
        level = nxt
        counts.append(len(level))
    return counts


def krull_dimension(nvars, gens):
    """Largest coordinate subspace on which every generator vanishes."""
    supports = [sum(1 << i for i, e in enumerate(g) if e) for g in gens]
    best = 0
    for mask in range(1 << nvars):
        size = bin(mask).count("1")
        if size > best and all(s & ~mask for s in supports):
            best = size
    return best


def strongly_stable(gens):
    """Borel-fixed in characteristic 0: x_i m / x_j stays in J for i < j."""
    def member(u):
        return any(all(a >= b for a, b in zip(u, g)) for g in gens)

    for g in gens:
        for j, e in enumerate(g):
            if not e:
                continue
            for i in range(j):
                u = list(g)
                u[j] -= 1
                u[i] += 1
                if not member(u):
                    return False
    return True


_FACTOR = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def parse_monomial(text, names):
    exps = [0] * len(names)
    for factor in text.split("*"):
        m = _FACTOR.match(factor.strip())
        if not m:
            raise ValueError("not a monomial: %r" % text)
        exps[names.index(m.group(1))] += int(m.group(2) or 1)
    return exps


def check_gin(gens, quotient_series, degree):
    errors = []
    if not strongly_stable(gens):
        errors.append("generic initial ideal is not Borel-fixed")
    nvars = len(gens[0]) if gens else 0
    if expand(quotient_series, degree) != standard_counts(nvars, gens, degree):
        errors.append("generic initial ideal has another Hilbert function up to degree %d" % degree)
    return errors


# ---------------------------------------------------------------------------
# library jobs

MONOMIAL_DEGREE = 7
# Outputs that two routes must agree on: (job, path into its output) twice.
PAIRS = {
    "koszul": [
        ("quartic_I2_quotient_Q", [], "quartic_I2_quotient_F32003", []),
    ],
    "series": [
        ("quartic_hs_I4", [], "quartic_hs_I4_F32003", []),
        ("monomial_pivot", [], "monomial_buchberger", []),
    ] + [("quartic_hs_I%d" % j, ["series"], "rees_quartic", ["slices", str(j)]) for j in (2, 3, 4)],
}


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _invariants(entries, ring_second_degrees):
    """(a*_2, projective dimension) read off bigraded entries [p, a, b, rank]."""
    return max(b for _, _, b, _ in entries) - ring_second_degrees, max(p for p, _, _, _ in entries)


class LibraryChecker:
    """Verdicts for the jobs of one library workload spec."""

    def __init__(self, workload, spec, references):
        self.workload = workload
        self.refs = references.get(workload, {})
        self.ideals = spec["ideals"]
        self._verdicts = {}
        self._oracles = {}

    def _oracle(self, key):
        """Brute-force counts and Krull dimension of a seeded monomial quotient."""
        if key not in self._oracles:
            d = self.ideals[key]
            n = len(d["vars"])
            gens = [parse_monomial(g, d["vars"]) for g in d["gens"]]
            self._oracles[key] = (standard_counts(n, gens, MONOMIAL_DEGREE), krull_dimension(n, gens))
        return self._oracles[key]

    def _errors(self, job, out):
        kind, name = job["kind"], job["name"]
        if kind in ("mono_pivot", "mono_gb"):
            if len(out["series"]) != len(job["ideals"]):
                return ["wrong number of series"]
            errors = []
            for key, series in zip(job["ideals"], out["series"]):
                counts, dim = self._oracle(key)
                if expand(series, MONOMIAL_DEGREE) != counts:
                    errors.append("%s: series disagrees with standard-monomial counts" % key)
                if series_dimension(series) != dim:
                    errors.append("%s: series dimension disagrees with the Krull dimension" % key)
            return errors
        ref = self.refs.get(name)
        if ref is None:
            return ["no reference for %s" % name]
        value = ref["value"]
        if kind == "gin":
            return [e for gens, v in zip(out["generators"], value["inputs"])
                    for e in check_gin(gens, v["quotient_series"], v["degree"])]
        errors = []
        for key, expected in value.items():
            if key == "invariants":
                a2, pd = _invariants(out["entries"], expected["second_degree_sum"])
                if [a2, pd] != [expected["a_star_2"], expected["proj_dim"]]:
                    errors.append("invariants a*_2=%d proj_dim=%d" % (a2, pd))
            elif key == "entries":
                if sorted(out["entries"]) != sorted(expected):
                    errors.append("Betti entries differ from the reference")
            elif key == "tables":
                if [sorted(t) for t in out["tables"]] != [sorted(t) for t in expected]:
                    errors.append("Betti tables differ from the reference")
            elif not same(out.get(key), expected):
                errors.append("%s differs from the reference" % key)
        return errors

    def check(self, job, record):
        """List of errors of one job record from a worker (empty when correct)."""
        if "error" in record:
            return [record["error"]]
        key = (job["name"], json.dumps(record["output"], sort_keys=True))
        if key not in self._verdicts:
            self._verdicts[key] = self._errors(job, record["output"])
        return self._verdicts[key]

    def check_pairs(self, outputs):
        """(job name, error) for each pair of routes that disagree."""
        bad = []
        for a, path_a, b, path_b in PAIRS.get(self.workload, ()):
            if a in outputs and b in outputs and not same(_at(outputs[a], path_a), _at(outputs[b], path_b)):
                bad.append((a, "disagrees with %s" % b))
        return bad


# ---------------------------------------------------------------------------
# command-line reports


def _cli_series(obj):
    return {"num": [[a, b, c] for c, a, b in obj["num"]], "den": obj["den"]}


def _pick(obj, *keys):
    return {k: obj[k] for k in keys}


def _diagonals(items):
    return sorted([d["inputs"]["c"], d["inputs"]["e"], d["verdict"]] for d in items)


CLI_VARIABLES = ["X1", "X2", "X3", "X4"]


def cli_facts(command, result):
    """The mathematical content of one command's `result`."""
    if command == "hs":
        return {"series": _cli_series(result["series"])}
    if command == "rees":
        return {"generator_bidegrees": sorted(g["bidegree"] for g in result["generators"]),
                "series": _cli_series(result["series"]), **_pick(result, "l", "d", "u")}
    if command == "betti":
        rows = sorted([r["p"], r["degree"][0], r["degree"][1], r["rank"]] for r in result["rows"])
        return {"rows": rows, "invariants": _pick(result["invariants"], "a_star", "proj_dim", "reg")}
    if command == "reg":
        return _pick(result, "a_star", "proj_dim", "reg")
    if command == "fit-hp":
        return {"e": result["e"], "height": result["height"],
                "predicted": result["predicted"]["coefficients"]}
    if command == "fit-hs":
        return {"offsets": result["offsets"], "polynomials": result["polynomials"],
                "predicted": _cli_series(result["predicted"]["series"])}
    if command == "mixed-mult":
        return _pick(result, "e_G", "e_R")
    if command == "diag":
        return _pick(result, "values", "dimension")
    if command == "gorenstein":
        return {"diagonals": _diagonals(result["diagonals"])}
    if command == "quasi-gorenstein":
        return {"candidates": _diagonals(result["candidates"])}
    if command == "gin":
        return {"generators": sorted(parse_monomial(g, CLI_VARIABLES) for g in result["generators"])}
    if command == "bayer-stillman":
        return _pick(result, "verdict", "first_degree")
    return _pick(result, "verdict")


class CliChecker:
    def __init__(self, references, section="cli"):
        self.refs = references.get(section, {})
        self._verdicts = {}

    def check(self, name, code, stdout):
        key = (name, code, stdout)
        if key not in self._verdicts:
            self._verdicts[key] = self._errors(name, code, stdout)
        return self._verdicts[key]

    def _errors(self, name, code, stdout):
        if code != 0:
            return ["exit code %d" % code]
        ref = self.refs.get(name)
        if ref is None:
            return ["no reference for %s" % name]
        try:
            report = json.loads(stdout)
            facts = cli_facts(ref.get("command", name), report["result"])
        except (ValueError, KeyError, TypeError) as exc:
            return ["unreadable report: %s: %s" % (type(exc).__name__, exc)]
        value = ref["value"]
        if "quotient_series" in value:
            return check_gin(facts["generators"], value["quotient_series"], value["degree"])
        return [] if same(facts, value) else ["report differs from the reference"]
