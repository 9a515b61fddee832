"""Line-oriented problem files: field, variables with bidegrees, order, ideal, family flags.

Reading a file is a text pass: it checks every line and hashes a canonical
text of the problem. The ring and the ideal are built from that pass on first
access, so a command served from the cache compiles no algebra.
"""

from __future__ import annotations

import functools
import hashlib
import re

_ORDERS = ("degrevlex", "lex", "deglex")
_PRIME_FIELD = re.compile(r"Fp:\s*(\d+)")
_VAR = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)")
# A family token is a call, which may hold commas and spaces, or a run of other characters.
_FAMILY_TOKEN = re.compile(r"[^\s,]+?\([^)]*\)|[^\s,]+")
_FLAG = re.compile(r"([A-Za-z_][A-Za-z_0-9]*)(?:=(.*)|\((.*)\))?")


class ProblemError(ValueError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line


class ProblemFile:
    """One ring and ideal per file, plus optional family flags.

    `family` and `content_hash` come from the text pass. `ring` and `ideal`
    are built on first access, and raise what a bad field, variable list or
    generator raises.
    """

    def __init__(self, field, names, degrees, order, ideal_exprs, family):
        self._field = field              # None for Q, else (p, line, text of the field)
        self._names = names
        self._degrees = degrees
        self._order = order              # one of _ORDERS
        self._ideal_exprs = ideal_exprs  # ((line, expression), ...)
        self.family = family             # ((name, value), ...) — value is True, tuple or int
        canonical = "\n".join([
            "field=%s" % ("Q" if field is None else "F%d" % field[0]),
            "vars=%s" % ",".join("%s(%d,%d)" % (n, d[0], d[1]) for n, d in zip(names, degrees)),
            "order=%s:0" % order,
            "ideal=%s" % ";".join(e for _, e in ideal_exprs),
            "family=%r" % (sorted(family),),
        ])
        self.content_hash = hashlib.sha256(canonical.encode()).hexdigest()

    @functools.cached_property
    def ring(self):
        from .rings import QQ, PrimeField, RingError, RingSpec, TermOrder

        field = QQ
        if self._field is not None:
            p, lineno, value = self._field
            try:
                field = PrimeField(p)
            except RingError as exc:
                raise ProblemError("malformed prime field %r" % value, lineno) from exc
        return RingSpec(field, self._names, self._degrees, TermOrder(self._order))

    @functools.cached_property
    def ideal(self):
        from .groebner import Ideal
        from .rings import ParseError, parse_polynomial

        ring = self.ring
        gens = []
        for lineno, expr in self._ideal_exprs:
            try:
                gens.append(parse_polynomial(expr, ring))
            except ParseError as exc:
                raise ProblemError("bad generator %r: %s" % (expr, exc), lineno) from exc
        return Ideal(ring, gens)

    def family_dict(self):
        return dict(self.family)


def _family_flags(value, lineno):
    flags = []
    for token in _FAMILY_TOKEN.findall(value):
        m = _FLAG.fullmatch(token)
        try:
            if m is None:
                raise ValueError
            name, number, args = m.groups()
            if number is not None:
                flag = int(number)
            elif args is not None:
                flag = tuple(int(x) for x in args.split(",") if x.strip())
            else:
                flag = True
        except ValueError:
            raise ProblemError("malformed family flag %r: expected name, name=int or name(int,...)"
                               % token, lineno) from None
        if any(name == seen for seen, _ in flags):
            raise ProblemError("duplicate family flag %r" % name, lineno)
        flags.append((name, flag))
    return flags


def _read_problem(text):
    """The text pass: every line checked, nothing built."""
    field = None
    var_names, var_degrees = [], []
    order = "degrevlex"
    ideal_exprs = []
    family = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ProblemError("expected 'key: value'", lineno)
        key, _, value = line.partition(":")
        key = key.strip().lower()
        value = value.strip()
        if key in seen and key != "ideal":
            raise ProblemError("duplicate %r line" % key, lineno)
        seen.add(key)
        if key == "field":
            prime = _PRIME_FIELD.fullmatch(value)
            if prime:
                field = (int(prime.group(1)), lineno, value)
            elif value.startswith("Fp"):
                raise ProblemError("malformed prime field %r" % value, lineno)
            elif value != "Q":
                raise ProblemError("unknown field %r" % value, lineno)
        elif key == "vars":
            matches = list(_VAR.finditer(value))
            rest = _VAR.sub("", value).replace(",", "").strip()
            if not matches or rest:
                raise ProblemError("malformed variable list %r" % value, lineno)
            for m in matches:
                var_names.append(m.group(1))
                var_degrees.append((int(m.group(2)), int(m.group(3))))
        elif key == "order":
            if value not in _ORDERS:
                raise ProblemError("unknown order %r" % value, lineno)
            order = value
        elif key == "ideal":
            ideal_exprs.extend([(lineno, e.strip()) for e in value.split(";") if e.strip()])
        elif key == "family":
            family = _family_flags(value, lineno)
        else:
            raise ProblemError("unknown key %r" % key, lineno)
    if not var_names:
        raise ProblemError("no variables declared")
    return ProblemFile(field, tuple(var_names), tuple(var_degrees), order,
                       tuple(ideal_exprs), tuple(family))


def load_problem(path):
    """The problem in a file, from the text pass alone: `ring` and `ideal` are built on first access."""
    with open(path, "r", encoding="utf-8") as fh:
        return _read_problem(fh.read())
