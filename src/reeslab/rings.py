"""Exact coefficient fields, Z^2-graded polynomial rings and polynomial arithmetic."""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from operator import add, mul

from ._record import record


class RingError(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, message, position=None):
        if position is not None:
            message = "%s (at position %d)" % (message, position)
        super().__init__(message)
        self.position = position


# ---------------------------------------------------------------------------
# coefficient fields

@record
class RationalField:
    """The field Q; elements are Fraction instances in lowest terms."""

    def __repr__(self):
        return "Q"

    @property
    def char(self):
        return 0

    def coerce(self, value):
        return Fraction(value)

    zero = Fraction(0)
    one = Fraction(1)


# Miller-Rabin on the first 13 prime bases is exact below _MR_LIMIT, the
# smallest strong pseudoprime to all of them (Sorenson-Webster 2017); the first
# 12 bases alone pass the composite 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; refuses n >= _MR_LIMIT, where it is not certified."""
    if n >= _MR_LIMIT:
        raise RingError("modulus %r is too large: primality is certified only below %d" % (n, _MR_LIMIT))
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@record
class PrimeField:
    """The field Z/p for a prime p; elements are ints in [0, p)."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise RingError("modulus %r is not prime" % (self.p,))

    def __repr__(self):
        return "F%d" % self.p

    @property
    def char(self):
        return self.p

    def coerce(self, value):
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise RingError("denominator divisible by %d" % self.p)
            return value.numerator * pow(den, -1, self.p) % self.p
        return int(value) % self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1


QQ = RationalField()


# ---------------------------------------------------------------------------
# term orders

_ORDER_TAGS = ("lex", "deglex", "degrevlex", "elim")


@record
class TermOrder:
    """Total multiplicative order on monomials, defined by its weight rows alone.

    ``elim`` is a block order: the first ``block`` variables (after the
    optional permutation) form an elimination block compared by degrevlex,
    ties broken by degrevlex on the remaining variables. Its MonomialPacking
    leads with the weight rows, so packed ints compare as the monomials do.
    """

    tag: str = "degrevlex"
    block: int = 0
    perm: tuple | None = None

    def __post_init__(self):
        if self.tag not in _ORDER_TAGS:
            raise RingError("unknown term order %r" % (self.tag,))
        if self.tag == "elim" and self.block <= 0:
            raise RingError("elimination order needs a positive block size")

    def weight_rows(self, nvars):
        """The order as weight rows, each a frozenset of variables with weight 1.

        m < m' iff the row sums of m are lexicographically smaller than those
        of m'. A degrevlex block gives its degree, then its degree less its
        last variable, less its last two, and so on.
        """
        perm = self.perm if self.perm is not None else tuple(range(nvars))
        if sorted(perm) != list(range(nvars)):
            raise RingError("perm %r is not a permutation of the %d variables" % (tuple(perm), nvars))

        def revlex_rows(vs):
            return [frozenset(vs[:k]) for k in range(len(vs), 0, -1)]

        units = [frozenset([i]) for i in perm]
        if self.tag == "lex":
            return units
        if self.tag == "deglex":
            return [frozenset(perm)] + units
        if self.tag == "degrevlex":
            return revlex_rows(perm)
        return revlex_rows(perm[:self.block]) + revlex_rows(perm[self.block:])


DEGREVLEX = TermOrder("degrevlex")
LEX = TermOrder("lex")
DEGLEX = TermOrder("deglex")


def elimination_order(block):
    return TermOrder("elim", block=block)


# ---------------------------------------------------------------------------
# rings

@record
class RingSpec:
    """A polynomial ring over an exact field with Z^2 variable degrees.

    Variables of degree (1, 0) play the role of the base coordinates; the
    remaining ones typically carry degrees (d_j, 1) (blow-up coordinates).
    Equality is value-based: two specs are the same ring iff all fields agree.
    """

    field: RationalField | PrimeField
    names: tuple
    degrees: tuple
    order: TermOrder = DEGREVLEX

    def __post_init__(self):
        if not self.names:
            raise RingError("a ring needs at least one variable")
        if len(set(self.names)) != len(self.names):
            raise RingError("duplicate variable names")
        if len(self.degrees) != len(self.names):
            raise RingError("degrees/names length mismatch")
        for d in self.degrees:
            if len(d) != 2 or d[0] < 0 or d[1] < 0 or d == (0, 0):
                raise RingError("variable degrees must be nonzero vectors in N^2")
        self.order.weight_rows(len(self.names))    # refuses a perm that is not one of the variables

    @property
    def nvars(self):
        return len(self.names)

    def monomial_degree(self, mono):
        d1 = d2 = 0
        for e, (a, b) in zip(mono, self.degrees):
            d1 += e * a
            d2 += e * b
        return (d1, d2)

    def variable(self, i):
        mono = [0] * self.nvars
        mono[i] = 1
        return Polynomial(self, {tuple(mono): self.field.one})

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {(0,) * self.nvars: self.field.one})

    def __repr__(self):
        vars_ = ", ".join("%s(%d,%d)" % (n, d[0], d[1]) for n, d in zip(self.names, self.degrees))
        return "RingSpec(%r; %s; %s)" % (self.field, vars_, self.order.tag)


def graded_ring(names, field=QQ, order=DEGREVLEX):
    """Standard Z-graded polynomial ring: every variable has degree (1, 0)."""
    names = tuple(names)
    return RingSpec(field, names, tuple((1, 0) for _ in names), order)


def blowup_ring(x_names, y_names, y_degrees, field=QQ, order=DEGREVLEX):
    """Ring k[X; Y] with deg X_i = (1,0) and deg Y_j = (d_j, 1)."""
    x_names, y_names = tuple(x_names), tuple(y_names)
    degrees = tuple((1, 0) for _ in x_names) + tuple((d, 1) for d in y_degrees)
    return RingSpec(field, x_names + y_names, degrees, order)


# ---------------------------------------------------------------------------
# monomial helpers (exponent tuples)

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


class PackingOverflow(ArithmeticError):
    """A monomial does not fit the fields of a MonomialPacking."""


class MonomialPacking:
    """Exponent vectors packed into one Python int (Bachmann-Schoenemann, ISSAC 1998).

    The int is a row of fields of ``width`` bits, most significant first, and
    each field holds the sum of the exponents of a set of variables. Without
    an order the fields are the exponents, in variable order. With a term
    order the leading fields are its weight rows, so that int comparison is
    the term order, by which Polynomial and the kernel both sort; the total
    degree and the exponents not already among them follow. Every field is
    linear in the exponents, so a product of monomials is the sum of their
    ints and a quotient their difference.

    The top bit of each field is a guard bit, clear in every packed monomial:

    - a | b iff ((b | guard) - a) & guard == guard, since no borrow crosses a
      field;
    - a sum of two packed monomials sets the guard bit of every field that
      overflows, and nothing carries past it.

    pack() refuses a monomial whose fields would not fit, so a value never
    wraps silently; the caller widens the fields or gives up.
    """

    def __init__(self, nvars, width, order=None):
        self.nvars, self.width, self.order = nvars, width, order
        unit_rows = [frozenset([i]) for i in range(nvars)]
        if order is None:
            rows = unit_rows
        else:
            # a row repeated further down adds nothing to the order
            rows = list(dict.fromkeys(order.weight_rows(nvars) + [frozenset(range(nvars))] + unit_rows))
        # units[i] is the packed variable x_i
        self.units = [0] * nvars
        self.guard = 0
        shift = {}
        for k, r in enumerate(reversed(rows)):
            shift[r] = k * width
            self.guard |= 1 << (k * width + width - 1)
            for i in r:
                self.units[i] |= 1 << (k * width)
        self._half = 1 << (width - 1)
        self._mask = (1 << width) - 1
        self._exp_shifts = [shift[r] for r in unit_rows]
        self._degree_shift = shift.get(frozenset(range(nvars)))
        # the largest field of a monomial: its total degree when an order
        # adds weight rows, its largest exponent otherwise
        self._largest_field = max if order is None else sum
        self._nonzero = self.guard - sum(self.units)  # half - 1 in every field

    @classmethod
    def fitting(cls, nvars, largest, order=None):
        """Packing whose fields hold every value up to ``largest``."""
        return cls(nvars, largest.bit_length() + 1, order)

    def widened(self):
        return MonomialPacking(self.nvars, 2 * self.width, self.order)

    def pack(self, m):
        if self._largest_field(m) >= self._half:
            raise PackingOverflow("monomial %r does not fit %d-bit fields" % (tuple(m), self.width))
        return sum(map(mul, m, self.units))

    def unpack(self, p):
        mask = self._mask
        return tuple((p >> s) & mask for s in self._exp_shifts)

    def degree(self, p):
        """Total degree of a packed monomial; needs an order."""
        return (p >> self._degree_shift) & self._mask

    def divides(self, a, b):
        g = self.guard
        return ((b | g) - a) & g == g

    def divisible(self, m, gens):
        """Some packed monomial of gens divides the packed monomial m."""
        g = self.guard
        mg = m | g
        for a in gens:
            if (mg - a) & g == g:
                return True
        return False

    # lcm and support hold for plain packings only, whose fields are the exponents
    def lcm(self, a, b):
        """Fieldwise max: d has the guard bit of each field where a >= b, ge its value bits."""
        d = ((a | self.guard) - b) & self.guard
        ge = d - (d >> (self.width - 1))
        return b ^ ((a ^ b) & ge)

    def support(self, m):
        """The guard bits of the nonzero fields of m."""
        return (m + self._nonzero) & self.guard


# ---------------------------------------------------------------------------
# polynomials

_order_packing = lru_cache(maxsize=64)(MonomialPacking)


class Polynomial:
    """Immutable multivariate polynomial: canonical term list, descending order.

    The terms are sorted by their packed ints under the ring's order, as in the kernel.
    Over F_p the constructor reads each coefficient as PrimeField.coerce does,
    into [0, p), and it drops zero terms, so arithmetic hands it raw sums and
    products.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, coeffs):
        self.ring = ring
        if ring.field.char:
            coerce = ring.field.coerce
            coeffs = {m: coerce(c) for m, c in coeffs.items()}
        monos = [m for m, c in coeffs.items() if c]
        if monos:
            P = _order_packing(ring.nvars, max(map(sum, monos)).bit_length() + 1, ring.order)
            monos.sort(key=P.pack, reverse=True)
        self.terms = tuple([(m, coeffs[m]) for m in monos])

    @classmethod
    def _from_terms(cls, ring, terms):
        """The polynomial of a tuple of terms in descending order, none with a zero coefficient."""
        f = object.__new__(cls)
        f.ring, f.terms = ring, terms
        return f

    # -- basic protocol ----------------------------------------------------
    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring.names, self.terms))

    def __repr__(self):
        return format_polynomial(self)

    # -- structure ---------------------------------------------------------
    def leading_monomial(self):
        if not self.terms:
            raise RingError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def _check_same_ring(self, other):
        if self.ring != other.ring:
            raise RingError("polynomials live in different rings")

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other):
        self._check_same_ring(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, 0) + c
        return Polynomial(self.ring, acc)

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_same_ring(other)
        acc = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                acc[m] = acc.get(m, 0) + c1 * c2
        return Polynomial(self.ring, acc)

    def __pow__(self, k):
        if k < 0:
            raise RingError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def scale(self, c):
        c = self.ring.field.coerce(c)
        return Polynomial(self.ring, {m: v * c for m, v in self.terms})

    # -- grading -------------------------------------------------------------
    def multidegree(self):
        """Common Z^2 degree of all terms, or None if inhomogeneous.

        Raises on the zero polynomial: it carries every degree.
        """
        if not self.terms:
            raise RingError("the zero polynomial has no well-defined multidegree")
        degs = {self.ring.monomial_degree(m) for m, _ in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self):
        if not self.terms:
            return True
        return self.multidegree() is not None


# ---------------------------------------------------------------------------
# parsing / formatting

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*^/]))")
_BLANKS = re.compile(r"\s*")


def _tokenize(text):
    """(kind, value, position) triples: kind is "int", "name", "end" or the operator itself."""
    pos, end, out = 0, len(text), []
    match = _TOKEN.match
    while pos < end:
        m = match(text, pos)
        if m is None:
            bad = _BLANKS.match(text, pos).end()
            if bad == end:  # only blanks are left: the input ends where they start
                break
            raise ParseError("unexpected character %r" % text[bad], bad)
        group = m.lastindex
        if group == 1:
            out.append(("int", int(m.group(1)), m.start(1)))
        elif group == 2:
            out.append(("name", m.group(2), m.start(2)))
        else:
            out.append((m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    out.append(("end", None, pos))
    return out


def parse_polynomial(text, ring):
    """Parse a polynomial in the variables of ring.

    The grammar is expr = [+|-] term {(+|-) term}, term = factor {* factor},
    factor = base {^ int} and base = int [/ int] | name | ( expr ). A term
    stays a coefficient and an exponent list while its factors are variables
    and literals; a bracketed factor makes it a Polynomial.
    Literals are coerced into the field as they are read; sums and products
    of them are left to the Polynomial constructor to reduce.
    """
    tokens = _tokenize(text)
    field = ring.field
    p, coerce, one = field.char, field.coerce, field.one
    index = {name: k for k, name in enumerate(ring.names)}
    n = len(index)
    i = 0

    def expr():
        nonlocal i
        acc = {}
        kind = tokens[i][0]
        minus = kind == "-"
        if minus or kind == "+":
            i += 1
        while True:
            for m, c in term(-one if minus else one):
                acc[m] = acc[m] + c if m in acc else c
            kind = tokens[i][0]
            if kind != "+" and kind != "-":
                return acc
            minus = kind == "-"
            i += 1

    def term(coef):
        nonlocal i
        exps, poly = [0] * n, None
        while True:
            kind, val, pos = tokens[i]
            i += 1
            if kind == "name":
                var = index.get(val)
                if var is None:
                    raise ParseError("unknown variable %r" % val, pos)
            elif kind == "int":
                if tokens[i][0] == "/":
                    kind_den, den, pos_den = tokens[i + 1]
                    i += 2
                    if kind_den != "int" or den == 0:
                        raise ParseError("malformed rational literal", pos_den)
                    val = Fraction(val, den)
                val = coerce(val)
            elif kind == "(":
                val = Polynomial(ring, expr())
                if tokens[i][0] != ")":
                    raise ParseError("expected ')'", tokens[i][2])
                i += 1
            else:
                raise ParseError("unexpected token", pos)
            e = 1
            while tokens[i][0] == "^":
                kind_exp, exp, pos_exp = tokens[i + 1]
                i += 2
                if kind_exp != "int":
                    raise ParseError("exponent must be a non-negative integer", pos_exp)
                e *= exp
            if kind == "name":
                exps[var] += e
            elif kind == "int":
                # a modular power keeps 3^1000000 small
                coef *= pow(val, e, p) if p else val ** e
            else:
                power = val ** e
                poly = power if poly is None else poly * power
            if tokens[i][0] != "*":
                break
            i += 1
        if poly is None:
            return ((tuple(exps), coef),)
        return [(tuple(map(add, m, exps)), c * coef) for m, c in poly.terms]

    result = expr()
    kind, _, pos = tokens[i]
    if kind != "end":
        raise ParseError("trailing input", pos)
    return Polynomial(ring, result)


def format_polynomial(f):
    """Canonical text form: terms in descending order, explicit '*' and '^'."""
    if not f.terms:
        return "0"
    ring = f.ring
    parts = []
    for m, c in f.terms:
        factors = []
        for name, e in zip(ring.names, m):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        cs = str(abs(c))
        neg = c < 0
        body = "*".join(factors) if factors else ""
        if body and cs == "1":
            text = body
        elif body:
            text = "%s*%s" % (cs, body)
        else:
            text = cs
        parts.append(("- " if neg else "+ ") + text)
    out = " ".join(parts)
    if out.startswith("+ "):
        out = out[2:]
    elif out.startswith("- "):
        out = "-" + out[2:]
    return out


def multidegree_of(f):
    """Common bidegree of the terms of f, or the string "inhomogeneous"."""
    deg = f.multidegree()
    return deg if deg is not None else "inhomogeneous"
