"""Tiny exact univariate polynomial helpers over Q (coefficient tuples, ascending)."""

from __future__ import annotations

from fractions import Fraction
from math import factorial


def normalize(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def add(p, q):
    n = max(len(p), len(q))
    return normalize([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def scale(p, c):
    c = Fraction(c)
    return normalize([x * c for x in p])


def mul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return normalize(out)


def evaluate(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def degree(p):
    return len(p) - 1 if p else -1


def binomial_in_x(shift, k):
    """binom(x + shift, k) as a polynomial in x."""
    # product of (x + shift - i) for i in 0..k-1, divided by k!
    out = (Fraction(1),)
    for i in range(k):
        out = mul(out, (Fraction(shift - i), Fraction(1)))
    return scale(out, Fraction(1, factorial(k)))


def interpolate(points):
    """Exact interpolation through (x, y) points: the coefficient tuple, of degree below their number."""
    pts = sorted(points)
    if not pts:
        return ()
    # Newton's divided differences
    xs = [Fraction(x) for x, _ in pts]
    ys = [Fraction(y) for _, y in pts]
    coef = ys[:]
    n = len(pts)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    poly = ()
    basis = (Fraction(1),)
    for i in range(n):
        poly = add(poly, scale(basis, coef[i]))
        basis = mul(basis, (-xs[i], Fraction(1)))
    return poly


def takes_integer_values(p, window):
    return all(evaluate(p, x).denominator == 1 for x in window)


def to_binomial_basis(p, count):
    """Coefficients b_k with p(x) = sum b_k * binom(x + k, k), k < count."""
    rest = p
    out = [Fraction(0)] * count
    for k in range(count - 1, -1, -1):
        basis = binomial_in_x(k, k)
        if degree(rest) == k:
            b = rest[-1] / basis[-1]
            out[k] = b
            rest = add(rest, scale(basis, -b))
        elif degree(rest) < k:
            continue
        else:
            raise ValueError("polynomial degree exceeds basis size")
    if rest:
        raise ValueError("nonzero remainder in binomial-basis conversion")
    return out


def format_poly(p, var="j"):
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        if i == 0:
            body = str(c)
        elif i == 1:
            body = "%s*%s" % (c, var) if c != 1 else var
        else:
            body = "%s*%s^%d" % (c, var, i) if c != 1 else "%s^%d" % (var, i)
        parts.append(body)
    return " + ".join(parts).replace("+ -", "- ")
