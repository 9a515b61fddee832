"""Sparse exact linear algebra: incremental spans and ranks over Q or F_p, on the one reduction kernel."""

from __future__ import annotations

from math import lcm

from .groebner import _normal_form_int
from .rings import PrimeField


class VectorSpan:
    """Incremental row space over Q (integer rows) or F_p.

    Columns are ints; the pivot of a row is its smallest column. ``add``
    hands the vector to groebner._normal_form_int with no reducers, guard 0
    and top-reduction, and files the triple it returns, if any, in the memo:
    the pivot table ``rows``, negated pivot column -> (negated pivot, pivot
    coefficient, tail keyed by negated columns). The kernel takes the
    largest key, the smallest column, first; with guard 0 a table hit is an
    exact pivot, and the first key the table lacks is the new row's pivot.
    Over Q a row is primitive with a positive pivot coefficient. Over F_p
    its entries lie in [0, p); an int entry of vec may be any int, which the
    kernel reduces, and a Fraction entry is read as PrimeField.coerce reads it.
    """

    def __init__(self, char=0):
        self.char = char
        self.rows = {}

    @property
    def rank(self):
        return len(self.rows)

    def add(self, vec):
        """Insert vec; returns True when it grew the span. Over Q, vec is scaled by the lcm of its denominators."""
        char = self.char
        row = {-k: c for k, c in vec.items() if c}
        for c in row.values():
            if type(c) is not int:
                if char:
                    coerce = PrimeField(char).coerce
                    row = {k: v for k, c in row.items() if (v := coerce(c))}
                else:
                    den = lcm(*(c.denominator for c in row.values()))
                    row = {k: int(c * den) for k, c in row.items()}
                break
        t = _normal_form_int(row, (), 0, char, self.rows, True)
        if t is not None:
            self.rows[t[0]] = t
        return t is not None
