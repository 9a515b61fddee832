"""Sparse exact linear algebra: incremental spans and ranks over Q or F_p."""

from __future__ import annotations

from math import gcd


def _normalize_int_row(row):
    """Strip content, make the pivot (smallest column) coefficient positive."""
    g = 0
    for c in row.values():
        g = gcd(g, c)
        if g == 1:
            break
    if g > 1:
        for k in row:
            row[k] //= g
    piv = min(row)
    if row[piv] < 0:
        for k in row:
            row[k] = -row[k]
    return row


class VectorSpan:
    """Incremental row space over Q (integer rows) or F_p.

    Columns are arbitrary sortable keys; the pivot of a row is its smallest
    column. ``add`` reduces the vector against the current rows and inserts
    it when independent.
    """

    def __init__(self, char=0):
        self.char = char
        self.rows = {}  # pivot column -> row dict

    @property
    def rank(self):
        return len(self.rows)

    def _to_int_row(self, vec):
        if self.char:
            return {k: int(c) % self.char for k, c in vec.items() if int(c) % self.char}
        den = 1
        mixed = False
        for c in vec.values():
            if type(c) is not int:
                mixed = True
                d = c.denominator
                if d != 1:
                    den = den * d // gcd(den, d)
        if not mixed:
            return {k: c for k, c in vec.items() if c}
        out = {}
        for k, c in vec.items():
            v = int(c * den) if type(c) is not int else c * den
            if v:
                out[k] = v
        return out

    def reduce(self, vec):
        """Reduced representative of vec modulo the span (fresh dict)."""
        row = self._to_int_row(vec)
        char = self.char
        steps = 0
        while row:
            piv = min(row)
            other = self.rows.get(piv)
            if other is None:
                return row
            if char:
                fac = (row[piv] * pow(other[piv], -1, char)) % char
                for k, c in other.items():
                    v = (row.get(k, 0) - fac * c) % char
                    if v:
                        row[k] = v
                    else:
                        row.pop(k, None)
            else:
                a, b = other[piv], row[piv]
                if a != 1:
                    g = gcd(a, b)
                    a, b = a // g, b // g
                    if a != 1:
                        for k in row:
                            row[k] *= a
                for k, c in other.items():
                    v = row.get(k, 0) - b * c
                    if v:
                        row[k] = v
                    else:
                        row.pop(k, None)
                steps += 1
                if row and steps % 8 == 0:
                    big = max(map(abs, row.values()))
                    if big.bit_length() > 256:
                        _normalize_int_row(row)
        return row

    def contains(self, vec):
        return not self.reduce(vec)

    def add(self, vec):
        """Insert vec; returns True when it grew the span."""
        row = self.reduce(vec)
        if not row:
            return False
        if not self.char:
            _normalize_int_row(row)
        self.rows[min(row)] = row
        return True

