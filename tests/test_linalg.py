"""VectorSpan against dense Gaussian elimination over Q and over F_p."""

import random
from fractions import Fraction
from math import gcd

import pytest

from reeslab._linalg import VectorSpan
from reeslab.rings import RingError


class _DenseSpan:
    """Reduced row echelon form of the rows so far, dense, over Q (char 0) or F_char."""

    def __init__(self, ncols, char):
        self.ncols, self.char = ncols, char
        self.rows = []    # (pivot, dense row with 1 at the pivot)

    def _coerce(self, c):
        if self.char:
            c = Fraction(c)
            return c.numerator * pow(c.denominator, -1, self.char) % self.char
        return Fraction(c)

    def add(self, vec):
        row = [self._coerce(0)] * self.ncols
        for k, c in vec.items():
            row[k] = self._coerce(c)
        for piv, other in self.rows:
            f = row[piv]
            if f:
                row = [a - f * b for a, b in zip(row, other)]
                if self.char:
                    row = [a % self.char for a in row]
        piv = next((k for k, c in enumerate(row) if c), None)
        if piv is None:
            return False
        inv = pow(row[piv], -1, self.char) if self.char else 1 / row[piv]
        row = [a * inv % self.char if self.char else a * inv for a in row]
        for i, (p, other) in enumerate(self.rows):
            f = other[piv]
            if f:
                other = [a - f * b for a, b in zip(other, row)]
                self.rows[i] = (p, [a % self.char for a in other] if self.char else other)
        self.rows.append((piv, row))
        return True


def _sparse_rows(rng, nrows, ncols, density, entry):
    """Seeded sparse rows {column: entry()}; some zero, some repeated, some multiples of earlier ones."""
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.05:
            rows.append({})
        elif roll < 0.1:
            rows.append({rng.randrange(ncols): 0})
        elif roll < 0.2 and rows:
            rows.append(dict(rng.choice(rows)))
        elif roll < 0.3 and rows:
            c = entry()
            rows.append({k: c * v for k, v in rng.choice(rows).items()})
        else:
            cols = [k for k in range(ncols) if rng.random() < density] or [rng.randrange(ncols)]
            rows.append({k: entry() for k in cols})
    return rows


def _check_span(rows, ncols, char):
    span, dense = VectorSpan(char), _DenseSpan(ncols, char)
    grew = 0
    for row in rows:
        expected = dense.add(row)
        assert span.add(row) is expected
        assert span.rank == len(dense.rows)
        grew += expected
    # the pivot table: each row's pivot is its smallest column, with a
    # nonzero coefficient, primitive and positive over Q, reduced mod char
    assert sorted(-k for k in span.rows) == sorted(p for p, _ in dense.rows)
    for key, (lead, lc, tail) in span.rows.items():
        assert key == lead and all(k < lead for k in tail)
        coeffs = [lc, *tail.values()]
        assert all(coeffs)
        if char:
            assert all(0 < c < char for c in coeffs)
        else:
            assert lc > 0 and gcd(*coeffs) == 1
    return grew


@pytest.mark.parametrize("seed", range(6))
def test_span_over_q_matches_dense_fraction_elimination(seed):
    rng = random.Random(3000 + seed)

    def entry():
        roll = rng.random()
        if roll < 0.1:
            return rng.choice((-1, 1)) * rng.getrandbits(rng.randint(513, 600))
        if roll < 0.4:
            return Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        return rng.randint(-5, 5) or 1

    ncols = rng.randint(8, 14)
    grew = _check_span(_sparse_rows(rng, 2 * ncols, ncols, 0.4, entry), ncols, 0)
    assert 0 < grew <= ncols


@pytest.mark.parametrize("char", [2, 32003], ids=["F2", "F32003"])
@pytest.mark.parametrize("seed", range(6))
def test_span_over_f_p_matches_dense_elimination(seed, char):
    rng = random.Random(3100 + seed)

    def entry():
        return rng.randint(-3 * char, 3 * char)

    ncols = rng.randint(12, 24)
    grew = _check_span(_sparse_rows(rng, 2 * ncols, ncols, 0.2, entry), ncols, char)
    assert 0 < grew <= ncols
    # Fraction entries, with denominators prime to char, are read as
    # PrimeField.coerce reads them
    grew = _check_span(_sparse_rows(rng, 2 * ncols, ncols, 0.2,
                                    lambda: Fraction(rng.randint(-9, 9), rng.choice((3, 5, 7)))), ncols, char)
    assert 0 < grew <= ncols


def test_span_over_f_p_keeps_the_denominators_of_fraction_entries():
    # int() once truncated them: 1/2 became 0 and 3/2 became 1
    span = VectorSpan(7)
    assert span.add({0: Fraction(1, 2)})
    assert span.rows == {0: (0, 4, {})}
    span = VectorSpan(7)
    assert span.add({0: Fraction(3, 2), 1: 1})
    assert span.rows == {0: (0, 5, {-1: 1})}
    assert not span.add({0: 3, 1: 2})
    with pytest.raises(RingError, match="denominator divisible by 7"):
        VectorSpan(7).add({0: 1, 1: Fraction(2, 7)})


def test_span_over_q_strips_content_on_long_reductions():
    # 20 unit-pivot rows, then combinations of them times numbers above
    # 2^512. A combination with every coefficient nonzero meets 20 pivots,
    # so the kernel strips its content after step 16, and it must still
    # reduce to zero. Two combinations with one more column each become new
    # pivots, and the combinations through them must reduce to zero too.
    rng = random.Random(3200)
    ncols = 24
    units = [{i: 1, **{k: rng.randint(-3, 3) for k in range(i + 1, ncols) if rng.random() < 0.3}}
             for i in range(20)]

    def combination(vectors):
        scale = rng.getrandbits(600) | 1 << 599
        out = {}
        for v in vectors:
            c = rng.choice((-2, -1, 1, 2))
            for k, x in v.items():
                out[k] = out.get(k, 0) + scale * c * x
        return out

    extra = [combination(units + [{20 + j: 1}]) for j in range(2)]
    rows = units + extra
    for _ in range(8):
        rows += [combination(units), combination(units + extra)]
    rows += [{k: rng.getrandbits(600) for k in range(ncols)} for _ in range(4)]
    assert _check_span(rows, ncols, 0) == ncols


@pytest.mark.parametrize("char", [5, 32003], ids=["F5", "F32003"])
@pytest.mark.parametrize("seed", range(4))
def test_span_over_f_p_reads_unreduced_rows_as_their_residues(seed, char):
    # the kernel reduces each entry when it reads it, so a row moved by
    # multiples of char, negative and huge ones included, is the same row
    rng = random.Random(3200 + seed)
    ncols = rng.randint(10, 20)
    rows = _sparse_rows(rng, 2 * ncols, ncols, 0.3, lambda: rng.randrange(char))
    reduced, raw = VectorSpan(char), VectorSpan(char)
    for row in rows:
        moved = {k: c + rng.choice((-1, 1)) * rng.choice((0, 1, 3, 2 ** 70)) * char for k, c in row.items()}
        assert raw.add(moved) is reduced.add(row)
        assert raw.rank == reduced.rank
    assert raw.rows == reduced.rows
