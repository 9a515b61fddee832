"""Q against F_32003 on seeded ideals: leading monomials, Hilbert series and Betti tables must agree.

A prime is unlucky for an ideal when reducing mod p changes its initial
ideal, which happens only for the finitely many primes that divide some
coefficient the reduction meets. F_p is then an oracle for Q, not a second
route to the answer: every seed below agrees, and a seed that disagreed
would stay here with the prime it is unlucky for named.
"""

import random

import pytest

from reeslab import Ideal, Polynomial, PrimeField, QQ, graded_ring, hilbert_series_ideal, initial_monomials
from reeslab.betti import graded_betti_table
from conftest import monomials_of_degree


def _seeded_generators(seed):
    """Three homogeneous generators of degree 2 or 3 in 4 variables: exponent -> coefficient in [-9, 9]."""
    rng = random.Random("q-against-fp:%d" % seed)
    ring = graded_ring(["x0", "x1", "x2", "x3"])
    gens = []
    for _ in range(3):
        monos = monomials_of_degree(ring, (rng.randint(2, 3), 0))
        gens.append({m: rng.randint(-9, 9) for m in rng.sample(monos, rng.randint(2, 5))})
    return gens


def _invariants(gens, field):
    ring = graded_ring(["x0", "x1", "x2", "x3"], field=field)
    I = Ideal(ring, [Polynomial(ring, g) for g in gens])
    table = graded_betti_table(I)
    return sorted(initial_monomials(I)), hilbert_series_ideal(I), table.entries, table.complete


@pytest.mark.parametrize("seed", range(12))
def test_q_and_f32003_agree_on_seeded_ideals(seed):
    gens = _seeded_generators(seed)
    over_q, over_p = _invariants(gens, QQ), _invariants(gens, PrimeField(32003))
    leads, series, entries, complete = over_q
    assert leads == over_p[0]
    assert series == over_p[1]
    assert complete and over_p[3]
    assert entries == over_p[2]
