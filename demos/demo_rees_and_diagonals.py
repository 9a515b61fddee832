"""Walkthrough: Rees presentation, fiber cone, and the diagonal subalgebras k[(I^e)_c].

Presenting the blow-up of P^3 along the twisted cubic, then asking which of
its projective embeddings have Cohen-Macaulay or Gorenstein coordinate rings.
"""

from reeslab import Ideal, graded_ring, parse_polynomial
from reeslab.betti import bigraded_betti_table, invariants_from_shifts
from reeslab.diagonals import (
    DiagonalSpec,
    cm_diagonal_test,
    cm_threshold_alpha,
    diagonal_dimension,
    diagonal_hilbert_function,
    good_resolution_check,
    gorenstein_diagonals,
)
from reeslab.rees import fiber_cone, rees_presentation

A = graded_ring(["X1", "X2", "X3", "X4"])
I = Ideal(A, [parse_polynomial(s, A) for s in
              ("X1*X4 - X2*X3", "X2^2 - X1*X3", "X3^2 - X2*X4")])

P = rees_presentation(I)
print("defining ideal of the Rees algebra (kernel of Y_j -> f_j t):")
for g in P.defining_ideal.gens:
    print("    bidegree %s:  %s" % (g.multidegree(), g))

print("\nbigraded Hilbert series of the Rees algebra:")
print("   ", P.series())

F = fiber_cone(P)
print("\nfiber cone: spread = %d, relations = %r (a polynomial ring)" % (F.spread, list(F.relations.gens)))

print("\nHilbert function of the (5,2)-diagonal k[(I^2)_5]:")
spec = DiagonalSpec(5, 2)
print("   ", diagonal_hilbert_function(P, spec, 4))
print("    dimension:", diagonal_dimension(P, spec))

print("\nbigraded Betti table of the Rees algebra (Koszul homology):")
table = bigraded_betti_table(P.defining_ideal, (15, 15))
for p, deg, rank in table.rows():
    print("    p=%d  degree=%s  rank=%d" % (p, deg, rank))
inv = invariants_from_shifts(table)
print("    a* =", inv.a_star, " reg =", inv.reg, " proj.dim =", inv.proj_dim)

report, verdicts = good_resolution_check(table, 4, 3, 2, 6)
print("\nevery shift passes one of the three numeric conditions:", report.verdict)
for v in verdicts:
    print("    shift %s -> condition %s" % (v.shift, v.condition))

alpha = cm_threshold_alpha(2, 4, a2_form_ring=-2)
print("\nCM threshold alpha = %s: every admissible diagonal is Cohen-Macaulay" % alpha.verdict)
check = cm_diagonal_test("strongly-cm", {"degrees": (2, 2, 2), "height": 2, "n": 4}, spec)
print("strongly-CM criterion at (5,2):", check.verdict, "(sufficient only)" if check.sufficient_only else "")

print("\nGorenstein diagonals of small families:")
print("    2x3 generic maximal minors:",
      [(r.inputs["c"], r.inputs["e"]) for r in gorenstein_diagonals("maximal-minors", m=2, n=3)])
print("    three coordinate products in P^2:",
      [(r.inputs["c"], r.inputs["e"]) for r in gorenstein_diagonals("general", n=3, a=2, d=2, height=2)])
