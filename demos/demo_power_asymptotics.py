"""Walkthrough: the uniform behaviour of the powers I^j.

Three finite computations determine infinitely many: Hilbert polynomials of
all powers from four of them, Hilbert series of all powers from two, minimal
free resolutions of all powers from a stable window.
"""

from reeslab import (
    Ideal,
    graded_ring,
    hilbert_polynomial,
    hilbert_series_ideal,
    ideal_power,
    parse_polynomial,
)
from reeslab import _qpoly as qp
from reeslab.asymptotics import (
    fit_hilbert_polynomials,
    fit_hilbert_series,
    mixed_multiplicities,
    predict_resolutions,
    stable_projdim,
)
from reeslab.betti import graded_betti_table

A = graded_ring(["X1", "X2", "X3", "X4"])
I = Ideal(A, [parse_polynomial(s, A) for s in
              ("X1*X4 - X2*X3", "X2^2 - X1*X3", "X3^2 - X2*X4")])

print("Hilbert polynomials of A/I^j for j = 1, 2, 3, 5:")
samples = {}
for j in (1, 2, 3, 5):
    samples[j] = hilbert_polynomial(hilbert_series_ideal(ideal_power(I, j), "quotient"))
    print("    j=%d:  %s" % (j, qp.format_poly(samples[j].coeffs, "s")))

family = fit_hilbert_polynomials(samples, 4, 2)
print("\ninterpolated coefficient polynomials (integer-valued):")
for i, poly in enumerate(family.polys):
    print("    e_%d(j) = %s" % (i, qp.format_poly(poly)))
print("predicted P_{A/I^4} =", qp.format_poly(family.hilbert_polynomial(4).coeffs, "s"))

mm = mixed_multiplicities(family, d=2, l=3)
print("\nmixed multiplicities: e_i(R) =", mm.rees, " total", mm.rees_total)
print("                      e_i(G) =", mm.form, " total", mm.form_total)

print("\nseries template from the first two powers:")
template = fit_hilbert_series(
    {j: hilbert_series_ideal(ideal_power(I, j), "ideal") for j in (1, 2)}, d=2, l=3
)
for alpha, poly in zip(template.offsets, template.polys):
    print("    offset %d:  P(j) = %s" % (alpha, qp.format_poly(poly)))
print("predicted series of I^5:", template.predict(5))

print("\nBetti tables of the powers and the resolution template:")
tables = {0: graded_betti_table(ideal_power(I, 0), 5, "ideal")}
for j in (1, 2, 3):
    tables[j] = graded_betti_table(ideal_power(I, j), 2 * j + 6, "ideal")
    print("    j=%d:  %s" % (j, tables[j]))
resolution = predict_resolutions(tables, l=3, d=2, threshold=2)
print("linear resolutions:", resolution.linear)
print("predicted table of I^6:", resolution.predict(6))

report = stable_projdim(tables, 3, a2_form_ring=-2, a_fiber=-3)
print("\nprojective dimensions:", report.observed,
      "- stable value %d reached at j=%d (predicted threshold %d)"
      % (report.stable_value, report.stable_from, report.predicted_threshold))
