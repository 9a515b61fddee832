"""Rees-algebra presentations, form ring, fiber cone and analytic spread."""

from __future__ import annotations

from ._record import record
from .groebner import (
    Ideal,
    eliminate,
    groebner_basis,
    minimal_generators,
    transport,
)
from .hilbert import (
    HilbertSeriesRational,
    _t_slice,
    hilbert_series_ideal,
    krull_dimension,
)
from .rings import Polynomial, RingSpec, graded_ring


class ReesError(ValueError):
    pass


class ReesPresentation:
    """Presentation S = k[X; Y] ->> R(I) with deg Y_j = (d_j, 1).

    ``defining_ideal`` is the kernel K, given by a minimal bihomogeneous
    generating set; the ambient ``ring`` is S.
    """

    def __init__(self, source, ring, defining_ideal, degrees):
        self.source = source
        self.ring = ring
        self.defining_ideal = defining_ideal
        self.degrees = tuple(degrees)
        self._series = None
        self._fiber = None

    @property
    def base_ring(self):
        return self.source.ring

    @property
    def x_count(self):
        return self.base_ring.nvars

    @property
    def y_count(self):
        return len(self.degrees)

    @property
    def max_degree(self):
        return max(self.degrees)

    @property
    def degree_sum(self):
        return sum(self.degrees)

    @property
    def equigenerated(self):
        return len(set(self.degrees)) == 1

    def generator_bidegrees(self):
        return sorted(g.multidegree() for g in self.defining_ideal.gens)

    def series(self):
        if self._series is None:
            self._series = hilbert_series_ideal(self.defining_ideal, "quotient")
        return self._series

    def check_t_slices(self):
        """Raise unless every base variable has degree (a, 0), so that H_R at (i, j) is dim (I^j)_i."""
        if any(b for _, b in self.base_ring.degrees):
            raise ReesError("powers are t-slices of H_R only when every base variable has degree (a, 0)")

    def power_series(self, j):
        """H_{I^j}, the t-slice of H_R, over the base ring's own factors (1-s^a) of its denominator."""
        if j < 0:
            raise ReesError("no power I^%d: the exponent must be >= 0" % j)
        self.check_t_slices()
        num = _t_slice(self.degrees, ((b, {a: c}) for (a, b), c in self.series().num), j)
        return HilbertSeriesRational.make({(a, 0): c for a, c in num.items()}, self.base_ring.degrees)

    def report(self):
        return {
            "generators": [
                {"poly": repr(g), "bidegree": list(g.multidegree())}
                for g in self.defining_ideal.gens
            ],
            "l": fiber_cone(self).spread,
            "d": self.max_degree,
            "u": self.degree_sum,
            "flags": {
                "equigenerated": self.equigenerated,
                "x_count": self.x_count,
                "y_count": self.y_count,
            },
        }


def rees_presentation(I):
    """Kernel of Y_j -> f_j t by eliminating t from (Y_1 - f_1 t, ..., Y_r - f_r t).

    The ring S = k[X; Y] of the defining ideal has degrevlex order, whatever
    the order of I's ring: it is the ring of the elimination. The Y_j stand
    for I's minimal generators, in the order I gives them.
    """
    if I.is_zero():
        raise ReesError("the zero ideal has no blow-up presentation")
    if not I.is_homogeneous():
        raise ReesError("generators must be homogeneous")
    A = I.ring
    fs = sorted(minimal_generators(A, I.gens), key=I.gens.index)
    if any(f.multidegree()[1] for f in fs):
        raise ReesError("source ideal must live in the base ring (second degree 0)")
    degrees = [f.multidegree()[0] for f in fs]
    r = len(fs)
    y_names = tuple(_fresh_name("Y%d" % (j + 1), A.names) for j in range(r))
    t_name = _fresh_name("t", A.names + y_names)
    ext = RingSpec(
        A.field,
        A.names + y_names + (t_name,),
        A.degrees + tuple((d, 1) for d in degrees) + ((0, 1),),
        A.order,
    )
    nx = A.nvars
    gens = [
        ext.variable(nx + j) - transport(f, ext) * ext.variable(nx + r)
        for j, f in enumerate(fs)
    ]
    K_raw = eliminate(Ideal(ext, gens), [nx + r])
    S = K_raw.ring
    K = Ideal(S, minimal_generators(S, list(K_raw.gens)))
    # K_raw generates K, and the elimination left its reduced basis on it
    K._bases[S.order] = K_raw._bases[S.order]
    pres = ReesPresentation(I, S, K, degrees)
    dim = krull_dimension(pres.series())
    expected = A.nvars + 1
    if dim != expected:
        raise ReesError(
            "dim S/K = %d != %d: the ideal meets an associated prime of the base"
            % (dim, expected)
        )
    return pres


def _fresh_name(base, taken):
    name = base
    while name in taken:
        name += "_"
    return name


def form_ring_presentation(P):
    """Defining ideal of the form ring G = R/IR as a quotient of S."""
    S = P.ring
    lifted = [transport(f, S) for f in P.source.gens]
    gens = list(P.defining_ideal.gens) + lifted
    return Ideal(S, minimal_generators(S, gens))


@record
class FiberConeData:
    """Presentation of F = R/mR over k[Y] (standard grading) and its dimension."""

    ring: RingSpec
    relations: Ideal
    spread: int
    series: HilbertSeriesRational


def fiber_cone(P):
    """Fiber cone as a quotient of k[Y], analytic spread from the series pole."""
    if P._fiber is not None:
        return P._fiber
    S = P.ring
    nx = P.x_count
    F_ring = graded_ring(S.names[nx:], field=S.field)
    gens = []
    for g in groebner_basis(P.defining_ideal).polys:
        coeffs = {}
        for m, c in g.terms:
            if any(m[:nx]):
                continue
            coeffs[m[nx:]] = c
        if coeffs:
            gens.append(Polynomial(F_ring, coeffs))
    J = Ideal(F_ring, minimal_generators(F_ring, gens) if gens else [])
    series = hilbert_series_ideal(J, "quotient")
    spread = krull_dimension(series)
    data = FiberConeData(F_ring, J, spread, series)
    P._fiber = data
    return data


def builtin_a2_form_ring(family, **params):
    """Known second a-invariants of the form ring for supported families.

    No command consults this table yet: `cm-threshold` takes a^2(G) only from
    its --a2G flag or the problem's family line, and never computes it.
    """
    if family == "complete-intersection":
        return -params["r"]
    if family == "maximal-minors":
        m, n = params["m"], params["n"]
        if not 1 <= m <= n:
            raise ReesError("need 1 <= m <= n")
        return -(n - m + 1)
    if family == "strongly-cm":
        return -params["height"]
    raise ReesError("no built-in form-ring a-invariant for family %r" % family)
