"""reeslab: exact computation with Rees algebras, Hilbert data, Betti tables and diagonal subalgebras.

`import reeslab` loads no layer. Each public name below is imported from its
module on first use (PEP 562), so a program pays only for the layers it runs.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.  A submodule name maps to itself.
_HOME = {
    name: module
    for module, names in {
        "rings": (
            "rings", "DEGLEX", "DEGREVLEX", "LEX", "PrimeField", "QQ", "ParseError",
            "Polynomial", "RingError", "RingSpec", "TermOrder", "blowup_ring",
            "elimination_order", "format_polynomial", "graded_ring", "multidegree_of",
            "parse_polynomial",
        ),
        "groebner": (
            "groebner", "GroebnerBasis", "Ideal", "colon_ideal", "eliminate",
            "groebner_basis", "ideal_power", "ideal_product", "initial_ideal",
            "initial_monomials", "minimal_generators", "normal_form",
        ),
        "hilbert": (
            "hilbert", "BigradedHilbertPolynomial", "DimMultReport", "HilbertPolynomial",
            "HilbertSeriesRational", "SeriesError", "bigraded_hilbert_polynomial", "dim_mult",
            "hilbert_function", "hilbert_polynomial", "hilbert_series_ideal",
            "hilbert_series_monomial", "hilbert_series_ring",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_HOME)


def __getattr__(name):
    import importlib

    home = _HOME.get(name)
    if home is None:
        # Not a public name: `from reeslab import betti` then imports the submodule.
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    module = importlib.import_module("." + home, __name__)
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
