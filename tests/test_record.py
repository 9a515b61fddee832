"""Every frozen record class: value equality, tuple hashes, frozen fields, defaults and repr."""

from fractions import Fraction

import pytest

from reeslab import Ideal, asymptotics, betti, diagonals, ginreg, hilbert, rees, rings
from reeslab._record import FrozenInstanceError, record

R = rings.graded_ring(["x", "y"])
SERIES = hilbert.HilbertSeriesRational((((0, 0), 1), ((2, 0), -1)), (((1, 0), 2),))
IDEAL = Ideal(R, [rings.parse_polynomial("x^2", R)])

# (class, positional arguments, repr, or None where the class does not define its own)
CASES = [
    (rings.RationalField, (), "Q"),
    (rings.PrimeField, (7,), "F7"),
    (rings.TermOrder, ("elim", 1, (1, 0)), None),
    (rings.RingSpec, (rings.QQ, ("x", "y"), ((1, 0), (1, 0)), rings.LEX), "RingSpec(Q; x(1,0), y(1,0); lex)"),
    (hilbert.HilbertSeriesRational, (SERIES.num, SERIES.den),
     "(1*s^0*t^0 + -1*s^2*t^0) / (1-s^1 t^0)^2"),
    (hilbert.HilbertPolynomial, ((Fraction(1), Fraction(2)), 0, 2), "HilbertPolynomial(1 + 2*s; stable from 0)"),
    (hilbert.BigradedHilbertPolynomial, (1, (((1, 0), 3),), 1, (0, 0)), None),
    (hilbert.DimMultReport, (2, Fraction(3), None), None),
    (asymptotics.PowerPolynomialFamily, (((1,), (2, 1)), 3, 1, 2, (2, 3, 4)), None),
    (asymptotics.MixedMultiplicities, ((1, 2), (3,)), None),
    (asymptotics.SeriesTemplateFamily, ((0, 1), ((1,), (2,)), 2, 1, 3, 2, (2, 3)), None),
    (asymptotics.ProjDimReport, (((1, 2), (2, 3)), 3, 2, None, True), None),
    (asymptotics.ResolutionTemplate, (((0, 2),), ((1,),), 2, 1, 1, True, (1, 2)), None),
    (betti.BettiTable, (R, ((0, (2, 0), 1),), True, (4, 0)), "BettiTable(beta_0(2, 0)=1)"),
    (betti.InvariantsReport, ((-3,), (2,), 2, ((0, (2, 0)),)), None),
    (diagonals.DiagonalSpec, (5, 2), None),
    (diagonals.DiagonalReport, ("gorenstein-diagonal:general", {"n": 4}, True, -1, ("a",), True), None),
    (diagonals.ShiftVerdict, ((2, 1), True, 1), None),
    (ginreg.GinResult, ("I", 3, 7, rings.DEGREVLEX, 10, "abc", Fraction(8, 300763)), None),
    (ginreg.BorelReport, (True, 0, None, (2, 1)), None),
    (ginreg.RegularityCheck, (True, 2, (0, 4), 2, 7, "ok"), None),
    (rees.FiberConeData, (R, IDEAL, 1, SERIES), None),
]


def fields(cls):
    return tuple(cls.__annotations__)


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


@pytest.mark.parametrize("cls, args, own_repr", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_class_behaves_as_a_frozen_value(cls, args, own_repr):
    names = fields(cls)
    a, b = cls(*args), cls(**dict(zip(names, args)))
    assert tuple(getattr(a, n) for n in names) == args
    assert a == b and not a != b
    assert a.__eq__(object()) is NotImplemented and a != object()
    if cls is hilbert.HilbertPolynomial:
        # its own hash, of the coefficients that its own equality compares
        assert hash(a) == hash(args[0])
    else:
        assert hash_or_error(a) == hash_or_error(args)
    for name in names or ("anything",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(a, name)
    expected = own_repr or "%s(%s)" % (cls.__name__, ", ".join("%s=%r" % kv for kv in zip(names, args)))
    assert repr(a) == expected
    if names:
        with pytest.raises(TypeError):
            cls(*args, **{names[0]: args[0]})
    if names and names[0] not in vars(cls):  # a first field without a default
        with pytest.raises(TypeError):
            cls()
    with pytest.raises(TypeError):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)


def test_record_count_and_field_order():
    assert len(CASES) == 22
    assert fields(rings.TermOrder) == ("tag", "block", "perm")
    assert fields(diagonals.DiagonalReport)[:3] == ("criterion", "inputs", "verdict")


def test_defaults():
    assert rings.TermOrder() == rings.TermOrder("degrevlex", 0, None) == rings.DEGREVLEX
    assert rings.TermOrder(block=2, tag="elim").perm is None
    assert rings.RingSpec(rings.QQ, ("x",), ((1, 0),)).order is rings.DEGREVLEX
    report = diagonals.DiagonalReport("c", {}, False)
    assert (report.a_invariant, report.assumptions, report.sufficient_only) == (None, (), False)
    assert diagonals.DiagonalReport("c", {}, False, sufficient_only=True).sufficient_only


def test_own_equality_is_kept():
    # equal as rational functions, though the numerators and denominators differ
    one = hilbert.HilbertSeriesRational((((0, 0), 1),), (((1, 0), 1),))
    two = hilbert.HilbertSeriesRational((((0, 0), 1), ((1, 0), -1)), (((1, 0), 2),))
    assert one == two
    # equal Hilbert polynomials with different thresholds
    assert hilbert.HilbertPolynomial((1,), 0, 1) == hilbert.HilbertPolynomial((1,), 3, 1)


def test_records_of_different_classes_differ():
    assert diagonals.DiagonalSpec(5, 2) != diagonals.ShiftVerdict(5, 2, None)
    assert rings.PrimeField(7) != 7


def test_post_init_validations_still_raise():
    with pytest.raises(rings.RingError, match="not prime"):
        rings.PrimeField(4)
    with pytest.raises(rings.RingError, match="unknown term order"):
        rings.TermOrder("bogus")
    with pytest.raises(rings.RingError, match="positive block size"):
        rings.TermOrder("elim")
    with pytest.raises(rings.RingError, match="duplicate variable names"):
        rings.RingSpec(rings.QQ, ("x", "x"), ((1, 0), (1, 0)))
    with pytest.raises(diagonals.DiagonalError, match="c and e must be positive"):
        diagonals.DiagonalSpec(0, 1)


def test_a_class_without_fields_and_with_one_field():
    @record
    class Empty:
        pass

    @record
    class One:
        v: int
        w = 3  # not annotated, so not a field

    assert Empty() == Empty() and hash(Empty()) == hash(())
    assert repr(Empty()) == "test_a_class_without_fields_and_with_one_field.<locals>.Empty()"
    assert One(2) == One(v=2) != One(3)
    assert hash(One(2)) == hash((2,))
    with pytest.raises(TypeError):
        One(2, 3)
    with pytest.raises(FrozenInstanceError, match="cannot assign to field 'w'"):
        One(2).w = 4
