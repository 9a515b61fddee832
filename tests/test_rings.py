import random
from fractions import Fraction

import pytest

from reeslab import (
    DEGLEX,
    DEGREVLEX,
    LEX,
    ParseError,
    PrimeField,
    QQ,
    RingError,
    RingSpec,
    blowup_ring,
    format_polynomial,
    graded_ring,
    multidegree_of,
    parse_polynomial,
)
from reeslab.rings import MonomialPacking, PackingOverflow, TermOrder
from conftest import naive_multiply


@pytest.fixture
def A():
    return graded_ring(["X1", "X2", "X3", "X4"])


def test_parse_twisted_cubic_generator(A):
    f = parse_polynomial("X1*X4 - X2*X3", A)
    assert len(f.terms) == 2
    assert f.multidegree() == (2, 0)


def test_parse_zero(A):
    assert not parse_polynomial("0", A)
    assert parse_polynomial("0", A).terms == ()


def test_parse_cancellation(A):
    f = parse_polynomial("X1^2 - X1^2 + X2", A)
    assert f == A.variable(1)


def test_parse_rejects_unknown_variable(A):
    with pytest.raises(ParseError):
        parse_polynomial("X1*Z", A)


def test_parse_reports_position(A):
    with pytest.raises(ParseError) as err:
        parse_polynomial("X1 + %", A)
    assert err.value.position is not None


def test_parse_rational_literal(A):
    f = parse_polynomial("3/2*X1 - 1/2*X1", A)
    assert f == A.variable(0)


def test_multiply_difference_of_squares(A):
    x, y = A.variable(0), A.variable(1)
    assert (x + y) * (x - y) == x * x - y * y


def test_multiply_by_zero(A):
    f = parse_polynomial("X1 + X2", A)
    assert not f * A.zero()


def test_multidegree_inhomogeneous():
    B = blowup_ring(["X1"], ["Y1"], [2])
    f = parse_polynomial("X1 + Y1", B)
    assert multidegree_of(f) == "inhomogeneous"
    assert multidegree_of(parse_polynomial("Y1", B)) == (2, 1)


def test_multidegree_of_zero_raises(A):
    with pytest.raises(RingError):
        A.zero().multidegree()


def test_random_ring_axioms_against_naive_oracle(A):
    rng = random.Random(11)

    def rand_poly():
        coeffs = {}
        for _ in range(rng.randint(0, 8)):
            mono = tuple(rng.randint(0, 3) for _ in range(4))
            coeffs[mono] = rng.randint(-5, 5)
        from reeslab.rings import Polynomial

        return Polynomial(A, {m: QQ.coerce(c) for m, c in coeffs.items() if c})

    for _ in range(40):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert f * g == naive_multiply(f, g)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_homogeneous_product_degrees(A):
    rng = random.Random(5)
    monos3 = A.monomials_of_degree((3, 0))
    from reeslab.rings import Polynomial

    for _ in range(20):
        f = Polynomial(A, {rng.choice(monos3): QQ.coerce(rng.randint(1, 5)) for _ in range(3)})
        g = Polynomial(A, {rng.choice(monos3): QQ.coerce(rng.randint(1, 5)) for _ in range(2)})
        assert (f * g).multidegree() == (6, 0)


def test_parse_format_roundtrip(A):
    rng = random.Random(3)
    from reeslab.rings import Polynomial

    for _ in range(25):
        coeffs = {}
        for _ in range(rng.randint(1, 6)):
            mono = tuple(rng.randint(0, 2) for _ in range(4))
            coeffs[mono] = QQ.coerce(rng.randint(-4, 4))
        f = Polynomial(A, {m: c for m, c in coeffs.items() if c})
        assert parse_polynomial(format_polynomial(f), A) == f


def test_degrevlex_vs_lex_leading_monomials():
    B = RingSpec(QQ, ("X1", "X2", "Y1", "Y2"), ((1, 0), (1, 0), (0, 1), (0, 1)), LEX)
    f = parse_polynomial("X1*Y2 + X2*Y1", B)
    assert f.leading_monomial() == (1, 0, 0, 1)
    g = parse_polynomial("X1*Y2 + X2*Y1", B.with_order(DEGREVLEX))
    assert g.leading_monomial() == (0, 1, 1, 0)


def test_prime_field_arithmetic():
    F = PrimeField(7)
    A7 = graded_ring(["x", "y"], field=F)
    f = parse_polynomial("3*x + 5*x", A7)
    assert f == A7.variable(0)
    with pytest.raises(RingError):
        PrimeField(6)


def test_prime_field_primality_is_fast_and_exact():
    for p in (2, 3, 41, 32003, 2305843009213693951):
        assert PrimeField(p).char == p
    # 3215031751 is the smallest strong pseudoprime to bases 2, 3, 5 and 7;
    # the last one passes every prime base up to 37
    for n in (0, 1, 561, 1681, 2047, 3215031751, 318665857834031151167461):
        with pytest.raises(RingError, match="not prime"):
            PrimeField(n)
    with pytest.raises(RingError, match="3317044064679887385961981"):
        PrimeField(3317044064679887385961981)


def test_ring_value_equality():
    a = graded_ring(["x", "y"])
    b = graded_ring(["x", "y"])
    assert a == b
    assert a != graded_ring(["x", "z"])


@pytest.mark.parametrize("order", [
    LEX, DEGLEX, DEGREVLEX, TermOrder("elim", block=2),
    TermOrder("degrevlex", perm=(3, 1, 4, 0, 2)), TermOrder("elim", block=1, perm=(2, 0, 1, 4, 3)),
], ids=["lex", "deglex", "degrevlex", "elim", "degrevlex_perm", "elim_perm"])
def test_packed_monomials_against_exponent_tuples(order):
    n = 5
    rng = random.Random(7)
    key = order.key_function(n)
    P = MonomialPacking.fitting(n, 2 * 4 * n, order)
    monos = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(60)]
    packed = {m: P.pack(m) for m in monos}
    assert sorted(monos, key=key) == sorted(monos, key=packed.get)
    for a, b in zip(monos, monos[1:] + monos[:1]):
        pa, pb = packed[a], packed[b]
        assert P.unpack(pa + pb) == tuple(x + y for x, y in zip(a, b))
        assert P.divides(pa, pb) == all(x <= y for x, y in zip(a, b))
        assert P.degree(pa) == sum(a)
    E = MonomialPacking.fitting(n, 4)
    for a, b in zip(monos, monos[1:]):
        assert E.divides(E.pack(a), E.pack(b)) == all(x <= y for x, y in zip(a, b))


def test_packed_overflow_is_caught():
    P = MonomialPacking.fitting(3, 7, DEGREVLEX)    # 4-bit fields: values up to 7
    with pytest.raises(PackingOverflow):
        P.pack((4, 4, 0))
    a, b = P.pack((4, 0, 0)), P.pack((0, 4, 0))
    assert (a + b) & P.guard                       # the degree field overflowed
    assert not (a + P.pack((0, 3, 0))) & P.guard
    assert P.widened().unpack(P.widened().pack((4, 4, 0))) == (4, 4, 0)
    E = MonomialPacking.fitting(3, 7)               # exponent fields only
    assert E.unpack(E.pack((7, 7, 7))) == (7, 7, 7)
    with pytest.raises(PackingOverflow):
        E.pack((0, 8, 0))


@pytest.mark.parametrize("degrees", [
    ((1, 0),) * 4,
    ((1, 0), (1, 0), (0, 1)),
    ((0, 1), (1, 0), (1, 0)),
    ((1, 0), (1, 0), (1, 0), (2, 1), (3, 1)),
    ((1, 0), (0, 1), (2, 1), (1, 1)),
])
def test_monomials_of_degree_against_brute_force(degrees):
    import itertools

    ring = RingSpec(QQ, tuple("v%d" % i for i in range(len(degrees))), degrees)
    A, B = 6, 3
    # every exponent is at most max(a, b) for a degree (a, b); product() lists in lex order
    expected = {}
    for e in itertools.product(range(A + 1), repeat=len(degrees)):
        deg = tuple(sum(x * d[k] for x, d in zip(e, degrees)) for k in (0, 1))
        if deg[0] <= A and deg[1] <= B:
            expected.setdefault(deg, []).append(e)
    for a in range(A + 1):
        for b in range(B + 1):
            assert ring.monomials_of_degree((a, b)) == expected.get((a, b), [])


# ---------------------------------------------------------------------------
# the parser against Polynomial arithmetic

_EXPR, _TERM, _FACTOR, _BASE = range(4)


def _random_tree(rng, depth):
    """A random expression tree of variables, literals, +, -, unary minus, * and powers."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.55:
            return ("var", rng.choice("xyz"))
        num = rng.randint(0, 40)
        return ("lit", num, rng.choice([None, None, rng.randint(1, 30), 7]))
    kind = rng.choice(["add", "sub", "mul", "mul", "pow", "neg"])
    if kind == "neg":
        return ("neg", _random_tree(rng, depth - 1))
    if kind == "pow":
        return ("pow", _random_tree(rng, depth - 1), rng.randint(0, 3))
    return (kind, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _render(tree, rng):
    """(text, level): the text of tree with brackets only where the grammar needs them."""
    def at(sub, level):
        text, own = _render(sub, rng)
        return text if own >= level else "(" + text + ")"

    kind = tree[0]
    if kind == "var":
        return tree[1], _BASE
    if kind == "lit":
        return ("%d" % tree[1] if tree[2] is None else "%d/%d" % tree[1:]), _BASE
    if kind == "neg":
        return "-" + at(tree[1], _TERM), _EXPR
    if kind == "pow":
        # powers chain to the left: x^2^3 is (x^2)^3
        base = at(tree[1], _FACTOR if tree[1][0] == "pow" else _BASE)
        return "%s^%d" % (base, tree[2]), _FACTOR
    if kind == "mul":
        return at(tree[1], _TERM) + rng.choice(["*", " * "]) + at(tree[2], _FACTOR), _TERM
    op = "+" if kind == "add" else "-"
    return at(tree[1], _EXPR) + rng.choice([op, " %s " % op]) + at(tree[2], _TERM), _EXPR


def _evaluate(tree, ring):
    kind = tree[0]
    if kind == "var":
        return ring.variable(ring.names.index(tree[1]))
    if kind == "lit":
        return ring.constant(tree[1] if tree[2] is None else Fraction(tree[1], tree[2]))
    if kind == "neg":
        return -_evaluate(tree[1], ring)
    if kind == "pow":
        return _evaluate(tree[1], ring) ** tree[2]
    a, b = _evaluate(tree[1], ring), _evaluate(tree[2], ring)
    return a + b if kind == "add" else a - b if kind == "sub" else a * b


def _outcome(fn):
    try:
        return fn()
    except (ParseError, RingError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("field", [QQ, PrimeField(7), PrimeField(32003)], ids=repr)
def test_parser_matches_polynomial_arithmetic(field):
    ring = graded_ring(["x", "y", "z"], field=field)
    rng = random.Random("parse:%r" % field)
    for _ in range(300):
        tree = _random_tree(rng, rng.randint(1, 5))
        text = _render(tree, rng)[0]
        if rng.random() < 0.2:
            text = " " + text
        assert _outcome(lambda: parse_polynomial(text, ring)) == _outcome(lambda: _evaluate(tree, ring)), text


# (text, characteristic, error type, message), as reported by the earlier
# parser, which evaluated every factor with Polynomial arithmetic
MALFORMED = [
    ("", 0, ParseError, "unexpected token (at position 0)"),
    ("+", 0, ParseError, "unexpected token (at position 1)"),
    ("-", 0, ParseError, "unexpected token (at position 1)"),
    ("x +", 0, ParseError, "unexpected token (at position 3)"),
    ("x + * y", 0, ParseError, "unexpected token (at position 4)"),
    ("*x", 0, ParseError, "unexpected token (at position 0)"),
    ("x*-y", 0, ParseError, "unexpected token (at position 2)"),
    ("--x", 0, ParseError, "unexpected token (at position 1)"),
    (")", 0, ParseError, "unexpected token (at position 0)"),
    ("()", 0, ParseError, "unexpected token (at position 1)"),
    ("x y", 0, ParseError, "trailing input (at position 2)"),
    ("x)", 0, ParseError, "trailing input (at position 1)"),
    ("(x + y", 0, ParseError, "expected ')' (at position 6)"),
    ("(x + y))", 0, ParseError, "trailing input (at position 7)"),
    ("((x)", 0, ParseError, "expected ')' (at position 4)"),
    ("%x", 0, ParseError, "unexpected character '%' (at position 0)"),
    ("x+$", 0, ParseError, "unexpected character '$' (at position 2)"),
    ("x.y", 0, ParseError, "unexpected character '.' (at position 1)"),
    ("x**2", 0, ParseError, "unexpected token (at position 2)"),
    ("2^2/3", 0, ParseError, "trailing input (at position 3)"),
    ("x/2", 0, ParseError, "trailing input (at position 1)"),
    ("1/", 0, ParseError, "malformed rational literal (at position 2)"),
    ("1/0", 0, ParseError, "malformed rational literal (at position 2)"),
    ("1/x", 0, ParseError, "malformed rational literal (at position 2)"),
    ("3/(2)", 0, ParseError, "malformed rational literal (at position 2)"),
    ("1/-2", 0, ParseError, "malformed rational literal (at position 2)"),
    ("x^", 0, ParseError, "exponent must be a non-negative integer (at position 2)"),
    ("x^-1", 0, ParseError, "exponent must be a non-negative integer (at position 2)"),
    ("x^y", 0, ParseError, "exponent must be a non-negative integer (at position 2)"),
    ("x^(2)", 0, ParseError, "exponent must be a non-negative integer (at position 2)"),
    ("x^2^", 0, ParseError, "exponent must be a non-negative integer (at position 4)"),
    ("w", 0, ParseError, "unknown variable 'w' (at position 0)"),
    ("x*Y", 0, ParseError, "unknown variable 'Y' (at position 2)"),
    ("(x + q)^2", 0, ParseError, "unknown variable 'q' (at position 5)"),
    ("2 3", 0, ParseError, "trailing input (at position 2)"),
    ("x^2 3", 0, ParseError, "trailing input (at position 4)"),
    ("0*1/7", 7, RingError, "denominator divisible by 7"),
    ("1/14", 7, RingError, "denominator divisible by 7"),
    ("x + 5/21*y", 7, RingError, "denominator divisible by 7"),
    ("(y - 1/7)^0", 7, RingError, "denominator divisible by 7"),
    ("1/32003", 32003, RingError, "denominator divisible by 32003"),
    ("x + 1/7", 7, RingError, "denominator divisible by 7"),
    ("2/0", 7, ParseError, "malformed rational literal (at position 2)"),
]


@pytest.mark.parametrize("text, p, error, message", MALFORMED)
def test_malformed_input_keeps_its_error(text, p, error, message):
    ring = graded_ring(["x", "y", "z"], field=PrimeField(p) if p else QQ)
    with pytest.raises(error) as exc:
        parse_polynomial(text, ring)
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("text, bad, position", [
    ("x $ y", "$", 2),
    ("x  \t%", "%", 4),
    ("x + y .", ".", 6),
])
def test_parse_names_the_bad_character_after_blanks(text, bad, position):
    # the tokenizer once named the blank before the bad character
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, graded_ring(["x", "y"]))
    assert str(exc.value) == "unexpected character %r (at position %d)" % (bad, position)
    assert exc.value.position == position


@pytest.mark.parametrize("text", ["x ", "x\t", " x*y \t ", "(x + y)^2  "])
def test_trailing_blanks_end_the_input(text):
    # "x " and "x\t" once raised "unexpected character" at the first trailing blank
    ring = graded_ring(["x", "y"])
    assert parse_polynomial(text, ring) == parse_polynomial(text.strip(), ring)


@pytest.mark.parametrize("text, position", [("", 0), ("  \t", 0), ("x +  ", 3), ("(x + y  ", 6)])
def test_input_ending_in_blanks_reports_where_the_blanks_start(text, position):
    with pytest.raises(ParseError) as exc:
        parse_polynomial(text, graded_ring(["x", "y"]))
    assert exc.value.position == position


def test_literals_are_coerced_as_they_are_read():
    F7 = graded_ring(["x"], field=PrimeField(7))
    # the zero factor does not excuse the literal 1/7
    with pytest.raises(RingError, match="denominator divisible by 7"):
        parse_polynomial("0*1/7", F7)
    assert parse_polynomial("7/14*x", F7) == parse_polynomial("4*x", F7)


def test_a_literal_power_is_reduced_mod_p():
    F = graded_ring(["x"], field=PrimeField(32003))
    f = parse_polynomial("3^1000000*x", F)
    assert f.terms == (((1,), pow(3, 1000000, 32003)),)
    assert parse_polynomial("0^0 + (x)^1000000000", F).terms == (((1000000000,), 1), ((0,), 1))
