"""Exact arithmetic in Q(mu): canonical form, parsing and printing."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rsthl import example_model, run_suite, scalars
from rsthl.errors import ScalarDomainError, ScalarParseError
from rsthl.scalars import (HALF, MAX_GCD_DEGREE, MAX_GCD_SIZE, MAX_NESTING,
                           MAX_POWER_DEGREE, MAX_PRODUCT_SIZE, MU, ONE, ZERO,
                           RationalFunction, rf)
from test_properties import dense_frame, rebased_frame, transported


def coeffs():
    return st.lists(st.integers(-9, 9), min_size=1, max_size=4)


def polys():
    return st.builds(lambda cs: RationalFunction(tuple(Fraction(c) for c in cs)),
                     coeffs())


def nonzero_polys():
    return polys().filter(lambda x: not x.is_zero())


def rationals():
    return st.builds(lambda n, d: n / d, polys(), nonzero_polys())


def test_canonical_integer_coprime():
    x = rf("(2*mu + 2)/(4*mu - 4)")
    # int coefficients, coprime, joint content 1, positive leading
    # denominator coefficient
    assert (x.num, x.den) == ((1, 1), (-2, 2))
    assert x.den[-1] > 0
    assert_canonical(x)
    assert x == rf("(mu + 1)/(2*(mu - 1))")
    assert rf("(mu^2 - 1)/(mu - 1)") == MU + 1
    # the sign moves to the numerator
    y = rf("(mu - 1)/(mu - 3*mu^2)")
    assert (y.num, y.den) == ((1, -1), (0, -1, 3))
    assert_canonical(y)


def test_zero_normal_form():
    z = MU - MU
    assert z.is_zero()
    assert z.num == ()
    assert z.den == (Fraction(1),)
    assert z == ZERO
    assert not bool(z)
    assert bool(MU)


def test_constructor_rejects_zero_denominator():
    with pytest.raises(ScalarDomainError):
        RationalFunction((Fraction(1),), ())


def test_printing():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(MU) == "mu"
    assert str(-MU) == "-mu"
    assert str(MU * MU) == "mu^2"
    assert str(HALF) == "1/2"
    assert str(MU / 2) == "mu/2"
    assert str(ONE / MU) == "1/(mu)"
    assert str(2 * MU + 3) == "2*mu + 3"
    assert str(ONE / (MU + 1)) == "1/(mu + 1)"
    assert str((MU + 1) / (MU - 1)) == "(mu + 1)/(mu - 1)"


@pytest.mark.parametrize("value, text", [
    (MU / 2, "mu/2"),
    (HALF, "1/2"),
    (-MU, "-mu"),
    (MU / -2, "-mu/2"),
    (-rf("3/4"), "-3/4"),
    ((MU + 1) / (2 * MU - 2), "(mu + 1)/(2*mu - 2)"),
    (rf("2/3") * MU * MU - rf("1/6"), "(4*mu^2 - 1)/6"),
    (ONE / (2 * MU * MU - 3), "1/(2*mu^2 - 3)"),
    ((MU - 1) / (MU - 3 * MU * MU), "(-mu + 1)/(3*mu^2 - mu)"),
    ((MU * MU + 1) / (4 * MU * MU + 6), "(mu^2 + 1)/(4*mu^2 + 6)"),
])
def test_printing_is_pinned(value, text):
    assert str(value) == text


def test_constructor_clears_fraction_coefficients():
    x = RationalFunction((Fraction(1, 2), Fraction(1, 3)))
    assert (x.num, x.den) == ((3, 2), (6,))
    assert x == RationalFunction((3, 2), (6,))
    assert RationalFunction((Fraction(2), 0), (Fraction(4),)) == HALF
    assert (RationalFunction((1, Fraction(1, 2)), (Fraction(3, 2), 1))
            == RationalFunction((2, 1), (3, 2)))
    assert (RationalFunction([Fraction(-1, 2), 0, 1], [Fraction(1, 3), 0])
            == RationalFunction((-3, 0, 6), (2,)))


@given(st.lists(st.fractions(max_denominator=6), min_size=1, max_size=4),
       st.lists(st.fractions(max_denominator=6), min_size=1, max_size=3)
       .filter(lambda d: any(d)))
@settings(max_examples=50)
def test_fraction_and_int_input_give_one_value(num, den):
    scale = math.lcm(*(c.denominator for c in num + den))
    got = RationalFunction(num, den)
    assert_canonical(got)
    assert got == RationalFunction([int(c * scale) for c in num],
                                   [int(c * scale) for c in den])


def test_parse_accepts_full_grammar():
    assert rf("mu^2 - 2*mu + 1") == (MU - 1) * (MU - 1)
    assert rf("-mu") == -MU
    assert rf("+mu") == MU
    assert rf("mu^-2") == ONE / (MU * MU)
    assert rf("((mu))") == MU
    assert rf("1/2") == HALF
    assert rf("3") == rf(3)
    # a zero operand is never bounded: the result is zero
    assert rf("0*(mu+1)^2 + (mu+1)*0") == ZERO
    assert RationalFunction((0, 1)) == MU


@given(rationals())
def test_parse_print_roundtrip(x):
    assert RationalFunction.parse(str(x)) == x


@given(polys(), polys())
def test_eval_commutes_with_add_and_mul(x, y):
    t = Fraction(3, 7)
    assert value_at(x + y, t) == value_at(x, t) + value_at(y, t)
    assert value_at(x * y, t) == value_at(x, t) * value_at(y, t)
    assert value_at(x - y, t) == value_at(x, t) - value_at(y, t)


@given(rationals(), rationals(), st.fractions(max_denominator=5))
@settings(max_examples=50)
def test_subtraction_is_addition_of_the_negation(x, y, c):
    assert x - y == x + (-y)
    assert c - x == rf(c) + (-x)
    assert (x - y).den[-1] > 0
    assert_canonical(x - y)


@given(polys(), polys(), polys())
def test_field_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x + (-x) == ZERO


@given(rationals().filter(lambda x: not x.is_zero()))
def test_multiplicative_inverse(x):
    assert x * (ONE / x) == ONE
    assert x / x == ONE


@given(rationals(), rationals().filter(lambda y: not y.is_zero()))
@settings(max_examples=50)
def test_division_is_multiplication_by_the_inverse(x, y):
    assert x / y == x * (ONE / y)
    # a unit divisor returns the dividend itself, no new scalar
    assert x / ONE is x
    assert x / 1 is x


def constants():
    """Constants mostly outside the shared small-integer table: numerators
    up to 10^12 and denominators up to 10^6 in size, either sign."""
    return st.builds(lambda n, d: RationalFunction((n,), (d,)),
                     st.integers(-10**12, 10**12),
                     st.integers(-10**6, 10**6).filter(bool))


def field_elements():
    """Zero, one, constants, polynomials and proper fractions."""
    return st.one_of(st.just(ZERO), st.just(ONE),
                     st.fractions(max_denominator=5).map(rf), constants(),
                     polys(), rationals())


def laurent_monomial(n, d, k):
    """(n/d) mu^k through the general constructor, from Fraction input."""
    c = Fraction(n, d)
    if k >= 0:
        return RationalFunction([0] * k + [c])
    return RationalFunction([c], [0] * -k + [1])


def monomials():
    """Laurent monomials (n/d) mu^k with k in -8..8, zero among them."""
    small = st.integers(-9, 9)
    return st.builds(laurent_monomial,
                     st.one_of(small, st.integers(-10**9, 10**9)),
                     st.one_of(small.filter(bool), st.integers(1, 10**6)),
                     st.integers(-8, 8))


def operands():
    """Field elements and Laurent monomials, so that both single-term and
    general operands meet each operator."""
    return st.one_of(field_elements(), monomials())


def ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_add(a, b, sign=1):
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += sign * y
    return out


def reference(op, x, y):
    """x op y through the general constructor: cross-multiplied parts."""
    if op == "+":
        return RationalFunction(ref_add(ref_mul(x.num, y.den), ref_mul(y.num, x.den)),
                                ref_mul(x.den, y.den))
    if op == "-":
        return RationalFunction(ref_add(ref_mul(x.num, y.den), ref_mul(y.num, x.den), -1),
                                ref_mul(x.den, y.den))
    if op == "*":
        return RationalFunction(ref_mul(x.num, y.num), ref_mul(x.den, y.den))
    return RationalFunction(ref_mul(x.num, y.den), ref_mul(x.den, y.num))


# Reference arithmetic over Fraction coefficients, and the normal form it
# computes: coprime over Q, monic denominator, zero as 0/1.

def q_trim(a):
    a = [Fraction(c) for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def q_rem(a, b):
    """The remainder of a by b over Q."""
    a, b = q_trim(a), q_trim(b)
    while a and len(a) >= len(b):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a = q_trim(a)
    return a


def q_quo(a, b):
    """The exact quotient a / b over Q."""
    a, b = q_trim(a), q_trim(b)
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    for k in range(len(out) - 1, -1, -1):
        q = out[k] = a[k + len(b) - 1] / b[-1]
        for i, c in enumerate(b):
            a[k + i] -= q * c
    assert not q_trim(a)
    return out


def q_gcd(a, b):
    """The monic gcd over Q, by Euclid's algorithm."""
    a, b = q_trim(a), q_trim(b)
    while b:
        a, b = b, q_rem(a, b)
    return [c / a[-1] for c in a]


def monic_form(num, den):
    """num/den as coprime polynomials over Q with a monic denominator."""
    num, den = q_trim(num), q_trim(den)
    if not num:
        return (), (Fraction(1),)
    g = q_gcd(num, den)
    num, den = q_quo(num, g), q_quo(den, g)
    return tuple(c / den[-1] for c in num), tuple(c / den[-1] for c in den)


def integer_form(num, den):
    """A monic form scaled to int coefficients with joint content 1."""
    scale = math.lcm(*(c.denominator for c in num + den))
    num = [int(c * scale) for c in num]
    den = [int(c * scale) for c in den]
    content = math.gcd(*num, *den)
    return tuple(c // content for c in num), tuple(c // content for c in den)


def q_op(op, x, y):
    """x op y on (num, den) pairs: cross-multiplied, then the monic form."""
    (a, b), (c, d) = x, y
    if op == "+":
        return monic_form(ref_add(ref_mul(a, d), ref_mul(c, b)), ref_mul(b, d))
    if op == "-":
        return monic_form(ref_add(ref_mul(a, d), ref_mul(c, b), -1), ref_mul(b, d))
    if op == "*":
        return monic_form(ref_mul(a, c), ref_mul(b, d))
    return monic_form(ref_mul(a, d), ref_mul(b, c))


def ref_gcd_degree(a, b):
    """The degree of gcd(a, b) by Euclid's algorithm on coefficient lists."""
    return len(q_gcd(a, b)) - 1


def assert_exponent(x):
    """The single-term slot: num and den each with exactly one nonzero
    coefficient give the exponent len(num) - len(den); any other value,
    zero among them, gives None."""
    single = (sum(1 for c in x.num if c) == 1 and sum(1 for c in x.den if c) == 1)
    assert x._k == (len(x.num) - len(x.den) if single else None)


def assert_canonical(x):
    assert all(type(c) is int for c in x.num + x.den)
    assert x.den and x.den[-1] > 0
    assert not x.num or x.num[-1] != 0
    if not x.num:
        assert x.den == (1,)
    else:
        assert ref_gcd_degree(x.num, x.den) == 0
        assert math.gcd(*x.num, *x.den) == 1


OPERATIONS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv}


@given(operands(), operands())
def test_operators_match_the_general_constructor_path(x, y):
    assert_exponent(x)
    for op, apply in OPERATIONS.items():
        if op == "/" and y.is_zero():
            continue
        got, want = apply(x, y), reference(op, x, y)
        assert_canonical(got)
        assert_exponent(got)
        assert (got.num, got.den) == (want.num, want.den)
    neg = -x
    assert_canonical(neg)
    assert_exponent(neg)
    assert neg == RationalFunction([-c for c in x.num], x.den)


@given(operands(), operands())
def test_operators_agree_with_fraction_reference_arithmetic(x, y):
    """An oracle that shares no code with the package: each value mapped to
    the monic Fraction form, each operator against Fraction arithmetic,
    and the stored ints against that form scaled to content 1."""
    fx, fy = monic_form(x.num, x.den), monic_form(y.num, y.den)
    assert integer_form(*fx) == (x.num, x.den)
    for op, apply in OPERATIONS.items():
        if op == "/" and y.is_zero():
            continue
        got, want = apply(x, y), q_op(op, fx, fy)
        assert_exponent(got)
        assert monic_form(got.num, got.den) == want
        assert (got.num, got.den) == integer_form(*want)


@given(field_elements())
def test_trivial_operands_return_the_operand_itself(x):
    assert x + ZERO is x
    assert x - ZERO is x
    assert ZERO * x is ZERO
    assert x * ZERO is ZERO
    assert x * ONE is x
    # with a zero or a one x, these return the interned operand instead
    assert ZERO + x == x
    assert ONE * x == x
    assert x + 0 is x
    assert x * 1 is x
    assert -ZERO is ZERO
    if not x.is_zero():
        assert ZERO / x is ZERO


def fraction_horner(cs, t):
    out = Fraction(0)
    for c in reversed(cs):
        out = out * t + c
    return out


def value_at(x, t):
    """The value of x at mu = t, by Fraction arithmetic."""
    return fraction_horner(x.num, t) / fraction_horner(x.den, t)


def test_division_by_zero_raises():
    with pytest.raises(ScalarDomainError):
        ONE / ZERO
    with pytest.raises(ScalarDomainError):
        ZERO ** -1


def test_parse_division_by_zero_polynomial():
    with pytest.raises(ScalarParseError) as err:
        RationalFunction.parse("1/0")
    assert err.value.position == 1
    assert "(at position 1)" in str(err.value)


def test_parse_error_positions():
    cases = [
        ("mu + ", 5),
        ("2 $ 3", 2),
        ("nu", 0),
        ("(mu", 3),
        ("mu^x", 3),
        ("1 2", 2),
        ("0^-1", 3),
    ]
    for text, position in cases:
        with pytest.raises(ScalarParseError) as err:
            RationalFunction.parse(text)
        assert err.value.position == position
        assert f"(at position {position})" in str(err.value)


def test_powers():
    assert MU ** 3 == MU * MU * MU
    assert MU ** 0 == ONE
    assert MU ** -1 == ONE / MU
    assert (MU + 1) ** 2 == MU * MU + 2 * MU + 1


@pytest.mark.parametrize("base", [MU, (MU + 1) / (MU - 2), rf("3/2")],
                         ids=["mu", "mobius", "three-halves"])
def test_power_equals_the_repeated_product(base):
    for n in range(-5, 21):
        factor = base if n >= 0 else ONE / base
        product = ONE
        for _ in range(abs(n)):
            product = product * factor
        assert base ** n == product
    for n in range(1, 21):
        assert ZERO ** n is ZERO


def test_parse_limits_nesting():
    """Parentheses and signs nest up to MAX_NESTING deep; one more is a
    parse error at the opening that exceeds it, not a RecursionError."""
    deepest = "(" * MAX_NESTING + "mu" + ")" * MAX_NESTING
    assert RationalFunction.parse(deepest) == MU
    assert RationalFunction.parse("-" * MAX_NESTING + "1") == ONE
    for text in ("(" + deepest + ")", "-" * (MAX_NESTING + 1) + "1",
                 "(" * 5000 + "1" + ")" * 5000):
        with pytest.raises(ScalarParseError) as err:
            RationalFunction.parse(text)
        assert err.value.position == MAX_NESTING
        assert "nested more than" in str(err.value)


def test_integer_and_fraction_coercion():
    assert 1 + MU == MU + 1
    assert 2 * MU == MU * 2
    assert 2 - MU == -(MU - 2)
    assert 1 / MU == ONE / MU
    assert rf(Fraction(1, 2)) == HALF
    assert MU + Fraction(1, 2) == MU + HALF
    with pytest.raises(TypeError):
        rf(1.5)


@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv, operator.pow])
def test_operators_refuse_values_that_are_not_rational(op):
    """Each operator returns NotImplemented on a value with no int
    numerator and denominator, either side, so Python raises TypeError."""
    for a, b in ((MU, 1.5), (1.5, MU), (MU, "mu"), ("mu", MU)):
        with pytest.raises(TypeError):
            op(a, b)


def test_equality_coerces_rationals_and_refuses_the_rest():
    assert ONE == 1 and MU != 1 and HALF == Fraction(1, 2)
    assert MU != "mu" and MU.__eq__("mu") is NotImplemented
    assert repr(MU / (MU + 1)) == "RationalFunction(mu/(mu + 1))"


def test_is_constant():
    assert rf(5).is_constant()
    assert not MU.is_constant()
    assert (MU / MU).is_constant()


@given(constants(), st.integers(-10**6, 10**6).filter(bool))
def test_constant_input_matches_the_general_path(x, d):
    """The constructor's constant pair path against its general path,
    which rational input takes."""
    n = x.num[0] if x.num else 0
    got = RationalFunction((n,), (d,))
    assert_canonical(got)
    assert got == RationalFunction((Fraction(n),), (Fraction(d),))


def test_small_integer_constants_are_shared():
    assert rf(3) is MU / MU + 2
    assert rf("-64") is -rf(64)
    assert HALF + HALF is ONE
    assert 1 - ONE is ZERO
    assert rf(65) == rf(64) + 1
    # a single term is built once per (n, d, k) and then reused
    assert rf(65) is rf(65)
    assert MU * 65 is rf("65*mu")
    assert rf(130) / rf(4) is rf(130) / rf(4)


def test_hash_matches_equality():
    assert hash(rf("(mu^2 - 1)/(mu - 1)")) == hash(MU + 1)
    table = {MU + 1: "a"}
    assert table[rf("(mu^2 - 1)/(mu - 1)")] == "a"


@pytest.fixture
def general_constructor_calls(monkeypatch):
    """The pairs given to ``scalars._canonical_pair`` from now on."""
    calls = []
    general = scalars._canonical_pair
    monkeypatch.setattr(scalars, "_canonical_pair",
                        lambda *pair: calls.append(pair) or general(*pair))
    return calls


def test_single_terms_stay_in_their_lane(request):
    assert MU * (ONE / MU) is ONE
    assert MU - MU is ZERO
    assert 2 * MU + 3 * MU == 5 * MU
    assert (5 * MU)._k == 1 and (ONE / MU)._k == -1 and HALF._k == 0
    assert ZERO._k is None and (MU + 1)._k is None
    # a negative divisor leaves the sign in the numerator
    q = MU / (-2 * MU ** 3)
    assert (q.num, q.den, q._k) == ((-1,), (0, 0, 2), -2)
    assert str(q) == "-1/(2*mu^2)"
    # exponents far from zero
    big = MU ** 40 / 3 * MU ** -3
    assert (big.num, big.den, big._k) == ((0,) * 37 + (1,), (3,), 37)
    assert big * MU ** -37 == rf("1/3")
    # single terms of unequal exponents add on the polynomial path
    calls = request.getfixturevalue("general_constructor_calls")
    assert 7 * MU - (MU / 7) * 49 is ZERO
    assert calls == []
    total = MU + MU * MU
    assert (total.num, total.den, total._k) == ((0, 1, 1), (1,), None)
    assert len(calls) == 1


@pytest.mark.parametrize("build", [
    example_model, lambda: example_model(Fraction(7, 5)),
    lambda: transported(example_model(), dense_frame(1)),
    lambda: transported(example_model(), rebased_frame(1))],
    ids=["example47", "example47-mu-7-5", "dense-frame", "rebased-frame"])
def test_suite_scalars_never_reach_the_general_constructor(request, build):
    """Every mu-dependent scalar of these models is a single term (n/d) mu^k,
    so a whole run of the suite builds none through the polynomial gcd.
    The model is built first, so that parsing is not counted."""
    model = build()
    calls = request.getfixturevalue("general_constructor_calls")
    assert run_suite(model, "all").ok
    assert len(calls) == 0


@pytest.mark.parametrize("text", [
    "(mu^2 + 3*mu + 1)/(mu^2 + 2)", "(2*mu - 3)/(4*mu^3 + mu)", "mu + 1",
    "1/(6*mu^2 - 4)", "(-6*mu^2 + 4)/9"])
def test_powers_of_multi_term_values_skip_the_gcd(request, text):
    """(p/q)^e of a canonical p/q is p^e/q^e, canonical by Gauss's lemma,
    so no power reaches the general constructor; each agrees with repeated
    products in the Fraction reference arithmetic."""
    x = rf(text)
    calls = request.getfixturevalue("general_constructor_calls")
    powers = {e: x ** e for e in range(-3, 7)}
    big = x ** 100
    assert calls == []
    num, den = monic_form(x.num, x.den)
    for e, got in powers.items():
        base = (num, den) if e >= 0 else monic_form(den, num)
        want = monic_form([1], [1])
        for _ in range(abs(e)):
            want = q_op("*", want, base)
        assert (got.num, got.den) == integer_form(*want)
        assert_exponent(got)
    assert (len(big.num), len(big.den)) == (100 * (len(x.num) - 1) + 1,
                                           100 * (len(x.den) - 1) + 1)
    assert (big.num[-1], big.den[-1]) == (x.num[-1] ** 100, x.den[-1] ** 100)


def test_parse_bounds_products_and_sums():
    """A product, quotient or cross-multiplied sum is rejected before it is
    computed when its degree is over MAX_POWER_DEGREE; one that the
    polynomial gcd would reduce, over MAX_GCD_DEGREE or MAX_GCD_SIZE; a
    product or power of multi-term values that takes the entry's sum of
    degree times bits over MAX_PRODUCT_SIZE."""
    assert MAX_GCD_DEGREE < MAX_POWER_DEGREE
    for text in ("(mu+1)^1000", "(mu+1)^500*(mu+1)^500", "(mu+1)^1000/3",
                 "(mu+2)^1000", "(mu+1)^1000 + (mu+1)^1000", "mu^600/mu^300",
                 "(mu+1)^20/(mu+2)^20 + (mu+3)^20/(mu+4)^20",
                 "((mu^2+3*mu+1)/(mu^2+2))^100", "2^2000*(mu+1)^1000"):
        RationalFunction.parse(text)
    # a parenthesized right operand is not predicted: its sum can cancel
    assert rf("mu^500*((mu+1)^600-(mu+1)^600+1)") == MU ** 500
    assert rf("(mu^2 - 1)/(mu - 1)") == MU + 1
    for text, position, message in [
        ("(mu+1)^1000*(mu+1)^1000", 11, "a product of degree 2000 is over the bound of 1000"),
        ("(mu+1)^1000*((mu+1)^1000)", 11,
         "a product of degree 2000 is over the bound of 1000"),
        ("(mu+1)^600*mu^401", 10, "a product of degree 1001"),
        ("mu^1000 + 1/mu", 8, "a sum of degree 1001"),
        ("(mu+1)^200/(mu+2)^200 + (mu+3)^200/(mu+4)^200", 10,
         f"a quotient of degree 200 to reduce by the polynomial gcd is over "
         f"the bound of {MAX_GCD_DEGREE}"),
        ("(mu+1)^60/(mu+2)^60 + (mu+3)^60/(mu+4)^60", 9,
         "a quotient of degree 60 with 93-bit coefficients to reduce by the "
         f"polynomial gcd is over the bound of {MAX_GCD_SIZE} on degree times bits"),
        ("(mu+1)^40/(mu+2)^40 - (mu+3)^40/(mu+4)^40", 20, "a difference of degree 80"),
        ("(2^4*mu+1)^1000", 11, "a power of degree 1000 with 5000-bit coefficients "
         f"is over the bound of {MAX_PRODUCT_SIZE} on degree times bits"),
        ("(2*mu+3)^500*(2*mu+3)^500", 12,
         "a product of degree 1000 with 2314-bit coefficients is over the bound"),
        ("(mu+1)^1000 + (mu+2)^1000", 21, "a power of degree 1000 with 2000-bit "
         f"coefficients takes the entry over the bound of {MAX_PRODUCT_SIZE}"),
    ]:
        with pytest.raises(ScalarParseError) as err:
            RationalFunction.parse(text)
        assert err.value.position == position
        assert str(err.value).startswith(message)


def test_over_degree_product_is_rejected_before_its_right_power(monkeypatch):
    """The degree of a product whose right operand is a power is known
    before that power is computed, so only the left power is built."""
    powers = []
    ppow = scalars._ppow

    def counted(a, e):
        if len(a) > 1:
            powers.append(e)
        return ppow(a, e)
    monkeypatch.setattr(scalars, "_ppow", counted)
    with pytest.raises(ScalarParseError,
                       match=r"^a product of degree 2000 is over the bound of 1000 "
                             r"\(at position 11\)$"):
        RationalFunction.parse("(mu+1)^1000*(mu+1)^1000")
    assert powers == [1000]
