"""Exact scalars: rational functions of one formal parameter ``mu``.

Every tensor component in this package lives in the field Q(mu).  A value
is stored as ``num/den``, two tuples of ``int`` coefficients (lowest degree
first), in the canonical form:

- num and den are coprime in Z[mu];
- the joint content gcd(num, den), the gcd of all their coefficients, is 1;
- den has a positive leading coefficient;
- zero is stored as ``((), (1,))``.

Each nonzero value has exactly one such pair, so equality and zero tests
are exact comparisons of int tuples.  The parameter is treated as a
constant with respect to differentiation: directional derivatives of
scalars along invariant frames vanish identically.

The constructor, the operators and ``rf`` also take rational input: any
value with int ``numerator`` and ``denominator`` attributes, such as an
int or a ``fractions.Fraction``.  Rational coefficients are cleared to
integers.  The arithmetic is integer polynomial arithmetic.  The
polynomial gcd is a primitive remainder sequence (pseudo-remainders made
primitive), and by Gauss's lemma num and den divide by that primitive gcd
exactly in Z[mu] (Geddes, Czapor & Labahn, *Algorithms for Computer
Algebra*, 1992, ch. 2 and 7).

Most scalars of a model are zero, constant or a single term (n/d)*mu^k:
mu enters the transfer formulas only through its powers.  The operators
return early on trivial operands: a zero summand returns the other
operand (negated for ``0 - y``), a zero factor returns ``ZERO`` and a unit
factor or divisor the other operand, ``0 / y`` is ``ZERO`` and ``-0`` is
itself.  Each value records in ``_k`` the exponent k of a single term (0
for a constant), and None for zero and for more than one term; then
n = num[-1], d = den[-1], k = len(num) - len(den), and every other
coefficient is 0.  A product or quotient of two single terms, and a sum
or difference of two with the same exponent, takes one int gcd (none
over the denominator 1) on n and d and adds or subtracts the exponents,
so it never reaches the polynomial gcd.  Integer constants from -64 to 64
are shared from one table that holds ``ZERO`` and ``ONE``, and ints
coerce through it.  Single terms come from ``_term``, which caches its
last 4096 distinct (n, d, k): a model has a few dozen, so most
single-term results are values already built.  Other summands over one
denominator add their numerators without cross-multiplying, a constant
factor scales in one pass, and the constructor skips the polynomial gcd
when numerator or denominator is constant (the gcd is then a unit),
leaving the content and sign.  Each shortcut relies on one invariant: every stored value is
canonical, so the operand it returns is already the canonical result.
Single-term results, negations and powers are built by
``RationalFunction._of`` without the checks, so every pair given to it
must already be canonical and carry its exponent.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

from .errors import ScalarDomainError, ScalarParseError

Coeffs = tuple[int, ...]

_UNIT: Coeffs = (1,)


def _trim(cs) -> Coeffs:
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return tuple(cs[:n])


def _ratio(value) -> tuple[int, int]:
    """The int numerator and denominator of a rational value."""
    n, d = getattr(value, "numerator", None), getattr(value, "denominator", None)
    if isinstance(n, int) and isinstance(d, int):
        return n, d
    raise TypeError(f"{value!r} is not a rational number")


def _cleared(num, den) -> tuple[Coeffs, Coeffs]:
    """Integer coefficients for rational ones: both polynomials times the
    lcm of the coefficient denominators."""
    num, den = [_ratio(c) for c in num], [_ratio(c) for c in den]
    scale = math.lcm(*(d for _, d in num + den))
    return (tuple(n * (scale // d) for n, d in num),
            tuple(n * (scale // d) for n, d in den))


def _padd(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a: Coeffs) -> Coeffs:
    return tuple([-c for c in a])


def _pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    """The product of two nonzero polynomials; Z[mu] has no zero divisors,
    so the leading coefficient is nonzero and nothing is trimmed."""
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        k = b[0]
        return a if k == 1 else tuple([k * c for c in a])
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


def _ppow(a: Coeffs, e: int) -> Coeffs:
    """a^e for a nonzero polynomial and e >= 1, by square-and-multiply over
    the bits of e from the top."""
    out = a
    for bit in bin(e)[3:]:
        out = _pmul(out, out)
        if bit == "1":
            out = _pmul(out, a)
    return out


def _primitive(a: Coeffs) -> Coeffs:
    """a divided by its content, with a positive leading coefficient."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return a if g == 1 else tuple([c // g for c in a])


def _prem(a: Coeffs, b: Coeffs) -> list[int]:
    """A pseudo-remainder of a by b: a times a power of lc(b), minus a
    multiple of b, of lower degree than b."""
    r = list(a)
    lb, nb = b[-1], len(b)
    while len(r) >= nb:
        c = r.pop()
        shift = len(r) - nb + 1
        r = [lb * x for x in r]
        for i in range(nb - 1):
            r[shift + i] -= c * b[i]
        while r and not r[-1]:
            r.pop()
    return r


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    """The primitive gcd of two nonzero polynomials (positive leading
    coefficient), by a primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return b
        a, b = b, _primitive(tuple(r))
    return _UNIT


def _pexquo(a: Coeffs, b: Coeffs) -> Coeffs:
    """a / b for a primitive divisor b of a: the quotient lies in Z[mu] by
    Gauss's lemma, so each step's integer division is exact."""
    r = list(a)
    lb, nb = b[-1], len(b)
    q = [0] * (len(a) - nb + 1)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + nb - 1] // lb
        q[k] = c
        if c:
            for i in range(nb - 1):
                r[k + i] -= c * b[i]
    return tuple(q)


def _canonical_pair(num, den) -> tuple[Coeffs, Coeffs]:
    """The canonical pair of num/den for coefficient sequences of ints or
    rationals."""
    try:
        content = math.gcd(*num, *den)
    except TypeError:  # math.gcd takes ints only: rational input
        num, den = _cleared(num, den)
        content = math.gcd(*num, *den)
    if type(num) is not tuple or num and not num[-1]:
        num = _trim(num)
    if type(den) is not tuple or not den or not den[-1]:
        den = _trim(den)
    if not den:
        raise ScalarDomainError("zero denominator")
    if not num:
        return (), _UNIT
    # a constant part makes the gcd a unit, so only the content and the
    # sign are left
    if len(num) > 1 and len(den) > 1:
        g = _pgcd(num, den)
        if len(g) > 1:
            # g is primitive, so dividing by it keeps the content
            num = _pexquo(num, g)
            den = _pexquo(den, g)
    if den[-1] < 0:
        content = -content
    if content != 1:
        num = tuple([c // content for c in num])
        den = tuple([c // content for c in den])
    return num, den


class RationalFunction:
    """An element of Q(mu) in canonical form (see the module docstring).

    ``RationalFunction(num, den=(1,))`` takes sequences of int or rational
    coefficients, lowest degree first.  Two values are equal exactly when their stored
    coefficients are equal.
    """

    __slots__ = ("num", "den", "_k")

    def __init__(self, num, den=_UNIT):
        num, den = _canonical_pair(num, den)
        self.num: Coeffs = num
        self.den: Coeffs = den
        # the exponent k of a single term (n/d) mu^k, None for zero and for
        # every value of more than one term
        self._k = (len(num) - len(den) if num and not any(num[:-1])
                   and not any(den[:-1]) else None)

    @classmethod
    def _of(cls, num: Coeffs, den: Coeffs, k) -> "RationalFunction":
        """The value of a pair that is already canonical, with its exponent."""
        value = object.__new__(cls)
        value.num, value.den, value._k = num, den, k
        return value

    @classmethod
    def parse(cls, text: str) -> "RationalFunction":
        return _Parser(text).parse()

    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def terms(self) -> int:
        """The number of nonzero coefficients of num and den together."""
        return len(self.num) + len(self.den) - (self.num + self.den).count(0)

    # Each operator returns early on a trivial operand, then computes a
    # result whose operands are both single terms from their coefficients
    # and exponents when it is a single term itself.

    def __add__(self, other):
        if type(other) is not RationalFunction:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if not b:
            return self
        if not a:
            return other
        c, d = self.den, other.den
        k = self._k
        if k is not None and k == other._k:
            x, y = c[-1], d[-1]
            if x == y:
                return _term(a[-1] + b[-1], x, k)
            return _term(a[-1] * y + b[-1] * x, x * y, k)
        if c == d:
            return RationalFunction(_padd(a, b), c)
        return RationalFunction(_padd(_pmul(a, d), _pmul(b, c)), _pmul(c, d))

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not RationalFunction:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if not b:
            return self
        if not a:
            return -other
        c, d = self.den, other.den
        k = self._k
        if k is not None and k == other._k:
            x, y = c[-1], d[-1]
            if x == y:
                return _term(a[-1] - b[-1], x, k)
            return _term(a[-1] * y - b[-1] * x, x * y, k)
        if c == d:
            return RationalFunction(_padd(a, _pneg(b)), c)
        return RationalFunction(_padd(_pmul(a, d), _pneg(_pmul(b, c))), _pmul(c, d))

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not RationalFunction:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        c, d = self.den, other.den
        # the canonical one is the only value with num == den
        if b == d:
            return self
        if a == c:
            return other
        if not a or not b:
            return ZERO
        k, j = self._k, other._k
        if k is not None and j is not None:
            return _term(a[-1] * b[-1], c[-1] * d[-1], k + j)
        return RationalFunction(_pmul(a, b), _pmul(c, d))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not RationalFunction:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if not b:
            raise ScalarDomainError("division by zero")
        if not a:
            return ZERO
        c, d = self.den, other.den
        if b == d:
            return self
        k, j = self._k, other._k
        if k is not None and j is not None:
            return _term(a[-1] * d[-1], c[-1] * b[-1], k - j)
        return RationalFunction(_pmul(a, d), _pmul(c, b))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        a, c, k = self.num, self.den, self._k
        if k is not None:
            return _term(-a[-1], c[-1], k)
        if not a:
            return self
        return RationalFunction._of(_pneg(a), c, None)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        a, c, k = self.num, self.den, self._k
        if exponent < 0:
            if not a:
                raise ScalarDomainError("zero raised to a negative power")
            # 1/x swaps num and den; the new denominator's sign moves up
            a, c = (_pneg(c), _pneg(a)) if a[-1] < 0 else (c, a)
            k = None if k is None else -k
            exponent = -exponent
        if not exponent:
            return ONE
        if k is not None:
            return _term(a[-1] ** exponent, c[-1] ** exponent, k * exponent)
        if not a:
            return ZERO
        # (p/q)^e of a canonical p/q is canonical: by Gauss's lemma p^e and
        # q^e stay coprime with joint content 1, and lc(q)^e > 0
        return RationalFunction._of(_ppow(a, exponent), _ppow(c, exponent), None)

    def __eq__(self, other):
        if type(other) is not RationalFunction:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        ns = _format_poly(self.num)
        if self.den == _UNIT:
            return ns
        ds = _format_poly(self.den)
        if sum(1 for c in self.num if c) > 1:
            ns = f"({ns})"
        if len(self.den) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RationalFunction({self!s})"


def _coerce(value):
    """A rational value that is not a RationalFunction (every caller has
    excluded that type) as one, or NotImplemented."""
    try:
        return _term(*_ratio(value), 0)
    except TypeError:
        return NotImplemented


# Constants that are small integers are shared, not rebuilt: the table
# holds -SMALL_INT, ..., SMALL_INT, with ZERO and ONE among them.
SMALL_INT = 64


@lru_cache(maxsize=4096)
def _term(n: int, d: int, k: int) -> RationalFunction:
    """The single term (n/d) mu^k for ints n and d != 0: one gcd, none over
    the denominator 1, and a sign fix; built once per argument triple."""
    if d != 1:
        g = math.gcd(n, d)
        if d < 0:
            g = -g
        n, d = n // g, d // g
    if k and n:
        if k > 0:
            return RationalFunction._of((0,) * k + (n,), (d,), k)
        return RationalFunction._of((n,), (0,) * -k + (d,), k)
    if d == 1 and -SMALL_INT <= n <= SMALL_INT:
        return _INTS[n + SMALL_INT]
    return RationalFunction._of((n,), (d,), 0)


def _format_poly(ci: Coeffs) -> str:
    if not ci:
        return "0"
    parts = []
    for k in range(len(ci) - 1, -1, -1):
        c = ci[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        elif k == 1:
            body = "mu" if mag == 1 else f"{mag}*mu"
        else:
            body = f"mu^{k}" if mag == 1 else f"{mag}*mu^{k}"
        parts.append(("-" if c < 0 else "+", body))
    sign0, body0 = parts[0]
    out = ("-" + body0) if sign0 == "-" else body0
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _tokenize(text: str):
    i = 0
    out = []
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            try:
                value = int(text[i:j])
            except ValueError:  # past the interpreter's int digit limit
                raise ScalarParseError(
                    f"a number of {j - i} digits is too long", i) from None
            out.append(("num", value, i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        if ch in "+-*/^()":
            out.append((ch, ch, i))
            i += 1
            continue
        raise ScalarParseError(f"unexpected character {ch!r}", i)
    out.append(("end", "", len(text)))
    return out


# A coefficient of at most this many bits has fewer than 640 digits, the
# lowest int digit limit the interpreter accepts, so it always prints.
PRINTABLE_BITS = 2100

# Parentheses and signs nest at most this deep, which keeps the recursive
# descent well inside the interpreter's recursion limit.
MAX_NESTING = 100

# A power, a product and a sum that cross-multiplies have at most this
# degree in mu, which bounds the time and memory their evaluation takes.
MAX_POWER_DEGREE = 1000

# A result that needs the polynomial gcd has at most this degree, and at
# most this degree times coefficient bits: the remainder sequence takes
# time that grows with both.
MAX_GCD_DEGREE = 60
MAX_GCD_SIZE = 4096

# The products and powers of multi-term values in one entry have at most
# this degree times coefficient bits in sum: schoolbook multiplication
# takes time that grows with both.  (mu+1)^1000 is 1,000,000 and
# (2^4*mu+1)^1000 5,000,000.
MAX_PRODUCT_SIZE = 2_000_000


_OPERATION_NAMES = {"*": "product", "/": "quotient", "+": "sum", "-": "difference"}


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := ('+'|'-') unary | power
    power := atom ('^' ['-'] integer)?
    atom  := integer | 'mu' | '(' expr ')'

    Each rule takes the nesting depth: the parentheses and signs around it.
    The products and powers of multi-term values share one allowance of
    MAX_PRODUCT_SIZE, so an entry's work is bounded, not each operation's.

    A product or quotient whose right operand is a power is the pending
    operation of that power: its degree is checked before the power is
    built.  A parenthesized right operand is not predicted, since the sum
    inside it can cancel its leading power: mu^500*((mu+1)^600-(mu+1)^600+1)
    is of degree 500.  The work such an operand costs before the product
    is checked is bounded by the allowance of MAX_PRODUCT_SIZE.
    """

    def __init__(self, text: str):
        self._tokens = _tokenize(text)
        self._k = 0
        self._spent = 0  # degree times bits of the products and powers so far

    def _peek(self):
        return self._tokens[self._k]

    def _next(self):
        tok = self._tokens[self._k]
        self._k += 1
        return tok

    def parse(self) -> RationalFunction:
        value = self._expr(0)
        kind, _, pos = self._peek()
        if kind != "end":
            raise ScalarParseError("unexpected trailing input", pos)
        if any(c.bit_length() > PRINTABLE_BITS for c in value.num + value.den):
            try:
                str(value)
            except ValueError:  # past the interpreter's int digit limit
                raise ScalarParseError(
                    "the value has a coefficient too long to print", 0) from None
        return value

    def _expr(self, depth: int) -> RationalFunction:
        value = self._term(depth)
        while self._peek()[0] in ("+", "-"):
            op, _, pos = self._next()
            rhs = self._term(depth)
            self._check_operation(op, value, rhs, pos)
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self, depth: int) -> RationalFunction:
        value = self._unary(depth)
        while self._peek()[0] in ("*", "/"):
            op, _, pos = self._next()
            rhs = self._unary(depth, (op, value, pos))
            if op == "/" and rhs.is_zero():
                raise ScalarParseError("division by the zero polynomial", pos)
            self._check_operation(op, value, rhs, pos)
            value = value * rhs if op == "*" else value / rhs
        return value

    def _unary(self, depth: int, pending=None) -> RationalFunction:
        """pending is the (op, left operand, position) of the product or
        quotient this value is the right operand of, or None."""
        kind = self._peek()[0]
        if kind == "-":
            return -self._unary(_deeper(depth, self._next()[2]), pending)
        if kind == "+":
            return self._unary(_deeper(depth, self._next()[2]), pending)
        return self._power(depth, pending)

    def _power(self, depth: int, pending=None) -> RationalFunction:
        base = self._atom(depth)
        if self._peek()[0] != "^":
            return base
        self._next()
        sign = 1
        if self._peek()[0] == "-":
            self._next()
            sign = -1
        kind, value, pos = self._next()
        if kind != "num":
            raise ScalarParseError("expected an integer exponent", pos)
        exponent = sign * value
        if exponent < 0 and base.is_zero():
            raise ScalarParseError("zero raised to a negative power", pos)
        self._check_power(base, exponent, pos, pending)
        return base ** exponent

    def _atom(self, depth: int) -> RationalFunction:
        kind, value, pos = self._next()
        if kind == "num":
            return _term(value, 1, 0)
        if kind == "name":
            if value == "mu":
                return MU
            raise ScalarParseError(f"unknown symbol {value!r}", pos)
        if kind == "(":
            inner = self._expr(_deeper(depth, pos))
            kind2, _, pos2 = self._next()
            if kind2 != ")":
                raise ScalarParseError("expected ')'", pos2)
            return inner
        raise ScalarParseError("expected a number, 'mu', or '('", pos)

    def _check_power(self, base: RationalFunction, signed: int, pos: int,
                     pending) -> None:
        """Reject base^signed before computing it when its degree is over
        MAX_POWER_DEGREE, a multi-term base takes the entry over
        MAX_PRODUCT_SIZE, a coefficient of it has more digits than ``str``
        prints, or the pending product or quotient it is the right operand
        of has a degree over MAX_POWER_DEGREE.  The power raises the leading
        and trailing coefficients of num and den exactly to the exponent, so
        each of them gives a lower bound."""
        exponent = abs(signed)
        degree = exponent * (max(len(base.num), len(base.den)) - 1)
        if degree > MAX_POWER_DEGREE:
            raise ScalarParseError(
                f"a power of degree {degree} is over the bound of {MAX_POWER_DEGREE}", pos)
        if base.num and base._k is None:
            bits = exponent * max(abs(c).bit_length() for c in base.num + base.den)
            self._spend("power", degree, bits, pos)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        ends = (base.num[0], base.num[-1], base.den[0], base.den[-1]) if base.num else (0,)
        bits = exponent * (max(abs(c).bit_length() for c in ends) - 1)
        # 2^bits has more than bits * 0.30102 decimal digits
        if limit and bits * 30102 // 100000 >= limit:
            raise ScalarParseError(
                "the value has a coefficient too long to print", 0)
        if pending and pending[1].num and base.num:
            op, a, at = pending
            parts = (base.num, base.den) if signed > 0 else (base.den, base.num)
            _formed_degree(op, False, a, *(exponent * (len(cs) - 1) for cs in parts), at)

    def _check_operation(self, op: str, a: RationalFunction, b: RationalFunction,
                         pos: int) -> None:
        """Reject a op b before computing it when the numerator or
        denominator it forms is of degree over MAX_POWER_DEGREE, or when both
        are of degree 1 or more, so that the constructor takes their gcd, and
        over MAX_GCD_DEGREE or MAX_GCD_SIZE, or when it multiplies two
        multi-term values and takes the entry over MAX_PRODUCT_SIZE.  Two
        single terms never take the gcd."""
        if not (a.num and b.num):
            return
        same_den = op in "+-" and a.den == b.den
        num, den = _formed_degree(op, same_den, a, len(b.num) - 1, len(b.den) - 1, pos)
        parts = (a.num, a.den) + ((b.den, b.num) if op == "/" else (b.num, b.den))
        name = _OPERATION_NAMES[op]
        degree = max(num, den)
        product = op in "*/" and a._k is None and b._k is None
        gcd = num and den and not (a._k is not None and b._k is not None
                                   and (op in "*/" or a._k == b._k))
        if not (product or gcd):
            return
        if gcd and degree > MAX_GCD_DEGREE:
            raise ScalarParseError(
                f"a {name} of degree {degree} to reduce by the polynomial gcd is over "
                f"the bound of {MAX_GCD_DEGREE}", pos)
        bits = max(_formed(op, same_den, 1, *(
            max(abs(c).bit_length() for c in cs) for cs in parts)))
        if gcd and degree * bits > MAX_GCD_SIZE:
            raise ScalarParseError(
                f"a {name} of degree {degree} with {bits}-bit coefficients to reduce by "
                f"the polynomial gcd is over the bound of {MAX_GCD_SIZE} on degree "
                f"times bits", pos)
        if product:
            self._spend(name, degree, bits, pos)

    def _spend(self, name: str, degree: int, bits: int, pos: int) -> None:
        """Reject a product or power of multi-term values whose degree times
        coefficient bits takes the entry's sum over MAX_PRODUCT_SIZE."""
        self._spent += degree * bits
        if self._spent > MAX_PRODUCT_SIZE:
            over = "is over" if degree * bits > MAX_PRODUCT_SIZE else "takes the entry over"
            raise ScalarParseError(
                f"a {name} of degree {degree} with {bits}-bit coefficients {over} the "
                f"bound of {MAX_PRODUCT_SIZE} on degree times bits", pos)


def _formed(op: str, same_den: bool, carry: int, an: int, ad: int, bn: int,
            bd: int) -> tuple[int, int]:
    """The degrees (carry 0) or coefficient bit lengths (carry 1) of the
    numerator and denominator that a op b forms, from those of its parts
    (b's swapped for a quotient): a product adds them, a sum takes the
    larger plus carry.  Cancellation can only lower the degrees; the bit
    lengths leave out the few bits that a sum of many products carries."""
    if op in "*/":
        return an + bn, ad + bd
    if same_den:
        return max(an, bn) + carry, bd
    return max(an + bd, bn + ad) + carry, ad + bd


def _formed_degree(op: str, same_den: bool, a: RationalFunction, bn: int, bd: int,
                   pos: int) -> tuple[int, int]:
    """The degrees of the numerator and denominator that a op b forms, from
    the degrees bn and bd of b's; raises when one is over MAX_POWER_DEGREE."""
    if op == "/":
        bn, bd = bd, bn
    num, den = _formed(op, same_den, 0, len(a.num) - 1, len(a.den) - 1, bn, bd)
    if max(num, den) > MAX_POWER_DEGREE:
        raise ScalarParseError(f"a {_OPERATION_NAMES[op]} of degree {max(num, den)} "
                               f"is over the bound of {MAX_POWER_DEGREE}", pos)
    return num, den


def _deeper(depth: int, pos: int) -> int:
    """The depth inside one more parenthesis or sign, opened at pos."""
    if depth == MAX_NESTING:
        raise ScalarParseError(
            f"parentheses and signs nested more than {MAX_NESTING} deep", pos)
    return depth + 1


def rf(value) -> RationalFunction:
    """Coerce a rational number, str, or RationalFunction into the field."""
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, str):
        return RationalFunction.parse(value)
    return _term(*_ratio(value), 0)


_INTS = tuple(RationalFunction((k,)) for k in range(-SMALL_INT, SMALL_INT + 1))
ZERO = _INTS[SMALL_INT]
ONE = _INTS[SMALL_INT + 1]
MU = RationalFunction((0, 1))
HALF = RationalFunction((1,), (2,))
