"""Exact scalars: rational functions of one formal parameter ``mu``.

Every tensor component in this package lives in the field Q(mu).  A value is
stored as a pair of coprime polynomials with a monic denominator, so equality
and zero tests are exact decisions.  The parameter is treated as a constant
with respect to differentiation: directional derivatives of scalars along
invariant frames vanish identically.

Most scalars of a model are zero or constant, so the operators return early
on trivial operands: a zero summand returns the other operand (negated for
``0 - y``), a zero factor returns ``ZERO`` and a unit factor or divisor the
other operand, ``0 / y`` is ``ZERO`` and ``-0`` is itself; the ints 0 and 1
coerce to ``ZERO`` and ``ONE``.  Two polynomials add and subtract without
cross-multiplying, and the constructor skips the polynomial gcd when
numerator or denominator is constant (the gcd is then a unit) and does not
re-coerce coefficients that are already ``Fraction``s.  Each shortcut
relies on one invariant: every stored value is canonical, so the operand it
returns is already the canonical result, and equality stays a comparison of
coefficients.  Every new value is still built by the constructor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import ScalarDomainError, ScalarParseError

Coeffs = tuple[Fraction, ...]

_F0 = Fraction(0)
_F1 = Fraction(1)


def _fraction(c) -> Fraction:
    return c if type(c) is Fraction else Fraction(c)


def _trim(cs) -> Coeffs:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _padd(a: Coeffs, b: Coeffs) -> Coeffs:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _pneg(a: Coeffs) -> Coeffs:
    return tuple(-c for c in a)


def _pmul(a: Coeffs, b: Coeffs) -> Coeffs:
    if not a or not b:
        return ()
    out = [_F0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _trim(out)


def _pscale(a: Coeffs, k: Fraction) -> Coeffs:
    if k == 0:
        return ()
    return tuple(c * k for c in a)


def _pdivmod(a: Coeffs, b: Coeffs) -> tuple[Coeffs, Coeffs]:
    if not b:
        raise ScalarDomainError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    q = [_F0] * (len(a) - len(b) + 1)
    r = list(a)
    inv_lead = 1 / b[-1]
    for k in range(len(a) - len(b), -1, -1):
        c = r[k + len(b) - 1] * inv_lead
        if c:
            q[k] = c
            for i, cb in enumerate(b):
                r[k + i] -= c * cb
    return _trim(q), _trim(r)


def _pgcd(a: Coeffs, b: Coeffs) -> Coeffs:
    while b:
        a, b = b, _pdivmod(a, b)[1]
    if not a:
        return ()
    return _pscale(a, 1 / a[-1])


def _peval(a: Coeffs, x: Fraction) -> Fraction:
    out = _F0
    for c in reversed(a):
        out = out * x + c
    return out


Scalarish = Union["RationalFunction", int, Fraction]


class RationalFunction:
    """An element of Q(mu) in canonical form.

    Canonical means: numerator and denominator share no polynomial factor,
    the denominator is monic, and the zero value is stored as 0/1.  Two
    values are equal exactly when their stored coefficients are equal.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=(_F1,)):
        num = _trim(tuple(_fraction(c) for c in num))
        den = _trim(tuple(_fraction(c) for c in den))
        if not den:
            raise ScalarDomainError("zero denominator")
        if not num:
            den = (_F1,)
        else:
            # a constant part makes the gcd a unit, so only the monic
            # normalization is left
            if len(num) > 1 and len(den) > 1:
                g = _pgcd(num, den)
                if len(g) > 1:
                    num = _pdivmod(num, g)[0]
                    den = _pdivmod(den, g)[0]
            lead = den[-1]
            if lead != 1:
                inv = 1 / lead
                num = _pscale(num, inv)
                den = _pscale(den, inv)
        self.num: Coeffs = num
        self.den: Coeffs = den
        self._hash = None

    @classmethod
    def from_fraction(cls, value) -> "RationalFunction":
        return cls((Fraction(value),))

    from_int = from_fraction

    @classmethod
    def mu(cls) -> "RationalFunction":
        return cls((_F0, _F1))

    @classmethod
    def parse(cls, text: str) -> "RationalFunction":
        return _Parser(text).parse()

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == (_F1,) and self.den == (_F1,)

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ScalarDomainError(f"{self} is not constant in mu")
        return self.num[0] if self.num else _F0

    def eval_at(self, value) -> Fraction:
        x = Fraction(value)
        d = _peval(self.den, x)
        if d == 0:
            raise ScalarDomainError(f"evaluation of {self} at a pole mu={x}")
        return _peval(self.num, x) / d

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        if len(self.den) == 1 and len(other.den) == 1:
            return RationalFunction(_padd(self.num, other.num))
        return RationalFunction(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return -other
        if len(self.den) == 1 and len(other.den) == 1:
            return RationalFunction(_padd(self.num, _pneg(other.num)))
        return RationalFunction(
            _padd(_pmul(self.num, other.den), _pneg(_pmul(other.num, self.den))),
            _pmul(self.den, other.den),
        )

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_one():
            return self
        if self.is_one():
            return other
        if not self.num or not other.num:
            return ZERO
        return RationalFunction(_pmul(self.num, other.num), _pmul(self.den, other.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ScalarDomainError("division by zero")
        if not self.num:
            return ZERO
        if other.is_one():
            return self
        return RationalFunction(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        if not self.num:
            return self
        return RationalFunction(_pneg(self.num), self.den)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            if self.is_zero():
                raise ScalarDomainError("zero raised to a negative power")
            base = RationalFunction(self.den, self.num)
            exponent = -exponent
        else:
            base = self
        out = ONE
        for _ in range(exponent):
            out = out * base
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        ni, di = _int_normalized(self.num, self.den)
        ns = _format_poly(ni)
        if di == (1,):
            return ns
        ds = _format_poly(di)
        if sum(1 for c in ni if c) > 1:
            ns = f"({ns})"
        if len(di) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self):
        return f"RationalFunction({self!s})"


def _coerce(value):
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, (int, Fraction)):
        if value == 0:
            return ZERO
        if value == 1:
            return ONE
        return RationalFunction((Fraction(value),))
    return NotImplemented


def _int_normalized(num: Coeffs, den: Coeffs) -> tuple[tuple[int, ...], tuple[int, ...]]:
    scale = 1
    for c in num + den:
        scale = scale * c.denominator // math.gcd(scale, c.denominator)
    ni = [int(c * scale) for c in num]
    di = [int(c * scale) for c in den]
    content = 0
    for v in ni + di:
        content = math.gcd(content, abs(v))
    content = content or 1
    return tuple(v // content for v in ni), tuple(v // content for v in di)


def _format_poly(ci: tuple[int, ...]) -> str:
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
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(("num", int(text[i:j]), i))
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


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := ('+'|'-') unary | power
    power := atom ('^' ['-'] integer)?
    atom  := integer | 'mu' | '(' expr ')'
    """

    def __init__(self, text: str):
        self._tokens = _tokenize(text)
        self._k = 0

    def _peek(self):
        return self._tokens[self._k]

    def _next(self):
        tok = self._tokens[self._k]
        self._k += 1
        return tok

    def parse(self) -> RationalFunction:
        value = self._expr()
        kind, _, pos = self._peek()
        if kind != "end":
            raise ScalarParseError("unexpected trailing input", pos)
        return value

    def _expr(self) -> RationalFunction:
        value = self._term()
        while self._peek()[0] in ("+", "-"):
            op = self._next()[0]
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self) -> RationalFunction:
        value = self._unary()
        while self._peek()[0] in ("*", "/"):
            op, _, pos = self._next()
            rhs = self._unary()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise ScalarParseError("division by the zero polynomial", pos)
                value = value / rhs
        return value

    def _unary(self) -> RationalFunction:
        kind = self._peek()[0]
        if kind == "-":
            self._next()
            return -self._unary()
        if kind == "+":
            self._next()
            return self._unary()
        return self._power()

    def _power(self) -> RationalFunction:
        base = self._atom()
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
        return base ** exponent

    def _atom(self) -> RationalFunction:
        kind, value, pos = self._next()
        if kind == "num":
            return RationalFunction.from_int(value)
        if kind == "name":
            if value == "mu":
                return MU
            raise ScalarParseError(f"unknown symbol {value!r}", pos)
        if kind == "(":
            inner = self._expr()
            kind2, _, pos2 = self._next()
            if kind2 != ")":
                raise ScalarParseError("expected ')'", pos2)
            return inner
        raise ScalarParseError("expected a number, 'mu', or '('", pos)


def rf(value) -> RationalFunction:
    """Coerce an int, Fraction, str, or RationalFunction into the field."""
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, str):
        return RationalFunction.parse(value)
    if isinstance(value, (int, Fraction)):
        return RationalFunction.from_fraction(value)
    raise TypeError(f"cannot coerce {value!r} into a scalar")


ZERO = RationalFunction(())
ONE = RationalFunction((_F1,))
MU = RationalFunction((_F0, _F1))
HALF = RationalFunction((Fraction(1, 2),))
