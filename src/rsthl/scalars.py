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

``RationalFunction.parse`` and ``rf`` read the grammar of ``_Parser``,
which charges a ``SizeBudget`` for each value before building it.  A model
load charges one budget for all its entries, so one constant bounds both
the parse and the degrees and bits that every later step works on.
"""

from __future__ import annotations

import math
import operator
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
    def parse(cls, text: str, budget: SizeBudget | None = None) -> "RationalFunction":
        """text's value, charged to budget (by default a new one)."""
        return _Parser(text, SizeBudget() if budget is None else budget).parse()

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

# One model load spends at most this much size (see SizeBudget): each
# model shape calibrated in README, "Model files", checks in under 2 s at
# this bound on a 2-core x86-64 VM.
MAX_MODEL_SIZE = 50_000


def _bits(cs) -> int:
    """1 + ceil(log2 |c|) for the widest c of cs, not all zero: a unit has 1
    bit, and a product at most its factors' bits added, less one."""
    return (max(map(abs, cs)) - 1).bit_length() + 1


class SizeBudget:
    """The size one model load has spent, one per ``model_from_json_obj``
    or budgetless ``RationalFunction.parse``.  A value's size is its degree,
    numerator's and denominator's added, plus one, times the bits of its
    widest coefficient; ``charge`` raises past MAX_MODEL_SIZE."""

    __slots__ = ("spent",)

    def __init__(self):
        self.spent = 0

    def charge(self, what: str, num: int, den: int, bits: int, pos: int,
               steps: int = 1) -> None:
        """Charge a value of degrees num and den and bits bits, times steps."""
        size = (num + den + 1) * bits * steps
        self.spent += size
        if self.spent > MAX_MODEL_SIZE:
            raise ScalarParseError(
                f"{what} of degree {max(num, den)} with {bits}-bit coefficients, of "
                f"size {size}, takes the model over its size budget of "
                f"{MAX_MODEL_SIZE}", pos)


_OPERATIONS = {"*": ("a product", operator.mul), "/": ("a quotient", operator.truediv),
               "+": ("a sum", operator.add), "-": ("a difference", operator.sub)}


class _Parser:
    """Recursive-descent parser for the expression grammar.

    expr  := term (('+'|'-') term)*
    term  := unary (('*'|'/') unary)*
    unary := ('+'|'-') unary | power
    power := atom ('^' ['-'] integer)?
    atom  := integer | 'mu' | '(' expr ')'

    Each rule takes the nesting depth: the parentheses and signs around it.
    A sum of single terms (n/d) mu^k stays sparse, a dict from k to n/d,
    until it meets another value or is the parsed one.  Each value is
    charged before it is built: a sparse sum built as a RationalFunction
    its size, so a polynomial written out term by term costs its size once;
    a power of a single term, or a sum of two of one exponent, its bits; a
    product or quotient of two the bits of the narrower (the wider was
    charged when built); any other power or operation its size predicted
    from its operands', times its higher degree when the constructor takes
    the gcd, since the remainder sequence takes up to twice that many steps.
    """

    def __init__(self, text: str, budget: SizeBudget):
        self._tokens = _tokenize(text)
        self._k = 0
        self._budget = budget

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
        value = self._dense(value, 0)
        if any(c.bit_length() > PRINTABLE_BITS for c in value.num + value.den):
            try:
                str(value)
            except ValueError:  # past the interpreter's int digit limit
                raise ScalarParseError(
                    "the value has a coefficient too long to print", 0) from None
        return value

    def _expr(self, depth: int):
        value = self._term(depth)
        while self._peek()[0] in ("+", "-"):
            op, _, pos = self._next()
            value = self._apply(op, value, self._term(depth), pos)
        return value

    def _term(self, depth: int):
        value = self._unary(depth)
        while self._peek()[0] in ("*", "/"):
            op, _, pos = self._next()
            rhs = self._unary(depth)
            if op == "/" and not rhs:
                raise ScalarParseError("division by the zero polynomial", pos)
            value = self._apply(op, value, rhs, pos)
        return value

    def _unary(self, depth: int):
        kind = self._peek()[0]
        if kind == "-":
            value = self._unary(_deeper(depth, self._next()[2]))
            return {k: -c for k, c in value.items()} if type(value) is dict else -value
        if kind == "+":
            return self._unary(_deeper(depth, self._next()[2]))
        return self._power(depth)

    def _power(self, depth: int):
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
        if not base:
            if exponent < 0:
                raise ScalarParseError("zero raised to a negative power", pos)
            return ZERO ** exponent
        if type(base) is dict and len(base) == 1:
            (k, c), = base.items()
            self._budget.charge("a power", 0, 0, value * (_bits(c.num + c.den) - 1) + 1,
                                pos)
            return {k * exponent: c ** exponent}
        base = self._dense(base, pos)
        # p^e's coefficients are at most the e-th power of p's magnitudes' sum
        self._budget.charge("a power", value * (len(base.num) - 1),
                            value * (len(base.den) - 1),
                            value * max((sum(map(abs, cs)) - 1).bit_length()
                                        for cs in (base.num, base.den)) + 1, pos)
        return base ** exponent

    def _atom(self, depth: int):
        kind, value, pos = self._next()
        if kind == "num":
            return {0: _term(value, 1, 0)} if value else {}
        if kind == "name":
            if value == "mu":
                return {1: ONE}
            raise ScalarParseError(f"unknown symbol {value!r}", pos)
        if kind == "(":
            inner = self._expr(_deeper(depth, pos))
            kind2, _, pos2 = self._next()
            if kind2 != ")":
                raise ScalarParseError("expected ')'", pos2)
            return inner
        raise ScalarParseError("expected a number, 'mu', or '('", pos)

    def _apply(self, op: str, a, b, pos: int):
        """a op b, sparse when both are and it is a sum (added into a, which
        is this parser's own) or a product or quotient by a single term."""
        name, operation = _OPERATIONS[op]
        if type(a) is dict and type(b) is dict:
            if op in "+-":
                for k, c in b.items():
                    c = -c if op == "-" else c
                    if k in a:
                        self._budget.charge(name, 0, 0, _bits(c.num + c.den)
                                            + _bits(a[k].num + a[k].den), pos)
                        c += a.pop(k)
                    if c:
                        a[k] = c
                return a
            if op == "*" and len(a) == 1:
                a, b = b, a
            if len(b) == 1:
                (j, d), = b.items()
                width = _bits(d.num + d.den)
                for k, c in a.items():
                    self._budget.charge(name, 0, 0, min(_bits(c.num + c.den), width), pos)
                return {k + j if op == "*" else k - j: operation(c, d) for k, c in a.items()}
        a, b = self._dense(a, pos), self._dense(b, pos)
        if a.num and b.num:  # the constructor takes the gcd if num and den are not constant
            same_den = op in "+-" and a.den == b.den
            parts = (a.num, a.den) + ((b.den, b.num) if op == "/" else (b.num, b.den))
            num, den = _formed(op, same_den, 0, *(len(cs) - 1 for cs in parts))
            self._budget.charge(name, num, den,
                                max(_formed(op, same_den, 1, *map(_bits, parts))), pos,
                                max(num, den) if num and den else 1)
        return operation(a, b)

    def _dense(self, value, pos: int) -> RationalFunction:
        """value as a RationalFunction, charged its size if it is sparse."""
        if type(value) is not dict or not value:
            return value or ZERO
        if len(value) == 1:
            (k, c), = value.items()
            self._budget.charge("a term", abs(k), 0, _bits(c.num + c.den), pos)
            return _term(c.num[0], c.den[0], k) if k else c
        shift = max(-min(value), 0)
        scale = math.lcm(*(c.den[0] for c in value.values()))
        ints = {k + shift: c.num[0] * (scale // c.den[0]) for k, c in value.items()}
        num = max(ints)
        # a den of mu^shift makes the constructor take the gcd
        self._budget.charge("a sum", num, shift, _bits((*ints.values(), scale)), pos,
                            max(num, shift) if shift else 1)
        return RationalFunction([ints.get(k, 0) for k in range(num + 1)],
                                (0,) * shift + (scale,))


def _formed(op: str, same_den: bool, one: int, an: int, ad: int, bn: int,
            bd: int) -> tuple[int, int]:
    """The degrees (one = 0) or bits (one = 1) of the num and den that a op
    b forms, from its parts' (b's swapped for a quotient).  Cancellation
    only lowers them; the bits leave out a sum of products' few carries."""
    if op in "*/":
        return an + bn - one, ad + bd - one
    if same_den:
        return max(an, bn) + one, bd
    return max(an + bd, bn + ad), ad + bd - one


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
