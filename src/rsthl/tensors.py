"""Frame-indexed multilinear algebra over the exact scalar field.

Tensors are stored as explicit component tables against a fixed labeled
frame (dimension at most five here), so every operation reduces to field
arithmetic on finitely many entries.  There is one table type,
``MultilinearForm``: flat and row-major, of any arity k >= 1.  A
scalar-valued tensor reads every slot as a lower index.  A vector-valued
tensor reads its last slot as the upper index, so entry(i1, ..., l) is
the e_l coefficient of its value at (e_i1, ...): a one-form has arity 1,
an operator X -> A X arity 2 with entry(j, l) the e_l coefficient of
A e_j, the brackets [e_i, e_j] and a connection nabla_{e_i} e_j arity 3,
and a curvature R(e_i, e_j) e_k arity 4.

Every curvature closed form is a sum of curvature products
P(a, b)(i, j, k, l) = b(j, k) a(i, l) - b(i, k) a(j, l) of two arity-2
tables (``curvature_product``): with an operator a it is the tensor
(X, Y, Z) -> b(Y, Z) aX - b(X, Z) aY, with a bilinear form a the same
tensor lowered.  ``outer`` builds the rank-one tables u (x) v such
products often take, for example the operator X -> eta(X) xi.

Identities are decided on whole tables.  ``permute`` reorders the slots
of a table, so a symmetry T(X, Y) = T(Y, X) reads
``t == t.permute((1, 0))`` and the first Bianchi sum is the curvature
table plus two cyclic permutations of it; ``skew`` subtracts the swap of
the first two slots and ``at`` fixes the first slot at a frame vector.

The linear solvers use fraction-free (Bareiss-style) elimination: each
update is a two-term cross-multiplication divided by the previous pivot,
which keeps intermediate entries small and every division exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Iterable, Optional, Sequence

from .errors import (
    DegenerateMetric,
    InconsistentSystem,
    ScalarDomainError,
    UnderdeterminedSystem,
)
from .scalars import ONE, ZERO, RationalFunction, rf


@dataclass(frozen=True)
class Frame:
    """An ordered tuple of distinct basis labels."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if not self.labels:
            raise ValueError("a frame needs at least one label")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate frame labels: {self.labels}")

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no frame label {label!r}") from None

    def basis_vector(self, i: int) -> "Vector":
        comps = [ZERO] * self.dimension
        comps[i] = ONE
        return Vector(self, tuple(comps))


@dataclass(frozen=True)
class Vector:
    frame: Frame
    components: tuple[RationalFunction, ...]

    def __post_init__(self):
        if len(self.components) != self.frame.dimension:
            raise ValueError("component count does not match the frame")

    @classmethod
    def from_map(cls, frame: Frame, entries: dict) -> "Vector":
        comps = [ZERO] * frame.dimension
        for label, value in entries.items():
            comps[frame.index(label)] = rf(value)
        return cls(frame, tuple(comps))

    @classmethod
    def zero(cls, frame: Frame) -> "Vector":
        return cls(frame, (ZERO,) * frame.dimension)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def scale(self, s) -> "Vector":
        s = rf(s)
        return Vector(self.frame, tuple(s * c for c in self.components))

    def __add__(self, other: "Vector") -> "Vector":
        _same_frame(self, other)
        return Vector(
            self.frame,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "Vector") -> "Vector":
        _same_frame(self, other)
        return Vector(
            self.frame,
            tuple(a - b for a, b in zip(self.components, other.components)),
        )

    def __neg__(self) -> "Vector":
        return Vector(self.frame, tuple(-c for c in self.components))

    def __str__(self):
        parts = [
            f"{c}*{label}"
            for c, label in zip(self.components, self.frame.labels)
            if not c.is_zero()
        ]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class MultilinearForm:
    """A tensor of arity k >= 1 as a flat component table.

    Components are stored row-major: entry(i1, ..., ik) sits at the flat
    offset ((i1*d + i2)*d + ...) for frame dimension d.  See the module
    docstring for how a vector-valued tensor reads its last slot.
    """

    frame: Frame
    arity: int
    entries: tuple[RationalFunction, ...]

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("a table needs at least one slot")
        if len(self.entries) != self.frame.dimension ** self.arity:
            raise ValueError("entry count does not match frame and arity")

    @classmethod
    def from_function(
        cls, frame: Frame, arity: int, fn: Callable[..., RationalFunction]
    ) -> "MultilinearForm":
        return cls(frame, arity, tuple(
            fn(*idx) for idx in product(range(frame.dimension), repeat=arity)))

    @classmethod
    def from_cells(
        cls, frame: Frame, arity: int, fn: Callable[..., Vector]
    ) -> "MultilinearForm":
        """The vector-valued table whose cell at (i1, ..., i(k-1)) is
        fn(i1, ..., i(k-1))."""
        flat = []
        for idx in product(range(frame.dimension), repeat=arity - 1):
            v = fn(*idx)
            if v.frame != frame:
                raise ValueError("objects live on different frames")
            flat.extend(v.components)
        return cls(frame, arity, tuple(flat))

    @classmethod
    def zero(cls, frame: Frame, arity: int) -> "MultilinearForm":
        return cls(frame, arity, (ZERO,) * frame.dimension ** arity)

    @classmethod
    def identity(cls, frame: Frame) -> "MultilinearForm":
        """The identity operator."""
        return cls.from_function(frame, 2, lambda i, j: ONE if i == j else ZERO)

    def _offset(self, idx: Sequence[int]) -> int:
        off = 0
        for i in idx:
            off = off * self.frame.dimension + i
        return off

    def entry(self, *idx: int) -> RationalFunction:
        if len(idx) != self.arity:
            raise ValueError("index count does not match arity")
        return self.entries[self._offset(idx)]

    def cell(self, *idx: int) -> Vector:
        """The vector at (e_i1, ..., e_i(k-1)), the last slot read as upper."""
        if len(idx) != self.arity - 1:
            raise ValueError("index count does not match arity")
        dim = self.frame.dimension
        off = self._offset(idx) * dim
        return Vector(self.frame, self.entries[off:off + dim])

    def _contract(self, vectors: Sequence[Vector]) -> list[RationalFunction]:
        """The entries left after substituting vectors into the leading slots.

        Slots are contracted one at a time, and a zero component or a zero
        entry costs no scalar operation.
        """
        dim = self.frame.dimension
        table = self.entries
        for v in vectors:
            _same_frame(self, v)
            block = len(table) // dim
            out = [ZERO] * block
            for i, c in enumerate(v.components):
                if c.is_zero():
                    continue
                base = i * block
                for r in range(block):
                    t = table[base + r]
                    if not t.is_zero():
                        acc = out[r]
                        out[r] = t * c if acc.is_zero() else acc + t * c
            table = out
        return table

    def value(self, *vectors: Vector) -> RationalFunction:
        if len(vectors) != self.arity:
            raise ValueError("argument count does not match arity")
        return self._contract(vectors)[0]

    def apply(self, *vectors: Vector) -> Vector:
        """The vector T(v1, ..., v(k-1)), the last slot read as upper."""
        if len(vectors) != self.arity - 1:
            raise ValueError("argument count does not match arity")
        return Vector(self.frame, tuple(self._contract(vectors)))

    def __add__(self, other: "MultilinearForm") -> "MultilinearForm":
        self._compatible(other)
        return MultilinearForm(
            self.frame,
            self.arity,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "MultilinearForm") -> "MultilinearForm":
        self._compatible(other)
        return MultilinearForm(
            self.frame,
            self.arity,
            tuple(a - b for a, b in zip(self.entries, other.entries)),
        )

    def __neg__(self) -> "MultilinearForm":
        return MultilinearForm(self.frame, self.arity, tuple(-c for c in self.entries))

    def scale(self, s) -> "MultilinearForm":
        s = rf(s)
        return MultilinearForm(self.frame, self.arity, tuple(s * c for c in self.entries))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.entries)

    def is_symmetric(self) -> bool:
        if self.arity != 2:
            raise ValueError("symmetry test is for arity 2")
        return self == self.permute((1, 0))

    def permute(self, order: Sequence[int]) -> "MultilinearForm":
        """The table whose entry at (i_0, ..., i_(k-1)) is this table's
        entry at (i_order[0], ..., i_order[k-1]).

        So permute((1, 0, 2)) of a connection is (X, Y) -> nabla_Y X, and
        permuting by the inverse order undoes a permutation.
        """
        if sorted(order) != list(range(self.arity)):
            raise ValueError("order is not a permutation of the slots")
        dim = self.frame.dimension
        strides = [dim ** (self.arity - 1 - s) for s in range(self.arity)]
        return MultilinearForm(self.frame, self.arity, tuple(
            self.entries[sum(idx[o] * st for o, st in zip(order, strides))]
            for idx in product(range(dim), repeat=self.arity)))

    def skew(self) -> "MultilinearForm":
        """T(X, Y, ...) - T(Y, X, ...): the part skew in the first two slots."""
        return self - self.permute((1, 0) + tuple(range(2, self.arity)))

    def at(self, i: int) -> "MultilinearForm":
        """The arity k-1 table T(e_i, ...), the first slot fixed."""
        if self.arity < 2:
            raise ValueError("fixing a slot needs arity 2 or more")
        block = self.frame.dimension ** (self.arity - 1)
        return MultilinearForm(self.frame, self.arity - 1,
                               self.entries[i * block:(i + 1) * block])

    def pull_slots(self, op: "MultilinearForm", slots: Iterable[int]) -> "MultilinearForm":
        """Substitute the operator op into the given slots:
        T'(.., X_s, ..) = T(.., op X_s, ..).

        Pulling an operator A into slot 0 of an operator B gives B after A;
        pulling a metric into the upper slot of a vector-valued table
        lowers that slot.
        """
        _same_frame(self, op)
        if op.arity != 2:
            raise ValueError("only an arity-2 table can be pulled into a slot")
        dim = self.frame.dimension
        table = list(self.entries)
        for slot in slots:
            stride = dim ** (self.arity - 1 - slot)
            block = stride * dim
            out = [ZERO] * len(table)
            for base in range(0, len(table), block):
                for rest in range(stride):
                    cells = [table[base + a * stride + rest] for a in range(dim)]
                    for i in range(dim):
                        acc = ZERO
                        for a in range(dim):
                            m = op.entries[i * dim + a]
                            if not m.is_zero() and not cells[a].is_zero():
                                acc = acc + cells[a] * m
                        out[base + i * stride + rest] = acc
            table = out
        return MultilinearForm(self.frame, self.arity, tuple(table))

    def pull_all(self, op: "MultilinearForm") -> "MultilinearForm":
        return self.pull_slots(op, range(self.arity))

    def _compatible(self, other: "MultilinearForm"):
        _same_frame(self, other)
        if self.arity != other.arity:
            raise ValueError("arity mismatch")

    def rows(self) -> list[list[RationalFunction]]:
        if self.arity != 2:
            raise ValueError("rows() is for arity 2")
        dim = self.frame.dimension
        return [list(self.entries[i * dim : (i + 1) * dim]) for i in range(dim)]

    def trace(self) -> RationalFunction:
        """The trace of an operator."""
        return sum((self.entry(i, i) for i in range(self.frame.dimension)), ZERO)

    def rank(self) -> int:
        _, pivots = _echelon(self.rows(), self.frame.dimension)
        return len(pivots)


def _same_frame(a, b):
    if a.frame != b.frame:
        raise ValueError("objects live on different frames")


def _components(x) -> tuple[RationalFunction, ...]:
    return x.components if isinstance(x, Vector) else x.entries


def outer(u, v) -> MultilinearForm:
    """The table u (x) v with entry(i..., j...) = u(i...) v(j...).

    u and v are tables of any arity or vectors; a vector enters as its
    components, so outer(eta, xi) is the operator X -> eta(X) xi.
    """
    _same_frame(u, v)
    arity = sum(x.arity if isinstance(x, MultilinearForm) else 1 for x in (u, v))
    return MultilinearForm(u.frame, arity, tuple(
        ZERO if a.is_zero() or b.is_zero() else a * b
        for a in _components(u) for b in _components(v)))


def curvature_product(a: MultilinearForm, b: MultilinearForm) -> MultilinearForm:
    """The arity-4 table with entry(i, j, k, l) = b(j, k) a(i, l) - b(i, k) a(j, l).

    For an operator a this is the curvature-type tensor
    (X, Y, Z) -> b(Y, Z) aX - b(X, Z) aY; for a bilinear form a it is the
    same tensor lowered.  P(a, b) + P(b, a) is the Kulkarni-Nomizu product
    up to its sign convention.  Zero entries of a and b cost no scalar operation.
    """
    _same_frame(a, b)
    if a.arity != 2 or b.arity != 2:
        raise ValueError("the curvature product takes two arity-2 tables")
    dim = a.frame.dimension
    pairs = list(product(range(dim), repeat=2))
    a_nz = [(i, l, c) for (i, l), c in zip(pairs, a.entries) if not c.is_zero()]
    b_nz = [(j, k, c) for (j, k), c in zip(pairs, b.entries) if not c.is_zero()]
    out = [ZERO] * dim ** 4

    def add(off: int, t: RationalFunction):
        out[off] = t if out[off].is_zero() else out[off] + t

    for i, l, ac in a_nz:
        for j, k, bc in b_nz:
            if i != j:
                t = bc * ac
                add(((i * dim + j) * dim + k) * dim + l, t)
                add(((j * dim + i) * dim + k) * dim + l, -t)
    return MultilinearForm(a.frame, 4, tuple(out))


def first_nonzero(residual: Callable[..., object], dim: int, arity: int,
                  increasing: bool = False) -> Optional[tuple[int, ...]]:
    """The first index tuple whose residual is nonzero, or None.

    ``residual`` maps ``arity`` indices in ``range(dim)`` to a scalar, a
    vector or a table.  Tuples are visited in row-major order, the
    order of the nested loops ``for i: for j: ...``, and the scan stops at
    the first nonzero residual.  With ``increasing`` only the tuples
    i < j < ... are visited, which suffices for an alternating residual.
    """
    tuples = (combinations(range(dim), arity) if increasing
              else product(range(dim), repeat=arity))
    return next((idx for idx in tuples if not residual(*idx).is_zero()), None)


# --- exact linear algebra -------------------------------------------------


def _echelon(rows: list[list[RationalFunction]], pivot_cols_limit: int):
    """Fraction-free forward elimination; pivots only in the first
    pivot_cols_limit columns.  Returns (matrix, pivot column list)."""
    nrows = len(rows)
    ncols = len(rows[0]) if nrows else 0
    pivots = []
    prev = ONE
    r = 0
    for c in range(min(pivot_cols_limit, ncols)):
        p = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r][c]
        for i in range(r + 1, nrows):
            factor = rows[i][c]
            for j in range(ncols):
                rows[i][j] = (rows[i][j] * pivot - factor * rows[r][j]) / prev
        prev = pivot
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def determinant(rows: Sequence[Sequence[RationalFunction]]) -> RationalFunction:
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant needs a square matrix")
    m = [list(r) for r in rows]
    sign = 1
    prev = ONE
    for k in range(n):
        p = next((i for i in range(k, n) if not m[i][k].is_zero()), None)
        if p is None:
            return ZERO
        if p != k:
            m[k], m[p] = m[p], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k]
            for j in range(k, n):
                m[i][j] = (m[i][j] * pivot - factor * m[k][j]) / prev
        prev = pivot
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def _back_substitute(ech, pivots, n_unknowns, rhs_col, free_values=None):
    x = [ZERO] * n_unknowns
    if free_values:
        for col, val in free_values.items():
            x[col] = val
    for r in range(len(pivots) - 1, -1, -1):
        pc = pivots[r]
        acc = ech[r][rhs_col]
        for j in range(pc + 1, n_unknowns):
            if not ech[r][j].is_zero() and not x[j].is_zero():
                acc = acc - ech[r][j] * x[j]
        x[pc] = acc / ech[r][pc]
    return tuple(x)


def solve_unique(
    a_rows: Sequence[Sequence[RationalFunction]],
    b: Sequence[RationalFunction],
) -> tuple[RationalFunction, ...]:
    """Solve A x = b, demanding exactly one solution."""
    n = len(a_rows[0])
    aug = [list(row) + [bv] for row, bv in zip(a_rows, b)]
    ech, pivots = _echelon(aug, n)
    for r in range(len(pivots), len(ech)):
        if not ech[r][n].is_zero():
            raise InconsistentSystem("linear system has no solution")
    if len(pivots) < n:
        raise UnderdeterminedSystem("linear system has a free variable")
    return _back_substitute(ech, pivots, n, n)


def solve_affine(
    a_rows: Sequence[Sequence[RationalFunction]],
    b: Sequence[RationalFunction],
):
    """Solve A x = b; returns (particular solution, kernel basis)."""
    n = len(a_rows[0])
    aug = [list(row) + [bv] for row, bv in zip(a_rows, b)]
    ech, pivots = _echelon(aug, n)
    for r in range(len(pivots), len(ech)):
        if not ech[r][n].is_zero():
            raise InconsistentSystem("linear system has no solution")
    particular = _back_substitute(ech, pivots, n, n)
    kernel = []
    pivot_set = set(pivots)
    zero_rhs = [[*row[:n], ZERO] for row in ech]
    for free in range(n):
        if free in pivot_set:
            continue
        basis = _back_substitute(
            zero_rhs,
            pivots,
            n,
            n,
            free_values={free: ONE},
        )
        kernel.append(basis)
    return particular, kernel


def matrix_inverse(
    rows: Sequence[Sequence[RationalFunction]],
) -> list[list[RationalFunction]]:
    n = len(rows)
    aug = [
        list(row) + [ONE if i == j else ZERO for j in range(n)]
        for i, row in enumerate(rows)
    ]
    ech, pivots = _echelon(aug, n)
    if len(pivots) < n:
        raise DegenerateMetric("matrix is singular")
    cols = [_back_substitute(ech, pivots, n, n + j) for j in range(n)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def inertia(rows: Sequence[Sequence[Fraction]]) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of an exact symmetric matrix,
    computed by congruence diagonalization; no eigenvalues involved."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    pos = neg = zero = 0
    t = 0
    while t < n:
        p = next((i for i in range(t, n) if a[i][i] != 0), None)
        if p is None:
            pair = next(
                (
                    (i, j)
                    for i in range(t, n)
                    for j in range(i + 1, n)
                    if a[i][j] != 0
                ),
                None,
            )
            if pair is None:
                zero += n - t
                break
            i, j = pair
            for k in range(n):
                a[i][k] += a[j][k]
            for k in range(n):
                a[k][i] += a[k][j]
            continue
        if p != t:
            a[t], a[p] = a[p], a[t]
            for k in range(n):
                a[k][t], a[k][p] = a[k][p], a[k][t]
        d = a[t][t]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(t + 1, n):
            f = a[i][t] / d
            if f:
                for k in range(n):
                    a[i][k] -= f * a[t][k]
                for k in range(n):
                    a[k][i] -= f * a[k][t]
        t += 1
    return pos, neg, zero


def pick_regular_sample(
    must_not_vanish: Iterable[RationalFunction], start: int = 1,
    must_be_defined: Iterable[RationalFunction] = (),
) -> Fraction:
    """Smallest integer >= start at which every given scalar is defined and
    each one in ``must_not_vanish`` is nonzero; used to specialize mu
    before signature counting, where ``must_be_defined`` holds the
    entries that are evaluated there."""
    nonzero = list(must_not_vanish)
    defined = list(must_be_defined)
    for k in range(start, start + 1000):
        x = Fraction(k)
        try:
            for s in defined:
                s.eval_at(x)
            if all(s.eval_at(x) != 0 for s in nonzero):
                return x
        except ScalarDomainError:
            continue
    raise RuntimeError("no regular sample found in range")
