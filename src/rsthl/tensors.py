"""Frame-indexed multilinear algebra over the exact scalar field.

Tensors are stored as explicit component tables against a fixed labeled
frame (dimension at most five here), so every operation reduces to field
arithmetic on finitely many entries.  There is one table type,
``MultilinearForm``: flat and row-major, of any arity k >= 1.  A
scalar-valued tensor reads every slot as a lower index.  A vector-valued
tensor reads its last slot as the upper index, so entry(i1, ..., l) is
the e_l coefficient of its value at (e_i1, ...): a vector has arity 1
(entry(l) is its e_l component), an operator X -> A X arity 2 with
entry(j, l) the e_l coefficient of A e_j, the brackets [e_i, e_j] and a
connection nabla_{e_i} e_j arity 3, and a curvature R(e_i, e_j) e_k
arity 4.  A one-form is an arity-1 table too, read as lower; ``cell``,
``apply`` and ``Frame.basis_vector`` return vectors as arity-1 tables.

A table stores only its nonzero components: ``nonzero`` maps a flat
row-major offset to its value and never holds a zero (the
dictionary-of-keys layout; Saad, *Iterative Methods for Sparse Linear
Systems*, 2nd ed., ch. 3).  The map is canonical, so table equality is
map equality and stays exact.  Every kernel walks nonzero keys only,
each term is a product of two nonzero scalars, and a sum that cancels
drops its key.  ``entries`` is the dense tuple, zeros included, rebuilt
on each read; the solvers and ``rows()`` read it, and a single component
is ``entry(*idx)``.

Every curvature closed form is a sum of curvature products
P(a, b)(i, j, k, l) = b(j, k) a(i, l) - b(i, k) a(j, l) of two arity-2
tables (``curvature_product``): with an operator a it is the tensor
(X, Y, Z) -> b(Y, Z) aX - b(X, Z) aY, with a bilinear form a the same
tensor lowered.  ``outer`` builds the rank-one tables u (x) v such
products often take, for example the operator X -> eta(X) xi.

One kernel contracts: ``compose(a, b, slot)`` contracts the last slot of
a with slot ``slot`` of b (the first by default), the other slots of a
taking that slot's place.  Every substitution is a call of it:
``pull_slots`` puts an operator into each given slot in turn, ``apply``
puts vectors into the leading slots, ``value`` is ``apply`` and one last
contraction, and ``at`` and ``cell`` put in ``Frame.basis_vector``s.  So
the second covariant derivatives nabla_x nabla_i e_j (``compose(gamma,
gamma, 1)``), the bracket term of a curvature and nabla_X (phi Y) are
one composition of whole tables each, with no permutation around it,
and a derivation acting on a form is two.  ``onto_frame`` re-indexes a
table whose indices lie among the first m labels onto a frame of m
labels, so splitting or restricting an ambient table over an adapted
basis is a pull, a composition and one such pass.

Identities are decided on whole tables.  ``permute`` reorders the slots
of a table, so a symmetry T(X, Y) = T(Y, X) reads
``t == t.permute((1, 0))`` and the first Bianchi sum is the curvature
table plus two cyclic permutations of it; ``skew`` subtracts the swap of
the first two slots and ``at`` fixes the first slot at a frame vector.
``permute`` and ``onto_frame`` read their moved offsets from one memo
that lives for the process: a map per (dimension, base, slot order) in
use, holding only offsets some table has held, so it grows with the
nonzero entries seen, never with dim^arity.

Only this module eliminates or solves.  One Gauss-Jordan reduction,
pivoting on the nonzero entry with the fewest terms, serves the rank,
the inverse and the one solver, ``solve``, which returns the solution
whose free variables are zero together with the rank.  Each coefficient
of one table over others (the umbilicity factors, the Einstein
constants, the sectional invariants) is one ``solve_combination``: one
solve over every offset where some table is nonzero, unique when the
rank is the number of basis tables.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Iterable, Sequence

from .errors import (
    DegenerateMetric,
    InconsistentSystem,
    UnderdeterminedSystem,
)
from .scalars import ONE, ZERO, RationalFunction, rf


class Frame:
    """An ordered tuple of distinct basis labels; equal frames have equal
    labels."""

    __slots__ = ("labels", "dimension")

    def __init__(self, labels: tuple[str, ...]):
        if not labels:
            raise ValueError("a frame needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate frame labels: {labels}")
        self.labels = labels
        self.dimension = len(labels)

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Frame):
            return NotImplemented
        return self.labels == other.labels

    def __repr__(self):
        return f"Frame(labels={self.labels!r})"

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no frame label {label!r}") from None

    def basis_vector(self, i: int) -> "MultilinearForm":
        if not 0 <= i < self.dimension:
            raise IndexError(f"no basis vector {i} in {self.dimension} labels")
        return MultilinearForm._of(self, 1, {i: ONE})


def _accumulate(out: dict, key: int, term: RationalFunction) -> None:
    """out[key] += term, dropping the key when the sum cancels."""
    acc = out.get(key)
    if acc is None:
        out[key] = term
        return
    acc = acc + term
    if acc.is_zero():
        del out[key]
    else:
        out[key] = acc


# the one re-index memo: (dim, base, order) -> {flat offset: re-indexed offset}
_REINDEXED: dict[tuple[int, int, tuple[int, ...]], dict[int, int]] = {}


def _reindexed(dim: int, base: int, order: tuple[int, ...], offsets) -> dict[int, int]:
    """The memo's map for (dim, base, order), holding each offset of
    offsets: a flat offset over dim labels -> the offset over base labels of
    the same indices with slot s moved to slot order[s], or -1 when an index
    is base or more.  An offset is computed the first time a table holds it."""
    memo = _REINDEXED.setdefault((dim, base, order), {})
    k = len(order)
    for off in set(offsets).difference(memo):
        idx = [off // dim ** (k - 1 - s) % dim for s in range(k)]
        memo[off] = (-1 if max(idx) >= base
                     else sum(i * base ** (k - 1 - o) for i, o in zip(idx, order)))
    return memo


class MultilinearForm:
    """A tensor of arity k >= 1 as a map from flat offset to nonzero component.

    Components are laid out row-major: entry(i1, ..., ik) sits at the flat
    offset ((i1*d + i2)*d + ...) for frame dimension d.  ``nonzero`` holds
    the nonzero components by offset and never a zero, so two tables are
    equal exactly when frame, arity and map agree.  ``entries`` is the
    dense row-major tuple, built on each read.  Tables are values: no
    method changes one.  See the module docstring for how a vector-valued
    tensor reads its last slot.
    """

    __slots__ = ("frame", "arity", "nonzero")

    def __init__(self, frame: Frame, arity: int, entries: Sequence[RationalFunction]):
        if arity < 1:
            raise ValueError("a table needs at least one slot")
        if len(entries) != frame.dimension ** arity:
            raise ValueError("entry count does not match frame and arity")
        self.frame = frame
        self.arity = arity
        self.nonzero = {off: c for off, c in enumerate(entries) if not c.is_zero()}

    @classmethod
    def _of(cls, frame: Frame, arity: int, nonzero: dict) -> "MultilinearForm":
        """The table with the given nonzero map, which must hold no zero."""
        table = object.__new__(cls)
        table.frame, table.arity, table.nonzero = frame, arity, nonzero
        return table

    @classmethod
    def from_function(
        cls, frame: Frame, arity: int, fn: Callable[..., RationalFunction]
    ) -> "MultilinearForm":
        return cls(frame, arity, tuple(
            fn(*idx) for idx in product(range(frame.dimension), repeat=arity)))

    @classmethod
    def from_map(cls, frame: Frame, entries: dict) -> "MultilinearForm":
        """The vector (an arity-1 table) with the given components by label."""
        comps = [ZERO] * frame.dimension
        for label, value in entries.items():
            comps[frame.index(label)] = rf(value)
        return cls(frame, 1, tuple(comps))

    @classmethod
    def from_cells(
        cls, frame: Frame, arity: int, fn: Callable[..., "MultilinearForm"]
    ) -> "MultilinearForm":
        """The vector-valued table whose cell at (i1, ..., i(k-1)) is the
        vector fn(i1, ..., i(k-1))."""
        dim = frame.dimension
        nonzero = {}
        for n, idx in enumerate(product(range(dim), repeat=arity - 1)):
            v = fn(*idx)
            if v.frame != frame:
                raise ValueError("objects live on different frames")
            if v.arity != 1:
                raise ValueError("a cell is a vector")
            for l, c in v.nonzero.items():
                nonzero[n * dim + l] = c
        return cls._of(frame, arity, nonzero)

    @classmethod
    def zero(cls, frame: Frame, arity: int) -> "MultilinearForm":
        return cls._of(frame, arity, {})

    @classmethod
    def identity(cls, frame: Frame) -> "MultilinearForm":
        """The identity operator."""
        dim = frame.dimension
        return cls._of(frame, 2, {i * dim + i: ONE for i in range(dim)})

    @property
    def entries(self) -> tuple[RationalFunction, ...]:
        """All components, zeros included, in row-major order."""
        dense = [ZERO] * self.frame.dimension ** self.arity
        for off, c in self.nonzero.items():
            dense[off] = c
        return tuple(dense)

    def __eq__(self, other):
        if not isinstance(other, MultilinearForm):
            return NotImplemented
        return (self.frame == other.frame and self.arity == other.arity
                and self.nonzero == other.nonzero)

    def __repr__(self):
        return (f"MultilinearForm({self.frame!r}, {self.arity}, "
                f"{dict(sorted(self.nonzero.items()))!r})")

    def _offset(self, idx: Sequence[int]) -> int:
        off = 0
        for i in idx:
            off = off * self.frame.dimension + i
        return off

    def entry(self, *idx: int) -> RationalFunction:
        if len(idx) != self.arity:
            raise ValueError("index count does not match arity")
        return self.nonzero.get(self._offset(idx), ZERO)

    def cell(self, *idx: int) -> "MultilinearForm":
        """The vector at (e_i1, ..., e_i(k-1)), the last slot read as upper."""
        if len(idx) != self.arity - 1:
            raise ValueError("index count does not match arity")
        return self.apply(*map(self.frame.basis_vector, idx))

    def value(self, *vectors: "MultilinearForm") -> RationalFunction:
        if len(vectors) != self.arity:
            raise ValueError("argument count does not match arity")
        # the vector T(v1, ..., v(k-1)) against the last one: arity 0, offset 0
        return _substituted(vectors[-1], self.apply(*vectors[:-1]), 0).get(0, ZERO)

    def apply(self, *vectors: "MultilinearForm") -> "MultilinearForm":
        """The table of arity k - n left by substituting n < k vectors into
        the leading slots; for n = k - 1, the vector T(v1, ..., v(k-1)),
        the last slot read as upper."""
        if len(vectors) >= self.arity:
            raise ValueError("argument count does not match arity")
        table = self
        for v in vectors:
            table = compose(v, table)
        return table

    def __add__(self, other: "MultilinearForm") -> "MultilinearForm":
        self._compatible(other)
        out = dict(self.nonzero)
        for off, c in other.nonzero.items():
            _accumulate(out, off, c)
        return MultilinearForm._of(self.frame, self.arity, out)

    def __sub__(self, other: "MultilinearForm") -> "MultilinearForm":
        self._compatible(other)
        out = dict(self.nonzero)
        # acc - c is one scalar operation where acc + (-c) would be two
        for off, c in other.nonzero.items():
            acc = out.pop(off, None)
            diff = -c if acc is None else acc - c
            if not diff.is_zero():
                out[off] = diff
        return MultilinearForm._of(self.frame, self.arity, out)

    def __neg__(self) -> "MultilinearForm":
        return MultilinearForm._of(self.frame, self.arity, {
            off: -c for off, c in self.nonzero.items()})

    def scale(self, s) -> "MultilinearForm":
        s = rf(s)
        if s.is_zero():
            return MultilinearForm.zero(self.frame, self.arity)
        return MultilinearForm._of(self.frame, self.arity, {
            off: s * c for off, c in self.nonzero.items()})

    def is_zero(self) -> bool:
        return not self.nonzero

    def permute(self, order: Sequence[int]) -> "MultilinearForm":
        """The table whose entry at (i_0, ..., i_(k-1)) is this table's
        entry at (i_order[0], ..., i_order[k-1]).

        So permute((1, 0, 2)) of a connection is (X, Y) -> nabla_Y X, and
        permuting by the inverse order undoes a permutation.
        """
        if sorted(order) != list(range(self.arity)):
            raise ValueError("order is not a permutation of the slots")
        dim = self.frame.dimension
        moved = _reindexed(dim, dim, tuple(order), self.nonzero)
        return MultilinearForm._of(self.frame, self.arity, {
            moved[off]: c for off, c in self.nonzero.items()})

    def skew(self) -> "MultilinearForm":
        """T(X, Y, ...) - T(Y, X, ...): the part skew in the first two slots."""
        return self - self.permute((1, 0) + tuple(range(2, self.arity)))

    def at(self, i: int) -> "MultilinearForm":
        """The arity k-1 table T(e_i, ...), the first slot fixed."""
        if self.arity < 2:
            raise ValueError("fixing a slot needs arity 2 or more")
        return compose(self.frame.basis_vector(i), self)

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
        table = self
        for slot in slots:
            table = compose(op, table, slot)
        return table

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
        entries = self.entries
        return [list(entries[i * dim : (i + 1) * dim]) for i in range(dim)]

    def trace(self) -> RationalFunction:
        """The trace of an operator."""
        return sum((self.entry(i, i) for i in range(self.frame.dimension)), ZERO)


def _same_frame(a, b):
    if a.frame is not b.frame and a.frame != b.frame:
        raise ValueError("objects live on different frames")


def outer(u: MultilinearForm, v: MultilinearForm) -> MultilinearForm:
    """The table u (x) v with entry(i..., j...) = u(i...) v(j...).

    A vector v is an arity-1 table read as upper in the last slot, so
    outer(eta, xi) is the operator X -> eta(X) xi.
    """
    _same_frame(u, v)
    size = u.frame.dimension ** v.arity
    return MultilinearForm._of(u.frame, u.arity + v.arity, {
        i * size + j: a * b
        for i, a in u.nonzero.items() for j, b in v.nonzero.items()})


def compose(a: MultilinearForm, b: MultilinearForm, slot: int = 0) -> MultilinearForm:
    """The last slot of a contracted with slot ``slot`` of b, the other
    slots of a taking that slot's place: the table (H, I, L) -> sum_m
    a(I, m) b(H, m, L), with H the slots of b before it and L those after.

    This is the one contracting kernel; every other substitution is a call
    of it.  With vector-valued tables it substitutes the values of a into
    slot ``slot`` of b: compose(gamma, gamma, 1) at (x, i, j) is nabla_x
    (nabla_i e_j), compose(v, b) is b.apply(v) for a vector v, and
    compose(op, t, s) is t.pull_slots(op, (s,)) for an operator op.
    """
    if a.arity + b.arity < 3:
        raise ValueError("composing two vectors leaves no slot")
    if not 0 <= slot < b.arity:
        raise ValueError(f"no slot {slot} in a table of arity {b.arity}")
    return MultilinearForm._of(a.frame, a.arity + b.arity - 2, _substituted(a, b, slot))


def _substituted(a: MultilinearForm, b: MultilinearForm, slot: int) -> dict:
    """The nonzero map of compose(a, b, slot), of any arity, 0 included.

    An offset (H * d + m) * stride + L of b, with H and L its digits above
    and below the slot and stride = d^(len L), sends a(I, m) b(H, m, L) to
    (H * d^(k_a - 1) + I) * stride + L: the offset of b moved by
    (I - m) * stride and by H * shift, shift = (d^(k_a - 1) - d) * stride.
    Each term is a product of two nonzero components."""
    _same_frame(a, b)
    dim = a.frame.dimension
    stride = dim ** (b.arity - 1 - slot)
    span, shift = dim * stride, (dim ** (a.arity - 1) - dim) * stride
    by_last = [[] for _ in range(dim)]  # m: the ((I - m) * stride, a(I, m)) != 0
    for off, x in a.nonzero.items():
        i, m = divmod(off, dim)
        by_last[m].append(((i - m) * stride, x))
    out = {}
    for off, c in b.nonzero.items():
        base = off + off // span * shift
        for i, x in by_last[off // stride % dim]:
            _accumulate(out, base + i, x * c)
    return out


def onto_frame(table: MultilinearForm, frame: Frame) -> tuple[MultilinearForm, ...]:
    """The components of a table over d labels whose leading indices all lie
    below m = frame.dimension, re-indexed over the m labels of frame.

    The first table holds the components whose last index is below m too.
    For arity k >= 2, one arity k - 1 table follows for each last index
    r = m, ..., d - 1: the components with that last index, the index
    dropped.  So a vector-valued table on the first m vectors of an adapted
    basis splits into its part along them and one part per further basis
    vector.  Raises ValueError for any other component.
    """
    dim, m, k = table.frame.dimension, frame.dimension, table.arity
    whole = _reindexed(dim, m, tuple(range(k)), table.nonzero)
    lower = _reindexed(dim, m, tuple(range(k - 1)),
                       {off // dim for off in table.nonzero}) if k > 1 else None
    inside = {}
    beyond = [{} for _ in range(dim - m)] if k > 1 else []
    for off, c in table.nonzero.items():
        at = whole[off]
        if at >= 0:
            inside[at] = c
            continue
        rest, r = divmod(off, dim)
        if r < m or not beyond or lower[rest] < 0:
            raise ValueError("a component lies outside the frame")
        beyond[r - m][lower[rest]] = c
    return (MultilinearForm._of(frame, k, inside),
            *(MultilinearForm._of(frame, k - 1, part) for part in beyond))


def curvature_product(a: MultilinearForm, b: MultilinearForm) -> MultilinearForm:
    """The arity-4 table with entry(i, j, k, l) = b(j, k) a(i, l) - b(i, k) a(j, l).

    For an operator a this is the curvature-type tensor
    (X, Y, Z) -> b(Y, Z) aX - b(X, Z) aY; for a bilinear form a it is the
    same tensor lowered.  P(a, b) + P(b, a) is the Kulkarni-Nomizu product
    up to its sign convention.  Only pairs of nonzero entries cost a
    scalar operation.
    """
    _same_frame(a, b)
    if a.arity != 2 or b.arity != 2:
        raise ValueError("the curvature product takes two arity-2 tables")
    dim = a.frame.dimension
    b_nz = [(*divmod(off, dim), c) for off, c in b.nonzero.items()]
    out = {}
    for off, ac in a.nonzero.items():
        i, l = divmod(off, dim)
        for j, k, bc in b_nz:
            if i != j:
                t = bc * ac
                _accumulate(out, ((i * dim + j) * dim + k) * dim + l, t)
                _accumulate(out, ((j * dim + i) * dim + k) * dim + l, -t)
    return MultilinearForm._of(a.frame, 4, out)


# --- exact linear algebra -------------------------------------------------


def _reduce(rows: list[list[RationalFunction]], ncols: int):
    """Gauss-Jordan reduction in place, pivots only in the first ncols
    columns: (rows, pivot column list).

    A column's pivot is its nonzero entry with the fewest terms at or
    below the next pivot row; that row moves up, is divided by it and
    clears the column in every other row that is nonzero there.  Row r
    ends with a 1 in column pivots[r]."""
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        best = fewest = None
        for i in range(r, nrows):
            x = rows[i][c]
            if not x.is_zero() and (best is None or x.terms() < fewest):
                best, fewest = i, x.terms()
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        prow = rows[r]
        pivot = prow[c]
        width = range(c + 1, len(prow))
        for j in width:
            if not prow[j].is_zero():
                prow[j] = prow[j] / pivot
        prow[c] = ONE
        for i, row in enumerate(rows):
            factor = row[c]
            if i == r or factor.is_zero():
                continue
            for j in width:
                y = prow[j]
                if not y.is_zero():
                    row[j] = row[j] - factor * y
            row[c] = ZERO
        pivots.append(c)
        r += 1
    return rows, pivots


def rank(rows: Sequence[Sequence[RationalFunction]]) -> int:
    """The rank of a matrix given by its rows."""
    ncols = len(rows[0]) if rows else 0
    return len(_reduce([list(r) for r in rows], ncols)[1])


def solve(
    a_rows: Sequence[Sequence[RationalFunction]],
    b: Sequence[RationalFunction],
) -> tuple[tuple[RationalFunction, ...], int]:
    """The solution of A x = b whose free variables are zero, and the rank
    of A; raises InconsistentSystem when there is none."""
    n = len(a_rows[0])
    red, pivots = _reduce([list(row) + [bv] for row, bv in zip(a_rows, b)], n)
    if any(not row[n].is_zero() for row in red[len(pivots):]):
        raise InconsistentSystem("linear system has no solution")
    x = [ZERO] * n
    for row, c in zip(red, pivots):
        x[c] = row[n]
    return tuple(x), len(pivots)


def solve_combination(target: MultilinearForm,
                      *basis: MultilinearForm) -> tuple[RationalFunction, ...]:
    """The unique c with target = c_1 basis_1 + c_2 basis_2 + ..., for
    tables of one size read as flat entry lists.

    Raises InconsistentSystem when the target is no such combination and
    UnderdeterminedSystem when the basis is linearly dependent.  Only the
    offsets where some table is nonzero give equations; the others read
    0 = 0 (offset 0 stands in when there is none, so the system keeps
    its columns).  One solve over them decides both: it is inconsistent,
    or its rank falls short of the number of basis tables.
    """
    for b in basis:
        _same_frame(target, b)
        if b.arity != target.arity:
            raise ValueError("the target and the basis terms differ in size")
    offsets = sorted(set(target.nonzero).union(*(b.nonzero for b in basis))) or [0]
    coeffs, r = solve([[b.nonzero.get(off, ZERO) for b in basis] for off in offsets],
                      [target.nonzero.get(off, ZERO) for off in offsets])
    if r < len(basis):
        raise UnderdeterminedSystem("linear system has a free variable")
    return coeffs


def matrix_inverse(
    rows: Sequence[Sequence[RationalFunction]],
) -> list[list[RationalFunction]]:
    n = len(rows)
    red, pivots = _reduce([list(row) + [ONE if i == j else ZERO for j in range(n)]
                           for i, row in enumerate(rows)], n)
    if len(pivots) < n:
        raise DegenerateMetric("matrix is singular")
    return [row[n:] for row in red]
