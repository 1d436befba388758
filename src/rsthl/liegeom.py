"""Left-invariant geometry from structure constants.

A Lie algebra is given by brackets [e_i, e_j] = sum_k c^k_ij e_k with exact
scalar constants.  For a left-invariant metric the Koszul formula loses its
derivative terms and reduces to

    2 g(nabla_{e_i} e_j, e_k) = g([e_i,e_j], e_k) - g([e_j,e_k], e_i)
                                + g([e_k,e_i], e_j),

and curvature is the algebraic commutator

    R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k
                      - nabla_{[e_i,e_j]} e_k.

The Ricci tensor used throughout is the frame-coefficient trace of
X -> R(X, Y) Z, which is basis independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from . import report
from .errors import DegenerateMetric
from .scalars import HALF, ZERO, RationalFunction, rf
from .tensors import (
    Covector,
    Frame,
    MultilinearForm,
    Vector,
    determinant,
    first_nonzero,
    matrix_inverse,
)


@dataclass(frozen=True)
class LieAlgebra:
    frame: Frame
    brackets: tuple[tuple[Vector, ...], ...]  # brackets[i][j] = [e_i, e_j]

    def __post_init__(self):
        dim = self.frame.dimension
        if len(self.brackets) != dim or any(len(r) != dim for r in self.brackets):
            raise ValueError("bracket table shape does not match the frame")

    @classmethod
    def abelian(cls, frame: Frame) -> "LieAlgebra":
        zero = Vector.zero(frame)
        dim = frame.dimension
        return cls(frame, tuple(tuple(zero for _ in range(dim)) for _ in range(dim)))

    @classmethod
    def from_table(cls, frame: Frame, table: dict) -> "LieAlgebra":
        """Build from {(label_i, label_j): {label_k: scalar}} with i-j given
        in either order; the antisymmetric counterpart is filled in."""
        dim = frame.dimension
        rows = [[Vector.zero(frame) for _ in range(dim)] for _ in range(dim)]
        for (li, lj), entries in table.items():
            i, j = frame.index(li), frame.index(lj)
            if i == j:
                raise ValueError(f"bracket of {li} with itself must be omitted")
            v = Vector.from_map(frame, entries)
            rows[i][j] = rows[i][j] + v
            rows[j][i] = rows[j][i] - v
        return cls(frame, tuple(tuple(r) for r in rows))

    def bracket_basis(self, i: int, j: int) -> Vector:
        return self.brackets[i][j]

    def bracket(self, v: Vector, w: Vector) -> Vector:
        out = Vector.zero(self.frame)
        dim = self.frame.dimension
        for i in range(dim):
            a = v.components[i]
            if a.is_zero():
                continue
            for j in range(dim):
                b = w.components[j]
                if b.is_zero():
                    continue
                out = out + self.brackets[i][j].scale(a * b)
        return out


def validate_lie_algebra(alg: LieAlgebra) -> report.CheckEntry:
    """Antisymmetry and the Jacobi identity; names the first violation."""
    dim = alg.frame.dimension
    labels = alg.frame.labels
    at = first_nonzero(lambda i, j: alg.brackets[i][j] + alg.brackets[j][i],
                       dim, 2)
    if at is not None:
        return report.failed(
            "lie-algebra",
            "plumbing",
            f"antisymmetry fails at ({', '.join(labels[i] for i in at)})",
        )
    basis = [alg.frame.basis_vector(i) for i in range(dim)]

    def jacobiator(i: int, j: int, k: int) -> Vector:
        return (
            alg.bracket(alg.brackets[i][j], basis[k])
            + alg.bracket(alg.brackets[j][k], basis[i])
            + alg.bracket(alg.brackets[k][i], basis[j])
        )

    at = first_nonzero(jacobiator, dim, 3, increasing=True)
    if at is not None:
        return report.failed(
            "lie-algebra",
            "plumbing",
            f"Jacobi fails at ({', '.join(labels[i] for i in at)})",
        )
    return report.passed("lie-algebra", "plumbing", "antisymmetry and Jacobi hold")


class InvariantMetric:
    """A nondegenerate symmetric bilinear form with a cached exact inverse."""

    def __init__(self, form: MultilinearForm):
        if form.arity != 2:
            raise ValueError("a metric is an arity-2 form")
        if not form.is_symmetric():
            raise ValueError("a metric must be symmetric")
        self.form = form
        self.frame = form.frame
        try:
            self._inverse = tuple(tuple(r) for r in matrix_inverse(form.rows()))
        except DegenerateMetric:
            raise DegenerateMetric(
                "metric has zero determinant on frame "
                f"{form.frame.labels}"
            ) from None

    @classmethod
    def diagonal(cls, frame: Frame, diag: Sequence) -> "InvariantMetric":
        dim = frame.dimension
        if len(diag) != dim:
            raise ValueError("need one diagonal entry per label")
        vals = [rf(d) for d in diag]
        return cls(
            MultilinearForm.from_function(
                frame, 2, lambda i, j: vals[i] if i == j else ZERO
            )
        )

    def entry(self, i: int, j: int) -> RationalFunction:
        return self.form.entry(i, j)

    def inverse_entry(self, i: int, j: int) -> RationalFunction:
        return self._inverse[i][j]

    def value(self, v: Vector, w: Vector) -> RationalFunction:
        return self.form.value(v, w)

    def determinant(self) -> RationalFunction:
        return determinant(self.form.rows())

    def lower(self, v: Vector) -> Covector:
        dim = self.frame.dimension
        return Covector(
            self.frame,
            tuple(self.form.value(self.frame.basis_vector(i), v) for i in range(dim)),
        )

    def __eq__(self, other):
        return isinstance(other, InvariantMetric) and self.form == other.form


@dataclass(frozen=True)
class Connection:
    frame: Frame
    gamma: tuple[tuple[Vector, ...], ...]  # gamma[i][j] = nabla_{e_i} e_j

    def nabla_basis(self, i: int, j: int) -> Vector:
        return self.gamma[i][j]

    def nabla(self, v: Vector, w: Vector) -> Vector:
        """Covariant derivative for constant-coefficient arguments."""
        out = Vector.zero(self.frame)
        dim = self.frame.dimension
        for i in range(dim):
            a = v.components[i]
            if a.is_zero():
                continue
            for j in range(dim):
                b = w.components[j]
                if b.is_zero():
                    continue
                out = out + self.gamma[i][j].scale(a * b)
        return out

    def torsion_violation(self, alg: LieAlgebra) -> Optional[tuple[int, int]]:
        return first_nonzero(
            lambda i, j: self.gamma[i][j] - self.gamma[j][i] - alg.brackets[i][j],
            self.frame.dimension, 2)

    def metric_violation(self, metric: InvariantMetric) -> Optional[tuple[int, int, int]]:
        dim = self.frame.dimension
        basis = [self.frame.basis_vector(i) for i in range(dim)]
        return first_nonzero(
            lambda i, j, k: metric.value(self.gamma[i][j], basis[k])
            + metric.value(basis[j], self.gamma[i][k]),
            dim, 3)


def levi_civita(alg: LieAlgebra, metric: InvariantMetric) -> Connection:
    """Unique torsion-free metric connection via the reduced Koszul formula."""
    frame = alg.frame
    dim = frame.dimension
    basis = [frame.basis_vector(i) for i in range(dim)]
    gamma = []
    for i in range(dim):
        row = []
        for j in range(dim):
            rhs = []
            for k in range(dim):
                val = (
                    metric.value(alg.brackets[i][j], basis[k])
                    - metric.value(alg.brackets[j][k], basis[i])
                    + metric.value(alg.brackets[k][i], basis[j])
                ) * HALF
                rhs.append(val)
            comps = []
            for k in range(dim):
                acc = ZERO
                for l in range(dim):
                    ge = metric.inverse_entry(k, l)
                    if not ge.is_zero() and not rhs[l].is_zero():
                        acc = acc + ge * rhs[l]
                comps.append(acc)
            row.append(Vector(frame, tuple(comps)))
        gamma.append(tuple(row))
    return Connection(frame, tuple(gamma))


@dataclass(frozen=True)
class CurvatureTensor:
    frame: Frame
    entries: tuple[tuple[tuple[Vector, ...], ...], ...]  # entries[i][j][k] = R(e_i,e_j)e_k

    def basis_value(self, i: int, j: int, k: int) -> Vector:
        return self.entries[i][j][k]

    def apply(self, x: Vector, y: Vector, z: Vector) -> Vector:
        out = Vector.zero(self.frame)
        dim = self.frame.dimension
        for i in range(dim):
            a = x.components[i]
            if a.is_zero():
                continue
            for j in range(dim):
                b = y.components[j]
                if b.is_zero():
                    continue
                ab = a * b
                for k in range(dim):
                    c = z.components[k]
                    if c.is_zero():
                        continue
                    out = out + self.entries[i][j][k].scale(ab * c)
        return out

    def lower(self, metric: InvariantMetric) -> MultilinearForm:
        """R(X,Y,Z,W) = g(R(X,Y)Z, W) as an arity-4 table."""
        frame = self.frame
        basis = [frame.basis_vector(i) for i in range(frame.dimension)]
        return MultilinearForm.from_function(
            frame,
            4,
            lambda i, j, k, l: metric.value(self.entries[i][j][k], basis[l]),
        )

    @cached_property
    def ricci(self) -> MultilinearForm:
        """Frame-coefficient trace over the first slot."""
        dim = self.frame.dimension

        def entry(j, k):
            acc = ZERO
            for i in range(dim):
                acc = acc + self.entries[i][j][k].components[i]
            return acc

        return MultilinearForm.from_function(self.frame, 2, entry)

    @cached_property
    def ricci_action(self) -> MultilinearForm:
        """The derivation action of this curvature on its own Ricci tensor."""
        return ricci_action(self, self.ricci)


def ricci_action(curv: CurvatureTensor, ric: MultilinearForm) -> MultilinearForm:
    """The derivation action of the curvature on the Ricci tensor."""
    frame = ric.frame
    dim = frame.dimension

    def entry(a: int, b: int, c: int, d: int) -> RationalFunction:
        first = sum((curv.entries[a][b][c].components[k] * ric.entry(k, d)
                     for k in range(dim)), ZERO)
        second = sum((curv.entries[a][b][d].components[k] * ric.entry(c, k)
                      for k in range(dim)), ZERO)
        return -(first + second)

    return MultilinearForm.from_function(frame, 4, entry)


def curvature(conn: Connection, alg: LieAlgebra) -> CurvatureTensor:
    frame = conn.frame
    dim = frame.dimension
    basis = [frame.basis_vector(i) for i in range(dim)]
    rows = []
    for i in range(dim):
        plane = []
        for j in range(dim):
            cell = []
            for k in range(dim):
                v = (
                    conn.nabla(basis[i], conn.gamma[j][k])
                    - conn.nabla(basis[j], conn.gamma[i][k])
                    - conn.nabla(alg.brackets[i][j], basis[k])
                )
                cell.append(v)
            plane.append(tuple(cell))
        rows.append(tuple(plane))
    return CurvatureTensor(frame, tuple(rows))


def first_bianchi_violation(curv: CurvatureTensor) -> Optional[tuple[int, int, int]]:
    e = curv.entries
    return first_nonzero(lambda i, j, k: e[i][j][k] + e[j][k][i] + e[k][i][j],
                         curv.frame.dimension, 3)


def lowered_symmetry_violation(r4: MultilinearForm) -> Optional[str]:
    """First failure of the pair symmetries of a lowered curvature table.

    Index tuples are taken in row-major order, and at one tuple the
    symmetries in the order listed below.
    """
    e = r4.entry
    symmetries = (
        ("antisymmetry in the first pair",
         lambda i, j, k, l: e(i, j, k, l) + e(j, i, k, l)),
        ("antisymmetry in the last pair",
         lambda i, j, k, l: e(i, j, k, l) + e(i, j, l, k)),
        ("pair exchange", lambda i, j, k, l: e(i, j, k, l) - e(k, l, i, j)),
    )
    found = [(at, rank) for rank, (_, residual) in enumerate(symmetries)
             if (at := first_nonzero(residual, r4.frame.dimension, 4)) is not None]
    if not found:
        return None
    at, rank = min(found)
    return f"{symmetries[rank][0]} at {at}"
