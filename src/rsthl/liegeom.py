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
from typing import Sequence

from . import report
from .errors import DegenerateMetric
from .scalars import HALF, ZERO, RationalFunction, rf
from .tensors import (
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
    brackets: MultilinearForm  # brackets.cell(i, j) = [e_i, e_j]

    def __post_init__(self):
        if self.brackets.frame != self.frame or self.brackets.arity != 3:
            raise ValueError("bracket table shape does not match the frame")

    @classmethod
    def abelian(cls, frame: Frame) -> "LieAlgebra":
        return cls(frame, MultilinearForm.zero(frame, 3))

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
        return cls(frame, MultilinearForm.from_cells(
            frame, 3, lambda i, j: rows[i][j]))


def validate_lie_algebra(alg: LieAlgebra) -> report.CheckEntry:
    """Antisymmetry and the Jacobi identity; names the first violation."""
    dim = alg.frame.dimension
    labels = alg.frame.labels
    br = alg.brackets
    at = first_nonzero(lambda i, j: br.cell(i, j) + br.cell(j, i), dim, 2)
    if at is not None:
        return report.failed(
            "lie-algebra",
            "plumbing",
            f"antisymmetry fails at ({', '.join(labels[i] for i in at)})",
        )
    basis = [alg.frame.basis_vector(i) for i in range(dim)]

    def jacobiator(i: int, j: int, k: int) -> Vector:
        return (
            br.apply(br.cell(i, j), basis[k])
            + br.apply(br.cell(j, k), basis[i])
            + br.apply(br.cell(k, i), basis[j])
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
            inverse = matrix_inverse(form.rows())
        except DegenerateMetric:
            raise DegenerateMetric(
                "metric has zero determinant on frame "
                f"{form.frame.labels}"
            ) from None
        self.inverse = MultilinearForm(
            self.frame, 2, tuple(c for row in inverse for c in row))

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

    def value(self, v: Vector, w: Vector) -> RationalFunction:
        return self.form.value(v, w)

    def determinant(self) -> RationalFunction:
        return determinant(self.form.rows())

    def lower(self, v: Vector) -> MultilinearForm:
        """The one-form g(v, .)."""
        return MultilinearForm(self.frame, 1, self.form.apply(v).components)

    def __eq__(self, other):
        return isinstance(other, InvariantMetric) and self.form == other.form


@dataclass(frozen=True)
class Connection:
    frame: Frame
    gamma: MultilinearForm  # gamma.cell(i, j) = nabla_{e_i} e_j


def koszul_entries(conn: Connection, alg: LieAlgebra,
                   metric: InvariantMetric) -> list[report.CheckEntry]:
    """Torsion freedom, nabla_X Y - nabla_Y X = [X, Y], and metric
    compatibility, g(nabla_X Y, Z) + g(Y, nabla_X Z) = 0."""
    low = conn.gamma.pull_slots(metric.form, (2,))  # g(nabla_i e_j, e_k)
    return [
        report.compare("ambient-torsion-free", "plumbing",
                       conn.gamma.skew(), alg.brackets,
                       "the Koszul connection is torsion free"),
        report.compare("ambient-metric-compatible", "plumbing",
                       low + low.permute((0, 2, 1)),
                       MultilinearForm.zero(conn.frame, 3),
                       "the Koszul connection preserves the metric"),
    ]


def levi_civita(alg: LieAlgebra, metric: InvariantMetric) -> Connection:
    """Unique torsion-free metric connection via the reduced Koszul formula."""
    low = alg.brackets.pull_slots(metric.form, (2,))  # g([e_i, e_j], e_k)
    koszul = MultilinearForm.from_function(
        alg.frame, 3,
        lambda i, j, k: (low.entry(i, j, k) - low.entry(j, k, i)
                         + low.entry(k, i, j)) * HALF)
    return Connection(alg.frame, koszul.pull_slots(metric.inverse, (2,)))


@dataclass(frozen=True)
class CurvatureTensor:
    frame: Frame
    table: MultilinearForm  # table.cell(i, j, k) = R(e_i, e_j) e_k

    def lower(self, metric: InvariantMetric) -> MultilinearForm:
        """R(X,Y,Z,W) = g(R(X,Y)Z, W) as an arity-4 table."""
        return self.table.pull_slots(metric.form, (3,))

    @cached_property
    def ricci(self) -> MultilinearForm:
        """Frame-coefficient trace over the first slot."""
        dim = self.frame.dimension
        return MultilinearForm.from_function(
            self.frame, 2,
            lambda j, k: sum((self.table.entry(i, j, k, i) for i in range(dim)),
                             ZERO))

    @cached_property
    def ricci_action(self) -> MultilinearForm:
        """The derivation action of this curvature on its own Ricci tensor."""
        return ricci_action(self, self.ricci)


def ricci_action(curv: CurvatureTensor, ric: MultilinearForm) -> MultilinearForm:
    """The derivation action of the curvature on the Ricci tensor."""
    return derivation_action(curv.table, ric)


def derivation_action(ops: MultilinearForm, form: MultilinearForm) -> MultilinearForm:
    """The operators ops(..., .) acting as derivations on a bilinear form:
    the table of -form(ops(..., x), y) - form(x, ops(..., y))."""
    arity = ops.arity
    first = MultilinearForm.from_cells(
        form.frame, arity, lambda *idx: form.apply(ops.cell(*idx)))
    second = ops.pull_slots(form, (arity - 1,))  # form(y, ops(..., x))
    return MultilinearForm.from_function(
        form.frame, arity,
        lambda *idx: -(first.entry(*idx) + second.entry(*idx[:-2], idx[-1], idx[-2])))


def curvature(conn: Connection, alg: LieAlgebra) -> CurvatureTensor:
    frame = conn.frame
    basis = [frame.basis_vector(i) for i in range(frame.dimension)]
    g, br = conn.gamma, alg.brackets
    return CurvatureTensor(frame, MultilinearForm.from_cells(
        frame, 4,
        lambda i, j, k: (g.apply(basis[i], g.cell(j, k))
                         - g.apply(basis[j], g.cell(i, k))
                         - g.apply(br.cell(i, j), basis[k]))))


def curvature_entries(curv: CurvatureTensor,
                      r4: MultilinearForm) -> list[report.CheckEntry]:
    """The first Bianchi identity and the symmetries of the lowered table:
    antisymmetry in the first pair, in the last pair, and pair exchange."""
    t = curv.table
    zero = MultilinearForm.zero(curv.frame, 4)
    return [
        report.compare("first-bianchi", "plumbing",
                       t + t.permute((1, 2, 0, 3)) + t.permute((2, 0, 1, 3)), zero,
                       "the cyclic curvature sum vanishes"),
        report.compare("curvature-symmetries", "plumbing",
                       (r4 + r4.permute((1, 0, 2, 3)), r4 + r4.permute((0, 1, 3, 2)),
                        r4 - r4.permute((2, 3, 0, 1))), (zero, zero, zero),
                       "slot antisymmetries and the pair symmetry hold"),
    ]
