"""Left-invariant geometry from structure constants.

A Lie algebra is its bracket table, an arity-3 table with
brackets.cell(i, j) = [e_i, e_j] = sum_k c^k_ij e_k in exact scalar
constants.  For a left-invariant metric the Koszul formula loses its
derivative terms and reduces to

    2 g(nabla_{e_i} e_j, e_k) = g([e_i,e_j], e_k) - g([e_j,e_k], e_i)
                                + g([e_k,e_i], e_j),

and curvature is the algebraic commutator

    R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k
                      - nabla_{[e_i,e_j]} e_k.

A connection is its Christoffel table, gamma.cell(i, j) = nabla_{e_i} e_j.
The Ricci tensor used throughout is the frame-coefficient trace of
X -> R(X, Y) Z, which is basis independent.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

from . import report
from .errors import DegenerateMetric
from .scalars import HALF, ZERO, rf
from .tensors import (
    Frame,
    MultilinearForm,
    compose,
    matrix_inverse,
)


def bracket_table(frame: Frame, table: dict) -> MultilinearForm:
    """The bracket table of {(label_i, label_j): {label_k: scalar}}, with i-j
    given in either order; the antisymmetric counterpart is filled in."""
    dim = frame.dimension
    zero = MultilinearForm.zero(frame, 1)
    rows = [[zero] * dim for _ in range(dim)]
    for (li, lj), entries in table.items():
        i, j = frame.index(li), frame.index(lj)
        if i == j:
            raise ValueError(f"bracket of {li} with itself must be omitted")
        v = MultilinearForm.from_map(frame, entries)
        rows[i][j] = rows[i][j] + v
        rows[j][i] = rows[j][i] - v
    return MultilinearForm.from_cells(frame, 3, lambda i, j: rows[i][j])


def validate_lie_algebra(brackets: MultilinearForm) -> report.CheckEntry:
    """Antisymmetry and the Jacobi identity, as one pair of whole-table
    residuals; a failure names the first nonzero component."""
    x = compose(brackets, brackets)  # x(i, j, k) = [[e_i, e_j], e_k]
    frame = brackets.frame
    return report.compare(
        "lie-algebra", "plumbing",
        (brackets + brackets.permute((1, 0, 2)),
         x + x.permute((1, 2, 0, 3)) + x.permute((2, 0, 1, 3))),
        (MultilinearForm.zero(frame, 3), MultilinearForm.zero(frame, 4)),
        "antisymmetry and Jacobi hold")


class InvariantMetric:
    """A nondegenerate symmetric bilinear form with a cached exact inverse."""

    def __init__(self, form: MultilinearForm):
        if form.arity != 2:
            raise ValueError("a metric is an arity-2 form")
        if form != form.permute((1, 0)):
            raise ValueError("a metric must be symmetric")
        self.form = form
        try:
            inverse = matrix_inverse(form.rows())
        except DegenerateMetric:
            raise DegenerateMetric(
                "metric has zero determinant on frame "
                f"{form.frame.labels}"
            ) from None
        self.inverse = MultilinearForm(
            form.frame, 2, tuple(c for row in inverse for c in row))

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


def derivative(gamma: MultilinearForm, v: MultilinearForm) -> MultilinearForm:
    """The operator X -> nabla_X v of the connection gamma."""
    return compose(v, gamma, 1)


def koszul_entries(gamma: MultilinearForm, brackets: MultilinearForm,
                   metric: InvariantMetric) -> list[report.CheckEntry]:
    """Torsion freedom, nabla_X Y - nabla_Y X = [X, Y], and metric
    compatibility, g(nabla_X Y, Z) + g(Y, nabla_X Z) = 0."""
    low = gamma.pull_slots(metric.form, (2,))  # g(nabla_i e_j, e_k)
    return [
        report.compare("ambient-torsion-free", "plumbing",
                       gamma.skew(), brackets,
                       "the Koszul connection is torsion free"),
        report.compare("ambient-metric-compatible", "plumbing",
                       low + low.permute((0, 2, 1)),
                       MultilinearForm.zero(gamma.frame, 3),
                       "the Koszul connection preserves the metric"),
    ]


def levi_civita(brackets: MultilinearForm, metric: InvariantMetric) -> MultilinearForm:
    """Unique torsion-free metric connection via the reduced Koszul formula."""
    low = brackets.pull_slots(metric.form, (2,))  # g([e_i, e_j], e_k)
    # g(nabla_i e_j, e_k) = (low(i, j, k) - low(j, k, i) + low(k, i, j)) / 2
    koszul = (low - low.permute((1, 2, 0)) + low.permute((2, 0, 1))).scale(HALF)
    return koszul.pull_slots(metric.inverse, (2,))


class CurvatureTensor:
    """A curvature table with its Ricci tensor and Ricci action, each
    derived on first read."""

    def __init__(self, table: MultilinearForm):
        self.table = table  # table.cell(i, j, k) = R(e_i, e_j) e_k

    def lower(self, metric: InvariantMetric) -> MultilinearForm:
        """R(X,Y,Z,W) = g(R(X,Y)Z, W) as an arity-4 table."""
        return self.table.pull_slots(metric.form, (3,))

    @cached_property
    def ricci(self) -> MultilinearForm:
        """Frame-coefficient trace over the first slot."""
        t = self.table
        dim = t.frame.dimension
        return MultilinearForm.from_function(
            t.frame, 2, lambda j, k: sum((t.entry(i, j, k, i) for i in range(dim)), ZERO))

    @cached_property
    def ricci_action(self) -> MultilinearForm:
        """The derivation action of this curvature on its own Ricci tensor."""
        return derivation_action(self.table, self.ricci)


def derivation_action(ops: MultilinearForm, form: MultilinearForm) -> MultilinearForm:
    """The operators ops(..., .) acting as derivations on a bilinear form:
    the table of -form(ops(..., x), y) - form(x, ops(..., y))."""
    arity = ops.arity
    first = compose(ops, form)  # form(ops(..., x), y)
    second = ops.pull_slots(form, (arity - 1,))  # form(y, ops(..., x))
    return -(first + second.permute(tuple(range(arity - 2)) + (arity - 1, arity - 2)))


def curvature(gamma: MultilinearForm, brackets: MultilinearForm) -> CurvatureTensor:
    """R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k
    - nabla_[e_i, e_j] e_k, composed from whole tables."""
    # compose(gamma, gamma, 1) at (x, i, j) is nabla_x nabla_i e_j
    nn = compose(gamma, gamma, 1)
    return CurvatureTensor(nn - nn.permute((1, 0, 2, 3)) - compose(brackets, gamma))


def curvature_entries(curv: CurvatureTensor,
                      r4: MultilinearForm) -> list[report.CheckEntry]:
    """The first Bianchi identity and the symmetries of the lowered table:
    antisymmetry in the first pair, in the last pair, and pair exchange."""
    t = curv.table
    zero = MultilinearForm.zero(t.frame, 4)
    return [
        report.compare("first-bianchi", "plumbing",
                       t + t.permute((1, 2, 0, 3)) + t.permute((2, 0, 1, 3)), zero,
                       "the cyclic curvature sum vanishes"),
        report.compare("curvature-symmetries", "plumbing",
                       (r4 + r4.permute((1, 0, 2, 3)), r4 + r4.permute((0, 1, 3, 2)),
                        r4 - r4.permute((2, 3, 0, 1))), (zero, zero, zero),
                       "slot antisymmetries and the pair symmetry hold"),
    ]
