"""Almost contact B-metric structures on an odd-dimensional frame.

The data is a tensor field phi, a vector xi_bar, a one-form eta_bar, and a
metric g_bar satisfying

    phi^2 = -Id + eta_bar (x) xi_bar,      eta_bar(xi_bar) = 1,
    g_bar(phi X, phi Y) = -g_bar(X, Y) + eta_bar(X) eta_bar(Y),

with g_bar of signature (n+1, n) on dimension 2n+1.  The structure is of the
zero class when the fundamental tensor F(X,Y,Z) = g_bar((nabla_X phi)Y, Z)
vanishes; then the Levi-Civita connections of g_bar and of the associated
metric g_bar(X, phi Y) + eta_bar(X) eta_bar(Y) coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import report
from .errors import NoTotallyRealSection
from .liegeom import Connection, InvariantMetric, LieAlgebra
from .scalars import ONE, RationalFunction
from .tensors import (
    Frame,
    MultilinearForm,
    Vector,
    curvature_product,
    determinant,
    inertia,
    outer,
    pick_regular_sample,
)


@dataclass(frozen=True)
class ACBMStructure:
    frame: Frame
    phi: MultilinearForm  # an operator: phi.cell(j) = phi(e_j)
    xi_bar: Vector
    eta_bar: MultilinearForm  # a one-form
    metric: InvariantMetric

    def __post_init__(self):
        if self.frame.dimension % 2 == 0:
            raise ValueError("an almost contact structure needs odd dimension")

    @property
    def n(self) -> int:
        return (self.frame.dimension - 1) // 2

    @cached_property
    def g_tilde(self) -> InvariantMetric:
        """The associated B-metric."""
        return associated_metric(self)


@dataclass(frozen=True)
class LieModel:
    """A Lie algebra with an invariant metric and a compatible structure."""

    algebra: LieAlgebra
    structure: ACBMStructure

    def __post_init__(self):
        if self.algebra.frame != self.structure.frame:
            raise ValueError("algebra and structure frames differ")

    @property
    def frame(self) -> Frame:
        return self.algebra.frame

    @property
    def metric(self) -> InvariantMetric:
        return self.structure.metric


@dataclass(frozen=True)
class CurvaturePair:
    """The two sectional curvatures of a totally real section orthogonal to
    xi_bar: nu along the section, nu_tilde for its phi-twisted companion."""

    nu: RationalFunction
    nu_tilde: RationalFunction


def signature_at_sample(metric: InvariantMetric) -> tuple[int, int, int]:
    """Inertia of the Gram matrix at a rational mu avoiding every denominator
    root and every determinant root, found by exact search over integers."""
    sample = pick_regular_sample([determinant(metric.form.rows())],
                                 must_be_defined=metric.form.entries)
    rows = [
        [e.eval_at(sample) for e in row]
        for row in metric.form.rows()
    ]
    return inertia(rows)


def validate_acbm(s: ACBMStructure) -> list[report.CheckEntry]:
    """All defining axioms, each as one report entry."""
    frame, n, g = s.frame, s.n, s.metric
    anchor = "sec-2-structure"
    rank = s.phi.rank()
    pos, neg, zero = signature_at_sample(g)
    return [
        report.compare("phi-squared", anchor,
                       s.phi.pull_slots(s.phi, (0,)) + MultilinearForm.identity(frame),
                       outer(s.eta_bar, s.xi_bar), "phi^2 = -Id + eta_bar (x) xi_bar"),
        report.compare("eta-of-xi", anchor, s.eta_bar.value(s.xi_bar), ONE,
                       "eta_bar(xi_bar) = 1"),
        report.compare("eta-after-phi", anchor, s.eta_bar.pull_slots(s.phi, (0,)),
                       MultilinearForm.zero(frame, 1), "eta_bar after phi vanishes"),
        report.compare("phi-of-xi", anchor, s.phi.apply(s.xi_bar), Vector.zero(frame),
                       "phi(xi_bar) = 0"),
        report.compare("phi-rank", anchor, rank, 2 * n,
                       f"rank phi = {rank}, expected {2 * n}"),
        report.compare("b-metric", anchor, g.form.pull_all(s.phi) + g.form,
                       outer(s.eta_bar, s.eta_bar),
                       "g(phi X, phi Y) = -g(X, Y) + eta_bar(X) eta_bar(Y)"),
        report.compare("eta-is-metric-dual", anchor, s.eta_bar, g.lower(s.xi_bar),
                       "eta_bar(X) = g(X, xi_bar)"),
        report.compare("xi-unit", anchor, g.value(s.xi_bar, s.xi_bar), ONE,
                       "g(xi_bar, xi_bar) = 1"),
        report.compare("metric-signature", anchor, (pos, neg, zero), (n + 1, n, 0),
                       f"signature ({pos},{neg}), expected ({n + 1},{n})"),
    ]


def associated_metric(s: ACBMStructure) -> InvariantMetric:
    """g_tilde(X, Y) = g_bar(X, phi Y) + eta_bar(X) eta_bar(Y)."""
    return InvariantMetric(s.metric.form.pull_slots(s.phi, (1,))
                           + outer(s.eta_bar, s.eta_bar))


def associated_compat_entry(s: ACBMStructure) -> report.CheckEntry:
    """g_tilde(X, phi Y) + eta_bar(X) eta_bar(Y) = -g_bar(X,Y) + 2 eta_bar eta_bar."""
    ee = outer(s.eta_bar, s.eta_bar)
    return report.compare(
        "associated-metric-twist", "sec-2-structure",
        s.g_tilde.form.pull_slots(s.phi, (1,)) + ee, ee.scale(2) - s.metric.form,
        "twisting the associated metric recovers -g_bar + 2 eta_bar^2")


def fundamental_tensor(s: ACBMStructure, conn: Connection) -> MultilinearForm:
    """F(X,Y,Z) = g_bar((nabla_X phi) Y, Z) on the frame."""
    frame = s.frame
    basis = [frame.basis_vector(i) for i in range(frame.dimension)]
    nabla_phi = MultilinearForm.from_cells(
        frame, 3,
        lambda i, j: conn.gamma.apply(basis[i], s.phi.cell(j))
        - s.phi.apply(conn.gamma.cell(i, j)))
    return nabla_phi.pull_slots(s.metric.form, (2,))


def constant_curvature_form(s: ACBMStructure, pair: CurvaturePair) -> MultilinearForm:
    """The two-curvature closed form of the lowered curvature:

        nu [pi_1 after phi - pi_2] + nu_tilde [pi_3 after phi],

    where pi_1 = P(g, g), pi_2 = P(g phi, g phi) and
    pi_3 = -P(g phi, g) - P(g, g phi) for the curvature product P.  Phi
    pulled into every slot of P(a, b) is P of a and b with phi pulled into
    both of their slots.
    """
    nu, nu_tilde = pair.nu, pair.nu_tilde
    g_phi = s.metric.form.pull_slots(s.phi, (1,))
    g_2 = s.metric.form.pull_all(s.phi)
    g_phi_2 = g_phi.pull_all(s.phi)
    return (curvature_product(g_2.scale(nu), g_2)
            - curvature_product(g_phi.scale(nu), g_phi)
            - curvature_product(g_phi_2.scale(nu_tilde), g_2)
            - curvature_product(g_2.scale(nu_tilde), g_phi_2))


def constant_curvature_residual(s: ACBMStructure, r4: MultilinearForm,
                                pair: CurvaturePair) -> report.CheckEntry:
    """The lowered curvature r4 against ``constant_curvature_form``; on a
    mismatch the entry reports the residual r4 minus the form.

    ``bench/tracing.py`` times this step by this name.
    """
    return report.compare(
        "constant-curvature-form", "thm-4.1", r4, constant_curvature_form(s, pair),
        "the lowered curvature is the two-invariant combination of the "
        "basic curvature tensors")


def fit_curvature_pair(s: ACBMStructure, r4: MultilinearForm) -> CurvaturePair:
    """Extract (nu, nu_tilde) from the first totally real frame section
    orthogonal to xi_bar, scanning index pairs lexicographically."""
    frame = s.frame
    dim = frame.dimension
    basis = [frame.basis_vector(i) for i in range(dim)]
    g = s.metric
    for i in range(dim):
        for j in range(i + 1, dim):
            x, y = basis[i], basis[j]
            if not g.value(x, s.xi_bar).is_zero():
                continue
            if not g.value(y, s.xi_bar).is_zero():
                continue
            denom = g.value(x, x) * g.value(y, y) - g.value(x, y) ** 2
            if denom.is_zero():
                continue
            px, py = s.phi.apply(x), s.phi.apply(y)
            if not all(
                g.value(u, v).is_zero() for u in (px, py) for v in (x, y)
            ):
                continue
            nu = r4.value(x, y, y, x) / denom
            nu_tilde = r4.value(x, y, y, px) / denom
            return CurvaturePair(nu=nu, nu_tilde=nu_tilde)
    raise NoTotallyRealSection(
        "no frame pair spans a nondegenerate totally real section orthogonal to xi_bar"
    )
