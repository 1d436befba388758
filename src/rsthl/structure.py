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
    out = []
    frame = s.frame
    dim = frame.dimension
    n = s.n

    phi_sq = s.phi.pull_slots(s.phi, (0,))
    reconstruction = (phi_sq + MultilinearForm.identity(frame)
                      - outer(s.eta_bar, s.xi_bar))
    out.append(
        report.residual_entry(
            "phi-squared",
            "sec-2-structure",
            reconstruction.is_zero(),
            "phi^2 = -Id + eta_bar (x) xi_bar",
        )
    )
    out.append(
        report.residual_entry(
            "eta-of-xi",
            "sec-2-structure",
            (s.eta_bar.value(s.xi_bar) - ONE).is_zero(),
            "eta_bar(xi_bar) = 1",
        )
    )
    eta_phi = all(s.eta_bar.value(s.phi.cell(j)).is_zero() for j in range(dim))
    out.append(
        report.residual_entry(
            "eta-after-phi", "sec-2-structure", eta_phi, "eta_bar after phi vanishes"
        )
    )
    out.append(
        report.residual_entry(
            "phi-of-xi",
            "sec-2-structure",
            s.phi.apply(s.xi_bar).is_zero(),
            "phi(xi_bar) = 0",
        )
    )
    rank = s.phi.rank()
    out.append(
        report.residual_entry(
            "phi-rank",
            "sec-2-structure",
            rank == 2 * n,
            f"rank phi = {rank}, expected {2 * n}",
        )
    )

    bmetric_ok = (s.metric.form.pull_all(s.phi) + s.metric.form
                  == outer(s.eta_bar, s.eta_bar))
    out.append(
        report.residual_entry(
            "b-metric",
            "sec-2-structure",
            bmetric_ok,
            "g(phi X, phi Y) = -g(X, Y) + eta_bar(X) eta_bar(Y)",
        )
    )

    eta_dual = (s.eta_bar - s.metric.lower(s.xi_bar)).is_zero()
    out.append(
        report.residual_entry(
            "eta-is-metric-dual",
            "sec-2-structure",
            eta_dual,
            "eta_bar(X) = g(X, xi_bar)",
        )
    )
    out.append(
        report.residual_entry(
            "xi-unit",
            "sec-2-structure",
            (s.metric.value(s.xi_bar, s.xi_bar) - ONE).is_zero(),
            "g(xi_bar, xi_bar) = 1",
        )
    )

    pos, neg, zero = signature_at_sample(s.metric)
    out.append(
        report.residual_entry(
            "metric-signature",
            "sec-2-structure",
            (pos, neg, zero) == (n + 1, n, 0),
            f"signature ({pos},{neg}), expected ({n + 1},{n})",
        )
    )
    return out


def associated_metric(s: ACBMStructure) -> InvariantMetric:
    """g_tilde(X, Y) = g_bar(X, phi Y) + eta_bar(X) eta_bar(Y)."""
    return InvariantMetric(s.metric.form.pull_slots(s.phi, (1,))
                           + outer(s.eta_bar, s.eta_bar))


def associated_compat_entry(s: ACBMStructure) -> report.CheckEntry:
    """g_tilde(X, phi Y) + eta_bar(X) eta_bar(Y) = -g_bar(X,Y) + 2 eta_bar eta_bar."""
    ee = outer(s.eta_bar, s.eta_bar)
    ok = (s.g_tilde.form.pull_slots(s.phi, (1,)) + ee
          == ee.scale(2) - s.metric.form)
    return report.residual_entry(
        "associated-metric-twist",
        "sec-2-structure",
        ok,
        "twisting the associated metric recovers -g_bar + 2 eta_bar^2",
    )


def fundamental_tensor(s: ACBMStructure, conn: Connection) -> MultilinearForm:
    """F(X,Y,Z) = g_bar((nabla_X phi) Y, Z) on the frame."""
    frame = s.frame
    basis = [frame.basis_vector(i) for i in range(frame.dimension)]
    nabla_phi = MultilinearForm.from_cells(
        frame, 3,
        lambda i, j: conn.gamma.apply(basis[i], s.phi.cell(j))
        - s.phi.apply(conn.gamma.cell(i, j)))
    return nabla_phi.pull_slots(s.metric.form, (2,))


def constant_curvature_residual(
    s: ACBMStructure, r4: MultilinearForm, pair: CurvaturePair
) -> MultilinearForm:
    """Residual of the two-curvature closed form for the lowered curvature:

        R = nu [pi_1 after phi - pi_2] + nu_tilde [pi_3 after phi],

    where pi_1 = P(g, g), pi_2 = P(g phi, g phi) and
    pi_3 = -P(g phi, g) - P(g, g phi) for the curvature product P.  Phi
    pulled into every slot of P(a, b) is P of a and b with phi pulled into
    both of their slots.
    """
    nu, nu_tilde = pair.nu, pair.nu_tilde
    g_phi = s.metric.form.pull_slots(s.phi, (1,))
    g_2 = s.metric.form.pull_all(s.phi)
    g_phi_2 = g_phi.pull_all(s.phi)
    model = (curvature_product(g_2.scale(nu), g_2)
             - curvature_product(g_phi.scale(nu), g_phi)
             - curvature_product(g_phi_2.scale(nu_tilde), g_2)
             - curvature_product(g_2.scale(nu_tilde), g_phi_2))
    return r4 - model


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
