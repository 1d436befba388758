"""Almost contact B-metric structures on an odd-dimensional frame.

The data is a tensor field phi, a vector xi_bar, a one-form eta_bar, and a
metric g_bar satisfying

    phi^2 = -Id + eta_bar (x) xi_bar,      eta_bar(xi_bar) = 1,
    g_bar(phi X, phi Y) = -g_bar(X, Y) + eta_bar(X) eta_bar(Y),

with g_bar of signature (n+1, n) on dimension 2n+1.  The structure is of the
zero class when the fundamental tensor F(X,Y,Z) = g_bar((nabla_X phi)Y, Z)
vanishes; then the Levi-Civita connections of g_bar and of the associated
metric g_bar(X, phi Y) + eta_bar(X) eta_bar(Y) coincide.  The sectional
invariants (nu, nu_tilde) are one exact solve of the lowered curvature
against the two basic curvature tensors A and B, which
``basic_curvature_tensors`` builds from curvature products of g_bar
twisted by phi.
"""

from __future__ import annotations

from functools import cached_property

from . import report
from .errors import GeometryError
from .liegeom import InvariantMetric
from .scalars import ONE, RationalFunction
from .tensors import (
    Frame,
    MultilinearForm,
    compose,
    curvature_product,
    outer,
    rank,
)


class ACBMStructure:
    def __init__(self, frame: Frame, phi: MultilinearForm, xi_bar: MultilinearForm,
                 eta_bar: MultilinearForm, metric: InvariantMetric):
        if frame.dimension % 2 == 0:
            raise GeometryError("an almost contact structure needs odd dimension")
        self.frame = frame
        self.phi = phi  # an operator: phi.cell(j) = phi(e_j)
        self.xi_bar = xi_bar  # a vector
        self.eta_bar = eta_bar  # a one-form
        self.metric = metric

    @property
    def n(self) -> int:
        return (self.frame.dimension - 1) // 2

    @cached_property
    def g_phi(self) -> MultilinearForm:
        """g_bar(X, phi Y)."""
        return self.metric.form.pull_slots(self.phi, (1,))

    @cached_property
    def g_phi_phi(self) -> MultilinearForm:
        """g_bar(phi X, phi Y)."""
        return self.metric.form.pull_all(self.phi)

    @cached_property
    def eta_eta(self) -> MultilinearForm:
        """eta_bar(X) eta_bar(Y)."""
        return outer(self.eta_bar, self.eta_bar)

    @cached_property
    def g_tilde(self) -> InvariantMetric:
        """The associated B-metric,
        g_tilde(X, Y) = g_bar(X, phi Y) + eta_bar(X) eta_bar(Y)."""
        return InvariantMetric(self.g_phi + self.eta_eta)


class CurvaturePair:
    """The two sectional invariants of thm-4.1: the lowered curvature is
    nu A + nu_tilde B for the basic curvature tensors A and B."""

    __slots__ = ("nu", "nu_tilde")

    def __init__(self, nu: RationalFunction, nu_tilde: RationalFunction):
        self.nu = nu
        self.nu_tilde = nu_tilde


def validate_acbm(s: ACBMStructure) -> list[report.CheckEntry]:
    """The eight defining axioms, each as one report entry; the signature
    they force is ``metric_signature_entry``."""
    frame, n, g = s.frame, s.n, s.metric.form
    anchor = "sec-2-structure"
    phi_rank = rank(s.phi.rows())
    return [
        report.compare("phi-squared", anchor,
                       s.phi.pull_slots(s.phi, (0,)) + MultilinearForm.identity(frame),
                       outer(s.eta_bar, s.xi_bar), "phi^2 = -Id + eta_bar (x) xi_bar"),
        report.compare("eta-of-xi", anchor, s.eta_bar.value(s.xi_bar), ONE,
                       "eta_bar(xi_bar) = 1"),
        report.compare("eta-after-phi", anchor, s.eta_bar.pull_slots(s.phi, (0,)),
                       MultilinearForm.zero(frame, 1), "eta_bar after phi vanishes"),
        report.compare("phi-of-xi", anchor, s.phi.apply(s.xi_bar),
                       MultilinearForm.zero(frame, 1), "phi(xi_bar) = 0"),
        report.compare("phi-rank", anchor, phi_rank, 2 * n,
                       f"rank phi = {phi_rank}, expected {2 * n}"),
        report.compare("b-metric", anchor, s.g_phi_phi + g, s.eta_eta,
                       "g(phi X, phi Y) = -g(X, Y) + eta_bar(X) eta_bar(Y)"),
        report.compare("eta-is-metric-dual", anchor, s.eta_bar, g.apply(s.xi_bar),
                       "eta_bar(X) = g(X, xi_bar)"),
        report.compare("xi-unit", anchor, g.value(s.xi_bar, s.xi_bar), ONE,
                       "g(xi_bar, xi_bar) = 1"),
    ]


def metric_signature_entry(s: ACBMStructure) -> report.CheckEntry:
    """The signature (n+1, n) of g_bar, forced once the axioms have passed
    on a nondegenerate metric: eta-is-metric-dual and xi-unit split the
    space g_bar-orthogonally as ker eta_bar + R xi_bar, and eta-after-phi
    with b-metric make phi an anti-isometry of ker eta_bar, which swaps its
    positive and negative directions, so by Sylvester's law g_bar has
    signature (n, n) there."""
    n = s.n
    return report.passed(
        "metric-signature", "sec-2-structure",
        f"signature ({n + 1},{n}): phi swaps the signs of g on ker eta_bar, "
        "and g(xi_bar, xi_bar) = 1")


def associated_compat_entry(s: ACBMStructure) -> report.CheckEntry:
    """g_tilde(X, phi Y) + eta_bar(X) eta_bar(Y) = -g_bar(X,Y) + 2 eta_bar eta_bar."""
    return report.compare(
        "associated-metric-twist", "sec-2-structure",
        s.g_tilde.form.pull_slots(s.phi, (1,)) + s.eta_eta,
        s.eta_eta.scale(2) - s.metric.form,
        "twisting the associated metric recovers -g_bar + 2 eta_bar^2")


def fundamental_tensor(s: ACBMStructure, gamma: MultilinearForm) -> MultilinearForm:
    """F(X,Y,Z) = g_bar((nabla_X phi) Y, Z) on the frame."""
    # (nabla_X phi) Y = nabla_X (phi Y) - phi (nabla_X Y)
    nabla_phi_y = gamma.pull_slots(s.phi, (1,))
    phi_nabla_y = compose(gamma, s.phi)
    return (nabla_phi_y - phi_nabla_y).pull_slots(s.metric.form, (2,))


def basic_curvature_tensors(s: ACBMStructure) -> tuple[MultilinearForm, MultilinearForm]:
    """The basic curvature tensors of thm-4.1,

        A = pi_1 after phi - pi_2,   B = pi_3 after phi,

    where pi_1 = P(g, g), pi_2 = P(g phi, g phi) and
    pi_3 = -P(g phi, g) - P(g, g phi) for the curvature product P, with
    g phi = g_bar(X, phi Y).  Phi pulled into every slot of P(a, b) is P of
    a and b with phi pulled into both of their slots.
    """
    g_phi, g_2 = s.g_phi, s.g_phi_phi
    g_phi_2 = g_phi.pull_all(s.phi)
    return (curvature_product(g_2, g_2) - curvature_product(g_phi, g_phi),
            -curvature_product(g_phi_2, g_2) - curvature_product(g_2, g_phi_2))


def constant_curvature_residual(r4: MultilinearForm,
                                basis: tuple[MultilinearForm, MultilinearForm],
                                pair: CurvaturePair) -> report.CheckEntry:
    """The lowered curvature r4 against nu A + nu_tilde B for the basic
    curvature tensors (A, B); on a mismatch the entry reports the residual
    r4 minus the form.

    ``bench/tracing.py`` times this step by this name.
    """
    a, b = basis
    return report.compare(
        "constant-curvature-form", "thm-4.1", r4,
        a.scale(pair.nu) + b.scale(pair.nu_tilde),
        "the lowered curvature is the two-invariant combination of the "
        "basic curvature tensors")
