"""The second induced metric on the same submanifold and its geometry.

The ambient structure carries a twin metric obtained by twisting with the
structure operator.  On a certified submanifold frame that twin restricts
to a nondegenerate metric on the tangent space, turning the same frame
into a semi-Riemannian submanifold of codimension two with two genuine
normals.  This module rebuilds that geometry along three independent
routes, cross-checks them against each other, and evaluates the
closed-form curvature identities of the catalog as exact residuals.
The direct route is the ``lightlike.Splitting`` over (tangent, N1, N2),
the twin counterpart of the frame's splitting over (tangent, N, L).  The
five equivalent assertions of thm-4.6 are decided from the induced and
twin curvatures, as six report entries.  They and the twin closed forms of
eq-21, eq-22 and eq-24 read one ``lightlike.ScreenUmbilical`` value.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .liegeom import CurvatureTensor, InvariantMetric, levi_civita
from .lightlike import (
    InducedObjects,
    ScreenUmbilical,
    SubmanifoldFrame,
    Splitting,
    UmbilicityReport,
    proportionality_factor,
)
from .report import CheckEntry, compare, passed
from .scalars import HALF, ONE, ZERO, RationalFunction, rf
from .tensors import (
    MultilinearForm,
    curvature_product,
    outer,
    rank,
)


class AssociatedObjects:
    """The twin normals, and the twin metric, connection and second forms,
    built on first read: once the five twin conditions have passed, neither
    the restricted twin metric nor the split over (T, N1, N2) raises."""

    def __init__(self, f: SubmanifoldFrame, mu: RationalFunction,
                 ambient_gamma: MultilinearForm):
        xi_bar = f.structure.xi_bar
        self.n1 = xi_bar - f.l_vec  # the twin normals, vectors
        self.n2 = xi_bar.scale(rf(2)) - f.n_vec.scale(mu * 2) - f.l_vec
        self.frame = f
        self.ambient_gamma = ambient_gamma

    @cached_property
    def metric(self) -> InvariantMetric:
        return InvariantMetric(self.frame.twin_form)

    @cached_property
    def parts(self) -> tuple:
        """The ambient connection and its derivatives of N1 and N2, split
        over (tangent, N1, N2)."""
        return Splitting(self.frame, (self.n1, self.n2)).connection_parts(
            self.ambient_gamma)

    @property
    def gamma(self) -> MultilinearForm:
        """The twin connection."""
        return self.parts[0][0]

    @property
    def h1(self) -> MultilinearForm:
        return self.parts[0][1]

    @property
    def h2(self) -> MultilinearForm:
        return self.parts[0][2]

    @cached_property
    def shape_n1(self) -> MultilinearForm:
        return -self.parts[1][0]

    @cached_property
    def shape_n2(self) -> MultilinearForm:
        return -self.parts[2][0]

    @cached_property
    def twin_umbilicity(self) -> tuple[Optional[RationalFunction],
                                       Optional[RationalFunction]]:
        """Proportionality factors of h1 and h2 against the twin metric."""
        return (proportionality_factor(self.h1, self.metric.form),
                proportionality_factor(self.h2, self.metric.form))


def build_associated(f: SubmanifoldFrame, obj: InducedObjects,
                     mu: RationalFunction,
                     ambient_gamma: MultilinearForm) -> tuple[AssociatedObjects, tuple]:
    """The twin geometry and the conditions of its three-route build, in
    catalog order, as (preconditions, conditions).  The five preconditions
    make (T, N1, N2) a basis, on which the geometry is read.

    Route one evaluates the catalogued conversion formulas from the first
    fundamental form.  Route two splits the ambient connection and its
    derivatives of the normals over (tangent, N1, N2); it is the twin
    geometry every later entry reads.  Route three runs the Koszul formula
    for the restricted twin metric.  A route that disagrees with the split
    fails its condition with the residual and blocks nothing.
    """
    s = f.structure
    assoc = AssociatedObjects(f, mu, ambient_gamma)
    n1, n2 = assoc.n1, assoc.n2
    # g~ as its table: ACBMStructure.g_tilde also inverts it, so it rejects
    # the asymmetric or singular g~ of a phi the twin entries still decide
    gt = s.g_phi + s.eta_eta
    zero_form = MultilinearForm.zero(f.tangent_frame, 1)
    xi_idx = f.radical_index
    gt_form = f.twin_form
    rad_norm = gt_form.entry(xi_idx, xi_idx)
    inv_mu = ONE / mu
    return assoc, ((
        ("twin-normal-one-unit", "thm-1.1", lambda: (
            gt.value(n1, n1), ONE, "g~(N1, N1) = 1")),
        ("twin-normal-two-unit", "thm-1.1", lambda: (
            gt.value(n2, n2), -ONE, "g~(N2, N2) = -1")),
        ("twin-normals-orthogonal", "thm-1.1", lambda: (
            gt.value(n1, n2), ZERO, "g~(N1, N2) = 0")),
        ("twin-normals-transverse", "thm-1.1", lambda: (
            (f.restrict(gt.apply(n1)), f.restrict(gt.apply(n2))), (zero_form, zero_form),
            "both normals are g~-orthogonal to the tangent space")),
        ("twin-metric-nondegenerate", "thm-1.1", lambda: (
            rank(gt_form.rows()) == f.tangent_frame.dimension, True,
            "the twin metric restricts without kernel to the tangent space")),
    ), (
        ("twin-splitting-orthogonal", "thm-1.1", lambda: (
            gt_form.at(xi_idx), f.eta.scale(rad_norm),
            "screen and radical are g~-orthogonal")),
        ("twin-radical-spacelike", "thm-1.1", lambda: (
            rad_norm, mu * mu, "g~(xi, xi) = mu^2, positive for every real mu != 0")),
        # phi P is a g~-anti-isometry of the nondegenerate screen, so the
        # screen has g~-signature (n - 1, n - 1)
        ("twin-screen-signature", "thm-1.1", lambda: (
            gt_form.pull_all(f.phi_p), -gt_form.pull_all(f.projector),
            "g~(phi PX, phi PY) = -g~(PX, PY), so the screen has split g~-signature")),
        # the N1 and N2 parts of the derivatives of both normals
        ("twin-weingarten-tangency", "sec-2-twin", lambda: (
            tuple(p for parts in assoc.parts[1:] for p in parts[1:]), (zero_form,) * 4,
            "the derivatives of both normals are purely tangent")),
        ("twin-connection-formula", "eq-2.11", lambda: (
            obj.gamma + outer((obj.b_form.scale(HALF) + obj.b_phi).scale(inv_mu * inv_mu),
                              f.radical_tangent), assoc.gamma,
            "the twin connection equals the induced connection plus the "
            "radical correction term")),
        ("twin-connection-koszul", "eq-2.11", lambda: (
            levi_civita(f.tangent_brackets, assoc.metric), assoc.gamma,
            "the Koszul formula for the restricted twin metric returns the "
            "same connection")),
        ("twin-second-form-one", "eq-2.12", lambda: (
            assoc.h1, obj.b_form.scale(inv_mu), "h1 = (1/mu) B")),
        ("twin-second-form-two", "eq-2.12", lambda: (
            assoc.h2, (obj.b_form + obj.b_phi).scale(-inv_mu),
            "h2 = -(1/mu)(B + B(., phi P.))")),
        ("twin-shape-one", "eq-2.12", lambda: (
            assoc.shape_n1, obj.phi_shape_rad.scale(-inv_mu), "A~_N1 = -(1/mu) phi A*_xi")),
        ("twin-shape-two", "eq-2.12", lambda: (
            assoc.shape_n2, (obj.shape_rad - obj.phi_shape_rad).scale(inv_mu),
            "A~_N2 = (1/mu)(A*_xi - phi A*_xi)")),
        ("twin-h1-symmetric", "sec-2-twin", lambda: (
            assoc.h1, assoc.h1.permute((1, 0)), "h1 is symmetric")),
        ("twin-h2-symmetric", "sec-2-twin", lambda: (
            assoc.h2, assoc.h2.permute((1, 0)), "h2 is symmetric")),
        ("twin-shape-duality", "sec-2-twin", lambda: (
            (assoc.h1, assoc.h2), (gt_form.pull_slots(assoc.shape_n1, (0,)),
                                   -gt_form.pull_slots(assoc.shape_n2, (0,))),
            "h1(X, Y) = g~(A~_N1 X, Y) and h2(X, Y) = -g~(A~_N2 X, Y)")),
    ))


def tilde_relation_13_entry(f: SubmanifoldFrame, obj: InducedObjects,
                            mu: RationalFunction, curv: CurvatureTensor,
                            tilde_curv: CurvatureTensor) -> CheckEntry:
    b_phi = obj.b_phi
    inv_mu2 = ONE / (mu * mu)
    rhs = (curv.table
           + curvature_product(obj.shape_n, obj.b_form + b_phi.scale(2))
           + curvature_product(outer(obj.tau, f.radical_tangent),
                               (obj.b_form.scale(HALF) + b_phi).scale(inv_mu2))
           + outer((obj.cd_b.scale(HALF) + obj.cd_b_phi).skew().scale(inv_mu2),
                   f.radical_tangent))
    return compare(
        "twin-curvature-transfer", "eq-13", tilde_curv.table, rhs,
        "the twin curvature equals the induced curvature plus shape and "
        "derivative corrections")


def tilde_ricci_14_entry(f: SubmanifoldFrame, obj: InducedObjects,
                         mu: RationalFunction, ric: MultilinearForm,
                         tilde_ric: MultilinearForm) -> CheckEntry:
    xi_idx = f.radical_index
    b_form, b_phi = obj.b_form, obj.b_phi
    b_n = b_form.pull_slots(obj.shape_n, (0,))
    tau_xi = obj.tau.entry(xi_idx)
    inv_mu2 = ONE / (mu * mu)
    rhs = (ric + (b_form + b_phi.scale(2)).scale(obj.shape_n.trace())
           - b_n - b_n.pull_slots(f.phi_p, (1,)).scale(2)
           + (obj.cd_b.skew().at(xi_idx) + b_form.scale(tau_xi)).scale(
               inv_mu2 * HALF)
           + (obj.cd_b_phi.skew().at(xi_idx) + b_phi.scale(tau_xi)).scale(inv_mu2))
    return compare(
        "twin-ricci-transfer", "eq-14", tilde_ric, rhs,
        "the twin Ricci tensor equals the induced one plus trace corrections")


def tilde_form_21_entry(f: SubmanifoldFrame, tilde_curv: CurvatureTensor,
                        screen: ScreenUmbilical) -> CheckEntry:
    gp = f.phi_pairing
    nu, mg2 = screen.nu, screen.mg2
    coeff = nu - mg2 * 4
    rhs = (curvature_product(f.projector, f.induced_form.scale(coeff) - gp.scale(mg2 * 4)
                             - f.eta_eta.scale(nu))
           - curvature_product(f.phi_p, gp.scale(coeff))
           - curvature_product(f.radical_part, gp.scale(nu)))
    return compare(
        "twin-umbilic-curvature-form", "eq-21", tilde_curv.table, rhs,
        "the twin curvature collapses to the screen umbilical normal form")


def tilde_ricci_22_entries(f: SubmanifoldFrame, tilde_ric: MultilinearForm,
                           screen: ScreenUmbilical) -> list[CheckEntry]:
    """The twin Ricci normal form, plus the adjudication of its last term.

    The catalog carries two candidate readings of the final coefficient:
    the literal one, -2(n-1), and the one carrying the sectional factor,
    -2(n-1) nu.  The direct computation is the referee; the second reading
    is the adopted one.
    """
    nu, mg2, n = screen.nu, screen.mg2, screen.n
    k1 = (nu - mg2 * 4) * (2 * (n - 2))
    k2 = -(nu + mg2 * (4 * (2 * n - 3)))
    base = f.induced_form.scale(k1) + f.phi_pairing.scale(k2)
    adopted = base + f.eta_eta.scale(-(nu * (2 * (n - 1))))
    match_adopted = tilde_ric == adopted
    match_literal = tilde_ric == base + f.eta_eta.scale(rf(-2 * (n - 1)))
    if match_adopted and match_literal:
        detail = ("the direct twin Ricci tensor matches both readings of the "
                  "last coefficient, they coincide because nu = 1")
    elif match_adopted:
        detail = ("the direct twin Ricci tensor selects the reading whose "
                  "last coefficient carries the sectional factor nu")
    elif match_literal:
        detail = ("the direct twin Ricci tensor selects the literal reading "
                  "without the sectional factor")
    else:
        detail = "the direct twin Ricci tensor matches neither reading"
    return [compare(
        "twin-umbilic-ricci-form", "eq-22", tilde_ric, adopted,
        "Ric~ = 2(n-2)(nu - 4mu^2 gamma^2) g - [nu + 4(2n-3) mu^2 gamma^2] "
        "g(., phi .) - 2(n-1) nu eta x eta"),
        compare("twin-ricci-last-term", "eq-22", tilde_ric, adopted, detail)]


def semisym_closed_24(f: SubmanifoldFrame, screen: ScreenUmbilical) -> MultilinearForm:
    g = f.induced_form
    gp = f.phi_pairing
    nu, mg2, n = screen.nu, screen.mg2, screen.n
    gap = nu - mg2 * 4
    u = f.eta_eta.scale(nu * gap * (2 * n - 3))
    v = (gp.scale(mg2 * 4) + f.eta_eta.scale(nu)).scale(gap * (2 * (n - 2)))
    return (curvature_product(gp, u) - curvature_product(u, gp)
            + curvature_product(g, v) - curvature_product(v, g))


def semisym_24_entry(f: SubmanifoldFrame, tilde_curv: CurvatureTensor,
                     screen: ScreenUmbilical) -> CheckEntry:
    """The action of tilde_curv on its own Ricci tensor against eq. (24)."""
    return compare(
        "twin-ricci-action-closed-form", "eq-24", tilde_curv.ricci_action,
        semisym_closed_24(f, screen),
        "the twin curvature action on Ric~ matches its closed form")


def geodesic_correspondence_entries(assoc: AssociatedObjects,
                                    rep: UmbilicityReport) -> list[CheckEntry]:
    """Totally geodesic and totally umbilical transfer statements."""
    tg_first, stg = rep.totally_geodesic, rep.screen_totally_geodesic
    tg_twin = assoc.h1.is_zero() and assoc.h2.is_zero()
    a1, a2 = assoc.twin_umbilicity
    tu_twin = a1 is not None and a2 is not None
    entries = [compare(
        "geodesic-correspondence", "prop-3.3", tg_first, tg_twin,
        "both submanifolds are totally geodesic together")]
    for name, umbilical, kind in (("umbilical-collapse", rep.totally_umbilical, "first"),
                                  ("twin-umbilical-collapse", tu_twin, "twin")):
        if umbilical:
            entries.append(compare(
                name, "prop-3.3", (tg_first, stg, tg_twin), (True, True, True),
                f"a totally umbilical {kind} metric collapses everything to geodesic"))
        else:
            entries.append(passed(
                name, "prop-3.3", f"vacuous, the {kind} metric is not totally umbilical"))
    return entries


def curvature_transfer_entry(rep: UmbilicityReport, assoc: AssociatedObjects,
                             curv: CurvatureTensor, tilde_curv: CurvatureTensor
                             ) -> CheckEntry:
    a1, a2 = assoc.twin_umbilicity
    if not rep.totally_umbilical and (a1 is None or a2 is None):
        return passed(
            "umbilical-curvature-transfer", "cor-3.5",
            "vacuous, neither induced metric is totally umbilical")
    return compare(
        "umbilical-curvature-transfer", "cor-3.5", (curv.table, curv.ricci),
        (tilde_curv.table, tilde_curv.ricci),
        "a totally umbilical metric forces R = R~ and Ric = Ric~")


def umbilical_flatness_entry(rep: UmbilicityReport, curv: CurvatureTensor,
                             ambient_curv: CurvatureTensor) -> CheckEntry:
    """A totally umbilical submanifold of a space with both sectional
    invariants constant must be flat, together with its ambient space."""
    if not rep.totally_umbilical:
        return passed(
            "umbilical-flatness", "cor-4.3",
            "vacuous, the first metric is not totally umbilical")
    return compare(
        "umbilical-flatness", "cor-4.3", (curv.table, ambient_curv.table),
        (MultilinearForm.zero(curv.table.frame, 4),
         MultilinearForm.zero(ambient_curv.table.frame, 4)),
        "a totally umbilical submanifold and its ambient space are flat")


THEOREM_NAMES = ("assertion-ricci-semisymmetric", "assertion-twin-ricci-semisymmetric",
                 "assertion-eta-einstein", "assertion-einstein",
                 "assertion-scalar-identity", "assertion-equivalence")


def theorem_aggregate(curv: CurvatureTensor, tilde_curv: CurvatureTensor,
                      screen: ScreenUmbilical,
                      eta_constants: Optional[tuple[RationalFunction, RationalFunction]],
                      einstein_constant: Optional[RationalFunction]) -> list[CheckEntry]:
    """The five assertions for curv, tilde_curv and their Ricci tensors,
    and their equivalence, as six entries.

    eta_constants and einstein_constant are the solutions of the two
    Einstein-type systems (``Geometry.eta_einstein`` and ``einstein`` in
    ``suite``), None where a system has none.  Every invariant scalar is
    constant on each group of the family, so exact solvability alone
    decides those assertions.
    """
    truths = (curv.ricci_action.is_zero(), tilde_curv.ricci_action.is_zero(),
              eta_constants is not None, einstein_constant is not None,
              screen.nu == screen.mg2 * 4)
    if eta_constants is not None:
        k, c = eta_constants
        eta_detail = f"(iii) Ric = k g + c eta x eta with k = {k}, c = {c}"
    else:
        eta_detail = "(iii) the induced Ricci tensor admits no such decomposition"
    if einstein_constant is not None:
        einstein_detail = f"(iv) Ric~ = lambda g~ with lambda = {einstein_constant}"
    else:
        einstein_detail = "(iv) the twin Ricci tensor is not proportional to the twin metric"
    details = ("(i) the curvature action annihilates the induced Ricci tensor",
               "(ii) the twin curvature action annihilates the twin Ricci tensor",
               eta_detail, einstein_detail, "(v) nu = 4 mu^2 gamma^2")
    entries = [compare(name, "thm-4.6", truth, True, detail)
               for name, truth, detail in zip(THEOREM_NAMES, truths, details)]
    return entries + [compare(
        "assertion-equivalence", "thm-4.6", len(set(truths)) == 1, True,
        "all five assertions carry the same truth value: "
        + ", ".join(str(t).lower() for t in truths))]
