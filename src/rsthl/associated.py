"""The second induced metric on the same submanifold and its geometry.

The ambient structure carries a twin metric obtained by twisting with the
structure operator.  On a certified submanifold frame that twin restricts
to a nondegenerate metric on the tangent space, turning the same frame
into a semi-Riemannian submanifold of codimension two with two genuine
normals.  This module rebuilds that geometry along three independent
routes, cross-checks them against each other, and evaluates the
closed-form curvature identities of the catalog as exact residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import (
    CrossCheckMismatch,
    DegenerateMetric,
    InconsistentSystem,
    NotEinstein,
    UnderdeterminedSystem,
)
from .liegeom import Connection, CurvatureTensor, InvariantMetric, curvature, levi_civita
from .lightlike import (
    InducedObjects,
    SubmanifoldFrame,
    UmbilicityReport,
    adapted_coordinates,
    proportionality_factor,
)
from .report import CheckEntry, compare, passed, residual_suffix
from .scalars import ONE, ZERO, RationalFunction, rf
from .structure import CurvaturePair
from .tensors import (
    MultilinearForm,
    Vector,
    curvature_product,
    determinant,
    inertia,
    outer,
    pick_regular_sample,
    solve_unique,
)


@dataclass(frozen=True)
class AssociatedObjects:
    """The twin metric with its normals, connection and second forms."""

    metric: InvariantMetric
    n1: Vector
    n2: Vector
    conn: Connection
    h1: MultilinearForm
    h2: MultilinearForm
    shape_n1: MultilinearForm
    shape_n2: MultilinearForm

    @cached_property
    def twin_umbilicity(self) -> tuple[Optional[RationalFunction],
                                       Optional[RationalFunction]]:
        """Proportionality factors of h1 and h2 against the twin metric."""
        return (proportionality_factor(self.h1, self.metric.form),
                proportionality_factor(self.h2, self.metric.form))


def build_associated(f: SubmanifoldFrame, obj: InducedObjects,
                     mu: RationalFunction,
                     ambient_conn: Connection) -> tuple[AssociatedObjects, list[CheckEntry]]:
    """Construct the twin geometry three ways and insist they agree.

    Route one evaluates the catalogued conversion formulas from the first
    fundamental form.  Route two splits the ambient derivatives over the
    tangent space and the two normals.  Route three runs the Koszul
    formula for the restricted twin metric.  Any disagreement raises
    CrossCheckMismatch; agreement is recorded as entries.
    """
    s = f.model.structure
    gt_ambient = s.g_tilde
    m = f.dim
    tf = f.tangent_frame
    zero_form = MultilinearForm.zero(tf, 1)

    n1 = s.xi_bar - f.l_vec
    n2 = s.xi_bar.scale(rf(2)) - f.n_vec.scale(mu * 2) - f.l_vec

    def on_tangent(n: Vector) -> MultilinearForm:
        """The one-form X -> g~(n, X) on the tangent frame."""
        return MultilinearForm(tf, 1, tuple(
            gt_ambient.value(n, t) for t in f.tangent_vectors))

    gt_form = MultilinearForm.from_function(
        tf, 2,
        lambda a, b: gt_ambient.value(f.tangent_vectors[a], f.tangent_vectors[b]))
    gt = InvariantMetric(gt_form)
    xi_idx = f.radical_index
    rad_norm = gt_form.entry(xi_idx, xi_idx)
    entries = [
        compare("twin-normal-one-unit", "thm-1.1", gt_ambient.value(n1, n1), ONE,
                "g~(N1, N1) = 1"),
        compare("twin-normal-two-unit", "thm-1.1", gt_ambient.value(n2, n2), -ONE,
                "g~(N2, N2) = -1"),
        compare("twin-normals-orthogonal", "thm-1.1", gt_ambient.value(n1, n2), ZERO,
                "g~(N1, N2) = 0"),
        compare("twin-normals-transverse", "thm-1.1",
                (on_tangent(n1), on_tangent(n2)), (zero_form, zero_form),
                "both normals are g~-orthogonal to the tangent space"),
        passed("twin-metric-nondegenerate", "thm-1.1",
               "the twin metric restricts without kernel to the tangent space"),
        compare("twin-splitting-orthogonal", "thm-1.1", gt_form.at(xi_idx),
                f.eta.scale(rad_norm), "screen and radical are g~-orthogonal"),
    ]
    screen_rows = [[gt_form.entry(a, b) for b in range(m - 1)] for a in range(m - 1)]
    avoid = [rad_norm]
    if screen_rows:
        avoid.append(determinant(screen_rows))
    sample = pick_regular_sample(
        avoid, must_be_defined=[e for row in screen_rows for e in row])
    entries.append(compare(
        "twin-radical-spacelike", "thm-1.1", rad_norm.eval_at(sample) > 0, True,
        f"g~(xi, xi) = {rad_norm} is positive at mu = {sample}"))
    if screen_rows:
        pos, neg, zero = inertia([[e.eval_at(sample) for e in row]
                                  for row in screen_rows])
        half = (m - 1) // 2
        entries.append(compare(
            "twin-screen-signature", "thm-1.1", (pos, neg, zero), (half, half, 0),
            f"screen signature at mu = {sample} is ({pos}, {neg})"))
    else:
        entries.append(passed("twin-screen-signature", "thm-1.1",
                              "the screen is zero-dimensional"))

    xi_t = f.radical_tangent()
    inv_mu = ONE / mu
    inv_mu2 = inv_mu * inv_mu
    b_phi = obj.b_phi
    conn_formula = Connection(tf, MultilinearForm.from_cells(
        tf, 3,
        lambda a, b: obj.conn.gamma.cell(a, b) + xi_t.scale(
            inv_mu2 * (obj.b_form.entry(a, b) * rf("1/2") + b_phi.entry(a, b)))))
    h1_formula = obj.b_form.scale(inv_mu)
    h2_formula = (obj.b_form + b_phi).scale(-inv_mu)
    phi_rad = f.phi_p.pull_slots(obj.shape_rad, (0,))
    shape1_formula = phi_rad.scale(-inv_mu)
    shape2_formula = (obj.shape_rad - phi_rad).scale(inv_mu)

    try:
        coordinates = adapted_coordinates(f.tangent_vectors + (n1, n2))
    except DegenerateMetric as exc:
        raise CrossCheckMismatch(
            "the tangent space and the twin normals do not span the ambient "
            "space") from exc

    def split(v: Vector) -> tuple[Vector, RationalFunction, RationalFunction]:
        coeffs = coordinates.apply(v).components
        return Vector(tf, coeffs[:m]), coeffs[m], coeffs[m + 1]

    nabla = ambient_conn.gamma.apply
    gauss = [[split(nabla(t, u)) for u in f.tangent_vectors]
             for t in f.tangent_vectors]
    conn_direct = Connection(tf, MultilinearForm.from_cells(
        tf, 3, lambda a, b: gauss[a][b][0]))
    h1_direct = MultilinearForm.from_function(tf, 2, lambda a, b: gauss[a][b][1])
    h2_direct = MultilinearForm.from_function(tf, 2, lambda a, b: gauss[a][b][2])

    weingarten = [[split(nabla(t, n)) for t in f.tangent_vectors]
                  for n in (n1, n2)]
    shape1_direct, shape2_direct = (
        MultilinearForm.from_cells(tf, 2, lambda a: -cols[a][0])
        for cols in weingarten)

    conn_koszul = levi_civita(f.tangent_algebra, gt)
    for route, conn in (("conversion formula", conn_formula),
                        ("Koszul formula", conn_koszul)):
        if conn.gamma != conn_direct.gamma:
            raise CrossCheckMismatch(
                f"twin connection from the {route} and from the ambient split "
                "differ" + residual_suffix(conn.gamma, conn_direct.gamma))
    entries += [
        # the N1 and N2 parts of the derivatives of both normals
        compare("twin-weingarten-tangency", "sec-2-twin",
                tuple(MultilinearForm(tf, 1, tuple(part[k] for part in cols))
                      for cols in weingarten for k in (1, 2)), (zero_form,) * 4,
                "the derivatives of both normals are purely tangent"),
        passed("twin-connection-formula", "eq-2.11",
               "the twin connection equals the induced connection plus the "
               "radical correction term"),
        passed("twin-connection-koszul", "plumbing",
               "the Koszul formula for the restricted twin metric returns the "
               "same connection"),
        compare("twin-second-form-one", "eq-2.12", h1_direct, h1_formula,
                "h1 = (1/mu) B"),
        compare("twin-second-form-two", "eq-2.12", h2_direct, h2_formula,
                "h2 = -(1/mu)(B + B(., phi P.))"),
        compare("twin-shape-one", "eq-2.12", shape1_direct, shape1_formula,
                "A~_N1 = -(1/mu) phi A*_xi"),
        compare("twin-shape-two", "eq-2.12", shape2_direct, shape2_formula,
                "A~_N2 = (1/mu)(A*_xi - phi A*_xi)"),
        compare("twin-h1-symmetric", "sec-2-twin", h1_direct, h1_direct.permute((1, 0)),
                "h1 is symmetric"),
        compare("twin-h2-symmetric", "sec-2-twin", h2_direct, h2_direct.permute((1, 0)),
                "h2 is symmetric"),
        compare("twin-shape-duality", "sec-2-twin", (h1_direct, h2_direct),
                (gt_form.pull_slots(shape1_direct, (0,)),
                 -gt_form.pull_slots(shape2_direct, (0,))),
                "h1(X, Y) = g~(A~_N1 X, Y) and h2(X, Y) = -g~(A~_N2 X, Y)"),
    ]

    assoc = AssociatedObjects(metric=gt, n1=n1, n2=n2, conn=conn_direct,
                              h1=h1_direct, h2=h2_direct,
                              shape_n1=shape1_direct, shape_n2=shape2_direct)
    return assoc, entries


def tilde_curvature(f: SubmanifoldFrame, assoc: AssociatedObjects) -> CurvatureTensor:
    return curvature(assoc.conn, f.tangent_algebra)


def tilde_relation_13_entry(f: SubmanifoldFrame, obj: InducedObjects,
                            mu: RationalFunction, curv: CurvatureTensor,
                            tilde_curv: CurvatureTensor) -> CheckEntry:
    b_phi = obj.b_phi
    inv_mu2 = ONE / (mu * mu)
    half = rf("1/2")
    rhs = (curv.table
           + curvature_product(obj.shape_n, obj.b_form + b_phi.scale(2))
           + curvature_product(outer(obj.tau, f.radical_tangent()),
                               (obj.b_form.scale(half) + b_phi).scale(inv_mu2))
           + outer((obj.cd_b.scale(half) + obj.cd_b_phi).skew().scale(inv_mu2),
                   f.radical_tangent()))
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
    tau_xi = obj.tau.entries[xi_idx]
    inv_mu2 = ONE / (mu * mu)
    rhs = (ric + (b_form + b_phi.scale(2)).scale(obj.shape_n.trace())
           - b_n - b_n.pull_slots(f.phi_p, (1,)).scale(2)
           + (obj.cd_b.skew().at(xi_idx) + b_form.scale(tau_xi)).scale(
               inv_mu2 * rf("1/2"))
           + (obj.cd_b_phi.skew().at(xi_idx) + b_phi.scale(tau_xi)).scale(inv_mu2))
    return compare(
        "twin-ricci-transfer", "eq-14", tilde_ric, rhs,
        "the twin Ricci tensor equals the induced one plus trace corrections")


def tilde_form_21_entry(f: SubmanifoldFrame, tilde_curv: CurvatureTensor,
                        pair: CurvaturePair, gamma_screen: RationalFunction,
                        mu: RationalFunction) -> CheckEntry:
    g = f.induced_form
    gp = f.phi_pairing
    nu = pair.nu
    mg2 = mu * mu * gamma_screen * gamma_screen
    coeff = nu - mg2 * 4
    rhs = (curvature_product(f.projector, g.scale(coeff) - gp.scale(mg2 * 4)
                             - outer(f.eta_bar, f.eta_bar).scale(nu))
           - curvature_product(f.phi_p, gp.scale(coeff))
           - curvature_product(outer(f.eta, f.radical_tangent()), gp.scale(nu)))
    return compare(
        "twin-umbilic-curvature-form", "eq-21", tilde_curv.table, rhs,
        "the twin curvature collapses to the screen umbilical normal form")


def tilde_ricci_22_entries(f: SubmanifoldFrame, tilde_ric: MultilinearForm,
                           pair: CurvaturePair, gamma_screen: RationalFunction,
                           mu: RationalFunction, n: int) -> list[CheckEntry]:
    """The twin Ricci normal form, plus the adjudication of its last term.

    The catalog carries two candidate readings of the final coefficient:
    the literal one, -2(n-1), and the one carrying the sectional factor,
    -2(n-1) nu.  The direct computation is the referee; the second reading
    is the adopted one.
    """
    g = f.induced_form
    gp = f.phi_pairing
    nu = pair.nu
    mg2 = mu * mu * gamma_screen * gamma_screen
    k1 = (nu - mg2 * 4) * (2 * (n - 2))
    k2 = -(nu + mg2 * (4 * (2 * n - 3)))
    base = g.scale(k1) + gp.scale(k2)
    eta_eta = outer(f.eta_bar, f.eta_bar)
    adopted = base + eta_eta.scale(-(nu * (2 * (n - 1))))
    match_adopted = tilde_ric == adopted
    match_literal = tilde_ric == base + eta_eta.scale(rf(-2 * (n - 1)))
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


def einstein_solve(f: SubmanifoldFrame, assoc: AssociatedObjects,
                   tilde_ric: MultilinearForm) -> RationalFunction:
    """Solve Ric~ = lambda g~ exactly over the tangent frame."""
    rows = []
    rhs = []
    for a in range(f.dim):
        for b in range(f.dim):
            rows.append([assoc.metric.entry(a, b)])
            rhs.append(tilde_ric.entry(a, b))
    try:
        (lam,) = solve_unique(rows, rhs)
    except InconsistentSystem as exc:
        raise NotEinstein(
            "the twin Ricci tensor is not proportional to the twin metric") from exc
    except UnderdeterminedSystem as exc:
        raise NotEinstein("the twin metric vanishes on this frame") from exc
    return lam


def semisym_closed_24(f: SubmanifoldFrame, pair: CurvaturePair,
                      gamma_screen: RationalFunction, mu: RationalFunction,
                      n: int) -> MultilinearForm:
    g = f.induced_form
    gp = f.phi_pairing
    nu = pair.nu
    mg2 = mu * mu * gamma_screen * gamma_screen
    gap = nu - mg2 * 4
    eta_eta = outer(f.eta_bar, f.eta_bar)
    u = eta_eta.scale(nu * gap * (2 * n - 3))
    v = (gp.scale(mg2 * 4) + eta_eta.scale(nu)).scale(gap * (2 * (n - 2)))
    return (curvature_product(gp, u) - curvature_product(u, gp)
            + curvature_product(g, v) - curvature_product(v, g))


def semisym_24_entry(f: SubmanifoldFrame, tilde_curv: CurvatureTensor,
                     pair: CurvaturePair, gamma_screen: RationalFunction,
                     mu: RationalFunction, n: int) -> CheckEntry:
    """The action of tilde_curv on its own Ricci tensor against eq. (24)."""
    direct = tilde_curv.ricci_action
    closed = semisym_closed_24(f, pair, gamma_screen, mu, n)
    return compare(
        "twin-ricci-action-closed-form", "eq-24", direct, closed,
        "the twin curvature action on Ric~ matches its closed form")


def geodesic_correspondence_entries(obj: InducedObjects,
                                    assoc: AssociatedObjects,
                                    rep: UmbilicityReport) -> list[CheckEntry]:
    """Totally geodesic and totally umbilical transfer statements."""
    tg_first = obj.b_form.is_zero() and obj.d_form.is_zero()
    tg_twin = assoc.h1.is_zero() and assoc.h2.is_zero()
    stg = obj.c_form.is_zero()
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
        (MultilinearForm.zero(curv.frame, 4),
         MultilinearForm.zero(ambient_curv.frame, 4)),
        "a totally umbilical submanifold and its ambient space are flat")


@dataclass(frozen=True)
class TheoremAggregate:
    """Truth values of the five equivalent assertions."""

    ricci_semisymmetric: bool
    twin_ricci_semisymmetric: bool
    eta_einstein: bool
    einstein: bool
    scalar_identity: bool
    eta_constants: Optional[tuple[RationalFunction, RationalFunction]]
    einstein_constant: Optional[RationalFunction]

    def all_equal(self) -> bool:
        values = (self.ricci_semisymmetric, self.twin_ricci_semisymmetric,
                  self.eta_einstein, self.einstein, self.scalar_identity)
        return len(set(values)) == 1


def theorem_aggregate(curv: CurvatureTensor, tilde_curv: CurvatureTensor,
                      pair: CurvaturePair, gamma_screen: RationalFunction,
                      mu: RationalFunction,
                      eta_constants: Optional[tuple[RationalFunction, RationalFunction]],
                      einstein_constant: Optional[RationalFunction]) -> TheoremAggregate:
    """Decide the five assertions for curv, tilde_curv and their Ricci tensors.

    eta_constants and einstein_constant are the solutions of the two
    Einstein-type systems (``eta_einstein_solve``, ``einstein_solve``), None
    where a system has none.  Every invariant scalar is constant on each
    group of the family, so exact solvability alone decides those assertions.
    """
    return TheoremAggregate(
        ricci_semisymmetric=curv.ricci_action.is_zero(),
        twin_ricci_semisymmetric=tilde_curv.ricci_action.is_zero(),
        eta_einstein=eta_constants is not None,
        einstein=einstein_constant is not None,
        scalar_identity=pair.nu == mu * mu * gamma_screen * gamma_screen * 4,
        eta_constants=eta_constants, einstein_constant=einstein_constant)


def theorem_entries(agg: TheoremAggregate) -> list[CheckEntry]:
    entries = [
        compare("assertion-ricci-semisymmetric", "thm-4.6", agg.ricci_semisymmetric,
                True, "(i) the curvature action annihilates the induced Ricci tensor"),
        compare("assertion-twin-ricci-semisymmetric", "thm-4.6",
                agg.twin_ricci_semisymmetric, True,
                "(ii) the twin curvature action annihilates the twin Ricci tensor"),
    ]
    if agg.eta_constants is not None:
        k, c = agg.eta_constants
        detail = f"(iii) Ric = k g + c eta x eta with k = {k}, c = {c}"
    else:
        detail = "(iii) the induced Ricci tensor admits no such decomposition"
    entries.append(compare(
        "assertion-eta-einstein", "thm-4.6", agg.eta_einstein, True, detail))
    if agg.einstein_constant is not None:
        detail = f"(iv) Ric~ = lambda g~ with lambda = {agg.einstein_constant}"
    else:
        detail = "(iv) the twin Ricci tensor is not proportional to the twin metric"
    entries.append(compare(
        "assertion-einstein", "thm-4.6", agg.einstein, True, detail))
    entries.append(compare(
        "assertion-scalar-identity", "thm-4.6", agg.scalar_identity, True,
        "(v) nu = 4 mu^2 gamma^2"))
    truths = (agg.ricci_semisymmetric, agg.twin_ricci_semisymmetric,
              agg.eta_einstein, agg.einstein, agg.scalar_identity)
    entries.append(compare(
        "assertion-equivalence", "thm-4.6", agg.all_equal(), True,
        "all five assertions carry the same truth value: "
        + ", ".join(str(t).lower() for t in truths)))
    return entries
