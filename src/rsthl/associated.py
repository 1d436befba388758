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
    NotEtaEinstein,
    UnderdeterminedSystem,
)
from .liegeom import Connection, CurvatureTensor, InvariantMetric, curvature, levi_civita
from .lightlike import (
    InducedObjects,
    SubmanifoldFrame,
    UmbilicityReport,
    adapted_coordinates,
    eta_einstein_solve,
    proportionality_factor,
)
from .report import CheckEntry, residual_entry
from .scalars import ONE, RationalFunction, rf
from .structure import CurvaturePair
from .tensors import (
    MultilinearForm,
    Vector,
    curvature_product,
    determinant,
    first_nonzero,
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
    entries = []

    n1 = s.xi_bar - f.l_vec
    n2 = s.xi_bar.scale(rf(2)) - f.n_vec.scale(mu * 2) - f.l_vec
    entries.append(residual_entry(
        "twin-normal-one-unit", "thm-1.1",
        (gt_ambient.value(n1, n1) - 1).is_zero(), "g~(N1, N1) = 1"))
    entries.append(residual_entry(
        "twin-normal-two-unit", "thm-1.1",
        (gt_ambient.value(n2, n2) + 1).is_zero(), "g~(N2, N2) = -1"))
    entries.append(residual_entry(
        "twin-normals-orthogonal", "thm-1.1",
        gt_ambient.value(n1, n2).is_zero(), "g~(N1, N2) = 0"))
    ok = all(gt_ambient.value(n, t).is_zero()
             for n in (n1, n2) for t in f.tangent_vectors)
    entries.append(residual_entry(
        "twin-normals-transverse", "thm-1.1", ok,
        "both normals are g~-orthogonal to the tangent space"))

    gt_form = MultilinearForm.from_function(
        f.tangent_frame, 2,
        lambda a, b: gt_ambient.value(f.tangent_vectors[a], f.tangent_vectors[b]))
    gt = InvariantMetric(gt_form)
    entries.append(residual_entry(
        "twin-metric-nondegenerate", "thm-1.1", True,
        "the twin metric restricts without kernel to the tangent space"))

    xi_idx = f.radical_index
    rad_norm = gt_form.entry(xi_idx, xi_idx)
    screen_rows = [[gt_form.entry(a, b) for b in range(m - 1)] for a in range(m - 1)]
    ok = all(gt_form.entry(a, xi_idx).is_zero() for a in range(m - 1))
    entries.append(residual_entry(
        "twin-splitting-orthogonal", "thm-1.1", ok,
        "screen and radical are g~-orthogonal"))
    avoid = [rad_norm]
    if screen_rows:
        avoid.append(determinant(screen_rows))
    sample = pick_regular_sample(
        avoid, must_be_defined=[e for row in screen_rows for e in row])
    entries.append(residual_entry(
        "twin-radical-spacelike", "thm-1.1",
        rad_norm.eval_at(sample) > 0,
        f"g~(xi, xi) = {rad_norm} is positive at mu = {sample}"))
    if screen_rows:
        pos, neg, zero = inertia([[e.eval_at(sample) for e in row]
                                  for row in screen_rows])
        half = (m - 1) // 2
        ok = (pos, neg, zero) == (half, half, 0)
        detail = f"screen signature at mu = {sample} is ({pos}, {neg})"
    else:
        ok = True
        detail = "the screen is zero-dimensional"
    entries.append(residual_entry(
        "twin-screen-signature", "thm-1.1", ok, detail))

    tf = f.tangent_frame
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
    tangency = all(c1.is_zero() and c2.is_zero()
                   for cols in weingarten for _, c1, c2 in cols)
    entries.append(residual_entry(
        "twin-weingarten-tangency", "sec-2-twin", tangency,
        "the derivatives of both normals are purely tangent"))

    conn_koszul = levi_civita(f.tangent_algebra, gt)

    # the first mismatch in row-major order, the conversion formula first
    routes = (("conversion formula", conn_formula), ("Koszul formula", conn_koszul))
    mismatches = [
        (at, rank) for rank, (_, conn) in enumerate(routes)
        if (at := first_nonzero(
            lambda a, b: conn.gamma.cell(a, b) - conn_direct.gamma.cell(a, b),
            m, 2)) is not None]
    if mismatches:
        (a, b), rank = min(mismatches)
        la, lb = f.tangent_frame.labels[a], f.tangent_frame.labels[b]
        raise CrossCheckMismatch(
            f"twin connection from the {routes[rank][0]} and from the "
            f"ambient split differ at ({la}, {lb})")
    entries.append(residual_entry(
        "twin-connection-formula", "eq-2.11", True,
        "the twin connection equals the induced connection plus the "
        "radical correction term"))
    entries.append(residual_entry(
        "twin-connection-koszul", "plumbing", True,
        "the Koszul formula for the restricted twin metric returns the "
        "same connection"))

    entries.append(residual_entry(
        "twin-second-form-one", "eq-2.12",
        (h1_direct - h1_formula).is_zero(), "h1 = (1/mu) B"))
    entries.append(residual_entry(
        "twin-second-form-two", "eq-2.12",
        (h2_direct - h2_formula).is_zero(),
        "h2 = -(1/mu)(B + B(., phi P.))"))
    entries.append(residual_entry(
        "twin-shape-one", "eq-2.12",
        (shape1_direct - shape1_formula).is_zero(),
        "A~_N1 = -(1/mu) phi A*_xi"))
    entries.append(residual_entry(
        "twin-shape-two", "eq-2.12",
        (shape2_direct - shape2_formula).is_zero(),
        "A~_N2 = (1/mu)(A*_xi - phi A*_xi)"))
    entries.append(residual_entry(
        "twin-h1-symmetric", "sec-2-twin", h1_direct.is_symmetric(),
        "h1 is symmetric"))
    entries.append(residual_entry(
        "twin-h2-symmetric", "sec-2-twin", h2_direct.is_symmetric(),
        "h2 is symmetric"))
    basis = f.tangent_frame.basis_vector
    dualities = (
        lambda a, b: h1_direct.entry(a, b) - gt.value(shape1_direct.cell(a), basis(b)),
        lambda a, b: h2_direct.entry(a, b) + gt.value(shape2_direct.cell(a), basis(b)))
    ok = all(first_nonzero(residual, m, 2) is None for residual in dualities)
    entries.append(residual_entry(
        "twin-shape-duality", "sec-2-twin", ok,
        "h1(X, Y) = g~(A~_N1 X, Y) and h2(X, Y) = -g~(A~_N2 X, Y)"))

    assoc = AssociatedObjects(metric=gt, n1=n1, n2=n2, conn=conn_direct,
                              h1=h1_direct, h2=h2_direct,
                              shape_n1=shape1_direct, shape_n2=shape2_direct)
    return assoc, entries


def tilde_curvature(f: SubmanifoldFrame, assoc: AssociatedObjects) -> CurvatureTensor:
    return curvature(assoc.conn, f.tangent_algebra)


def tilde_relation_13_entry(f: SubmanifoldFrame, obj: InducedObjects,
                            mu: RationalFunction, curv: CurvatureTensor,
                            tilde_curv: CurvatureTensor) -> CheckEntry:
    xi_t = f.radical_tangent()
    b_phi, cd_b, cd_b_phi = obj.b_phi, obj.cd_b, obj.cd_b_phi
    inv_mu2 = ONE / (mu * mu)
    half = rf("1/2")
    skew_derivative = MultilinearForm.from_cells(
        f.tangent_frame, 4,
        lambda a, b, c: xi_t.scale(inv_mu2 * (
            half * (cd_b.entry(a, b, c) - cd_b.entry(b, a, c))
            + cd_b_phi.entry(a, b, c) - cd_b_phi.entry(b, a, c))))
    rhs = (curv.table
           + curvature_product(obj.shape_n, obj.b_form + b_phi.scale(2))
           + curvature_product(outer(obj.tau, xi_t),
                               (obj.b_form.scale(half) + b_phi).scale(inv_mu2))
           + skew_derivative)
    return residual_entry(
        "twin-curvature-transfer", "eq-13", tilde_curv.table == rhs,
        "the twin curvature equals the induced curvature plus shape and "
        "derivative corrections")


def tilde_ricci_14_entry(f: SubmanifoldFrame, obj: InducedObjects,
                         mu: RationalFunction, ric: MultilinearForm,
                         tilde_ric: MultilinearForm) -> CheckEntry:
    m = f.dim
    xi_idx = f.radical_index
    b_phi, cd_b, cd_b_phi = obj.b_phi, obj.cd_b, obj.cd_b_phi
    b_n = obj.b_form.pull_slots(obj.shape_n, (0,))
    b_n_phi = b_n.pull_slots(f.phi_p, (1,))
    tr_n = obj.shape_n.trace()
    tau_xi = obj.tau.entries[xi_idx]
    inv_mu2 = ONE / (mu * mu)
    half = rf("1/2")

    def residual(b: int, c: int) -> RationalFunction:
        rhs = ric.entry(b, c)
        rhs = rhs + (obj.b_form.entry(b, c) + b_phi.entry(b, c) * 2) * tr_n
        rhs = rhs - b_n.entry(b, c) - b_n_phi.entry(b, c) * 2
        rhs = rhs + inv_mu2 * half * (
            cd_b.entry(xi_idx, b, c) - cd_b.entry(b, xi_idx, c)
            + tau_xi * obj.b_form.entry(b, c))
        rhs = rhs + inv_mu2 * (
            cd_b_phi.entry(xi_idx, b, c) - cd_b_phi.entry(b, xi_idx, c)
            + tau_xi * b_phi.entry(b, c))
        return tilde_ric.entry(b, c) - rhs

    return residual_entry(
        "twin-ricci-transfer", "eq-14", first_nonzero(residual, m, 2) is None,
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
    return residual_entry(
        "twin-umbilic-curvature-form", "eq-21", tilde_curv.table == rhs,
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
    match_adopted = tilde_ric == base + eta_eta.scale(-(nu * (2 * (n - 1))))
    match_literal = tilde_ric == base + eta_eta.scale(rf(-2 * (n - 1)))
    entries = [residual_entry(
        "twin-umbilic-ricci-form", "eq-22", match_adopted,
        "Ric~ = 2(n-2)(nu - 4mu^2 gamma^2) g - [nu + 4(2n-3) mu^2 gamma^2] "
        "g(., phi .) - 2(n-1) nu eta x eta")]
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
    entries.append(residual_entry(
        "twin-ricci-last-term", "eq-22", match_adopted, detail))
    return entries


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
    return residual_entry(
        "twin-ricci-action-closed-form", "eq-24", direct == closed,
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
    entries = [residual_entry(
        "geodesic-correspondence", "prop-3.3", tg_first == tg_twin,
        "both submanifolds are totally geodesic together")]
    if rep.totally_umbilical:
        ok = tg_first and stg and tg_twin
        detail = "a totally umbilical first metric collapses everything to geodesic"
    else:
        ok = True
        detail = "vacuous, the first metric is not totally umbilical"
    entries.append(residual_entry("umbilical-collapse", "prop-3.3", ok, detail))
    if tu_twin:
        ok = tg_twin and stg and tg_first
        detail = "a totally umbilical twin metric collapses everything to geodesic"
    else:
        ok = True
        detail = "vacuous, the twin metric is not totally umbilical"
    entries.append(residual_entry("twin-umbilical-collapse", "prop-3.3", ok, detail))
    return entries


def curvature_transfer_entry(rep: UmbilicityReport, assoc: AssociatedObjects,
                             curv: CurvatureTensor, tilde_curv: CurvatureTensor
                             ) -> CheckEntry:
    a1, a2 = assoc.twin_umbilicity
    if not rep.totally_umbilical and (a1 is None or a2 is None):
        return residual_entry(
            "umbilical-curvature-transfer", "cor-3.5", True,
            "vacuous, neither induced metric is totally umbilical")
    ok = curv.table == tilde_curv.table and (curv.ricci - tilde_curv.ricci).is_zero()
    return residual_entry(
        "umbilical-curvature-transfer", "cor-3.5", ok,
        "a totally umbilical metric forces R = R~ and Ric = Ric~")


def umbilical_flatness_entry(rep: UmbilicityReport, curv: CurvatureTensor,
                             ambient_curv: CurvatureTensor) -> CheckEntry:
    """A totally umbilical submanifold of a space with both sectional
    invariants constant must be flat, together with its ambient space."""
    if not rep.totally_umbilical:
        return residual_entry(
            "umbilical-flatness", "cor-4.3", True,
            "vacuous, the first metric is not totally umbilical")
    flat = curv.table.is_zero() and ambient_curv.table.is_zero()
    return residual_entry(
        "umbilical-flatness", "cor-4.3", flat,
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


def theorem_aggregate(f: SubmanifoldFrame, curv: CurvatureTensor,
                      tilde_curv: CurvatureTensor, assoc: AssociatedObjects,
                      pair: CurvaturePair, gamma_screen: RationalFunction,
                      mu: RationalFunction) -> TheoremAggregate:
    """Decide the five assertions for curv, tilde_curv and their Ricci tensors."""
    sem = curv.ricci_action.is_zero()
    sem_twin = tilde_curv.ricci_action.is_zero()
    # Every invariant scalar is constant on each group of the family, so
    # exact solvability alone decides the Einstein-type assertions.
    try:
        eta_values = eta_einstein_solve(f, curv.ricci)
        eta_ok = True
    except NotEtaEinstein:
        eta_ok = False
        eta_values = None
    try:
        ein_value = einstein_solve(f, assoc, tilde_curv.ricci)
        ein_ok = True
    except NotEinstein:
        ein_ok = False
        ein_value = None
    scalar = (pair.nu - mu * mu * gamma_screen * gamma_screen * 4).is_zero()
    return TheoremAggregate(
        ricci_semisymmetric=sem, twin_ricci_semisymmetric=sem_twin,
        eta_einstein=eta_ok, einstein=ein_ok, scalar_identity=scalar,
        eta_constants=eta_values, einstein_constant=ein_value)


def theorem_entries(agg: TheoremAggregate) -> list[CheckEntry]:
    entries = [
        residual_entry(
            "assertion-ricci-semisymmetric", "thm-4.6", agg.ricci_semisymmetric,
            "(i) the curvature action annihilates the induced Ricci tensor"),
        residual_entry(
            "assertion-twin-ricci-semisymmetric", "thm-4.6",
            agg.twin_ricci_semisymmetric,
            "(ii) the twin curvature action annihilates the twin Ricci tensor"),
    ]
    if agg.eta_constants is not None:
        k, c = agg.eta_constants
        detail = f"(iii) Ric = k g + c eta x eta with k = {k}, c = {c}"
    else:
        detail = "(iii) the induced Ricci tensor admits no such decomposition"
    entries.append(residual_entry(
        "assertion-eta-einstein", "thm-4.6", agg.eta_einstein, detail))
    if agg.einstein_constant is not None:
        detail = f"(iv) Ric~ = lambda g~ with lambda = {agg.einstein_constant}"
    else:
        detail = "(iv) the twin Ricci tensor is not proportional to the twin metric"
    entries.append(residual_entry(
        "assertion-einstein", "thm-4.6", agg.einstein, detail))
    entries.append(residual_entry(
        "assertion-scalar-identity", "thm-4.6", agg.scalar_identity,
        "(v) nu = 4 mu^2 gamma^2"))
    truths = (agg.ricci_semisymmetric, agg.twin_ricci_semisymmetric,
              agg.eta_einstein, agg.einstein, agg.scalar_identity)
    entries.append(residual_entry(
        "assertion-equivalence", "thm-4.6", agg.all_equal(),
        "all five assertions carry the same truth value: "
        + ", ".join(str(t).lower() for t in truths)))
    return entries
