"""Half lightlike submanifold calculus for invariant models.

Builds the adapted frame of a codimension-two submanifold whose induced
metric has a one-dimensional radical, certifies the radical screen
transversal and ascreen conditions, reconstructs the induced connection
together with the second fundamental forms and shape operators, and
evaluates the closed-form curvature identities from the catalog in
``docs/identities.md`` as exact residuals.

All tangent-space objects live on a dedicated frame whose last label is
``"xi"`` (the radical direction); the preceding labels name the screen
basis.  Ambient objects stay on the frame of the underlying model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .errors import (
    DecompositionInconsistent,
    DegenerateMetric,
    InconsistentSystem,
    InvalidFrame,
    MuZero,
    NoSuchN,
    NotAscreen,
    NotEtaEinstein,
    NotRSTHL,
    RadicalRankNotOne,
    ScreenDegenerate,
    UnderdeterminedSystem,
)
from .liegeom import (
    Connection,
    CurvatureTensor,
    LieAlgebra,
    curvature,
    derivation_action,
)
from .report import CheckEntry, residual_entry, skipped
from .scalars import ONE, RationalFunction, ZERO, rf
from .structure import CurvaturePair, LieModel
from .tensors import (
    Frame,
    MultilinearForm,
    Vector,
    _echelon,
    curvature_product,
    determinant,
    first_nonzero,
    matrix_inverse,
    outer,
    solve_affine,
    solve_unique,
)


RADICAL_LABEL = "xi"


def solve_transversal(model: LieModel, screen: tuple[Vector, ...], rad: Vector,
                      l_vec: Vector) -> Vector:
    """Solve for the null transversal N dual to the radical direction.

    N is pinned down by g(N, S) = 0, g(N, L) = 0, g(N, rad) = 1 and
    g(N, N) = 0.  The linear conditions leave a line N0 + t*rad; the
    quadratic one is then linear in t because rad is null.
    """
    g = model.metric
    rows = [list(g.lower(w).entries) for w in (*screen, l_vec, rad)]
    rhs = [ZERO] * (len(screen) + 1) + [ONE]
    try:
        particular, kernel = solve_affine(rows, rhs)
    except (InconsistentSystem, UnderdeterminedSystem) as exc:
        raise NoSuchN(str(exc)) from exc
    if len(kernel) != 1:
        raise NoSuchN(
            "the orthogonality conditions leave a transversal freedom of "
            f"dimension {len(kernel)}, expected 1")
    direction = Vector(model.frame, kernel[0])
    pivot = next((i for i, c in enumerate(rad.components) if not c.is_zero()), None)
    if pivot is None:
        raise NoSuchN("the radical vector vanishes")
    ratio = direction.components[pivot] / rad.components[pivot]
    if not (direction - rad.scale(ratio)).is_zero():
        raise NoSuchN("the transversal freedom is not along the radical direction")
    n0 = Vector(model.frame, particular)
    t = g.value(n0, n0) * rf("-1/2")
    return n0 + rad.scale(t)


class SubmanifoldFrame:
    """Adapted frame (screen basis, radical, transversals) with cached splittings."""

    def __init__(self, model: LieModel, screen_labels: tuple[str, ...],
                 screen: tuple[Vector, ...], rad: Vector, l_vec: Vector,
                 n_vec: Optional[Vector] = None):
        if len(screen_labels) != len(screen):
            raise InvalidFrame("screen labels and screen vectors differ in number")
        if RADICAL_LABEL in screen_labels:
            raise InvalidFrame(f"screen label {RADICAL_LABEL!r} is reserved")
        if len(set(screen_labels)) != len(screen_labels):
            raise InvalidFrame("screen labels must be distinct")
        self.model = model
        self.screen_labels = tuple(screen_labels)
        self.screen = tuple(screen)
        self.rad = rad
        self.l_vec = l_vec
        g = model.metric
        dim = model.frame.dimension
        m = len(screen) + 1
        if dim != m + 2:
            raise InvalidFrame(
                f"a half lightlike submanifold of a {dim}-dimensional ambient "
                f"space needs {dim - 3} screen vectors, got {len(screen)}")
        self.tangent_frame = Frame(self.screen_labels + (RADICAL_LABEL,))
        self.tangent_vectors = self.screen + (rad,)

        columns = [list(v.components) for v in self.tangent_vectors]
        rank_rows = [[columns[j][i] for j in range(m)] for i in range(dim)]
        if len(_echelon(rank_rows, m)[1]) != m:
            raise InvalidFrame("the tangent vectors are linearly dependent")

        for idx, w in enumerate(self.tangent_vectors):
            if not g.value(rad, w).is_zero():
                label = self.tangent_frame.labels[idx]
                raise RadicalRankNotOne(
                    f"the radical vector is not isotropic against {label}")

        screen_gram = [[g.value(x, y) for y in self.screen] for x in self.screen]
        if screen_gram and determinant(screen_gram).is_zero():
            raise ScreenDegenerate("the metric degenerates on the screen distribution")

        eps = g.value(l_vec, l_vec)
        if not (eps - 1).is_zero() and not (eps + 1).is_zero():
            raise InvalidFrame("the screen transversal vector is not unit")
        self.epsilon = eps
        for idx, w in enumerate(self.tangent_vectors):
            if not g.value(l_vec, w).is_zero():
                label = self.tangent_frame.labels[idx]
                raise InvalidFrame(
                    f"the screen transversal is not orthogonal to {label}")

        if n_vec is None:
            n_vec = solve_transversal(model, self.screen, rad, l_vec)
        else:
            _verify_transversal(model, self.tangent_vectors, self.tangent_frame,
                                rad, l_vec, n_vec)
        self.n_vec = n_vec

        try:
            self._coordinates = adapted_coordinates(
                self.tangent_vectors + (n_vec, l_vec))
        except DegenerateMetric as exc:
            raise InvalidFrame(
                "the tangent basis and the transversals do not span the "
                "ambient space") from exc

        self.induced_form = MultilinearForm.from_function(
            self.tangent_frame, 2,
            lambda a, b: g.value(self.tangent_vectors[a], self.tangent_vectors[b]))
        self.eta = MultilinearForm(self.tangent_frame, 1, tuple(
            g.value(v, n_vec) for v in self.tangent_vectors))
        amb_eta = model.structure.eta_bar
        self.eta_bar = MultilinearForm(self.tangent_frame, 1, tuple(
            amb_eta.value(v) for v in self.tangent_vectors))
        self.tangent_algebra = self._close_brackets()

    @property
    def dim(self) -> int:
        return self.tangent_frame.dimension

    @property
    def radical_index(self) -> int:
        return self.dim - 1

    def radical_tangent(self) -> Vector:
        return self.tangent_frame.basis_vector(self.radical_index)

    def embed(self, v: Vector) -> Vector:
        out = Vector.zero(self.model.frame)
        for a, c in enumerate(v.components):
            if not c.is_zero():
                out = out + self.tangent_vectors[a].scale(c)
        return out

    def decompose_full(self, v: Vector) -> tuple[Vector, RationalFunction, RationalFunction]:
        """Split an ambient vector over the basis (tangent..., N, L)."""
        coeffs = self._coordinates.apply(v).components
        tangent = Vector(self.tangent_frame, tuple(coeffs[:self.dim]))
        return tangent, coeffs[self.dim], coeffs[self.dim + 1]

    def to_tangent(self, v: Vector, context: str) -> Vector:
        tangent, n_c, l_c = self.decompose_full(v)
        if not n_c.is_zero() or not l_c.is_zero():
            raise DecompositionInconsistent(
                f"{context} has transversal components N: {n_c}, L: {l_c}")
        return tangent

    @cached_property
    def projector(self) -> MultilinearForm:
        """Projection on the screen distribution along the radical."""
        xi_t = self.radical_tangent()
        return MultilinearForm.from_cells(
            self.tangent_frame, 2,
            lambda a: self.tangent_frame.basis_vector(a)
            - xi_t.scale(self.eta.entries[a]))

    @cached_property
    def phi_p(self) -> MultilinearForm:
        """The tangent operator X -> phi(PX); requires a phi-invariant screen."""
        phi = self.model.structure.phi

        def column(a: int) -> Vector:
            if a == self.radical_index:
                return Vector.zero(self.tangent_frame)
            image = phi.apply(self.tangent_vectors[a])
            try:
                return self.to_tangent(image, "the structure image of a screen vector")
            except DecompositionInconsistent as exc:
                raise NotRSTHL(str(exc)) from exc
        return MultilinearForm.from_cells(self.tangent_frame, 2, column)

    @cached_property
    def phi_pairing(self) -> MultilinearForm:
        """Table of g(T_a, phi T_b) over the tangent basis."""
        g = self.model.metric
        phi = self.model.structure.phi
        return MultilinearForm.from_function(
            self.tangent_frame, 2,
            lambda a, b: g.value(self.tangent_vectors[a],
                                 phi.apply(self.tangent_vectors[b])))

    @cached_property
    def phi_phi_pairing(self) -> MultilinearForm:
        """Table of g(phi T_a, phi T_b) over the tangent basis."""
        g = self.model.metric
        phi = self.model.structure.phi
        return MultilinearForm.from_function(
            self.tangent_frame, 2,
            lambda a, b: g.value(phi.apply(self.tangent_vectors[a]),
                                 phi.apply(self.tangent_vectors[b])))

    def _close_brackets(self) -> LieAlgebra:
        brackets = self.model.algebra.brackets

        def bracket(a: int, b: int) -> Vector:
            amb = brackets.apply(self.tangent_vectors[a], self.tangent_vectors[b])
            try:
                return self.to_tangent(amb, "a bracket of tangent vectors")
            except DecompositionInconsistent as exc:
                la = self.tangent_frame.labels[a]
                lb = self.tangent_frame.labels[b]
                raise InvalidFrame(
                    f"the bracket [{la}, {lb}] leaves the tangent space: {exc}"
                ) from exc
        return LieAlgebra(self.tangent_frame, MultilinearForm.from_cells(
            self.tangent_frame, 3, bracket))


def adapted_coordinates(basis: tuple[Vector, ...]) -> MultilinearForm:
    """The operator taking an ambient vector to its coefficients over the
    given basis; raises DegenerateMetric when the basis is not one."""
    frame = basis[0].frame
    dim = frame.dimension
    inverse = matrix_inverse(
        [[basis[j].components[i] for j in range(dim)] for i in range(dim)])
    return MultilinearForm.from_function(frame, 2, lambda i, r: inverse[r][i])


def _verify_transversal(model: LieModel, tangent_vectors, tangent_frame,
                        rad: Vector, l_vec: Vector, n_vec: Vector) -> None:
    g = model.metric
    if not (g.value(n_vec, rad) - 1).is_zero():
        raise InvalidFrame("the given transversal N does not pair to 1 with the radical")
    if not g.value(n_vec, n_vec).is_zero():
        raise InvalidFrame("the given transversal N is not null")
    if not g.value(n_vec, l_vec).is_zero():
        raise InvalidFrame("the given transversal N is not orthogonal to L")
    for idx, w in enumerate(tangent_vectors[:-1]):
        if not g.value(n_vec, w).is_zero():
            raise InvalidFrame(
                f"the given transversal N is not orthogonal to {tangent_frame.labels[idx]}")


def build_frame(model: LieModel, screen_labels, screen, rad, l_vec,
                n_vec: Optional[Vector] = None) -> SubmanifoldFrame:
    return SubmanifoldFrame(model, tuple(screen_labels), tuple(screen),
                            rad, l_vec, n_vec)


def validate_frame(f: SubmanifoldFrame) -> list[CheckEntry]:
    """Report-friendly restatement of the constraints enforced at build time."""
    g = f.model.metric
    entries = []
    rad_ok = all(g.value(f.rad, w).is_zero() for w in f.tangent_vectors)
    entries.append(residual_entry(
        "radical-isotropy", "sec-2-splitting", rad_ok,
        "the radical direction is orthogonal to the whole tangent space"))
    gram = [[g.value(x, y) for y in f.screen] for x in f.screen]
    entries.append(residual_entry(
        "screen-nondegeneracy", "sec-2-splitting",
        not determinant(gram).is_zero() if gram else True,
        "the induced metric restricts without kernel to the screen"))
    entries.append(residual_entry(
        "transversal-normalization", "sec-2-splitting",
        (f.epsilon - 1).is_zero() or (f.epsilon + 1).is_zero(),
        f"g(L, L) = {f.epsilon}"))
    dual_ok = ((g.value(f.n_vec, f.rad) - 1).is_zero()
               and g.value(f.n_vec, f.n_vec).is_zero()
               and g.value(f.n_vec, f.l_vec).is_zero()
               and all(g.value(f.n_vec, w).is_zero() for w in f.screen))
    entries.append(residual_entry(
        "transversal-duality", "sec-2-splitting", dual_ok,
        "N is null, pairs to 1 with the radical and annihilates screen and L"))
    entries.append(residual_entry(
        "tangent-closure", "plumbing", True,
        "brackets of tangent vectors stay tangent"))
    return entries


def certify_ascreen_rsthl(f: SubmanifoldFrame) -> tuple[RationalFunction, list[CheckEntry]]:
    """Certify the defining conditions and return the invariant mu.

    Raises NotRSTHL, NotAscreen or MuZero when the frame cannot carry the
    structure at all; milder defects are reported as failing entries.
    """
    s = f.model.structure
    g = f.model.metric
    phi_xi = s.phi.apply(f.rad)
    if phi_xi.is_zero():
        raise NotRSTHL("the structure operator kills the radical direction")
    pivot = next((i for i, c in enumerate(f.l_vec.components) if not c.is_zero()), None)
    if pivot is None:
        raise NotRSTHL("the screen transversal vector vanishes")
    mu = phi_xi.components[pivot] / f.l_vec.components[pivot]
    if not (phi_xi - f.l_vec.scale(mu)).is_zero():
        raise NotRSTHL("the image of the radical is not the screen transversal line")
    if mu.is_zero():
        raise MuZero("the proportionality factor mu vanishes")

    tangent, n_c, l_c = f.decompose_full(s.xi_bar)
    screen_part = any(not tangent.components[a].is_zero()
                      for a in range(f.dim - 1))
    if screen_part or not l_c.is_zero():
        raise NotAscreen(
            "the distinguished vector field leaves the plane spanned by the "
            "radical and its null transversal")

    entries = []
    anchor = "sec-2-ascreen"
    entries.append(residual_entry(
        "radical-phi-image", anchor, True, f"phi(xi) = ({mu}) L"))
    half_inv = ONE / (mu + mu)
    reeb = f.rad.scale(half_inv) + f.n_vec.scale(mu)
    entries.append(residual_entry(
        "reeb-split", anchor, (s.xi_bar - reeb).is_zero(),
        "the distinguished field splits as (1/2mu) xi + mu N"))
    entries.append(residual_entry(
        "eta-of-radical", anchor, (s.eta_bar.value(f.rad) - mu).is_zero(),
        "eta(xi) = mu"))
    entries.append(residual_entry(
        "transversal-unit", anchor, (f.epsilon - 1).is_zero(),
        "g(L, L) = 1"))
    entries.append(residual_entry(
        "eta-of-transversal", anchor, s.eta_bar.value(f.l_vec).is_zero(),
        "eta(L) = 0"))
    entries.append(residual_entry(
        "eta-of-null-transversal", anchor,
        (s.eta_bar.value(f.n_vec) - half_inv).is_zero(),
        "eta(N) = 1/(2 mu)"))
    entries.append(residual_entry(
        "phi-of-null-transversal", anchor,
        (s.phi.apply(f.n_vec) + f.l_vec.scale(half_inv)).is_zero(),
        "phi(N) = -(1/2mu) L"))
    entries.append(residual_entry(
        "phi-of-transversal", anchor,
        (s.phi.apply(f.l_vec) + f.rad.scale(half_inv) - f.n_vec.scale(mu)).is_zero(),
        "phi(L) = -(1/2mu) xi + mu N"))

    def off_screen(a: int) -> Vector:
        """The part of phi(S_a) along the radical and the two transversals."""
        t_part, i_n, i_l = f.decompose_full(s.phi.apply(f.tangent_vectors[a]))
        return (f.rad.scale(t_part.components[f.radical_index])
                + f.n_vec.scale(i_n) + f.l_vec.scale(i_l))

    entries.append(residual_entry(
        "screen-phi-invariance", anchor,
        first_nonzero(off_screen, f.dim - 1, 1) is None,
        "the structure operator preserves the screen distribution"))
    eta_match = (f.eta_bar - f.eta.scale(mu)).is_zero()
    entries.append(residual_entry(
        "eta-proportionality", anchor, eta_match,
        "the restricted dual form equals mu times the transversal dual"))
    return mu, entries


@dataclass(frozen=True)
class InducedObjects:
    """Induced connection, fundamental forms and shape operators."""

    conn: Connection
    screen_gamma: MultilinearForm  # screen_gamma.cell(a, b) = nabla*_{T_a} P T_b
    b_form: MultilinearForm
    c_form: MultilinearForm
    d_form: MultilinearForm
    shape_rad: MultilinearForm
    shape_n: MultilinearForm
    shape_l: MultilinearForm
    tau: MultilinearForm
    rho: MultilinearForm
    phi_form: MultilinearForm
    frame: SubmanifoldFrame = field(repr=False, compare=False)

    @cached_property
    def b_phi(self) -> MultilinearForm:
        """B(X, phi P Y)."""
        return self.b_form.pull_slots(self.frame.phi_p, (1,))

    @cached_property
    def cd_b(self) -> MultilinearForm:
        return covariant_derivative(self.conn, self.b_form)

    @cached_property
    def cd_b_phi(self) -> MultilinearForm:
        """(nabla_X B)(Y, phi P Z)."""
        return self.cd_b.pull_slots(self.frame.phi_p, (2,))

    @cached_property
    def cd_d(self) -> MultilinearForm:
        return covariant_derivative(self.conn, self.d_form)


def gauss_weingarten(f: SubmanifoldFrame, ambient_conn: Connection) -> InducedObjects:
    """Split the ambient derivatives over (tangent, N, L)."""
    m = f.dim
    tf = f.tangent_frame
    xi_t = f.radical_tangent()
    nabla = ambient_conn.gamma.apply

    def split_all(vectors):
        """Rows (a, b) of the splits of nabla_{T_a} vectors[b]."""
        return [[f.decompose_full(nabla(t, v)) for v in vectors]
                for t in f.tangent_vectors]

    gauss = split_all(f.tangent_vectors)
    conn = Connection(tf, MultilinearForm.from_cells(
        tf, 3, lambda a, b: gauss[a][b][0]))
    b_form = MultilinearForm.from_function(tf, 2, lambda a, b: gauss[a][b][1])
    d_form = MultilinearForm.from_function(tf, 2, lambda a, b: gauss[a][b][2])

    along_n, along_l = zip(*split_all((f.n_vec, f.l_vec)))
    if any(not l_c.is_zero() for _, _, l_c in along_l):
        raise DecompositionInconsistent(
            "the derivative of L has an L component, the ambient "
            "connection is not metric")
    shape_n = MultilinearForm.from_cells(tf, 2, lambda a: -along_n[a][0])
    tau = MultilinearForm.from_function(tf, 1, lambda a: along_n[a][1])
    rho = MultilinearForm.from_function(tf, 1, lambda a: along_n[a][2])
    shape_l = MultilinearForm.from_cells(tf, 2, lambda a: -along_l[a][0])
    phi_form = MultilinearForm.from_function(tf, 1, lambda a: along_l[a][1])

    rad = m - 1
    c_form = MultilinearForm.from_function(
        tf, 2, lambda a, b: conn.gamma.entry(a, b, rad) if b != rad else ZERO)
    screen_gamma = MultilinearForm.from_cells(
        tf, 3,
        lambda a, b: conn.gamma.cell(a, b) - xi_t.scale(c_form.entry(a, b))
        if b != rad else Vector.zero(tf))
    shape_rad = MultilinearForm.from_cells(
        tf, 2, lambda a: -conn.gamma.cell(a, rad) - xi_t.scale(tau.entries[a]))

    return InducedObjects(conn=conn, screen_gamma=screen_gamma,
                          b_form=b_form, c_form=c_form, d_form=d_form,
                          shape_rad=shape_rad, shape_n=shape_n, shape_l=shape_l,
                          tau=tau, rho=rho, phi_form=phi_form, frame=f)


def induced_invariant_entries(f: SubmanifoldFrame, obj: InducedObjects) -> list[CheckEntry]:
    """Structural identities every half lightlike splitting must satisfy."""
    anchor = "sec-2-induced"
    g = f.induced_form
    m = f.dim
    xi_idx = f.radical_index
    entries = []

    entries.append(residual_entry(
        "induced-torsion-free", anchor,
        obj.conn.torsion_violation(f.tangent_algebra) is None,
        "the induced connection has the tangent brackets as torsion defect zero"))
    entries.append(residual_entry(
        "b-symmetric", anchor, obj.b_form.is_symmetric(),
        "the N-valued fundamental form is symmetric"))
    entries.append(residual_entry(
        "d-symmetric", anchor, obj.d_form.is_symmetric(),
        "the L-valued fundamental form is symmetric"))
    entries.append(residual_entry(
        "b-kills-radical", anchor,
        all(obj.b_form.entry(a, xi_idx).is_zero() for a in range(m)),
        "B(X, xi) = 0"))
    entries.append(residual_entry(
        "d-radical-slot", anchor,
        all((obj.d_form.entry(a, xi_idx) + obj.phi_form.entries[a]).is_zero()
            for a in range(m)),
        "D(X, xi) = -phi(X)"))
    entries.append(residual_entry(
        "radical-shape-kills-radical", anchor,
        obj.shape_rad.cell(xi_idx).is_zero(),
        "the radical shape operator annihilates xi"))
    g_rad = g.pull_slots(obj.shape_rad, (0,))  # g(A*_xi T_a, T_b)
    ok = first_nonzero(
        lambda a, b: g_rad.entry(a, b) - g_rad.entry(b, a), m, 2) is None
    entries.append(residual_entry(
        "radical-shape-self-adjoint", anchor, ok,
        "the radical shape operator is self-adjoint for the induced metric"))
    ok = first_nonzero(
        lambda a, b: obj.b_form.entry(a, b) - g_rad.entry(a, b), m, 2) is None
    entries.append(residual_entry(
        "b-from-radical-shape", anchor, ok, "B(X, Y) = g(A*_xi X, Y)"))
    entries.append(residual_entry(
        "radical-shape-screen-valued", anchor,
        all(obj.shape_rad.entry(a, xi_idx).is_zero() for a in range(m)),
        "the radical shape operator takes values in the screen"))
    entries.append(residual_entry(
        "n-shape-screen-valued", anchor,
        all(obj.shape_n.entry(a, xi_idx).is_zero() for a in range(m)),
        "the null transversal shape operator takes values in the screen"))
    proj = f.projector
    ok = first_nonzero(
        lambda a, b: obj.c_form.entry(a, b)
        - g.value(obj.shape_n.cell(a), proj.cell(b)), m, 2) is None
    entries.append(residual_entry(
        "c-from-n-shape", anchor, ok, "C(X, PY) = g(A_N X, PY)"))
    eps = f.epsilon

    d_proj = obj.d_form.pull_slots(proj, (1,))
    g_l_proj = g.pull_slots(obj.shape_l, (0,)).pull_slots(proj, (1,))  # g(A_L T_a, P T_b)
    ok = first_nonzero(
        lambda a, b: eps * d_proj.entry(a, b) - g_l_proj.entry(a, b), m, 2) is None
    entries.append(residual_entry(
        "d-from-l-shape", anchor, ok, "eps D(X, PY) = g(A_L X, PY)"))
    ok = obj.d_form.scale(eps) == g_l_proj - outer(obj.phi_form, f.eta)
    entries.append(residual_entry(
        "d-split", anchor, ok, "eps D(X, Y) = g(A_L X, PY) - phi(X) eta(Y)"))
    amb_g = f.model.metric
    ok = all((amb_g.value(f.embed(obj.shape_l.cell(a)), f.n_vec)
              - eps * obj.rho.entries[a]).is_zero() for a in range(m))
    entries.append(residual_entry(
        "l-shape-duality", anchor, ok, "g(A_L X, N) = eps rho(X)"))

    low = obj.conn.gamma.pull_slots(g, (2,))  # g(nabla_{T_a} T_b, T_c)
    eta = f.eta.entries

    def metric_deviation(a: int, b: int, c: int) -> RationalFunction:
        dg = -(low.entry(a, b, c) + low.entry(a, c, b))
        return dg - (obj.b_form.entry(a, b) * eta[c]
                     + obj.b_form.entry(a, c) * eta[b])

    entries.append(residual_entry(
        "metric-deviation", anchor, first_nonzero(metric_deviation, m, 3) is None,
        "(nabla_X g)(Y, Z) = B(X, Y) eta(Z) + B(X, Z) eta(Y)"))
    ok = first_nonzero(
        lambda a, b: obj.tau.value(f.tangent_algebra.brackets.cell(a, b)), m, 2) is None
    entries.append(residual_entry(
        "tau-closed", anchor, ok,
        "d tau = 0, hence the induced Ricci tensor is symmetric"))
    return entries


def ascreen_f0_entries(f: SubmanifoldFrame, obj: InducedObjects,
                       mu: RationalFunction) -> list[CheckEntry]:
    """Identities special to the certified class, with mu as the only input."""
    m = f.dim
    g = f.induced_form
    phi_p = f.phi_p
    entries = []
    inv_two_mu2 = ONE / (mu * mu * 2)
    inv_mu = ONE / mu

    res = obj.shape_n + obj.shape_rad.scale(inv_two_mu2)
    entries.append(residual_entry(
        "n-shape-from-radical-shape", "eq-2.7", res.is_zero(),
        "A_N = -(1/2mu^2) A*_xi"))
    res = obj.shape_l - phi_p.pull_slots(obj.shape_rad, (0,)).scale(inv_mu)
    entries.append(residual_entry(
        "l-shape-from-radical-shape", "eq-2.7", res.is_zero(),
        "A_L = (1/mu) phi A*_xi"))
    res2 = obj.d_form - obj.b_phi.scale(inv_mu)
    entries.append(residual_entry(
        "d-from-b", "eq-2.8", res2.is_zero(),
        "D(X, Y) = (1/mu) B(X, phi PY)"))
    res2 = obj.c_form + obj.b_form.scale(inv_two_mu2)
    entries.append(residual_entry(
        "c-from-b", "eq-2.8", res2.is_zero(),
        "C(X, PY) = -(1/2mu^2) B(X, Y)"))
    entries.append(residual_entry(
        "tau-vanishes", "eq-2.9", obj.tau.is_zero(),
        "tau = -d(log mu) and mu is constant for invariant data"))
    entries.append(residual_entry(
        "phi-form-vanishes", "eq-2.9", obj.phi_form.is_zero(), "phi = 0"))
    entries.append(residual_entry(
        "rho-vanishes", "eq-2.9", obj.rho.is_zero(), "rho = 0"))

    basis = f.tangent_frame.basis_vector
    sg = obj.screen_gamma

    def phi_p_derivative(a: int, b: int) -> Vector:
        """nabla*_{T_a} (phi P T_b) - phi P (nabla*_{T_a} P T_b)."""
        return sg.apply(basis(a), phi_p.cell(b)) - phi_p.apply(sg.cell(a, b))

    entries.append(residual_entry(
        "screen-phi-parallel", "eq-2.10", first_nonzero(phi_p_derivative, m, 2) is None,
        "the screen connection makes the restricted structure operator parallel"))

    for name, op in (("radical-shape-phi-commute", obj.shape_rad),
                     ("n-shape-phi-commute", obj.shape_n),
                     ("l-shape-phi-commute", obj.shape_l)):
        ok = all((op.apply(phi_p.cell(s)) - phi_p.apply(op.cell(s))).is_zero()
                 for s in range(m - 1))
        entries.append(residual_entry(
            name, "sec-2-commuting", ok,
            "the shape operator commutes with the structure operator on the screen"))

    res2 = obj.b_form.pull_all(phi_p) + obj.b_form
    entries.append(residual_entry(
        "b-phi-antisymmetry", "sec-2-commuting", res2.is_zero(),
        "B(phi X, phi Y) = -B(X, Y) on the screen"))
    return entries


@dataclass(frozen=True)
class UmbilicityReport:
    """Proportionality factors of the fundamental forms against the metric."""

    beta: Optional[RationalFunction]
    delta: Optional[RationalFunction]
    gamma_screen: Optional[RationalFunction]
    mean_curvature: Optional[Vector]
    totally_geodesic: bool
    totally_umbilical: bool
    proper_totally_umbilical: bool
    screen_totally_geodesic: bool
    screen_umbilical: bool
    proper_screen_umbilical: bool

    def describe(self) -> str:
        flags = []
        if self.totally_geodesic:
            flags.append("totally geodesic")
        elif self.totally_umbilical:
            kind = "proper totally umbilical" if self.proper_totally_umbilical \
                else "totally umbilical"
            flags.append(f"{kind} (beta = {self.beta}, delta = {self.delta})")
        else:
            flags.append("not totally umbilical")
        if self.screen_totally_geodesic:
            flags.append("screen totally geodesic")
        elif self.screen_umbilical:
            flags.append(f"screen totally umbilical (gamma = {self.gamma_screen})")
        else:
            flags.append("screen not umbilical")
        return "; ".join(flags)


def proportionality_factor(table: MultilinearForm, metric: MultilinearForm
                           ) -> Optional[RationalFunction]:
    """The exact factor making table = factor * metric, or None."""
    factor = None
    dim = table.frame.dimension
    for a in range(dim):
        for b in range(dim):
            if not metric.entry(a, b).is_zero():
                factor = table.entry(a, b) / metric.entry(a, b)
                break
        if factor is not None:
            break
    if factor is None:
        return None
    if (table - metric.scale(factor)).is_zero():
        return factor
    return None


def umbilicity(f: SubmanifoldFrame, obj: InducedObjects) -> UmbilicityReport:
    g = f.induced_form
    beta = proportionality_factor(obj.b_form, g)
    delta = proportionality_factor(obj.d_form, g)
    gamma_screen = proportionality_factor(obj.c_form, g)
    mean = None
    if beta is not None and delta is not None:
        mean = f.n_vec.scale(beta) + f.l_vec.scale(delta)
    tg = obj.b_form.is_zero() and obj.d_form.is_zero()
    tu = beta is not None and delta is not None
    stg = obj.c_form.is_zero()
    return UmbilicityReport(
        beta=beta, delta=delta, gamma_screen=gamma_screen, mean_curvature=mean,
        totally_geodesic=tg, totally_umbilical=tu,
        proper_totally_umbilical=tu and not tg,
        screen_totally_geodesic=stg,
        screen_umbilical=gamma_screen is not None,
        proper_screen_umbilical=gamma_screen is not None and not stg)


def screen_umbilical_entries(f: SubmanifoldFrame, obj: InducedObjects,
                             rep: UmbilicityReport,
                             mu: RationalFunction) -> list[CheckEntry]:
    if rep.gamma_screen is None:
        reason = "the screen distribution is not totally umbilical"
        return [skipped("n-shape-umbilic", "eq-17", reason),
                skipped("b-umbilic-multiple", "eq-17", reason)]
    gam = rep.gamma_screen
    entries = []
    res = obj.shape_n - f.projector.scale(gam)
    entries.append(residual_entry(
        "n-shape-umbilic", "eq-17", res.is_zero(), "A_N X = gamma PX"))
    res2 = obj.b_form + f.induced_form.scale(mu * mu * gam * 2)
    entries.append(residual_entry(
        "b-umbilic-multiple", "eq-17", res2.is_zero(),
        "B(X, Y) = -2 mu^2 gamma g(X, Y)"))
    return entries


def induced_curvature(f: SubmanifoldFrame, obj: InducedObjects) -> CurvatureTensor:
    return curvature(obj.conn, f.tangent_algebra)


def covariant_derivative(conn: Connection, form: MultilinearForm) -> MultilinearForm:
    """Derivative table (direction, slot 1, slot 2) of a bilinear form.

    For invariant data the scalar derivative term drops out and only the
    connection terms survive.
    """
    if form.arity != 2:
        raise ValueError("only bilinear forms are differentiated here")
    return derivation_action(conn.gamma, form)


def gauss_relation_entry(f: SubmanifoldFrame, obj: InducedObjects,
                         ambient_curv: CurvatureTensor,
                         induced_curv: CurvatureTensor) -> CheckEntry:
    """Master consistency check reassembling the ambient curvature."""
    m = f.dim
    cd_b, cd_d = obj.cd_b, obj.cd_d

    def residual(a: int, b: int, c: int) -> Vector:
        lhs = ambient_curv.table.apply(f.tangent_vectors[a],
                                       f.tangent_vectors[b],
                                       f.tangent_vectors[c])
        tangent = f.embed(induced_curv.table.cell(a, b, c))
        tangent = tangent + f.embed(obj.shape_n.cell(b)).scale(
            obj.b_form.entry(a, c))
        tangent = tangent - f.embed(obj.shape_n.cell(a)).scale(
            obj.b_form.entry(b, c))
        tangent = tangent + f.embed(obj.shape_l.cell(b)).scale(
            obj.d_form.entry(a, c))
        tangent = tangent - f.embed(obj.shape_l.cell(a)).scale(
            obj.d_form.entry(b, c))
        n_coeff = (cd_b.entry(a, b, c) - cd_b.entry(b, a, c)
                   + obj.tau.entries[a] * obj.b_form.entry(b, c)
                   - obj.tau.entries[b] * obj.b_form.entry(a, c)
                   + obj.phi_form.entries[a] * obj.d_form.entry(b, c)
                   - obj.phi_form.entries[b] * obj.d_form.entry(a, c))
        l_coeff = (cd_d.entry(a, b, c) - cd_d.entry(b, a, c)
                   + obj.rho.entries[a] * obj.b_form.entry(b, c)
                   - obj.rho.entries[b] * obj.b_form.entry(a, c))
        return lhs - (tangent + f.n_vec.scale(n_coeff) + f.l_vec.scale(l_coeff))

    return residual_entry(
        "gauss-relation", "sec-4-gauss", first_nonzero(residual, m, 3) is None,
        "the ambient curvature splits into induced curvature, shape terms "
        "and derivative terms of the fundamental forms")


def curvature_form_15_entry(f: SubmanifoldFrame, obj: InducedObjects,
                            curv: CurvatureTensor,
                            pair: CurvaturePair) -> CheckEntry:
    g = f.induced_form
    gp = f.phi_pairing
    gpp = f.phi_phi_pairing
    nu, nut = pair.nu, pair.nu_tilde
    phi_an = f.phi_p.pull_slots(obj.shape_n, (0,))
    rhs = (curvature_product(obj.shape_n, obj.b_form)
           - curvature_product(phi_an, obj.b_phi.scale(2))
           - curvature_product(f.projector, gpp.scale(nu) + gp.scale(nut))
           - curvature_product(f.phi_p, gp.scale(nu) - gpp.scale(nut))
           + curvature_product(outer(f.eta, f.radical_tangent()),
                               (g.scale(nu) - gp.scale(nut)).scale(rf("1/2"))))
    return residual_entry(
        "curvature-from-shape-terms", "eq-15", curv.table == rhs,
        "the induced curvature is rebuilt from shape operators and the "
        "two sectional invariants")


def codazzi_16_entry(f: SubmanifoldFrame, obj: InducedObjects,
                     pair: CurvaturePair, mu: RationalFunction) -> CheckEntry:
    m = f.dim
    g = f.induced_form
    gp = f.phi_pairing
    cd_b = obj.cd_b
    nu, nut = pair.nu, pair.nu_tilde
    mu2 = mu * mu

    def residual(a: int, b: int, c: int) -> RationalFunction:
        lhs = (cd_b.entry(a, b, c) - cd_b.entry(b, a, c)
               + obj.tau.entries[a] * obj.b_form.entry(b, c)
               - obj.tau.entries[b] * obj.b_form.entry(a, c))
        rhs = mu2 * (nu * (g.entry(a, c) * f.eta.entries[b]
                           - g.entry(b, c) * f.eta.entries[a])
                     - nut * (gp.entry(a, c) * f.eta.entries[b]
                              - gp.entry(b, c) * f.eta.entries[a]))
        return lhs - rhs

    return residual_entry(
        "b-derivative-balance", "eq-16", first_nonzero(residual, m, 3) is None,
        "the skew derivative of B matches mu^2 times the sectional terms")


def nu_tilde_vanishes_entry(pair: CurvaturePair) -> CheckEntry:
    return residual_entry(
        "twisted-sectional-vanishes", "thm-4.4", pair.nu_tilde.is_zero(),
        "a screen umbilical submanifold forces the twisted sectional "
        "curvature to vanish")


def gamma_identity_18_entry(obj: InducedObjects, f: SubmanifoldFrame,
                            pair: CurvaturePair, gamma_screen: RationalFunction,
                            mu: RationalFunction) -> CheckEntry:
    tau_xi = obj.tau.entries[f.radical_index]
    residual = (pair.nu + tau_xi * gamma_screen * 2
                - mu * mu * gamma_screen * gamma_screen * 4)
    return residual_entry(
        "umbilic-factor-identity", "eq-18", residual.is_zero(),
        "nu + 2 tau(xi) gamma - 4 mu^2 gamma^2 = 0, derivative terms vanish "
        "for invariant data")


def curvature_form_19_entry(f: SubmanifoldFrame, curv: CurvatureTensor,
                            pair: CurvaturePair, gamma_screen: RationalFunction,
                            mu: RationalFunction) -> CheckEntry:
    g = f.induced_form
    nu = pair.nu
    mg2 = mu * mu * gamma_screen * gamma_screen
    rhs = (curvature_product(f.projector, g.scale(nu - mg2 * 2)
                             - outer(f.eta_bar, f.eta_bar).scale(nu))
           + curvature_product(f.phi_p, f.phi_pairing.scale(mg2 * 4 - nu))
           + curvature_product(outer(f.eta, f.radical_tangent()),
                               g.scale(rf("1/2") * nu)))
    return residual_entry(
        "umbilic-curvature-form", "eq-19", curv.table == rhs,
        "the induced curvature collapses to the screen umbilical normal form")


def ricci_form_20_entry(f: SubmanifoldFrame, ric: MultilinearForm,
                        pair: CurvaturePair, gamma_screen: RationalFunction,
                        mu: RationalFunction, n: int) -> CheckEntry:
    g = f.induced_form
    nu = pair.nu
    mg2 = mu * mu * gamma_screen * gamma_screen
    k = nu * rf(f"{4 * n - 7}/2") - mg2 * (2 * (2 * n - 5))
    c = -(nu * (2 * (n - 1)))
    expected = g.scale(k) + outer(f.eta_bar, f.eta_bar).scale(c)
    return residual_entry(
        "umbilic-ricci-form", "eq-20", ric == expected,
        "Ric = [((4n-7)/2) nu - 2(2n-5) mu^2 gamma^2] g - 2(n-1) nu eta x eta")


def ricci_symmetric_entry(ric: MultilinearForm) -> CheckEntry:
    return residual_entry(
        "induced-ricci-symmetric", "sec-3-ricci", ric.is_symmetric(),
        "closedness of tau makes the induced Ricci tensor symmetric")


def semisym_closed_23(f: SubmanifoldFrame, pair: CurvaturePair,
                      gamma_screen: RationalFunction, mu: RationalFunction,
                      n: int) -> MultilinearForm:
    g = f.induced_form
    nu = pair.nu
    mg2 = mu * mu * gamma_screen * gamma_screen
    factor = nu * (nu * rf("1/2") - mg2 * 2) * (2 * n - 5)
    eta_eta = outer(f.eta_bar, f.eta_bar).scale(factor)
    return curvature_product(g, eta_eta) - curvature_product(eta_eta, g)


def semisym_23_entry(f: SubmanifoldFrame, curv: CurvatureTensor,
                     pair: CurvaturePair, gamma_screen: RationalFunction,
                     mu: RationalFunction, n: int) -> CheckEntry:
    """The action of curv on its own Ricci tensor against eq. (23)."""
    direct = curv.ricci_action
    closed = semisym_closed_23(f, pair, gamma_screen, mu, n)
    return residual_entry(
        "ricci-action-closed-form", "eq-23", direct == closed,
        "the curvature action on Ric matches its closed form")


def eta_einstein_solve(f: SubmanifoldFrame, ric: MultilinearForm
                       ) -> tuple[RationalFunction, RationalFunction]:
    """Solve Ric = k g + c (eta x eta) exactly over the tangent frame."""
    rows = [[g, ee] for g, ee in zip(
        f.induced_form.entries, outer(f.eta_bar, f.eta_bar).entries)]
    try:
        k, c = solve_unique(rows, ric.entries)
    except InconsistentSystem as exc:
        raise NotEtaEinstein(
            "the Ricci tensor is not a combination of the metric and the "
            "squared dual form") from exc
    except UnderdeterminedSystem as exc:
        raise NotEtaEinstein(
            "the metric and the squared dual form are linearly dependent "
            "on this frame") from exc
    return k, c
