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
from .report import CheckEntry, compare, passed, skipped
from .scalars import ONE, RationalFunction, ZERO, rf
from .structure import CurvaturePair, LieModel
from .tensors import (
    Frame,
    MultilinearForm,
    Vector,
    _echelon,
    curvature_product,
    determinant,
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
    gram = [[g.value(x, y) for y in f.screen] for x in f.screen]
    return [
        compare("radical-isotropy", "sec-2-splitting",
                f.induced_form.cell(f.radical_index), Vector.zero(f.tangent_frame),
                "the radical direction is orthogonal to the whole tangent space"),
        compare("screen-nondegeneracy", "sec-2-splitting",
                not gram or not determinant(gram).is_zero(), True,
                "the induced metric restricts without kernel to the screen"),
        compare("transversal-normalization", "sec-2-splitting",
                f.epsilon * f.epsilon, ONE, f"g(L, L) = {f.epsilon}"),
        compare("transversal-duality", "sec-2-splitting",
                tuple(g.value(f.n_vec, w) for w in (f.rad, f.n_vec, f.l_vec) + f.screen),
                (ONE,) + (ZERO,) * (len(f.screen) + 2),
                "N is null, pairs to 1 with the radical and annihilates screen and L"),
        passed("tangent-closure", "plumbing",
               "brackets of tangent vectors stay tangent"),
    ]


def certify_ascreen_rsthl(f: SubmanifoldFrame) -> tuple[RationalFunction, list[CheckEntry]]:
    """Certify the defining conditions and return the invariant mu.

    Raises NotRSTHL, NotAscreen or MuZero when the frame cannot carry the
    structure at all; milder defects are reported as failing entries.
    """
    s = f.model.structure
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

    anchor = "sec-2-ascreen"
    half_inv = ONE / (mu + mu)
    # phi(S_a) against its screen part: the residual is its part along
    # the radical and the two transversals
    images = tuple(s.phi.apply(v) for v in f.screen)
    screen_parts = tuple(
        f.embed(Vector(f.tangent_frame, t.components[:-1] + (ZERO,)))
        for t, _, _ in map(f.decompose_full, images))
    entries = [
        passed("radical-phi-image", anchor, f"phi(xi) = ({mu}) L"),
        compare("reeb-split", anchor, s.xi_bar,
                f.rad.scale(half_inv) + f.n_vec.scale(mu),
                "the distinguished field splits as (1/2mu) xi + mu N"),
        compare("eta-of-radical", anchor, s.eta_bar.value(f.rad), mu, "eta(xi) = mu"),
        compare("transversal-unit", anchor, f.epsilon, ONE, "g(L, L) = 1"),
        compare("eta-of-transversal", anchor, s.eta_bar.value(f.l_vec), ZERO,
                "eta(L) = 0"),
        compare("eta-of-null-transversal", anchor, s.eta_bar.value(f.n_vec), half_inv,
                "eta(N) = 1/(2 mu)"),
        compare("phi-of-null-transversal", anchor, s.phi.apply(f.n_vec),
                f.l_vec.scale(-half_inv), "phi(N) = -(1/2mu) L"),
        compare("phi-of-transversal", anchor, s.phi.apply(f.l_vec),
                f.n_vec.scale(mu) - f.rad.scale(half_inv), "phi(L) = -(1/2mu) xi + mu N"),
        compare("screen-phi-invariance", anchor, images, screen_parts,
                "the structure operator preserves the screen distribution"),
        compare("eta-proportionality", anchor, f.eta_bar, f.eta.scale(mu),
                "the restricted dual form equals mu times the transversal dual"),
    ]
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
    tf = f.tangent_frame
    eps = f.epsilon
    proj = f.projector
    zero_form = MultilinearForm.zero(tf, 1)

    def radical_slot(t: MultilinearForm) -> MultilinearForm:
        """The one-form X -> t(X, xi)."""
        return t.permute((1, 0)).at(f.radical_index)

    g_rad = g.pull_slots(obj.shape_rad, (0,))  # g(A*_xi T_a, T_b)
    g_l_proj = g.pull_slots(obj.shape_l, (0,)).pull_slots(proj, (1,))  # g(A_L T_a, P T_b)
    low = obj.conn.gamma.pull_slots(g, (2,))  # g(nabla_{T_a} T_b, T_c)
    b_eta = outer(obj.b_form, f.eta)  # B(X, Y) eta(Z)
    brackets = f.tangent_algebra.brackets
    # tau([T_a, T_b]) = -d tau(T_a, T_b) for invariant data
    tau_brackets = MultilinearForm.from_function(
        tf, 2, lambda a, b: obj.tau.value(brackets.cell(a, b)))
    return [
        compare("induced-torsion-free", anchor, obj.conn.gamma.skew(), brackets,
                "the induced connection has the tangent brackets as torsion defect zero"),
        compare("b-symmetric", anchor, obj.b_form, obj.b_form.permute((1, 0)),
                "the N-valued fundamental form is symmetric"),
        compare("d-symmetric", anchor, obj.d_form, obj.d_form.permute((1, 0)),
                "the L-valued fundamental form is symmetric"),
        compare("b-kills-radical", anchor, radical_slot(obj.b_form), zero_form,
                "B(X, xi) = 0"),
        compare("d-radical-slot", anchor, radical_slot(obj.d_form), -obj.phi_form,
                "D(X, xi) = -phi(X)"),
        compare("radical-shape-kills-radical", anchor,
                obj.shape_rad.cell(f.radical_index), Vector.zero(tf),
                "the radical shape operator annihilates xi"),
        compare("radical-shape-self-adjoint", anchor, g_rad, g_rad.permute((1, 0)),
                "the radical shape operator is self-adjoint for the induced metric"),
        compare("b-from-radical-shape", anchor, obj.b_form, g_rad,
                "B(X, Y) = g(A*_xi X, Y)"),
        compare("radical-shape-screen-valued", anchor, radical_slot(obj.shape_rad),
                zero_form, "the radical shape operator takes values in the screen"),
        compare("n-shape-screen-valued", anchor, radical_slot(obj.shape_n), zero_form,
                "the null transversal shape operator takes values in the screen"),
        compare("c-from-n-shape", anchor, obj.c_form,
                g.pull_slots(obj.shape_n, (0,)).pull_slots(proj, (1,)),
                "C(X, PY) = g(A_N X, PY)"),
        compare("d-from-l-shape", anchor, obj.d_form.pull_slots(proj, (1,)).scale(eps),
                g_l_proj, "eps D(X, PY) = g(A_L X, PY)"),
        compare("d-split", anchor, obj.d_form.scale(eps),
                g_l_proj - outer(obj.phi_form, f.eta),
                "eps D(X, Y) = g(A_L X, PY) - phi(X) eta(Y)"),
        compare("l-shape-duality", anchor, f.eta.pull_slots(obj.shape_l, (0,)),
                obj.rho.scale(eps), "g(A_L X, N) = eps rho(X)"),
        compare("metric-deviation", anchor, -(low + low.permute((0, 2, 1))),
                b_eta + b_eta.permute((0, 2, 1)),
                "(nabla_X g)(Y, Z) = B(X, Y) eta(Z) + B(X, Z) eta(Y)"),
        compare("tau-closed", anchor, tau_brackets, MultilinearForm.zero(tf, 2),
                "d tau = 0, hence the induced Ricci tensor is symmetric"),
    ]


def ascreen_f0_entries(f: SubmanifoldFrame, obj: InducedObjects,
                       mu: RationalFunction) -> list[CheckEntry]:
    """Identities special to the certified class, with mu as the only input."""
    tf = f.tangent_frame
    phi_p = f.phi_p
    inv_two_mu2 = ONE / (mu * mu * 2)
    inv_mu = ONE / mu
    sg = obj.screen_gamma
    entries = [
        compare("n-shape-from-radical-shape", "eq-2.7", obj.shape_n,
                obj.shape_rad.scale(-inv_two_mu2), "A_N = -(1/2mu^2) A*_xi"),
        compare("l-shape-from-radical-shape", "eq-2.7", obj.shape_l,
                phi_p.pull_slots(obj.shape_rad, (0,)).scale(inv_mu),
                "A_L = (1/mu) phi A*_xi"),
        compare("d-from-b", "eq-2.8", obj.d_form, obj.b_phi.scale(inv_mu),
                "D(X, Y) = (1/mu) B(X, phi PY)"),
        compare("c-from-b", "eq-2.8", obj.c_form, obj.b_form.scale(-inv_two_mu2),
                "C(X, PY) = -(1/2mu^2) B(X, Y)"),
        compare("tau-vanishes", "eq-2.9", obj.tau, MultilinearForm.zero(tf, 1),
                "tau = -d(log mu) and mu is constant for invariant data"),
        compare("phi-form-vanishes", "eq-2.9", obj.phi_form,
                MultilinearForm.zero(tf, 1), "phi = 0"),
        compare("rho-vanishes", "eq-2.9", obj.rho, MultilinearForm.zero(tf, 1),
                "rho = 0"),
        # nabla*_{T_a} (phi P T_b) against phi P (nabla*_{T_a} P T_b)
        compare("screen-phi-parallel", "eq-2.10", sg.pull_slots(phi_p, (1,)),
                sg.pull_slots(phi_p.permute((1, 0)), (2,)),
                "the screen connection makes the restricted structure operator parallel"),
    ]
    for name, op in (("radical-shape-phi-commute", obj.shape_rad),
                     ("n-shape-phi-commute", obj.shape_n),
                     ("l-shape-phi-commute", obj.shape_l)):
        # A phi P against phi A P: phi P already vanishes on xi
        entries.append(compare(
            name, "sec-2-commuting", op.pull_slots(phi_p, (0,)),
            phi_p.pull_slots(op, (0,)).pull_slots(f.projector, (0,)),
            "the shape operator commutes with the structure operator on the screen"))
    entries.append(compare(
        "b-phi-antisymmetry", "sec-2-commuting", obj.b_form.pull_all(phi_p),
        -obj.b_form, "B(phi X, phi Y) = -B(X, Y) on the screen"))
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
    return [compare("n-shape-umbilic", "eq-17", obj.shape_n, f.projector.scale(gam),
                    "A_N X = gamma PX"),
            compare("b-umbilic-multiple", "eq-17", obj.b_form,
                    f.induced_form.scale(-(mu * mu * gam * 2)),
                    "B(X, Y) = -2 mu^2 gamma g(X, Y)")]


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
    """Master consistency check reassembling the ambient curvature.

    R-bar(T_a, T_b) T_c splits over (tangent, N, L) into three tables: the
    Gauss equation and the two Codazzi equations.
    """
    t = f.tangent_vectors
    split = [f.decompose_full(ambient_curv.table.apply(x, y, z))
             for x in t for y in t for z in t]
    tangent = MultilinearForm.from_cells(
        f.tangent_frame, 4, lambda a, b, c: split[(a * f.dim + b) * f.dim + c][0])
    n_part, l_part = (MultilinearForm(f.tangent_frame, 3, tuple(p[k] for p in split))
                      for k in (1, 2))
    b, d = obj.b_form, obj.d_form
    return compare(
        "gauss-relation", "sec-4-gauss", (tangent, n_part, l_part),
        (induced_curv.table - curvature_product(obj.shape_n, b)
         - curvature_product(obj.shape_l, d),
         (obj.cd_b + outer(obj.tau, b) + outer(obj.phi_form, d)).skew(),
         (obj.cd_d + outer(obj.rho, b)).skew()),
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
    return compare(
        "curvature-from-shape-terms", "eq-15", curv.table, rhs,
        "the induced curvature is rebuilt from shape operators and the "
        "two sectional invariants")


def codazzi_16_entry(f: SubmanifoldFrame, obj: InducedObjects,
                     pair: CurvaturePair, mu: RationalFunction) -> CheckEntry:
    """The N part of the Gauss relation without its phi term, against
    mu^2 [nu (g(X, Z) eta(Y) - g(Y, Z) eta(X)) - nu~ (same with g(., phi .))]."""
    sectional = f.induced_form.scale(pair.nu) - f.phi_pairing.scale(pair.nu_tilde)
    return compare(
        "b-derivative-balance", "eq-16", (obj.cd_b + outer(obj.tau, obj.b_form)).skew(),
        outer(f.eta, sectional.scale(-(mu * mu))).skew(),
        "the skew derivative of B matches mu^2 times the sectional terms")


def nu_tilde_vanishes_entry(pair: CurvaturePair) -> CheckEntry:
    return compare(
        "twisted-sectional-vanishes", "thm-4.4", pair.nu_tilde, ZERO,
        "a screen umbilical submanifold forces the twisted sectional "
        "curvature to vanish")


def gamma_identity_18_entry(obj: InducedObjects, f: SubmanifoldFrame,
                            pair: CurvaturePair, gamma_screen: RationalFunction,
                            mu: RationalFunction) -> CheckEntry:
    tau_xi = obj.tau.entries[f.radical_index]
    return compare(
        "umbilic-factor-identity", "eq-18", pair.nu + tau_xi * gamma_screen * 2,
        mu * mu * gamma_screen * gamma_screen * 4,
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
    return compare(
        "umbilic-curvature-form", "eq-19", curv.table, rhs,
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
    return compare(
        "umbilic-ricci-form", "eq-20", ric, expected,
        "Ric = [((4n-7)/2) nu - 2(2n-5) mu^2 gamma^2] g - 2(n-1) nu eta x eta")


def ricci_symmetric_entry(ric: MultilinearForm) -> CheckEntry:
    return compare(
        "induced-ricci-symmetric", "sec-3-ricci", ric, ric.permute((1, 0)),
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
    return compare(
        "ricci-action-closed-form", "eq-23", direct, closed,
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
