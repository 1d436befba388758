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

Tangent-space objects are read from ambient tables through the frame's
``Splitting`` over (tangent, N, L), see "Splitting" in the catalog's
Conventions; ``associated`` splits over the twin normals (N1, N2).
The frame builds the tangent tables several identities share once (xi,
X -> eta(X) xi, eta-bar (x) eta-bar); ``InducedObjects`` builds phi P A*_xi.
C, nabla*, A*_xi and phi P are compositions with P, eta and xi, valid once
transversal-duality has made eta the radical coordinate.  The screen
umbilical closed forms (thm-4.4, eq-18 to eq-20, eq-23) read one
``ScreenUmbilical`` value, which forms mu^2 gamma^2 once.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional

from .errors import InconsistentSystem, InvalidFrame, UnderdeterminedSystem
from .liegeom import (
    CurvatureTensor,
    InvariantMetric,
    derivation_action,
    derivative,
)
from .report import CheckEntry, compare
from .scalars import HALF, ONE, RationalFunction, ZERO
from .structure import ACBMStructure, CurvaturePair
from .tensors import (
    Frame,
    MultilinearForm,
    compose,
    curvature_product,
    matrix_inverse,
    onto_frame,
    outer,
    rank,
    solve,
    solve_combination,
)


RADICAL_LABEL = "xi"


def solve_transversal(g: InvariantMetric, screen: tuple[MultilinearForm, ...],
                      rad: MultilinearForm, l_vec: MultilinearForm) -> MultilinearForm:
    """Solve for the null transversal N dual to the radical direction.

    N is pinned down by g(N, S) = 0, g(N, L) = 0, g(N, rad) = 1 and
    g(N, N) = 0.  The linear conditions leave a line N0 + t*rad; the
    quadratic one is then linear in t because rad is null.

    The first three of the ``frame_conditions`` make the linear
    system consistent with exactly that line as its kernel: the screen, L
    and rad are independent (the tangent vectors are, and L is unit and
    orthogonal to all of them), g is nondegenerate, and rad is null and
    orthogonal to the screen, L and itself.
    """
    rows = [g.form.apply(w).entries for w in (*screen, l_vec, rad)]
    rhs = [ZERO] * (len(screen) + 1) + [ONE]
    n0 = MultilinearForm(g.form.frame, 1, solve(rows, rhs)[0])
    t = g.form.value(n0, n0) * -HALF
    return n0 + rad.scale(t)


def embedding(frame: Frame, vectors: tuple[MultilinearForm, ...]) -> MultilinearForm:
    """The ambient operator E with E e_j = vectors[j], and E e_j = 0 for
    j >= len(vectors).  Pulled into a slot of an ambient table, it puts the
    tangent vectors T_j there: T'(.., e_j, ..) = T(.., T_j, ..)."""
    zero = MultilinearForm.zero(frame, 1)
    return MultilinearForm.from_cells(
        frame, 2, lambda j: vectors[j] if j < len(vectors) else zero)


class Splitting:
    """The adapted basis (T_1, ..., T_m, V1, V2): the tangent vectors of a
    frame and a transversal pair, inverted once.

    ``split`` reads a vector-valued ambient table on tangent arguments as
    a tangent-valued table plus one coefficient table per transversal.
    Raises DegenerateMetric when the vectors are not a basis.  Restricting
    a scalar-valued form needs no transversal, so it is
    ``SubmanifoldFrame.restrict``.
    """

    def __init__(self, f: SubmanifoldFrame,
                 transversals: tuple[MultilinearForm, MultilinearForm]):
        self.tangent_frame = f.tangent_frame
        self.transversals = transversals
        basis = f.tangent_vectors + transversals
        frame = basis[0].frame
        dim = frame.dimension
        inverse = matrix_inverse(
            [[basis[j].entry(i) for j in range(dim)] for i in range(dim)])
        self._coordinates = MultilinearForm.from_function(
            frame, 2, lambda i, r: inverse[r][i])
        self._embedding = f.embedding

    def split(self, table: MultilinearForm
              ) -> tuple[MultilinearForm, MultilinearForm, MultilinearForm]:
        """The tangent part (arity k) and the V1 and V2 parts (arity k - 1)
        of an arity-k vector-valued table, on the tangent frame: the
        tangent vectors pulled into the k - 1 lower slots, the values
        written over the adapted basis, then re-indexed."""
        on_tangent = table.pull_slots(self._embedding, range(table.arity - 1))
        return onto_frame(compose(on_tangent, self._coordinates), self.tangent_frame)

    def connection_parts(self, gamma: MultilinearForm) -> tuple:
        """The ambient connection gamma and its derivatives of V1 and V2,
        each split: the Gauss and the two Weingarten formulas."""
        return (self.split(gamma),
                *(self.split(derivative(gamma, v)) for v in self.transversals))


class SubmanifoldFrame:
    """Adapted frame (screen basis, radical, transversals) of a submanifold
    of the algebra with its structure, and its splitting over
    (tangent, N, L).  ``embedding`` puts the tangent vectors into the
    slots of ambient tables, for every restriction and split.

    The constructor checks the shape only: label count, reserved and
    distinct labels, dimension and independent tangent vectors.  The four
    conditions of the half lightlike splitting and the closure of the
    brackets are decided once, as the ``frame_conditions``.  N,
    the splitting, eta, eta-bar and the tangent brackets are built on first
    read, which comes after those entries pass: g(N, xi) = 1 puts N
    outside the span of the tangent space and L, and g(L, L) = +-1 with L
    orthogonal to the tangent space puts L outside that span, so the
    splitting cannot fail.  It owns the tangent tables the closed forms
    share: ``radical_tangent`` (xi), ``radical_part`` (X -> eta(X) xi, so
    ``projector`` is the identity minus it) and ``eta_eta``.
    """

    def __init__(self, brackets: MultilinearForm, structure: ACBMStructure,
                 screen_labels: tuple[str, ...],
                 screen: tuple[MultilinearForm, ...], rad: MultilinearForm,
                 l_vec: MultilinearForm, n_vec: Optional[MultilinearForm] = None):
        if len(screen_labels) != len(screen):
            raise InvalidFrame("screen labels and screen vectors differ in number")
        if RADICAL_LABEL in screen_labels:
            raise InvalidFrame(f"screen label {RADICAL_LABEL!r} is reserved")
        if len(set(screen_labels)) != len(screen_labels):
            raise InvalidFrame("screen labels must be distinct")
        self.brackets = brackets
        self.structure = structure
        self.screen_labels = tuple(screen_labels)
        self.screen = tuple(screen)
        self.rad = rad
        self.l_vec = l_vec
        self._given_n = n_vec
        dim = structure.frame.dimension
        m = len(screen) + 1
        if dim != m + 2:
            raise InvalidFrame(
                f"a half lightlike submanifold of a {dim}-dimensional ambient "
                f"space needs {dim - 3} screen vectors, got {len(screen)}")
        self.tangent_frame = Frame(self.screen_labels + (RADICAL_LABEL,))
        self.tangent_vectors = self.screen + (rad,)
        self.embedding = embedding(structure.frame, self.tangent_vectors)
        if rank([v.entries for v in self.tangent_vectors]) != m:
            raise InvalidFrame("the tangent vectors are linearly dependent")
        self.induced_form = self.restrict(structure.metric.form)
        self.epsilon = structure.metric.form.value(l_vec, l_vec)

    def restrict(self, form: MultilinearForm) -> MultilinearForm:
        """A scalar-valued ambient form on tangent arguments."""
        return onto_frame(form.pull_all(self.embedding), self.tangent_frame)[0]

    @property
    def radical_index(self) -> int:
        return self.tangent_frame.dimension - 1

    @cached_property
    def radical_tangent(self) -> MultilinearForm:
        return self.tangent_frame.basis_vector(self.radical_index)

    @cached_property
    def n_vec(self) -> MultilinearForm:
        """The given null transversal, or the one solved from the frame."""
        if self._given_n is not None:
            return self._given_n
        return solve_transversal(self.structure.metric, self.screen, self.rad, self.l_vec)

    @cached_property
    def splitting(self) -> Splitting:
        return Splitting(self, (self.n_vec, self.l_vec))

    @cached_property
    def eta(self) -> MultilinearForm:
        return self.restrict(self.structure.metric.form.apply(self.n_vec))

    @cached_property
    def eta_bar(self) -> MultilinearForm:
        return self.restrict(self.structure.eta_bar)

    @cached_property
    def bracket_parts(self) -> tuple[MultilinearForm, MultilinearForm, MultilinearForm]:
        """The brackets of tangent vectors, split over (tangent, N, L)."""
        return self.splitting.split(self.brackets)

    @property
    def tangent_brackets(self) -> MultilinearForm:
        """The brackets of the tangent frame."""
        return self.bracket_parts[0]

    @cached_property
    def radical_part(self) -> MultilinearForm:
        """The operator X -> eta(X) xi: projection on the radical along the screen."""
        return outer(self.eta, self.radical_tangent)

    @cached_property
    def projector(self) -> MultilinearForm:
        """Projection on the screen distribution along the radical."""
        return MultilinearForm.identity(self.tangent_frame) - self.radical_part

    @cached_property
    def eta_eta(self) -> MultilinearForm:
        """Table of eta-bar(T_a) eta-bar(T_b)."""
        return outer(self.eta_bar, self.eta_bar)

    @cached_property
    def phi_parts(self) -> tuple[MultilinearForm, MultilinearForm, MultilinearForm]:
        """The structure operator on tangent vectors, split over (tangent, N, L)."""
        return self.splitting.split(self.structure.phi)

    @cached_property
    def phi_p(self) -> MultilinearForm:
        """The tangent operator X -> phi(PX), read once screen-phi-invariance
        has passed: phi maps screen vectors to tangent ones."""
        # P kills xi (transversal-duality makes eta the radical coordinate),
        # so the transversal phi(xi) = mu L is never read
        return self.phi_parts[0].pull_slots(self.projector, (0,))

    @cached_property
    def phi_pairing(self) -> MultilinearForm:
        """Table of g(T_a, phi T_b) over the tangent basis."""
        return self.restrict(self.structure.g_phi)

    @cached_property
    def phi_phi_pairing(self) -> MultilinearForm:
        """Table of g(phi T_a, phi T_b) over the tangent basis."""
        return self.restrict(self.structure.g_phi_phi)

    @cached_property
    def twin_form(self) -> MultilinearForm:
        """Table of the twin metric g(T_a, phi T_b) + eta(T_a) eta(T_b)."""
        return self.phi_pairing + self.eta_eta


def frame_conditions(f: SubmanifoldFrame) -> tuple:
    """The half lightlike splitting and the closure of the brackets, in
    catalog order.  Each condition reads what the ones before it certify
    (N is solved on a certified frame, the brackets are split with N), so
    the suite decides each as a blocking step."""
    g = f.structure.metric.form
    tf = f.tangent_frame
    zero_form = MultilinearForm.zero(tf, 1)
    anchor = "sec-2-splitting"
    return (
        ("radical-isotropy", anchor, lambda: (
            f.induced_form.cell(f.radical_index), zero_form,
            "the radical direction is orthogonal to the whole tangent space")),
        # radical-isotropy made the radical row and column zero, so the rank
        # of the induced metric is its rank on the screen
        ("screen-nondegeneracy", anchor, lambda: (
            rank(f.induced_form.rows()) == len(f.screen),
            True, "the induced metric restricts without kernel to the screen")),
        # L is a unit normal: g(L, L) = +-1 and g(L, T_a) = 0
        ("transversal-normalization", anchor, lambda: (
            (f.epsilon * f.epsilon, f.restrict(g.apply(f.l_vec))), (ONE, zero_form),
            f"g(L, L) = {f.epsilon}")),
        # g(N, T_a) is 1 on xi and 0 on the screen
        ("transversal-duality", anchor, lambda: (
            (f.eta, g.value(f.n_vec, f.n_vec), g.value(f.n_vec, f.l_vec)),
            (f.radical_tangent, ZERO, ZERO),
            "N is null, pairs to 1 with the radical and annihilates screen and L")),
        ("tangent-closure", anchor, lambda: (
            f.bracket_parts[1:], (MultilinearForm.zero(tf, 2),) * 2,
            "brackets of tangent vectors stay tangent")),
    )


def certify_ascreen_rsthl(f: SubmanifoldFrame) -> tuple[RationalFunction, tuple]:
    """The invariant mu and the conditions of sec-2-ascreen, in catalog
    order, as (preconditions, conditions).  The frame conditions certify
    that L is a unit normal orthogonal to the tangent space and to N, so
    phi(xi) = mu L gives mu = eps g(phi(xi), L) without a solve.
    radical-phi-image compares phi(xi) with mu L and requires mu != 0; it
    is the one precondition of the other nine, which divide by mu."""
    s = f.structure
    phi_xi = s.phi.apply(f.rad)
    mu = f.epsilon * s.metric.form.value(phi_xi, f.l_vec)
    half_inv = None if mu.is_zero() else ONE / (mu + mu)
    anchor = "sec-2-ascreen"
    # phi(S_a) against its screen part: the residual is its part along the
    # radical and the two transversals
    phi_t = f.phi_parts[0]
    screen_parts = tuple(
        sum((v.scale(phi_t.entry(a, c)) for c, v in enumerate(f.screen)),
            MultilinearForm.zero(s.frame, 1))
        for a in range(len(f.screen)))
    return mu, ((
        ("radical-phi-image", anchor, lambda: (
            (phi_xi, mu.is_zero()), (f.l_vec.scale(mu), False), f"phi(xi) = ({mu}) L")),
    ), (
        ("reeb-split", anchor, lambda: (
            s.xi_bar, f.rad.scale(half_inv) + f.n_vec.scale(mu),
            "the distinguished field splits as (1/2mu) xi + mu N")),
        ("eta-of-radical", anchor, lambda: (s.eta_bar.value(f.rad), mu, "eta(xi) = mu")),
        ("transversal-unit", anchor, lambda: (f.epsilon, ONE, "g(L, L) = 1")),
        ("eta-of-transversal", anchor, lambda: (
            s.eta_bar.value(f.l_vec), ZERO, "eta(L) = 0")),
        ("eta-of-null-transversal", anchor, lambda: (
            s.eta_bar.value(f.n_vec), half_inv, "eta(N) = 1/(2 mu)")),
        ("phi-of-null-transversal", anchor, lambda: (
            s.phi.apply(f.n_vec), f.l_vec.scale(-half_inv), "phi(N) = -(1/2mu) L")),
        ("phi-of-transversal", anchor, lambda: (
            s.phi.apply(f.l_vec), f.n_vec.scale(mu) - f.rad.scale(half_inv),
            "phi(L) = -(1/2mu) xi + mu N")),
        ("screen-phi-invariance", anchor, lambda: (
            tuple(s.phi.apply(v) for v in f.screen), screen_parts,
            "the structure operator preserves the screen distribution")),
        ("eta-proportionality", anchor, lambda: (
            f.eta_bar, f.eta.scale(mu),
            "the restricted dual form equals mu times the transversal dual")),
    ))


class InducedObjects:
    """Induced connection, fundamental forms and shape operators."""

    def __init__(self, gamma: MultilinearForm, screen_gamma: MultilinearForm,
                 b_form: MultilinearForm, c_form: MultilinearForm,
                 d_form: MultilinearForm, shape_rad: MultilinearForm,
                 shape_n: MultilinearForm, shape_l: MultilinearForm,
                 tau: MultilinearForm, rho: MultilinearForm,
                 phi_form: MultilinearForm, frame: SubmanifoldFrame):
        self.gamma = gamma  # the induced connection
        self.screen_gamma = screen_gamma  # screen_gamma.cell(a, b) = nabla*_{T_a} P T_b
        self.b_form = b_form
        self.c_form = c_form
        self.d_form = d_form
        self.shape_rad = shape_rad
        self.shape_n = shape_n
        self.shape_l = shape_l
        self.tau = tau
        self.rho = rho
        self.phi_form = phi_form
        self.frame = frame

    @cached_property
    def b_phi(self) -> MultilinearForm:
        """B(X, phi P Y)."""
        return self.b_form.pull_slots(self.frame.phi_p, (1,))

    @cached_property
    def phi_shape_rad(self) -> MultilinearForm:
        """The operator phi P A*_xi."""
        return self.frame.phi_p.pull_slots(self.shape_rad, (0,))

    @cached_property
    def cd_b(self) -> MultilinearForm:
        """(nabla_X B)(Y, Z); for invariant data only the connection terms survive."""
        return derivation_action(self.gamma, self.b_form)

    @cached_property
    def cd_b_phi(self) -> MultilinearForm:
        """(nabla_X B)(Y, phi P Z)."""
        return self.cd_b.pull_slots(self.frame.phi_p, (2,))

    @cached_property
    def cd_d(self) -> MultilinearForm:
        return derivation_action(self.gamma, self.d_form)


def gauss_weingarten(f: SubmanifoldFrame, ambient_gamma: MultilinearForm) -> InducedObjects:
    """Split the ambient connection (Gauss) and its derivatives of N and L
    (Weingarten) over (tangent, N, L)."""
    # the L part of nabla_X L is eps g(nabla_X L, L) = (eps/2) X g(L, L) = 0
    (gamma, b_form, d_form), (along_n, tau, rho), (along_l, phi_form, _) = \
        f.splitting.connection_parts(ambient_gamma)
    shape_n, shape_l = -along_n, -along_l

    # nabla_X PY, split along P: transversal-duality makes eta the radical
    # coordinate, so C = eta(nabla_X PY) and nabla*_X PY = P nabla_X PY
    gamma_p = gamma.pull_slots(f.projector, (1,))
    c_form = compose(gamma_p, f.eta)
    screen_gamma = compose(gamma_p, f.projector)
    # A*_xi X = -nabla_X xi - tau(X) xi
    xi_t = f.radical_tangent
    shape_rad = -derivative(gamma, xi_t) - outer(tau, xi_t)

    return InducedObjects(gamma=gamma, screen_gamma=screen_gamma,
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
    # compose(t, xi) is X -> t(X, xi) for a form t, and the xi coefficient
    # of t(X) for an operator t
    xi_t = f.radical_tangent
    g_rad = g.pull_slots(obj.shape_rad, (0,))  # g(A*_xi T_a, T_b)
    g_l_proj = g.pull_slots(obj.shape_l, (0,)).pull_slots(proj, (1,))  # g(A_L T_a, P T_b)
    low = obj.gamma.pull_slots(g, (2,))  # g(nabla_{T_a} T_b, T_c)
    b_eta = outer(obj.b_form, f.eta)  # B(X, Y) eta(Z)
    brackets = f.tangent_brackets
    # tau([T_a, T_b]) = -d tau(T_a, T_b) for invariant data
    tau_brackets = compose(brackets, obj.tau)
    return [
        compare("induced-torsion-free", anchor, obj.gamma.skew(), brackets,
                "the induced connection has the tangent brackets as torsion defect zero"),
        compare("b-symmetric", anchor, obj.b_form, obj.b_form.permute((1, 0)),
                "the N-valued fundamental form is symmetric"),
        compare("d-symmetric", anchor, obj.d_form, obj.d_form.permute((1, 0)),
                "the L-valued fundamental form is symmetric"),
        compare("b-kills-radical", anchor, compose(obj.b_form, xi_t), zero_form,
                "B(X, xi) = 0"),
        compare("d-radical-slot", anchor, compose(obj.d_form, xi_t), -obj.phi_form,
                "D(X, xi) = -phi(X)"),
        compare("radical-shape-kills-radical", anchor,
                compose(xi_t, obj.shape_rad), zero_form,
                "the radical shape operator annihilates xi"),
        compare("radical-shape-self-adjoint", anchor, g_rad, g_rad.permute((1, 0)),
                "the radical shape operator is self-adjoint for the induced metric"),
        compare("b-from-radical-shape", anchor, obj.b_form, g_rad,
                "B(X, Y) = g(A*_xi X, Y)"),
        compare("radical-shape-screen-valued", anchor, compose(obj.shape_rad, xi_t),
                zero_form, "the radical shape operator takes values in the screen"),
        compare("n-shape-screen-valued", anchor, compose(obj.shape_n, xi_t), zero_form,
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
                obj.phi_shape_rad.scale(inv_mu), "A_L = (1/mu) phi A*_xi"),
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


class UmbilicityReport:
    """Proportionality factors of the fundamental forms against the metric,
    and the umbilicity classes they decide."""

    def __init__(self, f: SubmanifoldFrame, obj: InducedObjects):
        g = f.induced_form
        self.beta = proportionality_factor(obj.b_form, g)
        self.delta = proportionality_factor(obj.d_form, g)
        self.gamma_screen = proportionality_factor(obj.c_form, g)
        self.totally_geodesic = obj.b_form.is_zero() and obj.d_form.is_zero()
        self.totally_umbilical = self.beta is not None and self.delta is not None
        self.screen_totally_geodesic = obj.c_form.is_zero()
        self.screen_umbilical = self.gamma_screen is not None

    def describe(self) -> str:
        flags = []
        if self.totally_geodesic:
            flags.append("totally geodesic")
        elif self.totally_umbilical:
            flags.append(f"proper totally umbilical (beta = {self.beta}, "
                         f"delta = {self.delta})")
        else:
            flags.append("not totally umbilical")
        if self.screen_totally_geodesic:
            flags.append("screen totally geodesic")
        elif self.screen_umbilical:
            flags.append(f"screen totally umbilical (gamma = {self.gamma_screen})")
        else:
            flags.append("screen not umbilical")
        return "; ".join(flags)


class ScreenUmbilical:
    """The data every screen umbilical closed form reads (thm-4.4, eq-18 to
    eq-24, thm-4.6): the ambient sectional invariants nu and nu~, the
    screen factor gamma, n of the ambient dimension 2n + 1, and
    mg2 = mu^2 gamma^2, formed once here."""

    def __init__(self, pair: CurvaturePair, gamma: RationalFunction,
                 mu: RationalFunction, n: int):
        self.nu, self.nu_tilde = pair.nu, pair.nu_tilde
        self.gamma = gamma
        self.n = n
        self.mg2 = mu * mu * gamma * gamma


def proportionality_factor(table: MultilinearForm, metric: MultilinearForm
                           ) -> Optional[RationalFunction]:
    """The exact factor making table = factor * metric, or None."""
    try:
        (factor,) = solve_combination(table, metric)
    except (InconsistentSystem, UnderdeterminedSystem):
        return None
    return factor


def screen_umbilical_entries(f: SubmanifoldFrame, obj: InducedObjects,
                             gamma: RationalFunction,
                             mu: RationalFunction) -> list[CheckEntry]:
    return [compare("n-shape-umbilic", "eq-17", obj.shape_n, f.projector.scale(gamma),
                    "A_N X = gamma PX"),
            compare("b-umbilic-multiple", "eq-17", obj.b_form,
                    f.induced_form.scale(-(mu * mu * gamma * 2)),
                    "B(X, Y) = -2 mu^2 gamma g(X, Y)")]


def gauss_relation_entry(f: SubmanifoldFrame, obj: InducedObjects,
                         ambient_curv: CurvatureTensor,
                         induced_curv: CurvatureTensor) -> CheckEntry:
    """Master consistency check reassembling the ambient curvature.

    R-bar(T_a, T_b) T_c splits over (tangent, N, L) into three tables: the
    Gauss equation and the two Codazzi equations.
    """
    tangent, n_part, l_part = f.splitting.split(ambient_curv.table)
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
           + curvature_product(f.radical_part, (g.scale(nu) - gp.scale(nut)).scale(HALF)))
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


def nu_tilde_vanishes_entry(screen: ScreenUmbilical) -> CheckEntry:
    return compare(
        "twisted-sectional-vanishes", "thm-4.4", screen.nu_tilde, ZERO,
        "a screen umbilical submanifold forces the twisted sectional "
        "curvature to vanish")


def gamma_identity_18_entry(f: SubmanifoldFrame, obj: InducedObjects,
                            screen: ScreenUmbilical) -> CheckEntry:
    tau_xi = obj.tau.entry(f.radical_index)
    return compare(
        "umbilic-factor-identity", "eq-18", screen.nu + tau_xi * screen.gamma * 2,
        screen.mg2 * 4,
        "nu + 2 tau(xi) gamma - 4 mu^2 gamma^2 = 0, derivative terms vanish "
        "for invariant data")


def curvature_form_19_entry(f: SubmanifoldFrame, curv: CurvatureTensor,
                            screen: ScreenUmbilical) -> CheckEntry:
    g = f.induced_form
    nu, mg2 = screen.nu, screen.mg2
    rhs = (curvature_product(f.projector, g.scale(nu - mg2 * 2) - f.eta_eta.scale(nu))
           + curvature_product(f.phi_p, f.phi_pairing.scale(mg2 * 4 - nu))
           + curvature_product(f.radical_part, g.scale(HALF * nu)))
    return compare(
        "umbilic-curvature-form", "eq-19", curv.table, rhs,
        "the induced curvature collapses to the screen umbilical normal form")


def ricci_form_20_entry(f: SubmanifoldFrame, ric: MultilinearForm,
                        screen: ScreenUmbilical) -> CheckEntry:
    nu, mg2, n = screen.nu, screen.mg2, screen.n
    k = nu * (4 * n - 7) * HALF - mg2 * (2 * (2 * n - 5))
    c = -(nu * (2 * (n - 1)))
    expected = f.induced_form.scale(k) + f.eta_eta.scale(c)
    return compare(
        "umbilic-ricci-form", "eq-20", ric, expected,
        "Ric = [((4n-7)/2) nu - 2(2n-5) mu^2 gamma^2] g - 2(n-1) nu eta x eta")


def ricci_symmetric_entry(ric: MultilinearForm) -> CheckEntry:
    return compare(
        "induced-ricci-symmetric", "sec-3-ricci", ric, ric.permute((1, 0)),
        "closedness of tau makes the induced Ricci tensor symmetric")


def semisym_closed_23(f: SubmanifoldFrame, screen: ScreenUmbilical) -> MultilinearForm:
    g, nu = f.induced_form, screen.nu
    factor = nu * (nu * HALF - screen.mg2 * 2) * (2 * screen.n - 5)
    eta_eta = f.eta_eta.scale(factor)
    return curvature_product(g, eta_eta) - curvature_product(eta_eta, g)


def semisym_23_entry(f: SubmanifoldFrame, curv: CurvatureTensor,
                     screen: ScreenUmbilical) -> CheckEntry:
    """The action of curv on its own Ricci tensor against eq. (23)."""
    return compare(
        "ricci-action-closed-form", "eq-23", curv.ricci_action,
        semisym_closed_23(f, screen),
        "the curvature action on Ric matches its closed form")
