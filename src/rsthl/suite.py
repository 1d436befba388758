"""Check-suite orchestration over a model file.

Three stages run in order: the ambient stage certifies the structure and
extracts the sectional invariants, the submanifold stage rebuilds both
induced geometries and evaluates every catalogued identity, and the final
stage aggregates the five equivalent assertions.  A suite runs the stages
up to the last one it reports and builds only the geometry their steps
read.

Every step has one form, ``_Stage.run(name, anchor, reads, build,
blocks, names)``: ``reads()`` returns the geometry the step reads, and
``build(*values)`` returns its entry, its entries or a stage of its own.
Geometry exceptions never escape a stage; they become failing entries,
and the steps whose inputs are gone report one skipped entry each,
naming the first failing entry that blocked them.  A missing hypothesis
is raised by its read (``Geometry.pair``, ``Geometry.gamma``, or
``Geometry.screen``, which reads both), and a step that reads it skips,
naming it, and blocks nothing.  The frame, ascreen and twin conditions
are the steps of a stage of their own.  Under ``theorem46`` the earlier
stages build only the steps that can block the theorem; the others just
read their geometry.  The three exact solves whose failure is a verdict
(the sectional invariants, eta-Einstein and Einstein) go through
``_fit`` and one step builder.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional

from . import associated
from . import lightlike
from . import report
from .builtin import factor_signature_entry
from .errors import GeometryError, InconsistentSystem, UnderdeterminedSystem
from .liegeom import (
    CurvatureTensor,
    InvariantMetric,
    curvature,
    curvature_entries,
    koszul_entries,
    levi_civita,
    validate_lie_algebra,
)
from .model import ModelFile
from .structure import (
    ACBMStructure,
    CurvaturePair,
    associated_compat_entry,
    basic_curvature_tensors,
    constant_curvature_residual,
    fundamental_tensor,
    metric_signature_entry,
    validate_acbm,
)
from .tensors import MultilinearForm, solve_combination

SUITES = ("ambient", "submanifold", "theorem46", "all")

_NO_SUB = "the model declares no submanifold"


class _Unavailable(Exception):
    """A value a step reads is missing; the step skips with this reason."""


class Geometry:
    """The derived geometry of one model, each object built on first read.

    A build that raises caches nothing, and the stage whose step read it
    blocks, so no later step reads it again.  The exact solves whose
    failure is a verdict (the sectional invariants, eta-Einstein and
    Einstein) cache their value, or None and the reason.  No step sets
    anything here.
    """

    def __init__(self, model: ModelFile):
        self.model = model

    @cached_property
    def metric(self) -> InvariantMetric:
        return InvariantMetric(self.model.metric_form)

    @cached_property
    def conn(self) -> MultilinearForm:
        """The Levi-Civita connection, as its Christoffel table."""
        return levi_civita(self.model.brackets, self.metric)

    @cached_property
    def structure(self) -> ACBMStructure:
        m = self.model
        return ACBMStructure(m.frame, m.phi, m.xi_bar, m.eta_bar, self.metric)

    @cached_property
    def curv(self) -> CurvatureTensor:
        return curvature(self.conn, self.model.brackets)

    @cached_property
    def r4(self) -> MultilinearForm:
        return self.curv.lower(self.metric)

    @cached_property
    def curvature_basis(self) -> tuple[MultilinearForm, MultilinearForm]:
        """The basic curvature tensors A and B of thm-4.1."""
        return basic_curvature_tensors(self.structure)

    @cached_property
    def sectional(self):
        """(nu, nu_tilde) with r4 = nu A + nu_tilde B, or None, and the
        reason.  The pair does not depend on the frame; A and B are
        linearly dependent in dimension 3."""
        coefficients, reason = _fit(
            self.r4, self.curvature_basis,
            "the lowered curvature is no combination nu A + nu~ B of the "
            "basic curvature tensors",
            "the basic curvature tensors A and B are linearly dependent, "
            "so nu and nu~ are not determined")
        return CurvaturePair(*coefficients) if coefficients else None, reason

    @property
    def pair(self) -> CurvaturePair:
        """The sectional invariants; ``_Unavailable`` when the fit fails."""
        if self.sectional[0] is None:
            raise _Unavailable("the ambient sectional invariants are unavailable")
        return self.sectional[0]

    @cached_property
    def frame(self) -> lightlike.SubmanifoldFrame:
        sub = self.model.submanifold
        return lightlike.SubmanifoldFrame(self.model.brackets, self.structure,
                                          sub.screen_labels, sub.screen, sub.rad,
                                          sub.l_vec, sub.n_vec)

    @cached_property
    def certification(self):
        """The invariant mu and the conditions of sec-2-ascreen."""
        return lightlike.certify_ascreen_rsthl(self.frame)

    @cached_property
    def mu(self):
        return self.certification[0]

    @cached_property
    def induced(self) -> lightlike.InducedObjects:
        return lightlike.gauss_weingarten(self.frame, self.conn)

    @cached_property
    def umbilicity(self) -> lightlike.UmbilicityReport:
        return lightlike.UmbilicityReport(self.frame, self.induced)

    @property
    def gamma(self):
        """The screen umbilicity factor (ZERO on a screen totally geodesic
        frame); ``_Unavailable`` off the screen umbilical class."""
        if self.umbilicity.gamma_screen is None:
            raise _Unavailable("the screen distribution is not totally umbilical")
        return self.umbilicity.gamma_screen

    @cached_property
    def screen(self) -> lightlike.ScreenUmbilical:
        """The data of the screen umbilical closed forms; ``_Unavailable``
        from ``pair``, then from ``gamma``."""
        return lightlike.ScreenUmbilical(self.pair, self.gamma, self.mu,
                                         self.structure.n)

    @cached_property
    def curv_ind(self) -> CurvatureTensor:
        return curvature(self.induced.gamma, self.frame.tangent_brackets)

    @cached_property
    def twin(self):
        """The twin geometry and the conditions of its three-route build."""
        return associated.build_associated(self.frame, self.induced, self.mu,
                                           self.conn)

    @property
    def assoc(self) -> associated.AssociatedObjects:
        return self.twin[0]

    @cached_property
    def tcurv(self) -> CurvatureTensor:
        return curvature(self.assoc.gamma, self.frame.tangent_brackets)

    @cached_property
    def eta_einstein(self):
        """(k, c) with Ric = k g + c eta x eta, or None, and the reason."""
        f = self.frame
        return _fit(
            self.curv_ind.ricci, (f.induced_form, f.eta_eta),
            "the Ricci tensor is not a combination of the metric and the "
            "squared dual form",
            "the metric and the squared dual form are linearly dependent "
            "on this frame")

    @cached_property
    def einstein(self):
        """lambda with Ric~ = lambda g~, or None, and the reason."""
        coefficients, reason = _fit(
            self.tcurv.ricci, (self.assoc.metric.form,),
            "the twin Ricci tensor is not proportional to the twin metric",
            "the twin metric vanishes on this frame")
        return coefficients[0] if coefficients else None, reason


def _fit(target: MultilinearForm, basis: tuple, inconsistent: str,
         underdetermined: str):
    """(the coefficients of target over basis, None), or (None, the
    reason) when the exact solve has no solution or more than one."""
    try:
        return solve_combination(target, *basis), None
    except InconsistentSystem:
        return None, inconsistent
    except UnderdeterminedSystem:
        return None, underdetermined


class _Stage:
    """Ordered steps with blocking.

    ``run(name, anchor, reads, build, blocks, names)`` is the one step
    form: ``reads()`` returns the geometry the step reads (``reads=tuple``
    reads nothing) and ``build(*values)`` returns an entry, a list of
    entries or a stage of its own, whose entries join this one and which
    blocks this stage where it blocked itself.  A step that raises a
    ``GeometryError`` fails and blocks; a blocking step whose entries
    fail blocks.  A step whose reads or build raise ``_Unavailable``
    reports one skipped entry with its reason for each of ``names`` (the
    step name by default) and blocks nothing.  Once blocked, every later
    step of the stage degrades to one skipped entry, whose reason names
    the first failing entry.

    A stage that does not report runs reads() for every step, so a read
    that raises still blocks under the step's name, and build only for a
    blocking step; the build of any other step must raise nothing once
    its reads have succeeded."""

    def __init__(self, blocker: Optional[str] = None, reports: bool = True):
        self.entries: list[report.CheckEntry] = []
        self.blocker = blocker  # the skip reason once a step has blocked
        self.reports = reports

    def run(self, name: str, anchor: str, reads: Callable[[], tuple],
            build: Callable, blocks: bool = False, names: tuple = ()) -> None:
        if self.blocker:
            self.entries.append(report.skipped(name, anchor, self.blocker))
            return
        try:
            values = reads()
            if not (self.reports or blocks):
                return
            new = build(*values)
        except _Unavailable as exc:
            new = [report.skipped(n, anchor, str(exc)) for n in names or (name,)]
        except GeometryError as exc:
            new, blocks = report.failed(name, anchor, str(exc)), True
        if isinstance(new, _Stage):
            self.entries.extend(new.entries)
            self.blocker = new.blocker
            return
        if isinstance(new, report.CheckEntry):
            new = [new]
        self.entries.extend(new)
        failed = [e for e in new if e.status == report.FAIL]
        if blocks and failed:
            self.blocker = f"blocked by {failed[0].name} (fail)"


def _solve_step(st: _Stage, name: str, anchor: str, solved: Callable[[], tuple],
                describe: Callable[..., str]) -> None:
    """The step reporting an exact solve: solved() returns (value, None),
    which passes with describe(value), or (None, reason), which fails."""
    st.run(name, anchor, solved, lambda value, reason: (
        report.failed(name, anchor, reason) if value is None
        else report.passed(name, anchor, describe(value))))


def decided(preconditions, conditions=(), reports: bool = True) -> _Stage:
    """Each condition (name, anchor, sides) as one step of a new stage: the
    entry ``report.compare`` makes of the got, want and statement that
    sides() returns.  A precondition blocks the steps after it; the other
    conditions block nothing, and a stage that does not report skips them."""
    st = _Stage(reports=reports)
    for group, blocks in ((preconditions, True), (conditions, False)):
        for name, anchor, sides in group:
            st.run(name, anchor, tuple,
                   lambda: report.compare(name, anchor, *sides()), blocks)
    return st


def _ambient_stage(geo: Geometry, reports: bool) -> _Stage:
    st = _Stage(reports=reports)
    model = geo.model

    st.run("lie-algebra", "plumbing", lambda: (model.brackets,),
           validate_lie_algebra, blocks=True)

    # reading the metric raises on a degenerate table
    st.run("invariant-metric", "plumbing", lambda: (geo.metric,),
           lambda metric: report.passed(
               "invariant-metric", "plumbing",
               "the metric table is symmetric and nondegenerate"))

    st.run("koszul", "plumbing", lambda: (geo.conn, model.brackets, geo.metric),
           koszul_entries, blocks=True)

    def structure_axioms(s):
        axioms = _Stage()
        axioms.run("structure-axioms", "sec-2-structure", lambda: (s,),
                   validate_acbm, blocks=True)
        # a degenerate table has blocked the stage at invariant-metric, so
        # the axioms force the signature
        axioms.run("metric-signature", "sec-2-structure", lambda: (s,),
                   metric_signature_entry)
        return axioms
    # reading the structure raises on an even-dimensional frame
    st.run("structure-axioms", "sec-2-structure", lambda: (geo.structure,),
           structure_axioms, blocks=True)

    st.run("associated-metric", "sec-2-structure", lambda: (geo.structure,),
           associated_compat_entry, blocks=True)

    st.run("fundamental-tensor", "sec-2-f0", lambda: (geo.structure, geo.conn),
           lambda s, conn: report.compare(
               "fundamental-tensor-vanishes", "sec-2-f0",
               fundamental_tensor(s, conn), MultilinearForm.zero(model.frame, 3),
               "the covariant derivative of the structure operator vanishes"),
           blocks=True)

    st.run("lc-coincide", "sec-2-f0", lambda: (geo.structure.g_tilde, geo.conn),
           lambda g_tilde, conn: report.compare(
               "connections-coincide", "sec-2-f0",
               levi_civita(model.brackets, g_tilde), conn,
               "both ambient metrics share one torsion free metric connection"))

    st.run("curvature", "plumbing", lambda: (geo.curv, geo.r4),
           curvature_entries, blocks=True)

    def twisted_lowering(r4, curv, g_tilde):
        twisted = r4.pull_slots(model.phi, (3,))
        return report.compare(
            "twisted-lowering", "sec-4-twist",
            (curv.lower(g_tilde), twisted),
            (twisted, r4.pull_slots(model.phi, (2,))),
            "lowering the curvature with the twin metric twists either of "
            "the last two slots")
    st.run("twisted-lowering", "sec-4-twist",
           lambda: (geo.r4, geo.curv, geo.structure.g_tilde), twisted_lowering)

    _solve_step(st, "sectional-fit", "thm-4.1", lambda: geo.sectional,
                lambda pair: f"nu = {pair.nu}, nu_tilde = {pair.nu_tilde}")

    st.run("constant-curvature-form", "thm-4.1",
           lambda: (geo.r4, geo.curvature_basis, geo.pair),
           constant_curvature_residual)

    st.run("signature-audit", "example-4.7", tuple, factor_signature_entry)
    return st


def _submanifold_stage(geo: Geometry, blocker: Optional[str],
                       reports: bool) -> _Stage:
    if geo.model.submanifold is None:
        st = _Stage(_NO_SUB, reports)
        st.entries.append(report.skipped("submanifold-frame", "plumbing", _NO_SUB))
        return st
    st = _Stage(blocker, reports)

    st.run("submanifold-frame", "sec-2-splitting", lambda: (geo.frame,),
           lambda f: decided(lightlike.frame_conditions(f)), blocks=True)
    # any failure among the ten conditions blocks the stage
    st.run("ascreen-certification", "sec-2-ascreen", lambda: (geo.certification,),
           lambda certification: decided(*certification[1]).entries, blocks=True)
    st.run("gauss-weingarten", "sec-2-induced", lambda: (geo.frame, geo.induced),
           lightlike.induced_invariant_entries)
    st.run("structure-transfer", "eq-2.7", lambda: (geo.frame, geo.induced, geo.mu),
           lightlike.ascreen_f0_entries)
    st.run("umbilicity", "def-3.1", lambda: (geo.umbilicity,),
           lambda umbilicity: report.passed("umbilicity", "def-3.1",
                                            umbilicity.describe()))
    st.run("screen-umbilicity", "eq-17",
           lambda: (geo.frame, geo.induced, geo.gamma, geo.mu),
           lightlike.screen_umbilical_entries,
           names=("n-shape-umbilic", "b-umbilic-multiple"))
    st.run("induced-curvature", "sec-3-ricci", lambda: (geo.curv_ind.ricci,),
           lightlike.ricci_symmetric_entry)
    st.run("gauss-relation", "sec-4-gauss",
           lambda: (geo.frame, geo.induced, geo.curv, geo.curv_ind),
           lightlike.gauss_relation_entry)
    st.run("curvature-from-shape-terms", "eq-15",
           lambda: (geo.frame, geo.induced, geo.curv_ind, geo.pair),
           lightlike.curvature_form_15_entry)
    st.run("b-derivative-balance", "eq-16",
           lambda: (geo.frame, geo.induced, geo.pair, geo.mu),
           lightlike.codazzi_16_entry)
    # the hypothesis of thm-4.4 is a screen umbilical frame
    st.run("twisted-sectional-vanishes", "thm-4.4", lambda: (geo.screen,),
           lightlike.nu_tilde_vanishes_entry)
    st.run("umbilic-factor-identity", "eq-18",
           lambda: (geo.frame, geo.induced, geo.screen),
           lightlike.gamma_identity_18_entry)
    st.run("umbilic-curvature-form", "eq-19",
           lambda: (geo.frame, geo.curv_ind, geo.screen),
           lightlike.curvature_form_19_entry)
    st.run("umbilic-ricci-form", "eq-20",
           lambda: (geo.frame, geo.curv_ind.ricci, geo.screen),
           lightlike.ricci_form_20_entry)
    _solve_step(st, "eta-einstein-solve", "sec-4-einstein", lambda: geo.eta_einstein,
                lambda kc: "Ric = ({}) g + ({}) eta x eta".format(*kc))
    st.run("ricci-action-closed-form", "eq-23",
           lambda: (geo.frame, geo.curv_ind, geo.screen),
           lightlike.semisym_23_entry)
    st.run("umbilical-flatness", "cor-4.3",
           lambda: (geo.umbilicity, geo.curv_ind, geo.curv),
           associated.umbilical_flatness_entry)
    # the conditions after the five preconditions raise nothing once those
    # have passed (see AssociatedObjects)
    st.run("twin-geometry", "thm-1.1", lambda: (geo.twin,),
           lambda twin: decided(*twin[1], reports), blocks=True)
    st.run("twin-curvature-transfer", "eq-13",
           lambda: (geo.frame, geo.induced, geo.mu, geo.curv_ind, geo.tcurv),
           associated.tilde_relation_13_entry)
    st.run("twin-ricci-transfer", "eq-14",
           lambda: (geo.frame, geo.induced, geo.mu, geo.curv_ind.ricci,
                    geo.tcurv.ricci),
           associated.tilde_ricci_14_entry)
    st.run("twin-umbilic-curvature-form", "eq-21",
           lambda: (geo.frame, geo.tcurv, geo.screen),
           associated.tilde_form_21_entry)
    st.run("twin-umbilic-ricci-form", "eq-22",
           lambda: (geo.frame, geo.tcurv.ricci, geo.screen),
           associated.tilde_ricci_22_entries,
           names=("twin-umbilic-ricci-form", "twin-ricci-last-term"))
    _solve_step(st, "einstein-solve", "sec-4-einstein", lambda: geo.einstein,
                lambda lam: f"Ric~ = ({lam}) g~")
    st.run("twin-ricci-action-closed-form", "eq-24",
           lambda: (geo.frame, geo.tcurv, geo.screen),
           associated.semisym_24_entry)
    st.run("geodesic-correspondence", "prop-3.3", lambda: (geo.assoc, geo.umbilicity),
           associated.geodesic_correspondence_entries)
    st.run("umbilical-curvature-transfer", "cor-3.5",
           lambda: (geo.umbilicity, geo.assoc, geo.curv_ind, geo.tcurv),
           associated.curvature_transfer_entry)
    return st


def _theorem_stage(geo: Geometry, blocker: Optional[str]) -> _Stage:
    st = _Stage()

    def reads():
        # an earlier block skips each of the six assertions, naming it
        if blocker:
            raise _Unavailable(blocker)
        geo.pair  # a missing pair skips without the hypothesis suffix
        try:
            screen = geo.screen
        except _Unavailable as exc:
            raise _Unavailable(f"{exc}, the theorem hypothesis fails")
        if screen.nu.is_zero():
            raise _Unavailable("the sectional invariant nu vanishes, the theorem "
                               "hypothesis fails")
        return (geo.curv_ind, geo.tcurv, screen, geo.eta_einstein[0],
                geo.einstein[0])
    st.run("theorem-aggregate", "thm-4.6", reads, associated.theorem_aggregate,
           names=associated.THEOREM_NAMES)
    return st


def run_suite(model: ModelFile, suite: str = "all") -> report.CheckReport:
    """Run the stages the suite needs and collect one ordered report.

    ``theorem46`` reports the theorem stage only.  It runs every earlier
    step that can block the theorem or whose value the theorem reads, and
    of the others only the geometry reads, so the same step blocks it.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose one of {SUITES}")
    geo = Geometry(model)
    rep = report.CheckReport()
    reports = suite != "theorem46"
    st = _ambient_stage(geo, reports)
    if reports:
        rep.entries.extend(st.entries)
    if suite == "ambient":
        return rep
    st = _submanifold_stage(geo, st.blocker, reports)
    if reports:
        rep.entries.extend(st.entries)
    if suite == "submanifold":
        return rep
    rep.entries.extend(_theorem_stage(geo, st.blocker).entries)
    return rep
