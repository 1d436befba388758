"""Check-suite orchestration over a model file.

Three stages run in order: the ambient stage certifies the structure and
extracts the sectional invariants, the submanifold stage rebuilds both
induced geometries and evaluates every catalogued identity, and the final
stage aggregates the five equivalent assertions.  A suite runs the stages
up to the last one it reports and builds only the geometry their steps
read.  Geometry exceptions never escape a stage; they become failing
entries, and the steps whose inputs are gone report one skipped entry
each, naming the first failing entry that blocked them.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Optional

from . import associated
from . import lightlike
from . import report
from .builtin import factor_signature_entry
from .errors import (
    GeometryError,
    NoTotallyRealSection,
    NotEinstein,
    NotEtaEinstein,
)
from .liegeom import (
    Connection,
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
    LieModel,
    associated_compat_entry,
    constant_curvature_residual,
    fit_curvature_pair,
    fundamental_tensor,
    validate_acbm,
)
from .tensors import MultilinearForm

SUITES = ("ambient", "submanifold", "theorem46", "all")

_NO_PAIR = "the ambient sectional invariants are unavailable"
_NO_GAMMA = "the screen distribution is not totally umbilical"
_NO_SUB = "the model declares no submanifold"

_THEOREM_NAMES = (
    "assertion-ricci-semisymmetric",
    "assertion-twin-ricci-semisymmetric",
    "assertion-eta-einstein",
    "assertion-einstein",
    "assertion-scalar-identity",
    "assertion-equivalence",
)


class Geometry:
    """The derived geometry of one model, each object built on first read.

    A build that raises caches nothing, and the stage whose step read it
    blocks, so no later step reads it again.  ``invariants`` is the one
    slot the steps set: the fitted sectional pair, kept only while the
    constant curvature form confirms it.
    """

    def __init__(self, model: ModelFile):
        self.model = model
        self.invariants: Optional[CurvaturePair] = None

    @cached_property
    def metric(self) -> InvariantMetric:
        return InvariantMetric(self.model.metric_form)

    @cached_property
    def conn(self) -> Connection:
        return levi_civita(self.model.algebra, self.metric)

    @cached_property
    def structure(self) -> ACBMStructure:
        m = self.model
        return ACBMStructure(m.frame, m.phi, m.xi_bar, m.eta_bar, self.metric)

    @cached_property
    def lie_model(self) -> LieModel:
        return LieModel(self.model.algebra, self.structure)

    @cached_property
    def curv(self) -> CurvatureTensor:
        return curvature(self.conn, self.model.algebra)

    @cached_property
    def r4(self) -> MultilinearForm:
        return self.curv.lower(self.metric)

    @cached_property
    def pair(self) -> CurvaturePair:
        return fit_curvature_pair(self.structure, self.r4)

    @cached_property
    def frame(self) -> lightlike.SubmanifoldFrame:
        sub = self.model.submanifold
        return lightlike.build_frame(self.lie_model, sub.screen_labels,
                                     sub.screen, sub.rad, sub.l_vec, sub.n_vec)

    @cached_property
    def certification(self):
        """The invariant mu and the certification entries."""
        return lightlike.certify_ascreen_rsthl(self.frame)

    @property
    def mu(self):
        return self.certification[0]

    @cached_property
    def induced(self) -> lightlike.InducedObjects:
        return lightlike.gauss_weingarten(self.frame, self.conn)

    @cached_property
    def umbilicity(self) -> lightlike.UmbilicityReport:
        return lightlike.umbilicity(self.frame, self.induced)

    @property
    def gamma(self):
        """The screen umbilicity factor, None off the screen umbilical class."""
        return self.umbilicity.gamma_screen

    @cached_property
    def curv_ind(self) -> CurvatureTensor:
        return lightlike.induced_curvature(self.frame, self.induced)

    @cached_property
    def twin(self):
        """The twin geometry and the entries of its three-route build."""
        return associated.build_associated(self.frame, self.induced, self.mu,
                                           self.conn)

    @property
    def assoc(self) -> associated.AssociatedObjects:
        return self.twin[0]

    @cached_property
    def tcurv(self) -> CurvatureTensor:
        return associated.tilde_curvature(self.frame, self.assoc)

    @cached_property
    def eta_einstein(self):
        """(k, c) with Ric = k g + c eta x eta, or None, and the reason."""
        return _solved(lambda: lightlike.eta_einstein_solve(
            self.frame, self.curv_ind.ricci), NotEtaEinstein)

    @cached_property
    def einstein(self):
        """lambda with Ric~ = lambda g~, or None, and the reason."""
        return _solved(lambda: associated.einstein_solve(
            self.frame, self.assoc, self.tcurv.ricci), NotEinstein)


def _solved(solve, error):
    """(solve(), None), or (None, the message) when solve raises error."""
    try:
        return solve(), None
    except error as exc:
        return None, str(exc)


class _Stage:
    """Ordered steps with blocking: a step that blows up fails and all
    later steps of the stage degrade to one skipped entry each, whose
    reason names the first failing entry of the blocking step."""

    def __init__(self, blocker: Optional[str] = None):
        self.entries: list[report.CheckEntry] = []
        self.blocker = blocker  # the skip reason once a step has blocked

    def run(self, name: str, anchor: str,
            fn: Callable[[], list[report.CheckEntry]],
            block_on_fail: bool = False) -> None:
        if self.blocker:
            self.entries.append(report.skipped(name, anchor, self.blocker))
            return
        try:
            new = fn()
        except GeometryError as exc:
            new, block_on_fail = [report.failed(name, anchor, str(exc))], True
        self.entries.extend(new)
        failed = [e for e in new if e.status == report.FAIL]
        if block_on_fail and failed:
            self.blocker = f"blocked by {failed[0].name} (fail)"


def _ambient_stage(geo: Geometry) -> _Stage:
    st = _Stage()
    model = geo.model

    st.run("lie-algebra", "plumbing",
           lambda: [validate_lie_algebra(model.algebra)], block_on_fail=True)

    def metric_step():
        geo.metric  # raises on a degenerate table
        return [report.passed(
            "invariant-metric", "plumbing",
            "the metric table is symmetric and nondegenerate")]
    st.run("invariant-metric", "plumbing", metric_step)

    st.run("koszul", "plumbing",
           lambda: koszul_entries(geo.conn, model.algebra, geo.metric),
           block_on_fail=True)

    def structure_step():
        try:
            s = geo.structure
        except ValueError as exc:
            return [report.failed("structure-axioms", "sec-2-structure", str(exc))]
        return validate_acbm(s)
    st.run("structure-axioms", "sec-2-structure", structure_step,
           block_on_fail=True)

    st.run("associated-metric", "sec-2-structure",
           lambda: [associated_compat_entry(geo.structure)], block_on_fail=True)

    st.run("fundamental-tensor", "sec-2-f0",
           lambda: [report.compare(
               "fundamental-tensor-vanishes", "sec-2-f0",
               fundamental_tensor(geo.structure, geo.conn),
               MultilinearForm.zero(model.frame, 3),
               "the covariant derivative of the structure operator vanishes")],
           block_on_fail=True)

    st.run("lc-coincide", "sec-2-f0",
           lambda: [report.compare(
               "connections-coincide", "sec-2-f0",
               levi_civita(model.algebra, geo.structure.g_tilde).gamma,
               geo.conn.gamma,
               "both ambient metrics share one torsion free metric connection")])

    st.run("curvature", "plumbing", lambda: curvature_entries(geo.curv, geo.r4),
           block_on_fail=True)

    def twist_step():
        twisted = geo.r4.pull_slots(model.phi, (3,))
        return [report.compare(
            "twisted-lowering", "sec-4-twist",
            (geo.curv.lower(geo.structure.g_tilde), twisted),
            (twisted, geo.r4.pull_slots(model.phi, (2,))),
            "lowering the curvature with the twin metric twists either of "
            "the last two slots")]
    st.run("twisted-lowering", "sec-4-twist", twist_step)

    def fit_step():
        try:
            pair = geo.pair
        except NoTotallyRealSection as exc:
            return [report.failed("sectional-fit", "thm-4.1", str(exc))]
        geo.invariants = pair
        return [report.passed(
            "sectional-fit", "thm-4.1",
            f"nu = {pair.nu}, nu_tilde = {pair.nu_tilde}")]
    st.run("sectional-fit", "thm-4.1", fit_step)

    def form_step():
        if geo.invariants is None:
            return [report.skipped("constant-curvature-form", "thm-4.1", _NO_PAIR)]
        entry = constant_curvature_residual(geo.structure, geo.r4, geo.invariants)
        if entry.status == report.FAIL:
            # the invariants fit one section only, so the closed forms
            # downstream would be meaningless
            geo.invariants = None
        return [entry]
    st.run("constant-curvature-form", "thm-4.1", form_step)

    st.run("signature-audit", "example-4.7",
           lambda: [factor_signature_entry()])
    return st


def _submanifold_stage(geo: Geometry, blocker: Optional[str]) -> _Stage:
    st = _Stage(blocker)
    if geo.model.submanifold is None:
        st.entries.append(report.skipped("submanifold-frame", "plumbing", _NO_SUB))
        return st

    def closed_form(name, anchor, build, gamma=True, names=None):
        """A step whose identity needs the sectional invariants, and the
        umbilical factor gamma unless gamma is False."""
        def step():
            if geo.invariants is None:
                reason = _NO_PAIR
            elif gamma and geo.gamma is None:
                reason = _NO_GAMMA
            else:
                return build()
            return [report.skipped(n, anchor, reason) for n in names or (name,)]
        st.run(name, anchor, step)

    st.run("submanifold-frame", "sec-2-splitting",
           lambda: lightlike.validate_frame(geo.frame), block_on_fail=True)
    st.run("ascreen-certification", "sec-2-ascreen",
           lambda: geo.certification[1], block_on_fail=True)
    st.run("gauss-weingarten", "sec-2-induced",
           lambda: lightlike.induced_invariant_entries(geo.frame, geo.induced))
    st.run("structure-transfer", "eq-2.7",
           lambda: lightlike.ascreen_f0_entries(geo.frame, geo.induced, geo.mu))
    st.run("umbilicity", "def-3.1",
           lambda: [report.passed("umbilicity", "def-3.1",
                                  geo.umbilicity.describe())])
    st.run("screen-umbilicity", "eq-17",
           lambda: lightlike.screen_umbilical_entries(
               geo.frame, geo.induced, geo.umbilicity, geo.mu))
    st.run("induced-curvature", "sec-3-ricci",
           lambda: [lightlike.ricci_symmetric_entry(geo.curv_ind.ricci)])
    st.run("gauss-relation", "sec-4-gauss",
           lambda: [lightlike.gauss_relation_entry(
               geo.frame, geo.induced, geo.curv, geo.curv_ind)])
    closed_form("curvature-from-shape-terms", "eq-15",
                lambda: [lightlike.curvature_form_15_entry(
                    geo.frame, geo.induced, geo.curv_ind, geo.invariants)],
                gamma=False)
    closed_form("b-derivative-balance", "eq-16",
                lambda: [lightlike.codazzi_16_entry(
                    geo.frame, geo.induced, geo.invariants, geo.mu)],
                gamma=False)
    closed_form("twisted-sectional-vanishes", "thm-4.4",
                lambda: [lightlike.nu_tilde_vanishes_entry(geo.invariants)])
    closed_form("umbilic-factor-identity", "eq-18",
                lambda: [lightlike.gamma_identity_18_entry(
                    geo.induced, geo.frame, geo.invariants, geo.gamma, geo.mu)])
    closed_form("umbilic-curvature-form", "eq-19",
                lambda: [lightlike.curvature_form_19_entry(
                    geo.frame, geo.curv_ind, geo.invariants, geo.gamma, geo.mu)])
    closed_form("umbilic-ricci-form", "eq-20",
                lambda: [lightlike.ricci_form_20_entry(
                    geo.frame, geo.curv_ind.ricci, geo.invariants, geo.gamma,
                    geo.mu, geo.structure.n)])

    def eta_step():
        values, reason = geo.eta_einstein
        if values is None:
            return [report.failed("eta-einstein-solve", "sec-4-einstein", reason)]
        k, c = values
        return [report.passed(
            "eta-einstein-solve", "sec-4-einstein",
            f"Ric = ({k}) g + ({c}) eta x eta")]
    st.run("eta-einstein-solve", "sec-4-einstein", eta_step)

    closed_form("ricci-action-closed-form", "eq-23",
                lambda: [lightlike.semisym_23_entry(
                    geo.frame, geo.curv_ind, geo.invariants, geo.gamma, geo.mu,
                    geo.structure.n)])
    st.run("umbilical-flatness", "cor-4.3",
           lambda: [associated.umbilical_flatness_entry(
               geo.umbilicity, geo.curv_ind, geo.curv)])
    st.run("twin-geometry", "thm-1.1", lambda: geo.twin[1])
    st.run("twin-curvature-transfer", "eq-13",
           lambda: [associated.tilde_relation_13_entry(
               geo.frame, geo.induced, geo.mu, geo.curv_ind, geo.tcurv)])
    st.run("twin-ricci-transfer", "eq-14",
           lambda: [associated.tilde_ricci_14_entry(
               geo.frame, geo.induced, geo.mu, geo.curv_ind.ricci,
               geo.tcurv.ricci)])
    closed_form("twin-umbilic-curvature-form", "eq-21",
                lambda: [associated.tilde_form_21_entry(
                    geo.frame, geo.tcurv, geo.invariants, geo.gamma, geo.mu)])
    closed_form("twin-umbilic-ricci-form", "eq-22",
                lambda: associated.tilde_ricci_22_entries(
                    geo.frame, geo.tcurv.ricci, geo.invariants, geo.gamma,
                    geo.mu, geo.structure.n),
                names=("twin-umbilic-ricci-form", "twin-ricci-last-term"))

    def einstein_step():
        lam, reason = geo.einstein
        if lam is None:
            return [report.failed("einstein-solve", "sec-4-einstein", reason)]
        return [report.passed(
            "einstein-solve", "sec-4-einstein", f"Ric~ = ({lam}) g~")]
    st.run("einstein-solve", "sec-4-einstein", einstein_step)

    closed_form("twin-ricci-action-closed-form", "eq-24",
                lambda: [associated.semisym_24_entry(
                    geo.frame, geo.tcurv, geo.invariants, geo.gamma, geo.mu,
                    geo.structure.n)])
    st.run("geodesic-correspondence", "prop-3.3",
           lambda: associated.geodesic_correspondence_entries(
               geo.induced, geo.assoc, geo.umbilicity))
    st.run("umbilical-curvature-transfer", "cor-3.5",
           lambda: [associated.curvature_transfer_entry(
               geo.umbilicity, geo.assoc, geo.curv_ind, geo.tcurv)])
    return st


def _theorem_stage(geo: Geometry, blocker: Optional[str]) -> _Stage:
    st = _Stage()

    def step():
        pair = geo.invariants
        if geo.model.submanifold is None:
            reason = _NO_SUB
        elif blocker:
            reason = blocker
        elif pair is None:
            reason = _NO_PAIR
        elif geo.gamma is None:
            reason = _NO_GAMMA + ", the theorem hypothesis fails"
        elif pair.nu.is_zero():
            reason = ("the sectional invariant nu vanishes, the theorem "
                      "hypothesis fails")
        else:
            agg = associated.theorem_aggregate(
                geo.curv_ind, geo.tcurv, pair, geo.gamma, geo.mu,
                geo.eta_einstein[0], geo.einstein[0])
            return associated.theorem_entries(agg)
        return [report.skipped(n, "thm-4.6", reason) for n in _THEOREM_NAMES]
    st.run("theorem-aggregate", "thm-4.6", step)
    return st


def run_suite(model: ModelFile, suite: str = "all") -> report.CheckReport:
    """Run the stages the suite needs and collect one ordered report.

    ``theorem46`` reports the theorem stage only, but runs every stage:
    any earlier step can block or skip the theorem entries.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose one of {SUITES}")
    geo = Geometry(model)
    rep = report.CheckReport()
    st = _ambient_stage(geo)
    if suite != "theorem46":
        rep.extend(st.entries)
    if suite == "ambient":
        return rep
    st = _submanifold_stage(geo, st.blocker)
    if suite != "theorem46":
        rep.extend(st.entries)
    if suite == "submanifold":
        return rep
    rep.extend(_theorem_stage(geo, st.blocker).entries)
    return rep
