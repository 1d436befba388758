"""Check-suite orchestration over a model file.

Three stages run in order: the ambient stage certifies the structure and
extracts the sectional invariants, the submanifold stage rebuilds both
induced geometries and evaluates every catalogued identity, and the final
stage aggregates the five equivalent assertions.  A suite runs the stages
up to the last one it reports and builds only the geometry their steps
read.  Geometry exceptions never escape a stage; they become failing
entries, and the steps whose inputs are gone report one skipped entry
each, naming the first failing entry that blocked them.  The frame,
ascreen and twin conditions are the steps of a stage of their own.
Under ``theorem46`` the earlier stages decide only the steps that can
block the theorem or that it reads; the others just read their geometry.
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
    fit_curvature_pair,
    fundamental_tensor,
    metric_signature_entry,
    validate_acbm,
)
from .tensors import MultilinearForm

SUITES = ("ambient", "submanifold", "theorem46", "all")

_NO_PAIR = "the ambient sectional invariants are unavailable"
_NO_GAMMA = "the screen distribution is not totally umbilical"
_NO_SUB = "the model declares no submanifold"


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
        return levi_civita(self.model.algebra, self.metric)

    @cached_property
    def structure(self) -> ACBMStructure:
        m = self.model
        return ACBMStructure(m.frame, m.phi, m.xi_bar, m.eta_bar, self.metric)

    @cached_property
    def curv(self) -> CurvatureTensor:
        return curvature(self.conn, self.model.algebra)

    @cached_property
    def r4(self) -> MultilinearForm:
        return self.curv.lower(self.metric)

    @cached_property
    def curvature_basis(self) -> tuple[MultilinearForm, MultilinearForm]:
        """The basic curvature tensors A and B of thm-4.1."""
        return basic_curvature_tensors(self.structure)

    @cached_property
    def sectional(self):
        """(nu, nu_tilde) with r4 = nu A + nu_tilde B, or None, and the reason."""
        return _solved(lambda: fit_curvature_pair(self.r4, self.curvature_basis))

    @property
    def pair(self) -> Optional[CurvaturePair]:
        """The sectional invariants, None when the fit fails."""
        return self.sectional[0]

    @cached_property
    def frame(self) -> lightlike.SubmanifoldFrame:
        sub = self.model.submanifold
        return lightlike.build_frame(self.model.algebra, self.structure,
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
        """The twin geometry and the conditions of its three-route build."""
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
            self.frame, self.curv_ind.ricci))

    @cached_property
    def einstein(self):
        """lambda with Ric~ = lambda g~, or None, and the reason."""
        return _solved(lambda: associated.einstein_solve(
            self.frame, self.assoc, self.tcurv.ricci))


def _solved(solve):
    """(solve(), None), or (None, the message) when the exact solve has no
    unique solution."""
    try:
        return solve(), None
    except (InconsistentSystem, UnderdeterminedSystem) as exc:
        return None, str(exc)


class _Stage:
    """Ordered steps with blocking: a step that blows up fails and all
    later steps of the stage degrade to one skipped entry each, whose
    reason names the first failing entry of the blocking step.  A step
    may return a stage of its own: its entries join this one, and it
    blocks this stage where it blocked itself.

    A step given ``reads`` builds its entries from the values reads()
    returns (``reads=tuple`` reads nothing).  A stage that does not report
    runs only reads() for such a step unless it blocks on failure, so a
    read that raises still blocks under the step's name; its build must
    raise nothing once its reads have succeeded."""

    def __init__(self, blocker: Optional[str] = None, reports: bool = True):
        self.entries: list[report.CheckEntry] = []
        self.blocker = blocker  # the skip reason once a step has blocked
        self.reports = reports

    def run(self, name: str, anchor: str, fn: Callable[..., list], block_on_fail=False,
            reads: Optional[Callable[[], tuple]] = None) -> None:
        if self.blocker:
            self.entries.append(report.skipped(name, anchor, self.blocker))
            return
        try:
            values = () if reads is None else reads()
            new = fn(*values) if self.reports or block_on_fail or not reads else []
        except GeometryError as exc:
            new, block_on_fail = [report.failed(name, anchor, str(exc))], True
        if isinstance(new, _Stage):
            self.entries.extend(new.entries)
            self.blocker = new.blocker
            return
        self.entries.extend(new)
        failed = [e for e in new if e.status == report.FAIL]
        if block_on_fail and failed:
            self.blocker = f"blocked by {failed[0].name} (fail)"


def _one(check: Callable[..., report.CheckEntry]) -> Callable[..., list]:
    """The step whose one entry is check(*values)."""
    return lambda *values: [check(*values)]


def decided(preconditions, conditions=(), reports: bool = True) -> _Stage:
    """Each condition (name, anchor, sides) as one step of a new stage: the
    entry ``report.compare`` makes of the got, want and statement that
    sides() returns.  A precondition blocks the steps after it; the other
    conditions block nothing, and a stage that does not report skips them."""
    st = _Stage(reports=reports)
    for group, blocks in ((preconditions, True), (conditions, False)):
        for name, anchor, sides in group:
            st.run(name, anchor, lambda: [report.compare(name, anchor, *sides())],
                   blocks, reads=tuple)
    return st


def _ambient_stage(geo: Geometry, reports: bool) -> _Stage:
    st = _Stage(reports=reports)
    model = geo.model

    st.run("lie-algebra", "plumbing",
           lambda: [validate_lie_algebra(model.algebra)], block_on_fail=True)

    # reading the metric raises on a degenerate table
    st.run("invariant-metric", "plumbing", lambda metric: [report.passed(
        "invariant-metric", "plumbing", "the metric table is symmetric and nondegenerate")],
        reads=lambda: (geo.metric,))

    st.run("koszul", "plumbing",
           lambda: koszul_entries(geo.conn, model.algebra, geo.metric),
           block_on_fail=True)

    def structure_step():
        s = geo.structure  # raises on an even-dimensional frame
        axioms = _Stage()
        axioms.run("structure-axioms", "sec-2-structure", lambda: validate_acbm(s),
                   block_on_fail=True)
        # a degenerate table has blocked the stage at invariant-metric, so
        # the axioms force the signature
        axioms.run("metric-signature", "sec-2-structure",
                   lambda: [metric_signature_entry(s)])
        return axioms
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
           lambda g_tilde, conn: [report.compare(
               "connections-coincide", "sec-2-f0",
               levi_civita(model.algebra, g_tilde), conn,
               "both ambient metrics share one torsion free metric connection")],
           reads=lambda: (geo.structure.g_tilde, geo.conn))

    st.run("curvature", "plumbing", lambda: curvature_entries(geo.curv, geo.r4),
           block_on_fail=True)

    def twist_step(r4, curv, g_tilde):
        twisted = r4.pull_slots(model.phi, (3,))
        return [report.compare(
            "twisted-lowering", "sec-4-twist",
            (curv.lower(g_tilde), twisted),
            (twisted, r4.pull_slots(model.phi, (2,))),
            "lowering the curvature with the twin metric twists either of "
            "the last two slots")]
    st.run("twisted-lowering", "sec-4-twist", twist_step,
           reads=lambda: (geo.r4, geo.curv, geo.structure.g_tilde))

    def fit_step():
        pair, reason = geo.sectional
        if pair is None:
            return [report.failed("sectional-fit", "thm-4.1", reason)]
        return [report.passed(
            "sectional-fit", "thm-4.1",
            f"nu = {pair.nu}, nu_tilde = {pair.nu_tilde}")]
    st.run("sectional-fit", "thm-4.1", fit_step)

    def form_step(pair, r4, basis):
        if pair is None:
            return [report.skipped("constant-curvature-form", "thm-4.1", _NO_PAIR)]
        return [constant_curvature_residual(r4, basis, pair)]
    st.run("constant-curvature-form", "thm-4.1", form_step,
           reads=lambda: (geo.pair, geo.r4, geo.curvature_basis))

    st.run("signature-audit", "example-4.7", _one(factor_signature_entry),
           reads=tuple)
    return st


def _submanifold_stage(geo: Geometry, blocker: Optional[str],
                       reports: bool) -> _Stage:
    st = _Stage(blocker, reports)
    if geo.model.submanifold is None:
        st.entries.append(report.skipped("submanifold-frame", "plumbing", _NO_SUB))
        return st

    def closed_form(name, anchor, build, reads, gamma=True, names=None):
        """A step whose identity needs the sectional invariants, and the
        umbilical factor gamma unless gamma is False; build takes what
        reads() returns once they are there."""
        def gated():
            if geo.pair is None:
                return (_NO_PAIR,)
            if gamma and geo.gamma is None:
                return (_NO_GAMMA,)
            return (None, *reads())

        def step(reason, *values):
            if reason:
                return [report.skipped(n, anchor, reason) for n in names or (name,)]
            return build(*values)
        st.run(name, anchor, step, reads=gated)

    st.run("submanifold-frame", "sec-2-splitting",
           lambda: decided(lightlike.frame_conditions(geo.frame)))
    # any failure among the ten conditions blocks the stage
    st.run("ascreen-certification", "sec-2-ascreen",
           lambda: decided(*geo.certification[1]).entries, block_on_fail=True)
    st.run("gauss-weingarten", "sec-2-induced", lightlike.induced_invariant_entries,
           reads=lambda: (geo.frame, geo.induced))
    st.run("structure-transfer", "eq-2.7", lightlike.ascreen_f0_entries,
           reads=lambda: (geo.frame, geo.induced, geo.mu))
    st.run("umbilicity", "def-3.1",
           lambda umbilicity: [report.passed("umbilicity", "def-3.1",
                                             umbilicity.describe())],
           reads=lambda: (geo.umbilicity,))
    st.run("screen-umbilicity", "eq-17", lightlike.screen_umbilical_entries,
           reads=lambda: (geo.frame, geo.induced, geo.umbilicity, geo.mu))
    st.run("induced-curvature", "sec-3-ricci", _one(lightlike.ricci_symmetric_entry),
           reads=lambda: (geo.curv_ind.ricci,))
    st.run("gauss-relation", "sec-4-gauss", _one(lightlike.gauss_relation_entry),
           reads=lambda: (geo.frame, geo.induced, geo.curv, geo.curv_ind))
    closed_form("curvature-from-shape-terms", "eq-15",
                _one(lightlike.curvature_form_15_entry),
                lambda: (geo.frame, geo.induced, geo.curv_ind, geo.pair), gamma=False)
    closed_form("b-derivative-balance", "eq-16", _one(lightlike.codazzi_16_entry),
                lambda: (geo.frame, geo.induced, geo.pair, geo.mu), gamma=False)
    closed_form("twisted-sectional-vanishes", "thm-4.4",
                _one(lightlike.nu_tilde_vanishes_entry), lambda: (geo.pair,))
    closed_form("umbilic-factor-identity", "eq-18",
                _one(lightlike.gamma_identity_18_entry),
                lambda: (geo.induced, geo.frame, geo.pair, geo.gamma, geo.mu))
    closed_form("umbilic-curvature-form", "eq-19",
                _one(lightlike.curvature_form_19_entry),
                lambda: (geo.frame, geo.curv_ind, geo.pair, geo.gamma, geo.mu))
    closed_form("umbilic-ricci-form", "eq-20", _one(lightlike.ricci_form_20_entry),
                lambda: (geo.frame, geo.curv_ind.ricci, geo.pair, geo.gamma,
                         geo.mu, geo.structure.n))

    def eta_step():
        values, reason = geo.eta_einstein
        if values is None:
            return [report.failed("eta-einstein-solve", "sec-4-einstein", reason)]
        k, c = values
        return [report.passed(
            "eta-einstein-solve", "sec-4-einstein",
            f"Ric = ({k}) g + ({c}) eta x eta")]
    st.run("eta-einstein-solve", "sec-4-einstein", eta_step)

    closed_form("ricci-action-closed-form", "eq-23", _one(lightlike.semisym_23_entry),
                lambda: (geo.frame, geo.curv_ind, geo.pair, geo.gamma, geo.mu,
                         geo.structure.n))
    st.run("umbilical-flatness", "cor-4.3", _one(associated.umbilical_flatness_entry),
           reads=lambda: (geo.umbilicity, geo.curv_ind, geo.curv))
    # the conditions after the five preconditions raise nothing once those
    # have passed (see AssociatedObjects)
    st.run("twin-geometry", "thm-1.1", lambda: decided(*geo.twin[1], reports))
    st.run("twin-curvature-transfer", "eq-13", _one(associated.tilde_relation_13_entry),
           reads=lambda: (geo.frame, geo.induced, geo.mu, geo.curv_ind, geo.tcurv))
    st.run("twin-ricci-transfer", "eq-14", _one(associated.tilde_ricci_14_entry),
           reads=lambda: (geo.frame, geo.induced, geo.mu, geo.curv_ind.ricci,
                          geo.tcurv.ricci))
    closed_form("twin-umbilic-curvature-form", "eq-21",
                _one(associated.tilde_form_21_entry),
                lambda: (geo.frame, geo.tcurv, geo.pair, geo.gamma, geo.mu))
    closed_form("twin-umbilic-ricci-form", "eq-22", associated.tilde_ricci_22_entries,
                lambda: (geo.frame, geo.tcurv.ricci, geo.pair, geo.gamma, geo.mu,
                         geo.structure.n),
                names=("twin-umbilic-ricci-form", "twin-ricci-last-term"))

    def einstein_step():
        lam, reason = geo.einstein
        if lam is None:
            return [report.failed("einstein-solve", "sec-4-einstein", reason)]
        return [report.passed(
            "einstein-solve", "sec-4-einstein", f"Ric~ = ({lam}) g~")]
    st.run("einstein-solve", "sec-4-einstein", einstein_step)

    closed_form("twin-ricci-action-closed-form", "eq-24",
                _one(associated.semisym_24_entry),
                lambda: (geo.frame, geo.tcurv, geo.pair, geo.gamma, geo.mu,
                         geo.structure.n))
    st.run("geodesic-correspondence", "prop-3.3",
           associated.geodesic_correspondence_entries,
           reads=lambda: (geo.assoc, geo.umbilicity))
    st.run("umbilical-curvature-transfer", "cor-3.5",
           _one(associated.curvature_transfer_entry),
           reads=lambda: (geo.umbilicity, geo.assoc, geo.curv_ind, geo.tcurv))
    return st


def _theorem_stage(geo: Geometry, blocker: Optional[str]) -> _Stage:
    st = _Stage()

    def step():
        if geo.model.submanifold is None:
            reason = _NO_SUB
        elif blocker:
            reason = blocker
        elif geo.pair is None:
            reason = _NO_PAIR
        elif geo.gamma is None:
            reason = _NO_GAMMA + ", the theorem hypothesis fails"
        elif geo.pair.nu.is_zero():
            reason = ("the sectional invariant nu vanishes, the theorem "
                      "hypothesis fails")
        else:
            return associated.theorem_aggregate(
                geo.curv_ind, geo.tcurv, geo.pair, geo.gamma, geo.mu,
                geo.eta_einstein[0], geo.einstein[0])
        return [report.skipped(n, "thm-4.6", reason) for n in associated.THEOREM_NAMES]
    st.run("theorem-aggregate", "thm-4.6", step)
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
        rep.extend(st.entries)
    if suite == "ambient":
        return rep
    st = _submanifold_stage(geo, st.blocker, reports)
    if reports:
        rep.extend(st.entries)
    if suite == "submanifold":
        return rep
    rep.extend(_theorem_stage(geo, st.blocker).entries)
    return rep
