"""The half lightlike frame, its induced objects, and the curvature
identities, pinned against independently derived tables."""

import json
from types import SimpleNamespace

import pytest

from rsthl.builtin import example_model
from rsthl.cli import main
from rsthl.errors import InvalidFrame
from rsthl.liegeom import curvature, curvature_entries
from rsthl.lightlike import (SubmanifoldFrame, UmbilicityReport,
                             ascreen_f0_entries, certify_ascreen_rsthl,
                             codazzi_16_entry, curvature_form_15_entry,
                             curvature_form_19_entry, frame_conditions,
                             gamma_identity_18_entry, gauss_relation_entry,
                             induced_invariant_entries,
                             nu_tilde_vanishes_entry, proportionality_factor,
                             ricci_form_20_entry, ricci_symmetric_entry,
                             screen_umbilical_entries, semisym_23_entry,
                             solve_transversal)
from rsthl.model import dumps_model, model_from_json_obj
from rsthl.scalars import MU, ONE, ZERO, rf
from rsthl.structure import ACBMStructure
from rsthl.suite import Geometry, decided
from rsthl.tensors import MultilinearForm

from conftest import replaced

CERTIFICATION_NAMES = (
    "radical-phi-image", "reeb-split", "eta-of-radical", "transversal-unit",
    "eta-of-transversal", "eta-of-null-transversal", "phi-of-null-transversal",
    "phi-of-transversal", "screen-phi-invariance", "eta-proportionality")

INDUCED_NAMES = (
    "induced-torsion-free", "b-symmetric", "d-symmetric", "b-kills-radical",
    "d-radical-slot", "radical-shape-kills-radical",
    "radical-shape-self-adjoint", "b-from-radical-shape",
    "radical-shape-screen-valued", "n-shape-screen-valued", "c-from-n-shape",
    "d-from-l-shape", "d-split", "l-shape-duality", "metric-deviation",
    "tau-closed")

ASCREEN_NAMES = (
    "n-shape-from-radical-shape", "l-shape-from-radical-shape", "d-from-b",
    "c-from-b", "tau-vanishes", "phi-form-vanishes", "rho-vanishes",
    "screen-phi-parallel", "radical-shape-phi-commute", "n-shape-phi-commute",
    "l-shape-phi-commute", "b-phi-antisymmetry")


def tangent(frame, entries):
    return MultilinearForm.from_map(frame.tangent_frame, entries)


def ambient(model, entries):
    return MultilinearForm.from_map(model.frame, entries)


def test_solve_transversal_recovers_n(model, structure):
    sub = model.submanifold
    n = solve_transversal(structure.metric, sub.screen, sub.rad, sub.l_vec)
    half = ONE / (2 * MU)
    assert n == ambient(model, {"X3": half, "E": half})


FRAME_NAMES = ("radical-isotropy", "screen-nondegeneracy",
               "transversal-normalization", "transversal-duality",
               "tangent-closure")


def assert_frame_fails(f, name, suffix):
    """The frame conditions fail the entry name with the residual suffix,
    and skip every later entry, naming it."""
    entries = decided(frame_conditions(f)).entries
    assert [e.name for e in entries] == list(FRAME_NAMES)
    at = FRAME_NAMES.index(name)
    assert [e.status for e in entries] == (
        ["pass"] * at + ["fail"] + ["skipped"] * (len(FRAME_NAMES) - at - 1))
    _, sep, residual = entries[at].detail.partition("; the residual")
    assert sep + residual == suffix
    assert {e.detail for e in entries[at + 1:]} <= {f"blocked by {name} (fail)"}


def test_explicit_transversal_is_verified(model, brackets, structure, frame):
    sub = model.submanifold
    good = SubmanifoldFrame(brackets, structure, sub.screen_labels, sub.screen, sub.rad,
                            sub.l_vec, frame.n_vec)
    assert good.n_vec == frame.n_vec
    assert all(e.status == "pass" for e in decided(frame_conditions(good)).entries)
    bad = SubmanifoldFrame(brackets, structure, sub.screen_labels, sub.screen, sub.rad,
                           sub.l_vec, ambient(model, {"X3": 1}))
    assert_frame_fails(bad, "transversal-duality",
                       "; the residual at (xi) is mu - 1, 1 of 3 components nonzero")


def test_certification(frame, mu):
    value, conditions = certify_ascreen_rsthl(frame)
    entries = decided(*conditions).entries
    assert value == MU
    assert mu == MU
    assert tuple(e.name for e in entries) == CERTIFICATION_NAMES
    assert all(e.status == "pass" for e in entries)


def test_validate_frame(frame):
    entries = decided(frame_conditions(frame)).entries
    assert [e.name for e in entries] == [
        "radical-isotropy", "screen-nondegeneracy",
        "transversal-normalization", "transversal-duality", "tangent-closure"]
    assert all(e.status == "pass" for e in entries)


def test_frame_splitting_helpers(model, frame):
    tf = frame.tangent_frame
    assert tf.labels == ("E1", "E2", "xi")
    assert tf.dimension == 3
    assert frame.radical_index == 2
    assert frame.epsilon == ONE
    split = frame.splitting
    # the adapted basis (E1, E2, xi, N, L): E1 is X2 and L is X1
    assert frame.screen[0] == ambient(model, {"X2": 1})
    assert frame.l_vec == ambient(model, {"X1": 1})
    # phi(xi) = mu L is transversal, phi(E1) = E2 is tangent
    tangent_part, n_part, l_part = split.split(model.phi)
    assert (n_part.entry(0), l_part.entry(0)) == (ZERO, ZERO)
    assert (n_part.entry(2), l_part.entry(2)) == (ZERO, MU)
    assert tangent_part.cell(0) == tangent(frame, {"E2": 1})
    proj = frame.projector
    assert proj.apply(tangent(frame, {"E1": 1, "xi": 3})) == tangent(frame, {"E1": 1})
    phi_p = frame.phi_p
    assert phi_p.apply(tangent(frame, {"E1": 1})) == tangent(frame, {"E2": 1})
    assert phi_p.apply(tangent(frame, {"E2": 1})) == tangent(frame, {"E1": -1})
    assert phi_p.cell(2).is_zero()
    assert frame.eta.entries == (ZERO, ZERO, ONE)
    assert frame.eta_bar.entries == (ZERO, ZERO, MU)


def test_induced_metric_and_pairings(frame):
    g = frame.induced_form
    assert g.entry(0, 0) == ONE
    assert g.entry(1, 1) == rf(-1)
    assert g.entry(0, 1) == ZERO
    assert all(g.entry(a, 2) == ZERO for a in range(3))
    gp = frame.phi_pairing
    assert gp.entry(0, 1) == rf(-1)
    assert gp.entry(1, 0) == rf(-1)
    assert gp == gp.permute((1, 0))
    assert gp.entry(2, 2) == ZERO
    gpp = frame.phi_phi_pairing
    assert gpp.entry(0, 0) == rf(-1)
    assert gpp.entry(1, 1) == ONE


def test_tangent_brackets_close(frame):
    alg = frame.tangent_brackets
    assert alg.cell(0, 2) == tangent(frame, {"E1": 2 * MU})
    assert alg.cell(1, 2) == tangent(frame, {"E2": 2 * MU})
    assert alg.cell(0, 1).is_zero()


def test_induced_connection_table(frame, induced):
    gamma = induced.gamma
    inv_mu = ONE / MU
    assert gamma.cell(0, 0) == tangent(frame, {"xi": inv_mu})
    assert gamma.cell(1, 1) == tangent(frame, {"xi": -inv_mu})
    assert gamma.cell(0, 1).is_zero()
    assert gamma.cell(1, 0).is_zero()
    assert gamma.cell(0, 2) == tangent(frame, {"E1": 2 * MU})
    assert gamma.cell(1, 2) == tangent(frame, {"E2": 2 * MU})
    for j in range(3):
        assert gamma.cell(2, j).is_zero()


def test_fundamental_form_tables(induced):
    b = induced.b_form
    assert b.entry(0, 0) == -2 * MU
    assert b.entry(1, 1) == 2 * MU
    assert b.entry(0, 1) == ZERO
    assert all(b.entry(a, 2) == ZERO for a in range(3))
    d = induced.d_form
    assert d.entry(0, 1) == rf(2)
    assert d.entry(1, 0) == rf(2)
    assert d.entry(0, 0) == ZERO
    assert d.entry(1, 1) == ZERO
    c = induced.c_form
    assert c.entry(0, 0) == ONE / MU
    assert c.entry(1, 1) == -(ONE / MU)
    assert c.entry(0, 1) == ZERO


def test_shape_operator_tables(frame, induced):
    inv_mu = ONE / MU
    assert induced.shape_n.entries == (inv_mu, ZERO, ZERO,
                                       ZERO, inv_mu, ZERO,
                                       ZERO, ZERO, ZERO)
    assert induced.shape_rad.cell(0) == tangent(frame, {"E1": -2 * MU})
    assert induced.shape_rad.cell(1) == tangent(frame, {"E2": -2 * MU})
    assert induced.shape_rad.cell(2).is_zero()
    assert induced.shape_l.cell(0) == tangent(frame, {"E2": -2})
    assert induced.shape_l.cell(1) == tangent(frame, {"E1": 2})
    assert induced.shape_l.cell(2).is_zero()


def test_transversal_one_forms_vanish(induced):
    assert induced.tau.is_zero()
    assert induced.rho.is_zero()
    assert induced.phi_form.is_zero()


def test_induced_invariant_entries(frame, induced):
    entries = induced_invariant_entries(frame, induced)
    assert tuple(e.name for e in entries) == INDUCED_NAMES
    assert all(e.status == "pass" for e in entries)


def test_ascreen_f0_entries(frame, induced, mu):
    entries = ascreen_f0_entries(frame, induced, mu)
    assert tuple(e.name for e in entries) == ASCREEN_NAMES
    assert all(e.status == "pass" for e in entries)


def test_umbilicity_report(frame, induced, ureport):
    assert ureport.beta == -2 * MU
    assert ureport.delta is None
    assert ureport.gamma_screen == ONE / MU
    # no mean curvature vector, since delta is None; properly screen umbilical
    assert not ureport.totally_geodesic
    assert not ureport.totally_umbilical
    assert not ureport.screen_totally_geodesic
    assert ureport.screen_umbilical
    assert ureport.describe() == ("not totally umbilical; "
                                  "screen totally umbilical (gamma = 1/(mu))")


def test_proportionality_factor(frame, induced):
    g = frame.induced_form
    assert proportionality_factor(g, g) == ONE
    zero = MultilinearForm.zero(frame.tangent_frame, 2)
    assert proportionality_factor(zero, g) == ZERO
    assert proportionality_factor(induced.d_form, g) is None


def test_screen_umbilical_entries(frame, induced, ureport, mu):
    gamma = ureport.gamma_screen
    entries = screen_umbilical_entries(frame, induced, gamma, mu)
    assert [e.name for e in entries] == ["n-shape-umbilic", "b-umbilic-multiple"]
    assert all(e.status == "pass" for e in entries)
    # another factor fits neither form; the suite skips both entries when
    # the screen is not umbilical (test_verdict_paths.py)
    wrong = screen_umbilical_entries(frame, induced, gamma + ONE, mu)
    assert [e.status for e in wrong] == ["fail", "fail"]
    # D is no multiple of g, so C = D is not screen umbilical
    bare = UmbilicityReport(frame, replaced(induced, c_form=induced.d_form))
    assert bare.gamma_screen is None


def test_induced_curvature_values(frame, icurv):
    assert icurv.table.cell(0, 1, 0) == tangent(frame, {"E2": -2})
    assert icurv.table.cell(0, 1, 1) == tangent(frame, {"E1": -2})
    assert icurv.table.cell(0, 2, 2) == tangent(frame, {"E1": -4 * MU * MU})
    # the induced metric is degenerate, so only the Bianchi entry applies
    lowered = icurv.table.pull_slots(frame.induced_form, (3,))
    assert curvature_entries(icurv, lowered)[0].status == "pass"


def test_induced_ricci_is_eta_einstein(geometry, frame, iric):
    g = frame.induced_form
    eb = frame.eta_bar.entries
    expected = MultilinearForm.from_function(
        frame.tangent_frame, 2,
        lambda a, b: 4 * g.entry(a, b) - 8 * eb[a] * eb[b])
    assert (iric - expected).is_zero()
    assert ricci_symmetric_entry(iric).status == "pass"
    assert geometry.eta_einstein == ((rf(4), rf(-8)), None)


def test_eta_einstein_solve_rejects_other_tensors(model, frame, iric, monkeypatch):
    bump = MultilinearForm.from_function(
        frame.tangent_frame, 2,
        lambda a, b: ONE if a == b == 0 else ZERO)
    monkeypatch.setattr(Geometry, "curv_ind",
                        property(lambda self: SimpleNamespace(ricci=iric + bump)))
    assert Geometry(model).eta_einstein == (
        None, "the Ricci tensor is not a combination of the metric and the "
        "squared dual form")


def test_gauss_relation(brackets, frame, induced, ambient_conn, icurv):
    ambient_curv = curvature(ambient_conn, brackets)
    entry = gauss_relation_entry(frame, induced, ambient_curv, icurv)
    assert entry.status == "pass"
    assert entry.anchor == "sec-4-gauss"


def test_curvature_identities(frame, induced, icurv, iric, pair, mu):
    gamma = ONE / MU
    checks = [
        curvature_form_15_entry(frame, induced, icurv, pair),
        codazzi_16_entry(frame, induced, pair, mu),
        nu_tilde_vanishes_entry(pair),
        gamma_identity_18_entry(induced, frame, pair, gamma, mu),
        curvature_form_19_entry(frame, icurv, pair, gamma, mu),
        ricci_form_20_entry(frame, iric, pair, gamma, mu, 2),
        semisym_23_entry(frame, icurv, pair, gamma, mu, 2),
    ]
    for entry in checks:
        assert entry.status == "pass", entry.name
    assert [e.anchor for e in checks] == [
        "eq-15", "eq-16", "thm-4.4", "eq-18", "eq-19", "eq-20", "eq-23"]


def test_ricci_action_vanishes(icurv):
    assert icurv.ricci_action.is_zero()


def test_covariant_derivative_convention(induced):
    cd_b = induced.cd_b
    # (nabla_{E1} B)(E1, xi) = -B(E1, nabla_{E1} xi) = -B(E1, 2 mu E1)
    assert cd_b.entry(0, 0, 2) == 4 * MU * MU
    assert cd_b.entry(2, 0, 0) == ZERO


def test_radical_must_be_isotropic(model, brackets, structure):
    sub = model.submanifold
    f = SubmanifoldFrame(brackets, structure, sub.screen_labels, sub.screen,
                         ambient(model, {"X3": 1}), sub.l_vec)
    assert_frame_fails(f, "radical-isotropy",
                       "; the residual at (xi) is -1, 1 of 3 components nonzero")


def test_screen_must_be_nondegenerate(model, brackets, structure):
    sub = model.submanifold
    screen = (ambient(model, {"X1": 1, "X4": 1}), ambient(model, {"X2": 1}))
    # a truth value: the statement carries it, with no residual suffix
    assert_frame_fails(SubmanifoldFrame(brackets, structure, sub.screen_labels, screen,
                                        sub.rad, sub.l_vec),
                       "screen-nondegeneracy", "")


def test_transversal_vector_constraints(model, brackets, structure):
    sub = model.submanifold
    # g(L, L) = 4: the residual is g(L, L)^2 - 1
    assert_frame_fails(
        SubmanifoldFrame(brackets, structure, sub.screen_labels, sub.screen, sub.rad,
                         ambient(model, {"X1": 2})),
        "transversal-normalization", "; the residual is 15")
    assert_frame_fails(
        SubmanifoldFrame(brackets, structure, sub.screen_labels, sub.screen, sub.rad,
                         ambient(model, {"X2": 1})),
        "transversal-normalization",
        "; the residual at (E1) is 1, 1 of 3 components nonzero")


HALF_INV_MU = "1/(2*mu)"


def edited_model(edit):
    obj = json.loads(dumps_model(example_model()))
    obj["submanifold"].update(edit)
    return model_from_json_obj(obj)


FRAME_EDITS = {
    "radical-vs-E1": ({"screen": {"E1": {"X2": 1, "E": 1}, "E2": {"X4": 1}}},
                      "radical-isotropy",
                      "; the residual at (E1) is mu, 1 of 3 components nonzero"),
    "radical-vs-xi": ({"xi": {"X3": "-mu", "E": "2*mu"}}, "radical-isotropy",
                      "; the residual at (xi) is 3*mu^2, 1 of 3 components nonzero"),
    "L-vs-E1": ({"L": {"X2": 1}}, "transversal-normalization",
                "; the residual at (E1) is 1, 1 of 3 components nonzero"),
    "L-vs-xi": ({"L": {"E": 1}}, "transversal-normalization",
                "; the residual at (xi) is mu, 1 of 3 components nonzero"),
    "degenerate-screen": (
        {"screen": {"E1": {"X2": 1, "X4": 1}, "E2": {"X1": 1, "X3": -1, "E": 1}}},
        "screen-nondegeneracy", ""),
    "N-not-null": ({"N": {"X1": 1, "X3": HALF_INV_MU, "E": HALF_INV_MU}},
                   "transversal-duality", "; the residual is 1"),
    # the screen (X1, X2) with L = X4: [E1, E2] = -2 X4 leaves the tangent space
    "bracket": ({"screen": {"E1": {"X1": 1}, "E2": {"X2": 1}}, "L": {"X4": 1}},
                "tangent-closure",
                "; the residual at (E1, E2) is -2, 2 of 9 components nonzero"),
}


@pytest.mark.parametrize("edit, name, suffix", FRAME_EDITS.values(), ids=FRAME_EDITS)
def test_frame_errors_in_the_submanifold_report(tmp_path, capsys, edit, name, suffix):
    """``rsthl check`` on a frame edit of the model file fails the
    catalogued entry with its residual, the first offending label named,
    skips every later entry, naming it, and exits 1 with nothing on
    stderr; no step entry fails."""
    path, report = tmp_path / "edited.json", tmp_path / "report.json"
    path.write_text(dumps_model(edited_model(edit)), encoding="utf-8")
    assert main(["check", str(path), "--report", str(report)]) == 1
    assert capsys.readouterr().err == ""
    entries = json.loads(report.read_text(encoding="utf-8"))["entries"]
    at = [e["status"] for e in entries].index("fail")
    assert entries[at]["name"] == name
    _, sep, residual = entries[at]["detail"].partition("; the residual")
    assert sep + residual == suffix
    assert {(e["status"], e["detail"]) for e in entries[at + 1:]} == {
        ("skipped", f"blocked by {name} (fail)")}


def test_frame_shape_validation(model, brackets, structure):
    sub = model.submanifold
    with pytest.raises(InvalidFrame, match="screen vectors"):
        SubmanifoldFrame(brackets, structure, ("E1",), sub.screen[:1], sub.rad, sub.l_vec)
    with pytest.raises(InvalidFrame, match="reserved"):
        SubmanifoldFrame(brackets, structure, ("xi", "E2"), sub.screen, sub.rad, sub.l_vec)
    with pytest.raises(InvalidFrame, match="distinct"):
        SubmanifoldFrame(brackets, structure, ("E1", "E1"), sub.screen, sub.rad, sub.l_vec)
    with pytest.raises(InvalidFrame, match="linearly dependent"):
        SubmanifoldFrame(brackets, structure, sub.screen_labels,
                         (sub.screen[0], sub.screen[0]), sub.rad, sub.l_vec)


def test_brackets_must_stay_tangent(model, brackets, structure):
    screen = (ambient(model, {"X1": 1}), ambient(model, {"X2": 1}))
    sub = model.submanifold
    f = SubmanifoldFrame(brackets, structure, ("E1", "E2"), screen, sub.rad,
                         ambient(model, {"X4": 1}))
    assert_frame_fails(f, "tangent-closure",
                       "; the residual at (E1, E2) is -2, 2 of 9 components nonzero")


def modified_structure(s, phi=None, xi_bar=None):
    return ACBMStructure(
        s.frame, phi if phi is not None else s.phi,
        xi_bar if xi_bar is not None else s.xi_bar, s.eta_bar, s.metric)


def certification_with(model, brackets, structure, **changes):
    """The decided sec-2-ascreen entries of the worked frame under the
    structure with phi or xi-bar changed."""
    sub = model.submanifold
    f = SubmanifoldFrame(brackets, modified_structure(structure, **changes),
                         sub.screen_labels, sub.screen, sub.rad, sub.l_vec)
    return decided(*certify_ascreen_rsthl(f)[1]).entries


def phi_with_radical_image(model, s, image):
    cols = [s.phi.cell(j) for j in range(5)]
    cols[model.frame.index("X3")] = image
    return MultilinearForm.from_cells(model.frame, 2, cols.__getitem__)


def assert_radical_phi_image_fails(entries, detail):
    """radical-phi-image fails with the detail and skips the nine other
    conditions, naming it."""
    assert [e.name for e in entries] == list(CERTIFICATION_NAMES)
    assert (entries[0].status, entries[0].detail) == ("fail", detail)
    assert {(e.status, e.detail) for e in entries[1:]} == {
        ("skipped", "blocked by radical-phi-image (fail)")}


def test_not_rsthl_when_radical_image_leaves_the_line(model, brackets, structure):
    # phi(xi) = mu (X1 + X2) has the part mu X2 off the line of L = X1
    phi = phi_with_radical_image(model, structure, ambient(model, {"X1": -1, "X2": -1}))
    assert_radical_phi_image_fails(
        certification_with(model, brackets, structure, phi=phi),
        "phi(xi) = (mu) L; the residual at (X2) is mu, 1 of 5 components nonzero")


def test_not_rsthl_when_phi_kills_the_radical(model, brackets, structure):
    # phi(xi) = 0 = 0 L, and mu = 0 is the truth value that fails
    phi = phi_with_radical_image(model, structure, MultilinearForm.zero(model.frame, 1))
    assert_radical_phi_image_fails(certification_with(model, brackets, structure, phi=phi),
                                   "phi(xi) = (0) L")


def test_not_ascreen_when_xi_bar_has_a_screen_part(model, brackets, structure):
    # reeb-split is no precondition: it fails alone, and in a suite run it
    # blocks the later steps (see test_screen_radical_mixing_breaks_ascreen)
    entries = certification_with(model, brackets, structure,
                                 xi_bar=ambient(model, {"X2": 1, "E": 1}))
    assert [(e.name, e.status) for e in entries] == [
        (name, "fail" if name == "reeb-split" else "pass")
        for name in CERTIFICATION_NAMES]
    _, sep, residual = entries[1].detail.partition("; the residual")
    assert sep + residual == "; the residual at (X2) is 1, 1 of 5 components nonzero"
