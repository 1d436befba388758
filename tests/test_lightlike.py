"""The half lightlike frame, its induced objects, and the curvature
identities, pinned against independently derived tables."""

import pytest

from rsthl.errors import (DecompositionInconsistent, InvalidFrame,
                          NotAscreen, NotEtaEinstein, NotRSTHL,
                          RadicalRankNotOne, ScreenDegenerate)
from rsthl.liegeom import curvature, curvature_entries, ricci_action
from rsthl.lightlike import (UmbilicityReport, ascreen_f0_entries, build_frame,
                             certify_ascreen_rsthl, codazzi_16_entry,
                             covariant_derivative, curvature_form_15_entry,
                             curvature_form_19_entry, eta_einstein_solve,
                             gamma_identity_18_entry, gauss_relation_entry,
                             induced_invariant_entries, nu_tilde_vanishes_entry,
                             proportionality_factor, ricci_form_20_entry,
                             ricci_symmetric_entry,
                             screen_umbilical_entries, semisym_23_entry,
                             solve_transversal, umbilicity, validate_frame)
from rsthl.scalars import MU, ONE, ZERO, rf
from rsthl.structure import ACBMStructure, LieModel
from rsthl.tensors import MultilinearForm, Vector

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
    return Vector.from_map(frame.tangent_frame, entries)


def ambient(model, entries):
    return Vector.from_map(model.frame, entries)


def test_solve_transversal_recovers_n(model, lm):
    sub = model.submanifold
    n = solve_transversal(lm, sub.screen, sub.rad, sub.l_vec)
    half = ONE / (2 * MU)
    assert n == ambient(model, {"X3": half, "E": half})


def test_explicit_transversal_is_verified(model, lm, frame):
    sub = model.submanifold
    good = build_frame(lm, sub.screen_labels, sub.screen, sub.rad,
                       sub.l_vec, frame.n_vec)
    assert good.n_vec == frame.n_vec
    with pytest.raises(InvalidFrame):
        build_frame(lm, sub.screen_labels, sub.screen, sub.rad, sub.l_vec,
                    ambient(model, {"X3": 1}))


def test_certification(frame, mu):
    value, entries = certify_ascreen_rsthl(frame)
    assert value == MU
    assert mu == MU
    assert tuple(e.name for e in entries) == CERTIFICATION_NAMES
    assert all(e.status == "pass" for e in entries)


def test_validate_frame(frame):
    entries = validate_frame(frame)
    assert [e.name for e in entries] == [
        "radical-isotropy", "screen-nondegeneracy",
        "transversal-normalization", "transversal-duality", "tangent-closure"]
    assert all(e.status == "pass" for e in entries)


def test_frame_splitting_helpers(model, frame):
    tf = frame.tangent_frame
    assert tf.labels == ("E1", "E2", "xi")
    assert frame.dim == 3
    assert frame.radical_index == 2
    assert frame.epsilon == ONE
    assert frame.embed(tangent(frame, {"E1": 1})) == ambient(model, {"X2": 1})
    t, n_c, l_c = frame.decompose_full(ambient(model, {"X1": 1}))
    assert t.is_zero() and n_c == ZERO and l_c == ONE
    with pytest.raises(DecompositionInconsistent):
        frame.to_tangent(ambient(model, {"X1": 1}), "a test vector")
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
    assert gp.is_symmetric()
    assert gp.entry(2, 2) == ZERO
    gpp = frame.phi_phi_pairing
    assert gpp.entry(0, 0) == rf(-1)
    assert gpp.entry(1, 1) == ONE


def test_tangent_brackets_close(frame):
    alg = frame.tangent_algebra
    assert alg.brackets.cell(0, 2) == tangent(frame, {"E1": 2 * MU})
    assert alg.brackets.cell(1, 2) == tangent(frame, {"E2": 2 * MU})
    assert alg.brackets.cell(0, 1).is_zero()


def test_induced_connection_table(frame, induced):
    conn = induced.conn
    inv_mu = ONE / MU
    assert conn.gamma.cell(0, 0) == tangent(frame, {"xi": inv_mu})
    assert conn.gamma.cell(1, 1) == tangent(frame, {"xi": -inv_mu})
    assert conn.gamma.cell(0, 1).is_zero()
    assert conn.gamma.cell(1, 0).is_zero()
    assert conn.gamma.cell(0, 2) == tangent(frame, {"E1": 2 * MU})
    assert conn.gamma.cell(1, 2) == tangent(frame, {"E2": 2 * MU})
    for j in range(3):
        assert conn.gamma.cell(2, j).is_zero()


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
    assert ureport.mean_curvature is None
    assert not ureport.totally_geodesic
    assert not ureport.totally_umbilical
    assert not ureport.screen_totally_geodesic
    assert ureport.screen_umbilical
    assert ureport.proper_screen_umbilical
    assert ureport.describe() == ("not totally umbilical; "
                                  "screen totally umbilical (gamma = 1/(mu))")


def test_proportionality_factor(frame, induced):
    g = frame.induced_form
    assert proportionality_factor(g, g) == ONE
    zero = MultilinearForm.zero(frame.tangent_frame, 2)
    assert proportionality_factor(zero, g) == ZERO
    assert proportionality_factor(induced.d_form, g) is None


def test_screen_umbilical_entries(frame, induced, ureport, mu):
    entries = screen_umbilical_entries(frame, induced, ureport, mu)
    assert [e.name for e in entries] == ["n-shape-umbilic", "b-umbilic-multiple"]
    assert all(e.status == "pass" for e in entries)
    bare = UmbilicityReport(
        beta=None, delta=None, gamma_screen=None, mean_curvature=None,
        totally_geodesic=False, totally_umbilical=False,
        proper_totally_umbilical=False, screen_totally_geodesic=False,
        screen_umbilical=False, proper_screen_umbilical=False)
    skips = screen_umbilical_entries(frame, induced, bare, mu)
    assert [e.status for e in skips] == ["skipped", "skipped"]


def test_induced_curvature_values(frame, icurv):
    assert icurv.table.cell(0, 1, 0) == tangent(frame, {"E2": -2})
    assert icurv.table.cell(0, 1, 1) == tangent(frame, {"E1": -2})
    assert icurv.table.cell(0, 2, 2) == tangent(frame, {"E1": -4 * MU * MU})
    # the induced metric is degenerate, so only the Bianchi entry applies
    lowered = icurv.table.pull_slots(frame.induced_form, (3,))
    assert curvature_entries(icurv, lowered)[0].status == "pass"


def test_induced_ricci_is_eta_einstein(frame, iric):
    g = frame.induced_form
    eb = frame.eta_bar.entries
    expected = MultilinearForm.from_function(
        frame.tangent_frame, 2,
        lambda a, b: 4 * g.entry(a, b) - 8 * eb[a] * eb[b])
    assert (iric - expected).is_zero()
    assert ricci_symmetric_entry(iric).status == "pass"
    k, c = eta_einstein_solve(frame, iric)
    assert k == rf(4)
    assert c == rf(-8)


def test_eta_einstein_solve_rejects_other_tensors(frame, iric):
    bump = MultilinearForm.from_function(
        frame.tangent_frame, 2,
        lambda a, b: ONE if a == b == 0 else ZERO)
    with pytest.raises(NotEtaEinstein):
        eta_einstein_solve(frame, iric + bump)


def test_gauss_relation(lm, frame, induced, ambient_conn, icurv):
    ambient_curv = curvature(ambient_conn, lm.algebra)
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


def test_ricci_action_vanishes(icurv, iric):
    assert ricci_action(icurv, iric).is_zero()


def test_covariant_derivative_convention(frame, induced):
    cd_b = covariant_derivative(induced.conn, induced.b_form)
    # (nabla_{E1} B)(E1, xi) = -B(E1, nabla_{E1} xi) = -B(E1, 2 mu E1)
    assert cd_b.entry(0, 0, 2) == 4 * MU * MU
    assert cd_b.entry(2, 0, 0) == ZERO
    with pytest.raises(ValueError):
        covariant_derivative(induced.conn, MultilinearForm.zero(
            frame.tangent_frame, 3))


def test_radical_must_be_isotropic(model, lm):
    sub = model.submanifold
    with pytest.raises(RadicalRankNotOne, match="against xi"):
        build_frame(lm, sub.screen_labels, sub.screen,
                    ambient(model, {"X3": 1}), sub.l_vec)


def test_screen_must_be_nondegenerate(model, lm):
    sub = model.submanifold
    screen = (ambient(model, {"X1": 1, "X4": 1}), ambient(model, {"X2": 1}))
    with pytest.raises(ScreenDegenerate):
        build_frame(lm, sub.screen_labels, screen, sub.rad, sub.l_vec)


def test_transversal_vector_constraints(model, lm):
    sub = model.submanifold
    with pytest.raises(InvalidFrame, match="not unit"):
        build_frame(lm, sub.screen_labels, sub.screen, sub.rad,
                    ambient(model, {"X1": 2}))
    with pytest.raises(InvalidFrame, match="not orthogonal to E1"):
        build_frame(lm, sub.screen_labels, sub.screen, sub.rad,
                    ambient(model, {"X2": 1}))


def test_frame_shape_validation(model, lm):
    sub = model.submanifold
    with pytest.raises(InvalidFrame, match="screen vectors"):
        build_frame(lm, ("E1",), sub.screen[:1], sub.rad, sub.l_vec)
    with pytest.raises(InvalidFrame, match="reserved"):
        build_frame(lm, ("xi", "E2"), sub.screen, sub.rad, sub.l_vec)
    with pytest.raises(InvalidFrame, match="distinct"):
        build_frame(lm, ("E1", "E1"), sub.screen, sub.rad, sub.l_vec)
    with pytest.raises(InvalidFrame, match="linearly dependent"):
        build_frame(lm, sub.screen_labels, (sub.screen[0], sub.screen[0]),
                    sub.rad, sub.l_vec)


def test_brackets_must_stay_tangent(model, lm):
    screen = (ambient(model, {"X1": 1}), ambient(model, {"X2": 1}))
    sub = model.submanifold
    with pytest.raises(InvalidFrame, match=r"bracket \[E1, E2\]"):
        build_frame(lm, ("E1", "E2"), screen, sub.rad,
                    ambient(model, {"X4": 1}))


def modified_structure(lm, phi=None, xi_bar=None):
    s = lm.structure
    return LieModel(lm.algebra, ACBMStructure(
        s.frame, phi if phi is not None else s.phi,
        xi_bar if xi_bar is not None else s.xi_bar, s.eta_bar, s.metric))


def test_not_rsthl_when_radical_image_leaves_the_line(model, lm):
    s = lm.structure
    cols = [s.phi.cell(j) for j in range(5)]
    cols[model.frame.index("X3")] = ambient(model, {"X1": -1, "X2": -1})
    bad_lm = modified_structure(
        lm, phi=MultilinearForm.from_cells(model.frame, 2, cols.__getitem__))
    sub = model.submanifold
    f = build_frame(bad_lm, sub.screen_labels, sub.screen, sub.rad, sub.l_vec)
    with pytest.raises(NotRSTHL, match="not the screen transversal line"):
        certify_ascreen_rsthl(f)


def test_not_rsthl_when_phi_kills_the_radical(model, lm):
    s = lm.structure
    cols = [s.phi.cell(j) for j in range(5)]
    cols[model.frame.index("X3")] = Vector.zero(model.frame)
    bad_lm = modified_structure(
        lm, phi=MultilinearForm.from_cells(model.frame, 2, cols.__getitem__))
    sub = model.submanifold
    f = build_frame(bad_lm, sub.screen_labels, sub.screen, sub.rad, sub.l_vec)
    with pytest.raises(NotRSTHL, match="kills the radical"):
        certify_ascreen_rsthl(f)


def test_not_ascreen_when_xi_bar_has_a_screen_part(model, lm):
    bad_lm = modified_structure(
        lm, xi_bar=ambient(model, {"X2": 1, "E": 1}))
    sub = model.submanifold
    f = build_frame(bad_lm, sub.screen_labels, sub.screen, sub.rad, sub.l_vec)
    with pytest.raises(NotAscreen):
        certify_ascreen_rsthl(f)
