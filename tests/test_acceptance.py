"""Acceptance gate: ten end-to-end criteria, each at exactly-zero tolerance.

Every test prints one PASS/FAIL line and asserts that all of its sub-checks
hold with exact rational-function arithmetic (no numeric tolerances anywhere).
Run with `pytest tests/test_acceptance.py -v` for one line per criterion.
"""

import random
from fractions import Fraction

import pytest

from rsthl.associated import (build_associated, curvature_transfer_entry,
                              geodesic_correspondence_entries,
                              semisym_24_entry, theorem_aggregate,
                              umbilical_flatness_entry)
from rsthl.builtin import (EXPECTED_FACTOR_TABLE, example_model,
                           factor_algebra, factor_signature_entry)
from rsthl.errors import DegenerateMetric
from rsthl.liegeom import (InvariantMetric, bracket_table, curvature,
                           curvature_entries, koszul_entries, levi_civita)
from rsthl.lightlike import (SubmanifoldFrame, UmbilicityReport,
                             ascreen_f0_entries, certify_ascreen_rsthl,
                             curvature_form_19_entry, frame_conditions,
                             gamma_identity_18_entry, gauss_relation_entry,
                             gauss_weingarten, ricci_form_20_entry,
                             semisym_23_entry)
from rsthl.scalars import MU, ONE, ZERO, rf
from rsthl.structure import basic_curvature_tensors, fundamental_tensor
from rsthl.suite import decided, run_suite
from rsthl.tensors import Frame, MultilinearForm


def record(num, label, checks):
    """Prints one verdict line and fails on any unmet sub-check."""
    failures = [name for name, ok in checks if not ok]
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {num:2d}: {verdict} - {label}")
    assert not failures, f"criterion {num} ({label}) failed: {failures}"


def test_criterion_01_factor_connection_table():
    alg = factor_algebra()
    frame = alg.frame
    metric = InvariantMetric.diagonal(frame, (1, 1, -1, -1))
    conn = levi_civita(alg, metric)
    checks = []
    for i, la in enumerate(frame.labels):
        for j, lb in enumerate(frame.labels):
            expected = MultilinearForm.from_map(
                frame, EXPECTED_FACTOR_TABLE.get((la, lb), {}))
            checks.append(
                (f"nabla({la}, {lb})", conn.cell(i, j) == expected))
    nonzero = sum(1 for v in EXPECTED_FACTOR_TABLE.values() if v)
    checks.append(("eight nonzero components", nonzero == 8))
    record(1, "factor Levi-Civita table matches the fixed data", checks)


def test_criterion_02_ambient_constant_sectional_form(structure, ambient_r4, pair):
    a, b = basic_curvature_tensors(structure)
    checks = [
        ("residual at (4, 0) is zero", a.scale(rf(4)) == ambient_r4),
        ("fitted nu equals 4", pair.nu == rf(4)),
        ("fitted nu-tilde vanishes", pair.nu_tilde == ZERO),
        ("fit residual is zero",
         a.scale(pair.nu) + b.scale(pair.nu_tilde) == ambient_r4),
    ]
    record(2, "ambient curvature has the constant-coefficient form", checks)


def test_criterion_03_vanishing_fundamental_tensor(brackets, structure, ambient_conn):
    s = structure
    f_tensor = fundamental_tensor(s, ambient_conn)
    other = levi_civita(brackets, s.g_tilde)
    dim = s.frame.dimension
    same = all(
        other.cell(i, j) == ambient_conn.cell(i, j)
        for i in range(dim) for j in range(dim))
    checks = [
        ("fundamental tensor vanishes identically", f_tensor.is_zero()),
        ("both metric connections coincide", same),
    ]
    record(3, "the structure lies in the parallel class", checks)


def test_criterion_04_frame_reconstruction_and_certification(
        model, brackets, structure, ambient_conn):
    sub = model.submanifold
    f = SubmanifoldFrame(brackets, structure, sub.screen_labels, sub.screen, sub.rad,
                         sub.l_vec)
    half = ONE / (rf(2) * MU)
    expected_n = MultilinearForm.from_map(model.frame, {"X3": half, "E": half})
    value, cert = certify_ascreen_rsthl(f)
    obj = gauss_weingarten(f, ambient_conn)
    s = structure
    checks = [
        ("submanifold dimension is 3", f.tangent_frame.dimension == 3),
        ("stored transversal block is absent", sub.n_vec is None),
        ("solved transversal equals (X3 + E)/(2 mu)", f.n_vec == expected_n),
        ("certified factor equals the symbolic parameter", value == MU),
        ("phi maps the radical to mu L",
         s.phi.apply(f.rad) == f.l_vec.scale(MU)),
        ("reeb field splits as xi/(2 mu) + mu N",
         s.xi_bar == f.rad.scale(half) + f.n_vec.scale(MU)),
        ("all certification entries pass",
         all(e.status == "pass" for e in decided(*cert).entries)),
        ("all frame validation entries pass",
         all(e.status == "pass" for e in decided(frame_conditions(f)).entries)),
        ("all structure transfer entries pass",
         all(e.status == "pass" for e in ascreen_f0_entries(f, obj, value))),
    ]
    record(4, "frame solve plus radical certification", checks)


def test_criterion_05_screen_umbilicity_closed_forms(
        frame, induced, ureport, icurv, iric, pair, mu):
    g = frame.induced_form
    gamma = ureport.gamma_screen
    checks = [
        ("screen factor gamma equals 1/mu", gamma == ONE / MU),
        ("second form satisfies B = -2 mu g",
         (induced.b_form + g.scale(rf(2) * MU)).is_zero()),
        ("transversal one-form tau vanishes", induced.tau.is_zero()),
        ("transversal one-form rho vanishes", induced.rho.is_zero()),
        ("radical pairing form vanishes", induced.phi_form.is_zero()),
        ("screen distribution is totally umbilical",
         ureport.screen_umbilical and not ureport.screen_totally_geodesic),
        ("umbilic factor identity",
         gamma_identity_18_entry(induced, frame, pair, gamma,
                                 mu).status == "pass"),
        ("umbilic curvature closed form",
         curvature_form_19_entry(frame, icurv, pair, gamma,
                                 mu).status == "pass"),
        ("umbilic ricci closed form",
         ricci_form_20_entry(frame, iric, pair, gamma, mu,
                             2).status == "pass"),
        ("scalar identity nu = 4 mu^2 gamma^2",
         (pair.nu - rf(4) * mu * mu * gamma * gamma).is_zero()),
    ]
    record(5, "screen umbilicity and its closed-form consequences", checks)


def test_criterion_06_eta_einstein_structure(geometry, frame, iric):
    tf = frame.tangent_frame
    g = frame.induced_form
    eta_bar = frame.eta_bar
    eta_sq = MultilinearForm.from_function(
        tf, 2, lambda a, b: eta_bar.entries[a] * eta_bar.entries[b])
    expected = g.scale(rf(4)) - eta_sq.scale(rf(8))
    (k, c), reason = geometry.eta_einstein
    checks = [
        ("Ric equals 4 g - 8 eta x eta", (iric - expected).is_zero()),
        ("solved coefficient k equals 4", k == rf(4)),
        ("solved coefficient c equals -8", c == rf(-8)),
        ("the solve gives no failing reason", reason is None),
    ]
    record(6, "induced Ricci tensor is eta-Einstein with (4, -8)", checks)


def test_criterion_07_twin_metric_geometry(geometry, frame, induced, mu,
                                           ambient_conn, twin, tric):
    entries = decided(*build_associated(frame, induced, mu, ambient_conn)[1]).entries
    by_name = {e.name: e for e in entries}
    expected = twin.metric.form.scale(rf(-8))
    checks = [
        ("all twin construction entries pass",
         all(e.status == "pass" for e in entries)),
        ("conversion-formula connection agrees with Koszul",
         by_name["twin-connection-koszul"].status == "pass"),
        ("twin second forms match both construction routes",
         by_name["twin-second-form-one"].status == "pass"
         and by_name["twin-second-form-two"].status == "pass"),
        ("twin Ricci equals -8 times the twin metric",
         (tric - expected).is_zero()),
        ("Einstein constant solves to -8",
         geometry.einstein == (rf(-8), None)),
    ]
    record(7, "twin metric construction and its Einstein constant", checks)


def test_criterion_08_semisymmetry_both_metrics(geometry, frame, icurv, tcurv,
                                                pair, ureport, mu):
    gamma = ureport.gamma_screen
    entries = theorem_aggregate(icurv, tcurv, pair, gamma, mu,
                                geometry.eta_einstein[0], geometry.einstein[0])
    checks = [
        ("curvature action on Ric vanishes",
         icurv.ricci_action.is_zero()),
        ("twin curvature action on twin Ric vanishes",
         tcurv.ricci_action.is_zero()),
        ("closed-form consequence for the induced metric",
         semisym_23_entry(frame, icurv, pair, gamma, mu, 2).status == "pass"),
        ("closed-form consequence for the twin metric",
         semisym_24_entry(frame, tcurv, pair, gamma, mu, 2).status == "pass"),
        ("all five equivalent assertions are true",
         all(e.status == "pass" for e in entries)),
        ("aggregate constants", "k = 4, c = -8" in entries[2].detail
         and "lambda = -8" in entries[3].detail),
    ]
    record(8, "Ricci semisymmetry holds for both induced metrics", checks)


def test_criterion_09_invariants_beyond_the_worked_model(model, brackets, structure):
    checks = []
    rng = random.Random(20260825)
    # seeded Koszul trials on small nilpotent and solvable families
    for trial in range(4):
        frame3 = Frame(("e1", "e2", "e3"))
        c = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        if rng.random() < 0.5:
            c = -c
        diag = tuple(
            rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(3))
        alg = bracket_table(frame3, {("e1", "e2"): {"e3": c}})
        metric = InvariantMetric.diagonal(frame3, diag)
        conn = levi_civita(alg, metric)
        curv = curvature(conn, alg)
        clean = all(e.status == "pass" for e in (
            koszul_entries(conn, alg, metric)
            + curvature_entries(curv, curv.lower(metric))))
        checks.append((f"Koszul invariants on seeded trial {trial}", clean))
    try:
        InvariantMetric.diagonal(Frame(("e1", "e2")), (1, 0))
        raised = False
    except DegenerateMetric:
        raised = True
    checks.append(("degenerate diagonal metric is rejected", raised))

    sub = model.submanifold
    # rescaled bracket table: every identity is homogeneous in the brackets
    scaled = brackets.scale(rf(3))
    conn3 = levi_civita(scaled, structure.metric)
    f3 = SubmanifoldFrame(scaled, structure, sub.screen_labels, sub.screen, sub.rad,
                          sub.l_vec)
    obj3 = gauss_weingarten(f3, conn3)
    gauss3 = gauss_relation_entry(f3, obj3, curvature(conn3, scaled),
                                  curvature(obj3.gamma, f3.tangent_brackets))
    checks.append(
        ("Gauss relation on a rescaled bracket table",
         gauss3.status == "pass"))

    # abelian variant: all second forms vanish, curvature transfer is exact
    abelian = bracket_table(model.frame, {})
    conn0 = levi_civita(abelian, structure.metric)
    f0 = SubmanifoldFrame(abelian, structure, sub.screen_labels, sub.screen, sub.rad,
                          sub.l_vec)
    mu0, _ = certify_ascreen_rsthl(f0)
    obj0 = gauss_weingarten(f0, conn0)
    curv0 = curvature(obj0.gamma, f0.tangent_brackets)
    gauss0 = gauss_relation_entry(f0, obj0, curvature(conn0, abelian), curv0)
    checks.append(
        ("Gauss relation on the abelian variant", gauss0.status == "pass"))
    assoc0, _ = build_associated(f0, obj0, mu0, conn0)
    tcurv0 = curvature(assoc0.gamma, f0.tangent_brackets)
    ric0 = curv0.ricci
    tric0 = tcurv0.ricci
    rep0 = UmbilicityReport(f0, obj0)
    geo0 = geodesic_correspondence_entries(assoc0, rep0)
    transfer0 = curvature_transfer_entry(rep0, assoc0, curv0, tcurv0)
    flat0 = umbilical_flatness_entry(rep0, curv0, curvature(conn0, abelian))
    dim0 = f0.tangent_frame.dimension
    same_curv = all(
        curv0.table.cell(a, b, c) == tcurv0.table.cell(a, b, c)
        for a in range(dim0) for b in range(dim0) for c in range(dim0))
    checks.append(
        ("abelian variant is totally geodesic",
         obj0.b_form.is_zero() and obj0.d_form.is_zero()
         and rep0.totally_geodesic))
    checks.append(
        ("geodesic correspondence entries pass",
         all(e.status == "pass" for e in geo0)))
    checks.append(
        ("curvature and Ricci transfer under total umbilicity",
         transfer0.status == "pass" and same_curv
         and (ric0 - tric0).is_zero()))
    checks.append(
        ("umbilical flatness statement holds", flat0.status == "pass"))
    record(9, "structural invariants away from the worked model", checks)


def test_criterion_10_sign_adjudication_and_stability():
    entry = factor_signature_entry()
    checks = [
        ("signature audit entry passes", entry.status == "pass"),
        ("adopted signs reproduce the table",
         "signs (1, 1, -1, -1): table=True, anti-compatibility=True"
         in entry.detail),
        ("rejected signs fail the table",
         "signs (1, -1, 1, -1): table=False" in entry.detail),
    ]
    for value in (None, Fraction(1), Fraction(2), Fraction(7, 5)):
        rep = run_suite(example_model(value), "all")
        by_name = {e.name: e for e in rep.entries}
        sig = by_name["factor-signature"]
        last = by_name["twin-ricci-last-term"]
        label = "symbolic" if value is None else f"mu = {value}"
        checks.append(
            (f"suite verdict at {label}",
             rep.counts["fail"] == 0 and rep.counts["skipped"] == 0))
        checks.append(
            (f"sign audit stable at {label}", sig.status == "pass"
             and "signs (1, 1, -1, -1): table=True" in sig.detail))
        checks.append(
            (f"twin Ricci reading stable at {label}",
             last.status == "pass"
             and "carries the sectional factor nu" in last.detail))
    record(10, "sign adjudication is recorded and parameter stable", checks)
