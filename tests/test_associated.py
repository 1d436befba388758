"""The twin metric geometry: normals, induced objects, curvature transfer,
and the equivalence aggregate, on the worked model and on a flat variant."""

from types import SimpleNamespace

import pytest

from rsthl.associated import (curvature_transfer_entry,
                              geodesic_correspondence_entries,
                              semisym_24_entry, theorem_aggregate,
                              tilde_form_21_entry, tilde_relation_13_entry,
                              tilde_ricci_14_entry, tilde_ricci_22_entries,
                              umbilical_flatness_entry)
from rsthl.liegeom import bracket_table, curvature
from rsthl.scalars import MU, ONE, ZERO, rf
from rsthl.suite import Geometry, decided
from rsthl.tensors import MultilinearForm

from conftest import replaced

BUILD_NAMES = (
    "twin-normal-one-unit", "twin-normal-two-unit", "twin-normals-orthogonal",
    "twin-normals-transverse", "twin-metric-nondegenerate",
    "twin-splitting-orthogonal", "twin-radical-spacelike",
    "twin-screen-signature", "twin-weingarten-tangency",
    "twin-connection-formula", "twin-connection-koszul",
    "twin-second-form-one", "twin-second-form-two", "twin-shape-one",
    "twin-shape-two", "twin-h1-symmetric", "twin-h2-symmetric",
    "twin-shape-duality")


def tangent(frame, entries):
    return MultilinearForm.from_map(frame.tangent_frame, entries)


def test_build_associated_entries(geometry):
    entries = decided(*geometry.twin[1]).entries
    assert tuple(e.name for e in entries) == BUILD_NAMES
    assert all(e.status == "pass" for e in entries)
    by_name = {e.name: e for e in entries}
    assert by_name["twin-radical-spacelike"].detail == \
        "g~(xi, xi) = mu^2, positive for every real mu != 0"
    assert by_name["twin-screen-signature"].detail == \
        "g~(phi PX, phi PY) = -g~(PX, PY), so the screen has split g~-signature"


def test_twin_normals(model, twin):
    assert twin.n1 == MultilinearForm.from_map(model.frame, {"X1": -1, "E": 1})
    assert twin.n2 == MultilinearForm.from_map(model.frame, {"X1": -1, "X3": -1, "E": 1})


def test_twin_metric_table(twin):
    gt = twin.metric.form
    assert gt.entry(0, 0) == ZERO
    assert gt.entry(0, 1) == rf(-1)
    assert gt.entry(1, 1) == ZERO
    assert gt.entry(2, 2) == MU * MU
    assert gt.entry(0, 2) == ZERO
    assert gt.entry(1, 2) == ZERO


def test_twin_fundamental_forms(twin):
    h1 = twin.h1
    assert h1.entry(0, 0) == rf(-2)
    assert h1.entry(1, 1) == rf(2)
    assert h1.entry(0, 1) == ZERO
    assert all(h1.entry(a, 2) == ZERO for a in range(3))
    h2 = twin.h2
    assert h2.entry(0, 0) == rf(2)
    assert h2.entry(0, 1) == rf(-2)
    assert h2.entry(1, 0) == rf(-2)
    assert h2.entry(1, 1) == rf(-2)
    assert all(h2.entry(a, 2) == ZERO for a in range(3))


def test_twin_shape_operators(frame, twin):
    assert twin.shape_n1.cell(0) == tangent(frame, {"E2": 2})
    assert twin.shape_n1.cell(1) == tangent(frame, {"E1": -2})
    assert twin.shape_n1.cell(2).is_zero()
    assert twin.shape_n2.cell(0) == tangent(frame, {"E1": -2, "E2": 2})
    assert twin.shape_n2.cell(1) == tangent(frame, {"E1": -2, "E2": -2})
    assert twin.shape_n2.cell(2).is_zero()


def test_twin_connection_table(frame, twin):
    gamma = twin.gamma
    two_over_mu = 2 * (ONE / MU)
    assert gamma.cell(0, 0).is_zero()
    assert gamma.cell(1, 1).is_zero()
    assert gamma.cell(0, 1) == tangent(frame, {"xi": two_over_mu})
    assert gamma.cell(1, 0) == tangent(frame, {"xi": two_over_mu})
    assert gamma.cell(0, 2) == tangent(frame, {"E1": 2 * MU})
    assert gamma.cell(1, 2) == tangent(frame, {"E2": 2 * MU})
    for j in range(3):
        assert gamma.cell(2, j).is_zero()


def test_twin_curvature_values(frame, tcurv):
    assert tcurv.table.cell(0, 1, 0) == tangent(frame, {"E1": 4})
    assert tcurv.table.cell(0, 1, 1) == tangent(frame, {"E2": -4})
    assert tcurv.table.cell(0, 2, 2) == tangent(frame, {"E1": -4 * MU * MU})


def test_twin_ricci_is_einstein(geometry, twin, tric):
    expected = twin.metric.form.scale(rf(-8))
    assert (tric - expected).is_zero()
    assert geometry.einstein == (rf(-8), None)


def test_einstein_solve_rejects_other_tensors(model, frame, tric, monkeypatch):
    bump = MultilinearForm.from_function(
        frame.tangent_frame, 2,
        lambda a, b: ONE if a == b == 0 else ZERO)
    monkeypatch.setattr(Geometry, "tcurv",
                        property(lambda self: SimpleNamespace(ricci=tric + bump)))
    assert Geometry(model).einstein == (
        None, "the twin Ricci tensor is not proportional to the twin metric")


def test_curvature_and_ricci_transfer(frame, induced, mu, icurv, iric,
                                      tcurv, tric):
    e13 = tilde_relation_13_entry(frame, induced, mu, icurv, tcurv)
    assert e13.status == "pass"
    assert (e13.name, e13.anchor) == ("twin-curvature-transfer", "eq-13")
    e14 = tilde_ricci_14_entry(frame, induced, mu, iric, tric)
    assert e14.status == "pass"
    assert (e14.name, e14.anchor) == ("twin-ricci-transfer", "eq-14")


def test_umbilic_normal_forms(frame, screen, tcurv, tric):
    e21 = tilde_form_21_entry(frame, tcurv, screen)
    assert e21.status == "pass"
    assert (e21.name, e21.anchor) == ("twin-umbilic-curvature-form", "eq-21")
    entries = tilde_ricci_22_entries(frame, tric, screen)
    assert [e.name for e in entries] == ["twin-umbilic-ricci-form",
                                         "twin-ricci-last-term"]
    assert all(e.status == "pass" for e in entries)
    assert "carries the sectional factor nu" in entries[1].detail


def test_twin_ricci_action(frame, screen, tcurv):
    assert tcurv.ricci_action.is_zero()
    entry = semisym_24_entry(frame, tcurv, screen)
    assert entry.status == "pass"
    assert (entry.name, entry.anchor) == ("twin-ricci-action-closed-form",
                                          "eq-24")


def test_umbilical_statements_are_vacuous_here(frame, induced, ureport, twin,
                                               icurv, iric, tcurv, tric,
                                               ambient_conn, brackets):
    assert twin.twin_umbilicity == (None, None)
    entries = geodesic_correspondence_entries(twin, ureport)
    assert [e.name for e in entries] == [
        "geodesic-correspondence", "umbilical-collapse",
        "twin-umbilical-collapse"]
    assert all(e.status == "pass" for e in entries)
    assert entries[1].detail == "vacuous, the first metric is not totally umbilical"
    assert entries[2].detail == "vacuous, the twin metric is not totally umbilical"
    transfer = curvature_transfer_entry(ureport, twin, icurv, tcurv)
    assert transfer.status == "pass"
    assert transfer.detail == "vacuous, neither induced metric is totally umbilical"
    flatness = umbilical_flatness_entry(
        ureport, icurv, curvature(ambient_conn, brackets))
    assert flatness.status == "pass"
    assert flatness.detail == "vacuous, the first metric is not totally umbilical"


def test_theorem_aggregate(geometry, icurv, tcurv, screen):
    entries = theorem_aggregate(icurv, tcurv, screen,
                                geometry.eta_einstein[0], geometry.einstein[0])
    assert [e.name for e in entries] == [
        "assertion-ricci-semisymmetric", "assertion-twin-ricci-semisymmetric",
        "assertion-eta-einstein", "assertion-einstein",
        "assertion-scalar-identity", "assertion-equivalence"]
    assert all(e.status == "pass" for e in entries)
    assert "k = 4, c = -8" in entries[2].detail
    assert "lambda = -8" in entries[3].detail
    assert "true, true, true, true, true" in entries[5].detail


@pytest.fixture(scope="module")
def flat(model):
    """The same frame and structure over the abelian bracket table.

    Every fundamental form vanishes, so the totally geodesic and totally
    umbilical transfer statements take their non-vacuous branches.
    """
    geo = Geometry(replaced(
        model, brackets=bracket_table(model.frame, {})))
    return {"conn": geo.conn, "frame": geo.frame, "mu": geo.mu,
            "obj": geo.induced, "rep": geo.umbilicity, "assoc": geo.assoc,
            "build_entries": decided(*geo.twin[1]).entries, "curv": geo.curv_ind,
            "ric": geo.curv_ind.ricci, "tcurv": geo.tcurv,
            "tric": geo.tcurv.ricci, "pair": geo.pair, "screen": geo.screen,
            "solves": (geo.eta_einstein[0], geo.einstein[0])}


def test_flat_variant_is_totally_geodesic(flat):
    obj, rep = flat["obj"], flat["rep"]
    assert obj.b_form.is_zero()
    assert obj.c_form.is_zero()
    assert obj.d_form.is_zero()
    assert rep.beta == ZERO
    assert rep.delta == ZERO
    assert rep.gamma_screen == ZERO
    # umbilical, and not properly: beta = delta = 0 and the screen factor
    # vanishes
    assert rep.totally_geodesic
    assert rep.totally_umbilical
    assert rep.screen_totally_geodesic
    assert rep.screen_umbilical
    assert rep.describe() == "totally geodesic; screen totally geodesic"
    assert all(e.status == "pass" for e in flat["build_entries"])


def test_flat_variant_collapse_statements(flat):
    entries = geodesic_correspondence_entries(flat["assoc"], flat["rep"])
    assert all(e.status == "pass" for e in entries)
    assert entries[1].detail == \
        "a totally umbilical first metric collapses everything to geodesic"
    assert entries[2].detail == \
        "a totally umbilical twin metric collapses everything to geodesic"
    transfer = curvature_transfer_entry(flat["rep"], flat["assoc"],
                                        flat["curv"], flat["tcurv"])
    assert transfer.status == "pass"
    assert transfer.detail == \
        "a totally umbilical metric forces R = R~ and Ric = Ric~"
    ambient_curv = curvature(flat["conn"], flat["frame"].brackets)
    flatness = umbilical_flatness_entry(flat["rep"], flat["curv"], ambient_curv)
    assert flatness.status == "pass"
    assert flatness.detail == \
        "a totally umbilical submanifold and its ambient space are flat"


def test_flat_variant_curvature_agrees(flat):
    m = flat["frame"].tangent_frame.dimension
    for a in range(m):
        for b in range(m):
            for c in range(m):
                assert flat["curv"].table.cell(a, b, c).is_zero()
                assert flat["tcurv"].table.cell(a, b, c).is_zero()
    assert (flat["ric"] - flat["tric"]).is_zero()
    assert flat["pair"].nu == ZERO
    assert flat["pair"].nu_tilde == ZERO
    assert flat["assoc"].twin_umbilicity == (ZERO, ZERO)


def test_flat_variant_theorem(flat):
    entries = theorem_aggregate(
        flat["curv"], flat["tcurv"], flat["screen"], *flat["solves"])
    assert all(e.status == "pass" for e in entries)
    assert "k = 0, c = 0" in entries[2].detail
    assert "lambda = 0" in entries[3].detail
