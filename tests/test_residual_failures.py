"""Every folded residual check fails on a perturbed input.

The worked model satisfies all of these identities, so the suites alone
would stay green if a comparison never reported a nonzero residual.
Each case below changes one input of one check and asserts that its
entry fails with the exact residual suffix.
"""

import dataclasses
from functools import cached_property
from unittest import mock

import pytest

from rsthl import associated, suite
from rsthl.associated import (build_associated, tilde_form_21_entry,
                              tilde_relation_13_entry, tilde_ricci_14_entry,
                              umbilical_flatness_entry)
from rsthl.builtin import (_anti_compatible, _factor_j,
                           _matches_expected_table, factor_algebra)
from rsthl.liegeom import Connection, CurvatureTensor, InvariantMetric, LieAlgebra
from rsthl.lightlike import (ascreen_f0_entries, build_frame,
                             certify_ascreen_rsthl, codazzi_16_entry,
                             curvature_form_15_entry, curvature_form_19_entry,
                             gauss_relation_entry, induced_invariant_entries)
from rsthl.report import FAIL
from rsthl.scalars import ONE
from rsthl.structure import (ACBMStructure, CurvaturePair, LieModel,
                             associated_compat_entry, validate_acbm)
from rsthl.suite import run_suite
from rsthl.tensors import MultilinearForm, Vector


def entry_named(entries, name):
    return {e.name: e for e in entries}[name]


def bump_form(form, *idx):
    """form with the entry at idx raised by one; on a vector-valued table
    the last index names the component of the cell that moves."""
    return MultilinearForm.from_function(
        form.frame, form.arity,
        lambda *at: form.entry(*at) + ONE if at == idx else form.entry(*at))


def bump_curvature(curv):
    """curv with R(T_0, T_1) T_0 moved by T_1, which keeps its Ricci trace."""
    return CurvatureTensor(curv.frame, bump_form(curv.table, 0, 1, 0, 1))


def with_phi_column(s, label, image):
    """The structure s with phi(label) replaced by the given vector."""
    frame = s.frame
    cols = [s.phi.cell(j) for j in range(frame.dimension)]
    cols[frame.index(label)] = Vector.from_map(frame, image)
    return ACBMStructure(frame, MultilinearForm.from_cells(frame, 2, cols.__getitem__),
                         s.xi_bar, s.eta_bar, s.metric)


def induced_with(geo, **changes):
    return dataclasses.replace(geo.induced, **changes)


def screen_phi_invariance(geo):
    # phi(X2) = X4 + E moves the first screen vector off the screen
    model = geo.model
    lm = LieModel(geo.lie_model.algebra,
                  with_phi_column(geo.structure, "X2", {"X4": 1, "E": 1}))
    sub = model.submanifold
    f = build_frame(lm, sub.screen_labels, sub.screen, sub.rad, sub.l_vec)
    return entry_named(certify_ascreen_rsthl(f)[1], "screen-phi-invariance")


def induced_invariant(name, **changes):
    def case(geo):
        obj = induced_with(geo, **{k: fn(geo.induced) for k, fn in changes.items()})
        return entry_named(induced_invariant_entries(geo.frame, obj), name)
    return case


def skewed_induced_connection(obj):
    # nabla_{T_0} T_0 gains a T_0 part
    return Connection(obj.conn.frame, bump_form(obj.conn.gamma, 0, 0, 0))


def screen_phi_parallel(geo):
    # nabla*_{T_0} T_0 gains a T_1 part
    obj = induced_with(geo, screen_gamma=bump_form(geo.induced.screen_gamma, 0, 0, 1))
    return entry_named(ascreen_f0_entries(geo.frame, obj, geo.mu),
                       "screen-phi-parallel")


def gauss_relation(geo):
    entry = gauss_relation_entry(geo.frame, geo.induced, geo.curv,
                                 bump_curvature(geo.curv_ind))
    return entry


def curvature_form_15(geo):
    entry = curvature_form_15_entry(geo.frame, geo.induced,
                                    bump_curvature(geo.curv_ind), geo.pair)
    return entry


def codazzi_16(geo):
    pair = CurvaturePair(geo.pair.nu + 1, geo.pair.nu_tilde)
    return codazzi_16_entry(geo.frame, geo.induced, pair, geo.mu)


def curvature_form_19(geo):
    entry = curvature_form_19_entry(geo.frame, bump_curvature(geo.curv_ind),
                                    geo.pair, geo.gamma, geo.mu)
    return entry


def tilde_relation_13(geo):
    entry = tilde_relation_13_entry(geo.frame, geo.induced, geo.mu,
                                    geo.curv_ind, bump_curvature(geo.tcurv))
    return entry


def tilde_ricci_14(geo):
    entry = tilde_ricci_14_entry(geo.frame, geo.induced, geo.mu,
                                 geo.curv_ind.ricci,
                                 bump_form(geo.tcurv.ricci, 0, 0))
    return entry


def tilde_form_21(geo):
    entry = tilde_form_21_entry(geo.frame, bump_curvature(geo.tcurv),
                                geo.pair, geo.gamma, geo.mu)
    return entry


def twin_shape_duality(geo):
    # nabla_{X2} X1 gains an X2 part: only the derivatives of the twin
    # normals see it, since no tangent vector has an X1 component
    frame = geo.model.frame
    x1, x2 = frame.index("X1"), frame.index("X2")
    conn = Connection(frame, bump_form(geo.conn.gamma, x2, x1, x2))
    _, entries = build_associated(geo.frame, geo.induced, geo.mu, conn)
    return entry_named(entries, "twin-shape-duality")


def curvature_transfer(geo):
    # on the abelian variant the statement is not vacuous; the twin
    # curvature is moved off the induced one
    class Perturbed(suite.Geometry):
        @cached_property
        def tcurv(self):
            return bump_curvature(associated.tilde_curvature(self.frame, self.assoc))

    flat = dataclasses.replace(
        geo.model, algebra=LieAlgebra.from_table(geo.model.frame, {}))
    with mock.patch.object(suite, "Geometry", Perturbed):
        entries = run_suite(flat, "submanifold").entries
    return entry_named(entries, "umbilical-curvature-transfer")


def umbilical_flatness(geo):
    flat = suite.Geometry(dataclasses.replace(
        geo.model, algebra=LieAlgebra.from_table(geo.model.frame, {})))
    entry = umbilical_flatness_entry(flat.umbilicity,
                                     bump_curvature(flat.curv_ind), flat.curv)
    return entry


def doubled_phi(s):
    return ACBMStructure(s.frame, s.phi.scale(2), s.xi_bar, s.eta_bar, s.metric)


def b_metric(geo):
    return entry_named(validate_acbm(doubled_phi(geo.structure)), "b-metric")


def associated_twist(geo):
    return associated_compat_entry(doubled_phi(geo.structure))


ALTERNATING = (1, -1, 1, -1)


def factor_table(geo):
    alg = factor_algebra()
    return _matches_expected_table(
        alg, InvariantMetric.diagonal(alg.frame, ALTERNATING))


def factor_anti_compatibility(geo):
    frame = factor_algebra().frame
    return _anti_compatible(InvariantMetric.diagonal(frame, ALTERNATING),
                            _factor_j(frame))


CASES = {
    "screen-phi-invariance": screen_phi_invariance,
    "radical-shape-self-adjoint": induced_invariant(
        "radical-shape-self-adjoint",
        shape_rad=lambda obj: bump_form(obj.shape_rad, 1, 0)),
    "b-from-radical-shape": induced_invariant(
        "b-from-radical-shape", b_form=lambda obj: bump_form(obj.b_form, 0, 0)),
    "c-from-n-shape": induced_invariant(
        "c-from-n-shape", c_form=lambda obj: bump_form(obj.c_form, 0, 0)),
    "d-from-l-shape": induced_invariant(
        "d-from-l-shape", shape_l=lambda obj: bump_form(obj.shape_l, 0, 0)),
    "d-split": induced_invariant(
        "d-split", d_form=lambda obj: bump_form(obj.d_form, 0, 2)),
    "metric-deviation": induced_invariant(
        "metric-deviation", conn=skewed_induced_connection),
    "tau-closed": induced_invariant(
        "tau-closed",
        tau=lambda obj: MultilinearForm(obj.tau.frame, 1, (ONE,) + obj.tau.entries[1:])),
    "screen-phi-parallel": screen_phi_parallel,
    "gauss-relation": gauss_relation,
    "curvature-from-shape-terms": curvature_form_15,
    "b-derivative-balance": codazzi_16,
    "umbilic-curvature-form": curvature_form_19,
    "twin-curvature-transfer": tilde_relation_13,
    "twin-ricci-transfer": tilde_ricci_14,
    "twin-umbilic-curvature-form": tilde_form_21,
    "twin-shape-duality": twin_shape_duality,
    "umbilical-curvature-transfer": curvature_transfer,
    "umbilical-flatness": umbilical_flatness,
    "b-metric": b_metric,
    "associated-metric-twist": associated_twist,
    "factor-table": factor_table,
    "factor-anti-compatibility": factor_anti_compatibility,
}


# the residual suffix each perturbed entry reports
SUFFIXES = {
    "screen-phi-invariance":
        "; the residual at (E) is 1, 1 of 5 components nonzero",
    "radical-shape-self-adjoint":
        "; the residual at (E1, E2) is -1, 2 of 9 components nonzero",
    "b-from-radical-shape":
        "; the residual at (E1, E1) is 1, 1 of 9 components nonzero",
    "c-from-n-shape":
        "; the residual at (E1, E1) is 1, 1 of 9 components nonzero",
    "d-from-l-shape":
        "; the residual at (E1, E1) is -1, 1 of 9 components nonzero",
    "d-split":
        "; the residual at (E1, xi) is 1, 1 of 9 components nonzero",
    "metric-deviation":
        "; the residual at (E1, E1, E1) is -2, 1 of 27 components nonzero",
    "tau-closed":
        "; the residual at (E1, xi) is 2*mu, 2 of 9 components nonzero",
    "screen-phi-parallel":
        "; the residual at (E1, E1, E1) is 1, 2 of 27 components nonzero",
    "gauss-relation":
        "; the residual at (E1, E2, E1, E2) is -1, 1 of 81 components nonzero",
    "curvature-from-shape-terms":
        "; the residual at (E1, E2, E1, E2) is 1, 1 of 81 components nonzero",
    "b-derivative-balance":
        "; the residual at (E1, xi, E1) is -mu^2, 4 of 27 components nonzero",
    "umbilic-curvature-form":
        "; the residual at (E1, E2, E1, E2) is 1, 1 of 81 components nonzero",
    "twin-curvature-transfer":
        "; the residual at (E1, E2, E1, E2) is 1, 1 of 81 components nonzero",
    "twin-ricci-transfer":
        "; the residual at (E1, E1) is 1, 1 of 9 components nonzero",
    "twin-umbilic-curvature-form":
        "; the residual at (E1, E2, E1, E2) is 1, 1 of 81 components nonzero",
    "twin-shape-duality":
        "; the residual at (E1, E2) is 1, 1 of 9 components nonzero",
    "umbilical-curvature-transfer":
        "; the residual at (E1, E2, E1, E2) is -1, 1 of 81 components nonzero",
    "umbilical-flatness":
        "; the residual at (E1, E2, E1, E2) is 1, 1 of 81 components nonzero",
    "b-metric":
        "; the residual at (X1, X1) is -3, 4 of 25 components nonzero",
    "associated-metric-twist":
        "; the residual at (X1, X1) is -3, 4 of 25 components nonzero",
    "factor-table":
        "; the residual at (X1, X2, X4) is -2, 7 of 64 components nonzero",
    "factor-anti-compatibility":
        "; the residual at (X1, X1) is 2, 4 of 16 components nonzero",
}


@pytest.mark.parametrize("name", CASES)
def test_perturbed_input_fails_the_check(name, geometry):
    entry = CASES[name](geometry)
    assert entry.status == FAIL
    _, sep, residual = entry.detail.partition("; the residual")
    assert sep + residual == SUFFIXES[name]
