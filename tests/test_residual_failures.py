"""Every folded residual check fails on a perturbed input.

The worked model satisfies all of these identities, so the suites alone
would stay green if a comparison never reported a nonzero residual.
Each case below changes one input of one check and asserts that its
entry fails with the exact residual suffix.
"""

import json
import re
from functools import cached_property
from pathlib import Path
from unittest import mock

import pytest

import test_properties
from rsthl import suite
from rsthl.associated import (build_associated, geodesic_correspondence_entries,
                              semisym_24_entry, tilde_form_21_entry,
                              tilde_relation_13_entry, tilde_ricci_14_entry,
                              umbilical_flatness_entry)
from rsthl import builtin
from rsthl.cli import main
from rsthl.liegeom import CurvatureTensor, InvariantMetric, bracket_table, curvature
from rsthl.lightlike import (SubmanifoldFrame, ascreen_f0_entries,
                             certify_ascreen_rsthl, codazzi_16_entry,
                             curvature_form_15_entry, curvature_form_19_entry,
                             frame_conditions, gamma_identity_18_entry,
                             gauss_relation_entry, induced_invariant_entries,
                             nu_tilde_vanishes_entry, ricci_form_20_entry,
                             semisym_23_entry)
from rsthl.report import FAIL, PASS
from rsthl.scalars import HALF, ONE
from rsthl.structure import (ACBMStructure, CurvaturePair,
                             associated_compat_entry, validate_acbm)
from rsthl.suite import decided, run_suite
from rsthl.tensors import MultilinearForm, outer

from conftest import replaced

ROOT = Path(__file__).resolve().parents[1]


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
    return CurvatureTensor(bump_form(curv.table, 0, 1, 0, 1))


def with_phi_column(s, label, image):
    """The structure s with phi(label) replaced by the given vector."""
    frame = s.frame
    cols = [s.phi.cell(j) for j in range(frame.dimension)]
    cols[frame.index(label)] = MultilinearForm.from_map(frame, image)
    return ACBMStructure(frame, MultilinearForm.from_cells(frame, 2, cols.__getitem__),
                         s.xi_bar, s.eta_bar, s.metric)


def induced_with(geo, **changes):
    return replaced(geo.induced, **changes)


def frame_under(geo, structure):
    """The worked frame over the structure changed by structure(s)."""
    sub = geo.model.submanifold
    return SubmanifoldFrame(geo.model.brackets, structure(geo.structure),
                            sub.screen_labels, sub.screen, sub.rad, sub.l_vec)


def certification(name, structure):
    """The decided sec-2-ascreen entry name of the worked frame under the
    structure changed by structure(s); radical-phi-image must pass."""
    def case(geo):
        f = frame_under(geo, structure)
        return entry_named(decided(*certify_ascreen_rsthl(f)[1]).entries, name)
    return case


def vector(geo, entries):
    return MultilinearForm.from_map(geo.model.frame, entries)


def frame_condition(name, **changes):
    """The decided frame condition name on the worked frame with the given
    vectors (screen, rad, l_vec, n_vec) changed."""
    def case(geo):
        sub = geo.model.submanifold
        fields = dict(screen_labels=sub.screen_labels, screen=sub.screen,
                      rad=sub.rad, l_vec=sub.l_vec, n_vec=None)
        fields.update({k: fn(geo) for k, fn in changes.items()})
        f = SubmanifoldFrame(geo.model.brackets, geo.structure, **fields)
        return entry_named(decided(frame_conditions(f)).entries, name)
    return case


def geometry_with(geo, **objects):
    """A geometry of the worked model whose frame, mu, induced objects and
    ambient connection are the worked ones, or the given ones."""
    fresh = suite.Geometry(geo.model)
    fresh.__dict__.update(frame=geo.frame, mu=geo.mu, induced=geo.induced,
                          conn=geo.conn)
    fresh.__dict__.update(objects)
    return fresh


def twin_entry(name, structure=None, mu=None, induced=None, conn=None):
    """The decided twin entry name with the worked frame's structure, the
    invariant mu, the induced objects or the ambient connection changed."""
    def case(geo):
        objects = {}
        if structure:
            objects["frame"] = frame_under(geo, structure)
        if mu:
            objects["mu"] = mu(geo)
        if induced:
            objects["induced"] = induced(geo)
        if conn:
            objects["conn"] = conn(geo)
        return entry_named(decided(*geometry_with(geo, **objects).twin[1]).entries, name)
    return case


def with_eta(s, label):
    """The structure s with the dual form eta-bar moved by e^label."""
    return ACBMStructure(s.frame, s.phi, s.xi_bar,
                         s.eta_bar + MultilinearForm.from_map(s.frame, {label: 1}),
                         s.metric)


def with_phi_columns(s, columns):
    for label, image in columns.items():
        s = with_phi_column(s, label, image)
    return s


def induced_invariant(name, **changes):
    def case(geo):
        obj = induced_with(geo, **{k: fn(geo.induced) for k, fn in changes.items()})
        return entry_named(induced_invariant_entries(geo.frame, obj), name)
    return case


def structure_transfer(name, **changes):
    """The structure-transfer entry name with the worked induced objects
    changed."""
    def case(geo):
        obj = induced_with(geo, **{k: fn(geo.induced) for k, fn in changes.items()})
        return entry_named(ascreen_f0_entries(geo.frame, obj, geo.mu), name)
    return case


def skewed_induced_connection(obj):
    # nabla_{T_0} T_0 gains a T_0 part
    return bump_form(obj.gamma, 0, 0, 0)


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


def twisted_sectional(geo):
    return nu_tilde_vanishes_entry(CurvaturePair(geo.pair.nu, geo.pair.nu_tilde + 1))


def gamma_identity_18(geo):
    pair = CurvaturePair(geo.pair.nu + 1, geo.pair.nu_tilde)
    return gamma_identity_18_entry(geo.induced, geo.frame, pair, geo.gamma, geo.mu)


def ricci_form_20(geo):
    return ricci_form_20_entry(geo.frame, bump_form(geo.curv_ind.ricci, 0, 0),
                               geo.pair, geo.gamma, geo.mu, geo.structure.n)


def semisym_23(geo):
    return semisym_23_entry(geo.frame, bump_curvature(geo.curv_ind), geo.pair,
                            geo.gamma, geo.mu, geo.structure.n)


def semisym_24(geo):
    return semisym_24_entry(geo.frame, bump_curvature(geo.tcurv), geo.pair,
                            geo.gamma, geo.mu, geo.structure.n)


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


def curvature_transfer(geo):
    # on the abelian variant the statement is not vacuous; the twin
    # curvature is moved off the induced one
    class Perturbed(suite.Geometry):
        @cached_property
        def tcurv(self):
            return bump_curvature(curvature(self.assoc.gamma, self.frame.tangent_brackets))

    flat = replaced(
        geo.model, brackets=bracket_table(geo.model.frame, {}))
    with mock.patch.object(suite, "Geometry", Perturbed):
        entries = run_suite(flat, "submanifold").entries
    return entry_named(entries, "umbilical-curvature-transfer")


def abelian_variant(geo):
    """The geometry of the worked model with every bracket zero: both
    induced metrics are totally geodesic there."""
    return suite.Geometry(replaced(geo.model, brackets=bracket_table(geo.model.frame, {})))


def umbilical_flatness(geo):
    flat = abelian_variant(geo)
    entry = umbilical_flatness_entry(flat.umbilicity,
                                     bump_curvature(flat.curv_ind), flat.curv)
    return entry


def connection_term(geo, u, w, v):
    """The ambient table with nabla-bar_u w = v, for frame labels u and w,
    and zero elsewhere."""
    return outer(vector(geo, {u: 1}), outer(vector(geo, {w: 1}), v))


def skew_along(normal):
    """The worked ambient connection where nabla-bar_{E1} E2 gains the twin
    normal and nabla-bar_{E2} E1 loses it (E1 = X2, E2 = X4): the torsion
    moves, and only the second form of that normal sees it."""
    def conn(geo):
        v = normal(geo.assoc)
        return (geo.conn + connection_term(geo, "X2", "X4", v)
                - connection_term(geo, "X4", "X2", v))
    return conn


def crossed_classes(name, flat_first):
    """The prop-3.3 entry name on the first class of one geometry and the
    twin class of another: the worked model, where neither metric is
    totally umbilical, against its abelian variant, where both are
    totally geodesic."""
    def case(geo):
        flat = abelian_variant(geo)
        first, twin = (flat, geo) if flat_first else (geo, flat)
        return entry_named(geodesic_correspondence_entries(twin.assoc, first.umbilicity),
                           name)
    return case


def bumped_induced(field):
    """The worked induced objects with the (E1, E1) entry of field raised."""
    return lambda geo: induced_with(
        geo, **{field: bump_form(getattr(geo.induced, field), 0, 0)})


def doubled_phi(s):
    return ACBMStructure(s.frame, s.phi.scale(2), s.xi_bar, s.eta_bar, s.metric)


def axiom(name, structure):
    """The axiom entry name of the worked structure changed by
    structure(s)."""
    return lambda geo: entry_named(validate_acbm(structure(geo.structure)), name)


def associated_twist(geo):
    return associated_compat_entry(doubled_phi(geo.structure))


CASES = {
    "radical-isotropy": frame_condition(
        "radical-isotropy", rad=lambda geo: vector(geo, {"X3": 1})),
    "screen-nondegeneracy": frame_condition(
        "screen-nondegeneracy",
        screen=lambda geo: (vector(geo, {"X1": 1, "X4": 1}), vector(geo, {"X2": 1}))),
    "transversal-normalization": frame_condition(
        "transversal-normalization", l_vec=lambda geo: vector(geo, {"X2": 1})),
    "transversal-duality": frame_condition(
        "transversal-duality", n_vec=lambda geo: vector(geo, {"X3": 1})),
    # [E1, E2] = -2 X4 = -2 L leaves the tangent space
    "tangent-closure": frame_condition(
        "tangent-closure",
        screen=lambda geo: (vector(geo, {"X1": 1}), vector(geo, {"X2": 1})),
        l_vec=lambda geo: vector(geo, {"X4": 1})),
    # the induced connection moves, the ambient split does not
    "twin-connection-formula": twin_entry(
        "twin-connection-formula",
        induced=lambda geo: induced_with(
            geo, gamma=skewed_induced_connection(geo.induced))),
    # phi(X2) = X2 + X4 keeps the five twin conditions; of the three
    # connection routes only the Koszul one reads the g~ it changes
    "twin-connection-koszul": twin_entry(
        "twin-connection-koszul",
        structure=lambda s: with_phi_column(s, "X2", {"X2": 1, "X4": 1})),
    # eta-bar(L) = 1 adds 1 to g~(L, L) and to g~(xi-bar, L)
    "twin-normal-one-unit": twin_entry(
        "twin-normal-one-unit", structure=lambda s: with_eta(s, "X1")),
    "twin-normal-two-unit": twin_entry(
        "twin-normal-two-unit", mu=lambda geo: geo.mu * 2),
    # phi(X3) = X3 adds 1 to g~(X1, X3), and N1 - N2 = X3
    "twin-normals-orthogonal": twin_entry(
        "twin-normals-orthogonal",
        structure=lambda s: with_phi_column(s, "X3", {"X3": 1})),
    # eta-bar(X2) = 1 adds eta-bar(N_i) = 1 to g~(N_i, E1)
    "twin-normals-transverse": twin_entry(
        "twin-normals-transverse", structure=lambda s: with_eta(s, "X2")),
    # phi(X2) = 0 puts the screen vector E1 into the kernel of g~
    "twin-metric-nondegenerate": twin_entry(
        "twin-metric-nondegenerate",
        structure=lambda s: with_phi_column(s, "X2", {})),
    # as for twin-normals-transverse, with phi(X2) = X4 + X1 and
    # phi(X1) = X3 + X2 cancelling the added g~(N_i, E1) and keeping g~
    # symmetric, so only g~(xi, E1) = mu is left
    "twin-splitting-orthogonal": twin_entry(
        "twin-splitting-orthogonal",
        structure=lambda s: with_phi_columns(with_eta(s, "X2"), {
            "X2": {"X4": 1, "X1": 1}, "X1": {"X3": 1, "X2": 1}})),
    # phi(E) = -2 X1 - 2 E gives g~(xi, xi) = g(xi, phi xi) + mu^2 = -mu^2
    "twin-radical-spacelike": twin_entry(
        "twin-radical-spacelike",
        structure=lambda s: with_phi_column(s, "E", {"X1": -2, "E": -2})),
    # phi = +-Id on the screen makes g~ definite there
    "twin-screen-signature": twin_entry(
        "twin-screen-signature",
        structure=lambda s: with_phi_columns(s, {"X2": {"X2": 1}, "X4": {"X4": -1}})),
    # phi(xi) = mu (X1 + X2) leaves the line of L = X1
    "radical-phi-image": certification(
        "radical-phi-image", lambda s: with_phi_column(s, "X3", {"X1": -1, "X2": -1})),
    # the model file whose screen vector E1 = X2 + xi moves N off the plane
    # of xi and xi-bar, run through the whole suite
    "reeb-split": lambda geo: entry_named(
        run_suite(test_properties.screen_radical_mixing(), "submanifold").entries,
        "reeb-split"),
    # eta-bar(X3) = 1 moves eta-bar(xi) by -mu and eta-bar(N) by 1/(2 mu)
    "eta-of-radical": certification("eta-of-radical", lambda s: with_eta(s, "X3")),
    "eta-of-null-transversal": certification(
        "eta-of-null-transversal", lambda s: with_eta(s, "X3")),
    # g(X1, X1) = -1 makes L = X1 timelike, and mu = eps g(phi xi, L) stays mu
    "transversal-unit": certification(
        "transversal-unit",
        lambda s: ACBMStructure(s.frame, s.phi, s.xi_bar, s.eta_bar,
                                InvariantMetric.diagonal(s.frame, (-1, 1, -1, -1, 1)))),
    "eta-of-transversal": certification("eta-of-transversal", lambda s: with_eta(s, "X1")),
    # phi(E) = X2 and phi(X3) = X2 - X1 keep phi(xi) = mu L and move phi(N)
    "phi-of-null-transversal": certification(
        "phi-of-null-transversal",
        lambda s: with_phi_columns(s, {"E": {"X2": 1}, "X3": {"X1": -1, "X2": 1}})),
    "phi-of-transversal": certification(
        "phi-of-transversal", lambda s: with_phi_column(s, "X1", {"X3": 1, "X2": 1})),
    "eta-proportionality": certification(
        "eta-proportionality", lambda s: with_eta(s, "X2")),
    "screen-phi-invariance": certification(
        "screen-phi-invariance",
        lambda s: with_phi_column(s, "X2", {"X4": 1, "E": 1})),
    # nabla_{E1} E2 gains an E1 part
    "induced-torsion-free": induced_invariant(
        "induced-torsion-free", gamma=lambda obj: bump_form(obj.gamma, 0, 1, 0)),
    "b-symmetric": induced_invariant(
        "b-symmetric", b_form=lambda obj: bump_form(obj.b_form, 0, 1)),
    "d-symmetric": induced_invariant(
        "d-symmetric", d_form=lambda obj: bump_form(obj.d_form, 0, 1)),
    "b-kills-radical": induced_invariant(
        "b-kills-radical", b_form=lambda obj: bump_form(obj.b_form, 0, 2)),
    "d-radical-slot": induced_invariant(
        "d-radical-slot", d_form=lambda obj: bump_form(obj.d_form, 0, 2)),
    # A*_xi xi gains an E1 part
    "radical-shape-kills-radical": induced_invariant(
        "radical-shape-kills-radical",
        shape_rad=lambda obj: bump_form(obj.shape_rad, 2, 0)),
    # A*_xi E1 and A_N E1 gain a xi part
    "radical-shape-screen-valued": induced_invariant(
        "radical-shape-screen-valued",
        shape_rad=lambda obj: bump_form(obj.shape_rad, 0, 2)),
    "n-shape-screen-valued": induced_invariant(
        "n-shape-screen-valued", shape_n=lambda obj: bump_form(obj.shape_n, 0, 2)),
    "l-shape-duality": induced_invariant(
        "l-shape-duality", rho=lambda obj: bump_form(obj.rho, 0)),
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
        "metric-deviation", gamma=skewed_induced_connection),
    "tau-closed": induced_invariant(
        "tau-closed",
        tau=lambda obj: MultilinearForm(obj.tau.frame, 1, (ONE,) + obj.tau.entries[1:])),
    "n-shape-from-radical-shape": structure_transfer(
        "n-shape-from-radical-shape", shape_n=lambda obj: bump_form(obj.shape_n, 0, 0)),
    "l-shape-from-radical-shape": structure_transfer(
        "l-shape-from-radical-shape", shape_l=lambda obj: bump_form(obj.shape_l, 0, 0)),
    "d-from-b": structure_transfer(
        "d-from-b", d_form=lambda obj: bump_form(obj.d_form, 0, 0)),
    "c-from-b": structure_transfer(
        "c-from-b", c_form=lambda obj: bump_form(obj.c_form, 0, 0)),
    "tau-vanishes": structure_transfer(
        "tau-vanishes", tau=lambda obj: bump_form(obj.tau, 0)),
    "phi-form-vanishes": structure_transfer(
        "phi-form-vanishes", phi_form=lambda obj: bump_form(obj.phi_form, 0)),
    "rho-vanishes": structure_transfer(
        "rho-vanishes", rho=lambda obj: bump_form(obj.rho, 0)),
    # nabla*_{T_0} T_0 gains a T_1 part
    "screen-phi-parallel": structure_transfer(
        "screen-phi-parallel",
        screen_gamma=lambda obj: bump_form(obj.screen_gamma, 0, 0, 1)),
    "radical-shape-phi-commute": structure_transfer(
        "radical-shape-phi-commute",
        shape_rad=lambda obj: bump_form(obj.shape_rad, 0, 0)),
    "n-shape-phi-commute": structure_transfer(
        "n-shape-phi-commute", shape_n=lambda obj: bump_form(obj.shape_n, 0, 0)),
    "l-shape-phi-commute": structure_transfer(
        "l-shape-phi-commute", shape_l=lambda obj: bump_form(obj.shape_l, 0, 0)),
    "b-phi-antisymmetry": structure_transfer(
        "b-phi-antisymmetry", b_form=lambda obj: bump_form(obj.b_form, 0, 0)),
    "gauss-relation": gauss_relation,
    "curvature-from-shape-terms": curvature_form_15,
    "b-derivative-balance": codazzi_16,
    "twisted-sectional-vanishes": twisted_sectional,
    "umbilic-factor-identity": gamma_identity_18,
    "umbilic-curvature-form": curvature_form_19,
    "umbilic-ricci-form": ricci_form_20,
    "ricci-action-closed-form": semisym_23,
    "twin-ricci-action-closed-form": semisym_24,
    "twin-curvature-transfer": tilde_relation_13,
    "twin-ricci-transfer": tilde_ricci_14,
    "twin-umbilic-curvature-form": tilde_form_21,
    # nabla_{X2} X1 gains an X2 part: only the derivatives of the twin
    # normals see it, since no tangent vector has an X1 component
    "twin-shape-duality": twin_entry(
        "twin-shape-duality",
        conn=lambda geo: geo.conn + connection_term(geo, "X2", "X1", vector(geo, {"X2": 1}))),
    # B moves, the split of the ambient connection does not
    "twin-second-form-one": twin_entry("twin-second-form-one",
                                       induced=bumped_induced("b_form")),
    "twin-second-form-two": twin_entry("twin-second-form-two",
                                       induced=bumped_induced("b_form")),
    "twin-shape-one": twin_entry("twin-shape-one", induced=bumped_induced("shape_rad")),
    "twin-shape-two": twin_entry("twin-shape-two", induced=bumped_induced("shape_rad")),
    "twin-h1-symmetric": twin_entry(
        "twin-h1-symmetric", conn=skew_along(lambda assoc: assoc.n1)),
    "twin-h2-symmetric": twin_entry(
        "twin-h2-symmetric", conn=skew_along(lambda assoc: assoc.n2)),
    # nabla-bar_{X2} E gains N1, so nabla-bar_{E1} N1 has an N1 part
    "twin-weingarten-tangency": twin_entry(
        "twin-weingarten-tangency",
        conn=lambda geo: geo.conn + connection_term(geo, "X2", "E", geo.assoc.n1)),
    "geodesic-correspondence": crossed_classes("geodesic-correspondence", True),
    "umbilical-collapse": crossed_classes("umbilical-collapse", True),
    "twin-umbilical-collapse": crossed_classes("twin-umbilical-collapse", False),
    "umbilical-curvature-transfer": curvature_transfer,
    "umbilical-flatness": umbilical_flatness,
    "phi-squared": axiom("phi-squared", doubled_phi),
    "eta-of-xi": axiom("eta-of-xi", lambda s: with_eta(s, "E")),
    # phi(X1) = X3 + E gives eta-bar(phi X1) = 1
    "eta-after-phi": axiom(
        "eta-after-phi", lambda s: with_phi_column(s, "X1", {"X3": 1, "E": 1})),
    "phi-of-xi": axiom("phi-of-xi", lambda s: with_phi_column(s, "E", {"X1": 1})),
    # phi(X2) = 0 drops the rank of phi to 3
    "phi-rank": axiom("phi-rank", lambda s: with_phi_column(s, "X2", {})),
    "b-metric": axiom("b-metric", doubled_phi),
    "eta-is-metric-dual": axiom("eta-is-metric-dual", lambda s: with_eta(s, "X1")),
    "xi-unit": axiom(
        "xi-unit", lambda s: ACBMStructure(s.frame, s.phi, s.xi_bar.scale(2),
                                           s.eta_bar, s.metric)),
    "associated-metric-twist": associated_twist,
}


# the residual suffix each perturbed entry reports
SUFFIXES = {
    "radical-isotropy":
        "; the residual at (xi) is -1, 1 of 3 components nonzero",
    # truth values and ranks: the statement carries them
    "screen-nondegeneracy": "",
    "transversal-normalization":
        "; the residual at (E1) is 1, 1 of 3 components nonzero",
    "transversal-duality":
        "; the residual at (xi) is mu - 1, 1 of 3 components nonzero",
    "tangent-closure":
        "; the residual at (E1, E2) is -2, 2 of 9 components nonzero",
    "twin-connection-formula":
        "; the residual at (E1, E1, E1) is 1, 1 of 27 components nonzero",
    "twin-connection-koszul":
        "; the residual at (E1, E1, xi) is -2/(mu), 1 of 27 components nonzero",
    "twin-normal-one-unit": "; the residual is -1",
    "twin-normal-two-unit": "; the residual is -3",
    "twin-normals-orthogonal": "; the residual is 1",
    "twin-normals-transverse":
        "; the residual at (E1) is 1, 1 of 3 components nonzero",
    "twin-metric-nondegenerate": "",
    "twin-splitting-orthogonal":
        "; the residual at (E1) is mu, 1 of 3 components nonzero",
    "twin-radical-spacelike": "; the residual is -2*mu^2",
    "twin-screen-signature":
        "; the residual at (E1, E1) is 2, 2 of 9 components nonzero",
    "radical-phi-image":
        "; the residual at (X2) is mu, 1 of 5 components nonzero",
    "reeb-split":
        "; the residual at (X2) is mu, 3 of 5 components nonzero",
    "eta-of-radical": "; the residual is -mu",
    "eta-of-null-transversal": "; the residual is 1/(2*mu)",
    "transversal-unit": "; the residual is -2",
    "eta-of-transversal": "; the residual is 1",
    "phi-of-null-transversal":
        "; the residual at (X2) is 1/(mu), 1 of 5 components nonzero",
    "phi-of-transversal":
        "; the residual at (X2) is 1, 1 of 5 components nonzero",
    "eta-proportionality":
        "; the residual at (E1) is 1, 1 of 3 components nonzero",
    "screen-phi-invariance":
        "; the residual at (E) is 1, 1 of 5 components nonzero",
    "induced-torsion-free":
        "; the residual at (E1, E2, E1) is 1, 2 of 27 components nonzero",
    "b-symmetric": "; the residual at (E1, E2) is 1, 2 of 9 components nonzero",
    "d-symmetric": "; the residual at (E1, E2) is 1, 2 of 9 components nonzero",
    "b-kills-radical": "; the residual at (E1) is 1, 1 of 3 components nonzero",
    "d-radical-slot": "; the residual at (E1) is 1, 1 of 3 components nonzero",
    "radical-shape-kills-radical":
        "; the residual at (E1) is 1, 1 of 3 components nonzero",
    "radical-shape-screen-valued":
        "; the residual at (E1) is 1, 1 of 3 components nonzero",
    "n-shape-screen-valued": "; the residual at (E1) is 1, 1 of 3 components nonzero",
    "l-shape-duality": "; the residual at (E1) is -1, 1 of 3 components nonzero",
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
    "n-shape-from-radical-shape":
        "; the residual at (E1, E1) is 1, 1 of 9 components nonzero",
    "l-shape-from-radical-shape":
        "; the residual at (E1, E1) is 1, 1 of 9 components nonzero",
    "d-from-b": "; the residual at (E1, E1) is 1, 1 of 9 components nonzero",
    "c-from-b": "; the residual at (E1, E1) is 1, 1 of 9 components nonzero",
    "tau-vanishes": "; the residual at (E1) is 1, 1 of 3 components nonzero",
    "phi-form-vanishes": "; the residual at (E1) is 1, 1 of 3 components nonzero",
    "rho-vanishes": "; the residual at (E1) is 1, 1 of 3 components nonzero",
    "screen-phi-parallel":
        "; the residual at (E1, E1, E1) is 1, 2 of 27 components nonzero",
    "radical-shape-phi-commute":
        "; the residual at (E1, E2) is -1, 2 of 9 components nonzero",
    "n-shape-phi-commute":
        "; the residual at (E1, E2) is -1, 2 of 9 components nonzero",
    "l-shape-phi-commute":
        "; the residual at (E1, E2) is -1, 2 of 9 components nonzero",
    "b-phi-antisymmetry":
        "; the residual at (E1, E1) is 1, 2 of 9 components nonzero",
    "gauss-relation":
        "; the residual at (E1, E2, E1, E2) is -1, 1 of 81 components nonzero",
    "curvature-from-shape-terms":
        "; the residual at (E1, E2, E1, E2) is 1, 1 of 81 components nonzero",
    "b-derivative-balance":
        "; the residual at (E1, xi, E1) is -mu^2, 4 of 27 components nonzero",
    "twisted-sectional-vanishes": "; the residual is 1",
    "umbilic-factor-identity": "; the residual is 1",
    "umbilic-curvature-form":
        "; the residual at (E1, E2, E1, E2) is 1, 1 of 81 components nonzero",
    "umbilic-ricci-form":
        "; the residual at (E1, E1) is 1, 1 of 9 components nonzero",
    "ricci-action-closed-form":
        "; the residual at (E1, E2, E1, E2) is 4, 2 of 81 components nonzero",
    "twin-ricci-action-closed-form":
        "; the residual at (E1, E2, E1, E1) is -16, 1 of 81 components nonzero",
    "twin-curvature-transfer":
        "; the residual at (E1, E2, E1, E2) is 1, 1 of 81 components nonzero",
    "twin-ricci-transfer":
        "; the residual at (E1, E1) is 1, 1 of 9 components nonzero",
    "twin-umbilic-curvature-form":
        "; the residual at (E1, E2, E1, E2) is 1, 1 of 81 components nonzero",
    "twin-shape-duality":
        "; the residual at (E1, E2) is 1, 1 of 9 components nonzero",
    "twin-second-form-one":
        "; the residual at (E1, E1) is -1/(mu), 1 of 9 components nonzero",
    "twin-second-form-two":
        "; the residual at (E1, E1) is 1/(mu), 2 of 9 components nonzero",
    "twin-shape-one":
        "; the residual at (E1, E2) is 1/(mu), 1 of 9 components nonzero",
    "twin-shape-two":
        "; the residual at (E1, E1) is -1/(mu), 2 of 9 components nonzero",
    "twin-h1-symmetric":
        "; the residual at (E1, E2) is 2, 2 of 9 components nonzero",
    "twin-h2-symmetric":
        "; the residual at (E1, E2) is 2, 2 of 9 components nonzero",
    "twin-weingarten-tangency":
        "; the residual at (E1) is 1, 1 of 3 components nonzero",
    # truth values: the statement carries them
    "geodesic-correspondence": "",
    "umbilical-collapse": "",
    "twin-umbilical-collapse": "",
    "umbilical-curvature-transfer":
        "; the residual at (E1, E2, E1, E2) is -1, 1 of 81 components nonzero",
    "umbilical-flatness":
        "; the residual at (E1, E2, E1, E2) is 1, 1 of 81 components nonzero",
    "phi-squared":
        "; the residual at (X1, X1) is -3, 4 of 25 components nonzero",
    "eta-of-xi": "; the residual is 1",
    "eta-after-phi":
        "; the residual at (X1) is 1, 1 of 5 components nonzero",
    "phi-of-xi":
        "; the residual at (X1) is 1, 1 of 5 components nonzero",
    "phi-rank": "",
    "b-metric":
        "; the residual at (X1, X1) is -3, 4 of 25 components nonzero",
    "eta-is-metric-dual":
        "; the residual at (X1) is 1, 1 of 5 components nonzero",
    "xi-unit": "; the residual is 3",
    "associated-metric-twist":
        "; the residual at (X1, X1) is -3, 4 of 25 components nonzero",
}


@pytest.mark.parametrize("name", CASES)
def test_perturbed_input_fails_the_check(name, geometry):
    entry = CASES[name](geometry)
    assert entry.status == FAIL
    _, sep, residual = entry.detail.partition("; the residual")
    assert sep + residual == SUFFIXES[name]


@pytest.mark.parametrize("second, verdicts", [
    ((1, -1, 1, -1), "table=False, anti-compatibility=False"),
    # anti-commutes with J, and the connection table moves
    ((1, -1, -1, 1), "table=False, anti-compatibility=True"),
], ids=["alternating", "table-only"])
def test_factor_signature_decides_each_comparison(monkeypatch, second, verdicts):
    """The detail of factor-signature carries the table and the
    anti-compatibility verdict of each candidate, each decided on its own."""
    first = builtin.SIGN_CANDIDATES[0]
    monkeypatch.setattr(builtin, "SIGN_CANDIDATES", (first, second))
    builtin.factor_signature_entry.cache_clear()
    try:
        entry = builtin.factor_signature_entry()
    finally:
        builtin.factor_signature_entry.cache_clear()
    assert (entry.status, entry.detail) == (
        PASS, f"signs {first}: table=True, anti-compatibility=True; "
        f"signs {second}: {verdicts}")


def test_twin_ricci_transfer_reads_the_tau_terms(geometry):
    """On invariant data tau = 0, so a suite run cannot see the tau(xi)
    terms of eq-14.  With tau(xi) = 1 the entry passes exactly when the
    twin Ricci tensor is raised by (1/mu^2)(B/2 + B(., phi P .)); the
    (E1, E2) component of B(., phi P .) tells the sign of its term."""
    geo = geometry
    obj = induced_with(
        geo, tau=MultilinearForm.from_map(geo.frame.tangent_frame, {"xi": 1}))
    shift = (obj.b_form.scale(HALF) + obj.b_phi).scale(ONE / (geo.mu * geo.mu))

    def entry(tilde_ric):
        return tilde_ricci_14_entry(geo.frame, obj, geo.mu, geo.curv_ind.ricci,
                                    tilde_ric)

    assert entry(geo.tcurv.ricci + shift).status == PASS
    unshifted = entry(geo.tcurv.ricci)
    assert unshifted.status == FAIL
    assert unshifted.detail.endswith(
        "; the residual at (E1, E1) is 1/(mu), 4 of 9 components nonzero")


def test_twin_connection_mismatch_fails_one_entry_and_blocks_nothing(capsys):
    """A twin connection route that disagrees with the ambient split fails
    its entry, and the run exits 1.  Every later twin entry reads the split
    only, so nothing is skipped."""
    class Perturbed(suite.Geometry):
        @cached_property
        def twin(self):
            obj = induced_with(self, gamma=skewed_induced_connection(self.induced))
            return build_associated(self.frame, obj, self.mu, self.conn)

    with mock.patch.object(suite, "Geometry", Perturbed):
        assert main(["example47"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    fails = [line for line in out.splitlines() if line.startswith("[FAIL]")]
    assert len(fails) == 1 and "twin-connection-formula" in fails[0]
    assert fails[0].endswith(
        "; the residual at (E1, E1, E1) is 1, 1 of 27 components nonzero)")
    assert out.splitlines()[-1] == "verdict: fail (113 passed, 1 failed, 0 skipped)"


# catalogued names that no perturbed input makes fail, each with the reason
CANNOT_FAIL = {"metric-signature": "forced by the axioms that block it",
               "umbilicity": "it names the class the frame is in, and every "
                             "class passes; the steps that need a class skip"}

# the structure axioms, the half lightlike splitting, the ascreen
# conditions, the induced objects, the structure transfer of eq-2.7 to
# eq-2.10 and sec-2-commuting, the twin geometry of thm-1.1, sec-2-twin,
# eq-2.11 and eq-2.12, the umbilicity classes of def-3.1 and their
# correspondence in prop-3.3, and the screen umbilical closed forms of
# thm-4.4, eq-18, eq-20, eq-23 and eq-24
GUARDED_ANCHORS = ("sec-2-structure", "sec-2-splitting", "sec-2-ascreen",
                   "sec-2-induced", "eq-2.7", "eq-2.8", "eq-2.9", "eq-2.10",
                   "sec-2-commuting", "eq-2.11", "eq-2.12", "sec-2-twin", "thm-1.1",
                   "def-3.1", "prop-3.3", "thm-4.4", "eq-18", "eq-20", "eq-23",
                   "eq-24")


def catalog_section(anchor):
    text = (ROOT / "docs" / "identities.md").read_text(encoding="utf-8")
    return text.split(f"\n## {anchor}\n", 1)[1].split("\n## ", 1)[0]


def marked_names(anchor):
    """The entry names the catalog section of anchor marks: the known-answer
    names among the items of its parenthesized, comma-separated lists."""
    known = json.loads((ROOT / "bench" / "known_answers.json").read_text(encoding="utf-8"))
    names = {n for stage in known["stages"].values() for n in stage}
    groups = re.findall(r"\(([^()]*)\)", catalog_section(anchor))
    return {item.strip() for group in groups for item in group.split(",")} & names


def test_each_catalog_section_marks_the_entries_of_its_anchor(model):
    by_anchor = {}
    for e in run_suite(model).entries:
        by_anchor.setdefault(e.anchor, set()).add(e.name)
    assert {a: marked_names(a) for a in by_anchor} == by_anchor
    # prose marks nothing: eq-18 speaks of the umbilicity factor
    assert "umbilicity" in catalog_section("eq-18")
    assert marked_names("eq-18") == {"umbilic-factor-identity"}


def test_every_guarded_entry_has_a_witness():
    """Each entry that a guarded anchor's catalog section marks fails on a
    perturbed input above or is listed as one that cannot fail."""
    guarded = set().union(*map(marked_names, GUARDED_ANCHORS))
    assert {"tangent-closure", "twin-connection-koszul", "umbilicity"} <= guarded
    assert guarded - set(CASES) - set(CANNOT_FAIL) == set()
    assert set(CASES) & set(CANNOT_FAIL) == set()


def test_twin_condition_failure_skips_the_twin_geometry(geometry):
    """With xi-bar doubled, the twin normals are no longer g~-unit: the
    first twin condition fails with its residual, and every later twin
    entry is skipped, naming it, instead of the split raising."""
    doubled = geometry_with(geometry, frame=frame_under(
        geometry, lambda s: ACBMStructure(s.frame, s.phi, s.xi_bar.scale(2),
                                          s.eta_bar, s.metric)))
    st = decided(*doubled.twin[1])
    entries = st.entries
    assert (entries[0].name, entries[0].status) == ("twin-normal-one-unit", FAIL)
    assert entries[0].detail == "g~(N1, N1) = 1; the residual is 3"
    assert len(entries) == 18
    assert {(e.status, e.detail) for e in entries[1:]} == {
        ("skipped", "blocked by twin-normal-one-unit (fail)")}
    assert st.blocker == "blocked by twin-normal-one-unit (fail)"
