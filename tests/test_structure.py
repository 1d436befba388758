"""Structure axioms, the associated metric, the fundamental tensor and the
constant sectional invariants."""

import pytest

from rsthl.errors import GeometryError
from rsthl.liegeom import InvariantMetric, levi_civita
from rsthl.model import model_from_json_obj
from rsthl.scalars import ONE, ZERO, rf
from rsthl.structure import (ACBMStructure, associated_compat_entry,
                             basic_curvature_tensors,
                             constant_curvature_residual, fundamental_tensor,
                             metric_signature_entry, validate_acbm)
from rsthl.suite import Geometry, run_suite
from rsthl.tensors import Frame, MultilinearForm
from conftest import replaced
from test_properties import reeb_sheared
from test_tensors import leibniz


def operator(frame, columns):
    """The operator table sending e_j to columns[j]."""
    return MultilinearForm.from_cells(frame, 2, lambda j: columns[j])


def is_f0(s, conn):
    """Whether the structure is of the zero class for this connection."""
    return fundamental_tensor(s, conn).is_zero()


def pi_tensors(s):
    """The three basic curvature-type tensors of thm-4.1, entry by entry:
    the reference for the curvature products of the closed form."""
    frame = s.frame
    g = s.metric.form

    def pi1(i, j, k, l):
        return g.entry(j, k) * g.entry(i, l) - g.entry(i, k) * g.entry(j, l)

    p1 = MultilinearForm.from_function(frame, 4, pi1)
    p2 = p1.pull_slots(s.phi, (2, 3))

    gphi = g.pull_slots(s.phi, (1,)).entry

    def pi3(i, j, k, l):
        return (
            -g.entry(j, k) * gphi(i, l)
            + g.entry(i, k) * gphi(j, l)
            - gphi(j, k) * g.entry(i, l)
            + gphi(i, k) * g.entry(j, l)
        )

    p3 = MultilinearForm.from_function(frame, 4, pi3)
    return p1, p2, p3


AXIOM_NAMES = ("phi-squared", "eta-of-xi", "eta-after-phi", "phi-of-xi",
               "phi-rank", "b-metric", "eta-is-metric-dual", "xi-unit")


def test_validate_acbm_all_axioms_pass(structure):
    entries = validate_acbm(structure)
    assert tuple(e.name for e in entries) == AXIOM_NAMES
    assert all(e.status == "pass" for e in entries)
    assert all(e.anchor == "sec-2-structure" for e in entries)
    by_name = {e.name: e for e in entries}
    assert by_name["phi-rank"].detail == "rank phi = 4, expected 4"
    signature = metric_signature_entry(structure)
    assert (signature.status, signature.anchor) == ("pass", "sec-2-structure")
    assert signature.detail.startswith("signature (3,2): ")


def test_structure_needs_odd_dimension():
    frame = Frame(("a", "b"))
    with pytest.raises(GeometryError, match="odd dimension"):
        ACBMStructure(frame, MultilinearForm.zero(frame, 2),
                      MultilinearForm.zero(frame, 1),
                      MultilinearForm(frame, 1, (ZERO, ZERO)),
                      InvariantMetric.diagonal(frame, (1, 1)))


def test_n_counts_structure_planes(structure):
    assert structure.n == 2


def test_perturbed_phi_fails_phi_squared(structure):
    s = structure
    frame = s.frame
    cols = list(s.phi.cell(j) for j in range(frame.dimension))
    cols[0] = cols[0] + frame.basis_vector(0)
    bad = ACBMStructure(frame, operator(frame, cols),
                        s.xi_bar, s.eta_bar, s.metric)
    by_name = {e.name: e for e in validate_acbm(bad)}
    assert by_name["phi-squared"].status == "fail"
    assert by_name["eta-of-xi"].status == "pass"


def test_wrong_signature_is_reported(model):
    """A definite metric breaks the B-metric axiom, which blocks the
    signature entry it would otherwise force."""
    flat = InvariantMetric.diagonal(model.frame, (1, 1, 1, 1, 1))
    by_name = {e.name: e for e in run_suite(replaced(model, metric_form=flat.form),
                                            "ambient").entries}
    assert by_name["b-metric"].status == "fail"
    assert (by_name["metric-signature"].status, by_name["metric-signature"].detail) == (
        "skipped", "blocked by b-metric (fail)")


def test_associated_metric_values(structure):
    s = structure
    gt = s.g_tilde.form
    frame = s.frame
    x1, x2, x3, x4, e = (frame.index(l) for l in ("X1", "X2", "X3", "X4", "E"))
    assert gt.entry(x1, x3) == rf(-1)
    assert gt.entry(x3, x1) == rf(-1)
    assert gt.entry(x2, x4) == rf(-1)
    assert gt.entry(e, e) == ONE
    for i in (x1, x2, x3, x4):
        assert gt.entry(i, i) == ZERO
        assert gt.entry(i, e) == ZERO
    assert gt.entry(x1, x2) == ZERO
    # the twin pairing is nondegenerate
    assert leibniz(gt.rows()) == ONE


def test_associated_compat_entry(structure):
    entry = associated_compat_entry(structure)
    assert entry.status == "pass"
    assert entry.name == "associated-metric-twist"


def test_fundamental_tensor_vanishes(structure, ambient_conn):
    assert fundamental_tensor(structure, ambient_conn).is_zero()
    assert is_f0(structure, ambient_conn)


def test_twin_connection_coincides(brackets, structure, ambient_conn):
    gt = structure.g_tilde
    twin_conn = levi_civita(brackets, gt)
    dim = structure.frame.dimension
    for i in range(dim):
        for j in range(dim):
            assert (twin_conn.cell(i, j) - ambient_conn.cell(i, j)).is_zero()


def test_non_parallel_phi_is_not_f0(structure, ambient_conn):
    s = structure
    frame = s.frame
    cols = list(s.phi.cell(j) for j in range(frame.dimension))
    cols[frame.index("X2")] = cols[frame.index("X2")].scale(2)
    bad = ACBMStructure(frame, operator(frame, cols),
                        s.xi_bar, s.eta_bar, s.metric)
    f = fundamental_tensor(bad, ambient_conn)
    assert not is_f0(bad, ambient_conn)
    x1, x2 = frame.index("X1"), frame.index("X2")
    assert f.entry(x2, x2, x1) == rf(2)


def test_pi_tensor_values(structure):
    p1, p2, p3 = pi_tensors(structure)
    frame = structure.frame
    x1, x2, x3 = frame.index("X1"), frame.index("X2"), frame.index("X3")
    # pi_1(X1, X2, X2, X1) = g(X2,X2) g(X1,X1)
    assert p1.entry(x1, x2, x2, x1) == ONE
    assert p2.entry(x1, x2, x2, x1) == ZERO
    # pi_3(X1, X2, X2, X3) = -g(X2,X2) g(X1, phi X3) = -1 * -1
    assert p3.entry(x1, x2, x2, x3) == ONE
    assert p3.entry(x1, x2, x2, x1) == ZERO


@pytest.mark.parametrize("build", [None, reeb_sheared],
                         ids=["example47", "reeb_sheared"])
def test_closed_form_matches_pi_tensors(build, geometry):
    """The basic curvature tensors are A = pi_1 o phi - pi_2 and
    B = pi_3 o phi from the reference tensors, so every curvature product
    carries its own sign."""
    s = (geometry if build is None else Geometry(build())).structure
    p1, p2, p3 = pi_tensors(s)
    assert basic_curvature_tensors(s) == (p1.pull_all(s.phi) - p2, p3.pull_all(s.phi))


def test_fit_curvature_pair_and_closed_form(ambient_r4, pair, geometry):
    assert pair.nu == rf(4)
    assert pair.nu_tilde == ZERO
    a, b = geometry.curvature_basis
    assert a.scale(pair.nu) + b.scale(pair.nu_tilde) == ambient_r4
    entry = constant_curvature_residual(ambient_r4, geometry.curvature_basis, pair)
    assert (entry.name, entry.status) == ("constant-curvature-form", "pass")


def test_closed_form_rejects_wrong_curvature(ambient_r4, pair, geometry):
    entry = constant_curvature_residual(ambient_r4.scale(2),
                                        geometry.curvature_basis, pair)
    assert entry.status == "fail"
    # the residual 2 R - R is R, nonzero at R(X1, X2, X1, X2) = -4 first
    assert entry.detail.endswith(
        "basic curvature tensors; the residual at (X1, X2, X1, X2) is -4, "
        "32 of 625 components nonzero")


def test_no_totally_real_section():
    """In dimension 3 the one plane orthogonal to xi_bar is phi-invariant,
    so no section is totally real and the basic curvature tensors A and B
    are linearly dependent: the fit fails by name and the form is skipped."""
    m = model_from_json_obj({
        "frame": {"labels": ["e1", "e2", "e3"]},
        "brackets": {},
        "metric": {"e1,e1": 1, "e2,e2": -1, "e3,e3": 1},
        "structure": {"phi": {"e1": {"e2": 1}, "e2": {"e1": -1}},
                      "xi": {"e3": 1}, "eta": {"e3": 1}},
    })
    assert Geometry(m).sectional == (
        None, "the basic curvature tensors A and B are linearly dependent, "
        "so nu and nu~ are not determined")
    by_name = {e.name: e for e in run_suite(m, "ambient").entries}
    assert (by_name["sectional-fit"].status, by_name["sectional-fit"].detail) == (
        "fail", "the basic curvature tensors A and B are linearly dependent, "
        "so nu and nu~ are not determined")
    form = by_name["constant-curvature-form"]
    assert (form.status, form.detail) == (
        "skipped", "the ambient sectional invariants are unavailable")
