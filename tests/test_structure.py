"""Structure axioms, the associated metric, the fundamental tensor and the
constant sectional invariants."""

import pytest

from rsthl.errors import NoTotallyRealSection
from rsthl.liegeom import InvariantMetric, LieAlgebra, curvature, levi_civita
from rsthl.scalars import MU, ONE, ZERO, rf
from rsthl.structure import (ACBMStructure, CurvaturePair,
                             associated_compat_entry, associated_metric,
                             constant_curvature_form,
                             constant_curvature_residual, fit_curvature_pair,
                             fundamental_tensor, signature_at_sample,
                             validate_acbm)
from rsthl.suite import Geometry
from rsthl.tensors import Frame, MultilinearForm, Vector
from test_properties import reeb_sheared


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
    g = s.metric

    def pi1(i, j, k, l):
        return g.entry(j, k) * g.entry(i, l) - g.entry(i, k) * g.entry(j, l)

    p1 = MultilinearForm.from_function(frame, 4, pi1)
    p2 = p1.pull_slots(s.phi, (2, 3))

    gphi = g.form.pull_slots(s.phi, (1,)).entry

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
               "phi-rank", "b-metric", "eta-is-metric-dual", "xi-unit",
               "metric-signature")


def test_validate_acbm_all_axioms_pass(lm):
    entries = validate_acbm(lm.structure)
    assert tuple(e.name for e in entries) == AXIOM_NAMES
    assert all(e.status == "pass" for e in entries)
    assert all(e.anchor == "sec-2-structure" for e in entries)
    by_name = {e.name: e for e in entries}
    assert by_name["phi-rank"].detail == "rank phi = 4, expected 4"
    assert by_name["metric-signature"].detail == "signature (3,2), expected (3,2)"


def test_structure_needs_odd_dimension():
    frame = Frame(("a", "b"))
    with pytest.raises(ValueError, match="odd dimension"):
        ACBMStructure(frame, MultilinearForm.zero(frame, 2), Vector.zero(frame),
                      MultilinearForm(frame, 1, (ZERO, ZERO)),
                      InvariantMetric.diagonal(frame, (1, 1)))


def test_n_counts_structure_planes(lm):
    assert lm.structure.n == 2


def test_perturbed_phi_fails_phi_squared(lm):
    s = lm.structure
    frame = s.frame
    cols = list(s.phi.cell(j) for j in range(frame.dimension))
    cols[0] = cols[0] + frame.basis_vector(0)
    bad = ACBMStructure(frame, operator(frame, cols),
                        s.xi_bar, s.eta_bar, s.metric)
    by_name = {e.name: e for e in validate_acbm(bad)}
    assert by_name["phi-squared"].status == "fail"
    assert by_name["eta-of-xi"].status == "pass"


def test_wrong_signature_is_reported(lm):
    s = lm.structure
    flat = InvariantMetric.diagonal(s.frame, (1, 1, 1, 1, 1))
    bad = ACBMStructure(s.frame, s.phi, s.xi_bar, s.eta_bar, flat)
    by_name = {e.name: e for e in validate_acbm(bad)}
    assert by_name["metric-signature"].status == "fail"
    assert by_name["metric-signature"].detail == "signature (5,0), expected (3,2)"
    assert by_name["b-metric"].status == "fail"


def test_signature_at_sample(lm):
    assert signature_at_sample(lm.metric) == (3, 2, 0)


def test_signature_sample_avoids_entry_poles():
    # the determinant is 1, but the entries have a pole at mu = 1
    inv = ONE / (MU - 1)
    g = InvariantMetric.diagonal(Frame(("a", "b", "c", "d", "e")),
                                 (inv, MU - 1, -inv, 1 - MU, 1))
    assert g.determinant() == ONE
    assert signature_at_sample(g) == (3, 2, 0)


def test_associated_metric_values(lm):
    s = lm.structure
    gt = associated_metric(s)
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
    # the twin pairing is nondegenerate with split signature plus the unit
    assert signature_at_sample(gt) == (3, 2, 0)


def test_associated_compat_entry(lm):
    entry = associated_compat_entry(lm.structure)
    assert entry.status == "pass"
    assert entry.name == "associated-metric-twist"


def test_fundamental_tensor_vanishes(lm, ambient_conn):
    assert fundamental_tensor(lm.structure, ambient_conn).is_zero()
    assert is_f0(lm.structure, ambient_conn)


def test_twin_connection_coincides(lm, ambient_conn):
    gt = associated_metric(lm.structure)
    twin_conn = levi_civita(lm.algebra, gt)
    dim = lm.frame.dimension
    for i in range(dim):
        for j in range(dim):
            assert (twin_conn.gamma.cell(i, j)
                    - ambient_conn.gamma.cell(i, j)).is_zero()


def test_non_parallel_phi_is_not_f0(lm, ambient_conn):
    s = lm.structure
    frame = s.frame
    cols = list(s.phi.cell(j) for j in range(frame.dimension))
    cols[frame.index("X2")] = cols[frame.index("X2")].scale(2)
    bad = ACBMStructure(frame, operator(frame, cols),
                        s.xi_bar, s.eta_bar, s.metric)
    f = fundamental_tensor(bad, ambient_conn)
    assert not is_f0(bad, ambient_conn)
    x1, x2 = frame.index("X1"), frame.index("X2")
    assert f.entry(x2, x2, x1) == rf(2)


def test_pi_tensor_values(lm):
    p1, p2, p3 = pi_tensors(lm.structure)
    frame = lm.frame
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
    """At invariants the worked model does not have, the closed form
    equals nu (pi_1 o phi - pi_2) + nu~ (pi_3 o phi) from the reference
    tensors, so every curvature product carries its own sign."""
    geo = geometry if build is None else Geometry(build())
    s, r4 = geo.structure, geo.r4
    p1, p2, p3 = pi_tensors(s)
    nu_part = p1.pull_all(s.phi) - p2
    nu_tilde_part = p3.pull_all(s.phi)
    for nu, nu_tilde in ((3, "5/7"), (0, 1), (MU, "-1/2")):
        pair = CurvaturePair(rf(nu), rf(nu_tilde))
        expected = nu_part.scale(pair.nu) + nu_tilde_part.scale(pair.nu_tilde)
        assert constant_curvature_form(s, pair) == expected


def test_fit_curvature_pair_and_closed_form(lm, ambient_r4, pair):
    assert pair.nu == rf(4)
    assert pair.nu_tilde == ZERO
    assert constant_curvature_form(lm.structure, pair) == ambient_r4
    entry = constant_curvature_residual(lm.structure, ambient_r4, pair)
    assert (entry.name, entry.status) == ("constant-curvature-form", "pass")


def test_closed_form_rejects_wrong_curvature(lm, ambient_r4, pair):
    entry = constant_curvature_residual(lm.structure, ambient_r4.scale(2), pair)
    assert entry.status == "fail"
    # the residual 2 R - R is R, nonzero at R(X1, X2, X1, X2) = -4 first
    assert entry.detail.endswith(
        "basic curvature tensors; the residual at (X1, X2, X1, X2) is -4, "
        "32 of 625 components nonzero")


def test_no_totally_real_section():
    frame = Frame(("e1", "e2", "e3"))
    phi = operator(frame, (
        Vector.from_map(frame, {"e2": 1}),
        Vector.from_map(frame, {"e1": -1}),
        Vector.zero(frame)))
    s = ACBMStructure(frame, phi, Vector.from_map(frame, {"e3": 1}),
                      MultilinearForm(frame, 1, (ZERO, ZERO, ONE)),
                      InvariantMetric.diagonal(frame, (1, -1, 1)))
    alg = LieAlgebra.abelian(frame)
    r4 = curvature(levi_civita(alg, s.metric), alg).lower(s.metric)
    with pytest.raises(NoTotallyRealSection):
        fit_curvature_pair(s, r4)
