"""The closed-form curvature identities against entry-by-entry references.

On the worked model nu~ = 0 and tau = 0, and the coefficients
4 mu^2 gamma^2 - nu, nu/2 - 2 mu^2 gamma^2 and nu - 4 mu^2 gamma^2 all
vanish, so the suites cannot tell a wrong term of eq-13, 15, 19, 21, 23
or 24 from a right one.  Here each closed form is written out cell by
cell, or entry by entry, as the catalog states it, and evaluated at the
invariants (nu, nu~, gamma) = (3, 5/7, 2/3) with mu symbolic.  The
entries under test must accept a curvature equal to that reference, and
the semisymmetry forms must equal theirs.  Eq-13 and eq-15 are also
checked on induced objects whose tau, B and A_N are bumped to values the
worked model does not have.
"""

from fractions import Fraction

import pytest

from rsthl.associated import (semisym_closed_24, tilde_form_21_entry,
                              tilde_relation_13_entry, tilde_ricci_22_entries)
from rsthl.liegeom import CurvatureTensor
from rsthl.lightlike import (curvature_form_15_entry, curvature_form_19_entry,
                             ricci_form_20_entry, semisym_closed_23)
from rsthl.report import FAIL, PASS
from rsthl.scalars import ONE, rf
from rsthl.structure import CurvaturePair
from rsthl.tensors import MultilinearForm

from conftest import replaced

PAIR = CurvaturePair(rf(3), rf("5/7"))
GAMMA = rf("2/3")
HALF = rf("1/2")


def generic_form(frame, arity, seed):
    """A deterministic table of small rationals, none of them zero."""
    return MultilinearForm.from_function(
        frame, arity, lambda *idx: rf(Fraction(
            (seed + 5 * sum((k + 2) * i for k, i in enumerate(idx))) % 7 + 1,
            len(idx) + seed % 3)))


@pytest.fixture(scope="module")
def bumped(induced):
    """The worked model's induced objects with tau, B and A_N moved."""
    tf = induced.b_form.frame
    return replaced(
        induced,
        tau=generic_form(tf, 1, 1),
        b_form=induced.b_form + generic_form(tf, 2, 2),
        shape_n=induced.shape_n + generic_form(tf, 2, 3))


def curvature_table(f, cell):
    return CurvatureTensor(MultilinearForm.from_cells(f.tangent_frame, 4, cell))


def eq13_reference(f, obj, mu, curv):
    xi_t = f.radical_tangent()
    b_phi, cd_b, cd_b_phi = obj.b_phi, obj.cd_b, obj.cd_b_phi
    inv_mu2 = ONE / (mu * mu)
    tau = obj.tau.entries

    def cell(a, b, c):
        rhs = curv.table.cell(a, b, c)
        rhs = rhs + obj.shape_n.cell(a).scale(
            obj.b_form.entry(b, c) + b_phi.entry(b, c) * 2)
        rhs = rhs - obj.shape_n.cell(b).scale(
            obj.b_form.entry(a, c) + b_phi.entry(a, c) * 2)
        coeff = HALF * (cd_b.entry(a, b, c) - cd_b.entry(b, a, c)
                        + tau[a] * obj.b_form.entry(b, c)
                        - tau[b] * obj.b_form.entry(a, c))
        coeff = coeff + (tau[a] * b_phi.entry(b, c)
                         - tau[b] * b_phi.entry(a, c)
                         + cd_b_phi.entry(a, b, c)
                         - cd_b_phi.entry(b, a, c))
        return rhs + xi_t.scale(inv_mu2 * coeff)
    return curvature_table(f, cell)


def eq15_reference(f, obj, pair):
    g, gp, gpp = f.induced_form, f.phi_pairing, f.phi_phi_pairing
    phi_p, proj, xi_t = f.phi_p, f.projector, f.radical_tangent()
    nu, nut = pair.nu, pair.nu_tilde
    b_phi = obj.b_phi
    phi_an = phi_p.pull_slots(obj.shape_n, (0,))

    def cell(a, b, c):
        rhs = obj.shape_n.cell(b).scale(-obj.b_form.entry(a, c))
        rhs = rhs + phi_an.cell(b).scale(b_phi.entry(a, c) * 2)
        rhs = rhs + obj.shape_n.cell(a).scale(obj.b_form.entry(b, c))
        rhs = rhs - phi_an.cell(a).scale(b_phi.entry(b, c) * 2)
        rhs = rhs - proj.cell(a).scale(
            nu * gpp.entry(b, c) + nut * gp.entry(b, c))
        rhs = rhs + proj.cell(b).scale(
            nu * gpp.entry(a, c) + nut * gp.entry(a, c))
        rhs = rhs - phi_p.cell(a).scale(
            nu * gp.entry(b, c) - nut * gpp.entry(b, c))
        rhs = rhs + phi_p.cell(b).scale(
            nu * gp.entry(a, c) - nut * gpp.entry(a, c))
        coeff = (nu * (g.entry(b, c) * f.eta.entries[a]
                       - g.entry(a, c) * f.eta.entries[b])
                 - nut * (gp.entry(b, c) * f.eta.entries[a]
                          - gp.entry(a, c) * f.eta.entries[b]))
        return rhs + xi_t.scale(HALF * coeff)
    return curvature_table(f, cell)


def eq19_reference(f, pair, gamma, mu):
    g, gp = f.induced_form, f.phi_pairing
    phi_p, proj, xi_t = f.phi_p, f.projector, f.radical_tangent()
    nu = pair.nu
    mg2 = mu * mu * gamma * gamma
    coeff_a = nu - mg2 * 2
    coeff_b = mg2 * 4 - nu
    eb = f.eta_bar.entries

    def cell(a, b, c):
        rhs = proj.cell(a).scale(coeff_a * g.entry(b, c) - nu * eb[b] * eb[c])
        rhs = rhs - proj.cell(b).scale(
            coeff_a * g.entry(a, c) - nu * eb[a] * eb[c])
        rhs = rhs + phi_p.cell(a).scale(coeff_b * gp.entry(b, c))
        rhs = rhs - phi_p.cell(b).scale(coeff_b * gp.entry(a, c))
        return rhs + xi_t.scale(
            HALF * nu * (g.entry(b, c) * f.eta.entries[a]
                         - g.entry(a, c) * f.eta.entries[b]))
    return curvature_table(f, cell)


def eq21_reference(f, pair, gamma, mu):
    g, gp = f.induced_form, f.phi_pairing
    phi_p, proj, xi_t = f.phi_p, f.projector, f.radical_tangent()
    nu = pair.nu
    mg2 = mu * mu * gamma * gamma
    coeff = nu - mg2 * 4
    eb = f.eta_bar.entries

    def cell(a, b, c):
        rhs = proj.cell(a).scale(
            coeff * g.entry(b, c) - mg2 * 4 * gp.entry(b, c)
            - nu * eb[b] * eb[c])
        rhs = rhs - proj.cell(b).scale(
            coeff * g.entry(a, c) - mg2 * 4 * gp.entry(a, c)
            - nu * eb[a] * eb[c])
        rhs = rhs - phi_p.cell(a).scale(coeff * gp.entry(b, c))
        rhs = rhs + phi_p.cell(b).scale(coeff * gp.entry(a, c))
        return rhs + xi_t.scale(
            nu * (gp.entry(a, c) * f.eta.entries[b]
                  - gp.entry(b, c) * f.eta.entries[a]))
    return curvature_table(f, cell)


def eq23_reference(f, pair, gamma, mu, n):
    g = f.induced_form
    nu = pair.nu
    mg2 = mu * mu * gamma * gamma
    factor = nu * (nu * HALF - mg2 * 2) * (2 * n - 5)
    eb = f.eta_bar.entries

    def entry(a, b, c, d):
        return factor * (g.entry(a, d) * eb[b] * eb[c]
                         - g.entry(b, d) * eb[a] * eb[c]
                         + g.entry(a, c) * eb[b] * eb[d]
                         - g.entry(b, c) * eb[a] * eb[d])
    return MultilinearForm.from_function(f.tangent_frame, 4, entry)


def eq24_reference(f, pair, gamma, mu, n):
    g, gp = f.induced_form, f.phi_pairing
    nu = pair.nu
    mg2 = mu * mu * gamma * gamma
    gap = nu - mg2 * 4
    factor1 = nu * gap * (2 * n - 3)
    factor2 = gap * (2 * (n - 2))
    eb = f.eta_bar.entries

    def entry(a, b, c, d):
        term1 = (gp.entry(a, d) * eb[b] * eb[c]
                 - gp.entry(b, d) * eb[a] * eb[c]
                 + gp.entry(a, c) * eb[b] * eb[d]
                 - gp.entry(b, c) * eb[a] * eb[d])
        inner = mg2 * 4 * (gp.entry(a, c) * g.entry(b, d)
                           - gp.entry(b, c) * g.entry(a, d)
                           + gp.entry(a, d) * g.entry(b, c)
                           - gp.entry(b, d) * g.entry(a, c))
        inner = inner + nu * (g.entry(b, c) * eb[a] * eb[d]
                              - g.entry(a, c) * eb[b] * eb[d]
                              + g.entry(b, d) * eb[a] * eb[c]
                              - g.entry(a, d) * eb[b] * eb[c])
        return factor1 * term1 - factor2 * inner
    return MultilinearForm.from_function(f.tangent_frame, 4, entry)


def ricci_reference(f, pair, gamma, mu, n, twin, last):
    """The eq-20 (twin False) or eq-22 (twin True) normal form with last
    coefficient `last` on eta-bar (x) eta-bar."""
    g, gp = f.induced_form, f.phi_pairing
    nu = pair.nu
    mg2 = mu * mu * gamma * gamma
    if twin:
        k, k_phi = (nu - mg2 * 4) * (2 * (n - 2)), -(nu + mg2 * (4 * (2 * n - 3)))
    else:
        k, k_phi = nu * rf(f"{4 * n - 7}/2") - mg2 * (2 * (2 * n - 5)), rf(0)
    eb = f.eta_bar.entries
    return MultilinearForm.from_function(
        f.tangent_frame, 2,
        lambda a, b: (k * g.entry(a, b) + k_phi * gp.entry(a, b)
                      + last * eb[a] * eb[b]))


def test_bumped_objects_are_generic(induced, bumped):
    assert not bumped.tau.is_zero()
    assert not (bumped.b_form - induced.b_form).is_zero()
    assert bumped.b_form != bumped.b_form.permute((1, 0))


@pytest.mark.parametrize("which", ["worked", "bumped"])
def test_eq13_matches_reference(which, frame, induced, bumped, mu, icurv):
    obj = induced if which == "worked" else bumped
    expected = eq13_reference(frame, obj, mu, icurv)
    assert tilde_relation_13_entry(frame, obj, mu, icurv, expected).status == PASS


@pytest.mark.parametrize("which", ["worked", "bumped"])
def test_eq15_matches_reference(which, frame, induced, bumped):
    obj = induced if which == "worked" else bumped
    expected = eq15_reference(frame, obj, PAIR)
    assert curvature_form_15_entry(frame, obj, expected, PAIR).status == PASS


def test_eq19_matches_reference(frame, mu):
    expected = eq19_reference(frame, PAIR, GAMMA, mu)
    assert curvature_form_19_entry(frame, expected, PAIR, GAMMA, mu).status == PASS


def test_eq21_matches_reference(frame, mu):
    expected = eq21_reference(frame, PAIR, GAMMA, mu)
    assert tilde_form_21_entry(frame, expected, PAIR, GAMMA, mu).status == PASS


@pytest.mark.parametrize("n", [2, 3])
def test_eq23_matches_reference(n, frame, mu):
    assert semisym_closed_23(frame, PAIR, GAMMA, mu, n) == \
        eq23_reference(frame, PAIR, GAMMA, mu, n)


@pytest.mark.parametrize("n", [2, 3])
def test_eq24_matches_reference(n, frame, mu):
    assert semisym_closed_24(frame, PAIR, GAMMA, mu, n) == \
        eq24_reference(frame, PAIR, GAMMA, mu, n)


@pytest.mark.parametrize("n", [2, 3])
def test_ricci_forms_match_reference(n, frame, mu):
    last = -(PAIR.nu * (2 * (n - 1)))
    ric = ricci_reference(frame, PAIR, GAMMA, mu, n, False, last)
    assert ricci_form_20_entry(frame, ric, PAIR, GAMMA, mu, n).status == PASS
    adopted = ricci_reference(frame, PAIR, GAMMA, mu, n, True, last)
    assert [e.status for e in tilde_ricci_22_entries(
        frame, adopted, PAIR, GAMMA, mu, n)] == [PASS, PASS]
    literal = ricci_reference(frame, PAIR, GAMMA, mu, n, True, rf(-2 * (n - 1)))
    assert [e.status for e in tilde_ricci_22_entries(
        frame, literal, PAIR, GAMMA, mu, n)] == [FAIL, FAIL]


def test_twin_ricci_reading_details(frame, mu):
    """At nu = 1 the two readings of eq-22's last coefficient coincide; a
    Ricci tensor off both readings matches neither."""
    unit = CurvaturePair(ONE, rf(0))
    both = ricci_reference(frame, unit, GAMMA, mu, 2, True, rf(-2))
    assert [(e.status, e.detail) for e in tilde_ricci_22_entries(
        frame, both, unit, GAMMA, mu, 2)][1] == (
        PASS, "the direct twin Ricci tensor matches both readings of the last "
              "coefficient, they coincide because nu = 1")
    neither = ricci_reference(frame, PAIR, GAMMA, mu, 2, True, rf(1))
    entry = tilde_ricci_22_entries(frame, neither, PAIR, GAMMA, mu, 2)[1]
    assert entry.status == FAIL
    assert entry.detail.startswith(
        "the direct twin Ricci tensor matches neither reading; the residual")
