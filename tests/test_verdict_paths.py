"""Verdict paths that no catalogued model reaches.

The worked model fits the sectional invariants, has a screen umbilical
frame and solves both Einstein-type systems, so the suites alone never
take the branches where one of those fails.  Each case below reaches one
through a model file, a direct call, or a ``Geometry`` whose values are
replaced, and pins the statuses and details it reports.
"""

import json
from types import SimpleNamespace

import pytest

from rsthl import builtin, suite
from rsthl.builtin import factor_signature_entry
from rsthl.cli import main
from rsthl.lightlike import UmbilicityReport
from rsthl.report import FAIL, PASS, SKIP, CheckReport
from rsthl.suite import SUITES, run_suite
from rsthl.tensors import outer

from conftest import replaced
from test_residual_failures import bump_form

NO_PAIR = "the ambient sectional invariants are unavailable"
NO_GAMMA = "the screen distribution is not totally umbilical"

# the entries of the submanifold stage that read the sectional invariants,
# and those of them that also read the screen umbilicity factor
PAIR_READERS = ("curvature-from-shape-terms", "b-derivative-balance")
GAMMA_READERS = ("twisted-sectional-vanishes", "umbilic-factor-identity",
                 "umbilic-curvature-form", "umbilic-ricci-form",
                 "ricci-action-closed-form", "twin-umbilic-curvature-form",
                 "twin-umbilic-ricci-form", "twin-ricci-last-term",
                 "twin-ricci-action-closed-form")
THEOREM = ("assertion-ricci-semisymmetric", "assertion-twin-ricci-semisymmetric",
           "assertion-eta-einstein", "assertion-einstein",
           "assertion-scalar-identity", "assertion-equivalence")


def outcomes(rep):
    """name -> (status, detail) for every entry that did not pass."""
    return {e.name: (e.status, e.detail) for e in rep.entries if e.status != PASS}


def with_value(monkeypatch, **values):
    """Make every Geometry read the given values under the given names."""
    for name, value in values.items():
        monkeypatch.setattr(suite.Geometry, name, property(lambda self, v=value: v))


def test_even_dimension_fails_the_structure_axioms(tmp_path, capsys):
    """A four-dimensional frame carries no almost contact structure: the
    axioms step fails with the reason and blocks the rest of the ambient
    stage; the model declares no submanifold."""
    path = tmp_path / "even.json"
    path.write_text(json.dumps({
        "frame": {"labels": ["X1", "X2", "X3", "X4"]},
        "brackets": {},
        "metric": {"X1,X1": "1", "X2,X2": "1", "X3,X3": "-1", "X4,X4": "-1"},
        "structure": {
            "phi": {"X1": {"X3": "1"}, "X2": {"X4": "1"},
                    "X3": {"X1": "-1"}, "X4": {"X2": "-1"}},
            "xi": {"X1": "1"}, "eta": {"X1": "1"}},
    }), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "verdict: fail (4 passed, 1 failed, 15 skipped)"
    assert [line for line in lines if line.startswith("[FAIL]")] == [
        "[FAIL] structure-axioms                    sec-2-structure  "
        "(an almost contact structure needs odd dimension)"]
    assert sum("(blocked by structure-axioms (fail))" in line for line in lines) == 8


def full_report_sliced(model, suite_name):
    """The ``all`` report of model, once the suite has reported its slice
    of it, details included: the ambient entries, all but the theorem's
    six, or those six."""
    full = run_suite(model).entries
    got = run_suite(model, suite_name).entries
    want = {"ambient": full[:len(got)], "submanifold": full[:-6],
            "theorem46": full[-6:], "all": full}[suite_name]
    assert CheckReport(got).to_json() == CheckReport(want).to_json()
    return CheckReport(full)


def not_umbilical(geometry):
    """The worked umbilicity report with C moved off the screen umbilical
    class."""
    obj = replaced(geometry.induced, c_form=bump_form(geometry.induced.c_form, 0, 0))
    rep = UmbilicityReport(geometry.frame, obj)
    assert rep.gamma_screen is None
    return rep


@pytest.mark.parametrize("umbilical", [True, False], ids=["umbilical", "not-umbilical"])
@pytest.mark.parametrize("suite_name", SUITES)
def test_failed_sectional_fit_skips_what_reads_it(model, geometry, monkeypatch,
                                                  suite_name, umbilical):
    """Every reader of the sectional invariants skips naming them, also
    where the screen umbilicity factor is missing too: the pair is the
    first hypothesis of each closed form that reads both."""
    with_value(monkeypatch, sectional=(None, "no fit"))
    no_gamma = {}
    if not umbilical:
        with_value(monkeypatch, umbilicity=not_umbilical(geometry))
        no_gamma = {n: (SKIP, NO_GAMMA) for n in ("n-shape-umbilic", "b-umbilic-multiple")}
    assert outcomes(full_report_sliced(model, suite_name)) == {
        "sectional-fit": (FAIL, "no fit"),
        "constant-curvature-form": (SKIP, NO_PAIR),
        **no_gamma,
        **{n: (SKIP, NO_PAIR) for n in PAIR_READERS + GAMMA_READERS + THEOREM}}


@pytest.mark.parametrize("suite_name", SUITES)
def test_screen_that_is_not_umbilical_skips_what_reads_gamma(
        model, geometry, monkeypatch, suite_name):
    with_value(monkeypatch, umbilicity=not_umbilical(geometry))
    got = full_report_sliced(model, suite_name)
    assert outcomes(got) == {
        "n-shape-umbilic": (SKIP, NO_GAMMA), "b-umbilic-multiple": (SKIP, NO_GAMMA),
        **{n: (SKIP, NO_GAMMA) for n in GAMMA_READERS},
        **{n: (SKIP, NO_GAMMA + ", the theorem hypothesis fails") for n in THEOREM}}
    assert {e.name: e.detail for e in got.entries}["umbilicity"] == \
        "not totally umbilical; screen not umbilical"


@pytest.mark.parametrize("suite_name", ["all", "theorem46"])
def test_failed_einstein_solves_fail_their_assertions(model, monkeypatch, suite_name):
    with_value(monkeypatch, eta_einstein=(None, "no eta fit"),
               einstein=(None, "no lambda"))
    got = outcomes(run_suite(model, suite_name))
    theorem = {
        "assertion-eta-einstein":
            (FAIL, "(iii) the induced Ricci tensor admits no such decomposition"),
        "assertion-einstein":
            (FAIL, "(iv) the twin Ricci tensor is not proportional to the twin metric"),
        "assertion-equivalence":
            (FAIL, "all five assertions carry the same truth value: "
                   "true, true, false, false, true")}
    if suite_name == "all":
        theorem.update({"eta-einstein-solve": (FAIL, "no eta fit"),
                        "einstein-solve": (FAIL, "no lambda")})
    assert got == theorem


def test_fit_of_a_curvature_off_the_basis_is_inconsistent(model, geometry,
                                                          monkeypatch):
    with_value(monkeypatch, r4=bump_form(geometry.r4, 0, 1, 0, 1))
    assert suite.Geometry(model).sectional == (
        None, "the lowered curvature is no combination nu A + nu~ B of the "
        "basic curvature tensors")


def test_einstein_solves_over_a_dependent_basis_are_underdetermined(
        model, frame, tric, monkeypatch):
    """Both solves name the dependence; no certified frame reaches it, as
    the induced metric and eta-bar x eta-bar are independent there and the
    twin metric is nondegenerate.  Each solve reads a replaced target and
    a replaced, dependent basis."""
    eta = frame.eta_bar
    with_value(monkeypatch,
               frame=SimpleNamespace(induced_form=outer(eta, eta).scale(2), eta_bar=eta),
               curv_ind=SimpleNamespace(ricci=outer(eta, eta)),
               assoc=SimpleNamespace(metric=SimpleNamespace(form=tric.scale(0))),
               tcurv=SimpleNamespace(ricci=tric.scale(0)))
    geo = suite.Geometry(model)
    assert geo.eta_einstein == (None, "the metric and the squared dual form are "
                                "linearly dependent on this frame")
    assert geo.einstein == (None, "the twin metric vanishes on this frame")


def test_a_totally_umbilical_frame_names_its_factors(frame, induced, ureport):
    """B = 2g and D = 3g: proper totally umbilical, the screen factor kept."""
    g = frame.induced_form
    rep = UmbilicityReport(frame, replaced(induced, b_form=g.scale(2),
                                           d_form=g.scale(3)))
    assert rep.totally_umbilical and not rep.totally_geodesic
    assert rep.describe() == (
        "proper totally umbilical (beta = 2, delta = 3); "
        f"screen totally umbilical (gamma = {ureport.gamma_screen})")


def test_factor_signature_fails_when_both_sign_candidates_fit(monkeypatch):
    """The adjudication needs the second candidate to fail; with the
    fitting one given twice it fails and names both verdicts."""
    fitting = builtin.SIGN_CANDIDATES[0]
    monkeypatch.setattr(builtin, "SIGN_CANDIDATES", (fitting, fitting))
    factor_signature_entry.cache_clear()
    try:
        entry = factor_signature_entry()
    finally:
        factor_signature_entry.cache_clear()
    verdict = f"signs {fitting}: table=True, anti-compatibility=True"
    assert (entry.status, entry.detail) == (FAIL, f"{verdict}; {verdict}")
