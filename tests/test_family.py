"""The worked model as a family in its dimension and in its weights.

``family(weights)`` realifies [Z1, Zk] = c_k Zk, k = 2, ..., n, with
c_k = weights[k - 2], times a central line E.  The labels are X1..X4, then
X5, X6, ... and E last.  The J-pairs are (X1, X3) and the pairs (A, B) =
(X2, X4), (X5, X6), ..., with J A = B and J X1 = X3.  The pair of weight c
has

    [X1, A] = -c B,  [X1, B] = c A,  [A, X3] = -c A,  [X3, B] = c B.

The metric is +1 on X1, each A and E, and -1 on X3 and each B; phi = J
extended by zero, xi-bar = E and eta-bar = E*.  The submanifold has
L = X1, xi = mu (E - X3), and the screen E1, E2, ... is every A and B in
order.  The ambient dimension is 2n + 1, and family([2]) is the worked
model.  Every n-dependent closed form is decided here at n = 3, where
its coefficient differs from the one at n = 2.
"""

import json

import pytest

from rsthl.associated import semisym_24_entry, tilde_ricci_22_entries
from rsthl.builtin import example_model
from rsthl.cli import main
from rsthl.lightlike import ricci_form_20_entry, semisym_23_entry
from rsthl.model import dumps_model, model_from_json_obj, save_model
from rsthl.report import FAIL, PASS, SKIP
from rsthl.suite import Geometry, run_suite


def family(weights):
    """The model file of the family with the given pair weights."""
    pairs = [("X2", "X4")] + [(f"X{k}", f"X{k + 1}")
                              for k in range(5, 2 * len(weights) + 3, 2)]
    brackets, metric = {}, {"X1,X1": 1, "X3,X3": -1, "E,E": 1}
    phi = {"X1": {"X3": 1}, "X3": {"X1": -1}}
    for c, (a, b) in zip(weights, pairs):
        brackets.update({f"X1,{a}": {b: -c}, f"X1,{b}": {a: c},
                         f"{a},X3": {a: -c}, f"X3,{b}": {b: c}})
        metric.update({f"{a},{a}": 1, f"{b},{b}": -1})
        phi.update({a: {b: 1}, b: {a: -1}})
    screen = [label for pair in pairs for label in pair]
    return model_from_json_obj({
        "frame": {"labels": ["X1", "X2", "X3", "X4", *screen[2:], "E"]},
        "parameters": ["mu"],
        "brackets": brackets,
        "metric": metric,
        "structure": {"phi": phi, "xi": {"E": 1}, "eta": {"E": 1}},
        "submanifold": {
            "screen": {f"E{i}": {label: 1} for i, label in enumerate(screen, 1)},
            "xi": {"X3": "-mu", "E": "mu"},
            "L": {"X1": 1},
        },
    })


@pytest.fixture(scope="module")
def geometry3():
    """The geometry of the family at n = 3, with equal weights 2."""
    return Geometry(family([2, 2]))


def entries_named(rep):
    return {e.name: e for e in rep.entries}


def test_one_weight_gives_the_worked_model():
    assert family([2]) == example_model()
    assert dumps_model(family([2])) == dumps_model(example_model())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_equal_weights_pass_with_the_constants_of_their_dimension(n):
    """nu = c^2 = 4 and nu~ = 0 at every n; the eta-Einstein constants are
    ((n - 1) nu, -2(n - 1) nu) and the Einstein constant -2(n - 1) nu."""
    model = family([2] * (n - 1))
    assert model.frame.dimension == 2 * n + 1
    rep = run_suite(model)
    assert rep.counts == {PASS: 114, FAIL: 0, SKIP: 0}
    named = entries_named(rep)
    nu = 4
    assert named["sectional-fit"].detail == f"nu = {nu}, nu_tilde = 0"
    assert named["eta-einstein-solve"].detail == (
        f"Ric = ({(n - 1) * nu}) g + ({-2 * (n - 1) * nu}) eta x eta")
    assert named["einstein-solve"].detail == f"Ric~ = ({-2 * (n - 1) * nu}) g~"


def test_n3_geometry_reads_its_dimension(geometry3):
    assert geometry3.structure.n == 3
    assert (str(geometry3.pair.nu), str(geometry3.pair.nu_tilde)) == ("4", "0")


def test_eq20_coefficients_at_n2_fail_on_the_n3_geometry(geometry3):
    geo = geometry3
    args = (geo.frame, geo.curv_ind.ricci, geo.pair, geo.gamma, geo.mu)
    assert ricci_form_20_entry(*args, n=3).status == PASS
    wrong = ricci_form_20_entry(*args, n=2)
    assert wrong.status == FAIL
    assert wrong.detail.endswith(
        "; the residual at (E1, E1) is 4, 5 of 25 components nonzero")


def test_eq22_coefficients_at_n2_fail_on_the_n3_geometry(geometry3):
    geo = geometry3
    args = (geo.frame, geo.tcurv.ricci, geo.pair, geo.gamma, geo.mu)
    assert [e.status for e in tilde_ricci_22_entries(*args, n=3)] == [PASS, PASS]
    wrong = tilde_ricci_22_entries(*args, n=2)
    assert [e.status for e in wrong] == [FAIL, FAIL]
    for e in wrong:
        assert e.detail.endswith(
            "; the residual at (E1, E2) is 8, 5 of 25 components nonzero")


@pytest.mark.parametrize("n", [2, 3])
def test_eq23_and_eq24_cannot_see_n(geometry3, n):
    """Their n-dependent factors multiply nu - 4 mu^2 gamma^2, which eq-18
    forces to zero on invariant data (tau = 0), so both closed forms pass
    with either n: no invariant model sees a wrong n-coefficient there."""
    geo = geometry3
    assert semisym_23_entry(geo.frame, geo.curv_ind, geo.pair, geo.gamma, geo.mu,
                            n).status == PASS
    assert semisym_24_entry(geo.frame, geo.tcurv, geo.pair, geo.gamma, geo.mu,
                            n).status == PASS


def test_unequal_weights_fail_the_fits_through_a_model_file(tmp_path, capsys):
    """Weights (2, 3) keep F = 0, but the curvature is no combination of the
    basic tensors and the screen is not umbilical."""
    path, report = tmp_path / "weights_2_3.json", tmp_path / "report.json"
    save_model(family([2, 3]), str(path))
    assert main(["check", str(path), "--report", str(report)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "verdict: fail (91 passed, 3 failed, 20 skipped)"
    entries = json.loads(report.read_text(encoding="utf-8"))["entries"]
    assert [e["name"] for e in entries if e["status"] == FAIL] == [
        "sectional-fit", "eta-einstein-solve", "einstein-solve"]
    reasons = [e["detail"] for e in entries if e["status"] == SKIP]
    assert reasons.count("the ambient sectional invariants are unavailable") == 18
    assert reasons.count("the screen distribution is not totally umbilical") == 2
    assert len(reasons) == 20
