"""Property tests: random Lie models, adapted frame changes, parameter
specializations, and graceful suite degradation on broken inputs."""

import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsthl.builtin import example_model
from rsthl.liegeom import (InvariantMetric, LieAlgebra, curvature,
                           curvature_entries, koszul_entries, levi_civita,
                           validate_lie_algebra)
from rsthl.model import SubmanifoldData, dumps_model, model_from_json_obj
from rsthl.report import CheckReport
from rsthl.scalars import ZERO, rf
from rsthl.suite import run_suite
from rsthl.tensors import Frame, MultilinearForm, Vector

DATA = Path(__file__).parent / "data"

small_rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
nonzero_rationals = small_rationals.filter(lambda f: f != 0)


def diagonal_metric(frame, diag):
    return InvariantMetric(MultilinearForm.from_function(
        frame, 2, lambda a, b: rf(diag[a]) if a == b else ZERO))


def assert_koszul_clean(alg, metric):
    conn = levi_civita(alg, metric)
    curv = curvature(conn, alg)
    entries = (koszul_entries(conn, alg, metric)
               + curvature_entries(curv, curv.lower(metric)))
    assert all(e.status == "pass" for e in entries)


@given(dim=st.integers(2, 5), diag=st.lists(nonzero_rationals, min_size=5,
                                            max_size=5))
@settings(max_examples=30, deadline=None)
def test_abelian_family_is_flat(dim, diag):
    frame = Frame(tuple(f"e{i}" for i in range(1, dim + 1)))
    alg = LieAlgebra.abelian(frame)
    metric = diagonal_metric(frame, diag[:dim])
    conn = levi_civita(alg, metric)
    for i in range(dim):
        for j in range(dim):
            assert conn.gamma.cell(i, j).is_zero()
    assert_koszul_clean(alg, metric)


@given(c=nonzero_rationals, diag=st.tuples(nonzero_rationals,
                                           nonzero_rationals,
                                           nonzero_rationals))
@settings(max_examples=50, deadline=None)
def test_heisenberg_family_koszul(c, diag):
    frame = Frame(("e1", "e2", "e3"))
    alg = LieAlgebra.from_table(frame, {("e1", "e2"): {"e3": rf(c)}})
    assert validate_lie_algebra(alg).status == "pass"
    assert_koszul_clean(alg, diagonal_metric(frame, diag))


@given(weights=st.tuples(nonzero_rationals, nonzero_rationals,
                         nonzero_rationals),
       diag=st.tuples(nonzero_rationals, nonzero_rationals,
                      nonzero_rationals, nonzero_rationals))
@settings(max_examples=50, deadline=None)
def test_solvable_family_koszul(weights, diag):
    # ad(e4) diagonal on an abelian ideal; Jacobi holds automatically
    frame = Frame(("e1", "e2", "e3", "e4"))
    table = {("e4", f"e{i + 1}"): {f"e{i + 1}": rf(w)}
             for i, w in enumerate(weights)}
    alg = LieAlgebra.from_table(frame, table)
    assert validate_lie_algebra(alg).status == "pass"
    assert_koszul_clean(alg, diagonal_metric(frame, diag))


def golden(name):
    """A stored ``run_suite(model, "all").to_json()`` report."""
    return (DATA / f"{name}.json").read_text(encoding="utf-8")


def test_suite_green_across_specializations():
    for value in (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(-3),
                  Fraction(7, 5)):
        rep = run_suite(example_model(value))
        assert rep.ok, f"mu = {value}"
        assert rep.counts == {"pass": 114, "fail": 0, "skipped": 0}
        if value == Fraction(7, 5):
            assert rep.to_json() == golden("example47_mu_7_5")


@given(p=st.integers(-2, 2), q=st.integers(-2, 2), r=st.integers(-2, 2),
       s=st.integers(-2, 2), c=nonzero_rationals, t=nonzero_rationals)
@settings(max_examples=5, deadline=None)
def test_suite_green_under_adapted_frame_changes(p, q, r, s, c, t):
    """Screen basis changes, radical rescaling and bracket rescaling leave
    every identity residual at zero."""
    assume(p * s - q * r != 0)
    m = example_model()
    scaled = LieAlgebra(m.frame, m.algebra.brackets.scale(rf(t)))
    screen = (Vector.from_map(m.frame, {"X2": rf(p), "X4": rf(r)}),
              Vector.from_map(m.frame, {"X2": rf(q), "X4": rf(s)}))
    sub = SubmanifoldData(("E1", "E2"), screen,
                          m.submanifold.rad.scale(rf(c)),
                          m.submanifold.l_vec, None)
    changed = dataclasses.replace(m, algebra=scaled, submanifold=sub)
    rep = run_suite(changed)
    assert rep.ok
    assert rep.counts == {"pass": 114, "fail": 0, "skipped": 0}


def edited_example(edit):
    """The built-in model after an edit of its JSON description."""
    obj = json.loads(dumps_model(example_model()))
    edit(obj)
    return model_from_json_obj(obj)


def screen_radical_mixing():
    # moving the screen off the structure plane changes ltr(TM), so the
    # distinguished vector field no longer lies in Rad + ltr
    m = example_model()
    screen = (m.submanifold.screen[0] + m.submanifold.rad,
              m.submanifold.screen[1])
    sub = SubmanifoldData(("E1", "E2"), screen, m.submanifold.rad,
                          m.submanifold.l_vec, None)
    return dataclasses.replace(m, submanifold=sub)


def degenerate_metric():
    return edited_example(lambda obj: obj["metric"].update({"E,E": 0}))


def doubled_reeb_norm():
    # g(E, E) = 2 breaks three structure axioms by a residual each: a
    # table, a one-form and a scalar
    return edited_example(lambda obj: obj["metric"].update({"E,E": 2}))


def jacobi_violation():
    return edited_example(lambda obj: obj.update(
        brackets={"X1,X2": {"X3": 1}, "X1,X3": {"X1": 1}}))


def zero_brackets():
    return edited_example(lambda obj: obj.update(brackets={}))


def no_submanifold():
    return edited_example(lambda obj: obj.pop("submanifold"))


def reeb_sheared():
    """The built-in model in the frame e'_a = e_a + E, e'_E = E.

    Every frame vector meets the Reeb direction, so no frame pair spans a
    section orthogonal to it and the sectional fit fails.
    """
    m = example_model()
    basis = [m.frame.basis_vector(i) for i in range(m.frame.dimension)]
    new = [b + basis[-1] for b in basis[:-1]] + [basis[-1]]

    def coords(v):
        """Old components to components in the sheared frame."""
        c = v.components
        return Vector(m.frame, c[:-1] + (c[-1] - sum(c[:-1], ZERO),))

    sub = m.submanifold
    return dataclasses.replace(
        m,
        algebra=LieAlgebra(m.frame, MultilinearForm.from_cells(
            m.frame, 3,
            lambda i, j: coords(m.algebra.brackets.apply(new[i], new[j])))),
        metric_form=MultilinearForm.from_function(
            m.frame, 2, lambda i, j: m.metric_form.value(new[i], new[j])),
        phi=MultilinearForm.from_cells(
            m.frame, 2, lambda j: coords(m.phi.apply(new[j]))),
        xi_bar=coords(m.xi_bar),
        eta_bar=MultilinearForm.from_function(
            m.frame, 1, lambda i: m.eta_bar.value(new[i])),
        submanifold=SubmanifoldData(
            sub.screen_labels, tuple(coords(v) for v in sub.screen),
            coords(sub.rad), coords(sub.l_vec), None))


POLE_METRIC = {"X1,X1": "1/(mu - 1)", "X2,X2": "mu - 1",
               "X3,X3": "-1/(mu - 1)", "X4,X4": "1 - mu", "E,E": 1}


def test_signature_checks_avoid_metric_poles():
    """The metric's determinant is 1, so it vanishes nowhere, but its
    entries have a pole at mu = 1; the signature is sampled elsewhere."""
    def ambient_statuses(metric):
        m = edited_example(lambda obj: obj.update(metric=metric))
        return [(e.name, e.status) for e in run_suite(m, "ambient").entries]

    at_two = {key: str(rf(value).eval_at(2)) for key, value in POLE_METRIC.items()}
    statuses = ambient_statuses(POLE_METRIC)
    assert statuses == ambient_statuses(at_two)
    assert len(statuses) == 22
    assert all(status == "pass" for _, status in statuses)


def test_twin_signature_avoids_screen_poles():
    """A screen basis whose twin Gram entries have a pole at mu = 1, while
    their determinant is -1."""
    m = edited_example(lambda obj: obj["submanifold"].update(screen={
        "E1": {"X2": "1/(mu - 1)", "X4": 1}, "E2": {"X4": "mu - 1"}}))
    rep = run_suite(m)
    assert rep.counts == {"pass": 114, "fail": 0, "skipped": 0}
    by_name = {e.name: e for e in rep.entries}
    assert by_name["twin-screen-signature"].detail == \
        "screen signature at mu = 2 is (1, 1)"


def test_screen_radical_mixing_breaks_ascreen():
    rep = run_suite(screen_radical_mixing())
    assert not rep.ok
    failures = [e for e in rep.entries if e.status == "fail"]
    assert [e.name for e in failures] == ["ascreen-certification"]
    assert "leaves the plane" in failures[0].detail


def test_degenerate_metric_fails_cleanly():
    rep = run_suite(degenerate_metric())
    assert not rep.ok
    assert rep.counts == {"pass": 1, "fail": 1, "skipped": 42}
    failed = [e for e in rep.entries if e.status == "fail"]
    assert failed[0].name == "invariant-metric"
    assert "zero determinant" in failed[0].detail
    skipped = [e for e in rep.entries if e.status == "skipped"]
    assert all(e.detail == "blocked by invariant-metric (fail)" for e in skipped)


def test_jacobi_violation_blocks_suite():
    rep = run_suite(jacobi_violation())
    assert not rep.ok
    assert rep.counts == {"pass": 0, "fail": 1, "skipped": 43}
    assert rep.entries[0].name == "lie-algebra"
    assert rep.entries[0].detail == "Jacobi fails at (X1, X2, X3)"


def test_totally_geodesic_suite_counts():
    # zero brackets: both fundamental forms vanish, the correspondence and
    # flatness statements take their non-vacuous branches, and the theorem
    # stage skips because the sectional invariant vanishes
    rep = run_suite(zero_brackets())
    assert rep.ok
    assert rep.counts == {"pass": 108, "fail": 0, "skipped": 6}
    skipped = [e for e in rep.entries if e.status == "skipped"]
    assert all("the sectional invariant nu vanishes" in e.detail
               for e in skipped)
    by_name = {e.name: e for e in rep.entries}
    assert by_name["umbilicity"].detail == \
        "totally geodesic; screen totally geodesic"
    assert by_name["umbilical-flatness"].detail == \
        "a totally umbilical submanifold and its ambient space are flat"
    assert by_name["umbilical-curvature-transfer"].detail == \
        "a totally umbilical metric forces R = R~ and Ric = Ric~"


def test_suite_output_is_deterministic(model):
    first = run_suite(model).to_json()
    assert first == run_suite(model).to_json()
    assert first == golden("example47")


@pytest.mark.parametrize("build", [
    degenerate_metric, jacobi_violation, screen_radical_mixing, zero_brackets,
    no_submanifold, reeb_sheared, doubled_reeb_norm],
    ids=lambda build: build.__name__)
def test_suites_slice_the_full_report(build):
    """Each suite reports a slice of ``all``, details included, also when
    a stage stops early, although it builds only what it reports."""
    m = build()
    full_report = run_suite(m, "all")
    assert full_report.to_json() == golden(build.__name__)
    full = full_report.entries

    def sliced(entries):
        return CheckReport(list(entries)).to_json()

    ambient = run_suite(m, "ambient")
    assert ambient.to_json() == sliced(full[:len(ambient.entries)])
    assert run_suite(m, "submanifold").to_json() == sliced(full[:-6])
    assert run_suite(m, "theorem46").to_json() == sliced(full[-6:])
