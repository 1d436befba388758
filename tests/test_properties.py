"""Property tests: random Lie models, adapted frame changes, parameter
specializations, and graceful suite degradation on broken inputs."""

import json
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from rsthl.builtin import example_model
from rsthl.cli import main
from rsthl.lightlike import Splitting, gauss_weingarten
from rsthl.liegeom import (InvariantMetric, bracket_table, curvature,
                           curvature_entries, derivative, koszul_entries,
                           levi_civita, validate_lie_algebra)
from rsthl.model import SubmanifoldData, dumps_model, model_from_json_obj
from rsthl.report import CheckReport
from rsthl.scalars import ZERO, rf
from rsthl.suite import Geometry, run_suite
from rsthl.tensors import Frame, MultilinearForm, matrix_inverse, outer, solve

from conftest import replaced
from test_tensors import leibniz

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
    alg = bracket_table(frame, {})
    metric = diagonal_metric(frame, diag[:dim])
    conn = levi_civita(alg, metric)
    for i in range(dim):
        for j in range(dim):
            assert conn.cell(i, j).is_zero()
    assert_koszul_clean(alg, metric)


@given(c=nonzero_rationals, diag=st.tuples(nonzero_rationals,
                                           nonzero_rationals,
                                           nonzero_rationals))
@settings(max_examples=50, deadline=None)
def test_heisenberg_family_koszul(c, diag):
    frame = Frame(("e1", "e2", "e3"))
    alg = bracket_table(frame, {("e1", "e2"): {"e3": rf(c)}})
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
    alg = bracket_table(frame, table)
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


FRAME_CHANGES = dict(p=st.integers(-2, 2), q=st.integers(-2, 2),
                     r=st.integers(-2, 2), s=st.integers(-2, 2),
                     c=nonzero_rationals, t=nonzero_rationals)


def adapted_frame_change(p, q, r, s, c, t):
    """The built-in model with screen basis (p X2 + r X4, q X2 + s X4),
    the radical scaled by c and the brackets by t."""
    assume(p * s - q * r != 0)
    m = example_model()
    scaled = m.brackets.scale(rf(t))
    screen = (MultilinearForm.from_map(m.frame, {"X2": rf(p), "X4": rf(r)}),
              MultilinearForm.from_map(m.frame, {"X2": rf(q), "X4": rf(s)}))
    sub = SubmanifoldData(("E1", "E2"), screen,
                          m.submanifold.rad.scale(rf(c)),
                          m.submanifold.l_vec, None)
    return replaced(m, brackets=scaled, submanifold=sub)


# every example builds a whole geometry, so these tests do not shrink
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@given(**FRAME_CHANGES)
@settings(max_examples=5, deadline=None, phases=NO_SHRINK)
def test_suite_green_under_adapted_frame_changes(p, q, r, s, c, t):
    """Screen basis changes, radical rescaling and bracket rescaling leave
    every identity residual at zero."""
    rep = run_suite(adapted_frame_change(p, q, r, s, c, t))
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
    return replaced(m, submanifold=sub)


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


def transported(model, frame_matrix):
    """The model in the frame e'_a = sum_b frame_matrix[a][b] e_b.

    Brackets, metric, structure and submanifold vectors are transported
    exactly, so every identity the suite checks holds in the new frame.
    """
    frame = model.frame
    rows = [[rf(x) for x in row] for row in frame_matrix]
    new = [MultilinearForm(frame, 1, tuple(row)) for row in rows]
    # old components to new ones: the operator e_j -> row j of P^-1
    coords = MultilinearForm(frame, 2, tuple(
        x for row in matrix_inverse(rows) for x in row)).apply
    sub = model.submanifold
    return replaced(
        model,
        brackets=MultilinearForm.from_cells(
            frame, 3, lambda i, j: coords(model.brackets.apply(new[i], new[j]))),
        metric_form=MultilinearForm.from_function(
            frame, 2, lambda i, j: model.metric_form.value(new[i], new[j])),
        phi=MultilinearForm.from_cells(
            frame, 2, lambda j: coords(model.phi.apply(new[j]))),
        xi_bar=coords(model.xi_bar),
        eta_bar=MultilinearForm.from_function(
            frame, 1, lambda i: model.eta_bar.value(new[i])),
        submanifold=SubmanifoldData(
            sub.screen_labels, tuple(coords(v) for v in sub.screen),
            coords(sub.rad), coords(sub.l_vec), None))


def reeb_sheared():
    """The built-in model in the frame e'_a = e_a + E, e'_E = E.

    Every frame vector meets the Reeb direction, so no frame pair spans a
    section orthogonal to it; the sectional invariants do not depend on
    the frame, and the suite passes as on the built-in model.
    """
    return transported(example_model(), [[1, 0, 0, 0, 1],
                                         [0, 1, 0, 0, 1],
                                         [0, 0, 1, 0, 1],
                                         [0, 0, 0, 1, 1],
                                         [0, 0, 0, 0, 1]])


def dense_frame(seed):
    """A seeded invertible frame matrix with entries in [-2, 2]."""
    rng = random.Random(seed)
    while True:
        p = [[rf(rng.randint(-2, 2)) for _ in range(5)] for _ in range(5)]
        if not leibniz(p).is_zero():
            return p


def rebased_frame(seed):
    """A seeded frame e'_a = +-e_a +- E, e'_E = +-E: every frame vector
    meets the Reeb direction, as in the benchmark's rebased frames."""
    rng = random.Random(seed)
    rows = [[0] * 5 for _ in range(5)]
    for a in range(5):
        rows[a][a] = rng.choice((-1, 1))
        rows[a][4] = rows[a][4] or rng.choice((-1, 1))
    return rows


@pytest.mark.parametrize("build", [
    reeb_sheared, lambda: transported(example_model(), dense_frame(1))],
    ids=["reeb_sheared", "dense"])
def test_frame_change_keeps_every_verdict(build):
    """A change of frame preserves every identity, so the report has the
    entries and statuses of the built-in model's."""
    want = [(e["name"], e["status"])
            for e in json.loads(golden("example47"))["entries"]]
    assert [(e.name, e.status) for e in run_suite(build()).entries] == want


def twin_normals(geo):
    """N1 = xi_bar - L and N2 = 2 xi_bar - 2 mu N - L."""
    f, s = geo.frame, geo.structure
    return (s.xi_bar - f.l_vec,
            s.xi_bar.scale(rf(2)) - f.n_vec.scale(geo.mu * 2) - f.l_vec)


def assert_splits_reconstruct(geo):
    """Re-embedding the tangent part of a split and adding each transversal
    part times its transversal gives the ambient table back on tangent
    arguments.  Checked for the connection, bracket, structure and
    curvature tables, over (N, L) and over the twin normals
    N1 = xi_bar - L and N2 = 2 xi_bar - 2 mu N - L."""
    f = geo.frame
    twin_pair = twin_normals(geo)
    splittings = ((f.splitting, (f.n_vec, f.l_vec)),
                  (Splitting(f, twin_pair), twin_pair))
    m = f.tangent_frame.dimension
    for table in (geo.conn, geo.model.brackets, geo.model.phi,
                  geo.curv.table):
        want = [table.apply(*args)
                for args in product(f.tangent_vectors, repeat=table.arity - 1)]
        for splitting, pair in splittings:
            tangent, first, second = splitting.split(table)
            basis = f.tangent_vectors + pair
            for k, value in enumerate(want):
                coeffs = tangent.entries[k * m:(k + 1) * m] + (
                    first.entries[k], second.entries[k])
                rebuilt = MultilinearForm.zero(table.frame, 1)
                for c, v in zip(coeffs, basis):
                    if not c.is_zero():
                        rebuilt = rebuilt + v.scale(c)
                assert rebuilt == value, (table.arity, k)


def split_by_cells(transversals, f, table):
    """The reference split: each tangent tuple substituted vector by
    vector, each value solved over the adapted basis (tangent vectors,
    then the two transversals)."""
    m = f.tangent_frame.dimension
    basis = f.tangent_vectors + transversals
    a_rows = [[v.entry(i) for v in basis] for i in range(len(basis))]
    cells = [table]
    for _ in range(table.arity - 1):
        cells = [t.apply(v) for t in cells for v in f.tangent_vectors]
    rows = [solve(a_rows, cell.entries)[0] for cell in cells]
    tf = f.tangent_frame
    return (MultilinearForm(tf, table.arity, tuple(c for row in rows for c in row[:m])),
            *(MultilinearForm(tf, table.arity - 1, tuple(row[k] for row in rows))
              for k in (m, m + 1)))


def restrict_by_cells(f, form):
    """The reference restriction: the form's value on each tangent tuple."""
    return MultilinearForm(f.tangent_frame, form.arity, tuple(
        form.value(*args) for args in product(f.tangent_vectors, repeat=form.arity)))


@pytest.mark.parametrize("build", [
    example_model,
    *(lambda seed=seed: transported(example_model(), dense_frame(seed))
      for seed in (1, 2)),
    *(lambda seed=seed: transported(example_model(), rebased_frame(seed))
      for seed in (0, 1, 2)),
], ids=["builtin", "dense1", "dense2", "rebased0", "rebased1", "rebased2"])
def test_whole_table_split_and_restrict_match_the_cell_reading(build):
    """Splits of arity 2 to 4, over (N, L) and over the twin normals, and
    restrictions of arity 1 to 4."""
    geo = Geometry(build())
    f, s, g = geo.frame, geo.structure, geo.metric.form
    normals = twin_normals(geo)
    twin = Splitting(f, normals)
    for table in (geo.model.phi, derivative(geo.conn, f.n_vec),
                  geo.model.brackets, geo.conn, geo.curv.table):
        for splitting, pair in ((f.splitting, (f.n_vec, f.l_vec)), (twin, normals)):
            assert splitting.split(table) == split_by_cells(pair, f, table), \
                table.arity
    for form in (s.eta_bar, g, geo.conn.pull_slots(g, (2,)), geo.r4):
        assert f.restrict(form) == restrict_by_cells(f, form), form.arity


def test_split_reconstructs_ambient_tables(geometry):
    assert_splits_reconstruct(geometry)
    assert_splits_reconstruct(Geometry(reeb_sheared()))


@given(**FRAME_CHANGES)
@settings(max_examples=2, deadline=None, phases=NO_SHRINK)
def test_split_reconstructs_under_adapted_frame_changes(p, q, r, s, c, t):
    assert_splits_reconstruct(Geometry(adapted_frame_change(p, q, r, s, c, t)))


POLE_METRIC = {"X1,X1": "1/(mu - 1)", "X2,X2": "mu - 1",
               "X3,X3": "-1/(mu - 1)", "X4,X4": "1 - mu", "E,E": 1}


def test_signature_checks_avoid_metric_poles():
    """The metric's determinant is 1, so it vanishes nowhere, but its
    entries have a pole at mu = 1; every ambient entry passes."""
    m = edited_example(lambda obj: obj.update(metric=POLE_METRIC))
    statuses = [(e.name, e.status) for e in run_suite(m, "ambient").entries]
    assert len(statuses) == 22
    assert all(status == "pass" for _, status in statuses)


def test_twin_signature_avoids_screen_poles():
    """A screen basis whose twin Gram entries have a pole at mu = 1, while
    their determinant is -1; every entry passes."""
    m = edited_example(lambda obj: obj["submanifold"].update(screen={
        "E1": {"X2": "1/(mu - 1)", "X4": 1}, "E2": {"X4": "mu - 1"}}))
    rep = run_suite(m)
    assert rep.counts == {"pass": 114, "fail": 0, "skipped": 0}


def test_screen_radical_mixing_breaks_ascreen(tmp_path, capsys):
    """xi-bar leaves Rad + ltr: reeb-split fails with its residual, the
    other sec-2-ascreen conditions are decided beside it, and every later
    entry is skipped, naming it; ``rsthl check`` exits 1 without a
    traceback."""
    rep = run_suite(screen_radical_mixing())
    assert not rep.ok
    failures = [e for e in rep.entries if e.status == "fail"]
    assert failures[0].name == "reeb-split"
    _, sep, residual = failures[0].detail.partition("; the residual")
    assert sep + residual == "; the residual at (X2) is mu, 3 of 5 components nonzero"
    assert {e.anchor for e in failures} == {"sec-2-ascreen"}
    after = rep.entries[rep.entries.index(failures[-1]) + 1:]
    assert {(e.status, e.detail) for e in after} == {
        ("skipped", "blocked by reeb-split (fail)")}
    path = tmp_path / "mixing.json"
    path.write_text(dumps_model(screen_radical_mixing()), encoding="utf-8")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == ""


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
    assert rep.entries[0].detail == (
        "antisymmetry and Jacobi hold; the residual at (X1, X2, X3, X3) is -1, "
        "6 of 625 components nonzero")


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


def example47():
    return example_model()


def example47_mu_7_5():
    return example_model(Fraction(7, 5))


def rebased(seed):
    """The built-in model in ``rebased_frame(seed)``."""
    def build():
        return transported(example_model(), rebased_frame(seed))
    build.__name__ = f"rebased_{seed}"
    return build


@pytest.mark.parametrize("build", [
    degenerate_metric, jacobi_violation, screen_radical_mixing, zero_brackets,
    no_submanifold, reeb_sheared, doubled_reeb_norm, example47, example47_mu_7_5,
    rebased(1), rebased(2), rebased(3)],
    ids=lambda build: build.__name__)
def test_suites_slice_the_full_report(build):
    """Each suite reports a slice of ``all``, details included, also when
    a stage stops early, although it builds only what it reports, and
    ``theorem46`` decides only the earlier steps that can block it."""
    m = build()
    full_report = run_suite(m, "all")
    full = full_report.entries
    # a change of frame keeps every entry of the built-in model, details
    # included: the solved invariants and every residual are frame-free
    rebased_model = build.__name__.startswith("rebased")
    assert full_report.to_json() == golden("example47" if rebased_model
                                           else build.__name__)

    def sliced(entries):
        return CheckReport(list(entries)).to_json()

    ambient = run_suite(m, "ambient")
    assert ambient.to_json() == sliced(full[:len(ambient.entries)])
    assert run_suite(m, "submanifold").to_json() == sliced(full[:-6])
    assert run_suite(m, "theorem46").to_json() == sliced(full[-6:])


def tables_by_cells(f, obj):
    """The reference C, nabla*, A*_xi and phi P, built cell by cell from the
    split connection: C(T_a, T_b) is the xi component of nabla_{T_a} T_b
    and nabla* its screen part, both zero at T_b = xi; A*_xi T_a is
    -nabla_{T_a} xi - tau(T_a) xi; phi P is the tangent part of phi on the
    screen and zero at xi."""
    tf, rad, xi = f.tangent_frame, f.radical_index, f.radical_tangent
    gamma, zero = obj.gamma, MultilinearForm.zero(tf, 1)
    c_form = MultilinearForm.from_function(
        tf, 2, lambda a, b: gamma.entry(a, b, rad) if b != rad else ZERO)
    screen_gamma = MultilinearForm.from_cells(
        tf, 3, lambda a, b: gamma.cell(a, b) - xi.scale(c_form.entry(a, b))
        if b != rad else zero)
    shape_rad = MultilinearForm.from_cells(
        tf, 2, lambda a: -gamma.cell(a, rad) - xi.scale(obj.tau.entry(a)))
    phi_p = MultilinearForm.from_cells(
        tf, 2, lambda a: zero if a == rad else f.phi_parts[0].cell(a))
    return c_form, screen_gamma, shape_rad, phi_p


def assert_composed_tables_match_the_cells(f, obj):
    assert (obj.c_form, obj.screen_gamma, obj.shape_rad, f.phi_p) == \
        tables_by_cells(f, obj)


@pytest.mark.parametrize("build", [
    example_model, reeb_sheared, *(rebased(seed) for seed in (1, 2, 3))],
    ids=lambda build: build.__name__)
def test_composed_tables_match_the_cell_reading(build):
    geo = Geometry(build())
    assert_composed_tables_match_the_cells(geo.frame, geo.induced)


@given(**FRAME_CHANGES)
@settings(max_examples=5, deadline=None, phases=NO_SHRINK)
def test_composed_tables_match_the_cells_under_adapted_frame_changes(p, q, r, s, c, t):
    geo = Geometry(adapted_frame_change(p, q, r, s, c, t))
    assert_composed_tables_match_the_cells(geo.frame, geo.induced)


@pytest.mark.parametrize("seed", [1, 2])
def test_composed_tables_match_the_cells_off_the_class(seed):
    """On invariant data tau = 0 and phi(xi) = mu L, which hide the xi
    slot of C, the tau term of A*_xi and the xi row of phi P.  Here
    phi(E) gains X2, so phi(xi) gains the tangent part mu E1, and a seeded
    table added to the ambient connection makes tau nonzero.  Neither
    touches the metric, so transversal-duality still holds."""
    m = example_model()
    e = m.frame.basis_vector
    f = Geometry(replaced(m, phi=m.phi + outer(e(4), e(1)))).frame
    rng = random.Random(seed)
    noise = MultilinearForm(m.frame, 3, tuple(
        rf(rng.randint(-2, 2)) for _ in range(m.frame.dimension ** 3)))
    obj = gauss_weingarten(f, Geometry(m).conn + noise)
    assert not obj.tau.is_zero()
    assert not f.phi_parts[0].cell(f.radical_index).is_zero()
    assert_composed_tables_match_the_cells(f, obj)
