"""Lie algebras, invariant metrics, the Koszul connection and curvature."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rsthl.builtin import (EXPECTED_FACTOR_TABLE, FACTOR_LABELS,
                           example_model, factor_algebra,
                           factor_signature_entry)
from rsthl.errors import DegenerateMetric
from rsthl.liegeom import (CurvatureTensor, InvariantMetric, bracket_table,
                           curvature, curvature_entries, derivative,
                           koszul_entries, levi_civita, validate_lie_algebra)
from rsthl.report import PASS
from rsthl.scalars import MU, ONE, ZERO, rf
from rsthl.tensors import Frame, MultilinearForm
from test_properties import dense_frame, transported
from test_tensors import leibniz

F3 = Frame(("e1", "e2", "e3"))


def all_pass(entries):
    return all(e.status == PASS for e in entries)


def heisenberg():
    return bracket_table(F3, {("e1", "e2"): {"e3": 1}})


def direct_sum(a, b):
    """Block assembly of two bracket tables on the concatenated frame."""
    frame = Frame(a.frame.labels + b.frame.labels)
    da, db = a.frame.dimension, b.frame.dimension

    def bracket(i, j):
        if i < da and j < da:
            return MultilinearForm(
                frame, 1, a.cell(i, j).entries + (ZERO,) * db)
        if i >= da and j >= da:
            return MultilinearForm(
                frame, 1, (ZERO,) * da + b.cell(i - da, j - da).entries)
        return MultilinearForm.zero(frame, 1)
    return MultilinearForm.from_cells(frame, 3, bracket)


def test_from_table_antisymmetrizes():
    alg = heisenberg()
    e3 = F3.basis_vector(2)
    assert alg.cell(0, 1) == e3
    assert alg.cell(1, 0) == -e3
    assert alg.cell(0, 0).is_zero()
    # either key order is accepted
    alg2 = bracket_table(F3, {("e2", "e1"): {"e3": -1}})
    assert alg2 == alg
    with pytest.raises(ValueError):
        bracket_table(F3, {("e1", "e1"): {"e3": 1}})


def test_bracket_bilinearity():
    alg = heisenberg()
    v = MultilinearForm.from_map(F3, {"e1": MU})
    w = MultilinearForm.from_map(F3, {"e2": 2})
    assert alg.apply(v, w) == MultilinearForm.from_map(F3, {"e3": 2 * MU})
    assert alg.apply(w, v) == MultilinearForm.from_map(F3, {"e3": -2 * MU})


def test_validate_accepts_heisenberg_and_abelian():
    assert validate_lie_algebra(heisenberg()).status == "pass"
    assert validate_lie_algebra(bracket_table(F3, {})).status == "pass"


LIE = "antisymmetry and Jacobi hold"


def test_validate_names_jacobi_violation():
    # [e1,e2] = e3 and [e1,e3] = e1 break Jacobi:
    # [[e3,e1],e2] = -e3 while the other two cyclic terms vanish.
    bad = bracket_table(
        F3, {("e1", "e2"): {"e3": 1}, ("e1", "e3"): {"e1": 1}})
    entry = validate_lie_algebra(bad)
    assert entry.status == "fail"
    assert entry.detail == (LIE + "; the residual at (e1, e2, e3, e3) is -1, "
                            "6 of 81 components nonzero")


def test_validate_names_antisymmetry_violation():
    zero = MultilinearForm.zero(F3, 1)
    e3 = F3.basis_vector(2)
    rows = ((zero, e3, zero), (zero, zero, zero), (zero, zero, zero))
    entry = validate_lie_algebra(
        MultilinearForm.from_cells(F3, 3, lambda i, j: rows[i][j]))
    assert entry.status == "fail"
    assert entry.detail == (LIE + "; the residual at (e1, e2, e3) is 1, "
                            "2 of 27 components nonzero")


F4 = Frame(("e1", "e2", "e3", "e4"))


def test_lie_checks_locate_the_first_violation():
    """Both checks name the row-major first nonzero component of their
    whole-table residual, the upper slot included."""
    zero = MultilinearForm.zero(F3, 1)
    e1, e3 = F3.basis_vector(0), F3.basis_vector(2)
    # entered at (e3, e2) and (e3, e1): the residual [X, Y] + [Y, X] is
    # symmetric, so it is first nonzero at (e1, e3)
    rows = ((zero, zero, zero), (zero, zero, zero), (e3, e1, zero))
    broken = MultilinearForm.from_cells(F3, 3, lambda i, j: rows[i][j])
    assert validate_lie_algebra(broken).detail == (
        LIE + "; the residual at (e1, e3, e3) is 1, 4 of 27 components nonzero")
    # the Jacobi break of the three-dimensional test above, moved to
    # (e2, e3, e4) beside a central e1: every triple holding e1 passes
    shifted = bracket_table(
        F4, {("e2", "e3"): {"e4": 1}, ("e2", "e4"): {"e2": 1}, ("e1", "e2"): {}})
    entry = validate_lie_algebra(shifted)
    assert (entry.status, entry.detail) == ("fail", LIE + (
        "; the residual at (e2, e3, e4, e4) is -1, 6 of 256 components nonzero"))


def first_violation(residual, tuples):
    """The first tuple, and its first component, where the vector-valued
    residual is nonzero, and the count of nonzero components over all the
    tuples; None when it vanishes."""
    cells = [(idx, residual(*idx)) for idx in tuples]
    count = sum(len(v.nonzero) for _, v in cells)
    return next(((idx + (min(v.nonzero),), v.entry(min(v.nonzero)), count)
                 for idx, v in cells if not v.is_zero()), None)


@given(cells=st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                             st.sampled_from([rf(1), rf(-1), rf(2), MU]), max_size=5),
       antisymmetrize=st.booleans())
@settings(max_examples=40, deadline=None)
def test_lie_checks_match_the_per_cell_scans(cells, antisymmetrize):
    """The location, value and count against scans of the per-cell
    residuals in row-major order: every pair for antisymmetry, and for
    Jacobi, read only once antisymmetry holds, every triple."""
    br = MultilinearForm.from_function(
        F4, 3, lambda i, j, k: cells.get((i, j, k), ZERO))
    if antisymmetrize:
        br = br.skew()
    basis = [F4.basis_vector(i) for i in range(4)]

    def jacobiator(i, j, k):
        return (br.apply(br.cell(i, j), basis[k]) + br.apply(br.cell(j, k), basis[i])
                + br.apply(br.cell(k, i), basis[j]))

    found = first_violation(lambda i, j: br.cell(i, j) + br.cell(j, i),
                            product(range(4), repeat=2))
    if found is None:
        found = first_violation(jacobiator, product(range(4), repeat=3))
    entry = validate_lie_algebra(br)
    if found is None:
        assert entry.status == "pass"
    else:
        at, value, count = found
        labels = ", ".join(F4.labels[i] for i in at)
        assert entry.detail == (f"{LIE}; the residual at ({labels}) is {value}, "
                                f"{count} of {4 ** len(at)} components nonzero")


def test_invariant_metric_validation():
    with pytest.raises(ValueError, match="arity-2"):
        InvariantMetric(MultilinearForm.zero(F3, 3))
    with pytest.raises(ValueError, match="one diagonal entry per label"):
        InvariantMetric.diagonal(F3, (1, 1))
    with pytest.raises(ValueError):
        InvariantMetric(MultilinearForm.from_function(
            F3, 2, lambda i, j: ONE if (i, j) == (0, 1) else ZERO))
    with pytest.raises(DegenerateMetric) as err:
        InvariantMetric.diagonal(F3, (1, 1, 0))
    assert "e1" in str(err.value)
    g = InvariantMetric.diagonal(F3, (1, -1, MU))
    assert g.form.entry(1, 1) == rf(-1)
    assert g.inverse.entry(2, 2) == ONE / MU
    assert leibniz(g.form.rows()) == -MU
    eta = g.form.apply(MultilinearForm.from_map(F3, {"e3": 1}))
    assert eta.entries == (ZERO, ZERO, MU)


def test_abelian_connection_is_zero():
    g = InvariantMetric.diagonal(F3, (1, 1, -1))
    conn = levi_civita(bracket_table(F3, {}), g)
    assert all(conn.cell(i, j).is_zero() for i in range(3) for j in range(3))


def test_heisenberg_connection_and_curvature():
    alg = heisenberg()
    g = InvariantMetric.diagonal(F3, (1, 1, 1))
    conn = levi_civita(alg, g)
    assert all_pass(koszul_entries(conn, alg, g))
    half = rf("1/2")
    assert conn.cell(0, 1) == MultilinearForm.from_map(F3, {"e3": half})
    assert conn.cell(0, 2) == MultilinearForm.from_map(F3, {"e2": -half})
    assert conn.cell(2, 1) == MultilinearForm.from_map(F3, {"e1": half})
    # classical curvature of the Heisenberg group
    curv = curvature(conn, alg)
    assert curv.table.cell(0, 1, 1) == MultilinearForm.from_map(F3, {"e1": "-3/4"})
    ric = curv.ricci
    assert ric.entry(0, 0) == rf("-1/2")
    assert ric.entry(1, 1) == rf("-1/2")
    assert ric.entry(2, 2) == rf("1/2")
    assert ric.entry(0, 1) == ZERO
    assert all_pass(curvature_entries(curv, curv.lower(g)))


def test_nabla_is_bilinear_over_constants():
    alg = heisenberg()
    conn = levi_civita(alg, InvariantMetric.diagonal(F3, (1, 1, 1)))
    v = MultilinearForm.from_map(F3, {"e1": 2})
    w = MultilinearForm.from_map(F3, {"e2": MU})
    assert conn.apply(v, w) == conn.cell(0, 1).scale(2 * MU)


def curvature_with(cells):
    """A curvature table on F3, zero except R(e_i, e_j) e_k = v for each
    (i, j, k): v in cells."""
    zero = MultilinearForm.zero(F3, 1)
    return CurvatureTensor(MultilinearForm.from_cells(
        F3, 4, lambda i, j, k: cells.get((i, j, k), zero)))


def form_with(cells):
    """An arity-4 table on F3, zero except at the given index tuples."""
    return MultilinearForm.from_function(
        F3, 4, lambda *idx: rf(cells.get(idx, 0)))


def suffix(entry, statement):
    """The residual suffix of a failing entry after its statement."""
    assert entry.status == "fail"
    assert entry.detail.startswith(statement)
    return entry.detail[len(statement):]


TORSION = "the Koszul connection is torsion free"
METRIC = "the Koszul connection preserves the metric"
BIANCHI = "the cyclic curvature sum vanishes"
SYMMETRIES = "slot antisymmetries and the pair symmetry hold"


def test_violation_reporting():
    alg = heisenberg()
    g = InvariantMetric.diagonal(F3, (1, 1, 1))
    zero_conn = MultilinearForm.zero(F3, 3)
    # nabla_e1 e2 - nabla_e2 e1 = 0 misses [e1, e2] = e3
    torsion, metric = koszul_entries(zero_conn, alg, g)
    assert suffix(torsion, TORSION) == \
        "; the residual at (e1, e2, e3) is -1, 2 of 27 components nonzero"
    assert metric.status == PASS
    bad = MultilinearForm.from_cells(
        F3, 3, lambda i, j: F3.basis_vector(1) if (i, j) == (0, 0)
        else MultilinearForm.zero(F3, 1))
    assert suffix(koszul_entries(bad, alg, g)[1], METRIC) == \
        "; the residual at (e1, e1, e2) is 1, 2 of 27 components nonzero"

    # the cyclic sum is nonzero at the three rotations of the bad cell
    def bianchi(cells):
        return curvature_entries(curvature_with(cells), form_with({}))
    bianchi_entry, symmetries = bianchi({(0, 1, 2): F3.basis_vector(0)})
    assert suffix(bianchi_entry, BIANCHI) == \
        "; the residual at (e1, e2, e3, e1) is 1, 3 of 81 components nonzero"
    assert symmetries.status == PASS
    assert suffix(bianchi({(2, 1, 0): F3.basis_vector(1)})[0], BIANCHI) == \
        "; the residual at (e1, e3, e2, e2) is 1, 3 of 81 components nonzero"

    def symmetry(cells):
        return suffix(curvature_entries(curvature_with({}), form_with(cells))[1],
                      SYMMETRIES)
    # the symmetries are taken in order: first pair, last pair, exchange
    assert symmetry({(0, 1, 2, 0): 1}) == \
        "; the residual at (e1, e2, e3, e1) is 1, 2 of 81 components nonzero"
    assert symmetry({(0, 0, 0, 0): 1}) == \
        "; the residual at (e1, e1, e1, e1) is 2, 1 of 81 components nonzero"
    assert symmetry({(0, 1, 0, 0): 1, (1, 0, 0, 0): -1}) == \
        "; the residual at (e1, e2, e1, e1) is 2, 2 of 81 components nonzero"
    skew = {(0, 1, 0, 2): 1, (1, 0, 0, 2): -1, (0, 1, 2, 0): -1,
            (1, 0, 2, 0): 1}
    assert symmetry(skew) == \
        "; the residual at (e1, e2, e1, e3) is 1, 8 of 81 components nonzero"


def test_curvature_apply_matches_basis_values():
    alg = heisenberg()
    conn = levi_civita(alg, InvariantMetric.diagonal(F3, (1, 1, 1)))
    curv = curvature(conn, alg)
    x = MultilinearForm.from_map(F3, {"e1": 2})
    y = MultilinearForm.from_map(F3, {"e2": 1})
    assert curv.table.apply(x, y, y) == curv.table.cell(0, 1, 1).scale(2)


def curvature_by_cells(conn, alg):
    """R(e_i, e_j) e_k = nabla_i nabla_j e_k - nabla_j nabla_i e_k
    - nabla_[e_i, e_j] e_k, one cell at a time."""
    frame, g, br = conn.frame, conn, alg
    basis = [frame.basis_vector(i) for i in range(frame.dimension)]
    return MultilinearForm.from_cells(
        frame, 4, lambda i, j, k: (g.apply(basis[i], g.cell(j, k))
                                   - g.apply(basis[j], g.cell(i, k))
                                   - g.apply(br.cell(i, j), basis[k])))


def assert_curvature_matches_cells(alg, metric):
    conn = levi_civita(alg, metric)
    assert curvature(conn, alg).table == curvature_by_cells(conn, alg)


@pytest.mark.parametrize("build", [
    example_model, lambda: transported(example_model(), dense_frame(1))],
    ids=["builtin", "dense"])
def test_curvature_matches_its_cell_definition(build):
    model = build()
    assert_curvature_matches_cells(model.brackets, InvariantMetric(model.metric_form))


@given(weights=st.tuples(*[st.integers(-3, 3).filter(bool)] * 3),
       diag=st.tuples(*[st.sampled_from([1, -1, 2, MU])] * 4))
@settings(max_examples=20, deadline=None)
def test_solvable_family_curvature_matches_its_cell_definition(weights, diag):
    # the solvable family of the Koszul property test: ad(e4) diagonal
    frame = Frame(("e1", "e2", "e3", "e4"))
    alg = bracket_table(frame, {("e4", f"e{i + 1}"): {f"e{i + 1}": w}
                                        for i, w in enumerate(weights)})
    assert_curvature_matches_cells(alg, InvariantMetric.diagonal(frame, diag))


def test_factor_connection_matches_frozen_table():
    alg = factor_algebra()
    frame = alg.frame
    assert frame.labels == FACTOR_LABELS
    conn = levi_civita(alg, InvariantMetric.diagonal(frame, (1, 1, -1, -1)))
    seen = {}
    for i in range(4):
        for j in range(4):
            v = conn.cell(i, j)
            if not v.is_zero():
                seen[(frame.labels[i], frame.labels[j])] = {
                    frame.labels[k]: c for k, c in enumerate(v.entries)
                    if not c.is_zero()}
    expected = {key: {k: rf(c) for k, c in val.items()}
                for key, val in EXPECTED_FACTOR_TABLE.items()}
    assert seen == expected


def test_factor_connection_rejects_alternating_signs():
    alg = factor_algebra()
    conn = levi_civita(alg, InvariantMetric.diagonal(alg.frame, (1, -1, 1, -1)))
    # nabla_{X2} X1 = 2 X4 fails under the alternating signature
    assert conn.cell(1, 0) != MultilinearForm.from_map(alg.frame, {"X4": 2})


def test_factor_signature_adjudication_entry():
    entry = factor_signature_entry()
    assert entry.status == "pass"
    assert entry.anchor == "example-4.7"
    assert "signs (1, 1, -1, -1): table=True, anti-compatibility=True" in entry.detail
    assert "signs (1, -1, 1, -1): table=False, anti-compatibility=False" in entry.detail


def test_direct_sum_builds_the_ambient_algebra(model):
    center = bracket_table(Frame(("E",)), {})
    assert direct_sum(factor_algebra(), center) == model.brackets


def test_ambient_connection_kills_the_central_direction(model, structure, ambient_conn):
    dim = model.frame.dimension
    e_idx = model.frame.index("E")
    for i in range(dim):
        assert ambient_conn.cell(e_idx, i).is_zero()
        assert ambient_conn.cell(i, e_idx).is_zero()
    assert all_pass(koszul_entries(ambient_conn, model.brackets, structure.metric))


def test_connection_derivative_of_a_vector(model, ambient_conn):
    v = MultilinearForm.from_map(model.frame, {"X1": 1, "X3": MU, "E": -2})
    nabla_v = derivative(ambient_conn, v)
    for i in range(model.frame.dimension):
        x = model.frame.basis_vector(i)
        assert nabla_v.apply(x) == ambient_conn.apply(x, v)


def test_ambient_curvature_invariants(brackets, ambient_conn, ambient_r4):
    curv = curvature(ambient_conn, brackets)
    assert all_pass(curvature_entries(curv, ambient_r4))
