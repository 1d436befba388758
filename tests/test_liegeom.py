"""Lie algebras, invariant metrics, the Koszul connection and curvature."""

import pytest

from rsthl.builtin import (EXPECTED_FACTOR_TABLE, FACTOR_LABELS,
                           factor_algebra, factor_signature_entry)
from rsthl.errors import DegenerateMetric
from rsthl.liegeom import (Connection, CurvatureTensor, InvariantMetric,
                           LieAlgebra, curvature, curvature_entries,
                           koszul_entries, levi_civita, validate_lie_algebra)
from rsthl.report import PASS
from rsthl.scalars import MU, ONE, ZERO, rf
from rsthl.tensors import Frame, MultilinearForm, Vector

F3 = Frame(("e1", "e2", "e3"))


def all_pass(entries):
    return all(e.status == PASS for e in entries)


def heisenberg():
    return LieAlgebra.from_table(F3, {("e1", "e2"): {"e3": 1}})


def direct_sum(a, b):
    """Block assembly of two bracket tables on the concatenated frame."""
    frame = Frame(a.frame.labels + b.frame.labels)
    da, db = a.frame.dimension, b.frame.dimension

    def bracket(i, j):
        if i < da and j < da:
            return Vector(frame, a.brackets.cell(i, j).components + (ZERO,) * db)
        if i >= da and j >= da:
            return Vector(
                frame, (ZERO,) * da + b.brackets.cell(i - da, j - da).components)
        return Vector.zero(frame)
    return LieAlgebra(frame, MultilinearForm.from_cells(frame, 3, bracket))


def test_from_table_antisymmetrizes():
    alg = heisenberg()
    e3 = F3.basis_vector(2)
    assert alg.brackets.cell(0, 1) == e3
    assert alg.brackets.cell(1, 0) == -e3
    assert alg.brackets.cell(0, 0).is_zero()
    # either key order is accepted
    alg2 = LieAlgebra.from_table(F3, {("e2", "e1"): {"e3": -1}})
    assert alg2.brackets == alg.brackets
    with pytest.raises(ValueError):
        LieAlgebra.from_table(F3, {("e1", "e1"): {"e3": 1}})


def test_bracket_bilinearity():
    alg = heisenberg()
    v = Vector.from_map(F3, {"e1": MU})
    w = Vector.from_map(F3, {"e2": 2})
    assert alg.brackets.apply(v, w) == Vector.from_map(F3, {"e3": 2 * MU})
    assert alg.brackets.apply(w, v) == Vector.from_map(F3, {"e3": -2 * MU})


def test_validate_accepts_heisenberg_and_abelian():
    assert validate_lie_algebra(heisenberg()).status == "pass"
    assert validate_lie_algebra(LieAlgebra.abelian(F3)).status == "pass"


def test_validate_names_jacobi_violation():
    # [e1,e2] = e3 and [e1,e3] = e1 break Jacobi:
    # [[e3,e1],e2] = -e3 while the other two cyclic terms vanish.
    bad = LieAlgebra.from_table(
        F3, {("e1", "e2"): {"e3": 1}, ("e1", "e3"): {"e1": 1}})
    entry = validate_lie_algebra(bad)
    assert entry.status == "fail"
    assert entry.detail == "Jacobi fails at (e1, e2, e3)"


def test_validate_names_antisymmetry_violation():
    zero = Vector.zero(F3)
    e3 = F3.basis_vector(2)
    rows = ((zero, e3, zero), (zero, zero, zero), (zero, zero, zero))
    entry = validate_lie_algebra(LieAlgebra(
        F3, MultilinearForm.from_cells(F3, 3, lambda i, j: rows[i][j])))
    assert entry.status == "fail"
    assert entry.detail == "antisymmetry fails at (e1, e2)"


def test_invariant_metric_validation():
    with pytest.raises(ValueError):
        InvariantMetric(MultilinearForm.from_function(
            F3, 2, lambda i, j: ONE if (i, j) == (0, 1) else ZERO))
    with pytest.raises(DegenerateMetric) as err:
        InvariantMetric.diagonal(F3, (1, 1, 0))
    assert "e1" in str(err.value)
    g = InvariantMetric.diagonal(F3, (1, -1, MU))
    assert g.entry(1, 1) == rf(-1)
    assert g.inverse.entry(2, 2) == ONE / MU
    assert g.determinant() == -MU
    eta = g.lower(Vector.from_map(F3, {"e3": 1}))
    assert eta.entries == (ZERO, ZERO, MU)


def test_abelian_connection_is_zero():
    g = InvariantMetric.diagonal(F3, (1, 1, -1))
    conn = levi_civita(LieAlgebra.abelian(F3), g)
    assert all(conn.gamma.cell(i, j).is_zero() for i in range(3) for j in range(3))


def test_heisenberg_connection_and_curvature():
    alg = heisenberg()
    g = InvariantMetric.diagonal(F3, (1, 1, 1))
    conn = levi_civita(alg, g)
    assert all_pass(koszul_entries(conn, alg, g))
    half = rf("1/2")
    assert conn.gamma.cell(0, 1) == Vector.from_map(F3, {"e3": half})
    assert conn.gamma.cell(0, 2) == Vector.from_map(F3, {"e2": -half})
    assert conn.gamma.cell(2, 1) == Vector.from_map(F3, {"e1": half})
    # classical curvature of the Heisenberg group
    curv = curvature(conn, alg)
    assert curv.table.cell(0, 1, 1) == Vector.from_map(F3, {"e1": "-3/4"})
    ric = curv.ricci
    assert ric.entry(0, 0) == rf("-1/2")
    assert ric.entry(1, 1) == rf("-1/2")
    assert ric.entry(2, 2) == rf("1/2")
    assert ric.entry(0, 1) == ZERO
    assert all_pass(curvature_entries(curv, curv.lower(g)))


def test_nabla_is_bilinear_over_constants():
    alg = heisenberg()
    conn = levi_civita(alg, InvariantMetric.diagonal(F3, (1, 1, 1)))
    v = Vector.from_map(F3, {"e1": 2})
    w = Vector.from_map(F3, {"e2": MU})
    assert conn.gamma.apply(v, w) == conn.gamma.cell(0, 1).scale(2 * MU)


def curvature_with(cells):
    """A curvature table on F3, zero except R(e_i, e_j) e_k = v for each
    (i, j, k): v in cells."""
    zero = Vector.zero(F3)
    return CurvatureTensor(F3, MultilinearForm.from_cells(
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
    zero_conn = Connection(F3, MultilinearForm.zero(F3, 3))
    # nabla_e1 e2 - nabla_e2 e1 = 0 misses [e1, e2] = e3
    torsion, metric = koszul_entries(zero_conn, alg, g)
    assert suffix(torsion, TORSION) == \
        "; the residual at (e1, e2, e3) is -1, 2 of 27 components nonzero"
    assert metric.status == PASS
    bad = Connection(F3, MultilinearForm.from_cells(
        F3, 3, lambda i, j: F3.basis_vector(1) if (i, j) == (0, 0)
        else Vector.zero(F3)))
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
    x = Vector.from_map(F3, {"e1": 2})
    y = Vector.from_map(F3, {"e2": 1})
    assert curv.table.apply(x, y, y) == curv.table.cell(0, 1, 1).scale(2)


def test_factor_connection_matches_frozen_table():
    alg = factor_algebra()
    frame = alg.frame
    assert frame.labels == FACTOR_LABELS
    conn = levi_civita(alg, InvariantMetric.diagonal(frame, (1, 1, -1, -1)))
    seen = {}
    for i in range(4):
        for j in range(4):
            v = conn.gamma.cell(i, j)
            if not v.is_zero():
                seen[(frame.labels[i], frame.labels[j])] = {
                    frame.labels[k]: c for k, c in enumerate(v.components)
                    if not c.is_zero()}
    expected = {key: {k: rf(c) for k, c in val.items()}
                for key, val in EXPECTED_FACTOR_TABLE.items()}
    assert seen == expected


def test_factor_connection_rejects_alternating_signs():
    alg = factor_algebra()
    conn = levi_civita(alg, InvariantMetric.diagonal(alg.frame, (1, -1, 1, -1)))
    # nabla_{X2} X1 = 2 X4 fails under the alternating signature
    assert conn.gamma.cell(1, 0) != Vector.from_map(alg.frame, {"X4": 2})


def test_factor_signature_adjudication_entry():
    entry = factor_signature_entry()
    assert entry.status == "pass"
    assert entry.anchor == "example-4.7"
    assert "signs (1, 1, -1, -1): table=True, anti-compatibility=True" in entry.detail
    assert "signs (1, -1, 1, -1): table=False, anti-compatibility=False" in entry.detail


def test_direct_sum_builds_the_ambient_algebra(model):
    center = LieAlgebra.abelian(Frame(("E",)))
    assert direct_sum(factor_algebra(), center) == model.algebra


def test_ambient_connection_kills_the_central_direction(lm, ambient_conn):
    dim = lm.frame.dimension
    e_idx = lm.frame.index("E")
    for i in range(dim):
        assert ambient_conn.gamma.cell(e_idx, i).is_zero()
        assert ambient_conn.gamma.cell(i, e_idx).is_zero()
    assert all_pass(koszul_entries(ambient_conn, lm.algebra, lm.metric))


def test_ambient_curvature_invariants(lm, ambient_conn, ambient_r4):
    curv = curvature(ambient_conn, lm.algebra)
    assert all_pass(curvature_entries(curv, ambient_r4))
