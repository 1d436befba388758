"""Frames, vectors, component tables and exact linear algebra."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rsthl.errors import (DegenerateMetric, InconsistentSystem,
                          ScalarDomainError, UnderdeterminedSystem)
from rsthl.scalars import MU, ONE, ZERO, rf
from rsthl.tensors import (Frame, MultilinearForm, Vector, curvature_product,
                           determinant, first_nonzero, inertia, matrix_inverse,
                           outer, pick_regular_sample, solve_affine,
                           solve_unique)

F2 = Frame(("f1", "f2"))
F3 = Frame(("e1", "e2", "e3"))


def operator(*columns):
    """The operator table on F3 sending e_j to the j-th given vector map."""
    cells = [Vector.from_map(F3, c) for c in columns]
    return MultilinearForm.from_cells(F3, 2, cells.__getitem__)


def test_frame_validation():
    with pytest.raises(ValueError):
        Frame(())
    with pytest.raises(ValueError):
        Frame(("a", "a"))
    assert F3.dimension == 3
    assert F3.index("e2") == 1
    with pytest.raises(KeyError):
        F3.index("e9")
    assert F3.basis_vector(0).components == (ONE, ZERO, ZERO)


def test_vector_arithmetic():
    v = Vector.from_map(F3, {"e1": 2, "e3": MU})
    w = Vector.from_map(F3, {"e1": -2})
    assert (v + w).components == (ZERO, ZERO, MU)
    assert (v - v).is_zero()
    assert (-v).components == (rf(-2), ZERO, -MU)
    assert v.scale(MU).components == (2 * MU, ZERO, MU * MU)
    assert Vector.zero(F3).is_zero()


def test_first_nonzero_scans_in_row_major_order():
    seen = []

    def residual(i, j, k):
        seen.append((i, j, k))
        return rf(1) if (i, j, k) in {(1, 0, 2), (2, 1, 0)} else ZERO

    assert first_nonzero(residual, 3, 3) == (1, 0, 2)
    assert seen == sorted(seen) and seen[-1] == (1, 0, 2)
    assert first_nonzero(residual, 3, 3, increasing=True) is None
    assert first_nonzero(lambda i, j: F3.basis_vector(i) if i > j else
                         Vector.zero(F3), 3, 2) == (1, 0)
    assert first_nonzero(lambda i: ZERO, 3, 1) is None


def test_covector_applies_to_vectors():
    eta = MultilinearForm(F3, 1, Vector.from_map(F3, {"e2": 1, "e3": MU}).components)
    v = Vector.from_map(F3, {"e2": 3, "e3": 1})
    assert eta.value(v) == 3 + MU
    assert not eta.is_zero()
    assert eta.scale(2).value(v) == 6 + 2 * MU


def test_form_entry_value_and_symmetry():
    g = MultilinearForm.from_function(
        F3, 2, lambda i, j: MU if i == j == 0 else (ONE if i == j else ZERO))
    assert g.entry(0, 0) == MU
    assert g.is_symmetric()
    v = Vector.from_map(F3, {"e1": 1, "e2": 2})
    w = Vector.from_map(F3, {"e1": 1, "e2": -1})
    # bilinearity over the field: g(v, w) = mu*1 + 2*(-1)
    assert g.value(v, w) == MU - 2
    skew = MultilinearForm.from_function(
        F3, 2, lambda i, j: rf(1) if (i, j) == (0, 1) else ZERO)
    assert not skew.is_symmetric()


def test_form_algebra_and_pull_slots():
    g = MultilinearForm.from_function(
        F3, 2, lambda i, j: ONE if i == j else ZERO)
    # op maps e1 -> e2, e2 -> -e1, e3 -> 0
    op = operator({"e2": 1}, {"e1": -1}, {})
    pulled = g.pull_slots(op, (1,))
    assert pulled.entry(0, 1) == rf(-1)
    assert pulled.entry(1, 0) == ONE
    assert pulled.entry(2, 2) == ZERO
    both = g.pull_all(op)
    assert both.entry(0, 0) == ONE
    assert both.entry(2, 2) == ZERO
    assert (g - g).is_zero()
    assert (g + g).entry(1, 1) == rf(2)
    assert g.scale(MU).entry(2, 2) == MU


def test_operator_matrix_convention():
    # entry(j, i) is the e_i coefficient of op(e_j)
    op = operator({"e2": 1}, {"e1": -1}, {})
    assert op.entry(0, 1) == ONE
    assert op.entry(1, 0) == rf(-1)
    assert op.cell(0).components == (ZERO, ONE, ZERO)
    v = Vector.from_map(F3, {"e1": 1, "e2": 1})
    assert op.apply(v).components == (rf(-1), ONE, ZERO)
    sq = op.pull_slots(op, (0,))
    assert sq.apply(Vector.from_map(F3, {"e1": 1})).components == (rf(-1), ZERO, ZERO)
    assert op.trace() == ZERO
    assert op.rank() == 2
    assert MultilinearForm.identity(F3).rank() == 3
    assert MultilinearForm.zero(F3, 2).is_zero()
    e1, eta = Vector.from_map(F3, {"e1": 1}), (ZERO, ZERO, ONE)
    out = MultilinearForm.from_function(F3, 2, lambda j, i: e1.components[i] * eta[j])
    assert out.apply(Vector.from_map(F3, {"e3": 2})).components == (rf(2), ZERO, ZERO)
    assert (op - op).is_zero()
    assert (op + (-op)).is_zero()


# Hand-made tables of every arity, with zero entries and mu-dependent ones.
def sample_table(arity):
    return MultilinearForm.from_function(
        F3, arity,
        lambda *idx: rf(sum((s + 1) * i for s, i in enumerate(idx)) % 4 - 1)
        * (MU if idx[0] == 2 else ONE))


SAMPLE_VECTORS = (Vector.from_map(F3, {"e1": 1, "e3": MU}),
                  Vector.from_map(F3, {"e1": 2, "e2": -1}),
                  Vector.from_map(F3, {"e2": 1, "e3": "1/2"}),
                  Vector.from_map(F3, {"e3": -3}))


def contraction(table, vectors, idx_tail=()):
    """sum over the leading indices of v1_i1 ... vk_ik T(i1, ..., ik, tail)."""
    total = ZERO
    for idx in product(range(3), repeat=len(vectors)):
        coeff = ONE
        for v, i in zip(vectors, idx):
            coeff = coeff * v.components[i]
        total = total + coeff * table.entry(*idx, *idx_tail)
    return total


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_cell_apply_and_value_follow_the_components(arity):
    t = sample_table(arity)
    for idx in product(range(3), repeat=arity - 1):
        assert t.cell(*idx).components == tuple(t.entry(*idx, l) for l in range(3))
    leading = SAMPLE_VECTORS[:arity - 1]
    assert t.apply(*leading).components == tuple(
        contraction(t, leading, (l,)) for l in range(3))
    assert t.value(*SAMPLE_VECTORS[:arity]) == contraction(t, SAMPLE_VECTORS[:arity])
    with pytest.raises(ValueError):
        t.apply(*SAMPLE_VECTORS[:arity])
    with pytest.raises(ValueError):
        t.cell(*range(arity))


def test_composition_by_pull_slots():
    # neither operator is symmetric, and they do not commute
    a = operator({"e1": 1, "e2": 2}, {"e3": 3}, {"e1": MU, "e2": -1})
    b = operator({"e2": 1}, {"e1": -1, "e3": 1}, {"e3": "1/2"})
    assert not a.is_symmetric()
    a_after_b = a.pull_slots(b, (0,))
    for j, i in product(range(3), repeat=2):
        assert a_after_b.entry(j, i) == sum(
            (b.entry(j, k) * a.entry(k, i) for k in range(3)), ZERO)
    for v in SAMPLE_VECTORS:
        assert a_after_b.apply(v) == a.apply(b.apply(v))
    assert a_after_b != b.pull_slots(a, (0,))
    # a form with an operator in one slot: T'(x, y) = T(x, A y)
    t = sample_table(2)
    x, y = SAMPLE_VECTORS[:2]
    assert t.pull_slots(a, (1,)).value(x, y) == t.value(x, a.apply(y))


@pytest.mark.parametrize("arity", [2, 3, 4])
def test_lowering_by_pull_slots(arity):
    g = MultilinearForm.from_function(
        F3, 2, lambda i, j: [[ONE, ONE, ZERO], [ONE, ZERO, ZERO],
                             [ZERO, ZERO, MU]][i][j])
    t = sample_table(arity)
    lowered = t.pull_slots(g, (arity - 1,))
    basis = [F3.basis_vector(i) for i in range(3)]
    for idx in product(range(3), repeat=arity):
        assert lowered.entry(*idx) == g.value(t.cell(*idx[:-1]), basis[idx[-1]])


def table2(frame, rows):
    """The arity-2 table with entry(i, j) = rows[i][j]."""
    return MultilinearForm(frame, 2, tuple(rf(c) for row in rows for c in row))


def vectors(frame, *rows):
    return [Vector(frame, tuple(rf(c) for c in row)) for row in rows]


def test_outer_matches_components():
    u = MultilinearForm(F3, 1, (rf(2), ZERO, MU))
    v = Vector.from_map(F3, {"e1": -1, "e2": "1/3"})
    for t, left, right in ((outer(u, v), u.entries, v.components),
                           (outer(v, u), v.components, u.entries)):
        for i, j in product(range(3), repeat=2):
            assert t.entry(i, j) == left[i] * right[j]
    # a one-form times a vector is the operator X -> u(X) v
    for x in SAMPLE_VECTORS:
        assert outer(u, v).apply(x) == v.scale(u.value(x))
    with pytest.raises(ValueError):
        outer(u, Vector.zero(F2))


def test_outer_takes_tables_of_any_arity():
    u = table2(F2, [[1, 2], [0, MU]])
    v = Vector.from_map(F2, {"f1": 3, "f2": "-1/2"})
    uv, vu = outer(u, v), outer(v, u)
    assert uv.arity == vu.arity == 3
    for i, j, k in product(range(2), repeat=3):
        assert uv.entry(i, j, k) == u.entry(i, j) * v.components[k]
        assert vu.entry(i, j, k) == v.components[i] * u.entry(j, k)


def random_table(arity, seed):
    """A table on F3 whose entries run through small constants and mu."""
    values = [ZERO, ONE, rf(-2), MU, rf("1/3") * MU + 1]
    return MultilinearForm(F3, arity, tuple(
        values[(seed * 7 + 3 * off + off * off) % len(values)]
        for off in range(3 ** arity)))


@pytest.mark.parametrize("order", [(0,), (1, 0), (2, 0, 1), (1, 2, 0, 3),
                                   (3, 1, 0, 2)])
def test_permute_matches_its_entry_definition(order):
    t = random_table(len(order), seed=len(order))
    p = t.permute(order)
    for idx in product(range(3), repeat=len(order)):
        assert p.entry(*idx) == t.entry(*(idx[o] for o in order))
    inverse = tuple(sorted(range(len(order)), key=order.__getitem__))
    assert p.permute(inverse) == t
    assert t.permute(inverse).permute(order) == t
    with pytest.raises(ValueError):
        t.permute(tuple(range(len(order) + 1)))


def test_skew_and_at():
    t = random_table(3, seed=2)
    skew, row = t.skew(), t.at(1)
    for i, j, k in product(range(3), repeat=3):
        assert skew.entry(i, j, k) == t.entry(i, j, k) - t.entry(j, i, k)
    for j, k in product(range(3), repeat=2):
        assert row.entry(j, k) == t.entry(1, j, k)
    assert row.arity == 2
    with pytest.raises(ValueError):
        random_table(1, seed=0).at(0)


# (a, b, g, test vectors): a and b are not symmetric, g is a metric
PRODUCT_CASES = [
    (table2(F2, [[1, 2], [0, -3]]), table2(F2, [[0, 1], ["1/2", 2]]),
     table2(F2, [[0, 1], [1, 2]]), vectors(F2, [1, 0], [2, -1], [0, 3])),
    (table2(F3, [[1, 2, 0], [0, -1, MU], [3, 0, 1]]),
     table2(F3, [[0, 1, 2], [-1, 0, 0], [MU, 1, "1/3"]]),
     table2(F3, [[1, 1, 0], [1, 0, 0], [0, 0, MU]]),
     vectors(F3, [1, 0, MU], [2, -1, 0], [0, 1, "1/2"])),
]


@pytest.mark.parametrize("a, b, g, vs", PRODUCT_CASES, ids=["dim2", "dim3"])
def test_curvature_product_matches_component_sums(a, b, g, vs):
    assert not a.is_symmetric() and not b.is_symmetric()
    dim = a.frame.dimension
    p = curvature_product(a, b)
    for i, j, k, l in product(range(dim), repeat=4):
        assert p.entry(i, j, k, l) == (b.entry(j, k) * a.entry(i, l)
                                       - b.entry(i, k) * a.entry(j, l))
    # read with a as an operator: (X, Y, Z) -> b(Y, Z) aX - b(X, Z) aY
    for x, y, z in product(vs, repeat=3):
        assert p.apply(x, y, z) == (a.apply(x).scale(b.value(y, z))
                                    - a.apply(y).scale(b.value(x, z)))
    # read with a as a form: lowering P(A, b) with g is P(g(A ., .), b)
    assert p.pull_slots(g, (3,)) == curvature_product(a.pull_slots(g, (1,)), b)
    with pytest.raises(ValueError):
        curvature_product(a, sample_table(3))


@given(dim=st.integers(2, 3),
       values=st.lists(st.integers(-3, 3), min_size=18, max_size=18))
@settings(max_examples=30, deadline=None)
def test_curvature_product_symmetries(dim, values):
    """P(a, b) is antisymmetric in its first two slots, and its cyclic sum
    over the first three slots (first Bianchi) vanishes for symmetric b."""
    frame = F2 if dim == 2 else F3
    n = dim * dim
    a = MultilinearForm(frame, 2, tuple(rf(v) for v in values[:n]))
    c = MultilinearForm(frame, 2, tuple(rf(v) for v in values[9:9 + n]))
    p = curvature_product(a, c)
    b = c + MultilinearForm.from_function(frame, 2, lambda i, j: c.entry(j, i))
    q = curvature_product(a, b)
    for i, j, k, l in product(range(dim), repeat=4):
        assert p.entry(i, j, k, l) == -p.entry(j, i, k, l)
        assert (q.entry(i, j, k, l) + q.entry(j, k, i, l)
                + q.entry(k, i, j, l)).is_zero()


def test_determinant_exact():
    rows = [[MU, ONE], [ONE, MU]]
    assert determinant(rows) == MU * MU - 1
    assert determinant([[ZERO, ONE], [ZERO, MU]]) == ZERO
    rows3 = [[rf(2), ZERO, ZERO], [ZERO, MU, ZERO], [ZERO, ZERO, rf(-1)]]
    assert determinant(rows3) == -2 * MU


def test_solve_unique():
    a = [[ONE, ONE], [ONE, -ONE]]
    x, y = solve_unique(a, [MU, ONE])
    assert x == (MU + 1) / 2
    assert y == (MU - 1) / 2
    with pytest.raises(InconsistentSystem):
        solve_unique([[ONE, ONE], [ONE, ONE]], [ZERO, ONE])
    with pytest.raises(UnderdeterminedSystem):
        solve_unique([[ONE, ONE], [2 * ONE, 2 * ONE]], [ONE, rf(2)])


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_solve_affine_parametrizes_solutions(s, t):
    a = [[ONE, ONE, ZERO], [ZERO, ZERO, ONE]]
    b = [rf(1), rf(2)]
    particular, kernel = solve_affine(a, b)
    assert len(kernel) == 1
    x = [p + rf(s) * k for p, k in zip(particular, kernel[0])]
    for row, rhs in zip(a, b):
        assert sum((c * v for c, v in zip(row, x)), ZERO) == rhs
    with pytest.raises(InconsistentSystem):
        solve_affine([[ONE], [ONE]], [ONE, rf(t)] if t != 1 else [ONE, ZERO])


def test_matrix_inverse():
    inv = matrix_inverse([[MU, ONE], [ZERO, ONE]])
    assert inv[0][0] == ONE / MU
    assert inv[0][1] == -(ONE / MU)
    assert inv[1][0] == ZERO
    assert inv[1][1] == ONE
    with pytest.raises(DegenerateMetric):
        matrix_inverse([[ONE, ONE], [ONE, ONE]])


def test_inertia_signature():
    assert inertia([[1, 0], [0, -1]]) == (1, 1, 0)
    diag = [[Fraction(d) if i == j else Fraction(0) for j in range(5)]
            for i, d in enumerate((1, 1, -1, -1, 1))]
    assert inertia(diag) == (3, 2, 0)
    assert inertia([[0, 0], [0, 0]]) == (0, 0, 2)
    # hyperbolic plane: zero diagonal, nonzero pairing
    assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)


def test_pick_regular_sample():
    assert pick_regular_sample([MU - 1, MU - 2]) == Fraction(3)
    assert pick_regular_sample([ONE / (MU - 1)]) == Fraction(2)
    assert pick_regular_sample([MU], start=5) == Fraction(5)
    # entries that are evaluated must be defined, though they may vanish
    assert pick_regular_sample([ONE], must_be_defined=[ONE / (MU - 1), ZERO]) == 2
    assert pick_regular_sample([MU - 1], must_be_defined=[ONE / (MU - 2)]) == 3
    with pytest.raises(ScalarDomainError):
        (ONE / (MU - 1)).eval_at(1)
