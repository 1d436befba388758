"""Frames, vectors, component tables and exact linear algebra."""

import ast
import random
import tracemalloc
from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rsthl.errors import (DegenerateMetric, InconsistentSystem,
                          UnderdeterminedSystem)
from rsthl import tensors
from rsthl.scalars import MU, ONE, ZERO, RationalFunction, rf
from rsthl.tensors import (Frame, MultilinearForm, compose,
                           curvature_product, matrix_inverse, onto_frame,
                           outer, solve, solve_combination)

F2 = Frame(("f1", "f2"))
F3 = Frame(("e1", "e2", "e3"))


def operator(*columns):
    """The operator table on F3 sending e_j to the j-th given vector map."""
    cells = [MultilinearForm.from_map(F3, c) for c in columns]
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
    assert F3.basis_vector(0).entries == (ONE, ZERO, ZERO)


def test_vectors_are_arity_one_tables():
    v = MultilinearForm.from_map(F3, {"e2": 3, "e3": MU})
    assert v == MultilinearForm(F3, 1, (ZERO, rf(3), MU))
    assert F3.basis_vector(2) == MultilinearForm(F3, 1, (ZERO, ZERO, ONE))
    assert MultilinearForm.from_map(F3, {}) == MultilinearForm.zero(F3, 1)
    with pytest.raises(KeyError):
        MultilinearForm.from_map(F3, {"e9": 1})
    op = operator({"e2": 1}, {"e1": -1}, {"e3": MU})
    t = sample_table(3)
    for got in (op.cell(1), op.apply(v), t.cell(0, 2), t.apply(v, F3.basis_vector(0))):
        assert (type(got), got.frame, got.arity) == (MultilinearForm, F3, 1)
    assert op.apply(v) == MultilinearForm.from_map(F3, {"e1": -3, "e3": MU * MU})
    # the outer product of two vectors is the arity-2 table u(i) v(j)
    uv = outer(v, F3.basis_vector(0))
    assert uv.arity == 2
    assert uv == MultilinearForm(F3, 2, (ZERO,) * 3 + (rf(3), ZERO, ZERO)
                                 + (MU, ZERO, ZERO))
    # a vector target is solved over vector terms
    assert solve_combination(v, F3.basis_vector(1), F3.basis_vector(2)) == (rf(3), MU)


def test_no_module_defines_or_imports_vector():
    """A vector is an arity-1 MultilinearForm; there is no second type."""
    assert not hasattr(tensors, "Vector")
    package = Path(__file__).resolve().parents[1] / "src" / "rsthl"
    named = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
        names |= {alias.asname or alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) for alias in node.names}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if "Vector" in names:
            named[path.name] = "Vector"
    assert named == {}


def test_vector_arithmetic():
    v = MultilinearForm.from_map(F3, {"e1": 2, "e3": MU})
    w = MultilinearForm.from_map(F3, {"e1": -2})
    assert (v + w).entries == (ZERO, ZERO, MU)
    assert (v - v).is_zero()
    assert (-v).entries == (rf(-2), ZERO, -MU)
    assert v.scale(MU).entries == (2 * MU, ZERO, MU * MU)
    assert MultilinearForm.zero(F3, 1).is_zero()


def test_covector_applies_to_vectors():
    eta = MultilinearForm.from_map(F3, {"e2": 1, "e3": MU})
    v = MultilinearForm.from_map(F3, {"e2": 3, "e3": 1})
    assert eta.value(v) == 3 + MU
    assert not eta.is_zero()
    assert eta.scale(2).value(v) == 6 + 2 * MU


def test_form_entry_value_and_symmetry():
    g = MultilinearForm.from_function(
        F3, 2, lambda i, j: MU if i == j == 0 else (ONE if i == j else ZERO))
    assert g.entry(0, 0) == MU
    assert g == g.permute((1, 0))
    v = MultilinearForm.from_map(F3, {"e1": 1, "e2": 2})
    w = MultilinearForm.from_map(F3, {"e1": 1, "e2": -1})
    # bilinearity over the field: g(v, w) = mu*1 + 2*(-1)
    assert g.value(v, w) == MU - 2
    skew = MultilinearForm.from_function(
        F3, 2, lambda i, j: rf(1) if (i, j) == (0, 1) else ZERO)
    assert skew != skew.permute((1, 0))


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
    assert op.cell(0).entries == (ZERO, ONE, ZERO)
    v = MultilinearForm.from_map(F3, {"e1": 1, "e2": 1})
    assert op.apply(v).entries == (rf(-1), ONE, ZERO)
    sq = op.pull_slots(op, (0,))
    e1 = MultilinearForm.from_map(F3, {"e1": 1})
    assert sq.apply(e1).entries == (rf(-1), ZERO, ZERO)
    assert op.trace() == ZERO
    assert tensors.rank(op.rows()) == 2
    assert tensors.rank(MultilinearForm.identity(F3).rows()) == 3
    assert MultilinearForm.zero(F3, 2).is_zero()
    eta = (ZERO, ZERO, ONE)
    out = MultilinearForm.from_function(F3, 2, lambda j, i: e1.entries[i] * eta[j])
    e3 = MultilinearForm.from_map(F3, {"e3": 2})
    assert out.apply(e3).entries == (rf(2), ZERO, ZERO)
    assert (op - op).is_zero()
    assert (op + (-op)).is_zero()


# Hand-made tables of every arity, with zero entries and mu-dependent ones.
def sample_table(arity):
    return MultilinearForm.from_function(
        F3, arity,
        lambda *idx: rf(sum((s + 1) * i for s, i in enumerate(idx)) % 4 - 1)
        * (MU if idx[0] == 2 else ONE))


SAMPLE_VECTORS = (MultilinearForm.from_map(F3, {"e1": 1, "e3": MU}),
                  MultilinearForm.from_map(F3, {"e1": 2, "e2": -1}),
                  MultilinearForm.from_map(F3, {"e2": 1, "e3": "1/2"}),
                  MultilinearForm.from_map(F3, {"e3": -3}))


def contraction(table, vectors, idx_tail=()):
    """sum over the leading indices of v1_i1 ... vk_ik T(i1, ..., ik, tail)."""
    total = ZERO
    for idx in product(range(3), repeat=len(vectors)):
        coeff = ONE
        for v, i in zip(vectors, idx):
            coeff = coeff * v.entries[i]
        total = total + coeff * table.entry(*idx, *idx_tail)
    return total


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_cell_apply_and_value_follow_the_components(arity):
    t = sample_table(arity)
    for idx in product(range(3), repeat=arity - 1):
        assert t.cell(*idx).entries == tuple(t.entry(*idx, l) for l in range(3))
    leading = SAMPLE_VECTORS[:arity - 1]
    assert t.apply(*leading).entries == tuple(
        contraction(t, leading, (l,)) for l in range(3))
    for n in range(arity):
        partial = t.apply(*SAMPLE_VECTORS[:n])
        assert partial.arity == arity - n
        assert partial.entries == tuple(
            contraction(t, SAMPLE_VECTORS[:n], tail)
            for tail in product(range(3), repeat=arity - n))
    assert t.value(*SAMPLE_VECTORS[:arity]) == contraction(t, SAMPLE_VECTORS[:arity])
    with pytest.raises(ValueError):
        t.apply(*SAMPLE_VECTORS[:arity])
    with pytest.raises(ValueError):
        t.cell(*range(arity))


def test_argument_guards_raise():
    """Each shape guard of the table type, and the type checks that let a
    comparison with another type fall back to Python's default."""
    v, op, t3 = F3.basis_vector(0), MultilinearForm.identity(F3), MultilinearForm.zero(F3, 3)
    for call, message in [
            (lambda: MultilinearForm(F3, 0, ()), "at least one slot"),
            (lambda: MultilinearForm(F3, 2, (ONE,) * 3), "entry count"),
            (lambda: MultilinearForm.from_cells(F3, 2, lambda j: F2.basis_vector(0)),
             "different frames"),
            (lambda: MultilinearForm.from_cells(F3, 3, lambda i, j: op), "a cell is a vector"),
            (lambda: op.entry(0), "index count"),
            (lambda: op.value(v), "argument count"),
            (lambda: t3.pull_slots(v, (0,)), "only an arity-2 table"),
            (lambda: op + t3, "arity mismatch"),
            (lambda: t3.rows(), "arity 2")]:
        with pytest.raises(ValueError, match=message):
            call()
    assert F3 != F3.labels and F3.__eq__(F3.labels) is NotImplemented
    assert v != v.entries and v.__eq__(v.entries) is NotImplemented
    assert repr(F2) == "Frame(labels=('f1', 'f2'))"
    assert repr(F2.basis_vector(1)) == (
        "MultilinearForm(Frame(labels=('f1', 'f2')), 1, {1: RationalFunction(1)})")


def test_composition_by_pull_slots():
    # neither operator is symmetric, and they do not commute
    a = operator({"e1": 1, "e2": 2}, {"e3": 3}, {"e1": MU, "e2": -1})
    b = operator({"e2": 1}, {"e1": -1, "e3": 1}, {"e3": "1/2"})
    assert a != a.permute((1, 0))
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
    return [MultilinearForm(frame, 1, tuple(rf(c) for c in row)) for row in rows]


def test_outer_matches_components():
    u = MultilinearForm(F3, 1, (rf(2), ZERO, MU))
    v = MultilinearForm.from_map(F3, {"e1": -1, "e2": "1/3"})
    for t, left, right in ((outer(u, v), u.entries, v.entries),
                           (outer(v, u), v.entries, u.entries)):
        for i, j in product(range(3), repeat=2):
            assert t.entry(i, j) == left[i] * right[j]
    # a one-form times a vector is the operator X -> u(X) v
    for x in SAMPLE_VECTORS:
        assert outer(u, v).apply(x) == v.scale(u.value(x))
    with pytest.raises(ValueError):
        outer(u, MultilinearForm.zero(F2, 1))


def test_outer_takes_tables_of_any_arity():
    u = table2(F2, [[1, 2], [0, MU]])
    v = MultilinearForm.from_map(F2, {"f1": 3, "f2": "-1/2"})
    uv, vu = outer(u, v), outer(v, u)
    assert uv.arity == vu.arity == 3
    for i, j, k in product(range(2), repeat=3):
        assert uv.entry(i, j, k) == u.entry(i, j) * v.entries[k]
        assert vu.entry(i, j, k) == v.entries[i] * u.entry(j, k)


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


F5 = Frame(("x1", "x2", "x3", "x4", "x5"))
SCALAR_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                    "__rmul__", "__truediv__", "__rtruediv__", "__neg__")


def count_scalar_operators(monkeypatch) -> list:
    """A list that gains one item per RationalFunction operator call."""
    calls = []
    for name in SCALAR_OPERATORS:
        def counted(*args, _op=getattr(RationalFunction, name)):
            calls.append(_op.__name__)
            return _op(*args)
        monkeypatch.setattr(RationalFunction, name, counted)
    return calls


def sparse_table(rng, count):
    """A 625-entry arity-4 table on F5 with at most count nonzero entries."""
    values = (ONE, rf(-2), MU, ONE / (MU + 1), rf("1/3") * MU + 1)
    entries = [ZERO] * 5 ** 4
    for _ in range(count):
        entries[rng.randrange(len(entries))] = rng.choice(values)
    return MultilinearForm(F5, 4, tuple(entries))


@pytest.mark.parametrize("seed", range(4))
def test_table_sums_spend_no_operator_on_zero_entries(monkeypatch, seed):
    rng = random.Random(seed)
    a = sparse_table(rng, 30)
    b = a if seed == 0 else sparse_table(rng, 20 * seed)
    k = sum(1 for t in (a, b) for c in t.entries if not c.is_zero())
    want_sum = tuple(x + y for x, y in zip(a.entries, b.entries))
    want_diff = tuple(x - y for x, y in zip(a.entries, b.entries))
    calls = count_scalar_operators(monkeypatch)
    got_sum = a + b
    assert len(calls) <= k
    calls.clear()
    got_diff = a - b
    assert len(calls) <= k
    assert got_sum.entries == want_sum
    assert got_diff.entries == want_diff


def test_scaling_a_zero_table_spends_no_operator(monkeypatch):
    zero = MultilinearForm.zero(F5, 4)
    table = sparse_table(random.Random(7), 10)
    calls = count_scalar_operators(monkeypatch)
    assert zero.scale(MU) == zero
    assert table.scale(0) == zero
    assert calls == []
    assert -zero == zero
    assert calls == []
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
    assert a != a.permute((1, 0)) and b != b.permute((1, 0))
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


def leibniz(rows):
    """The determinant as the signed sum over permutations."""
    total = ZERO
    for perm in permutations(range(len(rows))):
        inversions = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
                         if perm[i] > perm[j])
        term = ONE
        for i, p in enumerate(perm):
            term = term * rows[i][p]
        total = total - term if inversions % 2 else total + term
    return total


# Entries that vanish, cancel, repeat and mix constants with powers of mu.
SOLVER_ENTRIES = (ZERO, ONE, -ONE, rf(2), rf(-2), MU, -MU, MU * MU, MU + 1)


def matrices(rows, cols):
    return st.lists(st.lists(st.sampled_from(SOLVER_ENTRIES), min_size=cols,
                             max_size=cols), min_size=rows, max_size=rows)


def largest_nonzero_minor(rows):
    """The size of the largest square submatrix with a nonzero Leibniz
    determinant."""
    for size in range(min(len(rows), len(rows[0])), 0, -1):
        for picked in combinations(rows, size):
            for cols in combinations(range(len(rows[0])), size):
                if not leibniz([[row[c] for c in cols] for row in picked]).is_zero():
                    return size
    return 0


@given(data=st.data(), n=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_inverse_is_an_inverse_or_the_matrix_is_singular(data, n):
    rows = data.draw(matrices(n, n))
    if leibniz(rows).is_zero():
        with pytest.raises(DegenerateMetric, match="matrix is singular"):
            matrix_inverse(rows)
        return
    inv = matrix_inverse(rows)
    for i, j in product(range(n), repeat=2):
        total = sum((inv[i][m] * rows[m][j] for m in range(n)), ZERO)
        assert total == (ONE if i == j else ZERO)


@given(data=st.data(), n=st.integers(1, 4), m=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_rank_is_the_largest_nonzero_minor(data, n, m):
    rows = data.draw(matrices(n, m))
    assert tensors.rank(rows) == largest_nonzero_minor(rows)


@given(data=st.data(), n=st.integers(1, 4), m=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_solve_affine_satisfies_the_system(data, n, m):
    """solve raises exactly when b lies outside the column span of A, and
    otherwise returns a solution of A x = b and the rank of A."""
    a = data.draw(matrices(n, m))
    b = data.draw(st.lists(st.sampled_from(SOLVER_ENTRIES), min_size=n, max_size=n))
    consistent = tensors.rank(a) == tensors.rank([row + [bv] for row, bv in zip(a, b)])
    if not consistent:
        with pytest.raises(InconsistentSystem, match="linear system has no solution"):
            solve(a, b)
        return
    x, r = solve(a, b)
    assert r == largest_nonzero_minor(a)
    for row, bv in zip(a, b):
        assert sum((c * xv for c, xv in zip(row, x)), ZERO) == bv


def test_solve_unique():
    """Full rank gives the one solution; a dependent consistent system
    gives rank 1 and its free variable zero."""
    a = [[ONE, ONE], [ONE, -ONE]]
    (x, y), r = solve(a, [MU, ONE])
    assert (x, y, r) == ((MU + 1) / 2, (MU - 1) / 2, 2)
    with pytest.raises(InconsistentSystem):
        solve([[ONE, ONE], [ONE, ONE]], [ZERO, ONE])
    assert solve([[ONE, ONE], [2 * ONE, 2 * ONE]], [ONE, rf(2)]) == ((ONE, ZERO), 1)


def test_solve_combination_of_vectors_and_tables():
    v = MultilinearForm.from_map(F3, {"e1": 1, "e3": MU})
    w = MultilinearForm.from_map(F3, {"e2": 1})
    assert solve_combination(v.scale(MU - 1), v) == (MU - 1,)
    assert solve_combination(v.scale(2) - w, v, w) == (rf(2), rf(-1))
    g = MultilinearForm.identity(F3)
    ee = outer(MultilinearForm(F3, 1, (ZERO, ZERO, ONE)),
               MultilinearForm(F3, 1, (ZERO, ZERO, ONE)))
    assert solve_combination(g.scale(MU), g) == (MU,)
    assert solve_combination(g.scale(3) + ee.scale(MU), g, ee) == (rf(3), MU)
    with pytest.raises(InconsistentSystem):
        solve_combination(w, v)
    with pytest.raises(InconsistentSystem):
        solve_combination(g.permute((1, 0)) + operator({"e2": 1}, {}, {}), g, ee)
    with pytest.raises(UnderdeterminedSystem):
        solve_combination(v, v, v.scale(MU))
    with pytest.raises(UnderdeterminedSystem):
        solve_combination(MultilinearForm.zero(F3, 2), MultilinearForm.zero(F3, 2))
    with pytest.raises(ValueError):
        solve_combination(v, g)


V = MultilinearForm.from_map(F3, {"e1": 1, "e3": MU})
W = MultilinearForm.from_map(F3, {"e2": 1})


@pytest.mark.parametrize("target, basis", [
    (W, (V, V)),
    (W, (V, V.scale(MU))),
    (V, (MultilinearForm.zero(F3, 1), W)),
    (V + MultilinearForm.from_map(F3, {"e3": 1}), (V.scale(2), V, W)),
], ids=["repeated", "multiple", "zero-table", "three-dependent"])
def test_solve_combination_rejects_targets_outside_a_dependent_span(target, basis):
    with pytest.raises(InconsistentSystem, match="^linear system has no solution$"):
        solve_combination(target, *basis)


# Half the drawn components vanish, so dependent bases and targets outside
# the span turn up often.
SPARSE_ENTRIES = st.one_of(st.just(ZERO), st.sampled_from(SOLVER_ENTRIES))


@given(data=st.data(), arity=st.integers(1, 2), k=st.integers(1, 3),
       dependent=st.booleans(), bump=st.booleans())
@settings(max_examples=80, deadline=None)
def test_solve_combination_against_the_minor_oracle(data, arity, k, dependent, bump):
    """InconsistentSystem exactly when the target lies outside the span of
    the basis, UnderdeterminedSystem exactly when it lies inside the span
    of a dependent basis, and otherwise coefficients that rebuild the
    target table exactly."""
    size = F3.dimension ** arity

    def table():
        return MultilinearForm(F3, arity, tuple(data.draw(
            st.lists(SPARSE_ENTRIES, min_size=size, max_size=size))))

    def combination(tables, coeffs):
        return sum((t.scale(c) for t, c in zip(tables, coeffs)),
                   MultilinearForm.zero(F3, arity))

    def scalars(n):
        return data.draw(st.lists(st.sampled_from(SOLVER_ENTRIES), min_size=n, max_size=n))

    basis = [table() for _ in range(k)]
    if dependent and k > 1:
        basis[-1] = combination(basis[:-1], scalars(k - 1))
    target = combination(basis, scalars(k))
    if bump:
        at = data.draw(st.integers(0, size - 1))
        moved = list(target.entries)
        moved[at] = moved[at] + data.draw(st.sampled_from(SOLVER_ENTRIES[1:]))
        target = MultilinearForm(F3, arity, tuple(moved))
    a = [[b.entries[off] for b in basis] for off in range(size)]
    rank_a = largest_nonzero_minor(a)
    in_span = rank_a == largest_nonzero_minor(
        [row + [t] for row, t in zip(a, target.entries)])
    if not in_span:
        with pytest.raises(InconsistentSystem):
            solve_combination(target, *basis)
    elif rank_a < k:
        with pytest.raises(UnderdeterminedSystem):
            solve_combination(target, *basis)
    else:
        assert combination(basis, solve_combination(target, *basis)) == target


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_solve_affine_particular_solution(s, t):
    """One solution of an underdetermined system, its free variable zero."""
    a = [[ONE, ONE, ZERO], [ZERO, ZERO, ONE]]
    assert solve(a, [rf(s), rf(t)]) == ((rf(s), ZERO, rf(t)), 2)
    with pytest.raises(InconsistentSystem):
        solve([[ONE], [ONE]], [ONE, rf(t)] if t != 1 else [ONE, ZERO])


def test_matrix_inverse():
    inv = matrix_inverse([[MU, ONE], [ZERO, ONE]])
    assert inv[0][0] == ONE / MU
    assert inv[0][1] == -(ONE / MU)
    assert inv[1][0] == ZERO
    assert inv[1][1] == ONE
    with pytest.raises(DegenerateMetric):
        matrix_inverse([[ONE, ONE], [ONE, ONE]])


def test_only_tensors_eliminates():
    """The elimination stays private to tensors.py."""
    private = {"_reduce"}
    package = Path(__file__).resolve().parents[1] / "src" / "rsthl"
    leaks = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "tensors.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
        names |= {node.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)}
        if names & private:
            leaks[path.name] = sorted(names & private)
    assert leaks == {}


# --- sparse kernels against dense references ------------------------------

# Values with opposite pairs, so sums and contractions cancel often.
CANCELLING = (ONE, -ONE, rf(2), MU, -MU, ONE / (MU + 1))


def tables(arity, max_size=10):
    """Tables on F3 with up to max_size nonzero entries."""
    return st.dictionaries(
        st.integers(0, 3 ** arity - 1), st.sampled_from(CANCELLING),
        max_size=max_size).map(lambda cells: MultilinearForm(
            F3, arity, tuple(cells.get(off, ZERO) for off in range(3 ** arity))))


def reference(arity, fn):
    """The F3 table whose entry at idx is fn(*idx), from entry() loops."""
    return MultilinearForm.from_function(F3, arity, fn)


def assert_canonical(*results):
    """No kernel stores a zero, so equality stays a comparison of maps."""
    for t in results:
        assert all(not c.is_zero() for c in t.nonzero.values())


def total(terms):
    return sum(terms, ZERO)


@given(data=st.data(), arity=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_entrywise_kernels_match_dense_references(data, arity):
    a = data.draw(tables(arity))
    free = data.draw(tables(arity))
    sign = data.draw(st.sampled_from((ZERO, ONE, -ONE)))
    # b repeats a (or its negative) off its own cells: a + b or a - b cancels
    b = MultilinearForm(F3, arity, tuple(
        y if not y.is_zero() else sign * x for x, y in zip(a.entries, free.entries)))
    s = data.draw(st.sampled_from(CANCELLING + (ZERO,)))
    order = tuple(data.draw(st.permutations(range(arity))))
    got = {"sum": a + b, "difference": a - b, "negative": -a, "scaled": a.scale(s),
           "permuted": a.permute(order)}
    want = {
        "sum": reference(arity, lambda *i: a.entry(*i) + b.entry(*i)),
        "difference": reference(arity, lambda *i: a.entry(*i) - b.entry(*i)),
        "negative": reference(arity, lambda *i: -a.entry(*i)),
        "scaled": reference(arity, lambda *i: s * a.entry(*i)),
        "permuted": reference(arity, lambda *i: a.entry(*(i[o] for o in order))),
    }
    if arity >= 2:
        for i in range(3):
            got[f"at {i}"] = a.at(i)
            want[f"at {i}"] = MultilinearForm.from_function(
                F3, arity - 1, lambda *rest: a.entry(i, *rest))
        for idx in product(range(3), repeat=arity - 1):
            got[f"cell {idx}"] = a.cell(*idx)
            want[f"cell {idx}"] = reference(1, lambda l: a.entry(*idx, l))
    for name in want:
        assert got[name].entries == want[name].entries, name
        assert got[name] == want[name], name
    assert_canonical(*got.values())
    assert a + (-a) == MultilinearForm.zero(F3, arity)
    assert (a + (-a)).nonzero == {} and (a - a).nonzero == {}


@given(data=st.data(), arity=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_contracting_kernels_match_dense_references(data, arity):
    t = data.draw(tables(arity))
    vs = [data.draw(tables(1, max_size=3)) for _ in range(arity)]
    op = data.draw(tables(2, max_size=6))
    slots = sorted(data.draw(st.sets(st.integers(0, arity - 1))))
    assert t.value(*vs) == contraction(t, vs)
    if arity >= 2:
        applied = t.apply(*vs[:-1])
        assert applied.entries == tuple(contraction(t, vs[:-1], (l,)) for l in range(3))
        assert_canonical(applied)

    def pulled(*idx):
        """T(.., op X_s, ..) summed over the components a_s of op e_(i_s)."""
        terms = []
        for subs in product(range(3), repeat=len(slots)):
            coeff, moved = ONE, list(idx)
            for s, a in zip(slots, subs):
                coeff = coeff * op.entry(idx[s], a)
                moved[s] = a
            terms.append(coeff * t.entry(*moved))
        return total(terms)

    got = t.pull_slots(op, slots)
    assert got == reference(arity, pulled)
    assert_canonical(got)


@given(data=st.data(), left=st.integers(1, 3), right=st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_product_kernels_match_dense_references(data, left, right):
    u, v = data.draw(tables(left)), data.draw(tables(right))
    got = outer(u, v)
    assert got == reference(left + right, lambda *i: u.entry(*i[:left]) * v.entry(*i[left:]))
    assert_canonical(got)
    if left + right >= 3:
        got = compose(u, v)
        assert got == reference(left + right - 2, lambda *i: total(
            u.entry(*i[:left - 1], m) * v.entry(m, *i[left - 1:]) for m in range(3)))
        assert_canonical(got)
    a, b = data.draw(tables(2)), data.draw(tables(2))
    got = curvature_product(a, b)
    assert got == reference(4, lambda i, j, k, l: b.entry(j, k) * a.entry(i, l)
                            - b.entry(i, k) * a.entry(j, l))
    assert_canonical(got)


@given(data=st.data(), arity=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_onto_frame_matches_the_component_reading(data, arity):
    """F3 tables onto the two labels of F2: the components with every index
    below 2, then for arity >= 2 those with last index 2, that index
    dropped.  A leading index 2, or a last one in a vector, is outside."""
    def out_of_f2(idx):
        return 2 in idx[:-1] or arity == 1 and idx == (2,)

    t = data.draw(tables(arity))
    if data.draw(st.booleans()):
        t = MultilinearForm.from_function(
            F3, arity, lambda *i: ZERO if out_of_f2(i) else t.entry(*i))
    outside = [idx for idx in product(range(3), repeat=arity)
               if out_of_f2(idx) and not t.entry(*idx).is_zero()]
    if outside:
        with pytest.raises(ValueError):
            onto_frame(t, F2)
        return
    got = onto_frame(t, F2)
    want = (MultilinearForm.from_function(F2, arity, t.entry),)
    if arity >= 2:
        want += (MultilinearForm.from_function(F2, arity - 1,
                                               lambda *i: t.entry(*i, 2)),)
    assert got == want
    assert_canonical(*got)


# --- re-indexing in any dimension, against dense index loops ---------------


def labeled(dim):
    return Frame(tuple(f"x{i}" for i in range(dim)))


def dense(dim, arity, cells):
    """The row-major entry tuple of the cells {index tuple: value}, read off
    itertools.product alone."""
    return tuple(cells.get(idx, ZERO) for idx in product(range(dim), repeat=arity))


def index_cells(draw, dim, arity, allowed, max_size=12):
    return draw(st.dictionaries(
        st.tuples(*[st.integers(0, dim - 1)] * arity).filter(allowed),
        st.sampled_from(CANCELLING), max_size=max_size))


@given(data=st.data(), dim=st.integers(1, 6), arity=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_permute_in_any_dimension_matches_index_loops(data, dim, arity):
    cells = index_cells(data.draw, dim, arity, lambda idx: True)
    t = MultilinearForm(labeled(dim), arity, dense(dim, arity, cells))
    for order in permutations(range(arity)):
        # entry (i_0, ..., i_(k-1)) of the result is entry (i_order[0], ...)
        want = {idx: cells[src] for idx in product(range(dim), repeat=arity)
                if (src := tuple(idx[o] for o in order)) in cells}
        assert t.permute(order).entries == dense(dim, arity, want), order


@given(data=st.data(), dim=st.integers(2, 6), arity=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_onto_frame_in_any_dimension_matches_index_loops(data, dim, arity):
    """Onto the first m < dim labels: the cells with every index below m,
    then per last index r >= m the cells with leading indices below m, r
    dropped.  One more cell outside both raises ValueError."""
    m = data.draw(st.integers(1, dim - 1))

    def inside(idx):
        return all(i < m for i in idx[:-1]) and (arity > 1 or idx[0] < m)

    cells = index_cells(data.draw, dim, arity, inside)
    t = MultilinearForm(labeled(dim), arity, dense(dim, arity, cells))
    if data.draw(st.booleans()):
        stray = data.draw(st.tuples(*[st.integers(0, dim - 1)] * arity).filter(
            lambda idx: not inside(idx)))
        with pytest.raises(ValueError):
            onto_frame(MultilinearForm(labeled(dim), arity,
                                       dense(dim, arity, {**cells, stray: ONE})), labeled(m))
    got = onto_frame(t, labeled(m))
    want = [dense(m, arity, {idx: c for idx, c in cells.items() if max(idx) < m})]
    if arity > 1:
        want += [dense(m, arity - 1, {idx[:-1]: c for idx, c in cells.items()
                                      if idx[-1] == r}) for r in range(m, dim)]
    assert [part.entries for part in got] == want
    assert all(part.frame == labeled(m) for part in got)
    assert [part.arity for part in got] == [arity] + [arity - 1] * (len(want) - 1)


def test_reindexing_a_sparse_table_costs_no_dense_offset_table():
    """A 10-entry arity-4 table over 31 labels permutes and splits onto 30
    labels within a 4 MB traced peak; a dense offset table for it would
    hold 31^4 = 923,521 offsets per order."""
    big = labeled(31)
    e = big.basis_vector
    t = MultilinearForm.zero(big, 4)
    for i in range(10):
        t = t + outer(outer(e(i), e(i + 1)), outer(e(i + 2), e(30 if i % 2 else i + 3)))
    tracemalloc.start()
    try:
        moved = [t.permute(order) for order in ((1, 0, 2, 3), (3, 1, 0, 2))]
        parts = onto_frame(t, labeled(30))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000
    assert [len(p.nonzero) for p in moved + list(parts)] == [10, 10, 5, 5]


def test_compose_substitutes_values_into_the_first_slot():
    op = operator({"e1": 1, "e2": 2}, {"e3": 3}, {"e1": MU, "e2": -1})
    v = SAMPLE_VECTORS[0]
    assert compose(v, op) == op.apply(v)
    # an operator after an operator: compose(a, b) is b after a, as pull_slots
    assert compose(op, sample_table(2)) == sample_table(2).pull_slots(op, (0,))
    with pytest.raises(ValueError):
        compose(v, v)


def test_zero_tables_spend_no_operator_in_pull_and_permute(monkeypatch):
    zero = MultilinearForm.zero(F5, 4)
    op = MultilinearForm.from_function(F5, 2, lambda i, j: rf(i - j + 1))
    calls = count_scalar_operators(monkeypatch)
    assert zero.pull_slots(op, range(4)) == zero
    assert zero.pull_all(op).nonzero == {}
    assert zero.permute((3, 1, 0, 2)) == zero
    assert calls == []
