"""The comparison helper: exact verdicts and the residual suffix of a
failing entry; the JSON form of a report."""

import json
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsthl.builtin import example_model
from rsthl.report import (FAIL, PASS, SKIP, CheckEntry, CheckReport, compare,
                          passed, residual_suffix)
from rsthl.scalars import MU, ONE, ZERO, rf
from rsthl.suite import SUITES, run_suite
from rsthl.tensors import Frame, MultilinearForm

import test_properties

F3 = Frame(("e1", "e2", "e3"))


def table(arity, cells):
    """A table on F3, zero except at the given index tuples."""
    return MultilinearForm.from_function(
        F3, arity, lambda *idx: rf(cells.get(idx, 0)))


def test_passing_entry_keeps_its_statement():
    t = table(2, {(0, 1): MU})
    assert compare("x", "eq-1", t, table(2, {(0, 1): MU}), "A = B") == \
        passed("x", "eq-1", "A = B")
    assert compare("x", "eq-1", MU, MU, "a = b").detail == "a = b"
    assert compare("x", "eq-1", (t, ONE), (t, ONE), "pair").status == PASS


def test_scalar_suffix_is_got_minus_want():
    entry = compare("x", "eq-1", MU * 3, MU, "3 mu = mu")
    assert entry.status == FAIL
    assert entry.detail == "3 mu = mu; the residual is 2*mu"
    assert residual_suffix(MU, MU * 3) == "; the residual is -2*mu"


def test_vector_suffix_names_the_frame_label():
    got = MultilinearForm.from_map(F3, {"e1": 1, "e2": 5, "e3": 2})
    want = MultilinearForm.from_map(F3, {"e1": 1, "e2": 2})
    assert residual_suffix(got, want) == \
        "; the residual at (e2) is 3, 2 of 3 components nonzero"


@pytest.mark.parametrize("arity, cells, suffix", [
    (1, {(2,): -1}, "; the residual at (e3) is -1, 1 of 3 components nonzero"),
    (2, {(1, 0): 2, (0, 2): "1/2"},
     "; the residual at (e1, e3) is 1/2, 2 of 9 components nonzero"),
    (3, {(2, 2, 1): 4, (2, 1, 2): 1},
     "; the residual at (e3, e2, e3) is 1, 2 of 27 components nonzero"),
    (4, {(0, 2, 1, 0): -3, (2, 0, 0, 0): 1, (0, 2, 0, 2): 7},
     "; the residual at (e1, e3, e1, e3) is 7, 3 of 81 components nonzero"),
])
def test_table_suffix_at_every_arity(arity, cells, suffix):
    zero = MultilinearForm.zero(F3, arity)
    got = table(arity, cells)
    assert residual_suffix(got, zero) == suffix
    # the residual is got - want, so swapping the sides flips its sign
    flipped = residual_suffix(zero, got)
    value = suffix.split(" is ")[1].split(",")[0]
    assert flipped == suffix.replace(f" is {value},", f" is {-rf(value)},")


def test_tuple_suffix_describes_the_first_differing_pair():
    a, b = table(2, {(0, 0): 1}), table(2, {(1, 1): 1})
    assert residual_suffix((a, MU, b), (a, ZERO, a)) == "; the residual is mu"
    assert residual_suffix((a, MU, b), (a, MU, a)) == \
        "; the residual at (e1, e1) is -1, 2 of 9 components nonzero"


@pytest.mark.parametrize("got, want", [
    (False, True), (3, 4), ((2, 1, 0), (1, 2, 0))])
def test_plain_values_get_no_suffix(got, want):
    entry = compare("x", "eq-1", got, want, "the statement carries the values")
    assert entry.status == FAIL
    assert entry.detail == "the statement carries the values"


sparse_cells = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 3),
    st.sampled_from([rf(1), rf(-2), rf("3/4"), MU, MU * MU - 1]),
    min_size=1, max_size=6)


@given(cells=sparse_cells, base=sparse_cells)
@settings(max_examples=30, deadline=None)
def test_suffix_locates_the_row_major_first_nonzero(cells, base):
    want = table(3, base)
    residual = table(3, cells)
    got = want + residual
    nonzero = [idx for idx in product(range(3), repeat=3)
               if not residual.entry(*idx).is_zero()]
    first = nonzero[0]
    labels = ", ".join(F3.labels[i] for i in first)
    assert residual_suffix(got, want) == (
        f"; the residual at ({labels}) is {residual.entry(*first)}, "
        f"{len(nonzero)} of 27 components nonzero")


def dumped(rep: CheckReport) -> str:
    """The reference JSON form: the json module's own indent encoder."""
    return json.dumps(rep.to_json_obj(), indent=2) + "\n"


@pytest.mark.parametrize("build", [
    example_model, test_properties.reeb_sheared,
    test_properties.screen_radical_mixing, test_properties.degenerate_metric,
    test_properties.doubled_reeb_norm, test_properties.jacobi_violation,
    test_properties.zero_brackets, test_properties.no_submanifold,
], ids=lambda build: build.__name__)
def test_report_json_is_the_json_dumps_text(build):
    model = build()
    for suite in SUITES:
        rep = run_suite(model, suite)
        assert rep.to_json() == dumped(rep), suite


def test_report_json_escapes_strings_as_json_dumps_does():
    assert CheckReport().to_json() == dumped(CheckReport())
    rep = CheckReport([
        CheckEntry('say "x"', "back\\slash", PASS, "tab\there, newline\nthere"),
        CheckEntry("ctrl\x00\x1f\x7f", "eq-1", FAIL, "gr\u00fc\u00df \u221e \U0001d70b"),
        CheckEntry("", "", SKIP, "</script> & 'single'"),
    ])
    assert rep.to_json() == dumped(rep)
    assert json.loads(rep.to_json()) == rep.to_json_obj()
