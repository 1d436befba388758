"""The built-in worked model: a solvable factor times a central line.

The five-dimensional ambient algebra is a four-dimensional solvable
factor spanned by X1..X4 with a central direction E added.  The factor
carries an anti-commuting complex structure J; the ambient structure is
J extended by zero, with E as the distinguished unit direction.  The
submanifold frame uses the screen {X2, X4}, the null radical direction
mu*(E - X3) and the null transversal X1.

The source for the factor fixes the connection table but leaves the
metric signs ambiguous, so the signs are adjudicated here: exactly one
candidate reproduces the fixed connection table and anti-commutes with J
in the metric sense.
"""

from __future__ import annotations

from functools import cache

from . import report
from .liegeom import InvariantMetric, bracket_table, levi_civita
from .model import ModelFile, model_from_json_obj
from .tensors import Frame, MultilinearForm

FACTOR_LABELS = ("X1", "X2", "X3", "X4")
AMBIENT_LABELS = ("X1", "X2", "X3", "X4", "E")

# [X1,X2] = -2 X4, [X1,X4] = 2 X2, [X2,X3] = -2 X2, [X3,X4] = 2 X4
FACTOR_BRACKETS = {
    "X1,X2": {"X4": -2},
    "X1,X4": {"X2": 2},
    "X2,X3": {"X2": -2},
    "X3,X4": {"X4": 2},
}

# J X1 = X3, J X2 = X4, J X3 = -X1, J X4 = -X2
FACTOR_J = {
    "X1": {"X3": 1},
    "X2": {"X4": 1},
    "X3": {"X1": -1},
    "X4": {"X2": -1},
}

# The fixed connection table of the factor: nabla_{row} column.
# Directions X1 and X3 are flat; only X2 and X4 act.
EXPECTED_FACTOR_TABLE = {
    ("X2", "X1"): {"X4": 2},
    ("X2", "X2"): {"X3": -2},
    ("X2", "X3"): {"X2": -2},
    ("X2", "X4"): {"X1": 2},
    ("X4", "X1"): {"X2": -2},
    ("X4", "X2"): {"X1": 2},
    ("X4", "X3"): {"X4": -2},
    ("X4", "X4"): {"X3": 2},
}

SIGN_CANDIDATES = ((1, 1, -1, -1), (1, -1, 1, -1))


def factor_algebra() -> MultilinearForm:
    frame = Frame(FACTOR_LABELS)
    table = {}
    for key, entries in FACTOR_BRACKETS.items():
        li, lj = key.split(",")
        table[(li, lj)] = entries
    return bracket_table(frame, table)


def _factor_j(frame: Frame) -> MultilinearForm:
    return MultilinearForm.from_cells(
        frame, 2,
        lambda j: MultilinearForm.from_map(frame, FACTOR_J.get(frame.labels[j], {})))


@cache
def factor_signature_entry() -> report.CheckEntry:
    """Adjudicates the factor metric signs against the fixed data.

    Of the two listed diagonal sign patterns, the first must reproduce the
    fixed connection table and anti-commute with J, and the second must
    fail at least one of the two; the overall sign is not decided (-g has
    the same connection and anti-compatibility).  The verdict depends on
    built-in constants only, so it is derived once per process.
    """
    brackets = factor_algebra()
    frame = brackets.frame
    j_op = _factor_j(frame)
    expected = MultilinearForm.from_cells(
        frame, 3, lambda i, j: MultilinearForm.from_map(
            frame, EXPECTED_FACTOR_TABLE.get((frame.labels[i], frame.labels[j]), {})))
    verdicts = []
    for signs in SIGN_CANDIDATES:
        metric = InvariantMetric.diagonal(frame, signs)
        # the connection table is the fixed one, and g(JX, JY) = -g(X, Y)
        verdicts.append((levi_civita(brackets, metric) == expected,
                         metric.form.pull_all(j_op) == -metric.form))
    first_ok = verdicts[0] == (True, True)
    second_out = verdicts[1] != (True, True)
    detail = (
        f"signs {SIGN_CANDIDATES[0]}: table={verdicts[0][0]}, "
        f"anti-compatibility={verdicts[0][1]}; "
        f"signs {SIGN_CANDIDATES[1]}: table={verdicts[1][0]}, "
        f"anti-compatibility={verdicts[1][1]}"
    )
    if first_ok and second_out:
        return report.passed("factor-signature", "example-4.7", detail)
    return report.failed("factor-signature", "example-4.7", detail)


def example_model(mu=None) -> ModelFile:
    """The worked model, symbolic in mu by default.

    Passing a nonzero rational (an int, a ``Fraction`` or a constant
    scalar, each read through ``str``) specializes every scalar at that
    value and drops the parameter declaration.
    """

    def s(text: str) -> str:
        if mu is None:
            return text
        return text.replace("mu", f"({mu})")

    obj = {
        "frame": {"labels": list(AMBIENT_LABELS)},
        "parameters": [] if mu is not None else ["mu"],
        "brackets": {key: dict(val) for key, val in FACTOR_BRACKETS.items()},
        "metric": {
            "X1,X1": 1,
            "X2,X2": 1,
            "X3,X3": -1,
            "X4,X4": -1,
            "E,E": 1,
        },
        "structure": {
            "phi": {src: dict(val) for src, val in FACTOR_J.items()},
            "xi": {"E": 1},
            "eta": {"E": 1},
        },
        "submanifold": {
            "screen": {"E1": {"X2": 1}, "E2": {"X4": 1}},
            "xi": {"X3": s("-mu"), "E": s("mu")},
            "L": {"X1": 1},
        },
    }
    return model_from_json_obj(obj)
