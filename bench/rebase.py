"""Rewrite the worked model in seeded, invertible rational frames.

This module is the input generator of the ``rebased`` workload.  It is
deliberately independent of ``rsthl``: the worked model is restated here
from the catalog (``docs/identities.md``, section ``example-4.7``) and the
change of frame uses exact ``Fraction`` arithmetic on scalars that are at
most linear in ``mu``.  The same seed gives byte-identical model files.

A change of frame is an invertible matrix ``P`` whose column ``a`` holds
the old coordinates of the new basis vector ``e'_a``.  Brackets, metric,
structure operator, Reeb data and submanifold vectors are transported
exactly, so every identity the engine checks holds in the new frame too.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

LABELS = ("X1", "X2", "X3", "X4", "E")
NEW_LABELS = ("Y1", "Y2", "Y3", "Y4", "Y5")
DIM = len(LABELS)
REEB = LABELS.index("E")

# A scalar is a pair (c0, c1) meaning c0 + c1 * mu.
_ZERO = (Fraction(0), Fraction(0))


def _lin(c0=0, c1=0):
    return (Fraction(c0), Fraction(c1))


def _vec(entries: dict) -> list:
    out = [_ZERO] * DIM
    for label, value in entries.items():
        out[LABELS.index(label)] = value if isinstance(value, tuple) else _lin(value)
    return out


def worked_model() -> dict:
    """The example-4.7 data in the old frame, as linear-in-mu scalars.

    Brackets map an ordered pair (i, j) to the vector [e_i, e_j]; phi is
    given by columns.
    """
    brackets = {
        (0, 1): _vec({"X4": -2}),
        (0, 3): _vec({"X2": 2}),
        (1, 2): _vec({"X2": -2}),
        (2, 3): _vec({"X4": 2}),
    }
    metric = [[_ZERO] * DIM for _ in range(DIM)]
    for i, sign in enumerate((1, 1, -1, -1, 1)):
        metric[i][i] = _lin(sign)
    phi_columns = [
        _vec({"X3": 1}), _vec({"X4": 1}), _vec({"X1": -1}), _vec({"X2": -1}),
        _vec({}),
    ]
    return {
        "brackets": brackets,
        "metric": metric,
        "phi": phi_columns,
        "xi": _vec({"E": 1}),
        "eta": _vec({"E": 1}),
        "screen": {"E1": _vec({"X2": 1}), "E2": _vec({"X4": 1})},
        "rad": _vec({"X3": _lin(0, -1), "E": _lin(0, 1)}),
        "L": _vec({"X1": 1}),
    }


def _mul(a, b):
    if a[1] and b[1]:
        raise ValueError("product of two mu-dependent scalars is not linear")
    return (a[0] * b[0], a[0] * b[1] + a[1] * b[0])


def _add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def _combine(coeffs, vectors) -> list:
    """sum_k coeffs[k] * vectors[k] for constant coeffs."""
    out = [_ZERO] * DIM
    for c, v in zip(coeffs, vectors):
        if c:
            out = [_add(o, _mul((c, Fraction(0)), x)) for o, x in zip(out, v)]
    return out


def _apply(matrix, v) -> list:
    """matrix (rows of constants) times the linear-in-mu column v."""
    out = []
    for row in matrix:
        acc = _ZERO
        for c, x in zip(row, v):
            if c:
                acc = _add(acc, _mul((c, Fraction(0)), x))
        out.append(acc)
    return out


def determinant(rows) -> Fraction:
    """Exact determinant by fraction-valued Gaussian elimination."""
    m = [list(map(Fraction, row)) for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def inverse(rows) -> list:
    """Exact inverse by Gauss-Jordan elimination; rejects singular input."""
    n = len(rows)
    m = [list(map(Fraction, row)) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            raise ValueError("singular frame: the change of basis is not invertible")
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def transform(p) -> dict:
    """The worked model in the frame whose basis vectors are the columns of p.

    Raises ValueError for a singular p, or when the transported metric is
    not symmetric and nondegenerate.
    """
    p = [[Fraction(x) for x in row] for row in p]
    p_inv = inverse(p)
    cols = [[p[i][a] for i in range(DIM)] for a in range(DIM)]
    old = worked_model()

    def bracket_old(i, j):
        if i == j:
            return [_ZERO] * DIM
        if (i, j) in old["brackets"]:
            return old["brackets"][(i, j)]
        if (j, i) in old["brackets"]:
            return [(-x[0], -x[1]) for x in old["brackets"][(j, i)]]
        return [_ZERO] * DIM

    brackets = {}
    for a in range(DIM):
        for b in range(a + 1, DIM):
            acc = [_ZERO] * DIM
            for i in range(DIM):
                for j in range(DIM):
                    c = cols[a][i] * cols[b][j]
                    if c:
                        acc = _combine((Fraction(1), c), (acc, bracket_old(i, j)))
            brackets[(a, b)] = _apply(p_inv, acc)

    metric = [[sum((cols[a][i] * old["metric"][i][j][0] * cols[b][j]
                    for i in range(DIM) for j in range(DIM)), Fraction(0))
               for b in range(DIM)] for a in range(DIM)]
    if any(metric[a][b] != metric[b][a] for a in range(DIM) for b in range(DIM)):
        raise ValueError("the transported metric is not symmetric")
    if determinant(metric) == 0:
        raise ValueError("the transported metric is degenerate")

    def phi_old(v):
        return _combine([x[0] for x in v], old["phi"])

    phi = [_apply(p_inv, phi_old([(c, Fraction(0)) for c in cols[b]]))
           for b in range(DIM)]
    eta = [sum((old["eta"][i][0] * cols[a][i] for i in range(DIM)), Fraction(0))
           for a in range(DIM)]
    return {
        "brackets": brackets,
        "metric": metric,
        "phi": phi,
        "xi": _apply(p_inv, old["xi"]),
        "eta": eta,
        "screen": {k: _apply(p_inv, v) for k, v in old["screen"].items()},
        "rad": _apply(p_inv, old["rad"]),
        "L": _apply(p_inv, old["L"]),
    }


def random_frame(rng: random.Random) -> list:
    """A seeded invertible frame matrix: a Reeb shear with seeded signs.

    The diagonal and the Reeb row are +1 or -1 and every other entry is
    zero, so e'_a = +-e_a +- E: every new basis vector has a component
    along the Reeb direction and no frame pair is orthogonal to it.  The
    sparsity pattern is fixed and only the signs are drawn, so frames of
    different seeds have the same zero pattern and cost the same to check.
    Singular draws are redrawn.
    """
    pattern = [(i, i) for i in range(DIM)] + [(REEB, j) for j in range(DIM) if j != REEB]
    while True:
        p = [[Fraction(0)] * DIM for _ in range(DIM)]
        for i, j in pattern:
            p[i][j] = Fraction(rng.choice((1, -1)))
        if determinant(p) != 0:
            return p


def _fmt_fraction(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_scalar(s) -> str:
    """A linear-in-mu scalar in the model-file grammar, e.g. '-3/4*mu + 1/2'."""
    c0, c1 = s if isinstance(s, tuple) else (Fraction(s), Fraction(0))
    parts = []
    if c1:
        parts.append("mu" if c1 == 1 else "-mu" if c1 == -1
                     else f"{_fmt_fraction(c1)}*mu")
    if c0 or not parts:
        if parts and c0 > 0:
            parts.append(f"+ {_fmt_fraction(c0)}")
        elif parts:
            parts.append(f"- {_fmt_fraction(-c0)}")
        else:
            parts.append(_fmt_fraction(c0))
    return " ".join(parts)


def _is_zero(s) -> bool:
    return not (s[0] or s[1]) if isinstance(s, tuple) else not s


def _vector_obj(v) -> dict:
    return {NEW_LABELS[i]: fmt_scalar(x) for i, x in enumerate(v) if not _is_zero(x)}


def model_json(data: dict) -> str:
    """Serialize transported data as a model file, in a fixed key order."""
    obj = {
        "frame": {"labels": list(NEW_LABELS)},
        "parameters": ["mu"],
        "brackets": {f"{NEW_LABELS[a]},{NEW_LABELS[b]}": _vector_obj(v)
                     for (a, b), v in sorted(data["brackets"].items())
                     if any(not _is_zero(x) for x in v)},
        "metric": {f"{NEW_LABELS[a]},{NEW_LABELS[b]}": fmt_scalar(data["metric"][a][b])
                   for a in range(DIM) for b in range(a, DIM)
                   if data["metric"][a][b]},
        "structure": {
            "phi": {NEW_LABELS[b]: _vector_obj(col)
                    for b, col in enumerate(data["phi"])
                    if any(not _is_zero(x) for x in col)},
            "xi": _vector_obj(data["xi"]),
            "eta": {NEW_LABELS[a]: fmt_scalar(x)
                    for a, x in enumerate(data["eta"]) if x},
        },
        "submanifold": {
            "screen": {k: _vector_obj(v) for k, v in data["screen"].items()},
            "xi": _vector_obj(data["rad"]),
            "L": _vector_obj(data["L"]),
        },
    }
    return json.dumps(obj, indent=2) + "\n"


def rebased_models(seed: int, count: int) -> list[str]:
    """count model files (as text) in seeded frames; see random_frame."""
    rng = random.Random(f"rebased:{seed}")
    return [model_json(transform(random_frame(rng))) for _ in range(count)]
