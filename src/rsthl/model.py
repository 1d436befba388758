"""Loading and saving invariant models as JSON files.

A model file carries a frame, structure constants, a metric, the contact
structure data and optionally a submanifold frame.  Scalars are strings
in the exact scalar grammar, or integers, all charged to one SizeBudget.
The reader takes the top keys, frame, parameters, brackets, metric,
structure and submanifold in that order; a schema violation raises
ModelError naming the path of the first fault in that order.
"""

from __future__ import annotations

import json
from functools import partial
from typing import Optional

from .errors import ModelError, ScalarParseError
from .scalars import RationalFunction, SizeBudget, ZERO
from .tensors import Frame, MultilinearForm

_TOP_KEYS = ("frame", "parameters", "brackets", "metric", "structure", "submanifold")
_SUPPORTED_PARAMETERS = ("mu",)


class SubmanifoldData:
    """Raw frame data of a submanifold: screen basis, radical, transversals,
    each vector an arity-1 table.  Equal when every field is."""

    __slots__ = ("screen_labels", "screen", "rad", "l_vec", "n_vec")

    def __init__(self, screen_labels: tuple[str, ...],
                 screen: tuple[MultilinearForm, ...], rad: MultilinearForm,
                 l_vec: MultilinearForm, n_vec: Optional[MultilinearForm]):
        self.screen_labels = screen_labels
        self.screen = screen
        self.rad = rad
        self.l_vec = l_vec
        self.n_vec = n_vec

    def __eq__(self, other):
        if not isinstance(other, SubmanifoldData):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)


class ModelFile:
    """A parsed model: frame, brackets, metric, structure, optional frame data.

    The metric is kept as a plain symmetric table so that degeneracy is
    diagnosed by the checks, not at load time.  Equal when every field is.
    """

    __slots__ = ("frame", "parameters", "brackets", "metric_form", "phi",
                 "xi_bar", "eta_bar", "submanifold")

    def __init__(self, frame: Frame, parameters: tuple[str, ...],
                 brackets: MultilinearForm, metric_form: MultilinearForm,
                 phi: MultilinearForm, xi_bar: MultilinearForm,
                 eta_bar: MultilinearForm, submanifold: Optional[SubmanifoldData]):
        self.frame = frame
        self.parameters = parameters
        self.brackets = brackets  # brackets.cell(i, j) = [e_i, e_j]
        self.metric_form = metric_form
        self.phi = phi
        self.xi_bar = xi_bar  # a vector
        self.eta_bar = eta_bar
        self.submanifold = submanifold

    def __eq__(self, other):
        if not isinstance(other, ModelFile):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)


def _expect_mapping(obj, path: str, allowed: Optional[tuple[str, ...]] = None,
                    required: tuple[str, ...] = ()) -> dict:
    """obj as an object with only allowed keys (any when None) and all required."""
    if not isinstance(obj, dict):
        raise ModelError(path, "expected an object")
    for key in obj if allowed is not None else ():
        if key not in allowed:
            raise ModelError(path, f"unknown key {key!r}")
    for key in required:
        if key not in obj:
            raise ModelError(path, f"missing required key {key!r}")
    return obj


def _expect_string_list(obj, path: str) -> list[str]:
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise ModelError(path, "expected a list of strings")
    return obj


def _index(frame: Frame, label: str, path: str, message="unknown frame label") -> int:
    try:
        return frame.index(label)
    except KeyError:
        raise ModelError(path, message) from None


def _parse_scalar(value, path: str, mu_allowed: bool, budget) -> RationalFunction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ModelError(path, "expected an integer or a scalar string")
    try:  # an integer is charged as the literal it prints, if it prints
        scalar = RationalFunction.parse(str(value), budget)
    except (ScalarParseError, ValueError) as exc:
        raise ModelError(path, str(exc)) from exc
    if not mu_allowed and not scalar.is_constant():
        raise ModelError(path, "uses the parameter mu, which is not declared")
    return scalar


def _parse_vector(obj, frame: Frame, path: str, scalar) -> MultilinearForm:
    components = [ZERO] * frame.dimension
    for label, value in _expect_mapping(obj, path).items():
        where = f"{path}.{label}"
        components[_index(frame, label, where)] = scalar(value, where)
    return MultilinearForm(frame, 1, tuple(components))


def _pair_cells(obj, frame: Frame, path: str, antisymmetric: bool, read) -> dict:
    """The cells read(value, path) of an "A,B"-keyed map, each also under
    its mirror (B, A): negated when antisymmetric, as it is otherwise."""
    kind = "bracket" if antisymmetric else "metric"
    cells = {}
    for key, value in _expect_mapping(obj, path).items():
        where = f"{path}.{key}"
        parts = [part.strip() for part in key.split(",")]
        if len(parts) != 2:
            raise ModelError(where, "expected a key of the form 'A,B'")
        i, j = (_index(frame, label, where, f"unknown frame label {label!r}")
                for label in parts)
        if antisymmetric and i == j:
            raise ModelError(where, "bracket of a label with itself")
        if (i, j) in cells:
            raise ModelError(where, f"duplicate {kind} pair")
        cells[i, j] = read(value, where)
        cells[j, i] = -cells[i, j] if antisymmetric else cells[i, j]
    return cells


def model_from_json_obj(obj) -> ModelFile:
    top = _expect_mapping(obj, "$", _TOP_KEYS,
                          ("frame", "brackets", "metric", "structure"))
    frame_obj = _expect_mapping(top["frame"], "frame")
    labels = _expect_string_list(frame_obj.get("labels"), "frame.labels")
    _expect_mapping(frame_obj, "frame", ("labels",))  # checked after the labels
    try:
        frame = Frame(tuple(labels))
    except ValueError as exc:
        raise ModelError("frame.labels", str(exc)) from exc
    for label in labels:  # _pair_cells splits each key at "," and strips it
        if "," in label or label != label.strip():
            raise ModelError("frame.labels",
                             f"label {label!r} cannot be named in an 'A,B' key")
    dim = frame.dimension

    parameters = tuple(_expect_string_list(top.get("parameters", []), "parameters"))
    for p in parameters:
        if p not in _SUPPORTED_PARAMETERS:
            raise ModelError("parameters", f"unsupported parameter {p!r}")
    mu_allowed = "mu" in parameters
    scalar = partial(_parse_scalar, mu_allowed=mu_allowed, budget=SizeBudget())

    def vector(value, where: str) -> MultilinearForm:
        return _parse_vector(value, frame, where, scalar)

    zero = MultilinearForm.zero(frame, 1)
    bracket_cells = _pair_cells(top["brackets"], frame, "brackets", True, vector)
    brackets = MultilinearForm.from_cells(
        frame, 3, lambda i, j: bracket_cells.get((i, j), zero))
    metric_cells = _pair_cells(top["metric"], frame, "metric", False, scalar)
    metric_form = MultilinearForm(frame, 2, tuple(
        metric_cells.get(divmod(n, dim), ZERO) for n in range(dim * dim)))

    structure_obj = _expect_mapping(top["structure"], "structure",
                                    ("phi", "xi", "eta"), ("phi", "xi", "eta"))
    columns = [zero] * dim
    for label, value in _expect_mapping(structure_obj["phi"], "structure.phi").items():
        where = f"structure.phi.{label}"
        columns[_index(frame, label, where)] = vector(value, where)
    phi = MultilinearForm.from_cells(frame, 2, lambda j: columns[j])
    xi_bar = vector(structure_obj["xi"], "structure.xi")
    eta_bar = vector(structure_obj["eta"], "structure.eta")

    submanifold = None
    if "submanifold" in top:
        sub_obj = _expect_mapping(top["submanifold"], "submanifold",
                                  ("screen", "xi", "L", "N"), ("screen", "xi", "L"))
        screen_obj = _expect_mapping(sub_obj["screen"], "submanifold.screen")
        screen = tuple(vector(value, f"submanifold.screen.{label}")
                       for label, value in screen_obj.items())
        rad = vector(sub_obj["xi"], "submanifold.xi")
        l_vec = vector(sub_obj["L"], "submanifold.L")
        n_vec = vector(sub_obj["N"], "submanifold.N") if "N" in sub_obj else None
        submanifold = SubmanifoldData(tuple(screen_obj), screen, rad, l_vec, n_vec)

    return ModelFile(frame=frame, parameters=parameters, brackets=brackets,
                     metric_form=metric_form, phi=phi, xi_bar=xi_bar,
                     eta_bar=eta_bar, submanifold=submanifold)


def _vector_to_obj(v: MultilinearForm) -> dict:
    """A vector or one-form as {label: scalar string}, zero entries omitted."""
    return {v.frame.labels[i]: str(c)
            for i, c in sorted(v.nonzero.items())}


def model_to_json_obj(m: ModelFile) -> dict:
    frame = m.frame
    dim = frame.dimension
    brackets = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            v = m.brackets.cell(i, j)
            if not v.is_zero():
                brackets[f"{frame.labels[i]},{frame.labels[j]}"] = _vector_to_obj(v)
    metric = {}
    for i in range(dim):
        for j in range(i, dim):
            e = m.metric_form.entry(i, j)
            if not e.is_zero():
                metric[f"{frame.labels[i]},{frame.labels[j]}"] = str(e)
    phi = {}
    for j in range(dim):
        col = m.phi.cell(j)
        if not col.is_zero():
            phi[frame.labels[j]] = _vector_to_obj(col)
    obj = {
        "frame": {"labels": list(frame.labels)},
        "parameters": list(m.parameters),
        "brackets": brackets,
        "metric": metric,
        "structure": {
            "phi": phi,
            "xi": _vector_to_obj(m.xi_bar),
            "eta": _vector_to_obj(m.eta_bar),
        },
    }
    if m.submanifold is not None:
        sub = m.submanifold
        block = {
            "screen": {label: _vector_to_obj(vec)
                       for label, vec in zip(sub.screen_labels, sub.screen)},
            "xi": _vector_to_obj(sub.rad),
            "L": _vector_to_obj(sub.l_vec),
        }
        if sub.n_vec is not None:
            block["N"] = _vector_to_obj(sub.n_vec)
        obj["submanifold"] = block
    return obj


def dumps_model(m: ModelFile) -> str:
    return json.dumps(model_to_json_obj(m), indent=2) + "\n"


def load_model(path: str) -> ModelFile:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ModelError("$", f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelError("$", f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ModelError("$", f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an int literal past the interpreter's digit limit
        raise ModelError("$", "invalid JSON: an integer literal is too long") from exc
    except RecursionError as exc:
        raise ModelError("$", "invalid JSON: nested too deeply") from exc
    return model_from_json_obj(data)


def save_model(m: ModelFile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_model(m))
