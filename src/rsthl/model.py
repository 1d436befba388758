"""Loading and saving invariant models as JSON files.

A model file carries a frame, structure constants, a metric, the contact
structure data and optionally a submanifold frame.  Scalars are written
as strings in the exact scalar grammar (integers are also accepted);
every schema violation raises ModelError naming the offending path.
"""

from __future__ import annotations

import json
from typing import Optional

from .errors import ModelError, ScalarParseError
from .scalars import RationalFunction, ZERO, rf
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


def _expect_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ModelError(path, "expected an object")
    return obj


def _expect_string_list(obj, path: str) -> list[str]:
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise ModelError(path, "expected a list of strings")
    return obj


def _parse_scalar(value, path: str, mu_allowed: bool) -> RationalFunction:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ModelError(path, "expected an integer or a scalar string")
    if isinstance(value, int):
        return rf(value)
    try:
        scalar = RationalFunction.parse(value)
    except ScalarParseError as exc:
        raise ModelError(path, str(exc)) from exc
    if not mu_allowed and not scalar.is_constant():
        raise ModelError(path, "uses the parameter mu, which is not declared")
    return scalar


def _parse_vector(obj, frame: Frame, path: str, mu_allowed: bool) -> MultilinearForm:
    mapping = _expect_mapping(obj, path)
    components = [ZERO] * frame.dimension
    for label, value in mapping.items():
        if label not in frame.labels:
            raise ModelError(f"{path}.{label}", "unknown frame label")
        components[frame.index(label)] = _parse_scalar(
            value, f"{path}.{label}", mu_allowed)
    return MultilinearForm(frame, 1, tuple(components))


def _parse_pair_key(key: str, frame: Frame, path: str) -> tuple[int, int]:
    parts = key.split(",")
    if len(parts) != 2:
        raise ModelError(f"{path}.{key}", "expected a key of the form 'A,B'")
    labels = [p.strip() for p in parts]
    for label in labels:
        if label not in frame.labels:
            raise ModelError(f"{path}.{key}", f"unknown frame label {label!r}")
    return frame.index(labels[0]), frame.index(labels[1])


def model_from_json_obj(obj) -> ModelFile:
    top = _expect_mapping(obj, "$")
    for key in top:
        if key not in _TOP_KEYS:
            raise ModelError("$", f"unknown key {key!r}")
    for key in ("frame", "brackets", "metric", "structure"):
        if key not in top:
            raise ModelError("$", f"missing required key {key!r}")

    frame_obj = _expect_mapping(top["frame"], "frame")
    labels = _expect_string_list(frame_obj.get("labels"), "frame.labels")
    for key in frame_obj:
        if key != "labels":
            raise ModelError("frame", f"unknown key {key!r}")
    try:
        frame = Frame(tuple(labels))
    except ValueError as exc:
        raise ModelError("frame.labels", str(exc)) from exc

    parameters = tuple(_expect_string_list(top.get("parameters", []), "parameters"))
    for p in parameters:
        if p not in _SUPPORTED_PARAMETERS:
            raise ModelError("parameters", f"unsupported parameter {p!r}")
    mu_allowed = "mu" in parameters

    brackets_obj = _expect_mapping(top["brackets"], "brackets")
    table: dict[tuple[int, int], MultilinearForm] = {}
    for key, value in brackets_obj.items():
        i, j = _parse_pair_key(key, frame, "brackets")
        if i == j:
            raise ModelError(f"brackets.{key}", "bracket of a label with itself")
        pair = (min(i, j), max(i, j))
        if pair in table:
            raise ModelError(f"brackets.{key}", "duplicate bracket pair")
        vec = _parse_vector(value, frame, f"brackets.{key}", mu_allowed)
        table[pair] = vec if i < j else -vec

    def bracket(i: int, j: int) -> MultilinearForm:
        v = table.get((min(i, j), max(i, j)))
        if v is None:
            return MultilinearForm.zero(frame, 1)
        return v if i < j else -v
    brackets = MultilinearForm.from_cells(frame, 3, bracket)

    metric_obj = _expect_mapping(top["metric"], "metric")
    entries = [[ZERO] * frame.dimension for _ in range(frame.dimension)]
    seen = set()
    for key, value in metric_obj.items():
        i, j = _parse_pair_key(key, frame, "metric")
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise ModelError(f"metric.{key}", "duplicate metric pair")
        seen.add(pair)
        scalar = _parse_scalar(value, f"metric.{key}", mu_allowed)
        entries[i][j] = scalar
        entries[j][i] = scalar
    metric_form = MultilinearForm(
        frame, 2,
        tuple(entries[i][j] for i in range(frame.dimension)
              for j in range(frame.dimension)))

    structure_obj = _expect_mapping(top["structure"], "structure")
    for key in structure_obj:
        if key not in ("phi", "xi", "eta"):
            raise ModelError("structure", f"unknown key {key!r}")
    for key in ("phi", "xi", "eta"):
        if key not in structure_obj:
            raise ModelError("structure", f"missing required key {key!r}")
    phi_obj = _expect_mapping(structure_obj["phi"], "structure.phi")
    columns = [MultilinearForm.zero(frame, 1)] * frame.dimension
    for label, value in phi_obj.items():
        if label not in frame.labels:
            raise ModelError(f"structure.phi.{label}", "unknown frame label")
        columns[frame.index(label)] = _parse_vector(
            value, frame, f"structure.phi.{label}", mu_allowed)
    phi = MultilinearForm.from_cells(frame, 2, lambda j: columns[j])
    xi_bar = _parse_vector(structure_obj["xi"], frame, "structure.xi", mu_allowed)
    eta_bar = _parse_vector(structure_obj["eta"], frame, "structure.eta", mu_allowed)

    submanifold = None
    if "submanifold" in top:
        sub_obj = _expect_mapping(top["submanifold"], "submanifold")
        for key in sub_obj:
            if key not in ("screen", "xi", "L", "N"):
                raise ModelError("submanifold", f"unknown key {key!r}")
        for key in ("screen", "xi", "L"):
            if key not in sub_obj:
                raise ModelError("submanifold", f"missing required key {key!r}")
        screen_obj = _expect_mapping(sub_obj["screen"], "submanifold.screen")
        screen_labels = []
        screen = []
        for label, value in screen_obj.items():
            screen_labels.append(label)
            screen.append(_parse_vector(
                value, frame, f"submanifold.screen.{label}", mu_allowed))
        rad = _parse_vector(sub_obj["xi"], frame, "submanifold.xi", mu_allowed)
        l_vec = _parse_vector(sub_obj["L"], frame, "submanifold.L", mu_allowed)
        n_vec = None
        if "N" in sub_obj:
            n_vec = _parse_vector(sub_obj["N"], frame, "submanifold.N", mu_allowed)
        submanifold = SubmanifoldData(tuple(screen_labels), tuple(screen),
                                      rad, l_vec, n_vec)

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
    except RecursionError as exc:
        raise ModelError("$", "invalid JSON: nested too deeply") from exc
    return model_from_json_obj(data)


def save_model(m: ModelFile, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_model(m))
