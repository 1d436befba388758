"""Model file schema errors, round trips, suite slicing, and the CLI."""

import contextlib
import io
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import rsthl
from rsthl import associated, liegeom, lightlike, scalars, structure, suite
from rsthl.builtin import example_model
from rsthl.cli import main
from rsthl.errors import ModelError
from rsthl.model import (dumps_model, load_model, model_from_json_obj,
                         model_to_json_obj, save_model)
from rsthl.scalars import MU, rf
from rsthl.suite import run_suite
from test_properties import dense_frame, transported


def fresh_obj():
    return json.loads(dumps_model(example_model()))


def reject(obj, path, fragment=""):
    with pytest.raises(ModelError) as info:
        model_from_json_obj(obj)
    assert info.value.path == path
    assert fragment in str(info.value)
    return info.value


def test_round_trip_is_byte_identical():
    m = example_model()
    text = dumps_model(m)
    again = model_from_json_obj(json.loads(text))
    assert again == m
    assert dumps_model(again) == text


def test_save_and_load(tmp_path):
    m = example_model()
    path = str(tmp_path / "model.json")
    save_model(m, path)
    assert load_model(path) == m


def test_model_records_differ_from_other_types():
    """A model record compared with another type defers, so it is unequal."""
    assert example_model() != 0
    assert example_model().submanifold != 0

def test_specialized_model():
    m = example_model(Fraction(3, 2))
    assert m.parameters == ()
    text = dumps_model(m)
    assert "mu" not in text
    assert "3/2" in text
    rep = run_suite(m)
    assert rep.ok
    assert rep.counts == {"pass": 114, "fail": 0, "skipped": 0}


def test_top_level_schema():
    reject([], "$", "expected an object")
    obj = fresh_obj()
    obj["bogus"] = 1
    reject(obj, "$", "unknown key 'bogus'")
    obj = fresh_obj()
    del obj["metric"]
    reject(obj, "$", "missing required key 'metric'")


def test_frame_schema():
    obj = fresh_obj()
    obj["frame"]["extra"] = 1
    reject(obj, "frame", "unknown key 'extra'")
    obj = fresh_obj()
    obj["frame"]["labels"] = "X1"
    reject(obj, "frame.labels", "expected a list of strings")
    obj = fresh_obj()
    obj["frame"]["labels"] = ["X1", "X1", "X3", "X4", "E"]
    reject(obj, "frame.labels")


def test_parameter_schema():
    obj = fresh_obj()
    obj["parameters"] = ["nu"]
    reject(obj, "parameters", "unsupported parameter 'nu'")
    obj = fresh_obj()
    obj["parameters"] = []
    # the radical vector is the first place the symbol appears
    reject(obj, "submanifold.xi.X3", "uses the parameter mu, which is not declared")


def test_bracket_schema():
    obj = fresh_obj()
    obj["brackets"]["X1"] = {"X2": 1}
    reject(obj, "brackets.X1", "expected a key of the form 'A,B'")
    obj = fresh_obj()
    obj["brackets"]["X1,BOGUS"] = {"X2": 1}
    reject(obj, "brackets.X1,BOGUS", "unknown frame label 'BOGUS'")
    obj = fresh_obj()
    obj["brackets"]["X1,X1"] = {"X2": 1}
    reject(obj, "brackets.X1,X1", "bracket of a label with itself")
    obj = fresh_obj()
    obj["brackets"]["X2,X1"] = {"X4": 1}
    reject(obj, "brackets.X2,X1", "duplicate bracket pair")
    obj = fresh_obj()
    obj["brackets"]["X1,X2"] = {"BOGUS": 1}
    reject(obj, "brackets.X1,X2.BOGUS", "unknown frame label")


def test_metric_schema():
    obj = fresh_obj()
    obj["metric"]["X1, X1"] = "1"
    reject(obj, "metric.X1, X1", "duplicate metric pair")
    obj = fresh_obj()
    obj["metric"]["X1,X1"] = True
    reject(obj, "metric.X1,X1", "expected an integer or a scalar string")
    obj = fresh_obj()
    obj["metric"]["X1,X1"] = 1.5
    reject(obj, "metric.X1,X1", "expected an integer or a scalar string")
    obj = fresh_obj()
    obj["metric"]["X1,X1"] = "mu +"
    reject(obj, "metric.X1,X1", "(at position 4)")
    # an int past the interpreter's digit limit, which no JSON file yields
    obj = fresh_obj()
    obj["metric"]["X1,X1"] = 10 ** 5000
    reject(obj, "metric.X1,X1", "integer string conversion")


def test_structure_schema():
    obj = fresh_obj()
    obj["structure"]["extra"] = {}
    reject(obj, "structure", "unknown key 'extra'")
    obj = fresh_obj()
    del obj["structure"]["eta"]
    reject(obj, "structure", "missing required key 'eta'")
    obj = fresh_obj()
    obj["structure"]["phi"]["BOGUS"] = {"X1": 1}
    reject(obj, "structure.phi.BOGUS", "unknown frame label")
    obj = fresh_obj()
    obj["structure"]["eta"]["BOGUS"] = "1"
    reject(obj, "structure.eta.BOGUS", "unknown frame label")


def test_submanifold_schema():
    obj = fresh_obj()
    obj["submanifold"]["Q"] = {}
    reject(obj, "submanifold", "unknown key 'Q'")
    obj = fresh_obj()
    del obj["submanifold"]["L"]
    reject(obj, "submanifold", "missing required key 'L'")


def test_transversal_block_is_optional():
    # the built-in file omits N and leaves it to the exact solver
    obj = fresh_obj()
    assert "N" not in obj["submanifold"]
    assert example_model().submanifold.n_vec is None
    obj["submanifold"]["N"] = {"X3": "1/(2*mu)", "E": "1/(2*mu)"}
    m = model_from_json_obj(obj)
    assert m.submanifold.n_vec is not None
    rep = run_suite(m)
    assert rep.ok
    assert rep.counts == {"pass": 114, "fail": 0, "skipped": 0}


def test_load_model_errors(tmp_path):
    with pytest.raises(ModelError) as info:
        load_model(str(tmp_path / "missing.json"))
    assert info.value.path == "$"
    assert "cannot read" in str(info.value)
    bad = tmp_path / "bad.json"
    bad.write_text("not json{", encoding="utf-8")
    with pytest.raises(ModelError) as info:
        load_model(str(bad))
    assert info.value.path == "$"
    assert "invalid JSON" in str(info.value)


DROP = object()


def edited(changes):
    """The emitted model with each dotted path set to its value, or removed
    for DROP, in order; the path "$" replaces the whole object."""
    obj = fresh_obj()
    for dotted, value in changes.items():
        if dotted == "$":
            obj = value
            continue
        *parents, last = dotted.split(".")
        node = obj
        for key in parents:
            node = node[key]
        if value is DROP:
            del node[last]
        else:
            node[last] = value
    return obj


# One malformed object for each way the reader rejects a model, and inputs
# with several faults, which report the first in reading order.
@pytest.mark.parametrize("changes, message", [
    ({"$": []}, "$: expected an object"),
    ({"zzz": 1}, "$: unknown key 'zzz'"),
    ({"metric": DROP}, "$: missing required key 'metric'"),
    ({"metric": DROP, "zzz": 1}, "$: unknown key 'zzz'"),
    ({"frame": ["X1"]}, "frame: expected an object"),
    ({"frame.labels": DROP}, "frame.labels: expected a list of strings"),
    ({"frame.labels": ["X1", 2]}, "frame.labels: expected a list of strings"),
    ({"frame.extra": 1}, "frame: unknown key 'extra'"),
    ({"frame.labels": 5, "frame.x": 1}, "frame.labels: expected a list of strings"),
    ({"frame.labels": []}, "frame.labels: a frame needs at least one label"),
    ({"frame.labels": ["X1", "X1", "X3", "X4", "E"]},
     "frame.labels: duplicate frame labels: ('X1', 'X1', 'X3', 'X4', 'E')"),
    ({"parameters": "mu"}, "parameters: expected a list of strings"),
    ({"parameters": ["mu", "nu"]}, "parameters: unsupported parameter 'nu'"),
    ({"parameters": []},
     "submanifold.xi.X3: uses the parameter mu, which is not declared"),
    ({"parameters": [], "metric.X1,X1": "mu"},
     "metric.X1,X1: uses the parameter mu, which is not declared"),
    ({"brackets": []}, "brackets: expected an object"),
    ({"brackets.X1": {"X2": 1}}, "brackets.X1: expected a key of the form 'A,B'"),
    ({"brackets.X1,X2,X3": {}},
     "brackets.X1,X2,X3: expected a key of the form 'A,B'"),
    ({"brackets.X1,BOGUS": {}}, "brackets.X1,BOGUS: unknown frame label 'BOGUS'"),
    ({"brackets.Q,R": {}}, "brackets.Q,R: unknown frame label 'Q'"),
    ({"brackets.X1,X1": {"X2": 1}}, "brackets.X1,X1: bracket of a label with itself"),
    ({"brackets.X2,X1": {"X4": 1}, "brackets.X3,X3": {}},
     "brackets.X2,X1: duplicate bracket pair"),
    ({"brackets.X3,X3": {}, "brackets.X2,X1": {"X4": 1}},
     "brackets.X3,X3: bracket of a label with itself"),
    ({"brackets.X1,X2": 1}, "brackets.X1,X2: expected an object"),
    ({"brackets.X1,X2": {"BOGUS": 1}}, "brackets.X1,X2.BOGUS: unknown frame label"),
    ({"brackets.X1,X2": {"X4": 1.5}},
     "brackets.X1,X2.X4: expected an integer or a scalar string"),
    ({"metric": "1"}, "metric: expected an object"),
    ({"metric.X1": "1"}, "metric.X1: expected a key of the form 'A,B'"),
    ({"metric.X1,Q": "1"}, "metric.X1,Q: unknown frame label 'Q'"),
    ({"metric.X1, X1": "1"}, "metric.X1, X1: duplicate metric pair"),
    ({"metric.X2,X1": "1", "metric.X1,X2": "1"}, "metric.X1,X2: duplicate metric pair"),
    ({"metric.X1,X1": True}, "metric.X1,X1: expected an integer or a scalar string"),
    ({"metric.X1,X1": "mu +"},
     "metric.X1,X1: expected a number, 'mu', or '(' (at position 4)"),
    ({"structure": []}, "structure: expected an object"),
    ({"structure.extra": {}}, "structure: unknown key 'extra'"),
    ({"structure.eta": DROP}, "structure: missing required key 'eta'"),
    ({"structure.eta": DROP, "structure.extra": {}},
     "structure: unknown key 'extra'"),
    ({"structure.phi": []}, "structure.phi: expected an object"),
    ({"structure.phi.BOGUS": {"X1": 1}}, "structure.phi.BOGUS: unknown frame label"),
    ({"structure.phi.X1": 1}, "structure.phi.X1: expected an object"),
    ({"structure.phi.X1": {"Q": 1}}, "structure.phi.X1.Q: unknown frame label"),
    ({"structure.xi.Q": 1}, "structure.xi.Q: unknown frame label"),
    ({"structure.eta.E": "1/0"},
     "structure.eta.E: division by the zero polynomial (at position 1)"),
    ({"structure.xi.Q": 1, "submanifold.xi.Q": 1},
     "structure.xi.Q: unknown frame label"),
    ({"submanifold": []}, "submanifold: expected an object"),
    ({"submanifold.Q": {}}, "submanifold: unknown key 'Q'"),
    ({"submanifold.L": DROP}, "submanifold: missing required key 'L'"),
    ({"submanifold.screen": []}, "submanifold.screen: expected an object"),
    ({"submanifold.screen.E1": {"Q": 1}},
     "submanifold.screen.E1.Q: unknown frame label"),
    ({"submanifold.xi.Q": 1}, "submanifold.xi.Q: unknown frame label"),
    ({"submanifold.L.Q": 1}, "submanifold.L.Q: unknown frame label"),
    ({"submanifold.N": 1}, "submanifold.N: expected an object"),
    ({"submanifold.N": {"Q": 1}}, "submanifold.N.Q: unknown frame label"),
    # labels that no "A,B" key can name, rejected before any key is read
    ({"frame.labels": ["X1", "X,2", "X3", "X4", "E"]},
     "frame.labels: label 'X,2' cannot be named in an 'A,B' key"),
    ({"frame.labels": ["X1", " X2", "X3", "X4", "E"]},
     "frame.labels: label ' X2' cannot be named in an 'A,B' key"),
    ({"frame.labels": ["X1", "X2", "X3", "X4", "E\t"]},
     "frame.labels: label 'E\\t' cannot be named in an 'A,B' key"),
    ({"frame.labels": ["X1", ",", "X1"]},
     "frame.labels: duplicate frame labels: ('X1', ',', 'X1')"),
    ({"frame.labels": ["X1", "X,2"], "frame.x": 1}, "frame: unknown key 'x'"),
    # a superscript digit is no decimal digit
    ({"metric.X1,X1": "1²"}, "metric.X1,X1: unexpected character '²' (at position 1)"),
    ({"metric.X1,X1": "mu^²"},
     "metric.X1,X1: unexpected character '²' (at position 3)"),
    ({"metric.X1,X1": "²"}, "metric.X1,X1: unexpected character '²' (at position 0)"),
])
def test_model_error_corpus(changes, message):
    """Each malformed model is rejected with exactly this path and message."""
    error = reject(edited(changes), message.split(": ", 1)[0])
    assert str(error) == message


def test_suite_sizes(model):
    assert len(run_suite(model, "ambient").entries) == 22
    assert len(run_suite(model, "submanifold").entries) == 108
    assert len(run_suite(model, "theorem46").entries) == 6
    rep = run_suite(model, "all")
    assert len(rep.entries) == 114
    assert rep.ok
    assert rep.counts == {"pass": 114, "fail": 0, "skipped": 0}


def test_suite_builds_each_shared_table_once(model, monkeypatch):
    calls = {}

    def count(owner, attr, key):
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        calls[key] = 0
        monkeypatch.setattr(owner, attr, counted)

    count(structure.ACBMStructure.g_tilde, "func", "g_tilde")
    # B and D, each differentiated once
    count(lightlike.InducedObjects.cd_b, "func", "covariant_derivative")
    count(lightlike.InducedObjects.cd_d, "func", "covariant_derivative")
    count(liegeom.CurvatureTensor.ricci_action, "func", "ricci_action")
    count(lightlike.SubmanifoldFrame.phi_pairing, "func", "phi_pairing")
    count(lightlike.SubmanifoldFrame, "__init__", "frame")
    # associated imports the function by name, so both bindings count
    count(lightlike, "proportionality_factor", "proportionality_factor")
    count(associated, "proportionality_factor", "proportionality_factor")
    # the three exact solves of the suite: the sectional invariants, and the
    # two Einstein-type systems, solved once for their suite steps and
    # reused by the theorem stage
    count(suite, "solve_combination", "fit_solve")
    # the (N, L) splitting of the frame and the (N1, N2) one of the twin
    count(lightlike, "matrix_inverse", "adapted_inverse")
    # phi is split over (N, L) once, for the ascreen check and for phi P
    count(lightlike.Splitting, "split", "split")
    # the basic curvature tensors A and B
    count(suite, "basic_curvature_tensors", "curvature_basis")
    # the screen umbilical data of the closed forms: pair, gamma and mu^2 gamma^2
    count(lightlike.ScreenUmbilical, "__init__", "screen")
    run_suite(model, "all")
    # proportionality_factor: b, d and c against g, then h1 and h2 against g~
    assert calls == {"g_tilde": 1, "covariant_derivative": 2,
                     "ricci_action": 2, "phi_pairing": 1, "frame": 1,
                     "proportionality_factor": 5, "adapted_inverse": 2, "split": 9,
                     "curvature_basis": 1, "fit_solve": 3, "screen": 1}
    calls.update(dict.fromkeys(calls, 0))
    run_suite(model, "ambient")
    assert calls["frame"] == 0
    assert calls["screen"] == 0
    assert calls["fit_solve"] == 1
    assert calls["adapted_inverse"] == 0


def test_theorem46_builds_no_condition_only_table(model):
    """Under ``theorem46`` the earlier stages build only their blocking
    steps: phi P and B(X, phi P Y), which only non-blocking conditions and
    closed forms read, are never built.  A reporting stage builds both."""
    geo = suite.Geometry(model)
    ambient = suite._ambient_stage(geo, False)
    sub = suite._submanifold_stage(geo, ambient.blocker, False)
    assert len(suite._theorem_stage(geo, sub.blocker).entries) == 6
    assert "phi_p" not in vars(geo.frame) and "b_phi" not in vars(geo.induced)
    geo = suite.Geometry(model)
    suite._submanifold_stage(geo, None, True)
    assert "phi_p" in vars(geo.frame) and "b_phi" in vars(geo.induced)


def test_every_anchor_is_catalogued(model):
    catalog = Path(__file__).resolve().parents[1] / "docs" / "identities.md"
    headings = set(re.findall(r"^## (\S+)$",
                              catalog.read_text(encoding="utf-8"), re.M))
    anchors = {e.anchor for e in run_suite(model, "all").entries}
    assert anchors - headings == set()


def test_suite_finds_its_stages_by_name(model, monkeypatch):
    # the span tracer in bench/tracing.py rebinds the stage functions
    seen = []
    for name in ("_ambient_stage", "_submanifold_stage", "_theorem_stage"):
        def traced(*args, _stage=getattr(suite, name), _name=name):
            seen.append(_name)
            return _stage(*args)
        monkeypatch.setattr(suite, name, traced)
    assert len(run_suite(model, "theorem46").entries) == 6
    assert seen == ["_ambient_stage", "_submanifold_stage", "_theorem_stage"]


def test_suite_rejects_unknown_name(model):
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(model, "everything")


def test_suite_without_submanifold():
    obj = fresh_obj()
    del obj["submanifold"]
    m = model_from_json_obj(obj)
    rep = run_suite(m, "all")
    assert rep.ok
    assert rep.counts == {"pass": 22, "fail": 0, "skipped": 7}
    theorem = run_suite(m, "theorem46")
    assert [e.status for e in theorem.entries] == ["skipped"] * 6
    assert all(e.detail == "the model declares no submanifold"
               for e in theorem.entries)


def test_report_json_shape(model):
    rep = run_suite(model, "theorem46")
    obj = rep.to_json_obj()
    assert set(obj) == {"verdict", "counts", "entries"}
    assert obj["verdict"] == "pass"
    assert set(obj["entries"][0]) == {"name", "anchor", "status",
                                      "residual_zero", "detail"}
    assert obj["entries"][0]["residual_zero"] is True
    parsed = json.loads(rep.to_json())
    assert parsed == obj


def test_cli_example(capsys):
    assert main(["example47"]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass (114 passed, 0 failed, 0 skipped)" in out
    assert "[ok  ]" in out
    assert "[FAIL]" not in out


def test_cli_example_suite_flag(capsys):
    assert main(["example47", "--suite", "theorem46"]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass (6 passed, 0 failed, 0 skipped)" in out


def test_cli_example_specialized(capsys):
    assert main(["example47", "--mu", "3/2"]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass (114 passed, 0 failed, 0 skipped)" in out


def test_cli_specialized_and_symbolic_reports_agree(tmp_path, capsys):
    """At mu = 7/5 most scalars are constants, the case the scalar fast
    paths shortcut most; the entries and their verdicts match the
    symbolic run."""
    verdicts = []
    for extra in ([], ["--mu", "7/5"]):
        path = tmp_path / "report.json"
        assert main(["example47", "--suite", "all", "--report", str(path), *extra]) == 0
        entries = json.loads(path.read_text(encoding="utf-8"))["entries"]
        verdicts.append([(e["name"], e["status"]) for e in entries])
    capsys.readouterr()
    symbolic, specialized = verdicts
    assert len(symbolic) == 114
    assert specialized == symbolic


def test_cli_rejects_zero_mu(capsys):
    assert main(["example47", "--mu", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nonzero" in err


def test_cli_rejects_malformed_mu(capsys):
    assert main(["example47", "--mu", "abc"]) == 2
    err = capsys.readouterr().err
    assert "not a rational number: 'abc'" in err


@pytest.mark.parametrize("text, value", [
    ("3/2", Fraction(3, 2)), ("14/10", Fraction(7, 5)), (" 7/5 ", Fraction(7, 5)),
    ("-3/4", Fraction(-3, 4)), ("6/3", Fraction(2)),
])
def test_cli_mu_reads_the_model_grammar(tmp_path, capsys, text, value):
    """--mu is a constant in the model-file grammar; the run matches the
    model specialized at the same rational."""
    path = tmp_path / "report.json"
    code = main(["example47", f"--mu={text}", "--suite", "submanifold",
                 "--report", str(path)])
    out = capsys.readouterr().out
    rep = run_suite(example_model(value), "submanifold")
    assert (code, out) == (0, rep.render_text() + "\n")
    assert path.read_text(encoding="utf-8") == rep.to_json()


@pytest.mark.parametrize("text", ["mu", "1/0", "1.5"])
def test_cli_rejects_mu_that_is_no_constant(capsys, text):
    """Besides "0" and "abc" above: a value of mu, a division by zero and a
    decimal, which the grammar does not spell."""
    assert main(["example47", "--mu", text]) == 2
    assert capsys.readouterr().err == f"error: --mu: not a rational number: {text!r}\n"


def test_cli_emit_then_check(tmp_path, capsys):
    path = str(tmp_path / "emitted.json")
    assert main(["example47", "--emit", path]) == 0
    first = capsys.readouterr().out
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == dumps_model(example_model())
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == first


def test_cli_emit_into_a_missing_directory_exits_2(tmp_path, capsys):
    """The operating system's error is printed, and no report: the model
    is written before the suite runs."""
    assert main(["example47", "--emit", str(tmp_path / "missing" / "model.json")]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.startswith("error: [Errno 2] ")
    assert "Traceback" not in got.err


def test_cli_check_suite_flag(tmp_path, capsys):
    path = str(tmp_path / "emitted.json")
    save_model(example_model(), path)
    assert main(["check", path, "--suite", "ambient"]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass (22 passed, 0 failed, 0 skipped)" in out


def test_cli_report_file(tmp_path, capsys):
    path = str(tmp_path / "report.json")
    assert main(["example47", "--report", path]) == 0
    capsys.readouterr()
    with open(path, encoding="utf-8") as handle:
        obj = json.load(handle)
    assert obj["verdict"] == "pass"
    assert obj["counts"] == {"pass": 114, "fail": 0, "skipped": 0}
    assert len(obj["entries"]) == 114


def test_cli_check_missing_file(capsys):
    assert main(["check", "/nonexistent/model.json"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_check_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    assert main(["check", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def watch_formed(monkeypatch) -> list:
    """A one-item list that holds, from now on, the largest size, degree
    plus one times coefficient bits, of a polynomial that ``scalars._pmul``
    or ``scalars._ppow`` returns."""
    largest = [0]

    def recorded(op):
        def call(*args):
            out = op(*args)
            largest[0] = max(largest[0], len(out) * max(map(int.bit_length, out)))
            return out
        return call
    # _ppow squares and multiplies through the module's _pmul, so both count
    for name in ("_pmul", "_ppow"):
        monkeypatch.setattr(scalars, name, recorded(getattr(scalars, name)))
    return largest


def metric_models(*entries: str) -> bytes:
    """The worked model with its metric entries X1,X1, X2,X2, ... replaced."""
    obj = fresh_obj()
    for k, entry in enumerate(entries, 1):
        obj["metric"][f"X{k},X{k}"] = entry
    return json.dumps(obj).encode("utf-8")


def metric_model(entry: str) -> bytes:
    return metric_models(entry)


# Four pass CPython's default limit of 4,300 digits on int and str
# conversion: a literal, a printed power, a printed product of literals and
# a JSON integer.
@pytest.mark.parametrize("content, fragment", [
    (b"\xff\xfe{}", "$: not UTF-8 text"),
    (b"[" * 100_000, "$: invalid JSON: nested too deeply"),
    (metric_model("(" * 5000 + "1" + ")" * 5000),
     "metric.X1,X1: parentheses and signs nested more than"),
    (metric_model("9" * 5000), "metric.X1,X1: a number of 5000 digits is too long"),
    (metric_model("9" * 3000 + "*" + "9" * 3000),
     "metric.X1,X1: the value has a coefficient too long to print"),
    (metric_model("2^20000"),
     "metric.X1,X1: the value has a coefficient too long to print"),
    (metric_model("(mu+1)^3000"),
     "metric.X1,X1: a power of degree 3000 with 3001-bit coefficients, of size "
     "9006001, takes the model over its size budget of 50000 (at position 7)"),
    (metric_model("2^100000000"),
     "metric.X1,X1: a power of degree 0 with 100000001-bit coefficients"),
    (metric_model("(mu+1)^1000*(mu+1)^1000"),
     "metric.X1,X1: a power of degree 1000 with 1001-bit coefficients"),
    (metric_model("(mu+1)^60/(mu+2)^60 + (mu+3)^60/(mu+4)^60"),
     "metric.X1,X1: a quotient of degree 60 with 93-bit coefficients, of size 675180"),
    (metric_model("(2^12*mu+1)^1000"),
     "metric.X1,X1: a power of degree 1000 with 13001-bit coefficients"),
    (metric_model("(2^8*mu+1)^500*(2^8*mu+3)^500"),
     "metric.X1,X1: a power of degree 500 with 4501-bit coefficients"),
    (metric_model("(2^4*mu+1)^1000"),
     "metric.X1,X1: a power of degree 1000 with 5001-bit coefficients"),
    (metric_model("(mu+1)^1000 + (mu+2)^1000"),
     "metric.X1,X1: a power of degree 1000 with 1001-bit coefficients, of size "
     "1002001, takes the model over its size budget of 50000 (at position 7)"),
    (metric_model("PLACE").replace(b'"PLACE"', b"9" * 5000),
     "$: invalid JSON: an integer literal is too long"),
    # each entry alone loads: the budget is the model's, not the entry's
    (metric_models(*["(mu+1)^130"] * 3),
     "metric.X3,X3: a power of degree 130 with 131-bit coefficients, of size 17161, "
     "takes the model over its size budget of 50000 (at position 7)"),
    # each product by a long literal is charged the size it forms
    (metric_model("(mu+1)^150*" + "*".join(["9" * 4000] * 180)),
     "metric.X1,X1: a product of degree 150 with 13436-bit coefficients, of size "
     "2028836, takes the model over its size budget of 50000 (at position 10)"),
    (metric_model("*".join(["9" * 4000] * 400)),
     "metric.X1,X1: a product of degree 0 with 13289-bit coefficients"),
], ids=["not-utf8", "deep-json", "deep-scalar", "long-literal", "unprintable-product",
        "unprintable-power",
        "high-degree-power", "huge-power", "high-degree-product", "large-gcd",
        "wide-power", "wide-product", "wide-small-power", "entry-over-product-bound",
        "long-json-integer", "model-over-budget", "polynomial-times-literals",
        "literal-chain"])
def test_cli_check_unreadable_model_exits_2(tmp_path, capsys, monkeypatch, content,
                                            fragment):
    """Each is rejected before its value is built: no polynomial product or
    power formed on the way has a size, degree plus one times coefficient
    bits, over MAX_MODEL_SIZE.  The bound is on the work, so it holds on a
    host of any speed."""
    path = tmp_path / "model.json"
    path.write_bytes(content)
    largest = watch_formed(monkeypatch)
    code = main(["check", str(path)])
    assert largest[0] <= scalars.MAX_MODEL_SIZE
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {fragment}")
    assert "Traceback" not in err


def scaled_dense_model(spell) -> bytes:
    """The worked model in the frame s * dense_frame(1), for a scale s, as
    a model file.  A change of frame keeps every identity, so it passes
    114 of 114.  Each entry is its entry c in dense_frame(1) times s^j:
    j = 2 for the metric, 1 for the brackets and eta, 0 for phi and -1 for
    xi and the submanifold vectors.  spell(c, j) writes it."""
    obj = model_to_json_obj(transported(example_model(), dense_frame(1)))
    axes = obj["structure"]

    def scale(vectors, j):
        for vector in vectors:
            for label, c in vector.items():
                vector[label] = spell(c, j)
    scale([obj["metric"]], 2)
    scale(list(obj["brackets"].values()) + [axes["eta"]], 1)
    scale(list(axes["phi"].values()), 0)
    sub = obj["submanifold"]
    scale([axes["xi"], sub["xi"], sub["L"], *sub["screen"].values()], -1)
    return json.dumps(obj).encode("utf-8")


def power_spelled(k):
    """c (mu+1)^(j k) as a power of mu + 1."""
    return lambda c, j: (f"({c})*(mu+1)^{j * k}" if j > 0 else
                         f"({c})/(mu+1)^{k}" if j < 0 else c)


def expanded(s):
    """c s^j written out, as ``save_model`` writes it."""
    return lambda c, j: str(rf(c) * s ** j)


def json_integers(s):
    """c s^j as a JSON integer where it is one."""
    def spell(c, j):
        value = rf(c) * s ** j
        return int(str(value)) if value.den == (1,) else str(value)
    return spell


# The largest scale of each spelling whose model the size budget admits:
# s = (mu+1)^k spelled as powers and written out, and s = 2^b.
@pytest.mark.parametrize("spell, edge", [
    (power_spelled, 11), (lambda k: expanded((MU + 1) ** k), 13),
    (lambda b: json_integers(rf(2) ** b), 445)],
    ids=["power", "expanded", "json-integer"])
def test_size_budget_edge(tmp_path, capsys, monkeypatch, spell, edge):
    """At its edge a scaled dense model loads and passes every entry; one
    step over, it exits 2 naming the budget.  No product or power formed
    while loading either has a size over MAX_MODEL_SIZE.  The file that
    ``save_model`` writes for the model at the edge loads too: an entry
    written out term by term is charged no more than its value's size and
    one per term."""
    over, at, saved = tmp_path / "over.json", tmp_path / "at.json", tmp_path / "saved.json"
    over.write_bytes(scaled_dense_model(spell(edge + 1)))
    at.write_bytes(scaled_dense_model(spell(edge)))
    largest = watch_formed(monkeypatch)
    assert main(["check", str(over)]) == 2
    model = load_model(str(at))
    save_model(model, str(saved))
    assert load_model(str(saved)) == model
    assert largest[0] <= scalars.MAX_MODEL_SIZE
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert "takes the model over its size budget of 50000" in err
    assert "Traceback" not in err
    assert run_suite(model).counts == {"pass": 114, "fail": 0, "skipped": 0}


@pytest.mark.parametrize("module", ["rsthl", "rsthl.cli"])
def test_module_entry_points_exit_with_mains_code(module, monkeypatch, capsys):
    """``python -m rsthl`` and ``python -m rsthl.cli`` run ``main`` on the
    command line and exit with its code."""
    monkeypatch.setattr(sys, "argv", ["rsthl", "example47", "--suite", "ambient"])
    with warnings.catch_warnings(), pytest.raises(SystemExit) as exited:
        # running the imported rsthl.cli again as __main__ warns about it
        warnings.simplefilter("ignore", RuntimeWarning)
        runpy.run_module(module, run_name="__main__")
    assert exited.value.code == 0
    assert capsys.readouterr().out.endswith(
        "verdict: pass (22 passed, 0 failed, 0 skipped)\n")


def test_cli_calls_in_a_row_match_fresh_processes(tmp_path, capsys):
    """One process builds the parser once; each call in a row, a usage
    error among them, prints and returns what a fresh process does."""
    path = str(tmp_path / "emitted.json")
    save_model(example_model(), path)
    env = {**os.environ, "PYTHONPATH": str(Path(rsthl.__file__).parents[1])}
    for argv in (["example47", "--mu", "7/5", "--suite", "ambient"],
                 ["check", path, "--suite", "theorem46"],
                 ["example47", "--suite", "ambient"],
                 ["check", path, "--suite", "everything"],
                 ["example47", "--mu=-3/4", "--suite", "submanifold"],
                 ["check", path]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        got = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "rsthl", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert (code, got.out, got.err) == (fresh.returncode, fresh.stdout,
                                            fresh.stderr), argv


def test_cli_check_no_submanifold(tmp_path, capsys):
    obj = fresh_obj()
    del obj["submanifold"]
    path = tmp_path / "ambient-only.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert "verdict: pass (22 passed, 0 failed, 7 skipped)" in out
    assert "the model declares no submanifold" in out


def test_model_to_json_obj_matches_dumps():
    m = example_model()
    assert json.loads(dumps_model(m)) == model_to_json_obj(m)


def json_paths(obj, prefix=()):
    """The key and index paths of every node below obj, parents first."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


MODEL_PATHS = tuple(json_paths(fresh_obj()))
# Scalars with poles at mu = 0, 1, 2 and 3 or a zero denominator, malformed
# scalar text, labels, and values of the wrong JSON type.
MUTANT_VALUES = ("0", "1", "-1", "mu", "mu^2", "1/mu", "1/(mu - 1)",
                 "mu/(mu^2 - 4)", "(mu - 3)/(mu - 3)", "1/(mu - mu)", "mu^-1",
                 "2/0", "(mu", "nu", "", "X1", "E", 0, 1.5, None, True, [], {},
                 {"X1": "1/mu"}, ["X1", "X1"])


def mutated(mutations):
    """The emitted model with each (path, action, value) applied in turn;
    a path that an earlier mutation removed is skipped."""
    obj = fresh_obj()
    for path, action, value in mutations:
        node = obj
        for key in path[:-1]:
            if isinstance(node, dict) and key in node:
                node = node[key]
            elif isinstance(node, list) and isinstance(key, int) and key < len(node):
                node = node[key]
            else:
                break
        else:
            key = path[-1]
            present = (key in node if isinstance(node, dict) else
                       isinstance(node, list) and key < len(node))
            if present and action == "delete":
                del node[key]
            elif present:
                node[key] = value
    return obj


@given(st.lists(st.tuples(st.sampled_from(MODEL_PATHS),
                          st.sampled_from(("set", "delete")),
                          st.sampled_from(MUTANT_VALUES)),
                min_size=1, max_size=3))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_malformed_models_exit_cleanly(mutations):
    """Mutated model files end in exit code 0, 1 or 2, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_text(json.dumps(mutated(mutations)), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["check", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
