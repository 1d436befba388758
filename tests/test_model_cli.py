"""Model file schema errors, round trips, suite slicing, and the CLI."""

import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from rsthl import associated, liegeom, lightlike, structure, suite
from rsthl.builtin import example_model
from rsthl.cli import main
from rsthl.errors import ModelError
from rsthl.model import (dumps_model, load_model, model_from_json_obj,
                         model_to_json_obj, save_model)
from rsthl.suite import run_suite


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

    count(structure, "associated_metric", "associated_metric")
    count(lightlike, "covariant_derivative", "covariant_derivative")
    count(liegeom, "ricci_action", "ricci_action")
    count(lightlike.SubmanifoldFrame.phi_pairing, "func", "phi_pairing")
    count(lightlike, "build_frame", "build_frame")
    # associated imports the function by name, so both bindings count
    count(lightlike, "proportionality_factor", "proportionality_factor")
    count(associated, "proportionality_factor", "proportionality_factor")
    # solved once for their suite steps and reused by the theorem stage
    count(lightlike, "eta_einstein_solve", "eta_einstein_solve")
    count(associated, "einstein_solve", "einstein_solve")
    run_suite(model, "all")
    # proportionality_factor: b, d and c against g, then h1 and h2 against g~
    assert calls == {"associated_metric": 1, "covariant_derivative": 2,
                     "ricci_action": 2, "phi_pairing": 1, "build_frame": 1,
                     "proportionality_factor": 5, "eta_einstein_solve": 1,
                     "einstein_solve": 1}
    calls.update(dict.fromkeys(calls, 0))
    run_suite(model, "ambient")
    assert calls["build_frame"] == 0


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


def test_cli_rejects_zero_mu(capsys):
    assert main(["example47", "--mu", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "nonzero" in err


def test_cli_rejects_malformed_mu(capsys):
    assert main(["example47", "--mu", "abc"]) == 2
    err = capsys.readouterr().err
    assert "not a rational number: 'abc'" in err


def test_cli_emit_then_check(tmp_path, capsys):
    path = str(tmp_path / "emitted.json")
    assert main(["example47", "--emit", path]) == 0
    first = capsys.readouterr().out
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == dumps_model(example_model())
    assert main(["check", path]) == 0
    assert capsys.readouterr().out == first


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
