"""Tests of the benchmark itself: generator, known-answer checker, tracing.

Run from the root of the repository:

    python3 -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import known  # noqa: E402
import rebase  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from rsthl import cli  # noqa: E402
from rsthl.model import model_from_json_obj  # noqa: E402
from rsthl.scalars import RationalFunction  # noqa: E402


# -- rebased generator ---------------------------------------------------

def test_generator_is_deterministic():
    first = rebase.rebased_models(7, 2)
    second = rebase.rebased_models(7, 2)
    assert [t.encode() for t in first] == [t.encode() for t in second]
    assert first != rebase.rebased_models(8, 2)


def test_generator_rejects_a_singular_frame():
    singular = [[1, 1, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 0, 0],
                [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    with pytest.raises(ValueError, match="singular"):
        rebase.transform(singular)


def test_generated_frames_are_invertible_and_mix_in_the_reeb_direction():
    import random
    rng = random.Random("test")
    for _ in range(5):
        p = rebase.random_frame(rng)
        assert rebase.determinant(p) != 0
        assert all(p[rebase.REEB][j] != 0 for j in range(rebase.DIM))


def test_generated_metric_is_the_congruent_transport():
    p = [[1, 0, 0, 0, 0], [1, -1, 0, 0, 0], [0, 0, 1, 0, 0],
         [0, 0, 1, 1, 0], [1, 1, 1, 1, 1]]
    data = rebase.transform(p)
    g = [[Fraction(v) for v in row] for row in
         ([1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, -1, 0, 0],
          [0, 0, 0, -1, 0], [0, 0, 0, 0, 1])]
    for a in range(5):
        for b in range(5):
            want = sum(p[i][a] * g[i][j] * p[j][b]
                       for i in range(5) for j in range(5))
            assert data["metric"][a][b] == want
    model = model_from_json_obj(json.loads(rebase.model_json(data)))
    for a in range(5):
        for b in range(5):
            assert model.metric_form.entry(a, b) == RationalFunction(
                (data["metric"][a][b],))


def test_scalar_format_parses_back():
    for c0, c1 in [(0, 0), (3, 0), (Fraction(-1, 2), 0), (0, 1), (0, -1),
                   (Fraction(2, 3), Fraction(-5, 7)), (-4, Fraction(1, 3))]:
        text = rebase.fmt_scalar((Fraction(c0), Fraction(c1)))
        value = RationalFunction.parse(text)
        assert value == RationalFunction((Fraction(c0), Fraction(c1)))


# -- known-answer checker ------------------------------------------------

def _report(entries):
    counts = {"pass": 0, "fail": 0, "skipped": 0}
    for e in entries:
        counts[e["status"]] += 1
    return {"verdict": "fail" if counts["fail"] else "pass",
            "counts": counts, "entries": entries}


def _answer(answers, suite):
    return [{"name": n, "anchor": "", "status": s, "detail": ""}
            for n, s in known.expected_entries(answers, suite)]


def test_known_answer_counts():
    answers = known.load_known()
    assert {s: len(known.expected_entries(answers, s)) for s in workloads.SUITES} == {
        "ambient": 22, "submanifold": 108, "theorem46": 6, "all": 114}


def test_checker_accepts_the_known_answer():
    answers = known.load_known()
    for suite in workloads.SUITES:
        verdict = known.check_report(_report(_answer(answers, suite)), suite,
                                     answers, "example47")
        assert verdict.kind == known.MATCH


def test_checker_flags_an_altered_report():
    answers = known.load_known()
    entries = _answer(answers, "all")
    entries[40]["status"] = "fail"
    verdict = known.check_report(_report(entries), "all", answers, "example47")
    assert verdict.kind == known.WRONG and verdict.mismatched == 1

    renamed = _answer(answers, "all")
    renamed[3]["name"] = "something-else"
    assert known.check_report(_report(renamed), "all", answers,
                              "example47").kind == known.WRONG

    short = _answer(answers, "all")[:-1]
    assert known.check_report(_report(short), "all", answers,
                              "example47").kind == known.WRONG

    lying = _report(_answer(answers, "all"))
    lying["counts"]["pass"] -= 1
    assert known.check_report(lying, "all", answers, "example47").kind == known.WRONG


def _defect_report(answers):
    defect = answers["known_defects"][0]
    entries = _answer(answers, "all")
    for e in entries:
        if e["name"] in defect["fail"]:
            e["status"], e["detail"] = "fail", defect["fail"][e["name"]] + " ..."
        elif e["name"] in defect["skipped"]:
            e["status"], e["detail"] = "skipped", defect["skipped_reason"]
    return _report(entries)


def test_checker_names_the_known_defect_only_where_registered():
    answers = known.load_known()
    report = _defect_report(answers)
    assert report["counts"] == {"pass": 95, "fail": 1, "skipped": 18}
    verdict = known.check_report(report, "all", answers, "rebased")
    assert verdict.kind == "fit-curvature-pair-frame-scan"
    assert verdict.mismatched == 19
    assert known.check_report(report, "all", answers, "example47").kind == known.WRONG

    other = _defect_report(answers)
    other["entries"][0]["status"] = "fail"
    other["counts"] = _report(other["entries"])["counts"]
    assert known.check_report(other, "all", answers, "rebased").kind == known.WRONG


class _FakeCli:
    """Stands in for rsthl.cli: returns a fixed exit code, writes nothing."""

    def __init__(self, code):
        self.code = code

    def main(self, argv):
        return self.code


def test_a_missing_report_is_a_wrong_verdict_and_exit_2_an_error(tmp_path):
    answers = known.load_known()
    tally = run.Tally()
    run.run_request(_FakeCli(0), tmp_path / "m.json", "all", tmp_path / "r.json",
                    answers, "example47", tally)
    assert (tally.attempted, tally.errors, tally.wrong, tally.right_entries) == (1, 0, 1, 0)
    run.run_request(_FakeCli(2), tmp_path / "m.json", "all", tmp_path / "r.json",
                    answers, "example47", tally)
    assert (tally.attempted, tally.errors, tally.wrong) == (2, 1, 1)


# -- tracing -------------------------------------------------------------

COUNT_UNITS = ("count", "share")


def _traced_counts(workload, tmp_path):
    answers = known.load_known()
    files = workloads.prepare(workload, 1, tmp_path, cli)
    tally = run.Tally()
    tracer, times = run.traced_run(workload, files, cli, answers,
                                   tmp_path / "report.json", tally)
    assert tally.errors == 0 and tally.wrong == 0
    return tracer.layer_metrics(len(times))


def test_traced_counts_repeat_exactly(tmp_path):
    first = _traced_counts("example47", tmp_path / "a")
    second = _traced_counts("example47", tmp_path / "b")
    units = {name: unit for name, unit, _ in run.PER_LAYER}
    counts = [n for n in first if units[n] in COUNT_UNITS]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["tensors.value_calls"] == 3290
    assert first["liegeom.levi_civita_calls"] == 5


def test_tracing_restores_every_binding(tmp_path):
    import rsthl.liegeom
    import rsthl.scalars
    import rsthl.suite
    before = (rsthl.suite.curvature, rsthl.liegeom.curvature,
              rsthl.scalars.RationalFunction.__dict__["__add__"])
    _traced_counts("example47", tmp_path)
    after = (rsthl.suite.curvature, rsthl.liegeom.curvature,
             rsthl.scalars.RationalFunction.__dict__["__add__"])
    assert before == after


def test_benchmark_file_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_per_layer_metric_for_every_workload(workload):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [n for n, _, _ in run.PER_LAYER]
