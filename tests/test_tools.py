"""The development scripts under ``tools/`` run and print what they claim."""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_interleaved_ab_runs_a_checkout_against_itself():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleaved_ab.py"), str(ROOT), str(ROOT),
         "--requests", "4"],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 6
    assert lines[0] == "model example47.json, suite all, 2 pairs"
    for label, line in zip(("base", "change"), lines[1:3]):
        assert re.fullmatch(rf"{label}: mean \d+\.\d\d ms  \({re.escape(str(ROOT))}\)", line)
    assert re.fullmatch(r"median pair ratio change/base: \d+\.\d\d\d", lines[3])
    assert re.fullmatch(r"change faster in [012] of 2 pairs", lines[4])
    assert lines[5] == "last reports byte-identical: yes"


def test_interleaved_ab_mixes_the_four_suites():
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "interleaved_ab.py"), str(ROOT), str(ROOT),
         "--suite", "mix", "--requests", "4"],
        capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 7
    assert lines[0] == "model example47.json, suite mix, 2 pairs"
    assert re.fullmatch(r"median pair ratio change/base: \d+\.\d\d\d", lines[3])
    assert re.fullmatch(r"median pair ratio per suite: ambient \d+\.\d\d\d, "
                        r"submanifold \d+\.\d\d\d, theorem46 \d+\.\d\d\d, "
                        r"all \d+\.\d\d\d", lines[4])
    assert re.fullmatch(r"change faster in [012] of 2 pairs", lines[5])
    assert lines[6] == "last reports byte-identical: yes"


def test_linecov_lists_only_the_lines_no_test_runs(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "mod.py").write_text(
        "def called():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def uncalled():\n"
        "    x = 2\n"
        "    return x\n", encoding="utf-8")
    (tmp_path / "test_mod.py").write_text(
        "from pkg.mod import called\n\n\n"
        "def test_called():\n"
        "    assert called() == 1\n", encoding="utf-8")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "linecov.py"), "--package", str(package),
         "-q", "-p", "no:cacheprovider", "test_mod.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "1 passed" in run.stdout
    assert run.stdout.splitlines()[-3:] == [
        "pkg/mod.py:6", "pkg/mod.py:7", "2 of 5 executable lines never ran"]


def test_neverfail_lists_the_catalogued_names_no_test_makes_fail(tmp_path):
    (tmp_path / "test_entries.py").write_text(
        "from rsthl.report import failed, passed\n\n\n"
        "def test_entries():\n"
        "    failed('lie-algebra', 'plumbing')\n"
        "    passed('xi-unit', 'sec-2-structure')\n", encoding="utf-8")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "neverfail.py"),
         "-q", "-p", "no:cacheprovider", "test_entries.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "1 passed" in run.stdout
    known = json.loads((ROOT / "bench" / "known_answers.json").read_text(encoding="utf-8"))
    names = [n for stage in known["stages"].values() for n in stage]
    never = [n for n in names if n != "lie-algebra"]
    assert "xi-unit" in never
    assert run.stdout.splitlines()[-len(never) - 2:] == never + [
        f"{len(never)} of {len(names)} catalogued names never reported fail",
        "tests that run in a subprocess are not seen"]
