"""Check JSON reports against the hand-written known answers.

``known_answers.json`` lists, per suite, the entries the worked model must
report, in order, with their status.  A report matches when its entries
agree name by name and status by status and its counts agree with them.
A report that differs exactly as a registered known defect predicts is
classified as that defect: it is still a wrong verdict, but an expected
one, so a run can tell a documented engine bug from a new one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

KNOWN_ANSWERS = Path(__file__).with_name("known_answers.json")

MATCH = "match"
WRONG = "wrong"


def load_known(path: Path = KNOWN_ANSWERS) -> dict:
    """Read the known answers; the stage lists must add up to the counts."""
    with open(path, encoding="utf-8") as handle:
        known = json.load(handle)
    for suite, count in known["counts"].items():
        if len(expected_entries(known, suite)) != count:
            raise ValueError(f"known answers for {suite!r} do not list {count} entries")
    return known


@dataclass(frozen=True)
class Verdict:
    kind: str               # MATCH, WRONG, or the id of a known defect
    mismatched: int         # entries whose name or status differs
    detail: str = ""


def expected_entries(known: dict, suite: str) -> list[tuple[str, str]]:
    status = known["status"]
    return [(name, status) for stage in known["suites"][suite]
            for name in known["stages"][stage]]


def _defect_entries(defect: dict, expected: list[tuple[str, str]]) -> list[tuple]:
    """The (name, status, detail fragment) list the defect predicts."""
    fail, skipped = defect["fail"], set(defect["skipped"])
    out = []
    for name, status in expected:
        if name in fail:
            out.append((name, "fail", fail[name]))
        elif name in skipped:
            out.append((name, "skipped", defect["skipped_reason"]))
        else:
            out.append((name, status, None))
    return out


def _matches_defect(entries: list[dict], predicted: list[tuple]) -> bool:
    if len(entries) != len(predicted):
        return False
    for entry, (name, status, fragment) in zip(entries, predicted):
        if entry.get("name") != name or entry.get("status") != status:
            return False
        if fragment is not None and fragment not in entry.get("detail", ""):
            return False
    return True


def check_report(report: dict, suite: str, known: dict, workload: str) -> Verdict:
    """Classify one parsed JSON report of the given suite."""
    expected = expected_entries(known, suite)
    entries = report.get("entries", [])
    got = [(e.get("name"), e.get("status")) for e in entries]
    mismatched = sum(1 for a, b in zip(got, expected) if a != b)
    mismatched += abs(len(got) - len(expected))
    counts = report.get("counts", {})
    want_counts = {"pass": sum(1 for _, s in got if s == "pass"),
                   "fail": sum(1 for _, s in got if s == "fail"),
                   "skipped": sum(1 for _, s in got if s == "skipped")}
    if counts != want_counts:
        return Verdict(WRONG, max(mismatched, 1),
                       "the report counts disagree with its entries")
    if mismatched == 0:
        return Verdict(MATCH, 0)
    for defect in known.get("known_defects", []):
        if workload in defect["workloads"] and _matches_defect(
                entries, _defect_entries(defect, expected)):
            return Verdict(defect["id"], mismatched)
    first = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
                 min(len(got), len(expected)))
    return Verdict(WRONG, mismatched, f"first difference at entry {first}")
