"""Check reports: ordered pass/fail/skip entries with a machine format.

Each entry carries an anchor: a stable label tying the check to the identity
catalog in the documentation (``eq-2.7``, ``thm-4.1``, ...) or ``plumbing``
for checks that only guard internal consistency.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"


@dataclass(frozen=True)
class CheckEntry:
    name: str
    anchor: str
    status: str
    detail: str = ""

    @property
    def residual_zero(self):
        if self.status == PASS:
            return True
        if self.status == FAIL:
            return False
        return None

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "anchor": self.anchor,
            "status": self.status,
            "residual_zero": self.residual_zero,
            "detail": self.detail,
        }


def passed(name: str, anchor: str, detail: str = "") -> CheckEntry:
    return CheckEntry(name, anchor, PASS, detail)


def failed(name: str, anchor: str, detail: str = "") -> CheckEntry:
    return CheckEntry(name, anchor, FAIL, detail)


def skipped(name: str, anchor: str, reason: str) -> CheckEntry:
    return CheckEntry(name, anchor, SKIP, reason)


def residual_entry(name: str, anchor: str, zero: bool, detail: str = "") -> CheckEntry:
    return passed(name, anchor, detail) if zero else failed(name, anchor, detail or "nonzero residual")


@dataclass
class CheckReport:
    entries: list[CheckEntry] = field(default_factory=list)

    def extend(self, entries) -> None:
        for e in entries:
            self.entries.append(e)

    @property
    def ok(self) -> bool:
        return all(e.status != FAIL for e in self.entries)

    @property
    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, SKIP: 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    def to_json_obj(self) -> dict:
        return {
            "verdict": "pass" if self.ok else "fail",
            "counts": self.counts,
            "entries": [e.to_json_obj() for e in self.entries],
        }

    def to_json(self) -> str:
        # Fixed key order and separators keep identical runs byte-identical.
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=False) + "\n"

    def render_text(self) -> str:
        width = max((len(e.name) for e in self.entries), default=0)
        lines = []
        for e in self.entries:
            mark = {PASS: "ok  ", FAIL: "FAIL", SKIP: "skip"}[e.status]
            line = f"[{mark}] {e.name.ljust(width)}  {e.anchor}"
            if e.detail:
                line += f"  ({e.detail})"
            lines.append(line)
        c = self.counts
        lines.append(
            f"verdict: {'pass' if self.ok else 'fail'}"
            f" ({c[PASS]} passed, {c[FAIL]} failed, {c[SKIP]} skipped)"
        )
        return "\n".join(lines)
