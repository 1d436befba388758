"""Check reports: ordered pass/fail/skip entries with a machine format.

Each entry carries an anchor: a stable label tying the check to the identity
catalog in the documentation (``eq-2.7``, ``thm-4.1``, ...) or ``plumbing``
for checks that only guard internal consistency.  An identity entry is
made by ``compare``, which decides got == want exactly and, on failure,
appends where and by how much got - want is nonzero.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .scalars import RationalFunction
from .tensors import MultilinearForm, Vector

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


def compare(name: str, anchor: str, got, want, detail: str = "") -> CheckEntry:
    """The entry deciding got == want exactly; scalars are canonical, so
    equality is the exact identity.  A failing entry appends
    ``residual_suffix(got, want)`` to its statement."""
    if got == want:
        return passed(name, anchor, detail)
    return failed(name, anchor, detail + residual_suffix(got, want))


def residual_suffix(got, want) -> str:
    """Where and by how much got differs from want, as a detail suffix.

    For a table or a vector: the first nonzero component of got - want in
    row-major order, named in the frame labels of got (the upper slot of a
    vector-valued table included), its value and the count of nonzero
    components.  For a scalar: the residual got - want.  For a tuple: the
    first member pair that differs.  Other values (truth values, ranks,
    signatures) give no suffix, their statements carry them.
    """
    if isinstance(got, tuple):
        return next((residual_suffix(g, w) for g, w in zip(got, want) if g != w), "")
    if isinstance(got, RationalFunction):
        return f"; the residual is {got - want}"
    if not isinstance(got, (MultilinearForm, Vector)):
        return ""
    residual = got - want
    if isinstance(got, Vector):
        comps, arity = residual.components, 1
    else:
        comps, arity = residual.entries, got.arity
    nonzero = [off for off, c in enumerate(comps) if not c.is_zero()]
    labels = got.frame.labels
    at, off = [], nonzero[0]
    for _ in range(arity):
        off, i = divmod(off, len(labels))
        at.insert(0, labels[i])
    return (f"; the residual at ({', '.join(at)}) is {comps[nonzero[0]]}, "
            f"{len(nonzero)} of {len(comps)} components nonzero")


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
