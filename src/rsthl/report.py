"""Check reports: ordered pass/fail/skip entries with a machine format.

Each entry carries an anchor: a stable label tying the check to the identity
catalog in the documentation (``eq-2.7``, ``thm-4.1``, ...) or ``plumbing``
for checks that only guard internal consistency.  An identity entry is
made by ``compare``, which decides got == want exactly and, on failure,
appends where and by how much got - want is nonzero.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _json_str
from typing import Optional

from .scalars import RationalFunction
from .tensors import MultilinearForm

PASS = "pass"
FAIL = "fail"
SKIP = "skipped"

_JSON_TRUTH = {True: "true", False: "false", None: "null"}


class CheckEntry:
    """One check: its name, anchor, status and statement; entries with the
    same four fields are equal."""

    __slots__ = ("name", "anchor", "status", "detail")

    def __init__(self, name: str, anchor: str, status: str, detail: str = ""):
        self.name = name
        self.anchor = anchor
        self.status = status
        self.detail = detail

    def __eq__(self, other):
        if not isinstance(other, CheckEntry):
            return NotImplemented
        return (self.name == other.name and self.anchor == other.anchor
                and self.status == other.status and self.detail == other.detail)

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

    For a table, a vector (arity 1) included: the first nonzero component
    of got - want in row-major order, named in the frame labels of got (the
    upper slot of a vector-valued table included), its value and the count
    of nonzero components.  For a scalar: the residual got - want.  For a
    tuple: the first member pair that differs.  Other values (truth values
    and ranks) give no suffix, their statements carry them.
    """
    if isinstance(got, tuple):
        return next((residual_suffix(g, w) for g, w in zip(got, want) if g != w), "")
    if isinstance(got, RationalFunction):
        return f"; the residual is {got - want}"
    if not isinstance(got, MultilinearForm):
        return ""
    residual = (got - want).nonzero
    first = min(residual)
    labels = got.frame.labels
    at, off = [], first
    for _ in range(got.arity):
        off, i = divmod(off, len(labels))
        at.insert(0, labels[i])
    return (f"; the residual at ({', '.join(at)}) is {residual[first]}, "
            f"{len(residual)} of {len(labels) ** got.arity} components nonzero")


class CheckReport:
    """The entries of one run, in order."""

    __slots__ = ("entries",)

    def __init__(self, entries: Optional[list[CheckEntry]] = None):
        self.entries = [] if entries is None else entries

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
        """``json.dumps(self.to_json_obj(), indent=2)`` and a newline, with
        the fixed layout written out and each string through the json
        module's own encoder; fixed key order keeps identical runs
        byte-identical."""
        c = self.counts
        entries = ",\n".join(
            "    {\n"
            f'      "name": {_json_str(e.name)},\n'
            f'      "anchor": {_json_str(e.anchor)},\n'
            f'      "status": {_json_str(e.status)},\n'
            f'      "residual_zero": {_JSON_TRUTH[e.residual_zero]},\n'
            f'      "detail": {_json_str(e.detail)}\n'
            "    }" for e in self.entries)
        return ("{\n"
                f'  "verdict": "{"pass" if self.ok else "fail"}",\n'
                '  "counts": {\n'
                f'    "pass": {c[PASS]},\n'
                f'    "fail": {c[FAIL]},\n'
                f'    "skipped": {c[SKIP]}\n'
                "  },\n"
                + ('  "entries": [\n' + entries + "\n  ]\n" if self.entries
                   else '  "entries": []\n')
                + "}\n")

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
