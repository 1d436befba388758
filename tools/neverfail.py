"""The catalogued entries that no test makes fail.

Usage, from the repository root:

    python3 tools/neverfail.py [PYTEST ARGS ...]

It runs ``pytest.main`` in this process on the given arguments with a
plugin that records the status of every ``rsthl.report.CheckEntry`` built
while the tests run.  After pytest's own output it prints each name of
``bench/known_answers.json`` (its stages, in catalog order) that never
reported ``fail``, then ``M of N catalogued names never reported fail``,
and exits with pytest's exit code.  An entry that no input makes fail
certifies nothing, so each printed name needs a failing witness or a
stated reason.

Only this process is seen: the entries of a test that runs the package in
a subprocess, as the command-line tests do, are not recorded, and the
last line of the output says so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


class StatusRecorder:
    """A pytest plugin: every status each entry name reported during the run."""

    def __init__(self):
        self.statuses: dict[str, set[str]] = {}

    def pytest_sessionstart(self, session):
        from rsthl.report import CheckEntry

        build, statuses = CheckEntry.__init__, self.statuses

        def recorded(entry, name, anchor, status, detail=""):
            build(entry, name, anchor, status, detail)
            statuses.setdefault(name, set()).add(status)

        self.build, CheckEntry.__init__ = build, recorded

    def pytest_sessionfinish(self, session):
        from rsthl.report import CheckEntry

        CheckEntry.__init__ = self.build


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    recorder = StatusRecorder()
    code = pytest.main(argv, plugins=[recorder])
    from rsthl.report import FAIL

    known = json.loads((ROOT / "bench" / "known_answers.json").read_text(encoding="utf-8"))
    names = [n for stage in known["stages"].values() for n in stage]
    never = [n for n in names if FAIL not in recorder.statuses.get(n, ())]
    print("\n".join(never + [f"{len(never)} of {len(names)} catalogued names never reported fail",
                             "tests that run in a subprocess are not seen"]))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
