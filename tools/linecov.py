"""The lines of the package that a pytest run never executes.

Usage, from the repository root:

    python3 tools/linecov.py [--package DIR] [PYTEST ARGS ...]

``coverage`` is not a dependency, so this is a stdlib line tracer.  It
installs a ``sys.settrace`` and ``threading.settrace`` hook, runs
``pytest.main`` in this process on the given arguments, and records the
lines that run in the files under DIR (default ``src/rsthl``).  The
executable lines of a file are the lines its compiled code objects,
nested functions and classes included, map instructions to
(``co_lines``).  After pytest's own output it prints each executable line
that never ran as ``PACKAGE/FILE:LINE``, in file and line order, then
``M of N executable lines never ran``, and exits with pytest's exit code.

Tracing makes the run several times slower, so a test that times itself
may fail under it; the lines it ran still count.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def executable_lines(path: Path) -> set[int]:
    """The line numbers the code objects compiled from path map to."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, type(code)))
    return lines


def traced_run(package: Path, pytest_args: list[str]) -> tuple[int, dict]:
    """pytest's exit code and {absolute path: lines run} under package."""
    import pytest

    prefix = str(package.resolve()) + os.sep
    hits: dict[str, set[int]] = defaultdict(set)
    inside: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = os.path.abspath(name).startswith(prefix)
        if not inside[name]:
            return None
        hits[name].add(frame.f_lineno)
        return local

    threading.settrace(call)
    sys.settrace(call)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    run = defaultdict(set)
    for name, lines in hits.items():
        run[os.path.abspath(name)] |= lines
    return int(code), run


def main(argv: list[str]) -> int:
    package = ROOT / "src" / "rsthl"
    if argv[:1] == ["--package"]:
        package, argv = Path(argv[1]), argv[2:]
    code, run = traced_run(package, argv)
    missing, total = [], 0
    for path in sorted(package.resolve().rglob("*.py")):
        lines = executable_lines(path)
        total += len(lines)
        name = path.relative_to(package.resolve().parent).as_posix()
        missing += [f"{name}:{line}" for line in sorted(lines - run[str(path)])]
    print("\n".join(missing + [f"{len(missing)} of {total} executable lines never ran"]))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
