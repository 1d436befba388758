"""Interleaved A/B timing of two checkouts of rsthl in one process.

Usage, from anywhere:

    python3 tools/interleaved_ab.py BASE CHANGE [--model FILE] [--suite S]
                                    [--requests N]

BASE and CHANGE are checkouts (a directory with ``src/rsthl``) or ``src``
directories.  Both packages are imported side by side: each is imported
once, and its ``rsthl*`` entries of ``sys.modules`` are swapped in before
each of its requests, so an import inside a function also resolves to its
own tree.  A request is one in-process
``rsthl.cli.main(["check", FILE, "--suite", S, "--report", OUT])`` with
stdout captured, as the benchmark sends it, after ``gc.collect()`` outside
its timing.  Requests alternate between the trees in pairs, and the order
within a pair flips every pair, so a slow phase of the host weighs on both
trees alike.  Without ``--model`` the worked model is written by BASE's
``rsthl example47 --emit``.

``--suite mix`` sends the four suites as the benchmark's ``suite-mix``
workload does: one request is a block of all four, in an order drawn
from ``random.Random("suite-mix:1")`` (the workload at seed 1) for each
pair and shared by both trees, and its time is the block's.

The output gives each tree's mean request time, the median over pairs of
the CHANGE/BASE ratio (with ``mix``, also per suite), the number of pairs
CHANGE won and whether the two trees' last reports of each suite are
byte-identical.  It sizes a change in a minute; claims still rest on the
benchmark harness's alternating runs (``bench/README.md``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

SUITES = ("ambient", "submanifold", "theorem46", "all")


def package_modules(root: str) -> dict:
    """The ``rsthl*`` modules of one checkout, imported afresh."""
    src = Path(root) / "src" if (Path(root) / "src" / "rsthl").is_dir() else Path(root)
    for name in [n for n in sys.modules if n == "rsthl" or n.startswith("rsthl.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        importlib.import_module("rsthl.cli")
    finally:
        sys.path.remove(str(src))
    return {n: m for n, m in sys.modules.items() if n == "rsthl" or n.startswith("rsthl.")}


def request(modules: dict, argv: list[str]) -> float:
    """Run one CLI call with the given tree's modules; its wall seconds."""
    sys.modules.update(modules)
    main = modules["rsthl.cli"].main
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    elapsed = time.perf_counter() - start
    if code not in (0, 1):
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the reference checkout")
    parser.add_argument("change", help="the checkout to compare with it")
    parser.add_argument("--model", help="model file (default: the emitted example47)")
    parser.add_argument("--suite", default="all", choices=SUITES + ("mix",))
    parser.add_argument("--requests", type=int, default=300,
                        help="requests in all, an even number (default 300)")
    args = parser.parse_args(argv)
    if args.requests < 2 or args.requests % 2:
        parser.error("--requests must be an even number of at least 2")
    suites = SUITES if args.suite == "mix" else (args.suite,)
    rng = random.Random("suite-mix:1")
    trees = (package_modules(args.base), package_modules(args.change))
    with tempfile.TemporaryDirectory() as tmp:
        model = args.model or str(Path(tmp) / "example47.json")
        if not args.model:
            request(trees[0], ["example47", "--emit", model])
        reports = [{s: Path(tmp) / f"report{i}-{s}.json" for s in suites} for i in (0, 1)]
        times = ([], [])
        by_suite = {s: ([], []) for s in suites}
        for k in range(args.requests // 2):
            order = list(suites)
            rng.shuffle(order)
            for i in ((0, 1) if k % 2 == 0 else (1, 0)):
                block = 0.0
                for s in order:
                    t = request(trees[i], [
                        "check", model, "--suite", s, "--report", str(reports[i][s])])
                    by_suite[s][i].append(t)
                    block += t
                times[i].append(block)
        same = all(reports[0][s].read_bytes() == reports[1][s].read_bytes()
                   for s in suites)
    pairs = len(times[0])
    ratios = [b / a for a, b in zip(*times)]
    print(f"model {Path(model).name}, suite {args.suite}, {pairs} pairs")
    for label, path, samples in zip(("base", "change"), (args.base, args.change), times):
        print(f"{label}: mean {statistics.fmean(samples) * 1e3:.2f} ms  ({path})")
    print(f"median pair ratio change/base: {statistics.median(ratios):.3f}")
    if args.suite == "mix":
        print("median pair ratio per suite: " + ", ".join(
            f"{s} {statistics.median(b / a for a, b in zip(*by_suite[s])):.3f}"
            for s in suites))
    print(f"change faster in {sum(r < 1 for r in ratios)} of {pairs} pairs")
    print(f"last reports byte-identical: {'yes' if same else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
