"""The three workloads: how each one's model files are made and requested.

Every request is one in-process ``rsthl check FILE --suite S --report OUT``.
A workload fixes the model files (written once, before timing) and a
seeded, endless stream of (file, suite) requests.  It also fixes the
traced round: the short, seed-independent list of requests whose per-layer
counts the traced run reports, so that those counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
from pathlib import Path

import rebase

SUITES = ("ambient", "submanifold", "theorem46", "all")

# rebased: frames per seed (see rebase.random_frame).
REBASED_FRAMES = 3


# Why each workload was chosen and how it is loaded: see README.md.
WORKLOADS = ("example47", "suite-mix", "rebased")


def emit_example(cli, path: Path) -> None:
    """Write the built-in model with the CLI's --emit, output discarded.

    The call also runs the ambient suite once, which serves as warm-up.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["example47", "--emit", str(path), "--suite", "ambient"])
    if code != 0:
        raise RuntimeError(f"rsthl example47 --emit exited with {code}")


def prepare(name: str, seed: int, workdir: Path, cli) -> list[Path]:
    """Write the workload's model files into workdir and return their paths."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name in ("example47", "suite-mix"):
        path = workdir / "example47.json"
        emit_example(cli, path)
        return [path]
    if name == "rebased":
        paths = []
        texts = rebase.rebased_models(seed, REBASED_FRAMES)
        for k, text in enumerate(texts):
            path = workdir / f"rebased-{k}.json"
            path.write_text(text, encoding="utf-8")
            paths.append(path)
        return paths
    raise ValueError(f"unknown workload {name!r}")


def stream(name: str, seed: int, files: list[Path]):
    """The endless, seeded request stream of (file, suite) pairs."""
    if name == "example47":
        return ((files[0], "all") for _ in itertools.count())
    if name == "suite-mix":
        rng = random.Random(f"suite-mix:{seed}")

        def blocks():
            while True:
                order = list(SUITES)
                rng.shuffle(order)
                yield from ((files[0], s) for s in order)
        return blocks()
    if name == "rebased":
        return ((f, "all") for f in itertools.cycle(files))
    raise ValueError(f"unknown workload {name!r}")


def traced_round(name: str, files: list[Path]) -> list[tuple[Path, str]]:
    """The fixed requests of a traced run."""
    if name == "example47":
        return [(files[0], "all")] * 2
    if name == "suite-mix":
        return [(files[0], s) for s in SUITES]
    if name == "rebased":
        return [(files[0], "all")]
    raise ValueError(f"unknown workload {name!r}")
