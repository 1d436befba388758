"""The bytes of the command-line reports, pinned by their SHA-256.

Each case runs ``rsthl`` in this process under each suite and records its
exit code and the SHA-256 of its stdout, its stderr and its ``--report``
JSON.  The cases are ``check`` on the model behind each file of
``tests/data`` (the stored reports' models, and ``unequal_weights.json``
itself), ``check`` on three rebased frames of the worked model, and
``example47``, symbolic and at ``--mu 7/5``.

``tests/data/report_digests.json`` holds the digests.  A change that
alters a report on purpose regenerates it, from the repository root, with

    PYTHONPATH=src python3 tests/test_report_digests.py
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from rsthl.cli import main
from rsthl.model import dumps_model
from rsthl.suite import SUITES

import test_properties as models

DATA = Path(__file__).parent / "data"
DIGESTS = DATA / "report_digests.json"

# the models of the stored reports; example47 and example47_mu_7_5 run as
# the example47 command
BUILT = (models.degenerate_metric, models.doubled_reeb_norm,
         models.jacobi_violation, models.no_submanifold, models.reeb_sheared,
         models.screen_radical_mixing, models.zero_brackets,
         *(models.rebased(seed) for seed in (1, 2, 3)))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list[str], report: Path) -> dict:
    """The exit code and the digests of one in-process ``rsthl`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--report", str(report)])
    written = report.read_text(encoding="utf-8") if report.exists() else None
    report.unlink(missing_ok=True)
    return {"exit": code, "stdout": sha256(out.getvalue()),
            "stderr": sha256(err.getvalue()),
            "report": written and sha256(written)}


def report_digests(workdir: Path) -> dict:
    """{case: digests} for every case under every suite."""
    commands = {}
    for build in BUILT:
        path = workdir / f"{build.__name__}.json"
        path.write_text(dumps_model(build()), encoding="utf-8")
        commands[f"check {build.__name__}"] = ["check", str(path)]
    commands["check unequal_weights"] = ["check", str(DATA / "unequal_weights.json")]
    commands["example47"] = ["example47"]
    commands["example47 --mu 7/5"] = ["example47", "--mu", "7/5"]
    return {f"{case} --suite {suite}": run([*argv, "--suite", suite],
                                            workdir / "report.json")
            for case, argv in commands.items() for suite in SUITES}


def test_reports_keep_their_bytes(tmp_path):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = report_digests(tmp_path)
    assert sorted(got) == sorted(want)
    assert [case for case in want if got[case] != want[case]] == []


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        digests = report_digests(Path(workdir))
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
