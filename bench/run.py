"""Benchmark harness: time to verdict on the worked model and its variants.

Usage, from the root of a checkout:

    python3 bench/run.py --workload example47 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

One process, one client, no threads: a closed loop sends the next request
when the previous one has returned.  A request is one in-process
``rsthl check FILE --suite S --report OUT`` with stdout captured, so it
crosses every layer.  Every report is checked against the hand-written
known answers in ``known_answers.json``.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it measures untraced for half the time, then runs the
workload's traced round and prints the per-layer metrics.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record, with the
environment and every sample, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import known
import workloads

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

SETUP_REPEATS = 7
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import rsthl; "
              "from rsthl.model import load_model; "
              "[load_model(p) for p in sys.argv[2:]]")
MIN_TIMED = 3


@dataclass
class Tally:
    """Requests sent and how their reports compared with the known answers."""

    samples: list = field(default_factory=list)   # per-request wall seconds
    attempted: int = 0
    errors: int = 0            # raised, or exited with code 2
    wrong: int = 0             # unexplained mismatch with the known answer
    defects: dict = field(default_factory=dict)    # known defect id -> requests
    entries: int = 0
    right_entries: int = 0
    notes: list = field(default_factory=list)

    @property
    def wrong_verdicts(self) -> int:
        return self.wrong + sum(self.defects.values())


def run_request(cli, path: Path, suite: str, report: Path, answers: dict,
                workload: str, tally: Tally) -> float:
    """Send one request, check its report, and return its wall time."""
    report.unlink(missing_ok=True)
    argv = ["check", str(path), "--suite", suite, "--report", str(report)]
    gc.collect()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback is an error outcome, not a harness bug
        code, error = None, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0

    tally.attempted += 1
    expected = len(known.expected_entries(answers, suite))
    tally.entries += expected
    if code not in (0, 1):
        tally.errors += 1
        tally.notes.append(f"{path.name} --suite {suite}: exit {code} "
                           f"{error or err.getvalue().strip()}")
        return elapsed
    try:
        with open(report, encoding="utf-8") as handle:
            parsed = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        tally.notes.append(f"{path.name} --suite {suite}: unreadable report: {exc}")
        parsed = {}              # every entry then mismatches
    verdict = known.check_report(parsed, suite, answers, workload)
    if (code == 0) != (parsed.get("verdict") == "pass"):
        verdict = known.Verdict(known.WRONG, max(verdict.mismatched, 1),
                                f"exit code {code} contradicts the report verdict")
    tally.right_entries += expected - min(verdict.mismatched, expected)
    if verdict.kind == known.WRONG:
        tally.wrong += 1
        tally.notes.append(f"{path.name} --suite {suite}: {verdict.detail}")
    elif verdict.kind != known.MATCH:
        tally.defects[verdict.kind] = tally.defects.get(verdict.kind, 0) + 1
    return elapsed


def setup_seconds(files: list[Path]) -> float:
    """Wall time of a fresh interpreter that imports rsthl and parses files."""
    argv = [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *map(str, files)]
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, timeout=120,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return time.perf_counter() - t0


def measure(requests, seconds: float, cli, answers: dict, workload: str,
            report: Path, tally: Tally, between) -> None:
    """Closed loop for about ``seconds``: start a request only while the
    median request so far still fits, and time at least MIN_TIMED.
    ``between`` runs after each request, outside its timing."""
    start = time.perf_counter()
    for path, suite in requests:
        tally.samples.append(
            run_request(cli, path, suite, report, answers, workload, tally))
        between()
        elapsed = time.perf_counter() - start
        if (len(tally.samples) >= MIN_TIMED
                and elapsed + statistics.median(tally.samples) > seconds):
            return


def traced_run(workload: str, files: list[Path], cli, answers: dict,
               report: Path, tally: Tally):
    """The workload's traced round under a fresh Tracer: (tracer, times)."""
    from tracing import Tracer
    tracer = Tracer()
    times = []
    with tracer.installed():
        for k, (path, suite) in enumerate(workloads.traced_round(workload, files)):
            tracer.request = k
            times.append(run_request(cli, path, suite, report, answers, workload, tally))
    return tracer, times


def high_percentile(samples: list[float]):
    """The highest of p50..p99 with at least ten samples beyond it."""
    n = len(samples)
    ordered = sorted(samples)
    best = None
    for p in (50, 75, 90, 95, 99):
        rank = -(-p * n // 100)          # ceil(p n / 100)
        if n - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def environment(seed: int) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
        "derived_seeds": {"suite-mix order": f"suite-mix:{seed}",
                          "rebased frames": f"rebased:{seed}"},
    }


def end_to_end(tally: Tally, setups: list[float]) -> tuple[dict, dict]:
    """Gated metrics and the informational rows printed beside them."""
    n = tally.attempted
    metrics = {
        "verdict_s_mean": (statistics.fmean(tally.samples), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "right_entry_share": (tally.right_entries / tally.entries, "share"),
        "clean_exit_share": ((n - tally.errors) / n, "share"),
    }
    info = {
        "verdict_s_p50": (statistics.median(tally.samples), "s"),
        "wrong_verdict_share": (tally.wrong_verdicts / n, "share"),
        "error_share": (tally.errors / n, "share"),
    }
    return metrics, info


def print_rows(rows: dict) -> None:
    for name, (value, unit) in rows.items():
        print(f"  {name:38s} {value:14.6f} {unit}")


def run_workload(args, cli) -> int:
    answers = known.load_known()
    workdir = OUT / f"{args.workload}-seed{args.seed}"
    files = workloads.prepare(args.workload, args.seed, workdir, cli)
    report = workdir / "report.json"
    env = environment(args.seed)
    tally = Tally()
    setups = [setup_seconds(files)]

    def interleave_setup():
        if len(setups) < SETUP_REPEATS:
            setups.append(setup_seconds(files))

    requests = workloads.stream(args.workload, args.seed, files)
    budget = args.seconds / 2 if args.trace else args.seconds
    measure(requests, budget, cli, answers, args.workload, report, tally,
            interleave_setup)
    while len(setups) < SETUP_REPEATS:
        interleave_setup()

    metrics, info = end_to_end(tally, setups)
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "environment": env,
              "samples_s": tally.samples, "setup_samples_s": setups,
              "known_defects": tally.defects, "notes": tally.notes}
    print(f"workload {args.workload}  seed {args.seed}  python {env['python']}  "
          f"nproc {env['nproc']}  {env['platform']}  commit {env['git_commit']}")
    hp = high_percentile(tally.samples)
    print(f"  {len(tally.samples)} timed requests, closed loop, one client; "
          + (f"p{hp[0]} = {hp[1]:.6f} s (info only)" if hp else
             "no percentile above the median has ten samples beyond it"))

    if args.trace:
        tracer, times = traced_run(args.workload, files, cli, answers, report, tally)
        values = tracer.layer_metrics(len(times))
        untraced = info["verdict_s_p50"][0]
        values["trace.overhead_share"] = (statistics.median(times) - untraced) / untraced
        rows = {name: (values[name], unit) for name, unit, _ in PER_LAYER}
        spans = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
        tracer.write_spans(str(spans))
        record["traced_samples_s"] = times
        record["spans"] = str(spans.relative_to(ROOT))
    else:
        rows = metrics
    print_rows(rows)
    if not args.trace:
        print_rows(info)
    for defect, count in tally.defects.items():
        print(f"  known defect {defect}: {count} of {tally.attempted} requests")
    for note in tally.notes[:5]:
        print(f"  unexpected: {note}")

    failed = tally.errors + tally.wrong
    result = {"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in rows.items()}}
    record["result"] = result
    record["info"] = info
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then one row per workload."""
    columns = ("verdict_s_mean", "verdict_s_p50", "setup_s", "peak_rss_mb",
               "wrong_verdict_share", "error_share")
    rows, ok = [], True
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        record = json.loads((OUT / f"{name}-seed{args.seed}-trace0.json").read_text())
        values = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        values.update(record["info"])
        rows.append((name, values))
    print()
    print(f"{'workload':12s}" + "".join(
        f"{c + ' [' + rows[0][1][c][1] + ']':>29s}" for c in columns))
    for name, values in rows:
        print(f"{name:12s}" + "".join(f"{values[c][0]:29.6f}" for c in columns))
    return 0 if ok else 1


# name, unit, better: the per-layer metrics of a traced run, per request.
PER_LAYER = [
    ("scalars.built", "count", "lower"),
    ("scalars.built_zero_share", "share", "lower"),
    ("scalars.built_const_share", "share", "lower"),
    ("scalars.built_mu_share", "share", "higher"),
    ("scalars.ops", "count", "lower"),
    ("scalars.div_calls", "count", "lower"),
    ("scalars.zero_operand_share", "share", "lower"),
    ("scalars.self_s", "s", "lower"),
    ("tensors.value_calls", "count", "lower"),
    ("tensors.value_s", "s", "lower"),
    ("tensors.pull_slots_s", "s", "lower"),
    ("tensors.table_entries", "count", "lower"),
    ("tensors.zero_entry_share", "share", "lower"),
    ("tensors.solve_s", "s", "lower"),
    ("tensors.self_s", "s", "lower"),
    ("liegeom.levi_civita_calls", "count", "lower"),
    ("liegeom.levi_civita_s", "s", "lower"),
    ("liegeom.curvature_calls", "count", "lower"),
    ("liegeom.curvature_s", "s", "lower"),
    ("liegeom.lower_s", "s", "lower"),
    ("liegeom.self_s", "s", "lower"),
    ("structure.associated_metric_calls", "count", "lower"),
    ("structure.validate_acbm_s", "s", "lower"),
    ("structure.fit_curvature_pair_s", "s", "lower"),
    ("structure.constant_curvature_residual_s", "s", "lower"),
    ("structure.self_s", "s", "lower"),
    ("lightlike.build_frame_s", "s", "lower"),
    ("lightlike.gauss_weingarten_s", "s", "lower"),
    ("lightlike.covariant_derivative_calls", "count", "lower"),
    ("lightlike.ricci_action_calls", "count", "lower"),
    ("lightlike.phi_pairing_calls", "count", "lower"),
    ("lightlike.self_s", "s", "lower"),
    ("associated.build_associated_s", "s", "lower"),
    ("associated.tilde_curvature_s", "s", "lower"),
    ("associated.theorem_aggregate_s", "s", "lower"),
    ("associated.self_s", "s", "lower"),
    ("builtin.factor_signature_s", "s", "lower"),
    ("suite.run_suite_s", "s", "lower"),
    ("suite.self_s", "s", "lower"),
    ("suite.discarded_entry_share", "share", "lower"),
    ("model.load_s", "s", "lower"),
    ("report.render_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rsthl" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC / 'rsthl'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    try:
        from rsthl import cli
    except ImportError as exc:
        print(f"error: cannot import rsthl: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    return run_workload(args, cli)


if __name__ == "__main__":
    sys.exit(main())
