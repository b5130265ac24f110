"""loraprop benchmark: one workload, one run, one JSON result line.

Usage, from the root of a loraprop checkout::

    python3 perfbench/run.py --workload pipeline-6dev-50k --seed 1 --seconds 36 --trace 0

Each workload is a seeded synthetic corpus (see ``corpus.py``) pushed
through the user's command sequence, driven in-process through
``loraprop.cli.main`` by one client in a closed loop, in a fresh Python
process (``worker.py``):

    pipeline run -> fit mw -> fit mw-ep -> evaluate (mw-ep) -> cross-validate (mw-ep, 5 folds)

The sequence repeats in rounds until ``--seconds`` is spent, short commands
in batches (see ``worker.py``); each command's metric is the median of its
per-round samples.  ``setup_s`` is the median over several fresh processes
of importing ``loraprop.cli`` and building its parser.  All these times are
corrected for the shared host's speed (``hostspeed.py``); the full record
keeps the medians as measured.  Every output is checked, outside the timed
region, against the generator's ground truth and against the first
invocation of its command.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs an
untraced pass, a traced pass (spans at module attributes, ``tracing.py``)
and a ``tracemalloc`` pass, and prints the per-layer metrics.

The last stdout line is the result object; the line before it records the
environment.  Corpora are cached and results kept under ``.perfbench_work/``
in the checkout.  Exit code 2 means the checkout or the arguments are
unusable, 1 that a measuring process failed; neither prints a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus

BENCH = Path(__file__).resolve().parent

#: Fresh processes timed for ``setup_s``.
SETUP_SAMPLES = 7
#: Wall-clock limit of one run, set-up and checks included.
RUN_LIMIT_S = 170.0

COMMAND_METRICS = ("pipeline_run_s", "fit_mw_s", "fit_mw_ep_s", "evaluate_s", "cross_validate_s")

LAYER_METRICS = {
    "pipeline.ingest.self_s": "s",
    "records.parse_row.s": "s",
    "records.parse_row.calls": "count",
    "records.parse_row.failed": "count",
    "pipeline.ingest.accept_ratio": "ratio",
    "pipeline.ingest.retained_bytes_per_row": "B/row",
    "pipeline.audit_derived_columns.s": "s",
    "pipeline.dedup_retransmissions.s": "s",
    "pipeline.dedup_retransmissions.removed": "count",
    "pipeline.filter_sf.s": "s",
    "pipeline.split.s": "s",
    "pipeline.fit_isolation_forest.s": "s",
    "pipeline.fit_isolation_forest.calls": "count",
    "pipeline.isolation_forest.self_s": "s",
    "pipeline.standardize.s": "s",
    "pipeline.flag_anomalies.self_s": "s",
    "pipeline.write_records_csv.self_s": "s",
    "records.format_row.s": "s",
    "records.format_row.calls": "count",
    "pipeline.write_records_csv.bytes": "B",
    "pipeline.run_pipeline.self_s": "s",
    "metrics.pdr.s": "s",
    "metrics.pdr.calls": "count",
    "fitting.design_matrix.s": "s",
    "fitting.design_matrix.calls": "count",
    "fitting.design_matrix.rows_per_input_row": "ratio",
    "fitting.fixed_offsets.s": "s",
    "fitting.fit.self_s": "s",
    "fitting.fit.iterations": "count",
    "evaluation.cross_validate.self_s": "s",
    "evaluation.evaluate_model.self_s": "s",
    "metrics.evaluate_predictions.s": "s",
    "pipeline.kfold.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
}


class BenchError(Exception):
    """The run cannot produce a result; the message says why."""


def _environment(root: Path) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        try:
            probe = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            )
            commit = probe.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class Runner:
    """Starts the measuring processes of one run, one at a time."""

    def __init__(self, root: Path, run_dir: Path, deadline: float) -> None:
        self.root = root
        self.run_dir = run_dir
        self.deadline = deadline

    def _call(self, script: str, argv: list[str], log_name: str) -> str:
        """Run one benchmark script to completion; return its stdout."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("run time limit reached")
        with open(self.run_dir / log_name, "ab") as log:
            try:
                done = subprocess.run(
                    [sys.executable, str(BENCH / script), *argv],
                    cwd=self.root, stdout=subprocess.PIPE, stderr=log, timeout=remaining,
                )
            except subprocess.TimeoutExpired:
                raise BenchError(f"{script} {argv[0]} exceeded the run time limit") from None
        if done.returncode != 0:
            raise BenchError(
                f"{script} {argv[0]} exited with {done.returncode}; see {self.run_dir / log_name}"
            )
        return done.stdout.decode()

    def setup_s(self) -> float:
        src = str(self.root / "src")
        return statistics.median(
            float(self._call("setup_probe.py", [src], "setup.log")) for _ in range(SETUP_SAMPLES)
        )

    def worker(self, mode: str, spec: dict) -> dict:
        spec = dict(spec, result=str(self.run_dir / f"{mode}.json"),
                    spans=str(self.run_dir / f"{mode}.spans.jsonl"))
        spec_path = self.run_dir / f"{mode}.spec.json"
        spec_path.write_text(json.dumps(spec))
        self._call("worker.py", [mode, str(spec_path)], f"{mode}.log")
        return json.loads(Path(spec["result"]).read_text())


def _median_times(result: dict, key: str) -> dict[str, float]:
    """Per-command median of the samples under ``key`` (``times`` as
    measured, ``corrected`` for host speed)."""
    return {
        metric: statistics.median(r[key][metric] for r in result["rounds"] if metric in r[key])
        for metric in COMMAND_METRICS
    }


def _median_layers(result: dict) -> dict[str, float]:
    names = set().union(*(r["layers"] for r in result["rounds"]))
    return {
        name: statistics.median(r["layers"][name] for r in result["rounds"] if name in r["layers"])
        for name in names
    }


def measure(args: argparse.Namespace, root: Path, work: Path) -> tuple[dict, dict]:
    """Run one workload; return (result line, full record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    corpus_dir, truth = corpus.cached(args.workload, args.seed, work / "corpus", args.scale)
    run_dir = work / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(root, run_dir, deadline)
    spec = {
        "src": str(root / "src"),
        "corpus": str(corpus_dir),
        "out": str(run_dir / "out"),
        "seed": args.seed,
        "memory_input": str(corpus_dir / ("train.csv" if "train_rows" in truth else "raw.csv")),
    }
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace == 0:
        setup_s = runner.setup_s()
        plain = runner.worker("plain", dict(spec, seconds=args.seconds))
        passes = [plain]
        metrics = {"setup_s": (setup_s, "s")}
        metrics.update((m, (v, "s")) for m, v in _median_times(plain, "corrected").items())
        record["measured_medians"] = _median_times(plain, "times")
        metrics["peak_rss_mb"] = (plain["peak_rss_mb"], "MB")
    else:
        plain = runner.worker("plain", dict(spec, seconds=args.seconds / 2))
        traced = runner.worker("trace", dict(spec, seconds=args.seconds / 2))
        memory = runner.worker("memory", spec)
        passes = [plain, traced]
        layers = _median_layers(traced)
        layers["trace.overhead_s"] = (
            sum(_median_times(traced, "times").values())
            - sum(_median_times(plain, "times").values())
        )
        layers["trace.accounted_share"] = statistics.median(
            r["layers"]["trace.self_sum_s"] / r["total_s"] for r in traced["rounds"]
        )
        layers["pipeline.ingest.retained_bytes_per_row"] = memory["retained_bytes_per_row"]
        metrics = {
            name: (layers[name], unit) for name, unit in LAYER_METRICS.items() if name in layers
        }
        record["spans"] = str(run_dir / "trace.spans.jsonl")
    problems = [p for result in passes for p in result["problems"]]
    failed = sum(result["failed"] for result in passes)
    if any(result["digests"] != plain["digests"] for result in passes):
        problems.append("outputs differ between the untraced and the traced pass")
        failed += 1
    line = {
        "correct": not problems,
        "attempted": sum(result["attempted"] for result in passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record.update(
        rounds=[{k: r[k] for k in ("times", "corrected")} for result in passes for r in result["rounds"]],
        problems=problems,
    )
    shutil.rmtree(run_dir / "out", ignore_errors=True)
    return line, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="rows per device relative to the full corpus (smoke checks)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or not 0 < args.scale <= 1:
        parser.error("--seed must be >= 0, --seconds > 0 and --scale in (0, 1]")

    root = Path.cwd()
    if not (root / "src" / "loraprop" / "cli.py").is_file():
        print(f"no loraprop sources under {root / 'src'}: run from a checkout root",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work"
    try:
        line, record = measure(args, root, work)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    record["environment"] = _environment(root)
    record["result"] = line
    results = work / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-s{args.seed}-t{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"environment": record["environment"]}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
