"""One fresh measuring process of a benchmark workload.

Usage, from the checkout root: ``python3 perfbench/worker.py MODE SPEC_JSON``

Modes:

``plain``
    Run the workload's command sequence through ``loraprop.cli.main`` in a
    closed loop (one command at a time), in rounds, until the time budget is
    spent, and check every output.  Each round yields one sample per command:
    the mean time per invocation of a batch of about ``BATCH_S`` seconds (one
    invocation in the first round), also corrected for host speed by the
    reference loops run around it (``hostspeed.py``).  Once a whole round no
    longer fits, the last round runs only the commands that still fit.
``trace``
    As ``plain``, with every traced function wrapped (see ``tracing.py``),
    one invocation per command in every round and whole rounds only.
``memory``
    Bytes that ``ingest()`` retains per accepted row, by ``tracemalloc``.

The result goes to the JSON file the spec names.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time
import traceback
import tracemalloc
from pathlib import Path

import checks
import hostspeed
import tracing

#: Seconds of back-to-back invocations that make one sample of a command.  A
#: shared host alternates between fast and slow phases of about a second; a
#: sample this long averages over them where a single 0.1 s call cannot.
BATCH_S = 1.5


def _plan(spec: dict, truth: dict):
    """(metric, argv, outputs, content check) per command of one pass."""
    corpus = Path(spec["corpus"])
    out = Path(spec["out"])
    seed = str(spec["seed"])
    pipeline_out = out / "pipeline"
    if (corpus / "raw.csv").is_file():
        raw = corpus / "raw.csv"
        train, test = pipeline_out / "train.csv", pipeline_out / "test.csv"
        train_rows = truth["pipeline"]["counts"]["train"]
        test_rows = truth["pipeline"]["counts"]["test"]
    else:
        # already clean: the pipeline screens the held-out file on its own
        train, test = corpus / "train.csv", corpus / "test.csv"
        raw = test
        train_rows, test_rows = truth["train_rows"], truth["test_rows"]

    def fit(variant):
        argv = ["fit", "--variant", variant, "--input", str(train),
                "--out", str(out / f"{variant}.json"),
                "--report", str(out / f"{variant}.report.json")]
        outputs = [out / f"{variant}{suffix}.json" for suffix in ("", ".report", ".manifest")]
        return argv, outputs, lambda: checks.check_fit_report(out / f"{variant}.report.json", train_rows)

    return [
        ("pipeline_run_s",
         ["pipeline", "run", "--input", str(raw), "--out-dir", str(pipeline_out), "--seed", seed],
         [pipeline_out / n for n in ("cleaned.csv", "train.csv", "test.csv", "manifest.json")],
         lambda: checks.check_pipeline(pipeline_out, truth["pipeline"])),
        ("fit_mw_s", *fit("mw")),
        ("fit_mw_ep_s", *fit("mw-ep")),
        ("evaluate_s",
         ["evaluate", "--model", str(out / "mw-ep.json"), "--input", str(test),
          "--report", str(out / "eval.json")],
         [out / "eval.json", out / "eval.manifest.json"],
         lambda: checks.check_eval_report(out / "eval.json", test_rows)),
        ("cross_validate_s",
         ["cross-validate", "--variant", "mw-ep", "--input", str(train), "--folds", "5",
          "--seed", seed, "--report", str(out / "cv.json")],
         [out / "cv.json", out / "cv.manifest.json"],
         lambda: checks.check_cv_report(out / "cv.json", 5, train_rows)),
    ]


def _verify(metric: str, code, outputs: list[Path], check, reference: dict[str, str]) -> list[str]:
    """Problems with one invocation's outputs.  The first invocation of a
    command gets the content check; later ones must reproduce its bytes."""
    if code != 0:
        return [f"{metric}: exit code {code}"]
    try:
        got = checks.digests(outputs)
        found = []
        if not reference.keys() >= got.keys():
            reference.update(got)
            found += check()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{metric}: output check raised {exc!r}"]
    return found + [f"{metric}: {p} differs between invocations"
                    for p, d in got.items() if reference[p] != d]


def _run(mode: str, spec: dict) -> dict:
    import loraprop.cli as cli

    truth = json.loads((Path(spec["corpus"]) / "truth.json").read_text())
    plan = _plan(spec, truth)
    recorder = None
    if mode == "trace":
        recorder = tracing.Recorder()
        tracing.install(recorder)

    rounds: list[dict] = []
    spans: list[dict] = []
    reference: dict[str, str] = {}
    problems: list[str] = []
    failed: dict[str, int] = {}
    invocations: dict[str, int] = {}
    per_call: dict[str, float] = {}

    def batch(metric: str) -> int:
        # a traced round is one invocation per command, so its spans add up
        # to one pass of the sequence
        if recorder is not None or not per_call:
            return 1
        return max(1, round(BATCH_S / per_call[metric]))

    start = time.perf_counter()
    loop_before = hostspeed.reference_s()

    def remaining() -> float:
        return spec["seconds"] - (time.perf_counter() - start)

    while not rounds or recorder is None or remaining() >= sum(per_call.values()):
        if recorder is not None:
            recorder.reset()
        times = {}
        corrected = {}
        for metric, argv, outputs, check in plan:
            calls = batch(metric)
            # untraced, the budget left over at the end still takes every
            # command that fits, so no time is lost to a round cut short
            if rounds and recorder is None and remaining() < calls * per_call[metric]:
                continue
            elapsed = 0.0
            for _ in range(calls):
                crash = None
                began = time.perf_counter()
                try:
                    code = cli.main(argv)
                except Exception:  # a crash is one failed command, not the end of the run
                    code, crash = "an uncaught exception", traceback.format_exc()
                elapsed += time.perf_counter() - began
                if crash:
                    sys.stderr.write(crash)
                found = _verify(metric, code, outputs, check, reference)
                if found:
                    failed[metric] = failed.get(metric, 0) + 1
                    problems += found
            invocations[metric] = invocations.get(metric, 0) + calls
            times[metric] = elapsed / calls
            loop_after = hostspeed.reference_s()
            corrected[metric] = hostspeed.corrected(times[metric], loop_before, loop_after)
            loop_before = loop_after
        if not times:
            break
        rounds.append({"times": times, "corrected": corrected})
        for metric in times:
            per_call[metric] = statistics.median(
                r["times"][metric] for r in rounds if metric in r["times"]
            )
        if recorder is not None:
            round_spans = recorder.reset()
            rounds[-1]["layers"] = tracing.layer_metrics(round_spans)
            rounds[-1]["total_s"] = sum(times.values())
            spans += tracing.to_records(round_spans, len(rounds) - 1)

    if "train_rows" in truth and "fit_mw_ep_s" not in failed:
        found = checks.check_coefficients(
            Path(spec["corpus"]) / "train.csv",
            Path(spec["out"]) / "mw-ep.report.json",
            truth["true_params"],
        )
        if found:
            failed["fit_mw_ep_s"] = invocations["fit_mw_ep_s"]
            problems += [f"fit_mw_ep_s: {p}" for p in found]

    if spans:
        Path(spec["spans"]).write_text("\n".join(json.dumps(s) for s in spans) + "\n")
    return {
        "rounds": rounds,
        "attempted": sum(invocations.values()),
        "failed": sum(failed.values()),
        "problems": problems,
        "digests": reference,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _peak_rss_mb() -> float:
    """Peak resident set size of this process image.

    Linux carries ``ru_maxrss`` over from the parent across fork and exec,
    so the benchmark's own corpus generation would leak into it; the
    ``VmHWM`` line of ``/proc/self/status`` is the same high-water mark
    counted from exec.
    """
    import resource

    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _memory(spec: dict) -> dict:
    from loraprop.pipeline import ingest

    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    result = ingest(spec["memory_input"])
    gc.collect()
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return {"retained_bytes_per_row": retained / len(result.records), "rows": len(result.records)}


def main(argv: list[str]) -> int:
    mode, spec_path = argv
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    result = _memory(spec) if mode == "memory" else _run(mode, spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
