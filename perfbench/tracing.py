"""In-memory span tracing of loraprop's public functions.

Each traced function is replaced, at the module attribute its callers look
it up through, by a wrapper that records a span: name, start, end and the
span that was open when it was called.  Per-row callees (``parse_row``,
``format_row``) would drown the trace in spans, so they are only counted and
timed under the span that called them.

A layer's self time is its span's duration minus the time covered by its
child spans and by its per-row callees.  Metrics are derived from the spans
of one round; a function the workload never called yields no metric at
all, never a zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    #: per-row callee name -> [calls, seconds, failed]
    callees: dict = field(default_factory=dict)
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    def reset(self) -> list[Span]:
        spans, self.spans, self._open = self.spans, [], []
        return spans

    def span(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._open[-1] if self._open else None
            self.spans.append(Span(name, time.perf_counter(), parent))
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index].end = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                self.spans[index].attrs.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def per_row(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            failed = 0
            try:
                return fn(*args, **kwargs)
            except Exception:
                failed = 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                if self._open:
                    stats = self.spans[self._open[-1]].callees.setdefault(name, [0, 0.0, 0])
                    stats[0] += 1
                    stats[1] += elapsed
                    stats[2] += failed

        return wrapper


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _removed(args, kwargs, result):
    return {"removed": len(_arg(args, kwargs, 0, "records")) - len(result)}


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


def _rows(args, kwargs, result):
    return {"rows": len(_arg(args, kwargs, 0, "observations"))}


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations}


#: (module, attribute, span name, attribute extractor).  The attribute is
#: where callers look the function up, which is not always where it is
#: defined: the CLI and ``evaluation`` import ``fit`` by name, for example.
SPANS = (
    ("loraprop.cli", "main", "cli.main", None),
    ("loraprop.cli", "run_pipeline", "pipeline.run_pipeline", None),
    ("loraprop.cli", "ingest", "pipeline.ingest", None),
    ("loraprop.cli", "fit", "fitting.fit", _iterations),
    ("loraprop.cli", "evaluate_model", "evaluation.evaluate_model", None),
    ("loraprop.cli", "cross_validate", "evaluation.cross_validate", _rows),
    ("loraprop.pipeline", "ingest", "pipeline.ingest", None),
    ("loraprop.pipeline", "audit_derived_columns", "pipeline.audit_derived_columns", None),
    ("loraprop.pipeline", "dedup_retransmissions", "pipeline.dedup_retransmissions", _removed),
    ("loraprop.pipeline", "filter_sf", "pipeline.filter_sf", None),
    ("loraprop.pipeline", "flag_anomalies", "pipeline.flag_anomalies", None),
    ("loraprop.pipeline", "standardize", "pipeline.standardize", None),
    ("loraprop.pipeline", "isolation_forest", "pipeline.isolation_forest", None),
    ("loraprop.pipeline", "fit_isolation_forest", "pipeline.fit_isolation_forest", None),
    ("loraprop.pipeline", "split", "pipeline.split", None),
    ("loraprop.pipeline", "write_records_csv", "pipeline.write_records_csv", _bytes),
    ("loraprop.pipeline", "pdr", "metrics.pdr", None),
    ("loraprop.evaluation", "fit", "fitting.fit", _iterations),
    ("loraprop.evaluation", "kfold", "pipeline.kfold", None),
    ("loraprop.evaluation", "evaluate_model", "evaluation.evaluate_model", None),
    ("loraprop.evaluation", "evaluate_predictions", "metrics.evaluate_predictions", None),
    ("loraprop.fitting", "design_matrix", "fitting.design_matrix", _rows),
    ("loraprop.fitting", "fixed_offsets", "fitting.fixed_offsets", None),
)

PER_ROW = (
    ("loraprop.pipeline", "parse_row", "records.parse_row"),
    ("loraprop.pipeline", "format_row", "records.format_row"),
)


def install(recorder: Recorder) -> None:
    """Replace every traced module attribute with its recording wrapper."""
    for module_name, attribute, name, attrs in SPANS:
        module = importlib.import_module(module_name)
        setattr(module, attribute, recorder.span(name, getattr(module, attribute), attrs))
    for module_name, attribute, name in PER_ROW:
        module = importlib.import_module(module_name)
        setattr(module, attribute, recorder.per_row(name, getattr(module, attribute)))


def self_times(spans: list[Span]) -> list[float]:
    own = [s.duration - sum(c[1] for c in s.callees.values()) for s in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def _descends_from(spans: list[Span], index: int, ancestor: str) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one round's spans (one pass of the sequence)."""
    own = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, dict[str, float]] = {}
    callees: dict[str, list] = {}
    for span, self_s in zip(spans, own):
        total[span.name] = total.get(span.name, 0.0) + span.duration
        self_total[span.name] = self_total.get(span.name, 0.0) + self_s
        calls[span.name] = calls.get(span.name, 0) + 1
        bucket = attrs.setdefault(span.name, {})
        for key, value in span.attrs.items():
            bucket[key] = bucket.get(key, 0) + value
        for name, (n, seconds, failed) in span.callees.items():
            stats = callees.setdefault(name, [0, 0.0, 0])
            stats[0] += n
            stats[1] += seconds
            stats[2] += failed

    out: dict[str, float] = {}

    def put(metric: str, span_name: str, value) -> None:
        if span_name in calls and value(span_name) is not None:
            out[metric] = value(span_name)

    for name in ("pipeline.audit_derived_columns", "pipeline.dedup_retransmissions",
                 "pipeline.filter_sf", "pipeline.split", "pipeline.fit_isolation_forest",
                 "pipeline.standardize", "metrics.pdr", "fitting.design_matrix",
                 "fitting.fixed_offsets", "metrics.evaluate_predictions", "pipeline.kfold"):
        put(f"{name}.s", name, total.get)
    for name in ("pipeline.ingest", "pipeline.isolation_forest", "pipeline.flag_anomalies",
                 "pipeline.write_records_csv", "pipeline.run_pipeline", "fitting.fit",
                 "evaluation.cross_validate", "evaluation.evaluate_model", "cli.main"):
        put(f"{name}.self_s", name, self_total.get)
    for name in ("pipeline.fit_isolation_forest", "metrics.pdr", "fitting.design_matrix"):
        put(f"{name}.calls", name, calls.get)
    put("pipeline.dedup_retransmissions.removed", "pipeline.dedup_retransmissions",
        lambda n: attrs[n].get("removed"))
    put("pipeline.write_records_csv.bytes", "pipeline.write_records_csv",
        lambda n: attrs[n].get("bytes"))
    put("fitting.fit.iterations", "fitting.fit", lambda n: attrs[n].get("iterations"))

    for name, (n, seconds, failed) in callees.items():
        out[f"{name}.s"] = seconds
        out[f"{name}.calls"] = n
        out[f"{name}.failed"] = failed
    if "records.parse_row" in callees:
        n, _, failed = callees["records.parse_row"]
        out["pipeline.ingest.accept_ratio"] = (n - failed) / n

    # design-matrix rows built per observation handed to cross-validation
    if "rows" in attrs.get("evaluation.cross_validate", {}) and "fitting.design_matrix" in calls:
        rows = sum(
            s.attrs.get("rows", 0)
            for i, s in enumerate(spans)
            if s.name == "fitting.design_matrix"
            and _descends_from(spans, i, "evaluation.cross_validate")
        )
        out["fitting.design_matrix.rows_per_input_row"] = (
            rows / attrs["evaluation.cross_validate"]["rows"]
        )
    out["trace.self_sum_s"] = sum(own) + sum(c[1] for c in callees.values())
    return out


def to_records(spans: list[Span], round_index: int) -> list[dict]:
    """JSON-ready form of one round's spans."""
    return [
        {
            "round": round_index,
            "id": i,
            "name": s.name,
            "start": s.start,
            "end": s.end,
            "parent": s.parent,
            "callees": {k: {"calls": v[0], "s": v[1], "failed": v[2]} for k, v in s.callees.items()},
            "attrs": s.attrs,
        }
        for i, s in enumerate(spans)
    ]
