"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code: each public liftsim
function of interest is replaced, under the module or class attribute
its callers look it up by, with a wrapper that records one span per
call. A span is ``(id, parent id, name, start, end)``; spans stay in
memory and are written once, after the workload has finished.

Some wrappers also add work counts (requests, rows, samples, ...) taken
from the call's arguments or result, so ratios are measured where the
work happens.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path


class SpanRecorder:
    """In-memory span store for one process; span 0 is the implicit root."""

    def __init__(self, run_id: str, clock=time.perf_counter) -> None:
        self.run_id = run_id
        self.clock = clock
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [0]
        self._next_id = 1

    def wrap(self, name: str, fn, count=None):
        """``fn`` wrapped so each call records a span named ``name``.

        ``count(counts, args, result)`` may add work counts after a
        successful call.
        """
        recorder = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = recorder._next_id
            recorder._next_id += 1
            parent = recorder._stack[-1]
            recorder._stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                recorder._stack.pop()
                recorder.spans.append((span_id, parent, name, start, end))
            if count is not None:
                count(recorder.counts, args, result)
            return result

        return traced

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds ``s``, ``self_s`` and
        inclusive seconds split by the parent span's name.

        Self time is a span's duration minus the time its direct
        children cover; the process is single-threaded, so children
        never overlap.
        """
        child_time: dict[int, float] = defaultdict(float)
        names = {0: "root"}
        for span_id, parent, name, start, end in self.spans:
            child_time[parent] += end - start
            names[span_id] = name
        out: dict[str, dict] = {}
        for span_id, parent, name, start, end in self.spans:
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                          "s_by_parent": defaultdict(float)})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
            entry["s_by_parent"][names[parent]] += end - start
        return out

    def write(self, path: Path) -> None:
        lines = [json.dumps({"run": self.run_id, "id": s, "parent": p,
                             "name": n, "start": a, "end": b},
                            separators=(",", ":"))
                 for s, p, n, a, b in self.spans]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def span_cost(calls: int = 20_000) -> float:
    """Seconds one span adds to a call, measured on a no-op function."""
    def noop():
        return None

    traced = SpanRecorder("span-cost").wrap("noop", noop)
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    with_spans = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    return (with_spans - (time.perf_counter() - start)) / calls


def _count_market(counts, args, run) -> None:
    counts["world.run_market.requests"] += sum(g.requests for g in run.groups)
    counts["world.run_market.bids"] += sum(g.bids_placed for g in run.groups)
    counts["world.run_market.impressions"] += sum(
        g.impressions for g in run.groups)


def _count_population(counts, args, population) -> None:
    counts["world.generate_population.users"] += len(population)


def _count_calibration(counts, args, calibration) -> None:
    counts["bidders.calibrate.converged"] += bool(calibration.converged)


def _count_dumps(counts, args, text) -> None:
    counts["events.count"] += len(args[0])
    counts["events.bytes"] += len(text.encode("utf-8"))


def _count_samples(counts, args, samples) -> None:
    counts["sampling.generate_samples.samples"] += len(samples)
    counts["sampling.generate_samples.positives"] += sum(
        bool(s.label) for s in samples)


def _count_trees(counts, args, model) -> None:
    counts["gbdt.trees"] += len(model.trees)


def _count_rows(counts, args, scores) -> None:
    counts["gbdt.raw_score.rows"] += len(scores)


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced liftsim function where its callers look it up."""
    import liftsim.bidders as bidders
    import liftsim.cli as cli
    import liftsim.experiments as experiments
    import liftsim.liftmodel.features as features
    import liftsim.liftmodel.pipeline as pipeline
    from liftsim.events import EventLog
    from liftsim.liftmodel.features import UserHistory
    from liftsim.liftmodel.gbdt import GBDTModel

    functions = [
        # (namespace, attribute, span name, counter)
        (cli, "run_market", "world.run_market", _count_market),
        (experiments, "run_market", "world.run_market", _count_market),
        (cli, "generate_population", "world.generate_population",
         _count_population),
        (experiments, "generate_population", "world.generate_population",
         _count_population),
        (experiments, "calibrate_equal_attribution", "bidders.calibrate",
         _count_calibration),
        (experiments, "calibrate_equal_attribution_weighted",
         "bidders.calibrate", _count_calibration),
        (bidders, "split_weight_gap", "bidders.split_weight_gap", None),
        (experiments, "partition_users", "attribution.partition", None),
        (experiments, "generalized_partition", "attribution.partition", None),
        (experiments, "theorem_quantities", "attribution.theorem_quantities",
         None),
        (experiments, "generalized_theorem_quantities",
         "attribution.theorem_quantities", None),
        (experiments, "run_auction", "market.run_auction", None),
        (cli, "atomic_write_text", "fileio.atomic_write_text", None),
        (pipeline, "atomic_write_text", "fileio.atomic_write_text", None),
        (cli, "generate_samples", "sampling.generate_samples", _count_samples),
        (features, "extract_from_history", "features.extract", None),
        (pipeline, "extract_from_history", "features.extract", None),
        (pipeline, "train_gbdt", "gbdt.train_gbdt", _count_trees),
        (pipeline, "fit_isotonic", "isotonic.fit_isotonic", None),
        (cli, "train_calibrated_model", "pipeline.train_calibrated_model",
         None),
        (cli, "run_abtest", "experiments.run_abtest", None),
        (cli, "verify_theorems", "experiments.verify_theorems", None),
    ]
    for namespace, attr, name, count in functions:
        setattr(namespace, attr,
                recorder.wrap(name, getattr(namespace, attr), count))

    methods = [
        (EventLog, "dumps", "events.dumps", _count_dumps),
        (UserHistory, "observe", "features.observe", None),
        (GBDTModel, "raw_score", "gbdt.raw_score", _count_rows),
        (pipeline.ModelBidEstimator, "estimate", "pipeline.estimate", None),
    ]
    for cls, attr, name, count in methods:
        setattr(cls, attr, recorder.wrap(name, getattr(cls, attr), count))
    parse = EventLog.__dict__["parse"].__func__
    EventLog.parse = classmethod(recorder.wrap("events.parse", parse))


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(summary: dict, counts: dict) -> dict[str, float]:
    """Per-layer metric values of one traced repetition."""
    def s(name):
        return summary.get(name, {}).get("s", 0.0)

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def c(name):
        return counts.get(name, 0)

    return {
        "world.run_market.s": s("world.run_market"),
        "world.run_market.requests": c("world.run_market.requests"),
        "world.run_market.bids": c("world.run_market.bids"),
        "world.run_market.impressions": c("world.run_market.impressions"),
        "world.run_market.us_per_request": _ratio(
            s("world.run_market"), c("world.run_market.requests"), 1e6),
        "world.generate_population.s": s("world.generate_population"),
        "world.generate_population.calls": calls("world.generate_population"),
        "world.generate_population.users": c("world.generate_population.users"),
        "bidders.calibrate.s": s("bidders.calibrate"),
        "bidders.calibrate.calls": calls("bidders.calibrate"),
        "bidders.calibrate.converged_frac": _ratio(
            c("bidders.calibrate.converged"), calls("bidders.calibrate")),
        "bidders.split_weight_gap.calls": calls("bidders.split_weight_gap"),
        "attribution.partition.s": s("attribution.partition"),
        "attribution.theorem_quantities.s": s("attribution.theorem_quantities"),
        "market.run_auction.calls": calls("market.run_auction"),
        "events.dumps.s": s("events.dumps"),
        "events.parse.s": s("events.parse"),
        "events.count": c("events.count"),
        "events.bytes": c("events.bytes"),
        "fileio.atomic_write_text.s": s("fileio.atomic_write_text"),
        "sampling.generate_samples.s": s("sampling.generate_samples"),
        "sampling.generate_samples.samples": c(
            "sampling.generate_samples.samples"),
        "sampling.generate_samples.positive_frac": _ratio(
            c("sampling.generate_samples.positives"),
            c("sampling.generate_samples.samples")),
        "features.extract.calls": calls("features.extract"),
        "features.extract.us_per_call": _ratio(
            s("features.extract"), calls("features.extract"), 1e6),
        "features.observe.calls": calls("features.observe"),
        "features.observe.s": s("features.observe"),
        "gbdt.train_gbdt.s": s("gbdt.train_gbdt"),
        "gbdt.trees": c("gbdt.trees"),
        "isotonic.fit_isotonic.s": s("isotonic.fit_isotonic"),
        "pipeline.train_calibrated_model.s": s("pipeline.train_calibrated_model"),
        "gbdt.raw_score.calls": calls("gbdt.raw_score"),
        "gbdt.raw_score.rows": c("gbdt.raw_score.rows"),
        "gbdt.raw_score.us_per_call": _ratio(
            s("gbdt.raw_score"), calls("gbdt.raw_score"), 1e6),
        "pipeline.estimate.calls": calls("pipeline.estimate"),
        "pipeline.estimate.self_s": self_s("pipeline.estimate"),
        "cli.simulate.s": s("cli.simulate"),
        "cli.train.s": s("cli.train"),
        "cli.abtest.s": s("cli.abtest"),
        "cli.verify.s": s("cli.verify"),
        "experiments.run_abtest.s": s("experiments.run_abtest"),
        "experiments.verify_theorems.self_s": self_s(
            "experiments.verify_theorems"),
    }
