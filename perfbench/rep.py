"""One repetition of a workload, run in a fresh process by ``run.py``.

Usage: ``python3 rep.py SPEC_JSON``. The spec names the liftsim source
directory, the workload, its seed and size, the work directory and
whether to trace. The process imports liftsim, writes the workload's
config files, then calls ``liftsim.cli.main`` once per CLI call, with
the work directory as its current directory. It writes ``rep.json``
(timestamps, exit codes, peak memory, bid latencies or span summary)
and, when traced, ``trace.jsonl``.

Timestamps use ``time.monotonic``, which is system-wide on Linux, so the
parent can subtract its own spawn time from them.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _install_bid_timer(cli, latencies: list[float]) -> None:
    """Replace ``liftsim.cli.ModelBidEstimator`` with a timing proxy."""
    base = cli.ModelBidEstimator

    class TimedModelBidEstimator(base):
        def estimate(self, user_index, ts, topic_id):
            start = time.perf_counter()
            result = base.estimate(self, user_index, ts, topic_id)
            latencies.append(time.perf_counter() - start)
            return result

    cli.ModelBidEstimator = TimedModelBidEstimator


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import liftsim.cli as cli
    if src not in Path(cli.__file__).resolve().parents:
        sys.stderr.write(f"liftsim imported from {cli.__file__}, not {src}\n")
        return 2
    import tracer
    import workloads

    work = Path(spec["work_dir"])
    os.chdir(work)
    workload = workloads.build(spec["workload"], spec["seed"], spec["size"])
    for name, payload in workload.configs.items():
        Path(name).write_text(json.dumps(payload, indent=2) + "\n",
                              encoding="utf-8")

    latencies: list[float] = []
    recorder = None
    if spec["trace"]:
        recorder = tracer.SpanRecorder(spec["run_id"])
        tracer.install(recorder)
    else:
        _install_bid_timer(cli, latencies)

    calls = []
    t_first = time.monotonic()
    for argv in workload.calls:
        call = {"argv": argv, "rc": None, "error": None,
                "t_start": time.monotonic()}
        main = (cli.main if recorder is None
                else recorder.wrap(f"cli.{argv[0]}", cli.main))
        stdout_path = Path(f"stdout_{argv[0]}.txt")
        try:
            with stdout_path.open("w", encoding="utf-8") as fh, \
                    contextlib.redirect_stdout(fh):
                call["rc"] = main(argv)
        except Exception:  # a failed call is counted, the workload goes on
            call["error"] = traceback.format_exc()
        call["t_end"] = time.monotonic()
        calls.append(call)
    t_end = time.monotonic()

    result = {
        "t_first_call": t_first,
        "t_end": t_end,
        "calls": calls,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "bid_latencies_s": latencies,
    }
    if recorder is not None:
        result["summary"] = recorder.summary()
        result["span_counts"] = dict(recorder.counts)
        result["span_cost_s"] = tracer.span_cost()
        recorder.write(Path("trace.jsonl"))
    Path("rep.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
