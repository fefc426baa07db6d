"""Layered benchmark for liftsim, driving the real CLI.

Usage, from anywhere in a liftsim checkout::

    python3 perfbench/run.py --workload lift_pipeline --seed 1 \\
        --seconds 36 --trace 0

Workloads (see ``workloads.py``): ``market_oracle``, ``lift_pipeline``,
``verify_sweep``, or ``all`` to run each in turn.

Each repetition runs one workload's CLI calls in a fresh Python process
(``rep.py``), so ``setup_s`` covers interpreter start, imports and config
writing, and ``peak_rss_mb`` is that process's peak. Repetitions run one
after another, a closed loop with one caller, until ``--seconds`` have
passed. A run cycles through ``WORLDS`` sets of inputs, each derived
from ``--seed``, and reports for each metric the mean over those worlds
of the median over each world's repetitions. BLAS thread pools are
capped at the number of usable cores.

The host's CPUs are shared and their speed drifts with other tenants'
load, so a host speed probe (``probe.py``) runs beside the repetitions,
and ``wall_s`` and ``setup_s`` are each repetition's time rescaled to a
host on which the probe's unit of work takes ``PROBE_UNIT_S`` of CPU
time. The raw times are kept in the report. The run pins itself to one
CPU, so the repetitions and the probe it starts share that CPU: the
CPUs do not slow down together, and a probe on another CPU tracks the
program's speed less well.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics of the
traced ones, plus the tracing overhead (traced minus untraced wall time).

The last line of stdout is one JSON object: ``correct``, ``attempted``
and ``failed`` operations (CLI calls and output checks) and ``metrics``.
A full report, with per-repetition counts, digests and check results,
is written to ``.perfbench_work/<size>-<workload>/report.json``.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import outputs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("market_oracle", "lift_pipeline", "verify_sweep")
# A run measures this many worlds (input sets) of its workload, so that
# one world's size does not set the run's figures.
WORLDS = 3
# Metric -> unit.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# CPU time of one probe unit on the host the benchmark was tuned on, at
# its quietest (0.47 to 0.50 ms); times are rescaled to this host speed.
PROBE_UNIT_S = 0.5e-3
TRACE_METRICS = ("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                 "trace.self_sum_s", "trace.spans", "trace.span_cost_s")
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
REP_DEADLINE_S = 170.0  # a run must end within 180 s


def usable_cores() -> int:
    return len(os.sched_getaffinity(0))


def unit_of(metric: str) -> str:
    if metric.endswith("_frac"):
        return "frac"
    if metric.endswith((".us_per_request", ".us_per_call")):
        return "us"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith((".s", "_s")):
        return "s"
    return "count"


PER_LAYER = tuple(tracer.layer_metrics({}, {})) + TRACE_METRICS


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, as numpy's default method."""
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(per_rep: list[list[float]]) -> tuple[float, bool]:
    """Highest ladder percentile usable as the tail latency.

    It must leave at least ten samples beyond it in every repetition,
    and its per-repetition values must agree within a tenth of their
    median. Returns ``(percentile, steady)``; when no percentile is
    steady, the lowest one on the ladder is returned with False.
    """
    for q in TAIL_LADDER:
        if any(len(xs) * (1 - q / 100.0) < 10 for xs in per_rep):
            continue
        values = [percentile(xs, q) for xs in per_rep]
        mid = statistics.median(values)
        if all(abs(v - mid) <= 0.1 * mid for v in values):
            return q, True
    return TAIL_LADDER[-1], False


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


@contextlib.contextmanager
def host_probe():
    """Run ``probe.py`` during the block; yields its samples, filled on exit."""
    samples: list[tuple[float, float]] = []
    with subprocess.Popen([sys.executable, str(HERE / "probe.py")],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as proc:
        try:
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError("host speed probe did not start")
            yield samples
            out, _ = proc.communicate(timeout=30)
            samples.extend((start, cpu) for start, cpu in json.loads(out))
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()


def slowdown(samples: list[tuple[float, float]], start: float,
             end: float) -> float:
    """Host slowdown over ``[start, end]``, from the probe samples in it.

    It is the harmonic mean of their probe units over PROBE_UNIT_S, so
    a time divided by it is the time integral of the probe's speed
    relative to PROBE_UNIT_S: seconds at that speed. A window that
    holds no probe sample uses the nearest one.
    """
    inside = [cpu for t, cpu in samples if start <= t <= end]
    if not inside:
        inside = [min(samples, key=lambda s: abs(s[0] - start))[1]]
    return statistics.harmonic_mean(inside) / PROBE_UNIT_S


def world_mean(reps: list[dict], value) -> float:
    """Mean over worlds of the median of ``value(rep)`` over each world."""
    worlds: dict[int, list[float]] = {}
    for rep in reps:
        worlds.setdefault(rep["world"], []).append(value(rep))
    return statistics.fmean(statistics.median(v) for v in worlds.values())


def run_rep(workload, size: str, work: Path, traced: bool, run_id: str,
            timeout: float) -> dict:
    """Run one repetition in a fresh process; returns its raw record."""
    work.mkdir(parents=True)
    spec = {"src": str(ROOT / "src"), "work_dir": str(work),
            "workload": workload.name, "seed": workload.seed, "size": size,
            "trace": traced, "run_id": run_id}
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    threads = str(usable_cores())
    env = dict(os.environ, **{var: threads for var in BLAS_THREAD_VARS})
    with (work / "rep_stdout.txt").open("w") as out, \
            (work / "rep_stderr.txt").open("w") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), str(spec_path)],
            stdout=out, stderr=err, env=env, cwd=work)
        try:
            exit_code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            exit_code = None
    rep = {"traced": traced, "exit_code": exit_code, "work": work}
    rep_path = work / "rep.json"
    if exit_code == 0 and rep_path.is_file():
        raw = json.loads(rep_path.read_text(encoding="utf-8"))
        rep.update(raw)
        rep["t_spawn"] = t_spawn
        rep["setup_raw_s"] = raw["t_first_call"] - t_spawn
        rep["wall_raw_s"] = raw["t_end"] - raw["t_first_call"]
        rep["peak_rss_mb"] = raw["peak_rss_kb"] / 1024.0
        rep["call_s"] = {c["argv"][0]: c["t_end"] - c["t_start"]
                         for c in raw["calls"]}
    return rep


def score_rep(workload, rep: dict, first_counts: dict | None) -> dict:
    """Operations (CLI calls and output checks) and counts of one rep."""
    ops: list[outputs.Check] = []
    if "calls" not in rep:
        ops += [outputs.Check(f"cli.{argv[0]}", "repetition process failed "
                              f"(exit code {rep['exit_code']})")
                for argv in workload.calls]
    else:
        for call in rep["calls"]:
            name = f"cli.{call['argv'][0]}"
            if call["error"] is not None:
                ops.append(outputs.Check(name, call["error"].splitlines()[-1]))
            else:
                ops.append(outputs.Check(
                    name, None if call["rc"] == 0 else f"exit code {call['rc']}"))
    ops += outputs.check_outputs(workload, rep["work"])

    if rep["traced"]:
        estimates = rep.get("summary", {}).get("pipeline.estimate", {})
        estimate_calls = estimates.get("calls", 0)
    else:
        estimate_calls = len(rep.get("bid_latencies_s", []))
    try:
        counts = outputs.work_counts(workload, rep["work"], estimate_calls)
    except (OSError, ValueError, KeyError, AttributeError):
        counts = None  # the output checks already fail this repetition
    if first_counts is not None and counts is not None:
        diff = {k: (first_counts.get(k), v) for k, v in counts.items()
                if first_counts.get(k) != v}
        ops.append(outputs.Check(
            "counts.repeat", f"differ from the first repetition: {diff}"
            if diff or counts.keys() != first_counts.keys() else None))
    return {"ops": ops, "counts": counts,
            "digests": outputs.digests(rep["work"])}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    worlds = [workloads.build(name, seed * WORLDS + i, size)
              for i in range(WORLDS)]
    base = ROOT / ".perfbench_work" / f"{size}-{name}"
    shutil.rmtree(base, ignore_errors=True)
    run_id = uuid.uuid4().hex[:12]
    start = time.monotonic()
    reps: list[dict] = []
    durations: list[float] = []
    # A traced run alternates untraced and traced repetitions of a world.
    step = 2 if trace else 1
    min_reps = step * WORLDS
    # Start another repetition only while it is expected to end within
    # --seconds, so a run lasts about --seconds whatever the rep length.
    with host_probe() as samples:
        while len(reps) < min_reps or (
                time.monotonic() - start + statistics.median(durations)
                <= seconds):
            rep_start = time.monotonic()
            traced = trace and len(reps) % 2 == 1
            world = len(reps) // step % WORLDS
            timeout = max(REP_DEADLINE_S - (rep_start - start), 1.0)
            rep = run_rep(worlds[world], size, base / f"rep{len(reps)}",
                          traced, run_id, timeout)
            rep["world"] = world
            first = next((r["counts"] for r in reps if r["world"] == world
                          and r["counts"] is not None), None)
            rep.update(score_rep(worlds[world], rep, first))
            reps.append(rep)
            durations.append(time.monotonic() - rep_start)
            if rep["exit_code"] is None:
                break  # out of time
    for rep in reps:
        if "wall_raw_s" in rep:
            rep["setup_slowdown"] = slowdown(samples, rep["t_spawn"],
                                             rep["t_first_call"])
            rep["slowdown"] = slowdown(samples, rep["t_first_call"],
                                       rep["t_end"])
            rep["setup_s"] = rep["setup_raw_s"] / rep["setup_slowdown"]
            rep["wall_s"] = rep["wall_raw_s"] / rep["slowdown"]
    return summarize(worlds, seed, reps, base, seconds, size, trace)


def summarize(worlds: list, seed: int, reps: list[dict], base: Path,
              seconds: float, size: str, trace: bool) -> dict:
    ops = [op for rep in reps for op in rep["ops"]]
    failures = [f"{op.name}: {op.failure}" for op in ops if op.failure]
    timed = [r for r in reps if "wall_s" in r]
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    stats = {m: {"value": world_mean(plain, lambda r: r[m]),
                 **spread([r[m] for r in plain])}
             for m in END_TO_END if plain}

    bids = None
    if worlds[0].uses_model_bids and plain:
        per_rep = [[x * 1e3 for x in r["bid_latencies_s"]] for r in plain]
        pooled = [x for xs in per_rep for x in xs]
        if pooled and all(per_rep):
            q, steady = tail_percentile(per_rep)
            bids = {"n": len(pooled), "per_rep": [len(xs) for xs in per_rep],
                    "p50_ms": percentile(pooled, 50.0),
                    "tail_percentile": q, "tail_ms": percentile(pooled, q),
                    "tail_steady": steady}

    layers = {}
    if traced:
        for r in traced:
            r["layers"] = tracer.layer_metrics(r["summary"], r["span_counts"])
            r["spans"] = sum(e["calls"] for e in r["summary"].values())
        # Times are rescaled by the repetition's host slowdown, as wall_s.
        layers = {m: world_mean(traced, lambda r: r["layers"][m] / (
                      r["slowdown"] if unit_of(m) in ("s", "us") else 1.0))
                  for m in traced[0]["layers"]}
        layers["trace.wall_s"] = world_mean(traced, lambda r: r["wall_s"])
        layers["trace.untraced_wall_s"] = (
            world_mean(plain, lambda r: r["wall_s"]) if plain else 0.0)
        layers["trace.overhead_s"] = (layers["trace.wall_s"]
                                      - layers["trace.untraced_wall_s"])
        layers["trace.self_sum_s"] = world_mean(
            traced, lambda r: sum(e["self_s"] for e in r["summary"].values())
            / r["slowdown"])
        layers["trace.spans"] = world_mean(traced, lambda r: r["spans"])
        layers["trace.span_cost_s"] = world_mean(
            traced, lambda r: r["spans"] * r["span_cost_s"] / r["slowdown"])

    # Per world: the counts and digests of its first repetition, and
    # whether every other repetition of it repeated them.
    counts, digests = [], []
    counts_repeat = digests_repeat = True
    for world in range(len(worlds)):
        mine = [r for r in reps if r["world"] == world]
        got = [r["counts"] for r in mine if r["counts"] is not None]
        counts.append(got[0] if got else None)
        counts_repeat &= bool(got) and all(c == got[0] for c in got)
        digests.append(mine[0]["digests"] if mine else {})
        digests_repeat &= all(r["digests"] == digests[-1] for r in mine)
    report = {
        "workload": worlds[0].name, "seed": seed,
        "world_seeds": [w.seed for w in worlds], "size": size,
        "seconds": seconds, "trace": trace,
        "loop": "closed, one caller",
        "blas_threads": usable_cores(),
        "python": sys.version.split()[0],
        "repetitions": len(reps), "untraced": len(plain), "traced": len(traced),
        "end_to_end": stats, "bids": bids,
        "host_slowdown": spread([r["slowdown"] for r in plain]) if plain
        else None,
        "raw": {m: spread([r[m] for r in plain])
                for m in ("wall_raw_s", "setup_raw_s")} if plain else {},
        "per_rep": [{k: r.get(k) for k in (
            "world", "traced", "exit_code", "call_s", *END_TO_END, "wall_raw_s",
            "setup_raw_s", "slowdown", "setup_slowdown")}
                    for r in reps],
        "attempted": len(ops), "failed": len(failures), "failures": failures,
        "counts": counts, "counts_repeat": counts_repeat,
        "digests": digests, "digests_repeat": digests_repeat,
        "per_layer": layers,
        # Raw span times of the last traced repetition, and its slowdown.
        "span_breakdown": traced[-1]["summary"] if traced else {},
        "span_breakdown_slowdown": traced[-1]["slowdown"] if traced else None,
    }
    # Keep the last repetition of each kind, and every failed one.
    keep = {r["work"] for r in reps[-1:] + traced[-1:]}
    keep |= {r["work"] for r in reps if any(op.failure for op in r["ops"])}
    for rep in reps:
        if rep["work"] not in keep:
            shutil.rmtree(rep["work"], ignore_errors=True)
    base.mkdir(parents=True, exist_ok=True)
    (base / "report.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8")
    return report


def report_lines(report: dict) -> list[str]:
    lines = [f"workload {report['workload']}: seed {report['seed']} "
             f"(world seeds {report['world_seeds']}), "
             f"size {report['size']}, {report['repetitions']} repetitions "
             f"({report['untraced']} untraced, {report['traced']} traced), "
             f"{report['loop']}, BLAS threads {report['blas_threads']}"]
    for metric, unit in END_TO_END.items():
        s = report["end_to_end"].get(metric)
        if s:
            lines.append(f"  {metric:<16} {s['value']:12.6f} {unit:<5} "
                         f"mean of world medians, n={s['n']} repetitions: "
                         f"q1={s['q1']:.6f} q3={s['q3']:.6f}")
    if report["host_slowdown"]:
        host, raw = report["host_slowdown"], report["raw"]
        lines.append(f"  host slowdown {host['median']:.3f} (median; "
                     f"q1={host['q1']:.3f} q3={host['q3']:.3f}) against a "
                     f"{PROBE_UNIT_S * 1e3:g} ms probe unit; raw wall "
                     f"{raw['wall_raw_s']['median']:.6f} s, raw setup "
                     f"{raw['setup_raw_s']['median']:.6f} s")
    attempted, failed = report["attempted"], report["failed"]
    frac = failed / attempted if attempted else 1.0
    lines.append(f"  {'failed_ops_frac':<16} {frac:12.6f} {'frac':<5} "
                 f"n={attempted} operations, {failed} failed")
    bids = report["bids"]
    if bids:
        lines.append(f"  {'bid_p50_ms':<16} {bids['p50_ms']:12.6f} {'ms':<5} "
                     f"n={bids['n']} bids ({bids['per_rep'][0]} per repetition)")
        lines.append(f"  {'bid_tail_ms':<16} {bids['tail_ms']:12.6f} {'ms':<5} "
                     f"p{bids['tail_percentile']:g}, n={bids['n']} bids, "
                     f"per-repetition values within a tenth: "
                     f"{'yes' if bids['tail_steady'] else 'no'}")
    for failure in report["failures"][:10]:
        lines.append(f"  FAILED {failure}")
    for seed, counts in zip(report["world_seeds"], report["counts"]):
        lines.append(f"  counts of world {seed} "
                     f"{json.dumps(counts, sort_keys=True)}")
    lines.append(f"  counts repeat exactly within each world: "
                 f"{'yes' if report['counts_repeat'] else 'NO'}")
    lines.append(f"  output digests repeat across repetitions: "
                 f"{'yes' if report['digests_repeat'] else 'no'}")
    layers = report["per_layer"]
    if layers:
        for metric in PER_LAYER:
            lines.append(f"  {metric:<40} {layers[metric]:14.6f} "
                         f"{unit_of(metric)}")
        untraced = layers["trace.untraced_wall_s"]
        gap = abs(layers["trace.self_sum_s"] - untraced)
        lines.append(f"  self times sum to {layers['trace.self_sum_s']:.3f} s "
                     f"against untraced wall {untraced:.3f} s: "
                     f"difference {gap:.3f} s; tracing overhead "
                     f"{layers['trace.overhead_s']:.3f} s measured, "
                     f"{layers['trace.span_cost_s']:.3f} s from span cost "
                     "(means of world medians)")
    return lines


def result_line(report: dict) -> dict:
    if report["trace"]:
        metrics = {m: {"value": report["per_layer"].get(m, 0.0),
                       "unit": unit_of(m)} for m in PER_LAYER}
    else:
        metrics = {m: {"value": report["end_to_end"][m]["value"]
                       if m in report["end_to_end"] else 0.0, "unit": unit}
                   for m, unit in END_TO_END.items()}
    return {"correct": report["failed"] == 0 and report["attempted"] > 0,
            "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES),
                        default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "liftsim" / "__init__.py").is_file():
        sys.stderr.write(f"no liftsim source under {ROOT / 'src'}; run the "
                         "benchmark from a liftsim checkout\n")
        return 2

    # Children inherit the affinity, so repetitions and probe share a CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        report = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), args.size)
        print("\n".join(report_lines(report)), flush=True)
        results[name] = result_line(report)
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
