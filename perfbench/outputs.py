"""What the benchmark reads back from the files the liftsim CLI writes.

* Output checks: each returns one :class:`Check`, and each check is one
  operation in ``failed_ops_frac``. A check fails when its invariant is
  violated or its file cannot be read.
* Work counts: exact counts (requests, bids, events, samples, ...) that
  must repeat between runs with the same seed.
* Digests: SHA-256 of every output file, recorded so that a change
  which alters outputs can be seen. Digests are not gated.
"""
from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

from workloads import CPA_MICROS

WORKED_EXAMPLE_ROWS = (
    ["value", "a", "0.041000", "$4.00", "$3.50"],
    ["lift", "b", "0.050000", "$2.00", "$3.50"],
)


@dataclass(frozen=True)
class Check:
    name: str
    failure: str | None = None  # None when the invariant holds


def _read_jsonl(path: Path) -> tuple[dict, list[dict]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return json.loads(lines[0]), [json.loads(line) for line in lines[1:]]


def _guarded(name: str, fn, *args) -> list[Check]:
    """Run a check function; an unreadable or malformed file fails it."""
    try:
        return fn(*args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [Check(name, f"cannot check: {type(exc).__name__}: {exc}")]


def group_failure(group: dict) -> str | None:
    """Violated invariants of one group record, or None."""
    cpa = CPA_MICROS
    problems = []
    if not group["attributed_billed"] <= group["attributed"] <= group["actions"]:
        problems.append("attributed_billed <= attributed <= actions")
    if not group["impressions"] <= group["bids_placed"] <= group["requests"]:
        problems.append("impressions <= bids_placed <= requests")
    if group["spend"] != group["attributed_billed"] * cpa:
        problems.append("spend == attributed_billed * cpa")
    if group["spend"] > group["budget"] + cpa:
        problems.append("spend <= budget + cpa")
    return "violates " + ", ".join(problems) if problems else None


def abtest_checks(out: Path, replications: int) -> list[Check]:
    header, records = _read_jsonl(out / "abtest_report.jsonl")
    got = header["sign_counts"]["replications"]
    checks = [Check("abtest.replications",
                    None if got == len(records) == replications
                    else f"{got} in header, {len(records)} records, "
                         f"{replications} configured")]
    for rec in records:
        for name, group in sorted(rec["groups"].items()):
            checks.append(Check(f"abtest.rep{rec['replication']}.{name}",
                                group_failure(group)))
    return checks


def _simulate_checks(out: Path) -> list[Check]:
    summary = json.loads((out / "simulate_summary.json").read_text("utf-8"))
    return [Check(f"simulate.{g['bidder']}", group_failure(g))
            for g in summary["groups"]]


def _event_log_checks(out: Path) -> list[Check]:
    summary = json.loads((out / "simulate_summary.json").read_text("utf-8"))
    with (out / "events.jsonl").open(encoding="utf-8") as fh:
        header = json.loads(next(fh))
        problems = []
        if header.get("format") != "liftsim.events" or header.get("version") != 1:
            problems.append(f"unexpected header {header}")
        if header.get("config_digest") != summary["run_digest"]:
            problems.append(f"header digest {header.get('config_digest')} != "
                            f"run digest {summary['run_digest']}")
        last_ts, n = -1, 0
        for line in fh:
            # Every record starts with {"ts":<int>, by the format's key order.
            ts = int(line[6:line.index(",")])
            if ts < last_ts:
                problems.append(f"event {n} at ts={ts} after ts={last_ts}")
                break
            last_ts, n = ts, n + 1
        else:
            if n != summary["events"]:
                problems.append(f"{n} events, summary says {summary['events']}")
    return [Check("simulate.event_log", "; ".join(problems) or None)]


def _calibration_checks(out: Path) -> list[Check]:
    _, deciles = _read_jsonl(out / "calibration.jsonl")
    got = [d["decile"] for d in deciles]
    text = (out / "calibration.txt").read_text("utf-8")
    rows = re.findall(r"^  d(\d+) ", text, flags=re.MULTILINE)
    ok = got == list(range(10)) and rows == [str(d) for d in range(10)]
    return [Check("train.deciles",
                  None if ok else f"deciles {got} in jsonl, {rows} in text")]


def _verify_checks(work: Path) -> list[Check]:
    stdout_text = (work / "stdout_verify.txt").read_text("utf-8")
    report = (work / "out" / "verify_report.txt").read_text("utf-8")
    checks = []
    for source, text in (("stdout", stdout_text), ("report", report)):
        last = text.rstrip("\n").splitlines()[-1] if text.strip() else ""
        checks.append(Check(f"verify.pass.{source}",
                            None if last == "verification: PASS"
                            else f"last line {last!r}"))
    rows = [line.split() for line in report.splitlines()]
    exact = (all(row in rows for row in WORKED_EXAMPLE_ROWS)
             and ["exact", "values:", "ok"] in rows)
    checks.append(Check("verify.worked_example",
                        None if exact else "worked-example values differ"))
    return checks


def check_outputs(workload, work: Path) -> list[Check]:
    """Every output check for one repetition of ``workload``."""
    out = work / "out"
    if workload.name == "market_oracle":
        reps = workload.configs["abtest.json"]["abtest"]["replications"]
        return _guarded("abtest.report", abtest_checks, out, reps)
    if workload.name == "verify_sweep":
        return _guarded("verify.report", _verify_checks, work)
    if workload.name == "lift_pipeline":
        return (_guarded("simulate.summary", _simulate_checks, out)
                + _guarded("simulate.event_log", _event_log_checks, out)
                + _guarded("train.deciles", _calibration_checks, out)
                + _guarded("abtest.report", abtest_checks, out, 1))
    raise ValueError(f"unknown workload {workload.name!r}")


def _abtest_counts(out: Path) -> dict[str, int]:
    _, records = _read_jsonl(out / "abtest_report.jsonl")
    groups = [g for rec in records for g in rec["groups"].values()]
    return {"abtest.replications": len(records),
            "abtest.requests": sum(g["requests"] for g in groups),
            "abtest.bids": sum(g["bids_placed"] for g in groups),
            "abtest.impressions": sum(g["impressions"] for g in groups)}


def _sweep_counts(out: Path) -> dict[str, int]:
    _, records = _read_jsonl(out / "verify_report.jsonl")
    text = (out / "verify_report.txt").read_text("utf-8")
    regenerations = sum(int(n) for n in re.findall(
        r"calibration regenerations (\d+)", text))
    instances = sum("mc_check" not in r for r in records)
    return {"sweep.instances": instances,
            "sweep.regenerations": regenerations,
            "sweep.attempts": instances + regenerations,
            "sweep.mc_checks": sum("mc_check" in r for r in records)}


def work_counts(workload, work: Path, estimate_calls: int) -> dict[str, int]:
    """Exact work counts of one repetition, read from its outputs.

    Raises OSError, ValueError or KeyError when an output is missing or
    malformed; the output checks report that case as failures.
    """
    out = work / "out"
    if workload.name == "market_oracle":
        return _abtest_counts(out)
    if workload.name == "verify_sweep":
        return _sweep_counts(out)
    if workload.name == "lift_pipeline":
        summary = json.loads((out / "simulate_summary.json").read_text("utf-8"))
        train = (out / "calibration.txt").read_text("utf-8")
        samples, positives = re.search(
            r"^samples=(\d+) positives=(\d+)$", train, re.MULTILINE).groups()
        model = json.loads((out / "model.json").read_text("utf-8"))
        return {"events.count": summary["events"],
                "events.bytes": (out / "events.jsonl").stat().st_size,
                "samples": int(samples), "positives": int(positives),
                "trees": len(model["gbdt"]["trees"]),
                "estimate_calls": estimate_calls,
                **_abtest_counts(out)}
    raise ValueError(f"unknown workload {workload.name!r}")


def digests(work: Path) -> dict[str, str]:
    """SHA-256 of every file the CLI calls wrote, by relative path."""
    files = sorted(list((work / "out").rglob("*")) + list(work.glob("stdout_*")))
    return {str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files if p.is_file()}
