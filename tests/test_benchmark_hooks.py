"""The benchmark's traced run wraps liftsim functions by name; a rename
must fail here, not only in the benchmark's own slower self test."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = ["perfbench", "src"]
import tracer
recorder = tracer.SpanRecorder("t")
tracer.install(recorder)
from liftsim.events import EventLog
log = EventLog.parse([
    '{"format":"liftsim.events","version":1,"seed":0,"config_digest":"d"}',
    '{"ts":1,"user":"u0","kind":"page_view","topic":0}',
])
log.dumps()
assert recorder.counts["events.count"] == 1, dict(recorder.counts)
assert {"events.parse", "events.dumps"} <= {s[2] for s in recorder.spans}
"""


def test_tracer_installs_on_the_package():
    result = subprocess.run([sys.executable, "-c", SCRIPT], cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


PIPELINE_SCRIPT = """
import json, os, sys
sys.path[:0] = [os.path.join({root!r}, "perfbench"), os.path.join({root!r}, "src")]
import liftsim.cli as cli
import rep
import tracer
import workloads
workload = workloads.build("lift_pipeline", 3, "smoke")
for name, payload in workload.configs.items():
    with open(name, "w") as fh:
        json.dump(payload, fh)
recorder = tracer.SpanRecorder("t")
latencies = []
if {traced!r}:
    tracer.install(recorder)
else:
    rep._install_bid_timer(cli, latencies)
for argv in workload.calls:
    assert cli.main(argv) == 0, argv
if {traced!r}:
    for name in ("gbdt.trees", "gbdt.raw_score.rows",
                 "sampling.generate_samples.samples"):
        assert recorder.counts[name] > 0, (name, dict(recorder.counts))
else:
    assert latencies, "no model bid was timed"
"""


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "timed"])
def test_model_pipeline_runs_under_the_benchmark_hooks(tmp_path, traced):
    """``simulate -> train -> abtest --bids model`` at the benchmark's smoke
    size, under the traced run's wrappers or the untraced run's bid timer.
    Each run is its own process because both patch liftsim globally."""
    script = PIPELINE_SCRIPT.format(root=str(ROOT), traced=traced)
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


TRACED_SCRIPT = """
import json, os, sys
sys.path[:0] = [os.path.join({root!r}, "perfbench"), os.path.join({root!r}, "src")]
import liftsim.cli as cli
import tracer
import workloads
workload = workloads.build({name!r}, 3, "smoke")
for name, payload in workload.configs.items():
    with open(name, "w") as fh:
        json.dump(payload, fh)
recorder = tracer.SpanRecorder("t")
tracer.install(recorder)
for argv in workload.calls:
    assert cli.main(argv) == 0, argv
names = {{span[2] for span in recorder.spans}}
assert {spans!r} <= names, sorted(names)
for name in {counts!r}:
    assert recorder.counts[name] > 0, (name, dict(recorder.counts))
"""


def _run_traced(tmp_path, name, spans, counts=()):
    """Run workload ``name`` at the benchmark's smoke size in its own
    process under the traced run's wrappers, and check that it recorded
    ``spans`` and non-zero ``counts``."""
    script = TRACED_SCRIPT.format(root=str(ROOT), name=name, spans=set(spans),
                                  counts=tuple(counts))
    result = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_verify_sweep_runs_under_the_tracer(tmp_path):
    """``verify`` at the benchmark's smoke size under the traced run's
    wrappers: the worked example's auctions, the calibrations and the
    partitions each record spans."""
    _run_traced(tmp_path, "verify_sweep", {
        "market.run_auction", "bidders.calibrate", "attribution.partition"})


def test_market_oracle_runs_under_the_tracer(tmp_path):
    """``abtest`` with oracle bids under the traced run's wrappers: the
    tracer finds ``run_market`` where ``abtest`` calls it, and counts its
    requests, bids and impressions."""
    _run_traced(tmp_path, "market_oracle", {"world.run_market"}, (
        "world.run_market.requests", "world.run_market.bids",
        "world.run_market.impressions"))
