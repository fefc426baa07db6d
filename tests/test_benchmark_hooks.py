"""The benchmark's traced run wraps liftsim functions by name; a rename
must fail here, not only in the benchmark's own slower self test."""

import subprocess
import sys
from pathlib import Path

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
