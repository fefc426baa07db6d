"""Event logs for tests, built as a file is read: JSON lines through
``EventLog.parse``."""

import json

from liftsim.events import KIND_CODE, EventLog


def parse_log(records, seed=0, config_digest="test"):
    """An EventLog of event records (dicts with the file's keys), sorted
    by (ts, user, kind) as the simulator writes them."""
    header = {"format": "liftsim.events", "version": 1, "seed": seed,
              "config_digest": config_digest}
    ordered = sorted(records, key=lambda r: (r["ts"], r["user"],
                                             KIND_CODE[r["kind"]]))
    return EventLog.parse(map(json.dumps, [header, *ordered]))
