"""Event logs for tests, built as a file is read: JSON lines through
``EventLog.parse``."""

import json

import numpy as np

from liftsim.events import FIELDS, KIND_CODE, EventLog
from liftsim.liftmodel.features import EventIndex


def parse_log(records, seed=0, config_digest="test"):
    """An EventLog of event records (dicts with the file's keys), sorted
    by (ts, user, kind) as the simulator writes them."""
    header = {"format": "liftsim.events", "version": 1, "seed": seed,
              "config_digest": config_digest}
    ordered = sorted(records, key=lambda r: (r["ts"], r["user"],
                                             KIND_CODE[r["kind"]]))
    return EventLog.parse(map(json.dumps, [header, *ordered]))


def log_rows(log, population, schema, codes, ts, fw):
    """Feature rows of ``log``'s user codes ``codes`` at times ``ts``, as
    ``generate_samples`` builds them: one ``EventIndex`` over the log's
    columns, and the demographics of each user's population row."""
    rows = np.array([population.row_of[uid] for uid in log.users],
                    dtype=np.int64)[np.asarray(codes, dtype=np.int64)]
    index = EventIndex([getattr(log, name) for name in FIELDS],
                       log.advertisers, len(log.users), schema)
    return index.rows(codes, ts, fw, population.demographics[rows])
