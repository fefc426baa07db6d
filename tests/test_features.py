"""Feature extraction and the counterfactual bump."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from event_records import log_rows, parse_log
from liftsim.events import (
    ACTION, AD_REQUEST, APP_INSTALL, APP_USE, CLICK, FIELDS, IMPRESSION,
    KIND_CODE, PAGE_VIEW, SEARCH,
)
from liftsim.liftmodel.features import (
    MOST_RECENT_BUCKET, NEVER_BUCKET, QUERY_CHUNK_ROWS, RECENCY_EDGES,
    EventIndex, FeatureSchema, UserHistory, counterfactual_features,
    extract_from_history, histories, recency_bucket,
)
from liftsim.market import Population

HOUR = 3_600
DAY = 86_400
U0 = "u000000"


def schema():
    return FeatureSchema(advertisers=("adv1", "adv2"), topics=3, apps=2)


def users(n=1, age=4, gender=1, geo=7):
    """``n`` users u000000, u000001, ... with the same demographics."""
    return Population(p=np.full(n, 0.02), delta_p=np.full(n, 0.01),
                      topic_weights=np.full((n, 3), 0.5),
                      app_weights=np.full((n, 2), 0.3),
                      age_group=np.full(n, age), gender=np.full(n, gender),
                      geo_area=np.full(n, geo))


def features_at(log, population, s, uid, ts, fw):
    """The row of one (user, ts) sample."""
    return log_rows(log, population, s, [log.users.index(uid)], [ts], fw)[0]


def test_schema_layout_and_digest():
    s = schema()
    assert s.n_features == 2 * 4 + 3 * 4 + 3 + 2 * 4
    assert s.names[s.index("imp_freq_adv:adv1")] == "imp_freq_adv:adv1"
    assert s.digest() == schema().digest()
    assert s.digest() != FeatureSchema(("adv1",), 3, 2).digest()


def test_recency_buckets():
    assert recency_bucket(0) == 0
    assert recency_bucket(HOUR) == 0
    assert recency_bucket(HOUR + 1) == 1
    assert recency_bucket(DAY) == 2
    assert recency_bucket(2 * DAY) == 3
    assert recency_bucket(7 * DAY) == 4
    assert recency_bucket(8 * DAY) == NEVER_BUCKET


def test_impression_frequency_counts_window_events():
    s = schema()
    ts = 10 * DAY
    events = [
        {"ts": ts - hours * HOUR, "user": U0, "kind": IMPRESSION, "adv": adv,
         "bidder": "value", "price": 1}
        for hours, adv in ((2, "adv1"), (3, "adv1"), (4, "adv1"), (5, "adv2"))
    ]
    f = features_at(parse_log(events), users(), s, U0, ts, 7 * DAY)
    assert f[s.index("imp_freq_adv:adv1")] == 3
    assert f[s.index("imp_freq_adv:adv2")] == 1
    assert f[s.index("imp_rncy_adv:adv1")] == 1  # 2h ago -> <=6h bucket
    assert f[s.index("clk_freq_adv:adv1")] == 0
    assert f[s.index("clk_rncy_adv:adv1")] == NEVER_BUCKET
    assert f[s.index("age_group")] == 4
    assert f[s.index("gender")] == 1
    assert f[s.index("geo_area")] == 7


def test_window_boundaries_are_half_open():
    s = schema()
    ts, fw = 10 * DAY, 7 * DAY
    events = [
        {"ts": ts - fw, "user": U0, "kind": PAGE_VIEW, "topic": 0},
        {"ts": ts - fw + 1, "user": U0, "kind": PAGE_VIEW, "topic": 1},
        {"ts": ts, "user": U0, "kind": SEARCH, "topic": 2},
        {"ts": ts + 1, "user": U0, "kind": SEARCH, "topic": 2},
    ]
    f = features_at(parse_log(events), users(), s, U0, ts, fw)
    assert f[s.index("pv_freq_topic:0")] == 0  # exactly ts - fw is outside
    assert f[s.index("pv_freq_topic:1")] == 1
    assert f[s.index("srch_freq_topic:2")] == 1  # ts itself is inside
    assert f[s.index("srch_rncy_topic:2")] == MOST_RECENT_BUCKET


def test_features_match_brute_force_scan():
    rng = np.random.default_rng(7)
    s = schema()
    population = users(5)
    kinds = [
        (IMPRESSION, "adv", ["adv1", "adv2"], "imp"),
        (CLICK, "adv", ["adv1", "adv2"], "clk"),
        (PAGE_VIEW, "topic", [0, 1, 2], "pv"),
        (SEARCH, "topic", [0, 1, 2], "srch"),
    ]
    events = []
    for _ in range(400):
        kind, fieldname, refs, _ = kinds[rng.integers(len(kinds))]
        event = {fieldname: refs[rng.integers(len(refs))]}
        if kind in (IMPRESSION, CLICK):
            event["bidder"] = "value"
        events.append({"ts": int(rng.integers(0, 14 * DAY)),
                       "user": population.user_ids[rng.integers(5)],
                       "kind": kind, **event})
    log = parse_log(events)
    from liftsim.liftmodel.features import recency_bucket as bucket

    fw = 7 * DAY
    probes = [(population.user_ids[rng.integers(5)],
               int(rng.integers(DAY, 14 * DAY))) for _ in range(50)]
    rows = log_rows(log, population, s,
                    [log.users.index(uid) for uid, _ in probes],
                    [ts for _, ts in probes], fw)
    for (uid, ts), got in zip(probes, rows):
        for kind, fieldname, refs, prefix in kinds:
            for ref in refs:
                window = [e for e in events
                          if e["kind"] == kind and e["user"] == uid
                          and e[fieldname] == ref
                          and ts - fw < e["ts"] <= ts]
                assert got[s.index(f"{prefix}_freq_{'adv' if 'adv' in fieldname else ('topic' if kind in (PAGE_VIEW, SEARCH) else 'app')}:{ref}")] == len(window)
                rncy = got[s.index(f"{prefix}_rncy_{'adv' if 'adv' in fieldname else 'topic'}:{ref}")]
                if window:
                    assert rncy == bucket(ts - max(e["ts"] for e in window))
                else:
                    assert rncy == NEVER_BUCKET


# Tracked kinds with refs in and outside ``schema()``: advertiser adv3,
# topic 3 and app 2 are not in it, and None leaves the ref out.
TRACKED_REFS = [
    (IMPRESSION, "adv", ["adv1", "adv2", "adv3", None]),
    (CLICK, "adv", ["adv1", "adv2", "adv3", None]),
    (PAGE_VIEW, "topic", [0, 1, 2, 3, None]),
    (SEARCH, "topic", [0, 1, 2, 3, None]),
    (APP_INSTALL, "app", [0, 1, 2, None]),
    (APP_USE, "app", [0, 1, 2, None]),
]


def world_log(events, n_users=4):
    """A log with one ad request per user, so every user has a code, plus
    the tracked ``events`` as (user row, kind, ref, ts). The requests come
    in reverse user order, so log codes are not population rows."""
    records = [{"ts": n_users - i, "user": f"u{i:06d}", "kind": AD_REQUEST,
                "topic": 0} for i in range(n_users)]
    for user, kind, field, ref, ts in events:
        record = {"ts": ts, "user": f"u{user:06d}", "kind": kind}
        if ref is not None:
            record[field] = ref
        if kind in (IMPRESSION, CLICK):
            record["bidder"] = "value"
        records.append(record)
    return parse_log(records)


def assert_rows_match_reference(log, population, s, samples, fw):
    """Rows built as ``generate_samples`` builds them equal
    ``extract_from_history`` over ``histories(log)``, row by row and bit
    for bit."""
    codes = [log.users.index(uid) for uid, _ in samples]
    got = log_rows(log, population, s, codes, [ts for _, ts in samples], fw)
    assert got.shape == (len(samples), s.n_features)
    per_user = histories(log)
    for (uid, ts), code, row in zip(samples, codes, got):
        demographics = population.demographics[population.row_of[uid]].tolist()
        want = extract_from_history(per_user[code], demographics, ts, fw, s)
        assert row.tobytes() == want.tobytes(), (uid, ts)


def distinct_users(n=4):
    """Users whose demographics differ, so a row mix-up shows."""
    return Population(p=np.full(n, 0.02), delta_p=np.full(n, 0.01),
                      age_group=np.arange(n), gender=np.arange(n) % 2,
                      geo_area=np.arange(n) * 3)


def test_log_rows_edge_cases_match_the_reference():
    s = schema()
    population = distinct_users(7)
    ts, fw = 10 * DAY, 8 * DAY
    events = [(0, PAGE_VIEW, "topic", 0, ts - fw),  # out: exactly ts - fw
              (0, SEARCH, "topic", 0, ts),  # in: exactly ts
              (0, IMPRESSION, "adv", "adv3", ts),  # advertiser not in schema
              (0, PAGE_VIEW, "topic", 3, ts),  # topic not in schema
              (0, PAGE_VIEW, "topic", 10**15, ts),  # far outside it
              (0, APP_USE, "app", 2, ts),  # app not in schema
              (0, IMPRESSION, "adv", None, ts),  # no advertiser
              (0, SEARCH, "topic", None, ts),  # no topic
              (0, CLICK, "adv", "adv1", ts + 1)]  # after ts
    # User 1 + k has one impression, sampled when it is exactly the k-th
    # recency edge old and one second older. User 6 has no tracked events.
    events += [(1 + k, IMPRESSION, "adv", "adv1", 20 * DAY - edge)
               for k, edge in enumerate(RECENCY_EDGES)]
    log = world_log(events, n_users=7)
    samples = [(U0, ts), ("u000006", ts)]
    samples += [(f"u{1 + k:06d}", 20 * DAY + late)
                for k in range(len(RECENCY_EDGES)) for late in (0, 1)]
    assert_rows_match_reference(log, population, s, samples, fw)

    row = features_at(log, population, s, U0, ts, fw)
    assert row[s.index("pv_freq_topic:0")] == 0
    assert row[s.index("srch_freq_topic:0")] == 1
    assert row[s.index("srch_rncy_topic:0")] == MOST_RECENT_BUCKET
    assert row[s.index("clk_freq_adv:adv1")] == 0
    for k in range(len(RECENCY_EDGES)):
        for late in (0, 1):
            row = features_at(log, population, s, f"u{1 + k:06d}",
                              20 * DAY + late, fw)
            assert row[s.index("imp_freq_adv:adv1")] == 1
            assert row[s.index("imp_rncy_adv:adv1")] == k + late
    # A log with no tracked events at all.
    quiet = world_log([])
    assert_rows_match_reference(quiet, population, s,
                                [(uid, DAY) for uid in quiet.users], fw)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), fw=st.sampled_from([DAY, 7 * DAY, 8 * DAY]))
def test_log_rows_match_the_per_user_reference(data, fw):
    """Random small logs whose event ages cluster on the window edges and
    the recency edges; users 0-2 have tracked events, user 3 none."""
    anchors = data.draw(st.lists(st.integers(9 * DAY, 10 * DAY), min_size=1,
                                 max_size=3))
    ages = st.sampled_from([-1, 0, 1, fw - 1, fw, fw + 1, *RECENCY_EDGES,
                            *(edge + 1 for edge in RECENCY_EDGES)])
    events = data.draw(st.lists(st.tuples(
        st.integers(0, 2), st.sampled_from(TRACKED_REFS), st.integers(0, 4),
        st.sampled_from(anchors), ages | st.integers(-DAY, fw + DAY)),
        max_size=40))
    log = world_log([(user, kind, field, refs[i % len(refs)], anchor - age)
                     for user, (kind, field, refs), i, anchor, age in events])
    samples = data.draw(st.lists(st.tuples(
        st.sampled_from(log.users),
        st.sampled_from(anchors) | st.integers(8 * DAY, 11 * DAY)),
        min_size=1, max_size=8))
    assert_rows_match_reference(log, distinct_users(), schema(), samples, fw)


def observed_histories(log, observed):
    """``histories(log)`` with the ``observed`` (user code, kind, ref, ts)
    events added, each time list sorted as ``UserHistory`` requires."""
    per_user = histories(log)
    for user, kind, ref, ts in observed:
        per_user[user].observe(kind, ref, ts)
    for history in per_user:
        for times in history.times.values():
            times.sort()
    return per_user


# Observed kinds, tracked or not, with the field their ref code is in and
# the codes drawn. The codes index OBSERVED_ADVERTISERS, whose adv3
# ``schema()`` lacks, or are topics or apps, 3 and 2 outside the schema;
# -1 leaves the ref out.
OBSERVED = {IMPRESSION: ("adv", [-1, 0, 1, 2]), CLICK: ("adv", [-1, 0, 1, 2]),
            PAGE_VIEW: ("topic", [-1, 0, 1, 2, 3]),
            SEARCH: ("topic", [-1, 0, 1, 2, 3]),
            APP_USE: ("app", [-1, 0, 1, 2]), AD_REQUEST: ("topic", [0, 1]),
            ACTION: ("adv", [0, 1])}
OBSERVED_ADVERTISERS = ("adv2", "adv1", "adv3")
observed_refs = st.sampled_from(list(OBSERVED)).flatmap(
    lambda kind: st.tuples(st.just(kind), st.sampled_from(OBSERVED[kind][1])))


def event_block(events):
    """The (user code, kind, ref code, ts) ``events`` as an (8, n) int64
    event block, each ref code in its kind's field."""
    block = np.full((len(FIELDS), len(events)), -1, dtype=np.int64)
    for i, (user, kind, code, ts) in enumerate(events):
        block[:3, i] = ts, user, KIND_CODE[kind]
        block[FIELDS.index(OBSERVED[kind][0]), i] = code
    return block


def reference_ref(kind, code):
    """The id that ``UserHistory`` keys an observed ref code by."""
    if code < 0:
        return None
    return OBSERVED_ADVERTISERS[code] if OBSERVED[kind][0] == "adv" else code


@settings(max_examples=150, deadline=None)
@given(data=st.data(), fw=st.sampled_from([DAY, 7 * DAY, 8 * DAY]))
def test_event_index_with_observed_events_matches_the_reference(data, fw):
    """The rows ``ModelBidEstimator`` prices from: a log that holds
    impressions and clicks, plus event blocks observed in any time order,
    among them a click 30 s after a request, queried at the window edges,
    before ``fw`` and for user 3, who has no events."""
    anchors = data.draw(st.lists(st.integers(0, DAY) | st.integers(9 * DAY,
                                                                   10 * DAY),
                                 min_size=1, max_size=3))
    ages = st.sampled_from([-1, 0, 1, fw - 1, fw, fw + 1, *RECENCY_EDGES,
                            *(edge + 1 for edge in RECENCY_EDGES)])
    times = st.builds(lambda anchor, age: max(anchor - age, 0),
                      st.sampled_from(anchors), ages | st.integers(-DAY, fw))
    events = data.draw(st.lists(st.tuples(
        st.integers(0, 2), st.sampled_from(TRACKED_REFS), st.integers(0, 4),
        times), max_size=30))
    log = world_log([(user, kind, field, refs[i % len(refs)], ts)
                     for user, (kind, field, refs), i, ts in events])
    code = [log.users.index(f"u{row:06d}") for row in range(4)]
    observed = [(code[user], kind, ref, ts) for user, (kind, ref), ts in
                data.draw(st.lists(st.tuples(st.integers(0, 2), observed_refs,
                                             times), max_size=12))]
    # A request won at t, its click at t + 30; both times are queried.
    requests = data.draw(st.lists(st.tuples(st.integers(0, 2), times),
                                  max_size=3))
    for user, ts in requests:
        observed += [(code[user], IMPRESSION, 1, ts),
                     (code[user], CLICK, 1, ts + 30)]
    samples = data.draw(st.lists(st.tuples(
        st.integers(0, 3), st.sampled_from(anchors) | times
        | st.integers(0, fw - 1)), min_size=1, max_size=8))
    samples += [(user, ts + late) for user, ts in requests for late in (0, 30)]

    index = EventIndex([getattr(log, name) for name in FIELDS],
                       log.advertisers, len(log.users), schema())
    index.observe(event_block([]), OBSERVED_ADVERTISERS)  # no change
    half = len(observed) // 2 + 1
    for part in (observed[:half], observed[half:]):
        index.observe(event_block(part), OBSERVED_ADVERTISERS)
        index.rows([0], [DAY], fw, np.zeros((1, 3)))  # rows in between
    population = distinct_users()
    users = np.array([code[user] for user, _ in samples])
    got = index.rows(users, [ts for _, ts in samples], fw,
                     population.demographics[[user for user, _ in samples]])
    per_user = observed_histories(log, [
        (user, kind, reference_ref(kind, ref), ts)
        for user, kind, ref, ts in observed])
    for (user, ts), history, row in zip(samples, (per_user[u] for u in users),
                                        got):
        want = extract_from_history(history,
                                    population.demographics[user].tolist(),
                                    ts, fw, schema())
        assert row.tobytes() == want.tobytes(), (user, ts)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), fw=st.sampled_from([DAY, 7 * DAY]))
def test_event_index_rows_do_not_depend_on_event_order_or_observe_calls(
        data, fw):
    """Rows are bit-equal under any permutation of the first events and
    of the observed ones, and with the observed events split across
    several ``observe`` calls. Times tie often, so ranks tie too."""
    times = st.sampled_from([0, 1, HOUR, DAY - 1, DAY, 2 * DAY, 7 * DAY])
    events = st.lists(st.tuples(st.integers(0, 3), observed_refs, times),
                      max_size=30).map(lambda drawn: [
                          (user, kind, ref, ts)
                          for user, (kind, ref), ts in drawn])
    first, told = data.draw(events), data.draw(events)
    queries = data.draw(st.lists(st.tuples(st.integers(0, 3), times
                                           | st.integers(0, 8 * DAY)),
                                 min_size=1, max_size=8))
    users, ts = np.array(queries).T
    demographics = distinct_users().demographics[users]

    def rows(first, parts):
        index = EventIndex(event_block(first), OBSERVED_ADVERTISERS, 4,
                           schema())
        for part in parts:
            index.observe(event_block(part), OBSERVED_ADVERTISERS)
        return index.rows(users, ts, fw, demographics).tobytes()

    want = rows(first, [told])
    shuffled = data.draw(st.permutations(told))
    cuts = sorted(data.draw(st.lists(st.integers(0, len(told)), max_size=3)))
    parts = [shuffled[a:b] for a, b in zip([0, *cuts], [*cuts, len(told)])]
    assert rows(data.draw(st.permutations(first)), parts) == want


@pytest.mark.parametrize("n", [QUERY_CHUNK_ROWS - 1, QUERY_CHUNK_ROWS,
                               QUERY_CHUNK_ROWS + 1, 2 * QUERY_CHUNK_ROWS + 1])
def test_event_index_rows_across_query_chunks(n):
    """Queries in more than one of ``rows``' chunks, users repeated and
    times unsorted, give the reference's rows bit for bit, each in its
    query's place."""
    rng = np.random.default_rng(n)
    n_users, fw = 40, 7 * DAY
    kinds = list(OBSERVED)

    def draw(count):
        return [(int(rng.integers(n_users)), str(kind),
                 int(rng.choice(OBSERVED[kind][1])),
                 int(rng.integers(0, 10 * DAY)))
                for kind in rng.choice(kinds, count)]

    first, told = draw(600), draw(200)
    index = EventIndex(event_block(first), OBSERVED_ADVERTISERS, n_users,
                       schema())
    index.observe(event_block(told), OBSERVED_ADVERTISERS)
    users = rng.integers(0, n_users, n)
    ts = rng.integers(0, 11 * DAY, n)
    demographics = distinct_users(n_users).demographics
    got = index.rows(users, ts, fw, demographics[users])

    per_user = [UserHistory() for _ in range(n_users)]
    for user, kind, code, t in sorted(first + told, key=lambda e: e[3]):
        per_user[user].observe(kind, reference_ref(kind, code), t)
    want = np.array([
        extract_from_history(per_user[u], demographics[u].tolist(), t, fw,
                             schema())
        for u, t in zip(users.tolist(), ts.tolist())])
    assert got.tobytes() == want.tobytes()


def test_counterfactual_changes_exactly_two_coordinates():
    s = schema()
    rng = np.random.default_rng(3)
    f = rng.integers(0, 5, s.n_features).astype(float)
    f[s.index("imp_rncy_adv:adv1")] = 3.0
    bumped = counterfactual_features(f, "adv1", s)
    diff = np.nonzero(bumped != f)[0]
    assert set(diff) == {s.index("imp_freq_adv:adv1"), s.index("imp_rncy_adv:adv1")}
    assert bumped[s.index("imp_freq_adv:adv1")] == f[s.index("imp_freq_adv:adv1")] + 1
    assert bumped[s.index("imp_rncy_adv:adv1")] == MOST_RECENT_BUCKET
    # Other advertisers are untouched.
    assert bumped[s.index("imp_freq_adv:adv2")] == f[s.index("imp_freq_adv:adv2")]


def test_counterfactual_from_never_exposed():
    s = schema()
    f = np.zeros(s.n_features)
    f[s.index("imp_rncy_adv:adv1")] = NEVER_BUCKET
    bumped = counterfactual_features(f, "adv1", s)
    assert bumped[s.index("imp_freq_adv:adv1")] == 1
    assert bumped[s.index("imp_rncy_adv:adv1")] == MOST_RECENT_BUCKET
