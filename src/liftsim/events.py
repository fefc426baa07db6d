"""Replayable event log: int64 columns in memory, JSONL v1 on disk.

:class:`EventLog` holds one array per field, in the file's key order
``ts, user, kind, adv, topic, app, bidder, price``. ``kind`` indexes
:data:`EVENT_KINDS`; ``user``, ``adv`` and ``bidder`` index the tables
``users``, ``advertisers`` and ``bidders``. ``price`` is in micros: the
bid on ``bid`` events, the clearing price on ``auction`` and
``impression`` events. -1 marks an absent field, so no field holds a
negative value. Events are in non-decreasing ``ts`` order.

On disk a header line carries the format version, the world seed and
the config digest. Then each line is one JSON object, keys in the order
above and absent fields omitted; ids are ASCII-escaped and numbers are
integers, so the bytes are the same on every platform.

:meth:`EventLog.dumps` writes the lines without a Python object per
event. It fills a NUL-padded matrix per block of events, one row per
line: ids come from per-table fragment matrices (``,"user":"u7"`` and
so on) indexed by code, numbers from a table of four-digit words, and an
absent field is all NUL. Dropping every NUL byte leaves the lines. That
is sound because no byte of a line is NUL: keys and digits are ASCII,
and ids are JSON-escaped to ASCII, a NUL in an id becoming ``\\u0000``.

The JSONL file is the canonical log. :meth:`EventLog.write` also writes
a sidecar beside it, the same name with the suffix ``.npz``, so that
reading the log back need not parse it. The sidecar holds the eight
columns as one (8, n) int64 array and, as JSON text, the three id
tables, the header's seed and config digest, and the SHA-256 of the
JSONL bytes. Columns and tables are stored as :meth:`EventLog.parse`
returns them for those bytes: ids in order of first appearance, and only
the ids that appear. :meth:`EventLog.read` uses the sidecar only when
its hash is that of the file's bytes and its columns pass the checks
``parse`` makes (dtype and shape, time order, ranges, codes inside their
tables, string ids). Any other sidecar, a missing one included, is
ignored and the JSONL is parsed.

Neither writing nor reading holds the text. ``write`` sends it to the
file and its hash one encoded block (at most :data:`_BLOCK_BYTES`) at a
time, then writes the sidecar, the zip that ``np.savez`` writes, one
column at a time. ``read`` hashes the file as it reads it, and parses
the file, a block of lines at a time into columns that grow once, only
when the sidecar does not match.
"""
from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .fileio import atomic_write

FORMAT_NAME = "liftsim.events"
FORMAT_VERSION = 1

AD_REQUEST = "ad_request"
BID = "bid"
AUCTION = "auction"
IMPRESSION = "impression"
CLICK = "click"
PAGE_VIEW = "page_view"
SEARCH = "search"
APP_INSTALL = "app_install"
APP_USE = "app_use"
ACTION = "action"

EVENT_KINDS = (
    AD_REQUEST, BID, AUCTION, IMPRESSION, CLICK,
    PAGE_VIEW, SEARCH, APP_INSTALL, APP_USE, ACTION,
)
KIND_CODE = {kind: code for code, kind in enumerate(EVENT_KINDS)}
FIELDS = ("ts", "user", "kind", "adv", "topic", "app", "bidder", "price")

# Lines per json.loads call in EventLog.parse: few enough that a block's
# records stay small next to the columns, many enough to amortize a call.
_BLOCK_LINES = 2_048
# Bytes in one matrix of EventLog.dumps: small enough to stay in cache,
# large enough to amortize a block's numpy calls.
_BLOCK_BYTES = 1 << 19
_NOT_A_RECORD = ("not an event record: ts, user and kind are required, "
                 "numbers are non-negative integers, no other key may appear")


class EventLogError(ValueError):
    """Raised on malformed event-log files."""


@dataclass(eq=False)
class EventLog:
    """Event columns plus the provenance needed to replay them."""

    ts: np.ndarray
    user: np.ndarray
    kind: np.ndarray
    adv: np.ndarray
    topic: np.ndarray
    app: np.ndarray
    bidder: np.ndarray
    price: np.ndarray
    users: tuple[str, ...]
    advertisers: tuple[str, ...]
    bidders: tuple[str, ...]
    seed: int = 0
    config_digest: str = ""

    def __len__(self) -> int:
        return len(self.ts)

    def header(self) -> dict[str, object]:
        return {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "seed": self.seed,
            "config_digest": self.config_digest,
        }

    def dumps(self) -> str:
        """The log as JSONL v1 text: the header line, then one line per event.

        Raises :class:`EventLogError` unless the columns are a log over
        the id tables (see :func:`_column_problem`); a code outside its
        table would otherwise write some other id or none.
        """
        return b"".join(self._encoded()).decode("ascii")

    def _encoded(self) -> Iterator[bytes]:
        """The ASCII bytes of :meth:`dumps`: the header line, then one
        block of lines at a time; the column check raises on the first.

        Events are encoded in blocks of at most :data:`_BLOCK_BYTES`, each
        a NUL-padded uint32 matrix with one row per line and a column per
        four bytes. An id field's columns are gathered by code, in one
        call, from its table's fragment words; a number's are its key and
        its digits, four to a word from a 30,000-word table; an absent
        field's are NUL. Only a block that holds a long id is wide: it is
        halved until it fits. Dropping the NUL bytes leaves the lines. No
        real byte is NUL: keys, digits and ``}\\n`` are ASCII, and ids are
        written as ``json.dumps`` writes them with ``ensure_ascii``, so a
        NUL in an id is the six bytes ``\\u0000``.
        """
        columns = [getattr(self, name) for name in FIELDS]
        if problem := _column_problem(columns, self.users, self.advertisers,
                                      self.bidders):
            raise EventLogError(problem)
        tables = {"user": self.users, "kind": EVENT_KINDS,
                  "adv": self.advertisers, "bidder": self.bidders}
        # Per field: its column, its words (an id field's fragments, one
        # word per row and one fragment per column, the last fragment, for
        # -1, empty; a number's key) and, for id fields, each fragment's
        # length in words.
        segments = []
        for name, column in zip(FIELDS, columns):
            if name in tables:
                texts = [f',"{name}":{encode_basestring_ascii(s)}'
                         for s in tables[name]] + [""]
                segments.append((column, _words(texts).T.copy(),
                                 -(-np.array([len(t) for t in texts]) // 4)))
            else:
                key = '{"ts":' if name == "ts" else f',"{name}":'
                segments.append((column, _words([key])[0], None))
        digits = _digit_words()
        end = _words(["}\n"])[0]

        def layout(block: list[np.ndarray]) -> list[int]:
            """Each field's words per row in the matrix of ``block``."""
            result = []
            for values, (_, words, lengths) in zip(block, segments):
                if lengths is not None:
                    result.append(int(lengths[values].max()))
                else:
                    top = int(values.max())
                    result.append(len(words) + (len(str(top)) + 3) // 4
                                  if top >= 0 else 0)
            return result

        def encode(block: list[np.ndarray], widths: list[int]) -> bytes:
            """The lines of ``block``, from a matrix of these widths."""
            out = np.empty((len(block[0]), sum(widths) + 1), dtype=np.uint32)
            at = 0
            for values, (_, words, lengths), w in zip(block, segments, widths):
                if lengths is not None:  # words[:w] is contiguous
                    out[:, at:at + w] = np.take(words[:w], values, axis=1).T
                elif w:
                    present = values >= 0
                    for i, word in enumerate(words):
                        np.multiply(present, word, out=out[:, at + i])
                    # Digits four to a word, the last word first, each word
                    # the remainder of what is left by 10_000. Where nothing
                    # higher is left, leading zeros are NUL (but 0 alone is
                    # "0"); the first word takes all that is left.
                    first, last, q = at + len(words), at + w - 1, values
                    for i in range(last, first - 1, -1):
                        high = q // 10_000 if i > first else 0
                        r = q - high * 10_000 + (high == 0) * (
                            20_000 if i == last else 10_000)
                        np.multiply(digits[r], present, out=out[:, i])
                        q = high
                at += w
            out[:, at] = end
            return out.tobytes().translate(None, b"\0")

        yield json.dumps(self.header(), separators=(",", ":")).encode() + b"\n"
        # A block has the rows that fill the block size at the last block's
        # width (the first block's are a guess), halved while a long id
        # makes them wider than that.
        start, rows = 0, 1 << 10
        while start < len(self):
            stop = min(start + rows, len(self))
            while True:
                block = [column[start:stop] for column, _, _ in segments]
                widths = layout(block)
                row_bytes = 4 * (sum(widths) + 1)
                if (stop - start) * row_bytes <= _BLOCK_BYTES or (
                        stop == start + 1):
                    break
                stop = (start + stop) // 2
            yield encode(block, widths)
            start, rows = stop, max(1, _BLOCK_BYTES // row_bytes)

    def write(self, path: str | Path) -> None:
        """The log as JSONL v1 at ``path``, then its sidecar; each file is
        written atomically. The text goes to the file and its SHA-256 one
        encoded block at a time, and the sidecar's columns one row at a
        time, so neither file is ever held whole in memory."""
        sha256 = hashlib.sha256()

        def write_jsonl(fh) -> None:
            for chunk in self._encoded():
                fh.write(chunk)
                sha256.update(chunk)

        atomic_write(path, write_jsonl)
        atomic_write(_sidecar_path(path), lambda fh: self._write_sidecar(
            fh, sha256.hexdigest()))

    def _write_sidecar(self, fh, sha256: str) -> None:
        """The sidecar of the JSONL bytes whose SHA-256 is ``sha256``, as
        the stored zip that ``np.savez`` writes: an (8, n) int64
        ``columns`` array, then ``meta``, the JSON bytes as uint8."""
        import zipfile  # imported late for the reason _read_sidecar gives

        fmt = np.lib.format
        tables = {"user": self.users, "adv": self.advertisers,
                  "bidder": self.bidders}
        with zipfile.ZipFile(fh, "w") as zf:
            with zf.open("columns.npy", "w", force_zip64=True) as fid:
                fmt.write_array_header_1_0(fid, fmt.header_data_from_array_1_0(
                    np.broadcast_to(np.int64(0), (len(FIELDS), len(self)))))
                for name in FIELDS:
                    values = getattr(self, name)
                    if name in tables:
                        values, tables[name] = _first_seen(tables[name], values)
                    fid.write(np.ascontiguousarray(values, dtype=np.int64))
            meta = {"sha256": sha256, "seed": self.seed,
                    "config_digest": self.config_digest,
                    "users": tables["user"], "advertisers": tables["adv"],
                    "bidders": tables["bidder"]}
            with zf.open("meta.npy", "w", force_zip64=True) as fid:
                fmt.write_array(fid, np.frombuffer(json.dumps(meta).encode(),
                                                   dtype=np.uint8))

    @classmethod
    def read(cls, path: str | Path) -> "EventLog":
        """The log at ``path``, from its sidecar when that holds the
        columns of the file's bytes, else parsed from the file opened as
        text. The file is hashed as it is read, so its bytes are never
        held whole."""
        with open(path, "rb") as fh:
            sha256 = hashlib.file_digest(fh, "sha256").hexdigest()
        log = _read_sidecar(_sidecar_path(path), sha256)
        if log is None:
            with open(path, encoding="utf-8") as fh:
                log = cls.parse(fh)
        return log

    @classmethod
    def parse(cls, lines: Iterable[str]) -> "EventLog":
        """A log from JSONL v1 lines, skipping blank ones; raises
        :class:`EventLogError` on a bad header or line, or on disorder."""
        it = iter(lines)
        try:
            header = json.loads(next(it))
        except StopIteration:
            raise EventLogError("empty event log") from None
        except ValueError:
            raise EventLogError("the header is not JSON") from None
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise EventLogError(f"not a {FORMAT_NAME} file")
        if header.get("version") != FORMAT_VERSION:
            raise EventLogError(f"unsupported version {header.get('version')}")
        if not {"seed", "config_digest"} <= header.keys():
            raise EventLogError("the header lacks the seed or config_digest")
        # Code tables in order of first appearance; None (absent) is -1.
        tables = ({None: -1}, {None: -1}, {None: -1})
        stripped = (line for line in map(str.strip, it) if line)
        # One growing buffer of int64 bytes per field, so the columns are
        # held once.
        grown = [bytearray() for _ in FIELDS]
        while block := list(islice(stripped, _BLOCK_LINES)):
            parsed = _parse_block(block, len(grown[0]) // 8, tables)
            for column, row in zip(grown, parsed):
                column.extend(row)
        data = [np.frombuffer(column, dtype=np.int64) for column in grown]
        ids = [tuple(table)[1:] for table in tables]
        if problem := _column_problem(data, *ids):
            raise EventLogError(problem)
        if any(type(s) is not str for table in ids for s in table):
            raise EventLogError("a user, adv or bidder id is not a string")
        return cls(*data, *ids, seed=header["seed"],
                   config_digest=header["config_digest"])


def _parse_block(block: list[str], before: int, tables) -> np.ndarray:
    """One block of stripped event lines as an (8, n) column array; new
    ids join the code tables, and ``before`` events precede the block."""
    def fail(index: int, problem: str = _NOT_A_RECORD) -> EventLogError:
        return EventLogError(f"event {before + index + 1}: {problem}")

    # Lines are joined by ",\n", and no JSON string may hold the newline.
    # One value per line, with every line ending in "}", is then one record
    # per line: a record across lines needs a nested value, rejected below.
    text = ",\n".join(block)
    try:
        rows = json.loads("[" + text + "]")
    except (ValueError, RecursionError) as exc:
        raise fail(getattr(exc, "lineno", 1) - 1, "not a JSON object") from None
    closed = text.count("},\n") + text.endswith("}")  # lines ending in "}"
    if len(rows) != len(block) or closed != len(block):
        raise EventLogError(f"events {before + 1}-{before + len(block)}: "
                            "a line is not exactly one JSON object")
    users, advertisers, bidders = tables
    columns: list[list] = [[] for _ in FIELDS]
    ts, user, kind, adv, topic, app, bidder, price = columns
    try:
        for record in rows:
            ts.append(record.get("ts"))
            user.append(users.setdefault(record.get("user"), len(users) - 1))
            kind.append(KIND_CODE.get(record.get("kind"), -1))
            adv.append(advertisers.setdefault(record.get("adv"),
                                              len(advertisers) - 1))
            topic.append(record.get("topic", -1))
            app.append(record.get("app", -1))
            bidder.append(bidders.setdefault(record.get("bidder"),
                                             len(bidders) - 1))
            price.append(record.get("price", -1))
    except (TypeError, AttributeError):  # not an object, or an unhashable id
        raise fail(len(price)) from None
    numbers = ts + topic + app + price
    if set(map(type, numbers)) != {int} or not (
            -1 <= min(numbers) <= max(numbers) < 1 << 63):
        raise fail(next(i for i, v in enumerate(numbers) if type(v) is not int
                        or not -1 <= v < 1 << 63) % len(block))
    data = np.array(columns, dtype=np.int64)
    # Each key of a record is ts, user, kind or an optional field that has
    # a value, so an unknown key, a null or a -1 shows as a width that is off.
    keys = 3 + np.count_nonzero(data[3:] >= 0, axis=0)
    widths = np.array([len(record) for record in rows])
    bad = (data[:3] < 0).any(axis=0) | (widths != keys)
    if bad.any():
        raise fail(int(np.argmax(bad)))
    return data


def _column_problem(columns, users, advertisers, bidders) -> str | None:
    """Why the eight ``columns``, in :data:`FIELDS` order, are not a log
    over these id tables, or None if they are one."""
    limits = (None, len(users), len(EVENT_KINDS), len(advertisers), None,
              None, len(bidders), None)
    for name, column, limit in zip(FIELDS, columns, limits):
        least = 0 if name in FIELDS[:3] else -1
        if (column.shape != columns[0].shape or column.min(initial=0) < least
                or limit is not None and column.max(initial=-1) >= limit):
            return (f"{name}: not one value per event, each >= {least}"
                    + ("" if limit is None else f" and < {limit}"))
    later = np.flatnonzero(columns[0][1:] < columns[0][:-1])
    return (f"event {later[0] + 2} is earlier than the one before it"
            if later.size else None)


def _words(texts: list[str]) -> np.ndarray:
    """ASCII ``texts`` as a uint32 matrix, one row each, NUL-padded to the
    longest."""
    data = np.array([s.encode("ascii") for s in texts], dtype=bytes)
    width = -(-data.itemsize // 4) * 4
    return data.astype(f"S{width}").view(np.uint32).reshape(len(texts), -1)


def _digit_words() -> np.ndarray:
    """Words of four ASCII digits, indexed by 0-9999 plus an offset: 0 for
    all four digits, 10_000 for leading zeros NUL, 20_000 for leading zeros
    NUL but 0 written "0"."""
    places = 10 ** np.arange(3, -1, -1)
    i = np.arange(10_000)[:, None]
    digits = (i // places % 10 + ord("0")).astype(np.uint8)
    lead = np.where(i >= places, digits, 0).astype(np.uint8)
    last = lead.copy()
    last[0, -1] = ord("0")
    return np.concatenate([digits, lead, last]).view(np.uint32).reshape(-1)


def _sidecar_path(path: str | Path) -> Path:
    return Path(path).with_suffix(".npz")


def _first_seen(table: tuple[str, ...], codes: np.ndarray):
    """``codes`` and ``table`` as :meth:`EventLog.parse` reads them back:
    equal ids merged, and only the ids that appear, in order of first
    appearance."""
    merged: dict[str, int] = {}
    # Code -1 (absent) picks the trailing slot of each lookup below.
    codes = np.array([merged.setdefault(s, len(merged)) for s in table]
                     + [-1], dtype=np.int64)[codes]
    first = np.full(len(merged) + 1, len(codes))
    np.minimum.at(first, codes, np.arange(len(codes)))
    seen = np.flatnonzero(first[:-1] < len(codes))
    order = seen[np.argsort(first[seen])]
    renumber = np.full(len(merged) + 1, -1, dtype=np.int64)
    renumber[order] = np.arange(len(order))
    ids = list(merged)
    return renumber[codes], [ids[i] for i in order]


def _read_sidecar(path: Path, sha256: str) -> EventLog | None:
    """The log in the sidecar at ``path`` if it was written for the bytes
    whose SHA-256 is ``sha256`` and passes the checks ``parse`` makes,
    else None."""
    import zipfile  # as np.load does, so that commands that read no log skip it

    # What a file that is not a sidecar of this log may raise, from np.load
    # (a missing, truncated, foreign or corrupt zip, a plain .npy file) or
    # from decoding its JSON. Any of it means: parse the JSONL instead.
    not_a_sidecar = (OSError, EOFError, ValueError, LookupError, TypeError,
                     AttributeError, RuntimeError, MemoryError,
                     zipfile.BadZipFile, zlib.error)
    try:
        # np.load leaves a file it opened unclosed when the zip is corrupt.
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            columns, meta = npz["columns"], npz["meta"]
        meta = json.loads(meta.astype(np.uint8, casting="no").tobytes())
        if meta["sha256"] != sha256:
            return None
        tables = [meta[key] for key in ("users", "advertisers", "bidders")]
        seed, config_digest = meta["seed"], meta["config_digest"]
    except not_a_sidecar:
        return None
    if not (columns.dtype == np.int64 and columns.ndim == 2
            and len(columns) == len(FIELDS)
            and all(type(table) is list and all(type(s) is str for s in table)
                    for table in tables)) or _column_problem(columns, *tables):
        return None
    return EventLog(*columns, *map(tuple, tables), seed=seed,
                    config_digest=config_digest)
