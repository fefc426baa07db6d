"""Atomic writes: a failed write leaves the previous file as it was."""

import json
import os

import numpy as np
import pytest

from liftsim.fileio import atomic_write_text
from liftsim.liftmodel.features import QUERY_CHUNK_ROWS
from liftsim.liftmodel.sampling import export_samples, sample_records

SAMPLES = sample_records(["u0"], [5], [True], [[1.0, 2.0]])

WRITERS = {
    "atomic_write_text": lambda path: atomic_write_text(path, "new\n"),
    "export_samples": lambda path: export_samples(SAMPLES, path),
}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_failed_replace_keeps_the_previous_file(tmp_path, monkeypatch, write):
    target = tmp_path / "out.jsonl"
    target.write_text("previous\n")

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        write(target)
    assert target.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_write_replaces_the_previous_file(tmp_path, write):
    target = tmp_path / "out.jsonl"
    target.write_text("previous\n")
    write(target)
    assert target.read_text() != "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.jsonl"]


def test_exported_sample_line(tmp_path):
    # Plain JSON types only: json.dumps refuses numpy scalars.
    target = tmp_path / "samples.jsonl"
    export_samples(SAMPLES, target)
    assert target.read_text() == (
        '{"user":"u0","ts":5,"label":1,"features":[1.0,2.0]}\n')


def joined_export(samples):
    """The text of ``export_samples`` built as one string of joined lines,
    as it was before the lines were streamed."""
    lines = [json.dumps({"user": user, "ts": ts, "label": int(label),
                         "features": features}, separators=(",", ":"))
             for user, ts, label, features in zip(
                 samples.user_id.tolist(), samples.ts.tolist(),
                 samples.label.tolist(), samples.features.tolist())]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [0, 1, QUERY_CHUNK_ROWS, QUERY_CHUNK_ROWS + 1])
def test_streamed_samples_are_the_joined_text(tmp_path, n):
    rng = np.random.default_rng(n)
    samples = sample_records([f"u{i % 7}\u00e9" for i in range(n)],
                             rng.integers(0, 10**6, n), rng.random(n) < 0.3,
                             rng.random((n, 3)))
    target = tmp_path / "samples.jsonl"
    export_samples(samples, target)
    assert target.read_bytes() == joined_export(samples).encode("utf-8")
