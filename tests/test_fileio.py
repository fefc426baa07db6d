"""Atomic writes: a failed write leaves the previous file as it was."""

import os

import numpy as np
import pytest

from liftsim.fileio import atomic_write_text
from liftsim.liftmodel.sampling import TrainingSample, export_samples

SAMPLES = [TrainingSample("u0", 5, True, np.array([1.0, 2.0]))]

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
