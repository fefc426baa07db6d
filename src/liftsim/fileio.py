"""Atomic file writing helpers.

Outputs are written to a temporary sibling and renamed into place, so a
failed run never leaves a partial file behind.
"""
from __future__ import annotations

import os
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
