"""Atomic file writing and the digest every artifact is stamped with.

Outputs are written to a temporary sibling and renamed into place, so a
failed run never leaves a partial file behind.
"""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import BinaryIO, Callable


def atomic_write(path: str | Path,
                 write: Callable[[BinaryIO], object]) -> None:
    """Call ``write`` on a binary file open at a temporary sibling of
    ``path``, then rename it to ``path``; if anything fails, remove it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write(path, lambda fh: fh.write(text.encode("utf-8")))


def json_digest(payload) -> str:
    """The first 16 hex digits of the SHA-256 of ``payload`` as JSON with
    sorted keys and no spaces."""
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]
