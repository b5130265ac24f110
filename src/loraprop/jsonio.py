"""Atomic file writes, canonical JSON files and config digests."""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


@contextmanager
def atomic_write(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """A UTF-8 text handle on a new file beside ``path`` that replaces ``path`` when
    the block completes; on an exception the new file is removed instead."""
    temp = Path(path).with_name(f".{Path(path).name}.{os.urandom(6).hex()}.tmp")
    handle = open(temp, "x", newline=newline, encoding="utf-8")
    try:
        with handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, payload) -> None:
    """Two-space indent, sorted keys, trailing newline; written atomically."""
    with atomic_write(path) as handle:
        handle.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def config_digest(config) -> str:
    """SHA-256 of the compact, key-sorted JSON form of a configuration."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
