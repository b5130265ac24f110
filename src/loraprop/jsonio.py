"""Atomic file writes, canonical JSON files and run manifests."""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO

from . import __version__
from .errors import InvalidDataError


@contextmanager
def atomic_write(path: str | Path, newline: str | None = None) -> Iterator[TextIO]:
    """A UTF-8 text handle on a new file beside ``path`` that replaces ``path`` when
    the block completes; on an exception the new file is removed instead."""
    temp = Path(path).with_name(f".{Path(path).name}.{os.urandom(6).hex()}.tmp")
    try:
        handle = open(temp, "x", newline=newline, encoding="utf-8")
    except OSError as exc:  # named by the path written, not by the hidden one
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def to_json(payload, **options) -> str:
    """``json.dumps`` that refuses NaN and infinities, which JSON cannot hold."""
    try:
        return json.dumps(payload, allow_nan=False, **options)
    except ValueError as exc:
        raise InvalidDataError(f"result holds a non-finite number, not written as JSON ({exc})") from None


def write_json(path: str | Path, payload) -> None:
    """Two-space indent, sorted keys, trailing newline; written atomically, and
    not at all if the payload holds a non-finite number."""
    text = to_json(payload, indent=2, sort_keys=True) + "\n"
    with atomic_write(path) as handle:
        handle.write(text)


def read_json(path: str | Path):
    """The JSON value in a UTF-8 file; bytes that are not UTF-8 are an
    :class:`InvalidDataError` naming the file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidDataError(f"{path} is not UTF-8 text: byte {exc.start} ({exc.reason})") from None
    return json.loads(text)


def manifest(command: str, config, /, **fields) -> dict:
    """A run manifest: ``command``, ``tool_version``, the given ``fields`` and
    ``config_digest``, the SHA-256 of ``config``'s compact, key-sorted JSON."""
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
    return {"command": command, "tool_version": __version__, **fields, "config_digest": digest}
