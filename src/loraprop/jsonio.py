"""Canonical JSON files (models, reports, manifests) and config digests."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def write_json(path: str | Path, payload) -> None:
    """Two-space indent, sorted keys, trailing newline."""
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def config_digest(config) -> str:
    """SHA-256 of the compact, key-sorted JSON form of a configuration."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
