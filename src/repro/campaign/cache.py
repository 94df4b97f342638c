"""Content-addressed result caches for sweep campaigns.

Two interchangeable implementations: :class:`ResultCache` persists one
JSON file per cell key on disk (survives interruption, shared across
campaigns and processes), :class:`MemoryCache` holds records for one
session (the benchmark suite's within-run dedupe).  Keys are the
:attr:`repro.campaign.spec.JobSpec.key` hashes, so a cache never needs
explicit invalidation — code or spec changes simply miss.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Dict, Iterator, Optional

_KEY_HEX = set("0123456789abcdef")


class ResultCache:
    """Disk-backed cache: ``<root>/<key>.json`` per completed cell."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = pathlib.Path(root)

    def _path(self, key: str) -> pathlib.Path:
        if not key or set(key) - _KEY_HEX:
            raise ValueError(f"malformed cache key {key!r}")
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The record stored for ``key``, or None.  Absent, torn by an
        interrupted campaign, or anything but a record of this key with
        its metrics is a miss, not an error: the cell re-runs and
        overwrites it."""
        path = self._path(key)  # malformed keys raise, outside the net below
        try:
            with open(path) as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        if isinstance(record, dict) and record.get("key") == key and "metrics" in record:
            return record
        return None

    def put(self, key: str, record: Dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w") as fh:
            json.dump(record, fh, sort_keys=True)
        os.replace(tmp, path)  # atomic: readers see old, torn-free, or new

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def keys(self) -> Iterator[str]:
        if not self.root.is_dir():
            return iter(())
        return (p.stem for p in self.root.glob("*.json"))

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())


class MemoryCache:
    """In-process cache with the same interface (one pytest session)."""

    def __init__(self) -> None:
        self._store: Dict[str, Dict[str, Any]] = {}

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        return self._store.get(key)

    def put(self, key: str, record: Dict[str, Any]) -> None:
        self._store[key] = record

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def keys(self):
        return iter(self._store)

    def __len__(self) -> int:
        return len(self._store)
